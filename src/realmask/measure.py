"""Finite-shot measurement simulation.

Settings: every pipeline measures fixed Pauli settings, X/Y/Z on a qubit and
the nine pairs XX..ZZ on a qubit pair.  `axis_probs` gives a qubit's (3, 2)
table of (+, -) probabilities and `pair_probs` a pair's (9, 4) table of
(++, +-, -+, --) probabilities, rows in `AXES` and `PAIRS` order; a stack of
states gives a stack of tables.  Analytic and sampled runs read the same
rows: probabilities are counts scaled to one shot, so every estimator that
takes counts (`correlators`, `estimate.purity_from_counts`) reads a Born
table as it is, and analytic mode is a figure's sampled estimator run on
its tables.

Counting model: each Pauli-pair (or single-qubit) setting is measured a fixed
number of times, drawn as one multinomial over the Born probabilities into an
integer count array.  Poisson fluctuation enters only through the resampling
step used for error bars (one draw over a count array per estimate),
mirroring the analysis pipeline rather than a physical source model.  The
pipelines carry bare count arrays; `CountsTable` is the labelled record that
the CSV reader and writer exchange, an immutable named tuple (setting, counts,
shots, seed) whose constructor and `_replace` apply every rule of a table.

Reproducibility: all randomness flows through numpy's counter-based Philox
generator keyed by a 64-bit sub-seed, SHA-256 over the length-prefixed `str`
texts of the master seed and stream tags (module tag, trial indices), so
distinct tag texts give distinct streams (the tags 4 and "4" share one) and
results are bit-for-bit identical across runs.  A seed
outside [0, 2**64) is refused, never folded onto another.  `derive_seeds`
gives the sub-seeds of a family of tag tuples that share a prefix, hashing
the prefix once.

Draws by the table: `sample_counts`, `poisson_resample` and
`estimate.qsv_run` check a whole table once, naming the first faulty row,
and draw each row from its own seed through `generators(seeds, rows)`, the
one holder of that rule.  Each call builds one Philox stream of its own and
re-keys it per row: a Philox stream is fully defined by its key and counter
(Salmon et al., SC'11), so each row gets the bits of `generator(seed)`
without paying for a new one, and a generator a caller holds moves only
with its own iterator, never with another draw.  No stream is built at
import.

Count tables as CSV: `tables_from_csv` splits plain text into columns
without the csv module; text with a quote, lone CR or NUL, or that breaks a
rule, goes to a row-at-a-time `csv.reader`, the one place that words an error.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
import sys
from functools import lru_cache, partial
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .qcore import EPS_EXACT, EPS_PROB, PAULIS, _as_field_array, _row_prefix, checked_density

# The Pauli measurement convention every pipeline shares: axis and pair
# labels, outcome labels, and the eigenprojectors the probability tables read.
AXES = ("X", "Y", "Z")
PAIRS = tuple(j + k for j in AXES for k in AXES)
OUTCOMES_PAIR = ("++", "+-", "-+", "--")
OUTCOMES_SINGLE = ("+", "-")


def _eigenprojectors(axis: str) -> tuple[np.ndarray, np.ndarray]:
    """Projectors onto the +1 and -1 eigenspaces of one Pauli."""
    eye = np.eye(2)
    return (eye + PAULIS[axis]) / 2, (eye - PAULIS[axis]) / 2


_AXIS_PLUS = np.stack([_eigenprojectors(a)[0] for a in AXES])
_PAIR_PROJECTORS = np.stack([
    [np.kron(p, q) for p in _eigenprojectors(pair[0]) for q in _eigenprojectors(pair[1])]
    for pair in PAIRS
])
# sigma_j ⊗ sigma_k for every pair, the observables whose means `correlators` estimates.
PAIR_PAULIS = np.stack([np.kron(PAULIS[pair[0]], PAULIS[pair[1]]) for pair in PAIRS])
PAIR_PAULIS.setflags(write=False)


def derive_seed(master_seed: int, *parts) -> int:
    """64-bit stream-split sub-seed: SHA-256 over the master seed, a Python or
    numpy integer of any sign, and tags, each part's `str` text behind its
    8-byte length, so the encoding is injective on the parts' texts: tags of
    one text, such as 4 and "4", give one sub-seed."""
    return derive_seeds(master_seed, parts, [()])[0]


def derive_seeds(master_seed: int, prefix: Sequence, suffixes: Iterable[Sequence]) -> list[int]:
    """`derive_seed(master_seed, *prefix, *suffix)` for each suffix, in order:
    the master seed and the shared prefix are hashed once, and each suffix
    extends a copy of that hash, so the bytes hashed are the same."""
    if not _is_integer(master_seed):
        raise ValueError(f"master seed must be an integer, got {master_seed!r}")
    if limit := _digits_beyond_text(master_seed):
        raise ValueError(f"master seed must be an integer of at most {limit} digits")
    head = hashlib.sha256()
    _hash_parts(head, (int(master_seed), *prefix))
    seeds = []
    for suffix in suffixes:
        h = head.copy()
        _hash_parts(h, suffix)
        seeds.append(int.from_bytes(h.digest()[:8], "little"))
    return seeds


def _hash_parts(h, parts) -> None:
    """Feed each part's `str` text behind its 8-byte length to `h`."""
    for part in parts:
        text = str(part).encode()
        h.update(len(text).to_bytes(8, "little") + text)


def _is_integer(value) -> bool:
    """A Python int (a bool is not one) or a numpy integer."""
    return type(value) is int or isinstance(value, np.integer)


def _digits_beyond_text(value) -> int:
    """`sys.get_int_max_str_digits()` if the integer `value` has more digits,
    else 0: Python cannot write such a value, so it cannot be hashed or named."""
    limit = getattr(sys, "get_int_max_str_digits", int)()  # absent before Python 3.10.7: no limit
    n = abs(int(value))
    # 2**(3 * limit) < 10**limit, so a shorter n needs no power of ten.
    return limit if limit and n.bit_length() > 3 * limit and n >= 10**limit else 0


def _is_seed(value) -> bool:
    return _is_integer(value) and 0 <= int(value) < 2**64


def _seed_error(seed, prefix: str = "") -> ValueError:
    return ValueError(f"{prefix}seed must be an integer in [0, 2**64), got {seed!r}")


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by `seed` in [0, 2**64) (counter-based, platform
    independent): the reference stream that `generators` reproduces."""
    if not _is_seed(seed):
        raise _seed_error(seed)
    return np.random.Generator(np.random.Philox(key=seed))


def generators(seeds, rows) -> Iterator[np.random.Generator]:
    """`generator(seed)` for every seed of an array of the shape `rows`, one
    per row, in C order, from one Philox stream of this call, re-keyed in
    place for each row: key = seed, counter 0, empty buffer.

    Seeds of another shape are refused at the call; a faulty seed is named by
    its row when the first generator is taken, after a caller's own checks.
    Each item is the call's one Generator, re-keyed for the next row: draw
    from it before taking the next.
    """
    seeds = np.asarray(seeds, dtype=object)
    if seeds.shape != tuple(rows):
        raise ValueError(f"need one seed per row: seeds of shape {seeds.shape} for rows of shape {tuple(rows)}")
    return _rekeyed_rows(seeds)


def _rekeyed_rows(seeds: np.ndarray) -> Iterator[np.random.Generator]:
    keys = seeds.ravel().tolist()
    if bad := [i for i, key in enumerate(keys) if not _is_seed(key)]:
        raise _seed_error(keys[bad[0]], _row_prefix(seeds.shape, bad[0]))
    rng = np.random.Generator(np.random.Philox(_seed_sequence()))
    yield from map(partial(_rekeyed, rng, rng.bit_generator), map(int, keys))


_ZEROS = (0, 0, 0, 0)
# Each call's Philox entropy, built once on first use (not at import); `_rekeyed` overwrites the state.
_seed_sequence = lru_cache(maxsize=None)(lambda: np.random.SeedSequence(0))


def _rekeyed(rng: np.random.Generator, bit_generator: np.random.Philox, seed: int) -> np.random.Generator:
    """`rng` with its Philox `bit_generator` set to the state that
    `np.random.Philox(key=seed)` starts in, given as plain ints, which the
    state setter reads word by word."""
    bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": (seed, 0)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


# A NamedTuple class may not define `__new__`, so the checks sit in a subclass.
class _CountsTableFields(NamedTuple):
    setting: str
    counts: tuple[int, ...]
    shots: int
    seed: int


class CountsTable(_CountsTableFields):
    """Outcome counts for one measurement setting, with seed provenance: one
    CSV record of `tables_to_csv` / `tables_from_csv`.

    An immutable named tuple (setting, counts, shots, seed): it unpacks,
    indexes and equals the plain tuple of its fields.  The constructor
    checks every field and stores the counts as a tuple of Python ints;
    pickle at every protocol, `copy`, `_make`, and `_replace`, which builds
    through `_make`, all call it.
    """

    __slots__ = ()

    def __new__(cls, setting: str, counts, shots: int, seed: int):
        if not isinstance(setting, str) or "\r" in setting or "\0" in setting:
            raise ValueError(f"setting must be a string without a carriage return or NUL, got {setting!r}")
        if len(counts) not in (2, 4):
            raise ValueError("counts must have 2 (single-qubit) or 4 (pair) entries")
        try:
            ints = tuple(map(int, counts))
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != tuple(counts):
            raise ValueError(f"counts must be whole numbers, got {tuple(counts)}")
        if min(ints) < 0:
            raise ValueError("counts must be nonnegative")
        if not (_is_integer(shots) and _is_integer(seed)):
            raise ValueError(f"shots and seed must be integers, got {shots!r}, {seed!r}")
        if sum(ints) != shots:
            raise ValueError(f"counts sum {sum(ints)} != shots {shots}")
        return tuple.__new__(cls, (setting, ints, shots, seed))

    @classmethod
    def _make(cls, iterable) -> CountsTable:
        return cls(*iterable)

    def __reduce__(self):
        return CountsTable, tuple(self)

    def outcome_labels(self) -> tuple[str, ...]:
        return OUTCOMES_PAIR if len(self.counts) == 4 else OUTCOMES_SINGLE


def _projector_probs(rho, projectors: np.ndarray) -> np.ndarray:
    """tr(rho P) for every projector P of a (*k, d, d) stack and every matrix
    of a (..., d, d) stack of states: shape (..., *k)."""
    arr = _as_field_array(rho, "density matrix")
    d = projectors.shape[-1]
    if arr.shape[-2:] != (d, d):
        raise ValueError(f"expected {d}x{d} density matrices, got shape {arr.shape}")
    arr = arr.reshape(arr.shape[:-2] + (1,) * (projectors.ndim - 2) + (d, d))
    return np.trace(arr @ projectors, axis1=-2, axis2=-1).real


def axis_probs(rho) -> np.ndarray:
    """(3, 2) table of (+, -) probabilities of a qubit, rows in `AXES` order;
    (..., 3, 2) for a (..., 2, 2) stack.

    Each row is [p, 1 - p] with p from the + projector.  A separate trace for
    the - outcome can differ from 1 - p in the last bit, and that moves the
    multinomial draw at p = 1/2, where the reduced qubits of masked real states
    sit.
    """
    plus = _projector_probs(rho, _AXIS_PLUS)
    return np.stack([plus, 1.0 - plus], axis=-1)


def pair_probs(rho) -> np.ndarray:
    """(9, 4) table of (++, +-, -+, --) probabilities of a qubit pair, rows in
    `PAIRS` order; (..., 9, 4) for a (..., 4, 4) stack."""
    return _projector_probs(rho, _PAIR_PROJECTORS)


# numpy's multinomial and binomial samplers take a signed 64-bit trial count.
_MAX_SHOTS = 2**63 - 1
_MAX_POISSON_MEAN = np.iinfo(np.int64).max - 10 * np.sqrt(np.iinfo(np.int64).max)


def sample_counts(probs, shots: int, seed) -> np.ndarray:
    """Integer counts of each row of a (..., k) probability table, k = 2 or 4,
    from one multinomial draw of `shots` per row; deterministic per seed.
    `shots` is an integer in [1, 2**63 - 1], as the int64 counts hold.

    `seed` holds a seed for each row, a plain int for a single (k,) row: row
    i is drawn from the stream of `generator(seed[i])`.  The whole table is
    checked before any draw, and an error names the first faulty row.
    """
    if not (_is_integer(shots) and 1 <= shots <= _MAX_SHOTS):
        raise ValueError(f"shots must be an integer in [1, 2**63 - 1], got {shots!r}")
    p = np.asarray(probs, dtype=float)
    if p.ndim < 1 or p.shape[-1] not in (2, 4):
        raise ValueError("probs must have 2 or 4 entries")
    rngs = generators(seed, p.shape[:-1])
    rows = p.reshape(-1, p.shape[-1])
    sums = rows.sum(axis=-1)
    bad = (rows < -EPS_EXACT).any(axis=-1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{_row_prefix(p.shape[:-1], i)}negative probability in {rows[i]}")
    bad = ~(np.abs(sums - 1.0) <= EPS_PROB)  # a NaN sum is faulty too
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{_row_prefix(p.shape[:-1], i)}probabilities sum to {sums[i]}, expected 1")
    rows = np.clip(rows, 0.0, None)
    rows = rows / rows.sum(axis=-1, keepdims=True)
    counts = np.empty(rows.shape, dtype=np.int64)
    for i, rng in enumerate(rngs):
        counts[i] = rng.multinomial(shots, rows[i])
    return counts.reshape(p.shape)


def correlators(counts) -> np.ndarray:
    """(n++ - n+- - n-+ + n--)/shots over the last axis of pair counts.

    A table with no shots carries no information and gives 0.0, the value of
    an uncorrelated pair; a zero-count bootstrap resample is one.
    """
    c = np.asarray(counts, dtype=float)
    shots = c.sum(axis=-1)
    diff = c[..., 0] - c[..., 1] - c[..., 2] + c[..., 3]
    return np.divide(diff, shots, out=np.zeros_like(shots), where=shots > 0)


def apply_depolarizing(rho, p: float) -> np.ndarray:
    """(1-p) rho + p 1/d, checked, for one matrix or each of a (..., d, d)
    stack, in the stack's field; `p` is a number in [0, 1], not a bool, and
    enters as a Python float."""
    if isinstance(p, (bool, np.bool_)) or not 0.0 <= p <= 1.0:
        raise ValueError(f"p must be a number in [0, 1], got {p!r}")
    p = float(p)
    arr = _as_field_array(rho, "density matrix")
    d = arr.shape[-1]
    return checked_density((1.0 - p) * arr + p * np.eye(d) / d)


def poisson_resample(counts, resamples: int, seed) -> np.ndarray:
    """`resamples` redraws of a count array, each count replaced by a Poisson
    draw with that mean: one draw of shape (resamples, *counts.shape).

    With a (...) array of seeds, `counts` is a stack of count arrays of shape
    (..., *item), its leading axes the rows of `generators`, and the result
    has shape (..., resamples, *item): item i is the draw for `counts[i]`
    alone with `seed[i]`.  `resamples` is an integer >= 1, and counts must
    be whole numbers in [0, `_MAX_POISSON_MEAN`], numpy's Poisson limit.
    """
    if not (_is_integer(resamples) and resamples >= 1):
        raise ValueError(f"resamples must be an integer >= 1, got {resamples!r}")
    counts = np.asarray(counts)
    stack = counts.shape[:np.asarray(seed, dtype=object).ndim]
    rngs = generators(seed, stack)
    item = counts.shape[len(stack):]
    items = counts.reshape(math.prod(stack), *item)
    values = np.asarray(items, dtype=float)
    if (bad := np.argwhere(~((values >= 0) & (values <= _MAX_POISSON_MEAN) & (values == np.floor(values))))).size:
        raise ValueError(f"{_row_prefix(stack, bad[0, 0])}count {items[tuple(bad[0])]} is not a whole number "
                         f"in [0, {int(_MAX_POISSON_MEAN)}]")
    draws = np.empty((len(items), resamples, *item), dtype=np.int64)
    for i, rng in enumerate(rngs):
        draws[i] = rng.poisson(values[i], size=(resamples, *item))
    return draws.reshape(*stack, resamples, *item)


# ---------------------------------------------------------------------------
# CSV serialization: rows `setting,outcome,count,shots,seed`, one per outcome.

CSV_HEADER = ("setting", "outcome", "count", "shots", "seed")


def tables_to_csv(tables: Sequence[CountsTable]) -> str:
    """CSV text of `tables`; two that share (setting, shots, seed), which the reader would merge, raise."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    seen = set()
    for t in tables:
        if (t.setting, t.shots, t.seed) in seen:
            raise ValueError(f"two tables share setting {t.setting}, shots {t.shots}, seed {t.seed}")
        seen.add((t.setting, t.shots, t.seed))
        for label, count in zip(t.outcome_labels(), t.counts):
            writer.writerow([t.setting, label, count, t.shots, t.seed])
    return buf.getvalue()


def _csv_fault(err: csv.Error) -> str:
    """A csv module error's message up to its advice on how to open a file,
    which does not apply to a reader of a string."""
    return str(err).partition(" - do you need")[0]


def tables_from_csv(text: str) -> list[CountsTable]:
    """Parse `tables_to_csv` output; rows sharing (setting, shots, seed) form one
    table, in order of first appearance, and shots and seed are compared as
    integers, so `7` and `07` name the same table.

    Plain LF or CRLF text that follows every rule is split without the csv
    module (`_clean_tables`).  Text with a quote, lone CR or NUL, or that
    breaks a rule, is read record by record (`_read_records`), which words
    every error: the file line on which the first faulty CSV record starts,
    or else the first faulty table.  A non-`str` raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"CSV text must be a str, got {type(text).__name__}")
    tables = _clean_tables(text)
    return _read_records(text) if tables is None else tables


_OUTCOMES = frozenset(OUTCOMES_PAIR + OUTCOMES_SINGLE)
_PAIR_COUNTS = itemgetter(*OUTCOMES_PAIR)
_SINGLE_COUNTS = itemgetter(*OUTCOMES_SINGLE)


def _clean_tables(text: str) -> list[CountsTable] | None:
    """The tables of plain `text` (no quote, lone carriage return or NUL) when
    every record and table follows the rules, else None.  CRLF reads as LF,
    the header is the first line and blank lines after it are skipped; the
    five columns are sliced out of one split of the lines, which must hold
    four commas each and no cell over csv's field size limit.  Each rule is
    checked once per column or once per table; nothing here locates a fault."""
    text = text.replace("\r\n", "\n") if "\r" in text else text  # csv.reader ends a line at either
    if '"' in text or "\r" in text or "\0" in text or text.partition("\n")[0] != ",".join(CSV_HEADER):
        return None
    lines = list(filter(None, text.split("\n")))
    cells = ",".join(lines).split(",")
    if ({line.count(",") for line in lines} != {4}
            or len(text) > csv.field_size_limit() and max(map(len, cells)) > csv.field_size_limit()):
        return None
    settings, outcomes, counts, shots, seeds = (cells[5 + k::5] for k in range(5))
    if not _OUTCOMES.issuperset(outcomes):
        return None
    try:
        values = list(map(int, counts))
        shot_of, seed_of = {t: int(t) for t in set(shots)}, {t: int(t) for t in set(seeds)}
    except ValueError:
        return None
    grouped: dict[tuple[str, int, int], dict[str, int]] = {}
    for setting, shot, seed, outcome, value in zip(settings, shots, seeds, outcomes, values):
        grouped.setdefault((setting, shot_of[shot], seed_of[seed]), {})[outcome] = value
    # Each table must hold exactly the pair or the single outcomes, once each:
    # a missing label raises KeyError, and a repeated or extra one leaves
    # fewer table counts than records.
    try:
        table_counts = [(_PAIR_COUNTS if len(by_outcome) == 4 else _SINGLE_COUNTS)(by_outcome)
                        for by_outcome in grouped.values()]
    except KeyError:
        return None
    # With no carriage return or NUL in the text, no negative count and each
    # table's counts summing to its shots, every rule of the `CountsTable`
    # constructor holds, so the tables skip it.
    if (sum(map(len, table_counts)) != len(values) or min(values, default=0) < 0
            or list(map(sum, table_counts)) != [key[1] for key in grouped]):
        return None
    new = tuple.__new__
    return [new(CountsTable, (setting, tally, shots, seed))
            for (setting, shots, seed), tally in zip(grouped, table_counts)]


def _read_records(text: str) -> list[CountsTable]:
    """`tables_from_csv` one record at a time: every rule runs on each row as it
    is read, and each table is built through `CountsTable`.  A line error
    names the file line on which the record starts, one past the lines
    `csv.reader` had read before it, and a csv module error is one, without
    the module's advice on how to open a file."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
    except csv.Error as err:
        raise ValueError(f"CSV line 1: {_csv_fault(err)}") from None
    if tuple(header or ()) != CSV_HEADER:
        raise ValueError(f"expected header {','.join(CSV_HEADER)}")
    grouped: dict[tuple[str, int, int], dict[str, int]] = {}
    while True:
        line = reader.line_num + 1
        try:
            row = next(reader)
        except StopIteration:
            break
        except csv.Error as err:
            raise ValueError(f"CSV line {line}: {_csv_fault(err)}") from None
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"CSV line {line}: expected {len(CSV_HEADER)} fields, got {row}")
        setting, outcome, count, shots, seed = row
        if outcome not in _OUTCOMES:
            raise ValueError(f"CSV line {line}: unknown outcome label {outcome!r}")
        try:
            key, value = (setting, int(shots), int(seed)), int(count)
        except ValueError:
            raise ValueError(f"CSV line {line}: count, shots and seed must be integers, got {count!r}, "
                             f"{shots!r}, {seed!r}") from None
        by_outcome = grouped.setdefault(key, {})
        if outcome in by_outcome:
            raise ValueError(f"CSV line {line}: repeated outcome {outcome!r} for setting {setting}, "
                             f"shots {shots}, seed {seed}")
        by_outcome[outcome] = value
    tables = []
    for (setting, shots, seed), by_outcome in grouped.items():
        labels = OUTCOMES_PAIR if len(by_outcome) == 4 else OUTCOMES_SINGLE
        if set(by_outcome) != set(labels):
            raise ValueError(f"table for setting {setting}, shots {shots}, seed {seed} has outcomes "
                             f"{sorted(by_outcome)}, expected {', '.join(labels)}")
        try:
            tables.append(CountsTable(setting, tuple(by_outcome[label] for label in labels), shots, seed))
        except ValueError as err:
            raise ValueError(f"table for setting {setting}, shots {shots}, seed {seed}: {err}") from None
    return tables
