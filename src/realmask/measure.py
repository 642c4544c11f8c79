"""Finite-shot measurement simulation.

Settings: every pipeline measures fixed Pauli settings, X/Y/Z on a qubit and
the nine pairs XX..ZZ on a qubit pair.  `axis_probs` gives a qubit's (3, 2)
table of (+, -) probabilities and `pair_probs` a pair's (9, 4) table of
(++, +-, -+, --) probabilities, rows in `AXES` and `PAIRS` order; a stack of
states gives a stack of tables.  Analytic and sampled runs read the same
rows: probabilities are counts scaled to one shot, so `correlators` serves
both.

Counting model: each Pauli-pair (or single-qubit) setting is measured a fixed
number of times, drawn as one multinomial over the Born probabilities into an
integer count array.  Poisson fluctuation enters only through the resampling
step used for error bars (one draw over a count array per estimate),
mirroring the analysis pipeline rather than a physical source model.  The
pipelines carry bare count arrays; `CountsTable` is the labelled record that
the CSV reader and writer exchange.

Reproducibility: all randomness flows through numpy's counter-based Philox
generator keyed by a 64-bit sub-seed, SHA-256 over the length-prefixed master
seed and stream tags (module tag, trial indices), so distinct tag tuples give
distinct streams and results are bit-for-bit identical across runs.  A seed
outside [0, 2**64) is refused, never folded onto another.

Draws by the table: `sample_counts` takes a (..., k) table of rows with a
(...) array of seeds and `poisson_resample` a stack of count arrays with one
seed per item.  Each call checks the whole table once, naming the first
faulty row, and builds one Philox that `generators` re-keys for every row:
a Philox stream is fully defined by its key and counter (Salmon et al., SC'11),
so each row gets the bits of `generator(seed)` without paying for a new one.
"""
from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from typing import Iterator, Sequence

import numpy as np

from .qcore import PAULIS, _as_complex_array, checked_density, kron

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
    [kron(p, q) for p in _eigenprojectors(pair[0]) for q in _eigenprojectors(pair[1])]
    for pair in PAIRS
])
# sigma_j ⊗ sigma_k for every pair, the observables whose means `correlators` estimates.
PAIR_PAULIS = np.stack([kron(PAULIS[pair[0]], PAULIS[pair[1]]) for pair in PAIRS])
PAIR_PAULIS.setflags(write=False)


def derive_seed(master_seed: int, *parts) -> int:
    """64-bit stream-split sub-seed: SHA-256 over the master seed and tags, each
    part's `str` text behind its 8-byte length, so the encoding is injective."""
    h = hashlib.sha256()
    for part in (int(master_seed), *parts):
        text = str(part).encode()
        h.update(len(text).to_bytes(8, "little"))
        h.update(text)
    return int.from_bytes(h.digest()[:8], "little")


def _is_integer(value) -> bool:
    """A Python int (a bool is not one) or a numpy integer."""
    return type(value) is int or isinstance(value, np.integer)


def _row_prefix(shape: tuple[int, ...], flat_index: int) -> str:
    """'row i: ' naming entry `flat_index` (C order) of an array of `shape`;
    empty for a single (0-d) entry."""
    if not shape:
        return ""
    index = tuple(int(i) for i in np.unravel_index(flat_index, shape))
    return f"row {index[0] if len(index) == 1 else index}: "


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


def generators(seeds) -> Iterator[np.random.Generator]:
    """`generator(seed)` for every seed of a (...) array in C order, from one
    Philox re-keyed in place: key = seed, counter 0, empty buffer.

    Every seed is checked before the first generator is handed out, and an
    error names the faulty row.  Each item is the same Generator, re-keyed
    when the next one is taken, so draw from it before moving on.
    """
    seeds = np.asarray(seeds, dtype=object)
    keys = seeds.ravel().tolist()
    if not all(map(_is_seed, keys)):
        i = next(i for i, key in enumerate(keys) if not _is_seed(key))
        raise _seed_error(keys[i], _row_prefix(seeds.shape, i))
    rng = np.random.Generator(np.random.Philox(0))
    return map(partial(_rekeyed, rng), keys)


_ZEROS = np.zeros(4, np.uint64)  # the state setter copies, so one read-only array serves
_ZEROS.setflags(write=False)


def _rekeyed(rng: np.random.Generator, seed: int) -> np.random.Generator:
    """`rng` with its Philox set to the state `np.random.Philox(key=seed)` starts in."""
    rng.bit_generator.state = {
        "bit_generator": "Philox",
        "state": {"counter": _ZEROS, "key": np.array([seed, 0], np.uint64)},
        "buffer": _ZEROS,
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }
    return rng


@dataclass(frozen=True)
class CountsTable:
    """Outcome counts for one measurement setting, with seed provenance: one
    CSV record of `tables_to_csv` / `tables_from_csv`."""

    setting: str
    counts: tuple[int, ...]
    shots: int
    seed: int

    def __post_init__(self):
        if not isinstance(self.setting, str) or "\r" in self.setting:
            raise ValueError(f"setting must be a string without a carriage return, got {self.setting!r}")
        if len(self.counts) not in (2, 4):
            raise ValueError("counts must have 2 (single-qubit) or 4 (pair) entries")
        try:
            ints = tuple(map(int, self.counts))
        except (TypeError, ValueError, OverflowError):
            ints = None
        if ints != tuple(self.counts):
            raise ValueError(f"counts must be whole numbers, got {tuple(self.counts)}")
        if min(ints) < 0:
            raise ValueError("counts must be nonnegative")
        if not (_is_integer(self.shots) and _is_integer(self.seed)):
            raise ValueError(f"shots and seed must be integers, got {self.shots!r}, {self.seed!r}")
        if sum(ints) != self.shots:
            raise ValueError(f"counts sum {sum(ints)} != shots {self.shots}")
        object.__setattr__(self, "counts", ints)

    def outcome_labels(self) -> tuple[str, ...]:
        return OUTCOMES_PAIR if len(self.counts) == 4 else OUTCOMES_SINGLE


def _projector_probs(rho, projectors: np.ndarray) -> np.ndarray:
    """tr(rho P) for every projector P of a (*k, d, d) stack and every matrix
    of a (..., d, d) stack of states: shape (..., *k)."""
    arr = _as_complex_array(rho, "density matrix")
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


def sample_counts(probs, shots: int, seed) -> np.ndarray:
    """Integer counts of each row of a (..., k) probability table, k = 2 or 4,
    from one multinomial draw per row; deterministic per seed.

    `seed` is a (...) array, one seed per row: row i is drawn from the stream
    of `generator(seed[i])`.  A single (k,) row takes a plain int seed.  The
    whole table is checked before any draw, and an error names the first
    faulty row.
    """
    if not _is_integer(shots) or shots < 1:
        raise ValueError(f"shots must be an integer >= 1, got {shots!r}")
    p = np.asarray(probs, dtype=float)
    if p.ndim < 1 or p.shape[-1] not in (2, 4):
        raise ValueError("probs must have 2 or 4 entries")
    seeds = np.asarray(seed, dtype=object)
    if seeds.shape != p.shape[:-1]:
        raise ValueError(f"need one seed per row: seeds of shape {seeds.shape} for probs of shape {p.shape}")
    rows = p.reshape(-1, p.shape[-1])
    sums = rows.sum(axis=-1)
    bad = (rows < -1e-12).any(axis=-1)
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{_row_prefix(p.shape[:-1], i)}negative probability in {rows[i]}")
    bad = ~(np.abs(sums - 1.0) <= 1e-9)  # a NaN sum is faulty too
    if bad.any():
        i = int(np.argmax(bad))
        raise ValueError(f"{_row_prefix(p.shape[:-1], i)}probabilities sum to {sums[i]}, expected 1")
    rows = np.clip(rows, 0.0, None)
    rows = rows / rows.sum(axis=-1, keepdims=True)
    counts = np.empty(rows.shape, dtype=np.int64)
    for i, rng in enumerate(generators(seeds)):
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
    """(1-p) rho + p 1/d, checked, for one matrix or each of a (..., d, d) stack."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p = {p} outside [0, 1]")
    arr = _as_complex_array(rho, "density matrix")
    d = arr.shape[-1]
    return checked_density((1.0 - p) * arr + p * np.eye(d) / d)


def poisson_resample(counts, resamples: int, seed) -> np.ndarray:
    """`resamples` redraws of a count array, each count replaced by a Poisson
    draw with that mean: one draw of shape (resamples, *counts.shape).

    With a (...) array of seeds, `counts` is a stack of count arrays of shape
    (..., *item), one seed per item, and the result has shape (...,
    resamples, *item): item i is the draw for `counts[i]` alone with
    `seed[i]`.
    """
    counts = np.asarray(counts)
    seeds = np.asarray(seed, dtype=object)
    stack = seeds.shape
    if counts.shape[:len(stack)] != stack:
        raise ValueError(f"need one seed per count array: seeds of shape {stack} "
                         f"for counts of shape {counts.shape}")
    item = counts.shape[len(stack):]
    items = counts.reshape(math.prod(stack), *item)
    draws = np.empty((len(items), resamples, *item), dtype=np.int64)
    for i, rng in enumerate(generators(seeds)):
        draws[i] = rng.poisson(items[i], size=(resamples, *item))
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

    The reader splits the records into five columns and checks each rule once
    per column or once per table.  An error still names what a row-at-a-time
    reader would: the file line on which the first faulty CSV record starts,
    or else the first faulty table.  The csv module's own errors, such as an
    unquoted carriage return, are raised as such a line error too, without
    the module's advice on how to open a file.
    """
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
    except csv.Error as err:
        raise ValueError(f"CSV line 1: {_csv_fault(err)}") from None
    if tuple(header or ()) != CSV_HEADER:
        raise ValueError(f"expected header {','.join(CSV_HEADER)}")
    # `fault` is (record number, message), the header being record 1.
    rows, fault = [], None
    try:
        rows.extend(reader)  # on a csv.Error the records before it stay in `rows`
    except csv.Error as err:
        fault = (len(rows) + 2, _csv_fault(err))
    records = range(2, len(rows) + 2)
    if not all(rows):  # blank records are skipped but keep their numbers
        records = [record for record, row in zip(records, rows) if row]
        rows = [row for row in rows if row]
    # Each row rule is checked over the records that passed the rules before
    # it; a fault cuts them to the records before the faulty one.  So `fault`
    # ends on the first faulty record, or on the csv.Error after the last read.
    width = len(CSV_HEADER)
    if set(map(len, rows)) - {width}:
        end = next(i for i, row in enumerate(rows) if len(row) != width)
        fault = (records[end], f"expected {width} fields, got {rows[end]}")
        rows = rows[:end]
    columns = tuple(zip(*rows)) or ((),) * width
    if not _OUTCOMES.issuperset(columns[1]):
        end = next(i for i, label in enumerate(columns[1]) if label not in _OUTCOMES)
        fault = (records[end], f"unknown outcome label {columns[1][end]!r}")
        columns = tuple(column[:end] for column in columns)
    try:
        values, shot_of, seed_of = _integers(*columns[2:])
    except ValueError:
        end = next(i for i, cells in enumerate(zip(*columns[2:])) if not all(map(_is_integer_text, cells)))
        fault = (records[end], f"count, shots and seed must be integers, got {columns[2][end]!r}, "
                               f"{columns[3][end]!r}, {columns[4][end]!r}")
        columns = tuple(column[:end] for column in columns)
        values, shot_of, seed_of = _integers(*columns[2:])
    settings, outcomes, _, shots, seeds = columns
    keys = list(zip(settings, map(shot_of.__getitem__, shots), map(seed_of.__getitem__, seeds)))
    grouped: dict[tuple[str, int, int], dict[str, int]] = {}
    for key, outcome, value in zip(keys, outcomes, values):
        grouped.setdefault(key, {})[outcome] = value
    if sum(map(len, grouped.values())) < len(keys):
        seen = set()
        end = next(i for i, cell in enumerate(zip(keys, outcomes)) if cell in seen or seen.add(cell))
        fault = (records[end], f"repeated outcome {outcomes[end]!r} for setting {settings[end]}, "
                               f"shots {shots[end]}, seed {seeds[end]}")
    if fault is not None:
        record, message = fault
        raise ValueError(f"CSV line {_start_line(text, record)}: {message}")
    # The table rules, once per column: every table holds exactly the pair or
    # the single outcomes, no setting holds a carriage return, no count is
    # negative and each table's counts sum to its shots.  These are all the
    # rules `CountsTable.__post_init__` checks, so the records skip it.
    try:
        counts = [(_PAIR_COUNTS if len(by_outcome) == 4 else _SINGLE_COUNTS)(by_outcome)
                  for by_outcome in grouped.values()]
    except KeyError:
        counts = None
    if (counts is None or sum(map(len, counts)) != len(keys) or min(values, default=0) < 0
            or "\r" in "".join(settings) or list(map(sum, counts)) != [key[1] for key in grouped]):
        return _checked_tables(grouped)
    tables = []
    for (setting, shots, seed), table_counts in zip(grouped, counts):
        table = object.__new__(CountsTable)
        table.__dict__.update(setting=setting, counts=table_counts, shots=shots, seed=seed)
        tables.append(table)
    return tables


_OUTCOMES = frozenset(OUTCOMES_PAIR + OUTCOMES_SINGLE)
_PAIR_COUNTS = itemgetter(*OUTCOMES_PAIR)
_SINGLE_COUNTS = itemgetter(*OUTCOMES_SINGLE)


def _integers(counts, shots, seeds) -> tuple[list[int], dict[str, int], dict[str, int]]:
    """int() of every count cell, and of each distinct shots and seed text once."""
    return list(map(int, counts)), {t: int(t) for t in set(shots)}, {t: int(t) for t in set(seeds)}


def _start_line(text: str, record: int) -> int:
    """The file line on which CSV record `record` (the header is 1) starts: a
    quoted field may hold newlines, so records and lines differ.  Read again
    from the top, which only the error path pays for."""
    reader = csv.reader(io.StringIO(text))
    for _ in range(record - 1):
        next(reader)
    return reader.line_num + 1


def _is_integer_text(text: str) -> bool:
    try:
        int(text)
    except ValueError:
        return False
    return True


def _checked_tables(grouped: dict[tuple[str, int, int], dict[str, int]]) -> list[CountsTable]:
    """The tables one at a time, each through `CountsTable`'s own checks: raises
    on the first faulty table, in order of first appearance."""
    tables = []
    for (setting, shots, seed), by_outcome in grouped.items():
        labels = OUTCOMES_PAIR if len(by_outcome) == 4 else OUTCOMES_SINGLE
        if set(by_outcome) != set(labels):
            raise ValueError(
                f"table for setting {setting}, shots {shots}, seed {seed} has outcomes "
                f"{sorted(by_outcome)}, expected {', '.join(labels)}"
            )
        counts = tuple(by_outcome[label] for label in labels)
        try:
            tables.append(CountsTable(setting=setting, counts=counts, shots=shots, seed=seed))
        except ValueError as err:
            raise ValueError(f"table for setting {setting}, shots {shots}, seed {seed}: {err}") from None
    return tables
