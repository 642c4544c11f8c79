"""Finite-shot measurement simulation.

Settings: every pipeline measures fixed Pauli settings, X/Y/Z on a qubit and
the nine pairs XX..ZZ on a qubit pair.  `axis_probs` gives a qubit's (3, 2)
table of (+, -) probabilities and `pair_probs` a pair's (9, 4) table of
(++, +-, -+, --) probabilities, rows in `AXES` and `PAIRS` order; a stack of
states gives a stack of tables.  `correlators` is the one reading of an
outcome +-1: the mean (n+ - n-)/n of an axis table, (n++ - n+- - n-+ +
n--)/n of a pair table, which `estimate`'s linear inversion takes too.
Analytic and sampled runs read the same rows: probabilities are counts
scaled to one shot, so every estimator that takes counts (`correlators`,
`estimate.squared_bloch_length`) reads a Born table as it is, and analytic
mode, shots None, is a figure's sampled estimator run on its tables
(`squared_bloch_length` in the limit of infinitely many shots).

Counting model: each Pauli-pair (or single-qubit) setting is measured a fixed
number of times, drawn as one multinomial over the Born probabilities into an
integer count array, so each axis of a qubit is one binomial draw, which
the closed-form errors of `estimate` assume; no pipeline resamples counts
(`poisson_resample` stays for `perfbench/tracer.py`, ROADMAP item 1).  The
pipelines carry bare count arrays; `CountsTable` is the plain named tuple
(setting, counts, shots, seed) that `tables_from_csv` builds.

Reproducibility: all randomness flows through numpy's counter-based Philox
generator keyed by a 64-bit sub-seed, SHA-256 over the length-prefixed `str`
texts of the master seed and stream tags (module tag, probe index), so
distinct tag texts give distinct streams (the tags 4 and "4" share one) and
results are bit-for-bit identical across runs.  A seed
outside [0, 2**64) is refused, never folded onto another.  `derive_seed` is
the one place that derives a sub-seed, one call per stream.

One generator per draw: `sample_counts`, `poisson_resample` and
`estimate.qsv_run` take one seed, check a whole table first, naming the
first faulty row, then build `generator(seed)` and draw the whole table from
it in one numpy call, row by row in C order.  A Philox stream is fully
defined by its key and counter (Salmon et al., SC'11), so one stream per
call is reproducible from its seed alone.  No stream is built at import.

Number rules: `_integer`, `_count` (a positive integer of at most
`MAX_SHOTS` = 10**18, the one cap of shots, tests and counts) and
`_probability` are the library's one check of each kind of number, and
`_checked(name, rule, value)` names the argument or config field in the error.

Count tables as CSV: `tables_from_csv`, the one reader, checks plain text
column by column and table by table without the csv module; only when a rule
fails does `_fault` read it line by line to word the error.
"""
from __future__ import annotations

import hashlib
import sys
from operator import itemgetter
from typing import NamedTuple

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
    h = hashlib.sha256()
    for part in (_checked("master seed", _integer, master_seed), *parts):
        text = str(part).encode()
        h.update(len(text).to_bytes(8, "little") + text)
    return int.from_bytes(h.digest()[:8], "little")


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


def _is_number(v) -> bool:
    """A Python or numpy integer or float; a bool is not one."""
    return _is_integer(v) or isinstance(v, (float, np.floating))


def _integer(v) -> int:
    if not _is_integer(v):
        raise ValueError(f"must be an integer, got {v!r}")
    if limit := _digits_beyond_text(v):
        raise ValueError(f"must be an integer of at most {limit} digits")
    return int(v)


# The most shots per setting, tests per probe and counts: below the 2**63 - 1
# trials of numpy's multinomial and binomial samplers and the largest mean of
# its Poisson sampler, about 9.2e18, by which `poisson_resample` redraws each count.
MAX_SHOTS = 10**18


def _at_most(most: int) -> str:
    """The words of a cap `most`, a power of ten, as `_count`'s refusal and the CLI's help give it."""
    return f"at most 10**{len(str(most)) - 1}"


def _count(v, most: int = MAX_SHOTS) -> int:
    """A positive integer of at most `most`, a power of ten."""
    if _integer(v) < 1:
        raise ValueError(f"must be a positive integer, got {v!r}")
    if v > most:
        raise ValueError(f"must be {_at_most(most)}, got {v!r}")
    return int(v)


def _probability(v) -> float:
    if not (_is_number(v) and 0.0 <= v <= 1.0):
        raise ValueError(f"must be a number in [0, 1], got {v!r}")
    return float(v)


def _checked(field: str, check, v):
    """`check(v)`, its ValueError prefixed with the field's name."""
    try:
        return check(v)
    except ValueError as exc:
        raise ValueError(f"{field} {exc}") from None


def generator(seed: int) -> np.random.Generator:
    """Philox generator keyed by `seed` in [0, 2**64) (counter-based, platform
    independent): the one stream of each seeded call."""
    if not (_is_integer(seed) and 0 <= int(seed) < 2**64):
        raise ValueError(f"seed must be an integer in [0, 2**64), got {seed!r}")
    return np.random.Generator(np.random.Philox(key=seed))


class CountsTable(NamedTuple):
    """Outcome counts for one setting, with seed provenance, as
    `tables_from_csv` builds it once every rule holds: the counts a tuple of
    Python ints in `OUTCOMES_PAIR` or `OUTCOMES_SINGLE` order."""

    setting: str
    counts: tuple[int, ...]
    shots: int
    seed: int


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


def sample_counts(probs, shots: int, seed: int) -> np.ndarray:
    """Integer counts of each row of a (..., k) probability table, k = 2 or 4,
    from one multinomial draw of `shots` per row, the rows in C order in one
    call of `generator(seed)`; deterministic per seed.  `shots` is an integer
    in [1, `MAX_SHOTS`].  The whole table is checked before the draw, and an
    error names the first faulty row.
    """
    shots = _checked("shots", _count, shots)
    p = np.asarray(probs, dtype=float)
    if p.ndim < 1 or p.shape[-1] not in (2, 4):
        raise ValueError("probs must have 2 or 4 entries")
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
    return generator(seed).multinomial(shots, rows).reshape(p.shape)


def correlators(counts) -> np.ndarray:
    """The mean of the +-1 outcome of each table over the last axis: (n+ -
    n-)/shots of (+, -) axis counts, (n++ - n+- - n-+ + n--)/shots of pair
    counts.

    A table with no shots carries no information and gives 0.0, the value of
    an unpolarized axis or an uncorrelated pair.  No pipeline draws one, so a
    zero-shot table comes only from a caller's counts.
    """
    c = np.asarray(counts, dtype=float)
    shots = c.sum(axis=-1)
    diff = c[..., 0] - c[..., 1] if c.shape[-1] == 2 else c[..., 0] - c[..., 1] - c[..., 2] + c[..., 3]
    return np.divide(diff, shots, out=np.zeros_like(shots), where=shots > 0)


def apply_depolarizing(rho, p: float) -> np.ndarray:
    """(1-p) rho + p 1/d, checked, for one matrix or each of a (..., d, d)
    stack, in the stack's field; `p` is a Python or numpy int or float in
    [0, 1], not a bool, and enters as a Python float."""
    p = _checked("p", _probability, p)
    arr = _as_field_array(rho, "density matrix")
    d = arr.shape[-1]
    return checked_density((1.0 - p) * arr + p * np.eye(d) / d)


def poisson_resample(counts, resamples: int, seed: int) -> np.ndarray:
    """`resamples` redraws of a count array, each count replaced by a Poisson
    draw with that mean: one draw of shape (resamples, *counts.shape) from
    `generator(seed)`, a whole redraw of the array after another.
    `resamples` is an integer in [1, `MAX_SHOTS`], and counts must be whole
    numbers in [0, `MAX_SHOTS`], checked before the draw.
    """
    resamples = _checked("resamples", _count, resamples)
    counts = np.asarray(counts)
    values = np.asarray(counts, dtype=float)
    # The cap is compared on the counts as given: as a float, 10**18 + 1 reads 10**18.
    if (bad := np.flatnonzero(~((values >= 0) & (values == np.floor(values)) & (counts <= MAX_SHOTS)))).size:
        raise ValueError(f"count {counts.flat[bad[0]]} is not a whole number in [0, {MAX_SHOTS}]")
    return generator(seed).poisson(values, size=(resamples, *counts.shape))


# ---------------------------------------------------------------------------
# Count tables as CSV: rows `setting,outcome,count,shots,seed`, one per outcome.

CSV_HEADER = "setting,outcome,count,shots,seed"
_OUTCOMES = frozenset(OUTCOMES_PAIR + OUTCOMES_SINGLE)
_PAIR_COUNTS = itemgetter(*OUTCOMES_PAIR)
_SINGLE_COUNTS = itemgetter(*OUTCOMES_SINGLE)


def tables_from_csv(text: str) -> list[CountsTable]:
    """The count tables of plain CSV text: the line `CSV_HEADER`, then one row
    per outcome; LF or CRLF line ends, blank lines skipped but counted.  Rows
    sharing (setting, shots, seed) form one table, in order of first
    appearance, and shots and seed are compared as integers, so `7` and `07`
    name the same table.

    The five columns are sliced out of one split of the lines, and each rule
    is checked once per column (four commas a line, outcome labels, integer
    cells, shots at most `MAX_SHOTS`) or once per table (its outcome set,
    nonnegative counts summing to its shots).  Text that breaks a rule or
    holds a quote, lone carriage return or NUL raises the one-line
    ValueError of `_fault`; a non-`str` raises TypeError.
    """
    if not isinstance(text, str):
        raise TypeError(f"CSV text must be a str, got {type(text).__name__}")
    text = text.replace("\r\n", "\n") if "\r" in text else text
    lines = text.split("\n")
    rows = list(filter(None, lines))
    cells = ",".join(rows).split(",")
    settings, outcomes, counts, shots, seeds = (cells[5 + k::5] for k in range(5))
    try:
        if (lines[0] != CSV_HEADER or '"' in text or "\r" in text or "\0" in text
                or {row.count(",") for row in rows} != {4} or not _OUTCOMES.issuperset(outcomes)):
            raise ValueError
        values = list(map(int, counts))
        shot_of, seed_of = {t: int(t) for t in set(shots)}, {t: int(t) for t in set(seeds)}
        grouped: dict[tuple[str, int, int], dict[str, int]] = {}
        for setting, shot, seed, outcome, value in zip(settings, shots, seeds, outcomes, values):
            grouped.setdefault((setting, shot_of[shot], seed_of[seed]), {})[outcome] = value
        # A missing label raises KeyError, and a repeated or extra one leaves
        # fewer table counts than rows.
        table_counts = [(_PAIR_COUNTS if len(by_outcome) == 4 else _SINGLE_COUNTS)(by_outcome)
                        for by_outcome in grouped.values()]
        if (sum(map(len, table_counts)) != len(values) or min(values, default=0) < 0
                or max(shot_of.values(), default=0) > MAX_SHOTS
                or list(map(sum, table_counts)) != [key[1] for key in grouped]):
            raise ValueError
    except (KeyError, ValueError):
        raise ValueError(_fault(lines)) from None
    new = tuple.__new__
    return [new(CountsTable, (setting, tally, shots, seed))
            for (setting, shots, seed), tally in zip(grouped, table_counts)]


def _fault(lines: list[str]) -> str:
    """The error of count-table `lines` that break a rule of `tables_from_csv`:
    the first faulty line's (a quote, carriage return or NUL, the header, a
    row's field count, outcome label, integer cells, repeated outcome), else
    the first faulty table's (its outcome set, negative counts, shots above
    the cap, the counts' sum), each checked in that order.  Every rule of the
    reader is one of these, so faulty lines take one of the returns."""
    grouped: dict[tuple[str, int, int], dict[str, int]] = {}
    for number, line in enumerate(lines, 1):
        if odd := [c for c in '"\r\0' if c in line]:
            return f"CSV line {number}: count tables hold no quote, carriage return or NUL, got {odd[0]!r}"
        if number == 1 and line != CSV_HEADER:
            return f"expected header {CSV_HEADER}"
        if number == 1 or not line:
            continue
        row = line.split(",")
        if len(row) != 5:
            return f"CSV line {number}: expected 5 fields, got {row}"
        setting, outcome, count, shots, seed = row
        if outcome not in _OUTCOMES:
            return f"CSV line {number}: unknown outcome label {outcome!r}"
        try:
            key, value = (setting, int(shots), int(seed)), int(count)
        except ValueError:
            return f"CSV line {number}: count, shots and seed must be integers, got {count!r}, {shots!r}, {seed!r}"
        by_outcome = grouped.setdefault(key, {})
        if outcome in by_outcome:
            return (f"CSV line {number}: repeated outcome {outcome!r} for setting {setting!r}, "
                    f"shots {shots!r}, seed {seed!r}")
        by_outcome[outcome] = value
    for (setting, shots, seed), by_outcome in grouped.items():
        table = f"table for setting {setting!r}, shots {shots}, seed {seed}"
        labels = OUTCOMES_PAIR if len(by_outcome) == 4 else OUTCOMES_SINGLE
        if set(by_outcome) != set(labels):
            return f"{table} has outcomes {sorted(by_outcome)}, expected {', '.join(labels)}"
        tally = [by_outcome[label] for label in labels]
        if min(tally) < 0:
            return f"{table}: counts must be nonnegative"
        if shots > MAX_SHOTS:
            return f"{table}: shots must be {_at_most(MAX_SHOTS)}, got {shots!r}"
        if sum(tally) != shots:
            return f"{table}: counts sum {sum(tally)} != shots {shots}"
