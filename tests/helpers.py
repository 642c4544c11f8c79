"""Random states, oracles and reference formulas that only the tests use.

Each helper returns plain arrays, like the library: amplitudes of shape (d,),
density matrices of shape (d, d).
"""
from __future__ import annotations

import csv
import io

import numpy as np

from realmask.masker import mask_pure, masker_matrix
from realmask.measure import CSV_HEADER, OUTCOMES_PAIR, OUTCOMES_SINGLE, CountsTable
from realmask.optics import V
from realmask.qcore import (
    EPS_EXACT,
    EPS_NUMERIC,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DimensionError,
    checked_density,
    checked_state,
    concurrence_from_purity,
    kron,
    partial_trace,
    purity,
    require_unitary,
)
from realmask.walk import ExtractionError, Local, RailState, extract_two_qubit, run


# ---------------------------------------------------------------------------
# Random objects.

def haar_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_real_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Full-support real density matrix G^T G / tr(G^T G), checked."""
    g = rng.normal(size=(dim, dim))
    m = g.T @ g
    return checked_density(m / np.trace(m))


def random_density(dim: int, rng: np.random.Generator) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return checked_density(m / np.trace(m).real)


def random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed unitary via QR with phase fixing."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(g)
    phases = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * phases


# ---------------------------------------------------------------------------
# The masker on a mixed state.

def mask_state(rho) -> np.ndarray:
    """M rho M† as a checked two-qubit density matrix."""
    arr = np.asarray(rho, dtype=complex)
    if arr.shape != (4, 4):
        raise ValueError("mask_state expects a 4x4 density matrix")
    m = masker_matrix()
    return checked_density(m @ arr @ m.conj().T)


# ---------------------------------------------------------------------------
# Distances between states.

def density(psi) -> np.ndarray:
    """|psi><psi| of a (d,) pure state, both checked."""
    a = checked_state(psi)
    return checked_density(np.outer(a, a.conj()))


def inner(a, b) -> complex:
    """<a|b> of two pure states."""
    return complex(np.vdot(checked_state(a), checked_state(b)))


def pure_fidelity(a, b) -> float:
    """|<a|b>|^2 of two pure states."""
    return abs(inner(a, b)) ** 2


def trace_distance(a, b) -> float:
    """Half the trace norm of a - b."""
    diff = np.asarray(a, dtype=complex) - np.asarray(b, dtype=complex)
    return 0.5 * float(np.abs(np.linalg.eigvalsh(diff)).sum())


# ---------------------------------------------------------------------------
# Entanglement and imaginarity of pure states.

def concurrence_pure(psi) -> float:
    """Entanglement of a two-qubit pure state: sqrt(2(1 - tr rho_A^2))."""
    a = checked_state(psi)
    if a.size != 4:
        raise DimensionError("concurrence_pure expects a two-qubit state")
    return float(concurrence_from_purity(purity(partial_trace(density(a), keep="A"))))


def robustness_of_imaginarity(rho) -> float:
    """How non-real a state is in the computational basis: ||rho - rho^T||_1 / 2.

    Since rho is Hermitian, rho^T is its entrywise conjugate, so rho - rho^T
    is itself Hermitian (purely imaginary, antisymmetric) and the trace norm
    is the sum of its eigenvalue magnitudes.  For pure states the value must
    also equal sqrt(1 - tr(rho rho^T)); both are computed and cross-checked
    whenever the input is pure.
    """
    arr = np.asarray(rho, dtype=complex)
    value = 0.5 * float(np.abs(np.linalg.eigvalsh(arr - arr.T)).sum())
    if abs(purity(arr) - 1.0) <= EPS_NUMERIC:
        alt = float(np.sqrt(max(0.0, 1.0 - np.trace(arr @ arr.T).real)))
        if abs(value - alt) > EPS_NUMERIC:
            raise AssertionError(
                f"imaginarity cross-check failed: trace-norm {value} vs pure-state form {alt}"
            )
    return value


# ---------------------------------------------------------------------------
# The masker's maximally entangled family and its concurrence relation.

def magic_basis() -> list[np.ndarray]:
    """The orthonormal maximally entangled family (U_j ⊗ 1)|Phi>, j = 0..3."""
    return list(1j * masker_matrix().T)


def check_concurrence_relation(psi) -> tuple[float, float]:
    """(concurrence of the masked output, imaginarity of the input); for any
    pure ququart they satisfy C = sqrt(1 - I_R^2)."""
    return concurrence_pure(mask_pure(psi)), robustness_of_imaginarity(density(psi))


# ---------------------------------------------------------------------------
# Verification tests as explicit projectors.

def verification_projectors(u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three local tests for the target (U ⊗ 1)|Phi>:
    (1 + X'⊗X)/2, (1 - Y'⊗Y)/2, (1 + Z'⊗Z)/2 with O' = U O U†."""
    u = require_unitary(u, what="target rotation")
    eye = np.eye(4)
    xp = u @ PAULI_X @ u.conj().T
    yp = u @ PAULI_Y @ u.conj().T
    zp = u @ PAULI_Z @ u.conj().T
    return (
        (eye + kron(xp, PAULI_X)) / 2,
        (eye - kron(yp, PAULI_Y)) / 2,
        (eye + kron(zp, PAULI_Z)) / 2,
    )


def verification_operator(u) -> np.ndarray:
    """Average test operator; equals P_target + (1 - P_target)/3."""
    p1, p2, p3 = verification_projectors(u)
    return (p1 + p2 + p3) / 3.0


# ---------------------------------------------------------------------------
# Readouts of the optical table.

def prepared_amplitudes(state: RailState) -> np.ndarray:
    """Collapse prepared all-V states on rails -3,-1,1,3 to their (..., 4) amplitudes."""
    rails = (-3, -1, 1, 3)
    stray = state.max_outside(rails, (V,))
    if stray > EPS_EXACT:
        raise ValueError(f"prepared state has amplitude {stray:.3e} off the V modes of rails {rails}")
    return np.stack([state.amplitude(x, V) for x in rails], axis=-1)


# Sharpness of the masker / walk / optics cross-check.

def worst_masker_infidelity(start: RailState, steps, a: np.ndarray) -> float:
    """Largest infidelity between the masker applied to the (N, 4) inputs `a`
    and `steps` run from `start`, their encoding; amplitude left off the
    read-out sites counts as total disagreement."""
    try:
        got = extract_two_qubit(run(start, steps))
    except ExtractionError:
        return 1.0
    ref = a @ masker_matrix().T
    return float((1 - np.abs(np.sum(ref.conj() * got, axis=-1)) ** 2).max())


def local_sites(steps) -> list[tuple[int, int]]:
    """(step index, site) for every site that a `Local` step of `steps` lists."""
    return [(i, x) for i, step in enumerate(steps) if isinstance(step, Local) for x in sorted(step.sites)]


def with_local_at(steps, i: int, site: int, u) -> list:
    """`steps` with `u` in place of step i's matrix on `site` alone; the step's
    other sites keep its matrix."""
    step = steps[i]
    rest = [Local(step.u, step.sites - {site})] if len(step.sites) > 1 else []
    return [*steps[:i], Local(u, {site}), *rest, *steps[i + 1:]]


# Born-rule oracle for the optical measurement module.

def product_basis(setting) -> list[np.ndarray]:
    """The setting's path ⊗ polarization basis, checked orthonormal."""
    f0, f1 = setting.path_basis()
    p0, p1 = setting.pol_basis()
    basis = [np.kron(f0, p0), np.kron(f0, p1), np.kron(f1, p0), np.kron(f1, p1)]
    gram = np.array([[np.vdot(u, w) for w in basis] for u in basis])
    if np.abs(gram - np.eye(4)).max() > EPS_EXACT:
        raise AssertionError("product basis lost orthonormality")
    return basis


def born_product_probs(psi, setting) -> np.ndarray:
    """Abstract Born probabilities in (++, +-, -+, --) order."""
    a = checked_state(psi)
    return np.array([abs(np.vdot(b, a)) ** 2 for b in product_basis(setting)])


def spcm_to_outcome_order(spcm_probs) -> np.ndarray:
    """Reorder detector probabilities to the (++, +-, -+, --) outcome order."""
    p = np.asarray(spcm_probs, dtype=float)
    return np.array([p[2], p[0], p[3], p[1]])


# ---------------------------------------------------------------------------
# Row-at-a-time count-table reader: the oracle for the columnar one.

def csv_fault(err: csv.Error) -> str:
    """A csv module error's message without its advice on opening files."""
    return str(err).partition(" - do you need")[0]


def reference_tables_from_csv(text: str) -> list[CountsTable]:
    """`measure.tables_from_csv` one record at a time: every check runs on each
    row as it is read, and each table is built through `CountsTable`.  A
    line error names the file line on which the record starts, one past the
    lines `csv.reader` had read before it, and a csv module error is one,
    without the module's advice on how to open a file."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader, None)
    except csv.Error as err:
        raise ValueError(f"CSV line 1: {csv_fault(err)}") from None
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
            raise ValueError(f"CSV line {line}: {csv_fault(err)}") from None
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"CSV line {line}: expected {len(CSV_HEADER)} fields, got {row}")
        setting, outcome, count, shots, seed = row
        if outcome not in OUTCOMES_PAIR + OUTCOMES_SINGLE:
            raise ValueError(f"CSV line {line}: unknown outcome label {outcome!r}")
        try:
            key, value = (setting, int(shots), int(seed)), int(count)
        except ValueError:
            raise ValueError(
                f"CSV line {line}: count, shots and seed must be integers, got {count!r}, "
                f"{shots!r}, {seed!r}"
            ) from None
        by_outcome = grouped.setdefault(key, {})
        if outcome in by_outcome:
            raise ValueError(
                f"CSV line {line}: repeated outcome {outcome!r} for setting {setting}, "
                f"shots {shots}, seed {seed}"
            )
        by_outcome[outcome] = value
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
