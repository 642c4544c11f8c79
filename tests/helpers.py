"""Random states, oracles and reference formulas that only the tests use.

Each helper returns plain arrays, like the library: amplitudes of shape (d,),
density matrices of shape (d, d).
"""
from __future__ import annotations

import hashlib
import json
import math
import sys

import numpy as np

from realmask.estimate import _simplex_projection, qsv_interval
from realmask.experiments import REPORT_SCHEMA
from realmask.masker import mask_pure, masker_matrix
from realmask.measure import CSV_HEADER, OUTCOMES_PAIR, OUTCOMES_SINGLE
from realmask.optics import V
from realmask.qcore import (
    EPS_EXACT,
    EPS_NUMERIC,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    _dagger,
    checked_density,
    checked_state,
    partial_trace,
)
from realmask.walk import Local, RailState, Shift, extract_two_qubit, run

# The most digits of an int's text that Python writes; 0 means any length.
INT_DIGITS = getattr(sys, "get_int_max_str_digits", int)()


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


def reference_project_to_density(mat) -> np.ndarray:
    """The nearest density matrix to each matrix of a (..., d, d) stack as
    the library once built it: one `eigh` of the Hermitian part, the simplex
    projection of its spectrum and the rebuild passed through
    `checked_density`, which checks it with one more decomposition and
    returns its Hermitian part.  The oracle for `estimate.project_to_density`."""
    arr = np.asarray(mat, dtype=complex)
    vals, vecs = np.linalg.eigh(0.5 * (arr + _dagger(arr)))
    vals = _simplex_projection(vals)
    return checked_density((vecs * vals[..., None, :]) @ _dagger(vecs))


def reference_derive_seed(master_seed: int, *parts) -> int:
    """The sub-seed as the library once derived it, one SHA-256 over the
    master seed and each tag, each part's `str` text behind its 8-byte
    length, fed one `update` at a time: the oracle for `measure.derive_seed`."""
    h = hashlib.sha256()
    for part in (int(master_seed), *parts):
        text = str(part).encode()
        h.update(len(text).to_bytes(8, "little"))
        h.update(text)
    return int.from_bytes(h.digest()[:8], "little")


def tables_csv(tables, end: str = "\n") -> str:
    """Count-table CSV text, as `measure.tables_from_csv` reads it, of
    (setting, counts, shots, seed) tables: the header, then one row per
    outcome in `OUTCOMES_PAIR` or `OUTCOMES_SINGLE` order, lines ended by `end`."""
    rows = [CSV_HEADER]
    for setting, counts, shots, seed in tables:
        labels = OUTCOMES_PAIR if len(counts) == 4 else OUTCOMES_SINGLE
        rows += [f"{setting},{label},{count},{shots},{seed}" for label, count in zip(labels, counts)]
    return end.join(rows) + end


def binomial_pmf(k: int, n: int, p: float) -> float:
    """P(S = k) for S ~ Binomial(n, p), through log-gamma, so that n may be large."""
    if p in (0.0, 1.0):
        return float(k == n * p)
    return math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                    + k * math.log(p) + (n - k) * math.log1p(-p))


def exact_qsv_coverage(fidelity: float, n_tests: int) -> float:
    """The probability that `estimate.qsv_interval` holds the infidelity 1 - F
    under the pipeline's own law, a pass count S ~ Binomial(N, (1 + 2F)/3):
    the binomial weights of the covering S, summed over the N + 1 pass
    counts.  The oracle for fig3's verification interval (ROADMAP item 9)."""
    p, eps = (1.0 + 2.0 * fidelity) / 3.0, 1.0 - fidelity
    covering = []
    for passed in range(n_tests + 1):
        _eps_hat, _error, low, high = qsv_interval(passed, n_tests)
        if low <= eps <= high:
            covering.append(binomial_pmf(passed, n_tests, p))
    return math.fsum(covering)


def exact_square_moments(n_shots: int, r: float) -> tuple[float, float]:
    """The mean and variance of one axis's unbiased square u = (n r^^2 -
    1)/(n - 1), r^ = (n+ - n-)/n, under the pipeline's own law n+ ~
    Binomial(n, (1 + r)/2): sums over the n + 1 outcomes.  The oracle for
    the moments of `estimate.squared_bloch_length` (ROADMAP item 9)."""
    n = n_shots
    weights = [binomial_pmf(k, n, (1.0 + r) / 2.0) for k in range(n + 1)]
    squares = [(n * ((2 * k - n) / n) ** 2 - 1.0) / (n - 1.0) for k in range(n + 1)]
    mean = math.fsum(w * u for w, u in zip(weights, squares))
    return mean, math.fsum(w * (u - mean) ** 2 for w, u in zip(weights, squares))


def round_floats(obj):
    """`obj` with every float rounded to 12 significant digits and every
    tuple made a list, as the report writer once prepared a report for
    `json.dumps`."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def reference_report_json(report: dict) -> str:
    """A report's JSON text as the library once wrote it: rounded by
    `round_floats`, then encoded by `json.dumps`.  The oracle for the JSON
    text of `experiments.report_texts`."""
    doc = {"schema": REPORT_SCHEMA, **round_floats(report)}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def json_leaves(doc, path: tuple = ()):
    """(path, value) of each scalar leaf of a parsed JSON document, in
    document order: the path is the tuple of its keys and list indices."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from json_leaves(value, (*path, key))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from json_leaves(value, (*path, i))
    else:
        yield path, doc


def json_leaf_rows(text: str) -> list[list[str]]:
    """The rows of the CSV of a report whose JSON is `text`, as `csv.reader`
    reads them: the header, then each leaf's path, joined by ".", and its
    text as written in `text` (a string's own text, empty for null)."""
    doc = json.loads(text, parse_float=str, parse_int=str)
    cells = {None: "", True: "true", False: "false"}
    return [["path", "value"], *([".".join(map(str, path)), value if isinstance(value, str) else cells[value]]
                                 for path, value in json_leaves(doc))]


# ---------------------------------------------------------------------------
# Entanglement and imaginarity of pure states.

def purity(rho):
    """tr(rho^2); one value per matrix of a (..., d, d) stack."""
    arr = np.asarray(rho, dtype=complex)
    return np.trace(arr @ arr, axis1=-2, axis2=-1).real


def spin_flip_concurrence(psi) -> float:
    """Independent concurrence formula |<psi| sigma_y ⊗ sigma_y |psi*>|."""
    a = checked_state(psi)
    if a.shape != (4,):
        raise ValueError("spin_flip_concurrence expects a two-qubit state")
    return float(abs(a @ np.kron(PAULI_Y, PAULI_Y) @ a))


def wootters_concurrence(rho) -> float:
    """Concurrence of a two-qubit density, pure or mixed: max(0, l1 - l2 - l3
    - l4) of the decreasing square roots l of the eigenvalues of
    rho (Y ⊗ Y) rho* (Y ⊗ Y)."""
    yy = np.kron(PAULI_Y, PAULI_Y)
    r = np.asarray(rho, dtype=complex)
    lam = np.sqrt(np.clip(np.sort(np.linalg.eigvals(r @ yy @ r.conj() @ yy).real)[::-1], 0.0, None))
    return float(max(0.0, lam[0] - lam[1:].sum()))


def concurrence_from_purity(p) -> np.ndarray:
    """sqrt(2 (1 - p)) elementwise, clamped to [0, 1] against rounded purities:
    the concurrence of a pure two-qubit state from the purity p of either
    qubit.  The oracle of fig5's sqrt(1 - Q) at p = (1 + Q)/2."""
    return np.minimum(np.sqrt(np.maximum(0.0, 2.0 * (1.0 - np.asarray(p)))), 1.0)


def concurrence_pure(psi) -> float:
    """Entanglement of a two-qubit pure state: sqrt(2(1 - tr rho_A^2))."""
    a = checked_state(psi)
    if a.size != 4:
        raise ValueError("concurrence_pure expects a two-qubit state")
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
# Target rotations and verification tests as explicit projectors.

def require_unitary(u, what: str = "matrix") -> np.ndarray:
    """U as a complex array, checked to be square with U†U = 1 within EPS_EXACT."""
    arr = np.asarray(u, dtype=complex)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be square")
    dev = np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])).max()
    if dev > EPS_EXACT:
        raise ValueError(f"{what} is not unitary: max |U†U - 1| = {dev:.3e}")
    return arr


def hr_combination(c) -> np.ndarray:
    """sum_j c_j U_j over [1, iZ, iX, iY] for one (4,) coefficient vector, a
    scalar term at a time: the target rotation U(a) of the verification tests
    for a real unit vector a.  Complex c are summed too, although their sum
    is not unitary."""
    us = (ID2, 1j * PAULI_Z, 1j * PAULI_X, 1j * PAULI_Y)
    return sum(cj * uj for cj, uj in zip(np.asarray(c, dtype=complex), us))


def verification_projectors(u) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The three local tests for the target (U ⊗ 1)|Phi>:
    (1 + X'⊗X)/2, (1 - Y'⊗Y)/2, (1 + Z'⊗Z)/2 with O' = U O U†."""
    u = require_unitary(u, what="target rotation")
    eye = np.eye(4)
    xp = u @ PAULI_X @ u.conj().T
    yp = u @ PAULI_Y @ u.conj().T
    zp = u @ PAULI_Z @ u.conj().T
    return (
        (eye + np.kron(xp, PAULI_X)) / 2,
        (eye - np.kron(yp, PAULI_Y)) / 2,
        (eye + np.kron(zp, PAULI_Z)) / 2,
    )


def verification_operator(u) -> np.ndarray:
    """Average test operator; equals P_target + (1 - P_target)/3."""
    p1, p2, p3 = verification_projectors(u)
    return (p1 + p2 + p3) / 3.0


# ---------------------------------------------------------------------------
# Rail states and readouts of the optical table.

def rail_state(amplitudes) -> RailState:
    """A single state from {(site, qubit): amplitude} on the window its sites
    span, checked by `qcore.checked_state`."""
    lo = min(x for x, _c in amplitudes)
    amps = np.zeros((max(x for x, _c in amplitudes) - lo + 1, 2), dtype=complex)
    for (x, c), a in amplitudes.items():
        if c not in (0, 1):
            raise ValueError(f"qubit index must be 0 or 1, got {c}")
        amps[x - lo, c] = a
    checked_state(amps.reshape(-1), "state")
    return RailState(lo, amps)


def prepared_amplitudes(state: RailState) -> np.ndarray:
    """Collapse prepared all-V states on rails -3,-1,1,3 to their (..., 4) amplitudes."""
    rails = (-3, -1, 1, 3)
    stray = state.max_outside(rails, (V,))
    if stray > EPS_EXACT:
        raise ValueError(f"prepared state has amplitude {stray:.3e} off the V modes of rails {rails}")
    return np.stack([state.amplitude(x, V) for x in rails], axis=-1)


# Dense reference for the rail engine.

def dense_run(state: RailState, steps, pad: int) -> np.ndarray:
    """`walk.run` rebuilt from dense matrices, one batch item at a time, on
    the window of `state` widened by `pad` sites on each side: a `Local` step
    is kron(P, u) + kron(1 - P, 1), P the diagonal projector onto its sites,
    and a `Shift` is kron(S(s0), |0><0|) + kron(S(s1), |1><1|), S(s) the
    shift of every site by s.  Returns the (..., sites, 2) amplitudes on the
    widened window, which starts at `state.lo - pad`; a per-item (..., 2, 2)
    stack of `u` shares the state's batch shape."""
    n = state.amps.shape[-2]
    width, sites = n + 2 * pad, np.arange(state.lo - pad, state.lo + n + pad)
    qubit = np.eye(2)
    out = np.zeros(state.amps.shape[:-2] + (width, 2), dtype=complex)
    for item in np.ndindex(*state.amps.shape[:-2]):
        v = np.zeros((width, 2), dtype=complex)
        v[pad:pad + n] = state.amps[item]
        v = v.reshape(-1)
        for step in steps:
            if isinstance(step, Shift):
                op = sum(np.kron(np.eye(width, k=-s), np.outer(qubit[q], qubit[q]))
                         for q, s in enumerate((step.s0, step.s1)))
            else:
                u = step.u[item] if step.u.ndim > 2 else step.u
                on = np.ones(width) if step.sites is None else np.isin(sites, list(step.sites)).astype(float)
                op = np.kron(np.diag(on), u) + np.kron(np.diag(1.0 - on), qubit)
            v = op @ v
        out[item] = v.reshape(width, 2)
    return out


# Sharpness of the masker / walk / optics cross-check.

def worst_masker_infidelity(start: RailState, steps, a: np.ndarray) -> float:
    """Largest infidelity between the masker applied to the (N, 4) inputs `a`
    and `steps` run from `start`, their encoding; amplitude left off the
    read-out sites counts as total disagreement."""
    state = run(start, steps)
    if state.max_outside((1, -1)) > EPS_EXACT:
        return 1.0
    got = extract_two_qubit(state)
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

def qubit_basis(theta: float, phase: float) -> tuple[np.ndarray, np.ndarray]:
    """cos(theta)|0> + e^{i phase} sin(theta)|1> and sin(theta)|0> - e^{i phase} cos(theta)|1>."""
    e = np.exp(1j * phase)
    return np.array([np.cos(theta), e * np.sin(theta)]), np.array([np.sin(theta), -e * np.cos(theta)])


def product_basis(setting) -> list[np.ndarray]:
    """The setting's path ⊗ polarization basis, written out from its angles
    as `optics.MeasSetting` states it, checked orthonormal."""
    f0, f1 = qubit_basis(setting.gamma, setting.zeta)
    p0, p1 = qubit_basis(setting.alpha, setting.beta)
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
