"""Exact complex linear algebra and quantum-state utilities.

One array convention: states are plain arrays, (d,) amplitudes for a pure
state and (d, d) density matrices, and every function takes one state or a
(..., d) or (..., d, d) stack alike and returns plain checked arrays.  Arrays
keep their field: a real input is a float64 array and stays in real
arithmetic, anything else is complex; no function here casts real data to
complex.  Tensor products are numpy's `np.kron`, which keeps its operands'
field, in the row-major block convention (A⊗B)[ip+k, jq+l] = A[i,j] B[k,l]
that the pair tables in `measure` read.  This module owns the two state rules,
and the library applies each once per stack: `checked_state` (finite, unit
norm) for amplitudes and `checked_density` (finite, Hermitian, unit trace,
positive) for density matrices.  Both only check: what they accept comes
back unaltered, apart from the Hermitian part that `checked_density` takes.
All protocol dimensions are at most 16, so dense double-precision algebra is
exact to ~1e-12 with comfortable headroom.

Tolerance policy: EPS_EXACT guards analytic identities (isometries, trace
preservation, the decode map) and a Born probability's sign; EPS_NUMERIC
guards `checked_density`'s eigenvalue floor and `estimate.qsv_run`'s fidelity
clip; EPS_PROB guards totals from a caller or a float sum: a probability
row's sum, a correlator's size and `optics.detector_distribution`'s leak.
`optics.SOLVER_TOL` and `experiments.EQUIV_THRESHOLD` each pass one check.
"""
from __future__ import annotations

import numpy as np

EPS_EXACT = 1e-12
EPS_NUMERIC = 1e-10
EPS_PROB = 1e-9

# Pauli convention: basis order |0>,|1>.
ID2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
for _m in (ID2, PAULI_X, PAULI_Y, PAULI_Z):
    _m.setflags(write=False)
PAULIS = {"X": PAULI_X, "Y": PAULI_Y, "Z": PAULI_Z}

# Canonical two-qubit Bell state (|00> + |11>)/sqrt(2).
BELL_PHI = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)


def _in_field(values) -> np.ndarray:
    """`values` as float64 when every entry is a real number, else as complex."""
    arr = np.asarray(values)
    return arr.astype(float if arr.dtype.kind in "biuf" else complex, copy=False)


def _as_field_array(values, what: str) -> np.ndarray:
    arr = _in_field(values)
    if not np.isfinite(arr).all():
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def _row_prefix(shape: tuple[int, ...], flat_index: int) -> str:
    """'row i: ' naming entry `flat_index` (C order) of an array of `shape`;
    empty for a single (0-d) entry."""
    if not shape:
        return ""
    index = tuple(int(i) for i in np.unravel_index(flat_index, shape))
    return f"row {index[0] if len(index) == 1 else index}: "


def checked_state(psi, what: str = "state vector") -> np.ndarray:
    """A pure state's (d,) amplitudes, or each row of a (..., d) stack, in their
    own field, checked to be finite and then of norm 1 within EPS_EXACT.  An
    error names the first faulty row, its fault and `what` the rows are."""
    arr = _in_field(psi)
    if arr.ndim == 0 or arr.shape[-1] == 0:
        raise ValueError(f"{what} must be a nonempty (..., d) array")
    if (bad := np.flatnonzero(~np.isfinite(arr).all(axis=-1))).size:
        raise ValueError(f"{_row_prefix(arr.shape[:-1], bad[0])}{what} contains non-finite entries")
    norm = np.linalg.norm(arr, axis=-1)
    if (bad := np.flatnonzero(np.abs(norm - 1.0) > EPS_EXACT)).size:
        raise ValueError(f"{_row_prefix(arr.shape[:-1], bad[0])}{what} norm {norm.flat[bad[0]]} "
                         f"deviates from 1 by more than {EPS_EXACT}")
    return arr


def _dagger(arr: np.ndarray) -> np.ndarray:
    return arr.conj().swapaxes(-1, -2)


def checked_density(mat) -> np.ndarray:
    """Each matrix of a (..., d, d) stack checked to be a density matrix:
    finite, Hermitian within EPS_EXACT, of trace 1 within EPS_EXACT and with
    no eigenvalue below -EPS_NUMERIC, which leaves room for the round-off of
    a matrix built from rounded amplitudes.  Each matrix's three faults are
    found in one pass, and an error names the first faulty matrix by its row
    and its first fault in that order.  Returns the Hermitian part
    (rho + rho†)/2 of the stack, which is the stack itself when it is exactly
    Hermitian, in the stack's own field; nothing else is altered."""
    arr = _as_field_array(mat, "density matrix")
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError("density matrix must be square")
    skew = np.abs(arr - _dagger(arr)).max(axis=(-2, -1), initial=0.0) > EPS_EXACT
    tr = np.trace(arr, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > EPS_EXACT
    arr = 0.5 * (arr + _dagger(arr))
    lo = np.linalg.eigvalsh(arr).min(axis=-1, initial=0.0)
    bad = np.flatnonzero(skew | off | (lo < -EPS_NUMERIC))
    if bad.size:
        i = bad[0]
        if skew.flat[i]:
            why = f"is not Hermitian within {EPS_EXACT}"
        elif off.flat[i]:
            why = f"trace {tr.flat[i]} deviates from 1 by more than {EPS_EXACT}"
        else:
            why = f"has eigenvalue {lo.flat[i]} < -{EPS_NUMERIC}"
        raise ValueError(f"{_row_prefix(arr.shape[:-2], i)}density matrix {why}")
    return arr


def partial_trace(rho, keep) -> np.ndarray:
    """Checked reduced state of qubit `keep`, "A" (the first) or "B", of each
    two-qubit density matrix of a (..., 4, 4) stack, in the stack's field.

    Raises ValueError for any other shape or any other `keep`.
    """
    arr = _as_field_array(rho, "density matrix")
    if arr.shape[-2:] != (4, 4):
        raise ValueError(f"partial_trace expects (..., 4, 4) two-qubit states, got shape {arr.shape}")
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    blocks = arr.reshape(arr.shape[:-2] + (2, 2, 2, 2))
    return checked_density(np.einsum("...ikjk->...ij" if keep == "A" else "...kikj->...ij", blocks))


def fidelity_with_pure(rho, target):
    """<target| rho |target>, one value per matrix of a (..., d, d) stack, for
    one pure (d,) target or a (..., d) stack of one per matrix; in real
    arithmetic when both are real."""
    arr = _as_field_array(rho, "density matrix")
    a = checked_state(target)
    if a.shape not in (arr.shape[-1:], arr.shape[:-1]):
        raise ValueError(f"dimension mismatch: target of shape {a.shape} for matrices of shape {arr.shape}")
    val = np.einsum("...i,...ij,...j->...", a.conj(), arr, a)
    spurious = np.abs(val.imag).max(initial=0.0)
    if spurious > EPS_EXACT:
        raise ValueError(f"fidelity has spurious imaginary part {spurious:.3e}")
    return val.real

