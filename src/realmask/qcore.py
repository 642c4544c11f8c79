"""Exact complex linear algebra and quantum-state utilities.

One array convention: states are plain complex arrays, (d,) amplitudes for a
pure state and (d, d) density matrices, and every function returns plain
checked arrays, for one state as for a (..., d) or (..., d, d) stack.  This
module owns the two state rules, and the library applies each once per stack:
`checked_state` (finite, unit norm) for amplitudes and `checked_density`
(finite, Hermitian, unit trace, positive) for density matrices.  Both only
check: what they accept comes back unaltered, apart from the Hermitian part
that `checked_density` takes.  All protocol dimensions are at most 16, so
dense double-precision algebra is exact to ~1e-12 with comfortable headroom.

Tolerance policy: EPS_EXACT guards identities that hold analytically
(isometries, trace preservation); EPS_NUMERIC guards quantities that pass
through an eigensolver or an iterative estimator.
"""
from __future__ import annotations

import numpy as np

EPS_EXACT = 1e-12
EPS_NUMERIC = 1e-10

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


class DimensionError(ValueError):
    """Operand dimensions do not match or do not factor as required."""


def _as_complex_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
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
    """A pure state's (d,) amplitudes, or each row of a (..., d) stack, as a
    complex array checked to be finite and then of norm 1 within EPS_EXACT.
    An error names the first faulty row, its fault and `what` the rows are."""
    arr = np.asarray(psi, dtype=complex)
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
    Hermitian; nothing else is altered."""
    arr = _as_complex_array(mat, "density matrix")
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
            why = "is not Hermitian within 1e-12"
        elif off.flat[i]:
            why = f"trace {tr.flat[i]} deviates from 1 by more than {EPS_EXACT}"
        else:
            why = f"has eigenvalue {lo.flat[i]} < -{EPS_NUMERIC}"
        raise ValueError(f"{_row_prefix(arr.shape[:-2], i)}density matrix {why}")
    return arr


def kron(a, b) -> np.ndarray:
    """Kronecker product, row-major block convention: (A⊗B)[ip+k, jq+l] = A[i,j] B[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def partial_trace(rho, keep) -> np.ndarray:
    """Checked reduced state of qubit `keep`, "A" (the first) or "B", of each
    two-qubit density matrix of a (..., 4, 4) stack.

    Raises DimensionError for any other shape and ValueError for any other
    `keep`.
    """
    arr = _as_complex_array(rho, "density matrix")
    if arr.shape[-2:] != (4, 4):
        raise DimensionError(f"partial_trace expects (..., 4, 4) two-qubit states, got shape {arr.shape}")
    if keep not in ("A", "B"):
        raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
    blocks = arr.reshape(arr.shape[:-2] + (2, 2, 2, 2))
    return checked_density(np.einsum("...ikjk->...ij" if keep == "A" else "...kikj->...ij", blocks))


def purity(rho):
    """tr(rho^2); one value per matrix of a (..., d, d) stack."""
    arr = _as_complex_array(rho, "density matrix")
    return np.trace(arr @ arr, axis1=-2, axis2=-1).real


def fidelity_with_pure(rho, target):
    """<target| rho |target> for a pure (d,) target; one value per matrix of a
    (..., d, d) stack."""
    arr = _as_complex_array(rho, "density matrix")
    a = checked_state(target)
    if a.shape != arr.shape[-1:]:
        raise DimensionError(f"dimension mismatch: one ({arr.shape[-1]},) target expected, got shape {a.shape}")
    val = np.einsum("i,...ij,j->...", a.conj(), arr, a)
    spurious = np.abs(val.imag).max(initial=0.0)
    if spurious > EPS_EXACT:
        raise ValueError(f"fidelity has spurious imaginary part {spurious:.3e}")
    return val.real


def concurrence_from_purity(p) -> np.ndarray:
    """sqrt(2 (1 - p)) elementwise, clamped to [0, 1] against rounded purities."""
    return np.minimum(np.sqrt(np.maximum(0.0, 2.0 * (1.0 - np.asarray(p)))), 1.0)


def spin_flip_concurrence(psi) -> float:
    """Independent concurrence formula |<psi| sigma_y ⊗ sigma_y |psi*>|."""
    a = checked_state(psi)
    if a.shape != (4,):
        raise DimensionError("spin_flip_concurrence expects a two-qubit state")
    return float(abs(a @ kron(PAULI_Y, PAULI_Y) @ a))
