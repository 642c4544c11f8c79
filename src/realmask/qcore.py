"""Exact complex linear algebra and quantum-state utilities.

One array convention: states are plain complex arrays, (d,) amplitudes for a
pure state and (d, d) density matrices, and every function returns plain
checked arrays, for one matrix as for a (..., d, d) stack.  `checked_state`
and `checked_density` validate user input (normalization, Hermiticity,
positivity).  All protocol dimensions are at most 16, so dense
double-precision algebra is exact to ~1e-12 with comfortable headroom.

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
    if not (np.all(np.isfinite(arr.real)) and np.all(np.isfinite(arr.imag))):
        raise ValueError(f"{what} contains non-finite entries")
    return arr


def checked_state(psi) -> np.ndarray:
    """A pure state's (d,) amplitudes as a complex array, checked to be finite,
    non-empty, 1-D and of norm 1 within EPS_EXACT."""
    arr = _as_complex_array(psi, "state vector")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("state vector must be a nonempty 1-D array")
    norm = np.linalg.norm(arr)
    if abs(norm - 1.0) > EPS_EXACT:
        raise ValueError(f"state vector norm {norm} deviates from 1 by more than {EPS_EXACT}")
    return arr


def _dagger(arr: np.ndarray) -> np.ndarray:
    return arr.conj().swapaxes(-1, -2)


def checked_density(mat) -> np.ndarray:
    """Each matrix of a (..., d, d) stack checked to be a density matrix:
    Hermitian, unit-trace and positive semidefinite.  Eigenvalues in
    [-EPS_NUMERIC, 0) are estimator round-off: they are clipped to zero and
    the spectrum renormalized.  Returns the Hermitian-symmetrized stack."""
    arr = _as_complex_array(mat, "density matrix")
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2]:
        raise ValueError("density matrix must be square")
    if np.abs(arr - _dagger(arr)).max(initial=0.0) > EPS_EXACT:
        raise ValueError("density matrix is not Hermitian within 1e-12")
    tr = np.trace(arr, axis1=-2, axis2=-1).real
    off = np.abs(tr - 1.0) > EPS_EXACT
    if off.any():
        raise ValueError(f"density matrix trace {tr[off].flat[0]} deviates from 1 by more than {EPS_EXACT}")
    arr = 0.5 * (arr + _dagger(arr))
    lo = np.linalg.eigvalsh(arr).min(axis=-1)
    if (lo < -EPS_NUMERIC).any():
        raise ValueError(f"density matrix has eigenvalue {lo.min()} < -{EPS_NUMERIC}")
    neg = lo < 0.0
    if neg.any():
        # Round-off repair: clip the slightly negative tail and rescale.
        vals, vecs = np.linalg.eigh(arr[neg])
        vals = np.clip(vals, 0.0, None)
        vals /= vals.sum(axis=-1, keepdims=True)
        fixed = (vecs * vals[..., None, :]) @ _dagger(vecs)
        arr[neg] = 0.5 * (fixed + _dagger(fixed))
    return arr


def require_unitary(u: np.ndarray, *, eps: float = EPS_EXACT, what: str = "matrix") -> np.ndarray:
    """Validate U†U = 1 within `eps` and return U as a complex array."""
    arr = _as_complex_array(u, what)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{what} must be square")
    dev = np.abs(arr.conj().T @ arr - np.eye(arr.shape[0])).max()
    if dev > eps:
        raise ValueError(f"{what} is not unitary: max |U†U - 1| = {dev:.3e}")
    return arr


def kron(a, b) -> np.ndarray:
    """Kronecker product, row-major block convention: (A⊗B)[ip+k, jq+l] = A[i,j] B[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def _subsystem_index(keep) -> int:
    if keep in (0, "A", "a"):
        return 0
    if keep in (1, "B", "b"):
        return 1
    raise ValueError(f"keep must be 0/'A' or 1/'B', got {keep!r}")


def partial_trace(rho, keep, dims: tuple[int, int] | None = None) -> np.ndarray:
    """Checked reduced state of one factor of a bipartite density matrix, one
    per matrix of a (..., d, d) stack.

    `dims` gives the factor dimensions (dA, dB); by default both factors are
    qubits.  Raises DimensionError when the total dimension does not factor.
    """
    arr = _as_complex_array(rho, "density matrix")
    d = arr.shape[-1]
    if dims is None:
        if d % 2 != 0:
            raise DimensionError(f"dimension {d} does not factor into 2 x {d}/2")
        dims = (2, d // 2)
    da, db = dims
    if da * db != d:
        raise DimensionError(f"dimension {d} does not factor as {da} x {db}")
    which = _subsystem_index(keep)
    blocks = arr.reshape(arr.shape[:-2] + (da, db, da, db))
    reduced = np.einsum("...ikjk->...ij", blocks) if which == 0 else np.einsum("...kikj->...ij", blocks)
    return checked_density(reduced)


def purity(rho):
    """tr(rho^2); one value per matrix of a (..., d, d) stack."""
    arr = _as_complex_array(rho, "density matrix")
    return np.trace(arr @ arr, axis1=-2, axis2=-1).real


def fidelity_with_pure(rho, target):
    """<target| rho |target> for a pure (d,) target; one value per matrix of a
    (..., d, d) stack."""
    arr = _as_complex_array(rho, "density matrix")
    a = checked_state(target)
    if arr.shape[-1] != a.size:
        raise DimensionError(f"dimension mismatch: {arr.shape[-1]} vs {a.size}")
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
    if a.size != 4:
        raise DimensionError("spin_flip_concurrence expects a two-qubit state")
    return float(abs(a @ kron(PAULI_Y, PAULI_Y) @ a))
