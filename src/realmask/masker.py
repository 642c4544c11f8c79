"""Masking isometry for the real ququart.

A family of anticommuting unitaries U_j U_k + U_k U_j = -2 delta_jk on a qubit
turns the Bell state into an orthonormal family of maximally entangled states
(U_j ⊗ 1)|Phi>.  Mapping the computational basis |j> onto -i times that family
defines an isometry M that hides every real-entried input state: both reduced
states of M rho M† equal 1/2 whenever rho is real.  For pure inputs the
residual entanglement of the output is tied to how non-real the input is:
C(M psi) = sqrt(1 - I_R(psi)^2).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import (
    BELL_PHI,
    EPS_EXACT,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    StateVector,
    _rho_array,
    concurrence_pure,
    kron,
    partial_trace,
    purity,
    require_unitary,
    robustness_of_imaginarity,
)


@dataclass(frozen=True, eq=False)
class HurwitzRadonSet:
    """Anticommuting unitaries on a qubit; the identity U_0 is implicit.

    Validates U_j U_k + U_k U_j = -2 delta_jk within 1e-12 at construction
    and stores read-only copies of the matrices.
    """

    matrices: tuple[np.ndarray, ...]

    def __post_init__(self):
        mats = tuple(require_unitary(m, what=f"HR matrix {i + 1}").copy() for i, m in enumerate(self.matrices))
        for j, uj in enumerate(mats):
            for k, uk in enumerate(mats):
                anti = uj @ uk + uk @ uj
                want = -2.0 * np.eye(2) if j == k else np.zeros((2, 2))
                dev = np.abs(anti - want).max()
                if dev > EPS_EXACT:
                    raise ValueError(f"anticommutation violated at ({j + 1},{k + 1}): deviation {dev:.3e}")
        for m in mats:
            m.setflags(write=False)
        object.__setattr__(self, "matrices", mats)

    def with_identity(self) -> list[np.ndarray]:
        """[U_0 = 1, U_1, ...]."""
        return [ID2, *self.matrices]


@lru_cache(maxsize=None)
def build_hr_d4() -> HurwitzRadonSet:
    """The Pauli construction {iZ, iX, iY} for the ququart masker, built and
    checked once."""
    return HurwitzRadonSet((1j * PAULI_Z, 1j * PAULI_X, 1j * PAULI_Y))


@lru_cache(maxsize=None)
def build_hr_d2() -> HurwitzRadonSet:
    """Single HR matrix iY: masks the real qubit.  Cross-dimension extension,
    built and checked once."""
    return HurwitzRadonSet((1j * PAULI_Y,))


@dataclass(frozen=True, eq=False)
class MaskerIsometry:
    """Matrix of the masker, columns -i (U_j ⊗ 1)|Phi> living in C^2 ⊗ C^2."""

    matrix: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        dev = np.abs(m.conj().T @ m - np.eye(m.shape[1])).max()
        if dev > EPS_EXACT:
            raise ValueError(f"not an isometry: max |M†M - 1| = {dev:.3e}")
        for j in range(m.shape[1]):
            col = StateVector(m[:, j])
            for sub in ("A", "B"):
                p = purity(partial_trace(col.density(), keep=sub))
                if abs(p - 0.5) > EPS_EXACT:
                    raise ValueError(f"column {j} is not maximally entangled (reduced purity {p})")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def input_dim(self) -> int:
        return self.matrix.shape[1]

    def columns(self) -> list[StateVector]:
        return [StateVector(self.matrix[:, j]) for j in range(self.input_dim)]


@lru_cache(maxsize=None)
def masker_matrix(dim: int = 4) -> MaskerIsometry:
    """The masker M|j> = -i (U_j ⊗ 1)|Phi>.

    dim=4 is the protocol; dim=2 is the optional qubit variant.
    """
    if dim == 4:
        hr = build_hr_d4()
    elif dim == 2:
        hr = build_hr_d2()
    else:
        raise ValueError(f"masker is defined for dim 2 or 4, got {dim}")
    cols = [-1j * kron(u, ID2) @ BELL_PHI for u in hr.with_identity()]
    return MaskerIsometry(np.column_stack(cols))


def magic_basis() -> list[StateVector]:
    """The orthonormal maximally entangled family (U_j ⊗ 1)|Phi>, j = 0..3."""
    m = masker_matrix().matrix
    return [StateVector(1j * m[:, j]) for j in range(4)]


def mask_pure(psi) -> StateVector:
    """Apply the masker to a pure ququart state."""
    vec = psi.amplitudes if isinstance(psi, StateVector) else np.asarray(psi, dtype=complex)
    if vec.shape != (4,):
        raise ValueError("mask_pure expects a 4-dimensional state")
    return StateVector(masker_matrix().matrix @ vec)


def mask_state(rho) -> DensityMatrix:
    """M rho M† as a two-qubit density matrix."""
    arr = _rho_array(rho)
    if arr.shape != (4, 4):
        raise ValueError("mask_state expects a 4x4 density matrix")
    m = masker_matrix().matrix
    return DensityMatrix(m @ arr @ m.conj().T)


def u_of_c(c) -> np.ndarray:
    """The combination sum_j c_j U_j; unitary whenever c is real and normalized."""
    vec = np.asarray(c, dtype=complex)
    if vec.shape != (4,):
        raise ValueError("coefficient vector must have 4 entries")
    if abs(np.linalg.norm(vec) - 1.0) > EPS_EXACT:
        raise ValueError("coefficient vector must be normalized")
    us = build_hr_d4().with_identity()
    return sum(cj * uj for cj, uj in zip(vec, us))


def check_concurrence_relation(psi: StateVector) -> tuple[float, float]:
    """(concurrence of the masked output, imaginarity of the input).

    For any pure ququart these satisfy C = sqrt(1 - I_R^2).
    """
    if psi.dim != 4:
        raise ValueError("expected a pure ququart state")
    c = concurrence_pure(mask_pure(psi))
    i_r = robustness_of_imaginarity(psi.density())
    return c, i_r
