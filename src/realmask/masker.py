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
    checked_density,
    checked_state,
    kron,
    partial_trace,
    purity,
    require_unitary,
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
def masker_matrix() -> np.ndarray:
    """The masker M|j> = -i (U_j ⊗ 1)|Phi> as a read-only (4, 4) array, built
    once and checked to be an isometry whose columns are maximally entangled."""
    m = np.column_stack([-1j * kron(u, ID2) @ BELL_PHI for u in build_hr_d4().with_identity()])
    dev = np.abs(m.conj().T @ m - np.eye(4)).max()
    if dev > EPS_EXACT:
        raise ValueError(f"not an isometry: max |M†M - 1| = {dev:.3e}")
    cols = checked_density(m.T[:, :, None] * m.T[:, None, :].conj())
    pur = purity(np.stack([partial_trace(cols, sub) for sub in ("A", "B")]))
    if np.abs(pur - 0.5).max() > EPS_EXACT:
        raise ValueError(f"masker columns are not maximally entangled (reduced purities {pur})")
    m.setflags(write=False)
    return m


def mask_pure(psi) -> np.ndarray:
    """The (4,) amplitudes of the masked pure ququart state."""
    vec = checked_state(psi)
    if vec.shape != (4,):
        raise ValueError("mask_pure expects a 4-dimensional state")
    return masker_matrix() @ vec


def u_of_c(c) -> np.ndarray:
    """The combination sum_j c_j U_j for a real normalized c, which makes it
    unitary; an imaginary part above EPS_EXACT is rejected."""
    vec = np.asarray(c, dtype=complex)
    if vec.shape != (4,):
        raise ValueError("coefficient vector must have 4 entries")
    if np.abs(vec.imag).max() > EPS_EXACT:
        raise ValueError("coefficient vector must be real: a complex combination is not unitary")
    vec = vec.real.astype(complex)
    if abs(np.linalg.norm(vec) - 1.0) > EPS_EXACT:
        raise ValueError("coefficient vector must be normalized")
    us = build_hr_d4().with_identity()
    return sum(cj * uj for cj, uj in zip(vec, us))
