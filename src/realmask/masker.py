"""Masking isometry for the real ququart.

A family of anticommuting unitaries U_j U_k + U_k U_j = -2 delta_jk on a qubit
turns the Bell state into an orthonormal family of maximally entangled states
(U_j ⊗ 1)|Phi>.  Mapping the computational basis |j> onto -i times that family
defines an isometry M that hides every real-entried input state: both reduced
states of M rho M† equal 1/2 whenever rho is real.  For pure inputs the
residual entanglement of the output is tied to how non-real the input is:
C(M psi) = sqrt(1 - I_R(psi)^2).

The family is the fixed stack `hr_unitaries()` = [1, iZ, iX, iY].  A real
unit vector a gives the unitary U(a) = sum_j a_j U_j (`u_of_c`, one per row
of an (n, 4) array), whose maximally entangled state (U(a) ⊗ 1)|Phi> is i
times the masked image of a: the fidelity verification's target.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .qcore import (
    BELL_PHI,
    EPS_EXACT,
    ID2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    checked_state,
    kron,
    partial_trace,
    purity,
)


@lru_cache(maxsize=None)
def hr_unitaries() -> np.ndarray:
    """The read-only (4, 2, 2) stack [1, iZ, iX, iY]: the identity U_0 and the
    Pauli construction of three anticommuting unitaries, checked once to obey
    U_j U_k + U_k U_j = -2 delta_jk (j, k >= 1) within EPS_EXACT."""
    us = np.stack([ID2, 1j * PAULI_Z, 1j * PAULI_X, 1j * PAULI_Y])
    anti = us[1:, None] @ us[None, 1:] + us[None, 1:] @ us[1:, None]
    dev = np.abs(anti + 2.0 * np.eye(3)[:, :, None, None] * ID2).max(axis=(-2, -1))
    if dev.max() > EPS_EXACT:
        j, k = np.unravel_index(dev.argmax(), dev.shape)
        raise ValueError(f"anticommutation violated at ({j + 1},{k + 1}): deviation {dev[j, k]:.3e}")
    us.setflags(write=False)
    return us


@lru_cache(maxsize=None)
def masker_matrix() -> np.ndarray:
    """The masker M|j> = -i (U_j ⊗ 1)|Phi> as a read-only (4, 4) array, built
    once and checked to be an isometry whose columns are maximally entangled
    (the isometry check proves each column's density matrix)."""
    m = np.column_stack([-1j * kron(u, ID2) @ BELL_PHI for u in hr_unitaries()])
    dev = np.abs(m.conj().T @ m - np.eye(4)).max()
    if dev > EPS_EXACT:
        raise ValueError(f"not an isometry: max |M†M - 1| = {dev:.3e}")
    cols = m.T[:, :, None] * m.T[:, None, :].conj()
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
    """The (n, 2, 2) unitaries U(c) = c_0 U_0 + c_1 U_1 + c_2 U_2 + c_3 U_3 of
    `hr_unitaries` for the rows c of an (n, 4) array.  The rows pass
    `qcore.checked_state`, then each must be real (an imaginary part above
    EPS_EXACT is refused: a complex combination is not unitary); each rule
    names its first faulty row."""
    rows = np.asarray(c, dtype=complex)
    if rows.ndim != 2 or rows.shape[1] != 4:
        raise ValueError(f"coefficients must be an (n, 4) array, got shape {rows.shape}")
    rows = checked_state(rows, "coefficient vector")
    if (bad := np.flatnonzero(np.abs(rows.imag).max(axis=1, initial=0.0) > EPS_EXACT)).size:
        raise ValueError(f"row {bad[0]}: coefficient vector must be real: a complex combination is not unitary")
    u, cs = hr_unitaries(), rows.real[:, :, None, None]
    return cs[:, 0] * u[0] + cs[:, 1] * u[1] + cs[:, 2] * u[2] + cs[:, 3] * u[3]
