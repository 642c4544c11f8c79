"""Masking isometry for the real ququart.

A family of anticommuting unitaries U_j U_k + U_k U_j = -2 delta_jk on a qubit
turns the Bell state into an orthonormal family of maximally entangled states
(U_j ⊗ 1)|Phi>.  Mapping the computational basis |j> onto -i times that family
defines an isometry M that hides every real-entried input state: both reduced
states of M rho M† equal 1/2 whenever rho is real.  The family is a magic
basis (Hill & Wootters, PRL 78, 5022, 1997), in which the concurrence of a
pure state is |sum_j psi_j^2| (Wootters, PRL 80, 2245, 1998), so for pure
inputs the residual entanglement of the output is tied to how non-real the
input is: C(M psi) = |psi^T psi| = sqrt(1 - I_R(psi)^2).

The family is the fixed stack `hr_unitaries()` = [1, iZ, iX, iY].  A real
unit vector a gives the unitary U(a) = sum_j a_j U_j, whose maximally
entangled state (U(a) ⊗ 1)|Phi> is i times the masked image M a: the
fidelity verification's target.  The average operator of its tests is
1/3 + (2/3)|target><target|, so a verification needs only the fidelity
<Ma|rho|Ma>, never U(a) itself.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from .qcore import BELL_PHI, EPS_EXACT, ID2, PAULI_X, PAULI_Y, PAULI_Z, checked_state


@lru_cache(maxsize=None)
def hr_unitaries() -> np.ndarray:
    """The read-only (4, 2, 2) stack [1, iZ, iX, iY]: the identity U_0 and the
    Pauli construction of three anticommuting unitaries, an anticommutation
    that `masker_matrix`'s check implies."""
    us = np.stack([ID2, 1j * PAULI_Z, 1j * PAULI_X, 1j * PAULI_Y])
    us.setflags(write=False)
    return us


@lru_cache(maxsize=None)
def masker_matrix() -> np.ndarray:
    """The masker M|j> = -i (U_j ⊗ 1)|Phi> as a read-only (4, 4) array, built
    once and checked to map the computational basis onto a magic basis:
    M†M = 1 and Mᵀ(σ_y⊗σ_y)M = 1, each within EPS_EXACT.

    Why the two identities suffice.  The concurrence of a two-qubit pure
    state v is |vᵀ(σ_y⊗σ_y)v|, so C(M psi) = |psiᵀ Mᵀ(σ_y⊗σ_y)M psi| =
    |psiᵀpsi|.  A real unit psi has psiᵀpsi = 1, so M psi is maximally
    entangled: both its reduced states are 1/2.  A real rho is a mixture of
    real pure states (its eigenvectors), so both reduced states of M rho M†
    are 1/2 too: M masks every real input.

    They also imply the family's anticommutation.  The columns are
    m_j = -i (U_j ⊗ 1)|Phi>, so m_j†m_k = tr(U_j†U_k)/2 and
    m_jᵀ(σ_y⊗σ_y)m_k = tr(adj(U_k) U_j)/2.  Writing U_j = q_0j 1 + i q_j·σ,
    the 4x4 coefficient matrix Q obeys Q†Q = QᵀQ = 1, so Q is real
    orthogonal.  U_0 = 1 then leaves U_j = i n_j·σ for j >= 1, with the n_j
    real and orthonormal, and U_j U_k + U_k U_j = -2 delta_jk."""
    m = np.column_stack([-1j * np.kron(u, ID2) @ BELL_PHI for u in hr_unitaries()])
    for identity, gram in (("an isometry: max |M†M - 1|", m.conj().T @ m),
                           ("a magic basis: max |Mᵀ(σ_y⊗σ_y)M - 1|", m.T @ np.kron(PAULI_Y, PAULI_Y) @ m)):
        if (dev := np.abs(gram - np.eye(4)).max()) > EPS_EXACT:
            raise ValueError(f"not {identity} = {dev:.3e}")
    m.setflags(write=False)
    return m


def mask_pure(psi) -> np.ndarray:
    """The masked amplitudes M psi of each row of a (..., 4) stack of pure ququart states."""
    vec = checked_state(psi)
    if vec.shape[-1:] != (4,):
        raise ValueError("mask_pure expects 4-dimensional states")
    return (masker_matrix() @ vec[..., None])[..., 0]
