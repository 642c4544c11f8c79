import numpy as np
import pytest

from realmask.masker import HurwitzRadonSet, build_hr_d4, mask_pure, masker_matrix, u_of_c
from realmask.qcore import BELL_PHI, PAULI_X, PAULI_Y, PAULI_Z, partial_trace, spin_flip_concurrence

from helpers import (
    check_concurrence_relation,
    concurrence_pure,
    density,
    haar_state,
    inner,
    magic_basis,
    mask_state,
    random_real_density,
    robustness_of_imaginarity,
    trace_distance,
)

I2 = np.eye(2)


class TestHurwitzRadon:
    def test_squares_to_minus_identity(self):
        for u in build_hr_d4().matrices:
            assert np.abs(u @ u + I2).max() < 1e-12

    def test_cross_anticommutators_vanish(self):
        mats = build_hr_d4().matrices
        for j in range(3):
            for k in range(3):
                if j != k:
                    assert np.abs(mats[j] @ mats[k] + mats[k] @ mats[j]).max() < 1e-12

    def test_concrete_pauli_choice(self):
        u1, u2, u3 = build_hr_d4().matrices
        assert np.allclose(u1, np.diag([1j, -1j]), atol=0)
        assert np.array_equal(u2, 1j * PAULI_X)
        assert np.array_equal(u3, 1j * PAULI_Y)

    def test_rejects_non_anticommuting_set(self):
        with pytest.raises(ValueError):
            HurwitzRadonSet((1j * PAULI_Z, 1j * PAULI_Z))

    @pytest.mark.parametrize("build", [build_hr_d4])
    def test_cached_matrices_are_read_only(self, build):
        hr = build()
        assert build() is hr
        for u in hr.with_identity():
            with pytest.raises(ValueError, match="read-only"):
                u[0, 0] = 0.0

    def test_construction_copies_the_inputs(self):
        u = 1j * PAULI_Y
        HurwitzRadonSet((u,))
        u[0, 0] = 1.0  # the caller's array stays writable

    def test_rejects_commuting_pair(self):
        # Unitary but U1 U2 + U2 U1 != 0.
        with pytest.raises(ValueError):
            HurwitzRadonSet((1j * PAULI_Z, np.diag([1j, 1j])))


class TestMaskerIsometry:
    def test_column_zero(self):
        col = masker_matrix()[:, 0]
        want = -1j * np.array([1, 0, 0, 1]) / np.sqrt(2)
        assert np.abs(col - want).max() < 1e-12

    def test_column_three(self):
        # -i (iY ⊗ 1)|Phi> = -i (|01> - |10>)/sqrt(2), worked out by hand.
        col = masker_matrix()[:, 3]
        want = -1j * np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert np.abs(col - want).max() < 1e-12

    def test_isometry_identity(self):
        m = masker_matrix()
        assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-12

    def test_magic_basis_orthonormal(self):
        basis = magic_basis()
        for j, bj in enumerate(basis):
            for k, bk in enumerate(basis):
                want = 1.0 if j == k else 0.0
                assert abs(inner(bj, bk) - want) < 1e-12

    def test_columns_maximally_entangled(self):
        for col in masker_matrix().T:
            assert concurrence_pure(col) == pytest.approx(1.0, abs=1e-12)


class TestMaskState:
    def test_basis_state_maps_to_bell_projector(self):
        out = mask_state(np.diag([1, 0, 0, 0]).astype(complex))
        assert trace_distance(out, density(BELL_PHI)) < 1e-12

    def test_maximally_mixed_fixed_point(self):
        out = mask_state(np.eye(4) / 4)
        assert np.abs(out - np.eye(4) / 4).max() < 1e-12
        for keep in ("A", "B"):
            assert trace_distance(partial_trace(out, keep), np.eye(2) / 2) < 1e-12

    def test_fully_imaginary_phase_gives_product_output(self):
        # sqrt(2(1-purity)) loses half the digits at the C=0 branch point,
        # so the tolerance here is sqrt(eps)-sized.
        psi = np.array([1, 1j, 0, 0]) / np.sqrt(2)
        assert concurrence_pure(mask_pure(psi)) == pytest.approx(0.0, abs=1e-7)

    def test_masking_invariance_for_real_states(self, rng):
        for _ in range(300):
            rho = random_real_density(4, rng)
            out = mask_state(rho)
            assert trace_distance(partial_trace(out, "A"), np.eye(2) / 2) < 1e-12
            assert trace_distance(partial_trace(out, "B"), np.eye(2) / 2) < 1e-12

    def test_non_masking_witness_for_imaginary_states(self, rng):
        # Any noticeably non-real pure input leaks into at least one marginal.
        checked = 0
        while checked < 1000:
            psi = haar_state(4, rng)
            if robustness_of_imaginarity(density(psi)) <= 0.1:
                continue
            checked += 1
            out = density(mask_pure(psi))
            leak = max(
                trace_distance(partial_trace(out, "A"), np.eye(2) / 2),
                trace_distance(partial_trace(out, "B"), np.eye(2) / 2),
            )
            assert leak > 1e-6


class TestUOfC:
    def test_identity_coefficients(self):
        assert np.array_equal(u_of_c([1, 0, 0, 0]), I2.astype(complex))

    def test_uniform_real_coefficients(self):
        u = u_of_c(np.ones(4) / 2)
        want = (I2 + 1j * PAULI_Z + 1j * PAULI_X + 1j * PAULI_Y) / 2
        assert np.abs(u - want).max() < 1e-15
        assert np.abs(u.conj().T @ u - I2).max() < 1e-12

    def test_complex_coefficients_break_unitarity(self):
        # c = (1, i, 0, 0)/sqrt(2) sums to diag(0, sqrt(2)), so u_of_c refuses it.
        c = np.array([1, 1j, 0, 0]) / np.sqrt(2)
        u = sum(cj * uj for cj, uj in zip(c, build_hr_d4().with_identity()))
        assert np.abs(u.conj().T @ u - I2).max() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError, match="must be real"):
            u_of_c(c)

    def test_accepts_imaginary_round_off(self):
        c = np.ones(4, dtype=complex) / 2 + 1e-14j
        assert np.array_equal(u_of_c(c), u_of_c(np.ones(4) / 2))

    def test_random_real_coefficients_unitary(self, rng):
        for _ in range(100):
            c = rng.normal(size=4)
            c /= np.linalg.norm(c)
            u = u_of_c(c)
            assert np.abs(u.conj().T @ u - I2).max() < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            u_of_c([1, 1, 0, 0])


class TestConcurrenceImaginarityRelation:
    def test_real_input(self, rng):
        a = rng.normal(size=4)
        a /= np.linalg.norm(a)
        c, i_r = check_concurrence_relation(a)
        assert c == pytest.approx(1.0, abs=1e-10)
        assert i_r == pytest.approx(0.0, abs=1e-10)

    def test_circular_input(self):
        psi = np.array([1, 1j, 0, 0]) / np.sqrt(2)
        c, i_r = check_concurrence_relation(psi)
        assert c == pytest.approx(0.0, abs=1e-7)  # sqrt round-off at the branch point
        assert i_r == pytest.approx(1.0, abs=1e-10)

    def test_quarter_phase(self):
        psi = np.array([1, np.exp(1j * np.pi / 4), 0, 0]) / np.sqrt(2)
        c, i_r = check_concurrence_relation(psi)
        assert c == pytest.approx(np.cos(np.pi / 4), abs=1e-10)
        assert i_r == pytest.approx(np.sin(np.pi / 4), abs=1e-10)

    def test_relation_with_spin_flip_oracle(self, rng):
        for _ in range(300):
            psi = haar_state(4, rng)
            i_r = robustness_of_imaginarity(density(psi))
            oracle = spin_flip_concurrence(mask_pure(psi))
            assert oracle == pytest.approx(np.sqrt(max(0.0, 1 - i_r**2)), abs=1e-10)
