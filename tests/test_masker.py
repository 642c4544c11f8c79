import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realmask import masker
from realmask.masker import hr_unitaries, mask_pure, masker_matrix
from realmask.qcore import BELL_PHI, PAULI_X, PAULI_Y, PAULI_Z, partial_trace

from helpers import (
    check_concurrence_relation,
    concurrence_pure,
    density,
    haar_state,
    hr_combination,
    inner,
    magic_basis,
    mask_state,
    random_real_density,
    robustness_of_imaginarity,
    spin_flip_concurrence,
    trace_distance,
)

I2 = np.eye(2)


@pytest.fixture
def cold_masker():
    """`hr_unitaries` and `masker_matrix` rebuilt on their next call, during
    the test and after it, so a family a test patches in is not kept."""
    for built in (hr_unitaries, masker_matrix):
        built.cache_clear()
    yield
    for built in (hr_unitaries, masker_matrix):
        built.cache_clear()


def build_from(monkeypatch, family):
    """`masker_matrix()` built afresh from `family` in place of `hr_unitaries()`."""
    monkeypatch.setattr(masker, "hr_unitaries", lambda: np.asarray(family, dtype=complex))
    masker_matrix.cache_clear()
    return masker_matrix()


def columns(family) -> np.ndarray:
    """-i (U_j ⊗ 1)|Phi> for each U_j of `family`, as the columns of a (4, 4) array."""
    return np.column_stack([-1j * np.kron(u, I2) @ BELL_PHI for u in family])


class TestHurwitzRadon:
    def test_squares_to_minus_identity(self):
        for u in hr_unitaries()[1:]:
            assert np.abs(u @ u + I2).max() < 1e-12

    def test_cross_anticommutators_vanish(self):
        mats = hr_unitaries()[1:]
        for j in range(3):
            for k in range(3):
                if j != k:
                    assert np.abs(mats[j] @ mats[k] + mats[k] @ mats[j]).max() < 1e-12

    def test_concrete_pauli_choice(self):
        u0, u1, u2, u3 = hr_unitaries()
        assert np.array_equal(u0, I2)
        assert np.allclose(u1, np.diag([1j, -1j]), atol=0)
        assert np.array_equal(u2, 1j * PAULI_X)
        assert np.array_equal(u3, 1j * PAULI_Y)

    def test_cached_stack_is_read_only(self):
        us = hr_unitaries()
        assert hr_unitaries() is us
        assert us.shape == (4, 2, 2)
        with pytest.raises(ValueError, match="read-only"):
            us[1, 0, 0] = 0.0

    def test_anticommutation_is_checked(self, monkeypatch, cold_masker):
        # With X replaced by Z the set holds iZ twice, and iZ iZ + iZ iZ = -2:
        # the masker's Gram check refuses it, for columns 1 and 2 coincide.
        monkeypatch.setattr(masker, "PAULI_X", PAULI_Z)
        with pytest.raises(ValueError, match=r"^not an isometry: max \|M†M - 1\| = 1\.000e\+00$"):
            masker_matrix()


class TestMagicBasis:
    """M†M = 1 and Mᵀ(σ_y⊗σ_y)M = 1: the two identities `masker_matrix`
    checks, which give C(M psi) = |psiᵀpsi| for every input."""

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-1.0, 1.0), min_size=8, max_size=8).filter(lambda v: np.linalg.norm(v) > 1e-3))
    def test_concurrence_is_the_bilinear_norm(self, parts):
        psi = np.array(parts[:4]) + 1j * np.array(parts[4:])
        psi /= np.linalg.norm(psi)
        assert spin_flip_concurrence(masker_matrix() @ psi) == pytest.approx(abs(psi @ psi), abs=1e-14)

    def test_maximally_entangled_columns_that_do_not_mask_are_refused(self, monkeypatch, cold_masker):
        # [1, Z, X, Y] gives an isometry whose columns are all maximally
        # entangled, yet the real input (|0> + |1>)/sqrt(2) goes to -i|00>.
        family = np.stack([I2, PAULI_Z, PAULI_X, PAULI_Y])
        m, a = columns(family), np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
        assert np.abs(m.conj().T @ m - np.eye(4)).max() < 1e-15
        assert [concurrence_pure(col) for col in m.T] == pytest.approx([1.0] * 4, abs=1e-12)
        assert np.abs(m @ a - [-1j, 0, 0, 0]).max() < 1e-15
        with pytest.raises(ValueError, match=r"^not a magic basis: max \|Mᵀ\(σ_y⊗σ_y\)M - 1\| = 2\.000e\+00$"):
            build_from(monkeypatch, family)

    def test_one_entry_off_by_1e_9_is_refused(self, monkeypatch, cold_masker):
        family = hr_unitaries().copy()
        family[1, 0, 0] += 1e-9 * np.sqrt(2)
        off = columns(family) - masker_matrix()
        assert np.count_nonzero(off) == 1 and np.abs(off).max() == pytest.approx(1e-9, rel=1e-6)
        with pytest.raises(ValueError, match="^not an isometry"):
            build_from(monkeypatch, family)

    def test_one_column_off_by_a_1e_9_phase_is_refused(self, monkeypatch, cold_masker):
        # A column phase keeps M an isometry with maximally entangled columns,
        # but turns psiᵀpsi of the real input (|0> + |1>)/sqrt(2) off 1.
        family = hr_unitaries().copy()
        family[1] *= np.exp(1e-9j)
        with pytest.raises(ValueError, match=r"^not a magic basis: max \|Mᵀ\(σ_y⊗σ_y\)M - 1\| = 2\.000e-09$"):
            build_from(monkeypatch, family)


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


class TestMaskPure:
    def test_a_stack_is_masked_row_by_row(self, rng):
        psis = np.array([[haar_state(4, rng) for _ in range(3)] for _ in range(2)])
        got = mask_pure(psis)
        assert got.shape == (2, 3, 4)
        for i, j in np.ndindex(2, 3):
            assert np.array_equal(got[i, j], masker_matrix() @ psis[i, j])

    def test_a_stack_names_its_first_faulty_row(self, rng):
        psis = np.array([[haar_state(4, rng) for _ in range(3)] for _ in range(2)])
        psis[1, 2] *= 2
        psis[1, 1, 0] = np.nan
        with pytest.raises(ValueError, match=r"^row \(1, 1\): state vector contains non-finite entries$"):
            mask_pure(psis)
        psis[1, 1] = psis[0, 0]
        with pytest.raises(ValueError, match=r"^row \(1, 2\): state vector norm 2\.0"):
            mask_pure(psis)


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


class TestTargetRotation:
    """U(a) = sum_j a_j U_j of a real unit vector a, built by the oracle
    `hr_combination`: the rotation of the verification target, whose
    fidelity alone sets the pass law that `estimate.qsv_run` samples."""

    def test_identity_coefficients(self):
        assert np.array_equal(hr_combination([1, 0, 0, 0]), I2.astype(complex))

    def test_uniform_real_coefficients(self):
        u = hr_combination(np.ones(4) / 2)
        want = (I2 + 1j * PAULI_Z + 1j * PAULI_X + 1j * PAULI_Y) / 2
        assert np.abs(u - want).max() < 1e-15
        assert np.abs(u.conj().T @ u - I2).max() < 1e-12

    def test_complex_coefficients_break_unitarity(self):
        # c = (1, i, 0, 0)/sqrt(2) sums to diag(0, sqrt(2)).
        u = hr_combination(np.array([1, 1j, 0, 0]) / np.sqrt(2))
        assert np.abs(u.conj().T @ u - I2).max() == pytest.approx(1.0, abs=1e-12)

    def test_random_real_coefficients_unitary(self, rng):
        c = rng.normal(size=(100, 4))
        c /= np.linalg.norm(c, axis=1, keepdims=True)
        for row in c:
            u = hr_combination(row)
            assert np.abs(u.conj().T @ u - I2).max() < 1e-12

    def test_rotated_bell_state_is_i_times_the_masked_input(self, rng):
        for _ in range(100):
            a = rng.normal(size=4)
            a /= np.linalg.norm(a)
            target = np.kron(hr_combination(a), I2) @ BELL_PHI
            assert np.abs(target - 1j * mask_pure(a)).max() < 1e-12


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


def test_mask_pure_refuses_a_state_of_another_dimension():
    with pytest.raises(ValueError, match="^mask_pure expects 4-dimensional states$"):
        mask_pure(np.ones((2, 3)) / np.sqrt(3))
