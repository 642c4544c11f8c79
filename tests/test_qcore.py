import numpy as np
import pytest

from realmask import qcore
from realmask.estimate import decode_real_state
from realmask.masker import mask_pure
from realmask.optics import pauli_meas_setting, simulate_measurement
from realmask.qcore import (
    BELL_PHI as BELL,
    EPS_EXACT,
    EPS_NUMERIC,
    PAULI_Z,
    checked_density,
    checked_state,
    fidelity_with_pure,
    partial_trace,
)

from helpers import (
    concurrence_from_purity,
    concurrence_pure,
    density,
    haar_state,
    purity,
    random_density,
    random_real_density,
    random_unitary,
    robustness_of_imaginarity,
    spin_flip_concurrence,
    trace_distance,
)


def ket(*amps) -> np.ndarray:
    v = np.asarray(amps, dtype=complex)
    return v / np.linalg.norm(v)


class TestPartialTrace:
    def test_bell_reduces_to_maximally_mixed(self):
        red = partial_trace(density(BELL), keep="A")
        assert np.abs(red - np.eye(2) / 2).max() < EPS_EXACT

    def test_product_state_keep_b(self):
        plus = ket(1, 1)
        rho = np.kron(density(ket(1, 0)), density(plus))
        red = partial_trace(rho, keep="B")
        assert np.abs(red - density(plus)).max() < EPS_EXACT

    def test_two_reductions_share_spectrum(self, rng):
        for _ in range(50):
            psi = haar_state(4, rng)
            sa = np.linalg.eigvalsh(partial_trace(density(psi), "A"))
            sb = np.linalg.eigvalsh(partial_trace(density(psi), "B"))
            assert np.abs(np.sort(sa) - np.sort(sb)).max() < 1e-12

    def test_trace_and_positivity_preserved_in_bulk(self, rng):
        # partial_trace validates trace 1, Hermiticity and the eigenvalue
        # floor of its result, so returning is the invariant.
        g = rng.normal(size=(10_000, 4, 4)) + 1j * rng.normal(size=(10_000, 4, 4))
        rhos = g @ np.conj(np.swapaxes(g, 1, 2))
        rhos /= np.trace(rhos, axis1=1, axis2=2).real[:, None, None]
        for rho in rhos:
            partial_trace(rho, "A")
            partial_trace(rho, "B")

    @pytest.mark.parametrize("rho", [np.eye(5) / 5, np.eye(6) / 6, np.eye(2) / 2, np.ones(4) / 4])
    def test_rejects_what_is_not_two_qubits(self, rho):
        with pytest.raises(ValueError, match=r"^partial_trace expects \(\.\.\., 4, 4\) two-qubit states"):
            partial_trace(rho, "A")

    @pytest.mark.parametrize("keep", [0, 1, "a", "b", "C", None])
    def test_keep_is_a_or_b(self, keep):
        with pytest.raises(ValueError, match=r"^keep must be 'A' or 'B', got "):
            partial_trace(np.eye(4) / 4, keep)

    def test_stack_matches_items_alone(self, rng):
        rhos = np.stack([random_density(4, rng) for _ in range(6)]).reshape(2, 3, 4, 4)
        for keep in ("A", "B"):
            red = partial_trace(rhos, keep)
            assert red.shape == (2, 3, 2, 2)
            assert np.array_equal(red, [[partial_trace(r, keep) for r in row] for row in rhos])
            assert np.array_equal(purity(red), [[purity(r) for r in row] for row in red])

    def test_stack_checks_every_reduced_state(self):
        with pytest.raises(ValueError, match="trace"):
            partial_trace(np.stack([np.eye(4) / 4, np.eye(4) / 2]), "A")


class TestPurityFidelity:
    def test_maximally_mixed(self):
        assert purity(np.eye(2) / 2) == pytest.approx(0.5, abs=1e-15)

    def test_pure_projector(self, rng):
        assert purity(density(haar_state(4, rng))) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_mixture(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        assert purity(rho) == pytest.approx(0.625, abs=1e-15)

    def test_fidelity_with_itself(self):
        assert fidelity_with_pure(density(BELL), BELL) == pytest.approx(1.0, abs=1e-12)

    def test_fidelity_maximally_mixed(self):
        assert fidelity_with_pure(np.eye(4) / 4, BELL) == pytest.approx(0.25, abs=1e-14)

    def test_fidelity_depolarized(self):
        p = 0.0056
        rho = (1 - p) * density(BELL) + p * np.eye(4) / 4
        assert fidelity_with_pure(rho, BELL) == pytest.approx(0.9958, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match=r"^dimension mismatch: target of shape \(4,\) for matrices of shape \(2, 2\)$"):
            fidelity_with_pure(np.eye(2) / 2, BELL)

    def test_stack_gives_one_value_per_item(self, rng):
        rhos = np.array([random_density(4, rng) for _ in range(5)])
        fids = fidelity_with_pure(rhos, BELL)
        assert fids.shape == (5,)
        for fid, rho in zip(fids, rhos):
            assert fid == fidelity_with_pure(rho, BELL)

    def test_one_target_per_matrix_equals_the_rows(self, rng):
        rhos = np.array([[random_density(4, rng) for _ in range(3)] for _ in range(2)])
        targets = np.array([[haar_state(4, rng) for _ in range(3)] for _ in range(2)])
        fids = fidelity_with_pure(rhos, targets)
        assert fids.shape == (2, 3)
        assert np.array_equal(fids, [[fidelity_with_pure(r, t) for r, t in zip(*row)] for row in zip(rhos, targets)])
        # One (d,) target still serves the whole stack.
        assert np.array_equal(fidelity_with_pure(rhos, BELL), fidelity_with_pure(rhos, np.broadcast_to(BELL, (2, 3, 4))))

    @pytest.mark.parametrize("shape", [(3,), (5,), (2, 3, 3), (3, 4), (1, 4), (2, 1, 4)])
    def test_a_target_of_the_wrong_shape_is_refused(self, shape, rng):
        rhos = np.array([[random_density(4, rng) for _ in range(3)] for _ in range(2)])
        target = rng.normal(size=shape)
        target /= np.linalg.norm(target, axis=-1, keepdims=True)
        with pytest.raises(ValueError, match=r"^dimension mismatch: target of shape"):
            fidelity_with_pure(rhos, target)

    def test_rejects_spurious_imaginary_part(self):
        # A non-Hermitian item: <00| rho |00> = 1/4 + 1e-9 i.
        rho = np.eye(4) / 4 + 1e-9j * np.kron(PAULI_Z, PAULI_Z)
        with pytest.raises(ValueError, match="spurious imaginary"):
            fidelity_with_pure(np.stack([np.eye(4) / 4, rho]), np.array([1, 0, 0, 0]))


class TestConcurrence:
    def test_bell_is_maximal(self):
        assert concurrence_pure(BELL) == pytest.approx(1.0, abs=1e-12)

    def test_product_state_is_zero(self):
        assert concurrence_pure(ket(1, 0, 0, 0)) == pytest.approx(0.0, abs=1e-12)

    def test_masked_phase_state(self):
        # Masking (|0> + e^{i pi/3}|1>)/sqrt(2) leaves concurrence cos(pi/3).
        psi = ket(1, np.exp(1j * np.pi / 3), 0, 0)
        assert concurrence_pure(mask_pure(psi)) == pytest.approx(0.5, abs=1e-12)

    def test_concurrence_from_purity_is_clamped_to_the_unit_interval(self):
        # A purity rounded just below 1/2 must not give a concurrence above 1.
        got = concurrence_from_purity(np.array([0.5 - 1e-16, 0.4, 0.5, 1.0, 1.0 + 1e-16]))
        assert got.tolist() == [1.0, 1.0, 1.0, 0.0, 0.0]

    def test_agrees_with_spin_flip_oracle(self, rng):
        for _ in range(100):
            psi = haar_state(4, rng)
            assert concurrence_pure(psi) == pytest.approx(spin_flip_concurrence(psi), abs=1e-10)


class TestImaginarity:
    def test_real_state_is_zero(self, rng):
        for _ in range(20):
            assert robustness_of_imaginarity(random_real_density(4, rng)) < 1e-12

    def test_circular_qubit(self):
        assert robustness_of_imaginarity(density(ket(1, 1j))) == pytest.approx(1.0, abs=1e-12)

    def test_phase_pi_over_six(self):
        psi = ket(1, np.exp(1j * np.pi / 6))
        assert robustness_of_imaginarity(density(psi)) == pytest.approx(0.5, abs=1e-12)

    def test_two_formulas_agree_for_pure_ququarts(self, rng):
        for _ in range(100):
            rho = density(haar_state(4, rng))
            tracenorm = robustness_of_imaginarity(rho)  # cross-checks internally
            alt = np.sqrt(max(0.0, 1.0 - np.trace(rho @ rho.T).real))
            assert tracenorm == pytest.approx(alt, abs=EPS_NUMERIC)


class TestOneConvention:
    """Every state function takes plain arrays and returns plain arrays or
    floats, for one matrix as for a stack; every entry point that takes a
    pure state checks it with `checked_state`."""

    @staticmethod
    def assert_plain(value):
        assert type(value) is np.ndarray or isinstance(value, float)

    def test_density_functions(self, rng):
        from realmask.measure import apply_depolarizing

        rho = random_density(4, rng)
        stack = np.stack([random_density(4, rng) for _ in range(3)])
        for fn in (lambda r: partial_trace(r, "A"), lambda r: partial_trace(r, "B"),
                   lambda r: apply_depolarizing(r, 0.1), purity, lambda r: fidelity_with_pure(r, BELL)):
            self.assert_plain(fn(rho))
            many = fn(stack)
            assert type(many) is np.ndarray
            assert np.array_equal(many, [fn(r) for r in stack])

    def test_real_inputs_stay_real(self, rng):
        # A real input gives float64, equal to the result for its complex copy.
        from realmask.measure import apply_depolarizing, axis_probs, pair_probs

        psis = rng.normal(size=(3, 4))
        psis /= np.linalg.norm(psis, axis=-1, keepdims=True)
        rhos = np.array([random_real_density(4, rng) for _ in range(3)])
        assert rhos.dtype == np.float64
        for fn, real in ((checked_state, psis), (checked_density, rhos), (lambda r: partial_trace(r, "A"), rhos),
                         (lambda r: partial_trace(r, "B"), rhos), (lambda r: apply_depolarizing(r, 0.1), rhos)):
            got, want = fn(real), fn(real.astype(complex))
            assert got.dtype == np.float64 and want.dtype == complex
            assert np.array_equal(got, want)
        reduced = partial_trace(rhos, "A")
        assert np.array_equal(axis_probs(reduced), axis_probs(reduced.astype(complex)))
        assert np.array_equal(pair_probs(rhos), pair_probs(rhos.astype(complex)))

    @pytest.mark.parametrize("fn", [
        lambda v: fidelity_with_pure(np.eye(4) / 4, v),
        mask_pure,
        lambda v: simulate_measurement(v, pauli_meas_setting("X", "Y")),
    ], ids=["fidelity_with_pure", "mask_pure", "simulate_measurement"])
    def test_pure_state_entry_points(self, fn, rng):
        psi = haar_state(4, rng)
        self.assert_plain(fn(psi))
        assert np.array_equal(fn(psi), fn(list(psi)))
        with pytest.raises(ValueError, match="norm"):
            fn(2 * psi)

    @pytest.mark.parametrize("fn, message", [
        (lambda v, rho: fidelity_with_pure(rho, v), "dimension mismatch"),
        (lambda v, rho: mask_pure(v), "4-dimensional state"),
    ], ids=["fidelity_with_pure", "mask_pure"])
    def test_a_stack_equals_its_rows(self, fn, message, rng):
        # Like `checked_state`, every entry point that takes amplitudes takes
        # one state or a stack, with one matrix per row where it reads both.
        psis = np.array([haar_state(4, rng) for _ in range(3)])
        rhos = np.array([random_density(4, rng) for _ in range(3)])
        many = fn(psis, rhos)
        assert type(many) is np.ndarray and len(many) == 3
        assert np.array_equal(many, [fn(*row) for row in zip(psis, rhos)])
        with pytest.raises(ValueError, match=message):
            fn(haar_state(3, rng), rhos[0])
        with pytest.raises(ValueError, match=message):
            fn(np.array([haar_state(3, rng) for _ in range(3)]), rhos)

    def test_decode_real_state(self, rng):
        ts = rng.uniform(-1, 1, size=(3, 3, 3))
        for t in (ts[0], ts):
            for rho in decode_real_state(t):
                self.assert_plain(rho)

    def test_masker_matrix_is_read_only(self):
        from realmask.masker import masker_matrix

        m = masker_matrix()
        assert type(m) is np.ndarray and m.shape == (4, 4)
        assert masker_matrix() is m
        with pytest.raises(ValueError, match="read-only"):
            m[0, 0] = 0.0


class TestCheckedInputs:
    @pytest.mark.parametrize("psi, message", [
        ([1.0, np.nan], "non-finite"),
        ([np.inf, 0.0], "non-finite"),
        ([1.0, 1j * np.inf], "non-finite"),
        pytest.param([], r"nonempty \(\.\.\., d\) array", id="empty"),
        pytest.param(1.0, r"nonempty \(\.\.\., d\) array", id="scalar"),
        # A (2, 2) array is a stack of two rows, each of norm 1/sqrt(2).
        pytest.param(np.eye(2) / np.sqrt(2), r"^row 0: state vector norm 0\.70710678\d* deviates from 1",
                     id="two-rows-of-norm-0.7"),
        ([1.0, 1.0], "norm"),
        ([0.0, 0.0], "norm"),
        ([1.0 + 2e-12, 0.0], "norm"),
        pytest.param([np.nan, 0.0], "^state vector contains non-finite entries$", id="nan"),
        pytest.param([-np.inf, 0.0], "^state vector contains non-finite entries$", id="-inf"),
        pytest.param([2.0, 0.0], r"^state vector norm 2\.0 deviates from 1 by more than 1e-12$", id="norm-2"),
        # A stack names its first faulty row, and each fault by its kind.
        pytest.param([[1.0, 0.0], [0.0, 1.0], [2.0, 0.0], [0.0, 3.0]], r"^row 2: state vector norm 2\.0 deviates",
                     id="stack-row-2-norm-2"),
        pytest.param([[1.0, 0.0], [np.nan, 0.0], [2.0, 0.0]], "^row 1: state vector contains non-finite entries$",
                     id="stack-row-1-nan"),
        pytest.param([[[1.0, 0.0], [0.0, 1.0]], [[0.6, 0.8], [-np.inf, 0.0]]],
                     r"^row \(1, 1\): state vector contains non-finite entries$", id="stack-row-(1, 1)-inf"),
    ])
    def test_checked_state_rejects(self, psi, message):
        with pytest.raises(ValueError, match=message):
            checked_state(psi)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
    def test_a_non_finite_entry_is_refused_under_its_name(self, bad):
        mat = np.eye(2, dtype=complex) / 2
        mat[1, 0] = bad
        with pytest.raises(ValueError, match="^weights contains non-finite entries$"):
            qcore._as_field_array(mat, "weights")
        with pytest.raises(ValueError, match="^density matrix contains non-finite entries$"):
            checked_density(mat)

    def test_checked_state_names_what_it_checks(self):
        with pytest.raises(ValueError, match=r"^row 1: target norm 2\.0 deviates"):
            checked_state([[1.0, 0.0], [0.0, 2.0]], "target")

    def test_checked_state_keeps_its_inputs_field(self):
        out = checked_state([0.6, 0.8])
        assert out.dtype == np.float64 and np.array_equal(out, [0.6, 0.8])
        assert checked_state([1, 0]).dtype == np.float64
        assert np.array_equal(checked_state([1.0 + 5e-13, 0.0]), [1.0 + 5e-13, 0.0])
        stack = checked_state([[0.6, 0.8j], [1.0, 0.0]])
        assert stack.dtype == complex and np.array_equal(stack, [[0.6, 0.8j], [1.0, 0.0]])
        assert checked_state(np.empty((0, 4))).shape == (0, 4)

    def test_density_rejects_nonhermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            checked_density(np.array([[0.5, 0.5], [0.0, 0.5]]))

    def test_density_rejects_wrong_trace(self):
        with pytest.raises(ValueError, match="trace"):
            checked_density(np.eye(2))

    def test_density_rejects_non_square(self):
        for mat in (np.ones(2) / 2, np.ones((2, 3)) / 2):
            with pytest.raises(ValueError, match="square"):
                checked_density(mat)

    def test_density_accepts_round_off_tail_unaltered(self):
        # Eigenvalues in [-EPS_NUMERIC, 0) are round-off: accepted, not clipped.
        rho = np.diag([1.0 + 5e-11, -5e-11]).astype(complex)
        assert np.array_equal(checked_density(rho), rho)
        # The masked fourth probe's pure density has a round-off negative
        # eigenvalue; its Hermitian part is returned and nothing more.
        vec = mask_pure(np.ones(4) / 2)
        pure = vec[:, None] * vec[None, :].conj()
        hermitian = 0.5 * (pure + pure.conj().T)
        assert np.linalg.eigvalsh(hermitian).min() < 0.0
        assert np.array_equal(checked_density(pure), hermitian)

    def test_density_rejects_genuinely_negative(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            checked_density(np.diag([1.2, -0.2]).astype(complex))

    def test_stack_checks_every_item(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            checked_density(np.stack([np.eye(2) / 2, [[0.5, 0.1], [0.0, 0.5]]]))
        with pytest.raises(ValueError, match="trace"):
            checked_density(np.stack([np.eye(2) / 2, np.eye(2)]))
        with pytest.raises(ValueError, match="eigenvalue"):
            checked_density(np.stack([np.eye(2) / 2, np.diag([1.2, -0.2])]))

    @pytest.mark.parametrize("mats, message", [
        # Row 1's trace is off and row 2 is not Hermitian: row 1's own first error is named.
        ([np.eye(2) / 2, np.eye(2), [[0.5, 0.1], [0.0, 0.5]]], r"trace 2\.0 deviates from 1"),
        # An eigenvalue fault comes before a later row's Hermiticity fault.
        ([np.eye(2) / 2, np.diag([1.2, -0.2]), [[0.5, 0.1], [0.0, 0.5]]], r"has eigenvalue -0\.2"),
    ])
    def test_stack_names_the_first_faulty_matrix(self, mats, message):
        with pytest.raises(ValueError, match=rf"^row 1: density matrix {message}"):
            checked_density(np.stack(mats))

    def test_stack_equals_each_item_alone_unaltered(self):
        mats = np.stack([np.diag([1.0 + 5e-11, -5e-11]), np.eye(2) / 2, np.diag([-3e-11, 1.0 + 3e-11])])
        out = checked_density(mats)
        assert np.array_equal(out, mats)
        for row, mat in zip(out, mats):
            assert np.array_equal(row, checked_density(mat))


class TestRandomHelpers:
    def test_unitaries_are_unitary(self, rng):
        for dim in (2, 4):
            for _ in range(50):
                u = random_unitary(dim, rng)
                assert np.abs(u.conj().T @ u - np.eye(dim)).max() < 1e-12

    def test_random_density_valid(self, rng):
        dm = random_density(4, rng)
        assert np.trace(dm).real == pytest.approx(1.0, abs=1e-12)

    def test_trace_distance_of_orthogonal_pures(self):
        assert trace_distance(density(ket(1, 0)), density(ket(0, 1))) == pytest.approx(1.0, abs=1e-12)
