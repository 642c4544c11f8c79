import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from realmask import measure
from realmask.estimate import bootstrap_std, purity_from_counts, qsv_run
from realmask.measure import (
    AXES,
    PAIR_PAULIS,
    PAIRS,
    CountsTable,
    apply_depolarizing,
    axis_probs,
    correlators,
    derive_seed,
    generator,
    pair_probs,
    poisson_resample,
    sample_counts,
    tables_from_csv,
)
from realmask.qcore import BELL_PHI, PAULIS, checked_density, partial_trace

from helpers import (INT_DIGITS, density, mask_state, random_density, random_real_density, reference_derive_seed,
                     tables_csv)


def oracle_pair_probs(rho: np.ndarray) -> np.ndarray:
    """Per-setting projector formula: tr(rho (1 + s1 sigma_j)/2 ⊗ (1 + s2 sigma_k)/2)
    for each pair jk and signs (s1, s2) in ++, +-, -+, -- order."""
    eye = np.eye(2)
    rows = []
    for j in "XYZ":
        for k in "XYZ":
            row = []
            for s1 in (+1, -1):
                proj1 = (eye + s1 * PAULIS[j]) / 2
                for s2 in (+1, -1):
                    proj2 = (eye + s2 * PAULIS[k]) / 2
                    row.append(np.trace(rho @ np.kron(proj1, proj2)).real)
            rows.append(row)
    return np.array(rows)


def oracle_axis_plus(rho: np.ndarray) -> np.ndarray:
    """tr(rho (1 + sigma)/2) for sigma = X, Y, Z."""
    return np.array([np.trace(rho @ (np.eye(2) + PAULIS[a]) / 2).real for a in "XYZ"])


@st.composite
def densities(draw, dim: int) -> np.ndarray:
    """G G† / tr(G G†) for a random complex G."""
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    re = np.reshape(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)), (dim, dim))
    im = np.reshape(draw(st.lists(entries, min_size=dim * dim, max_size=dim * dim)), (dim, dim))
    g = re + 1j * im
    m = g @ g.conj().T
    tr = np.trace(m).real
    assume(tr > 1e-3)
    return checked_density(m / tr)


def index_loop_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Four-index oracle of the row-major block convention (A⊗B)[ip+k, jq+l] = A[i,j] B[k,l]
    for two 2x2 operands."""
    want = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    want[i * 2 + k, j * 2 + l] = a[i, j] * b[k, l]
    return want


class TestPairTables:
    """The pair tables in the block convention, checked without `np.kron`."""

    def test_pair_paulis_against_index_loop(self):
        for pauli, pair in zip(PAIR_PAULIS, PAIRS):
            assert np.array_equal(pauli, index_loop_product(PAULIS[pair[0]], PAULIS[pair[1]]))

    def test_pair_projectors_against_index_loop(self):
        eye = np.eye(2)
        for projectors, pair in zip(measure._PAIR_PROJECTORS, PAIRS):
            want = [index_loop_product((eye + s1 * PAULIS[pair[0]]) / 2, (eye + s2 * PAULIS[pair[1]]) / 2)
                    for s1 in (1, -1) for s2 in (1, -1)]
            assert np.array_equal(projectors, want)


class TestOutcomeProbs:
    def test_labels(self):
        assert AXES == ("X", "Y", "Z")
        assert PAIRS == tuple(j + k for j in "XYZ" for k in "XYZ")

    def test_bell_zz(self):
        probs = pair_probs(density(BELL_PHI))[PAIRS.index("ZZ")]
        assert np.abs(probs - [0.5, 0, 0, 0.5]).max() < 1e-12

    def test_bell_yy(self):
        probs = pair_probs(density(BELL_PHI))[PAIRS.index("YY")]
        assert np.abs(probs - [0, 0.5, 0.5, 0]).max() < 1e-12

    def test_maximally_mixed_uniform(self):
        probs = pair_probs(np.eye(4) / 4)
        assert probs.shape == (9, 4)
        assert np.abs(probs - 0.25).max() < 1e-12

    @settings(max_examples=200, deadline=None)
    @given(densities(4))
    def test_pair_probs_match_oracle(self, rho):
        assert np.array_equal(pair_probs(rho), oracle_pair_probs(rho))

    @settings(max_examples=200, deadline=None)
    @given(densities(2))
    def test_axis_rows_are_plus_and_its_complement(self, rho):
        probs = axis_probs(rho)
        plus = oracle_axis_plus(rho)
        assert probs.shape == (3, 2)
        assert np.array_equal(probs[:, 0], plus)
        assert np.array_equal(probs[:, 1], 1.0 - plus)

    @settings(max_examples=100, deadline=None)
    @given(densities(4))
    def test_marginals_match_reduced_states(self, rho):
        joint = pair_probs(rho).reshape(3, 3, 2, 2)  # first axis, second axis, s1, s2
        want_a = axis_probs(partial_trace(rho, "A"))
        want_b = axis_probs(partial_trace(rho, "B"))
        for j in range(3):
            for k in range(3):
                assert np.abs(joint[j, k].sum(axis=1) - want_a[j]).max() < 1e-12
                assert np.abs(joint[j, k].sum(axis=0) - want_b[k]).max() < 1e-12

    def test_masked_real_states_have_flat_marginals(self, rng):
        for _ in range(50):
            out = mask_state(random_real_density(4, rng))
            for qubit in ("A", "B"):
                probs = axis_probs(partial_trace(out, qubit))
                assert np.abs(probs - 0.5).max() < 1e-12

    def test_stack_rows_match_items_alone(self, rng):
        rhos = np.stack([random_density(4, rng) for _ in range(5)])
        assert np.array_equal(pair_probs(rhos), [pair_probs(r) for r in rhos])
        reduced = np.stack([partial_trace(rhos, "A"), partial_trace(rhos, "B")], axis=1)
        probs = axis_probs(reduced)
        assert probs.shape == (5, 2, 3, 2)
        assert np.array_equal(probs, [[axis_probs(r) for r in row] for row in reduced])

    def test_wrong_dimension_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            pair_probs(np.eye(2) / 2)
        with pytest.raises(ValueError, match="2x2"):
            axis_probs(np.eye(4) / 4)


class TestSampleCounts:
    def test_deterministic_outcome(self):
        counts = sample_counts([1, 0, 0, 0], shots=1234, seed=1)
        assert counts.dtype.kind == "i"
        assert counts.tolist() == [1234, 0, 0, 0]

    def test_zero_probability_outcomes_never_drawn(self):
        counts = sample_counts([0.5, 0, 0, 0.5], shots=4000, seed=2)
        assert counts[1] == 0 and counts[2] == 0
        assert counts[0] + counts[3] == 4000

    def test_large_sample_correlator(self):
        # <Z ⊗ Z> of the Bell state is +1 (its outcome distribution only
        # populates the ++/-- cells, so the estimate is exact at any shots).
        probs = pair_probs(density(BELL_PHI))
        counts = sample_counts(probs[PAIRS.index("ZZ")], shots=1_000_000, seed=3)
        assert abs(correlators(counts) - 1.0) < 0.005
        # <X ⊗ Z> vanishes; a genuinely fluctuating law-of-large-numbers check.
        counts = sample_counts(probs[PAIRS.index("XZ")], shots=1_000_000, seed=3)
        assert abs(correlators(counts)) < 0.005

    def test_seed_determinism(self):
        a = sample_counts([0.3, 0.3, 0.2, 0.2], 1000, seed=99)
        b = sample_counts([0.3, 0.3, 0.2, 0.2], 1000, seed=99)
        c = sample_counts([0.3, 0.3, 0.2, 0.2], 1000, seed=100)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_one_multinomial_draw(self):
        p = np.array([0.3, 0.3, 0.2, 0.2])
        assert np.array_equal(sample_counts(p, 1000, seed=99), generator(99).multinomial(1000, p / p.sum()))

    def test_frequency_concentration(self, rng):
        p = np.array([0.4, 0.3, 0.2, 0.1])
        shots = 1_000_000
        bound = 4 * np.sqrt(p * (1 - p) / shots)
        hits = 0
        trials = 1000
        for i in range(trials):
            freqs = sample_counts(p, shots, seed=derive_seed(17, "freq", i)) / shots
            if np.all(np.abs(freqs - p) <= bound):
                hits += 1
        assert hits >= 0.99 * trials

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            sample_counts([0.5, 0.6], 10, 0)
        with pytest.raises(ValueError):
            sample_counts([0.5, 0.5], 0, 0)

    @pytest.mark.parametrize("probs", [0.5, [0.2, 0.3, 0.5], [[1.0]]], ids=["scalar", "three", "one"])
    def test_rejects_rows_of_neither_width(self, probs):
        with pytest.raises(ValueError, match="^probs must have 2 or 4 entries$"):
            sample_counts(probs, 10, 0)

    # 2.5 used to draw 2 shots and True one, 2**63 ended in an OverflowError
    # from the multinomial draw, and 2**63 - 1 shots drew counts that the
    # bootstrap refused.
    @pytest.mark.parametrize("shots, rule", [
        *[(shots, "an integer") for shots in (2.5, 2.0, True, "3", None)],
        (0, "a positive integer"), (-1, "a positive integer"),
        *[(shots, r"at most 10\*\*18") for shots in (10**18 + 1, 2**63 - 1, 2**63, 10**19, np.uint64(2**63))],
    ])
    def test_rejects_a_bad_shot_count(self, shots, rule):
        with pytest.raises(ValueError, match=rf"^shots must be {rule}, got {re.escape(repr(shots))}$"):
            sample_counts([0.5, 0.5], shots, 0)

    def test_draws_the_largest_shot_count(self):
        counts = sample_counts([0.5, 0.5], measure.MAX_SHOTS, 0)
        assert counts.sum() == 10**18 and counts.dtype == np.int64

    def test_a_draw_at_the_cap_bootstraps(self):
        counts = sample_counts([[1.0, 0.0]], measure.MAX_SHOTS, 1)
        assert counts.tolist() == [[10**18, 0]]
        (point,), (std,) = bootstrap_std(lambda c: c[:, 0] / 10**18, counts, 2, resamples=3)
        assert point == 1.0 and 0.0 < std < 1e-8

    def test_accepts_numpy_integer_shots(self):
        assert np.array_equal(sample_counts([0.5, 0.5], np.int64(10), 4), sample_counts([0.5, 0.5], 10, 4))


class TestCorrelator:
    @pytest.mark.parametrize("counts,value", [
        ((4000, 0, 0, 0), 1.0),
        ((1000, 1000, 1000, 1000), 0.0),
        ((2000, 0, 0, 2000), 1.0),
    ])
    def test_literal_values(self, counts, value):
        assert correlators(counts) == value

    @settings(max_examples=100, deadline=None)
    @given(st.tuples(*[st.integers(0, 10_000)] * 4))
    def test_bounded(self, counts):
        if sum(counts) == 0:
            return
        assert -1.0 <= correlators(counts) <= 1.0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 10_000)] * 4), min_size=1, max_size=9))
    def test_array_matches_exact_ratio(self, tables):
        # Row by row the array helper gives the correctly rounded integer
        # ratio, and 0.0 for a table without shots.
        got = correlators(np.array(tables))
        for value, (npp, npm, nmp, nmm) in zip(got, tables):
            shots = npp + npm + nmp + nmm
            assert value == ((npp - npm - nmp + nmm) / shots if shots else 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.integers(0, 10_000)] * 2), min_size=1, max_size=9))
    def test_axis_tables_give_the_mean_of_their_outcome(self, tables):
        # A (+, -) table reads (n+ - n-)/shots, the convention of the pair
        # tables' correlators, and 0.0 without shots.
        got = correlators(np.array(tables))
        assert got.shape == (len(tables),)
        for value, (n_plus, n_minus) in zip(got, tables):
            assert value == ((n_plus - n_minus) / (n_plus + n_minus) if n_plus + n_minus else 0.0)
        assert correlators([[3, 1], [0, 0], [0, 2]]).tolist() == [0.5, 0.0, -1.0]

    def test_zero_shot_table_reads_zero(self):
        assert correlators((0, 0, 0, 0)) == 0.0
        stack = np.array([[[0, 0, 0, 0], [3, 0, 0, 1]]] * 2)
        assert np.array_equal(correlators(stack), [[0.0, 1.0]] * 2)


class TestDepolarizing:
    def test_p_zero_identity(self, rng):
        rho = random_density(4, rng)
        assert np.abs(apply_depolarizing(rho, 0.0) - rho).max() < 1e-15

    def test_p_one_maximally_mixed(self, rng):
        rho = random_density(4, rng)
        assert np.abs(apply_depolarizing(rho, 1.0) - np.eye(4) / 4).max() < 1e-15

    def test_small_p_fidelity(self):
        from realmask.qcore import fidelity_with_pure

        out = apply_depolarizing(density(BELL_PHI), 0.0056)
        assert fidelity_with_pure(out, BELL_PHI) == pytest.approx(0.9958, abs=1e-12)

    def test_stack_matches_items_alone(self, rng):
        rhos = np.stack([random_density(4, rng) for _ in range(5)])
        out = apply_depolarizing(rhos, 0.3)
        assert np.array_equal(out, [apply_depolarizing(r, 0.3) for r in rhos])

    # The one check of a figure's masked stack: it names the faulty row at every p.
    @pytest.mark.parametrize("p", [0.0, 0.01])
    @pytest.mark.parametrize("bad, match", [
        (np.eye(4), "trace"),
        (np.diag([1.2, -0.2, 0.0, 0.0]), "eigenvalue"),
        (np.triu(np.ones((4, 4))) / 4, "Hermitian"),
    ])
    def test_bad_state_row_is_named(self, bad, match, p):
        rho = np.array([np.eye(4) / 4, np.eye(4) / 4, bad])
        with pytest.raises(ValueError, match=f"^row 2: .*{match}"):
            apply_depolarizing(rho, p)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            apply_depolarizing(np.eye(4) / 4, 1.5)
        with pytest.raises(ValueError):
            apply_depolarizing(np.eye(4) / 4, -0.1)

    @pytest.mark.parametrize("p", [True, False, np.True_, Fraction(1, 2), "0.5", None])
    def test_what_is_no_int_or_float_is_refused(self, p):
        with pytest.raises(ValueError, match=r"^p must be a number in \[0, 1\], got "):
            apply_depolarizing(np.eye(4) / 4, p)

    def test_a_numpy_float_enters_as_its_python_float(self, rng):
        # np.float32 arithmetic would leave the trace off 1 by ~1e-8.
        rho = random_density(4, rng)
        p = np.float32(0.01)
        assert np.array_equal(apply_depolarizing(rho, p), apply_depolarizing(rho, float(p)))


class TestNumberRules:
    """The library's number rules, which its functions, config fields and flags share."""

    @pytest.mark.parametrize("v", [0, -3, 2**80, np.int64(-7), np.uint64(2**64 - 1)])
    def test_integer_gives_the_python_int(self, v):
        assert type(measure._integer(v)) is int and measure._integer(v) == v

    @pytest.mark.parametrize("v", [1.0, 1.5, True, np.True_, "7", None, Fraction(2, 1), np.float64(3.0)])
    def test_integer_refuses_what_is_no_integer(self, v):
        with pytest.raises(ValueError, match=rf"^must be an integer, got {re.escape(repr(v))}$"):
            measure._integer(v)

    @pytest.mark.skipif(not INT_DIGITS, reason="this Python writes an integer of any length")
    def test_integer_refuses_an_integer_too_long_to_write(self):
        with pytest.raises(ValueError, match=rf"^must be an integer of at most {INT_DIGITS} digits$"):
            measure._integer(10**INT_DIGITS)
        assert measure._integer(10**INT_DIGITS - 1) == 10**INT_DIGITS - 1

    @pytest.mark.parametrize("v", [1, 10**18, np.int64(10**18), np.uint64(5)])
    def test_count_takes_one_to_the_cap(self, v):
        assert type(measure._count(v)) is int and measure._count(v) == v

    @pytest.mark.parametrize("v, rule", [
        (0, "a positive integer"), (-1, "a positive integer"), (np.int64(0), "a positive integer"),
        (10**18 + 1, r"at most 10\*\*18"), (np.uint64(2**64 - 1), r"at most 10\*\*18"),
        (2.0, "an integer"), (True, "an integer"),
    ])
    def test_count_refusals(self, v, rule):
        with pytest.raises(ValueError, match=rf"^must be {rule}, got {re.escape(repr(v))}$"):
            measure._count(v)

    def test_count_takes_a_smaller_cap(self):
        assert measure._count(1000, 1000) == 1000
        with pytest.raises(ValueError, match=r"^must be at most 10\*\*3, got 1001$"):
            measure._count(1001, 1000)

    def test_the_cap_is_within_numpys_samplers(self):
        assert measure.MAX_SHOTS == 10**18 < np.iinfo(np.int64).max
        assert measure._at_most(measure.MAX_SHOTS) == "at most 10**18"

    @pytest.mark.parametrize("v", [0, 1, 0.5, np.float32(0.25), np.int64(1), np.float64(1.0)])
    def test_probability_gives_the_python_float(self, v):
        assert type(measure._probability(v)) is float and measure._probability(v) == v

    @pytest.mark.parametrize("v", [-0.1, 1.5, 2, np.nan, np.inf, True, np.False_, Fraction(1, 2), "0.5", None])
    def test_probability_refusals(self, v):
        with pytest.raises(ValueError, match=rf"^must be a number in \[0, 1\], got {re.escape(repr(v))}$"):
            measure._probability(v)

    def test_checked_names_the_field(self):
        assert measure._checked("shots", measure._count, np.int64(3)) == 3
        with pytest.raises(ValueError, match=r"^shots must be a positive integer, got 0$") as caught:
            measure._checked("shots", measure._count, 0)
        assert caught.value.__cause__ is None and caught.value.__suppress_context__

    def test_checked_passes_other_errors_through(self):
        def fails(v):
            raise TypeError("not a rule")

        with pytest.raises(TypeError, match="^not a rule$"):
            measure._checked("x", fails, 1)


AXIS_TABLES = [[1, 1], [2, 0], [0, 2]]  # two shots each, one count at the shots and one at 0


class TestCountTables:
    """`measure._count_tables`, the one rule of a count table that every
    count reader of `estimate` checks through."""

    @pytest.mark.parametrize("shots", [2, np.int64(2)])
    def test_gives_the_float_counts_and_the_shots(self, shots):
        c, n = measure._count_tables(AXIS_TABLES, shots, (3, 2))
        assert c.dtype == float and c.tolist() == AXIS_TABLES
        assert type(n) is int and n == 2

    def test_analytic_mode_takes_born_tables(self):
        born = np.array([[0.5, 0.5], [1.0, 0.0], [0.25, 0.75]])
        c, n = measure._count_tables(born, None, (3, 2))
        assert n is None and np.array_equal(c, born)
        assert measure._count_tables(np.zeros((9, 4)), None, (9, 4))[0].shape == (9, 4)

    @pytest.mark.parametrize("shape, table, stack", [
        ((3, 2), (3, 2), None), ((4, 5, 3, 2), (3, 2), None), ((3, 2), (3, 2), 1), ((4, 3, 2), (3, 2), 1),
        ((9, 4), (9, 4), 0), ((0, 9, 4), (9, 4), None),
    ])
    def test_takes_the_stacks_of_its_tables(self, shape, table, stack):
        counts = np.ones(shape, dtype=int)
        assert measure._count_tables(counts, table[1], table, stack)[0].shape == shape
        assert measure._count_tables(counts, None, table, stack)[0].shape == shape

    @pytest.mark.parametrize("shape, table, stack, words", [
        ((3, 3), (3, 2), None, "..., 3, 2"), ((6,), (3, 2), None, "..., 3, 2"), ((), (3, 2), None, "..., 3, 2"),
        ((2, 2), (3, 2), None, "..., 3, 2"), ((1, 1, 3, 2), (3, 2), 1, "batch, 3, 2"),
        ((2, 3, 3), (3, 2), 1, "batch, 3, 2"), ((1, 9, 4), (9, 4), 0, "9, 4"), ((9, 2), (9, 4), 0, "9, 4"),
    ])
    def test_refuses_tables_of_another_shape(self, shape, table, stack, words):
        for shots in (None, 1):
            with pytest.raises(ValueError, match=rf"^counts must have shape \({re.escape(words)}\)$"):
                measure._count_tables(np.ones(shape), shots, table, stack)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1.0, -0.5])
    @pytest.mark.parametrize("shots", [None, 2])
    def test_refuses_a_count_that_is_not_finite_and_nonnegative(self, bad, shots):
        counts = np.array(AXIS_TABLES, dtype=float)
        counts[2] = [bad, 2.0 - bad if np.isfinite(bad) else 0.0]
        with pytest.raises(ValueError, match="^counts must be finite and nonnegative$"):
            measure._count_tables(counts, shots, (3, 2))

    @pytest.mark.parametrize("last", [[1, 0], [2, 1], [3, 0], [1.0, 0.0], [3.0, 0.0], [0.5, 1.5], [1.5, 0.5],
                                      [0.5, 0.5], [2.5, 0]])
    def test_refuses_tables_that_do_not_hold_the_shots(self, last):
        counts = np.array([*AXIS_TABLES[:2], last])
        with pytest.raises(ValueError, match="^every table must hold shots = 2 whole counts$"):
            measure._count_tables(counts, 2, (3, 2))
        assert measure._count_tables(counts, None, (3, 2))[1] is None

    def test_integer_counts_are_summed_exactly(self):
        # Each count rounds as a float, and the rounded pair sums to n - 2.
        n = 18_014_398_445_206_346
        counts = np.array([[9_007_199_178_507_249, 9_007_199_266_699_097]] * 3)
        assert float(counts[0, 0]) + float(counts[0, 1]) != n
        assert measure._count_tables(counts, n, (3, 2))[1] == n
        with pytest.raises(ValueError, match=f"^every table must hold shots = {n} whole counts$"):
            measure._count_tables(counts.astype(float), n, (3, 2))

    def test_integer_counts_above_the_shots_are_refused_though_their_sum_wraps(self):
        # The int64 sum 2 (2**63 - 1) + 4 wraps to 2, the shots.
        counts = np.array([[1, 1, 0, 0]] * 8 + [[2**63 - 1, 2**63 - 1, 1, 3]], dtype=np.int64)
        assert counts.sum(axis=-1).tolist() == [2] * 9
        with pytest.raises(ValueError, match="^every table must hold shots = 2 whole counts$"):
            measure._count_tables(counts, 2, (9, 4), 0)

    @pytest.mark.parametrize("shots, rule", [
        (0, "a positive integer, got 0"), (2.0, "an integer, got 2.0"), (True, "an integer, got True"),
        (10**19, r"at most 10\*\*18, got 10000000000000000000"),
    ])
    def test_refuses_shots_that_are_no_count(self, shots, rule):
        with pytest.raises(ValueError, match=f"^shots must be {rule}$"):
            measure._count_tables(AXIS_TABLES, shots, (3, 2))


class TestPoissonResample:
    def test_zero_counts_stay_zero(self):
        out = poisson_resample(np.zeros(4, dtype=int), 3, seed=5)
        assert out.shape == (3, 4)
        assert not out.any()

    def test_fixed_seed_repeats(self):
        counts = np.array([1000, 500, 250, 250])
        assert np.array_equal(poisson_resample(counts, 20, 7), poisson_resample(counts, 20, 7))
        assert not np.array_equal(poisson_resample(counts, 20, 7), poisson_resample(counts, 20, 8))

    def test_mean_and_variance_identity(self):
        draws = poisson_resample(np.array([4000, 0]), 10_000, derive_seed(11, "pr"))[:, 0]
        se_mean = np.sqrt(4000 / 10_000)
        assert abs(draws.mean() - 4000) < 3 * se_mean
        assert abs(draws.var() - 4000) / 4000 < 0.08  # chi^2 spread at 4 sigma-ish

    def test_one_draw_stacks_resamples(self):
        counts = np.array([[10, 20, 30, 40], [5, 0, 5, 0]])
        out = poisson_resample(counts, 6, seed=1)
        assert out.shape == (6, 2, 4)
        assert np.array_equal(out, generator(1).poisson(counts, size=(6, 2, 4)))
        assert not out[:, 1, [1, 3]].any()

    # 2**63 - 1 used to end in numpy's "lam value too large", -1 in "lam < 0
    # or lam contains NaNs", NaN in "lam value too large", and 1.5 was drawn
    # from.  10**18 + 1 is checked as given: as a float it would read 10**18.
    @pytest.mark.parametrize("bad, shown", [
        ([10**18 + 1, 0], "1000000000000000001"),
        ([2**63 - 1, 0], "9223372036854775807"),
        ([1e19, 0], "1e\\+19"),
        ([-1, 2], "-1"),
        ([np.nan, 1], "nan"),
        ([1.5, 0], "1.5"),
        ([0, np.inf], "inf"),
    ])
    def test_faulty_count_is_named_before_any_draw(self, bad, shown, monkeypatch):
        monkeypatch.setattr(measure, "generator", lambda seed: pytest.fail("drew before checking the counts"))
        message = rf"^count {shown} is not a whole number in \[0, 1000000000000000000\]$"
        with pytest.raises(ValueError, match=message):
            poisson_resample(np.array([[3, 4], bad]), 2, 1)
        with pytest.raises(ValueError, match=message):
            poisson_resample(bad, 2, 1)

    # -1 used to end in numpy's "negative dimensions are not allowed", 1.5 in a
    # TypeError, and 0 gave an empty draw.
    @pytest.mark.parametrize("resamples, rule", [
        (-1, "a positive integer"), (0, "a positive integer"), (10**18 + 1, r"at most 10\*\*18"),
        (1.5, "an integer"), (2.0, "an integer"), (True, "an integer"), ("2", "an integer"), (None, "an integer"),
    ])
    def test_rejects_a_bad_resample_count(self, resamples, rule, monkeypatch):
        monkeypatch.setattr(measure, "generator", lambda seed: pytest.fail("drew before checking resamples"))
        with pytest.raises(ValueError, match=rf"^resamples must be {rule}, got {re.escape(repr(resamples))}$"):
            poisson_resample(np.array([3, 4]), resamples, 1)

    def test_integer_and_float_counts_draw_alike(self):
        counts = np.array([[4000, 0, 17, 10**18], [1, 2, 3, 4]])
        draws = poisson_resample(counts, 5, 3)
        assert np.array_equal(draws, poisson_resample(counts.astype(float), 5, 3))

    def test_takes_a_numpy_integer_resample_count(self):
        counts = np.array([3, 4])
        assert np.array_equal(poisson_resample(counts, np.int64(2), 1), poisson_resample(counts, 2, 1))

    @pytest.mark.parametrize("counts", [np.array([10**18, 0]), [10**18, 0], np.array([1e18, 0.0])],
                             ids=["int64", "list", "float"])
    def test_draws_the_largest_count(self, counts):
        out = poisson_resample(counts, 2, 1)
        assert out.shape == (2, 2) and not out[:, 1].any()


HEADER = "setting,outcome,count,shots,seed\n"
CAP = measure.MAX_SHOTS


def assert_obeys_every_rule(tables):
    """Each table is a record of Python values that plain text can hold, its
    counts nonnegative and summing to at most `MAX_SHOTS` shots; no two share
    (setting, shots, seed), and the tables' text reads back as them."""
    for table in tables:
        setting, counts, shots, seed = table
        assert type(table) is CountsTable and type(setting) is str and not set(setting) & set(',\n\r"\0')
        assert type(counts) is tuple and len(counts) in (2, 4) and all(type(c) is int and c >= 0 for c in counts)
        assert type(shots) is int and sum(counts) == shots <= CAP and type(seed) is int
    assert len({(t.setting, t.shots, t.seed) for t in tables}) == len(tables)
    assert tables_from_csv(tables_csv(tables)) == tables


plain_settings = st.one_of(st.sampled_from(PAIRS + AXES),
                           st.text(st.characters(blacklist_characters=',\n\r"\0'), max_size=4))
written_tables = st.lists(
    st.tuples(plain_settings,
              st.one_of(st.lists(st.integers(0, 2 * 10**17), min_size=n, max_size=n) for n in (2, 4)),
              st.integers(-2**70, 2**70)),
    max_size=6, unique_by=lambda t: (t[0], sum(t[1]), t[2]),
).map(lambda tables: [(setting, tuple(counts), sum(counts), seed) for setting, counts, seed in tables])


# Characters of any text: the format's own, a quote, CR, LF and NUL, and the
# line breaks of `str.splitlines` beyond those, which a setting may hold, and
# an integer cell too where `int` strips them (\x0b, \x0c, \x85, \u2028, \u2029).
TEXT_ALPHABET = ',+-0179XZ "\r\n\0\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029'


@st.composite
def edited_count_text(draw):
    """The text of a few tables with up to three edits: a character put in,
    a line dropped or repeated, a cell swapped for another."""
    lines = tables_csv(draw(written_tables)).split("\n")
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["char", "drop", "repeat", "cell"]))
        if edit == "char":
            j = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:j] + draw(st.sampled_from(list(',+-09 x"\r\0\n\x0b\u2028'))) + lines[i][j:]
        elif edit == "drop":
            del lines[i]
        elif edit == "repeat":
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        else:
            cells = lines[i].split(",")
            cells[draw(st.integers(0, len(cells) - 1))] = draw(st.sampled_from(
                ["", "+", "--", "0", "07", "-1", "x", "1.0", str(CAP), str(CAP + 1)]))
            lines[i] = ",".join(cells)
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines)


# Fixed texts and what `tables_from_csv` makes of them: tables, or the
# message of its ValueError.
READS = [
    (HEADER, []),
    (HEADER.strip(), []),
    (HEADER + "\n\n", []),
    (HEADER + "Z,+,7,10,43\nZ,-,3,10,43", [("Z", (7, 3), 10, 43)]),
    (HEADER + "\nZ,+,7,10,43\n\n\nZ,-,3,10,43\n\n", [("Z", (7, 3), 10, 43)]),
    ((HEADER + "XX,++,1,4,0\nXX,+-,1,4,0\nXX,-+,0,4,0\nXX,--,2,4,0\nZ,+,7,10,43\nZ,-,3,10,43\n")
     .replace("\n", "\r\n"), [("XX", (1, 1, 0, 2), 4, 0), ("Z", (7, 3), 10, 43)]),
    # 7 and 07 name one table; a row of a later table comes between.
    (HEADER + "Z,+,3,07,9\nX,+,1,1,9\nZ,-,4,7,0_9\nX,-,0,1,9\n", [("Z", (3, 4), 7, 9), ("X", (1, 0), 1, 9)]),
    # Integer cells as `int` reads them: signs, spaces and underscores.
    (HEADER + "Z,-, 3 ,+4,-0_2\nZ,+,1,4,-2\n", [("Z", (1, 3), 4, -2)]),
    (HEADER + "XX,--,4,10,1\nXX,-+,3,10,1\nXX,+-,2,10,1\nXX,++,1,10,1\n", [("XX", (1, 2, 3, 4), 10, 1)]),
    # A setting is any text without a comma, newline, quote, carriage return or NUL.
    (HEADER + ",+,1,1,0\n,-,0,1,0\n a\x0bé ,+,0,1,0\n a\x0bé ,-,1,1,0\n",
     [("", (1, 0), 1, 0), (" a\x0bé ", (0, 1), 1, 0)]),
    # Past the csv module's field-size limit, which the format no longer has.
    (HEADER + f"{'Z' * 2**17},+,1,1,0\n{'Z' * 2**17},-,0,1,0\n", [("Z" * 2**17, (1, 0), 1, 0)]),
]

REFUSALS = [
    ("", "expected header setting,outcome,count,shots,seed"),
    ("a,b,c\n", "expected header setting,outcome,count,shots,seed"),
    (HEADER.strip() + ",\n", "expected header setting,outcome,count,shots,seed"),
    ("\n" + HEADER + "Z,+,7,10,43\nZ,-,3,10,43\n", "expected header setting,outcome,count,shots,seed"),
    (HEADER + "Z,+,7\n", "CSV line 2: expected 5 fields, got ['Z', '+', '7']"),
    (HEADER + "Z,+,7,10,43,\n", "CSV line 2: expected 5 fields, got ['Z', '+', '7', '10', '43', '']"),
    (HEADER + "Z,+,7,10,43\nZ,-,3,10,43\n \n", "CSV line 4: expected 5 fields, got [' ']"),
    (HEADER + "Z,+,7,10,43\nZ,0,3,10,43\n", "CSV line 3: unknown outcome label '0'"),
    (HEADER + "Z,+,x,4,0\nZ,-,1,4,0\n", "CSV line 2: count, shots and seed must be integers, got 'x', '4', '0'"),
    (HEADER + "Z,+,7.0,10,1\nZ,-,1,4,0\n",
     "CSV line 2: count, shots and seed must be integers, got '7.0', '10', '1'"),
    (HEADER + "Z,+,3,4,s\nZ,-,1,4,0\n", "CSV line 2: count, shots and seed must be integers, got '3', '4', 's'"),
    *((HEADER + f"Z,{label},1,1,1\n", f"CSV line 2: unknown outcome label {label!r}")
      for label in ["+-+", "", " +", "+ ", "--+"]),
    # Cells that are no integer as `int` reads them.
    *((HEADER + f"Z,+,{count},{shots},{seed}\nZ,-,0,1,1\n",
       f"CSV line 2: count, shots and seed must be integers, got {count!r}, {shots!r}, {seed!r}")
      for count, shots, seed in [("1e3", "1", "1"), ("1", "0x10", "1"), ("1", "1", ""), ("1", "True", "1"),
                                 ("1", "1", "3.0")]),
    *((HEADER + f"Z,+,{shots},{shots},7\nZ,-,0,{shots},7\n",
       f"table for setting 'Z', shots {shots}, seed 7: shots must be at most 10**18, got {shots}")
      for shots in [10**19, 2**63, 2**64]),
    # A repeated outcome names the cells as written.
    (HEADER + "Z,+,7,10,43\nZ,-,3,10,43\nZ,+,9,010,43\n",
     "CSV line 4: repeated outcome '+' for setting 'Z', shots '010', seed '43'"),
    (HEADER + "XX,++,7,10,43\nXX,+-,3,10,43\nXX,-+,0,10,43\n",
     "table for setting 'XX', shots 10, seed 43 has outcomes ['++', '+-', '-+'], expected +, -"),
    (HEADER + "Z,+,1,1,1\nZ,-,0,1,1\nZ,++,0,1,1\n",
     "table for setting 'Z', shots 1, seed 1 has outcomes ['+', '++', '-'], expected +, -"),
    (HEADER + "Z,+,1,1,1\nZ,-,0,1,1\nZ,++,0,1,1\nZ,+-,0,1,1\n",
     "table for setting 'Z', shots 1, seed 1 has outcomes ['+', '++', '+-', '-'], expected ++, +-, -+, --"),
    (HEADER + "Z,+,3,5,9\nZ,-,1,5,9\n", "table for setting 'Z', shots 5, seed 9: counts sum 4 != shots 5"),
    (HEADER + "Z,+,-3,1,9\nZ,-,4,1,9\n", "table for setting 'Z', shots 1, seed 9: counts must be nonnegative"),
    # Cells that hold a line break of `str.splitlines` are quoted, so each error is one line.
    (HEADER + "Z\x0b,+,3,5,9\nZ\x0b,-,1,5,9\n", "table for setting 'Z\\x0b', shots 5, seed 9: counts sum 4 != shots 5"),
    (HEADER + "Z,+,7,10,43\nZ,-,3,10,43\nZ\u2028,+,1,1,1\nZ,+,9,10\x85,\u202943\n",
     "CSV line 5: repeated outcome '+' for setting 'Z', shots '10\\x85', seed '\\u202943'"),
    (HEADER + f"Z,+,{CAP + 1},{CAP + 1},7\nZ,-,0,{CAP + 1},7\n",
     f"table for setting 'Z', shots {CAP + 1}, seed 7: shots must be at most 10**18, got {CAP + 1}"),
    # A quote, a lone carriage return or a NUL is no plain text, the header's included.
    ('"setting","outcome","count","shots","seed"\n"Z","+","7","10","43"\n"Z","-","3","10","43"\n',
     "CSV line 1: count tables hold no quote, carriage return or NUL, got '\"'"),
    ("setting\r,outcome,count,shots,seed\nZ,+,1,1,1\n",
     "CSV line 1: count tables hold no quote, carriage return or NUL, got '\\r'"),
    (HEADER + '"Y",+,1,1,1\n"Y",-,0,1,1\n',
     "CSV line 2: count tables hold no quote, carriage return or NUL, got '\"'"),
    (HEADER + '"a\nb",+,1,1,1\n', "CSV line 2: count tables hold no quote, carriage return or NUL, got '\"'"),
    (HEADER + "Z,+,7,10,43\r\r\nZ,-,3,10,43\r\n",
     "CSV line 2: count tables hold no quote, carriage return or NUL, got '\\r'"),
    (HEADER + "Z,+,7,10,43\nZ,-,3,10,43\r",
     "CSV line 3: count tables hold no quote, carriage return or NUL, got '\\r'"),
    (HEADER + "Z\0,+,7,10,43\nZ\0,-,3,10,43\n",
     "CSV line 2: count tables hold no quote, carriage return or NUL, got '\\x00'"),
    # Line numbers count blank lines and CRLF lines.
    ("setting,outcome,count,shots,seed\r\nZ,+,1,1,1\r\n\r\nZ,0,1,1,1\r\n", "CSV line 4: unknown outcome label '0'"),
    # The first faulty line wins, and a line's field count comes before
    # its label, its label before its integers, its integers before a
    # repeat.
    (HEADER + "Z,+,1,1,1\nZ,0,0,1,1\nZ,+,1,1\n", "CSV line 3: unknown outcome label '0'"),
    (HEADER + "Z,+,1\nZ,0,0,1,1\n", "CSV line 2: expected 5 fields, got ['Z', '+', '1']"),
    (HEADER + "Z,0,x,1\n", "CSV line 2: expected 5 fields, got ['Z', '0', 'x', '1']"),
    (HEADER + "Z,0,x,1,1\n", "CSV line 2: unknown outcome label '0'"),
    (HEADER + "Z,+,1,1,1\nZ,+,x,1,1\n", "CSV line 3: count, shots and seed must be integers, got 'x', '1', '1'"),
    (HEADER + "Z,+,1,1,1\nZ,+,1,1,\"1\"\n",
     "CSV line 3: count tables hold no quote, carriage return or NUL, got '\"'"),
    # A line fault wins over a table fault before it.
    (HEADER + "Z,+,-3,1,9\nZ,-,4,1,9\nY,+,1,1,1\nY,-,0,1,1\nZ\n", "CSV line 6: expected 5 fields, got ['Z']"),
    (HEADER + "Z,+,3,5,9\nZ,-,1,5,9\n\nY,+,1,1,1\rY,-,0,1,1\n",
     "CSV line 5: count tables hold no quote, carriage return or NUL, got '\\r'"),
    # Else the first table to appear that faults, and a table's outcome
    # set comes before its negative counts, those before its cap, its cap
    # before its sum.
    (HEADER + "Y,+,3,5,9\nZ,+,-1,1,9\nY,-,1,5,9\nZ,-,2,1,9\n",
     "table for setting 'Y', shots 5, seed 9: counts sum 4 != shots 5"),
    (HEADER + "Y,+,1,1,9\nZ,+,-1,1,9\nY,-,0,1,9\nZ,-,2,1,9\nX,+,1,1,9\n",
     "table for setting 'Z', shots 1, seed 9: counts must be nonnegative"),
    (HEADER + "Z,+,-1,1,9\nZ,++,2,1,9\n",
     "table for setting 'Z', shots 1, seed 9 has outcomes ['+', '++'], expected +, -"),
    (HEADER + "Z,+,-3,1,9\nZ,-,3,1,9\n", "table for setting 'Z', shots 1, seed 9: counts must be nonnegative"),
    (HEADER + f"Z,+,-1,{CAP + 1},7\nZ,-,{CAP + 2},{CAP + 1},7\n",
     f"table for setting 'Z', shots {CAP + 1}, seed 7: counts must be nonnegative"),
    (HEADER + f"Z,+,1,{CAP + 1},7\nZ,-,0,{CAP + 1},7\n",
     f"table for setting 'Z', shots {CAP + 1}, seed 7: shots must be at most 10**18, got {CAP + 1}"),
    (HEADER + f"Z,+,{CAP},{CAP},7\nZ,-,0,{CAP},7\nY,+,1,2,7\nY,-,0,2,7\n",
     "table for setting 'Y', shots 2, seed 7: counts sum 1 != shots 2"),
]


class TestCountTableReader:
    """`tables_from_csv`, the one reader of count tables: plain text with LF
    or CRLF line ends, one row per outcome."""

    def test_reads_tables_of_python_values(self):
        tables = [("XX", (10, 20, 30, 40), 100, 42), ("Z", (7, 3), 10, 2**70), ("Y", (0, 0), 0, -1)]
        read = tables_from_csv(tables_csv(tables))
        assert read == tables
        assert_obeys_every_rule(read)

    def test_a_table_is_the_tuple_of_its_fields(self):
        (table,) = tables_from_csv(tables_csv([("Z", (1, 2), 3, 0)]))
        setting, counts, shots, seed = table
        assert (setting, counts, shots, seed) == ("Z", (1, 2), 3, 0) == table
        assert table._fields == ("setting", "counts", "shots", "seed")
        assert len(table) == 4 and table[1] is table.counts and not hasattr(table, "__dict__")
        with pytest.raises(AttributeError):
            table.shots = 4

    @pytest.mark.parametrize("text, tables", READS)
    def test_reads(self, text, tables):
        assert tables_from_csv(text) == tables

    def test_a_table_at_the_cap_reads_and_bootstraps(self):
        (table,) = tables_from_csv(tables_csv([("Z", (CAP, 0), CAP, 7)]))
        assert table == ("Z", (CAP, 0), CAP, 7)
        (point,), (std,) = bootstrap_std(lambda c: c[:, 0] / CAP, [table.counts], 2, resamples=3)
        assert point == 1.0 and 0.0 < std < 1e-8

    @pytest.mark.parametrize("text, message", REFUSALS)
    def test_refuses(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            tables_from_csv(text)

    @pytest.mark.parametrize("text, want", [(text, want) for text, want in READS + REFUSALS if "\r" not in text])
    def test_crlf_line_ends_read_as_lf(self, text, want):
        # The same tables or the same error, line numbers included.
        try:
            got = tables_from_csv(text.replace("\n", "\r\n"))
        except ValueError as err:
            got = str(err)
        assert got == want

    @pytest.mark.parametrize("text, name", [(None, "NoneType"), (b"setting,outcome,count,shots,seed\n", "bytes"),
                                            (5, "int")])
    def test_refuses_what_is_not_text(self, text, name):
        # None used to read as empty text and bytes failed inside io.StringIO.
        with pytest.raises(TypeError, match=f"^CSV text must be a str, got {name}$"):
            tables_from_csv(text)

    @settings(max_examples=200, deadline=None)
    @given(written_tables, st.sampled_from(["\n", "\r\n"]), st.data())
    def test_written_tables_read_back(self, tables, end, data):
        # Rows shuffled, blank lines put in: the tables come back in order of
        # their first row.
        rows = [(i, row) for i, table in enumerate(tables) for row in tables_csv([table], end).split(end)[1:-1]]
        rows = data.draw(st.permutations(rows))
        for _ in range(data.draw(st.integers(0, 2))):
            rows.insert(data.draw(st.integers(0, len(rows))), (None, ""))
        text = end.join([HEADER.strip(), *(row for _, row in rows)]) + data.draw(st.sampled_from([end, ""]))
        read = tables_from_csv(text)
        assert read == [tables[i] for i in dict.fromkeys(i for i, _ in rows if i is not None)]
        assert_obeys_every_rule(read)

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.lists(st.integers(0, 2**62 - 1), min_size=1, max_size=40, unique=True))
    def test_tomography_tables_read_back(self, data, tags):
        # Each qubit's X, Y and Z tables, told apart by their seed column, as
        # the tomo-batch workload writes them.
        tables = []
        for tag in tags:
            shots = data.draw(st.sampled_from([1000, 4000, 10000]))
            for axis in AXES:
                plus = data.draw(st.integers(0, shots))
                tables.append((axis, (plus, shots - plus), shots, tag))
        assert tables_from_csv(tables_csv(tables)) == tables

    @settings(max_examples=400, deadline=None)
    @given(st.one_of(edited_count_text(), st.text(alphabet=TEXT_ALPHABET, max_size=60),
                     st.text(alphabet=TEXT_ALPHABET, max_size=60).map(HEADER.__add__)))
    def test_any_text_gives_tables_that_obey_every_rule_or_one_line_error(self, text):
        try:
            tables = tables_from_csv(text)
        except ValueError as err:
            message = str(err)
            assert len(message.splitlines()) == 1, message
            found = re.match(r"CSV line (\d+): |expected header |table for setting ", message)
            assert found, message
            assert found[1] is None or 1 <= int(found[1]) <= len(text.replace("\r\n", "\n").split("\n"))
        else:
            assert_obeys_every_rule(tables)


class TestSeeds:
    def test_derive_seed_is_stable(self):
        # Frozen reference values: a change here breaks reproducibility of
        # every archived report (last changed with report schema 3).
        assert derive_seed(0) == 5848749732231079340
        assert derive_seed(20404, "fig3.qsv", 1) == 11453392785773279544

    @pytest.mark.parametrize("left, right", [
        ((1, "a/b"), (1, "a", "b")),
        ((1, "ab", "c"), (1, "a", "bc")),
        ((12, 3), (1, 23)),
        ((1, ""), (1,)),
    ])
    def test_derive_seed_is_injective(self, left, right):
        assert derive_seed(*left) != derive_seed(*right)

    @pytest.mark.parametrize("left, right", [((1, 4), (1, "4")), ((1, (2, 3)), (1, "(2, 3)"))])
    def test_tags_of_one_text_share_a_stream(self, left, right):
        # Tags are hashed by their `str` text: distinct texts, not distinct
        # tag tuples, give distinct streams.
        assert derive_seed(*left) == derive_seed(*right)

    @pytest.mark.parametrize("master", [1.5, 1.0, True, "7", None, np.float64(3.0)])
    def test_derive_seed_refuses_a_master_seed_that_is_no_integer(self, master):
        with pytest.raises(ValueError, match=r"^master seed must be an integer, got "):
            derive_seed(master, "a")

    @pytest.mark.parametrize("master", [-1, np.int64(-7), np.uint64(2**64 - 1), 2**80])
    def test_derive_seed_takes_an_integer_of_any_sign_and_size(self, master):
        assert derive_seed(master, "a") == derive_seed(int(master), "a")

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(st.integers(), st.integers(-2**100, 2**100),
                     st.sampled_from([-1, np.int64(-7), np.uint64(2**64 - 1), 2**80])),
           st.lists(st.one_of(st.text(max_size=4), st.integers()), max_size=6))
    def test_derive_seed_hashes_as_the_reference(self, master, parts):
        assert derive_seed(master, *parts) == reference_derive_seed(master, *parts)

    @pytest.mark.skipif(not INT_DIGITS, reason="this Python writes an integer of any length")
    @pytest.mark.parametrize("master", [10**5000, -10**5000, 10**INT_DIGITS, -10**INT_DIGITS],
                             ids=["10**5000", "-10**5000", "10**limit", "-10**limit"])
    def test_derive_seed_refuses_a_master_seed_too_long_to_write(self, master):
        # Such a seed used to fail in `str` with Python's own error, which
        # names no seed; the refusal cannot show the value, whose repr raises.
        with pytest.raises(ValueError, match=rf"^master seed must be an integer of at most {INT_DIGITS} digits$"):
            derive_seed(master, "x")

    @pytest.mark.skipif(not INT_DIGITS, reason="this Python writes an integer of any length")
    def test_derive_seed_takes_the_longest_master_seed_python_writes(self):
        for master in (10**INT_DIGITS - 1, -(10**INT_DIGITS - 1), 2 ** (3 * INT_DIGITS)):
            assert derive_seed(master, "x", 1) == reference_derive_seed(master, "x", 1)

    def test_generator_streams_independent(self):
        a = generator(derive_seed(1, "x")).random(4)
        b = generator(derive_seed(1, "y")).random(4)
        assert not np.allclose(a, b)

    def test_exact_correlations_of_bell(self):
        t = correlators(pair_probs(density(BELL_PHI))).reshape(3, 3)
        assert np.abs(t - np.diag([1.0, -1.0, 1.0])).max() < 1e-12


SEED_EDGES = (0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1)
seeds = st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**64 - 1))


class TestSeedRange:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_ends_are_accepted(self, seed):
        assert np.array_equal(sample_counts([0.5, 0.5], 10, seed), generator(int(seed)).multinomial(10, [0.5, 0.5]))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_neighbours_outside_are_refused(self, seed):
        message = rf"^seed must be an integer in \[0, 2\*\*64\), got {seed}$"
        with pytest.raises(ValueError, match=message):
            generator(seed)
        with pytest.raises(ValueError, match=message):
            sample_counts([0.5, 0.5], 10, seed)

    @pytest.mark.parametrize("seed", [1.0, True, "3", None, np.float64(2.0)])
    def test_non_integers_are_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            generator(seed)


# numpy promises each bit generator's stream across versions, not those of
# its samplers (NEP 19).  These draws, at Philox keys 7 and 2**64 - 1, were
# made with numpy 2.4; a numpy whose sampler moved fails here under the
# sampler's name, not only as moved golden reports.  Each sampler's
# parameters reach both of its algorithms: binomial's BTPE (n min(p, 1 - p)
# >= 30) and inversion, and Poisson's PTRS (mean >= 10) and multiplication.
SAMPLER_DRAWS = {
    "binomial": (lambda rng: [*rng.binomial(5000, 0.99, size=3), *rng.binomial(20, 0.3, size=3)],
                 {7: [4944, 4955, 4949, 2, 8, 8], 2**64 - 1: [4952, 4948, 4950, 6, 5, 3]}),
    "multinomial": (lambda rng: [*rng.multinomial(4000, [0.4, 0.3, 0.2, 0.1]), *rng.multinomial(10, [0.5, 0.5])],
                    {7: [1617, 1201, 807, 375, 4, 6], 2**64 - 1: [1574, 1205, 823, 398, 5, 5]}),
    "poisson": (lambda rng: rng.poisson([3.0, 2000.0], size=(2, 2)).ravel().tolist(),
                {7: [3, 1924, 2, 2040], 2**64 - 1: [3, 1980, 2, 1918]}),
}


@pytest.mark.parametrize("sampler", SAMPLER_DRAWS)
@pytest.mark.parametrize("key", [7, 2**64 - 1])
def test_sampler_streams_are_pinned(sampler, key):
    draw, pinned = SAMPLER_DRAWS[sampler]
    assert [int(x) for x in draw(generator(key))] == pinned[key]


class TestOneGenerator:
    """Each seeded call draws its whole table from `generator(seed)` in one
    numpy call, which gives what a loop over its rows in C order, drawing
    each from that one generator, gives."""

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([(), (1,), (5,), (2, 3), (0,)]), st.sampled_from([2, 4]),
           st.integers(1, 5000), seeds)
    def test_sample_counts_is_a_row_loop(self, data, shape, k, shots, seed):
        probs = np.random.default_rng(data.draw(st.integers(0, 2**32))).dirichlet(np.ones(k), size=shape)
        table = sample_counts(probs, shots, seed)
        assert table.shape == probs.shape and table.dtype == np.int64
        rng = generator(seed)
        for index in np.ndindex(*shape):
            assert np.array_equal(table[index], rng.multinomial(shots, probs[index] / probs[index].sum()))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([(), (4,), (2, 2), (0,)]), st.integers(1, 50), seeds)
    def test_poisson_resample_is_a_loop_over_the_redraws(self, data, shape, resamples, seed):
        counts = np.random.default_rng(data.draw(st.integers(0, 2**32))).integers(0, 5000, size=(*shape, 3, 2))
        out = poisson_resample(counts, resamples, seed)
        assert out.shape == (resamples, *shape, 3, 2) and out.dtype == np.int64
        rng = generator(seed)
        for redraw in out:
            assert np.array_equal(redraw, rng.poisson(counts.astype(float)))

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0.0, 1.0), max_size=6), st.sampled_from([1, 3000, 10**18]), seeds)
    def test_qsv_run_is_a_row_loop(self, fids, n_tests, seed):
        passes = qsv_run(fids, n_tests, seed)
        assert all(type(passed) is int for passed in passes)
        rng = generator(seed)
        assert passes == [int(rng.binomial(n_tests, (1 + 2 * f) / 3)) for f in fids]

    @pytest.mark.parametrize("row, probs, match", [
        (2, [0.5, 0.6], "probabilities sum to 1.1"),
        (1, [1.5, -0.5], "negative probability"),
        (0, [np.nan, 1.0], "probabilities sum to nan"),
    ])
    def test_bad_row_is_named(self, row, probs, match):
        table = np.full((3, 2), 0.5)
        table[row] = probs
        with pytest.raises(ValueError, match=f"^row {row}: {match}"):
            sample_counts(table, 10, 1)

    def test_bad_row_of_a_deeper_table_is_named(self):
        table = np.full((2, 3, 4), 0.25)
        table[1, 2] = [0.5, 0.5, 0.5, -0.5]
        with pytest.raises(ValueError, match=r"^row \(1, 2\): negative probability"):
            sample_counts(table, 10, 1)

    def test_single_row_errors_keep_their_text(self):
        with pytest.raises(ValueError, match="^probabilities sum to"):
            sample_counts([0.5, 0.6], 10, 0)
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got -1$"):
            sample_counts([0.5, 0.5], 10, -1)

    # One seed per call: an array of seeds, one per row, is refused as no seed.
    @pytest.mark.parametrize("draw", [
        lambda seed: sample_counts(np.full((2, 2), 0.5), 10, seed),
        lambda seed: poisson_resample(np.ones((2, 4)), 2, seed),
        lambda seed: qsv_run([0.25, 0.25], 10, seed),
        lambda seed: bootstrap_std(purity_from_counts, np.full((2, 3, 2), 5), seed, resamples=10),
    ], ids=["sample_counts", "poisson_resample", "qsv_run", "bootstrap_std"])
    def test_one_seed_per_call(self, draw):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got \[1, 2\]$"):
            draw([1, 2])

    def test_a_faulty_table_is_named_before_a_faulty_seed(self):
        with pytest.raises(ValueError, match=r"^row 1: probabilities sum to"):
            sample_counts([[0.5, 0.5], [0.5, 0.6]], 10, -1)
        with pytest.raises(ValueError, match=r"^count -1 is not a whole number"):
            poisson_resample([[1, 2], [-1, 2]], 2, 2**64)
        with pytest.raises(ValueError, match=r"^row 0: fidelity must be"):
            qsv_run([2.0, 0.5], 10, -1)

    def test_empty_tables_draw_nothing(self):
        assert poisson_resample(np.zeros((0, 3, 2)), 5, 1).shape == (5, 0, 3, 2)
        assert poisson_resample(np.zeros((2, 0)), 3, 1).shape == (3, 2, 0)
        assert sample_counts(np.zeros((0, 4)), 5, 1).shape == (0, 4)
        assert qsv_run([], 5, 1) == []
