import copy
import csv
import io
import pickle
import re
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from realmask import measure
from realmask.estimate import bootstrap_std, correlation_matrix, purity_from_counts, qsv_run
from realmask.measure import (
    AXES,
    CSV_HEADER,
    OUTCOMES_PAIR,
    OUTCOMES_SINGLE,
    PAIR_PAULIS,
    PAIRS,
    CountsTable,
    _clean_tables,
    _read_records,
    apply_depolarizing,
    axis_probs,
    correlators,
    derive_seed,
    derive_seeds,
    generator,
    generators,
    pair_probs,
    poisson_resample,
    sample_counts,
    tables_from_csv,
    tables_to_csv,
)
from realmask.qcore import BELL_PHI, PAULIS, checked_density, partial_trace

from helpers import INT_DIGITS, density, mask_state, random_density, random_real_density, reference_derive_seed


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

    def test_invalid_axis_rejected(self):
        # Settings are named by the PAIRS labels only; a table with any other
        # label is refused where labelled counts are read.
        tables = [CountsTable(label, (1, 0, 0, 0), 1, 0) for label in PAIRS[:-1]]
        with pytest.raises(ValueError, match="'XW'"):
            correlation_matrix(tables + [CountsTable("XW", (1, 0, 0, 0), 1, 0)])

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

    @pytest.mark.parametrize("shots", [2.5, 2.0, True, "3", None])
    def test_rejects_non_integer_shots(self, shots):
        # 2.5 used to draw 2 shots and True one.
        with pytest.raises(ValueError, match="shots must be an integer"):
            sample_counts([0.5, 0.5], shots, 0)

    @pytest.mark.parametrize("shots", [2**63, 10**19, np.uint64(2**63)])
    def test_rejects_shots_it_cannot_draw(self, shots):
        # 2**63 used to end in an OverflowError from the multinomial draw.
        with pytest.raises(ValueError, match=r"^shots must be an integer in \[1, 2\*\*63 - 1\], got "):
            sample_counts([0.5, 0.5], shots, 0)

    def test_draws_the_largest_shot_count(self):
        counts = sample_counts([0.5, 0.5], 2**63 - 1, 0)
        assert counts.sum() == 2**63 - 1 and counts.dtype == np.int64

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

    @pytest.mark.parametrize("p", [True, False, np.True_])
    def test_a_bool_is_refused(self, p):
        with pytest.raises(ValueError, match=r"^p must be a number in \[0, 1\], got "):
            apply_depolarizing(np.eye(4) / 4, p)

    def test_a_numpy_float_enters_as_its_python_float(self, rng):
        # np.float32 arithmetic would leave the trace off 1 by ~1e-8.
        rho = random_density(4, rng)
        p = np.float32(0.01)
        assert np.array_equal(apply_depolarizing(rho, p), apply_depolarizing(rho, float(p)))


def no_draw(message: str):
    """A stand-in for `measure.generators` that fails when its first
    generator is taken, as a draw would, not when it is called."""
    yield pytest.fail(message)


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
    # or lam contains NaNs", NaN in "lam value too large", and 1.5 was drawn from.
    @pytest.mark.parametrize("bad, shown", [
        ([2**63 - 1, 0], "9223372036854775807"),
        ([-1, 2], "-1"),
        ([np.nan, 1], "nan"),
        ([1.5, 0], "1.5"),
        ([0, np.inf], "inf"),
    ])
    def test_faulty_count_is_named_before_any_draw(self, bad, shown, monkeypatch):
        monkeypatch.setattr(measure, "generators", lambda seeds, rows: no_draw("drew before checking the counts"))
        message = rf"count {shown} is not a whole number in \[0, 9223372006484770816\]$"
        with pytest.raises(ValueError, match="^row 1: " + message):
            poisson_resample(np.array([[3, 4], bad]), 2, [1, 2])
        with pytest.raises(ValueError, match="^" + message):
            poisson_resample(bad, 2, 1)

    # -1 used to end in numpy's "negative dimensions are not allowed", 1.5 in a
    # TypeError, and 0 gave an empty draw.
    @pytest.mark.parametrize("resamples", [-1, 0, 1.5, 2.0, True, "2", None])
    def test_rejects_a_bad_resample_count(self, resamples, monkeypatch):
        monkeypatch.setattr(measure, "generators", lambda seeds, rows: no_draw("drew before checking resamples"))
        with pytest.raises(ValueError, match=rf"^resamples must be an integer >= 1, got {re.escape(repr(resamples))}$"):
            poisson_resample(np.array([3, 4]), resamples, 1)

    def test_integer_and_float_counts_draw_alike(self):
        counts = np.array([[4000, 0, 17, 9223372006484770816], [1, 2, 3, 4]])
        draws = poisson_resample(counts, 5, [3, 4])
        assert np.array_equal(draws, poisson_resample(counts.astype(float), 5, [3, 4]))

    def test_takes_a_numpy_integer_resample_count(self):
        counts = np.array([3, 4])
        assert np.array_equal(poisson_resample(counts, np.int64(2), 1), poisson_resample(counts, 2, 1))

    def test_draws_the_largest_mean_numpy_takes(self):
        out = poisson_resample(np.array([9223372006484770816, 0]), 2, 1)
        assert out.shape == (2, 2) and not out[:, 1].any()


# Every way to copy a table: `copy` and a pickle round trip at each protocol.
CLONES = [copy.copy, copy.deepcopy,
          *(lambda t, p=p: pickle.loads(pickle.dumps(t, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1))]


class TestCountsTable:
    def test_sum_invariant_enforced(self):
        with pytest.raises(ValueError):
            CountsTable("ZZ", (1, 2, 3, 4), 11, 0)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            CountsTable("ZZ", (-1, 2, 3, 4), 8, 0)

    def test_csv_round_trip(self):
        tables = [
            CountsTable("XX", (10, 20, 30, 40), 100, 42),
            CountsTable("Z", (7, 3), 10, 43),
        ]
        text = tables_to_csv(tables)
        assert text.splitlines()[0] == "setting,outcome,count,shots,seed"
        again = tables_from_csv(text)
        assert again == tables

    @pytest.mark.parametrize("other", [(1, 2), (2, 1)])
    def test_csv_writer_refuses_tables_the_reader_would_merge(self, other):
        # Two tables sharing (setting, shots, seed) used to be written, and the
        # reader then refused the writer's own output.
        tables = [CountsTable("Z", (1, 2), 3, 0), CountsTable("Z", other, 3, 0)]
        with pytest.raises(ValueError, match="share setting Z, shots 3, seed 0"):
            tables_to_csv(tables)
        assert len(tables_from_csv(tables_to_csv(tables[:1] + [CountsTable("Z", other, 3, 1)]))) == 2

    @pytest.mark.parametrize("shots, seed", [(3.0, 0), (3, 0.0), (True, 0), (3, False), (3, "0"), (3, None)])
    def test_non_integer_shots_or_seed_rejected(self, shots, seed):
        # CountsTable('Z', (1, 2), 3.0, 0) used to be accepted, and the CSV
        # reader then refused the writer's '3.0'.
        with pytest.raises(ValueError, match="shots and seed must be integers"):
            CountsTable("Z", (1, 2), shots, seed)

    @pytest.mark.parametrize("setting", ["\r", "Z\r", "Z\0", 5, None])
    def test_setting_that_cannot_round_trip_rejected(self, setting):
        with pytest.raises(ValueError, match="setting must be a string without a carriage return or NUL"):
            CountsTable(setting, (1, 2), 3, 0)

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(st.sampled_from(PAIRS + AXES), st.text()),
        st.one_of(st.lists(st.integers(0, 10**12), min_size=2, max_size=2),
                  st.lists(st.integers(0, 10**12), min_size=4, max_size=4)),
        st.one_of(st.integers(-2**70, 2**70), st.integers(0, 2**63 - 1).map(np.int64)),
        st.sampled_from([int, np.int64]),
    )
    def test_every_accepted_table_round_trips(self, setting, counts, seed, int_type):
        try:
            table = CountsTable(setting, tuple(counts), int_type(sum(counts)), seed)
        except ValueError:
            assume(False)
        text = tables_to_csv([table])
        assert _read_records(text) == tables_from_csv(text) == [table]
        # The writer quotes a setting that holds a comma, a quote or a
        # newline, and that text takes the row reader; its other output
        # takes the columnar pass.
        assert _clean_tables(text) == (None if '"' in text else [table])

    def test_csv_rejects_wrong_header(self):
        with pytest.raises(ValueError):
            tables_from_csv("a,b,c\n")

    def test_csv_rejects_repeated_row(self):
        # A repeated (setting, outcome, shots, seed) row used to overwrite the earlier count.
        text = "setting,outcome,count,shots,seed\nZ,+,7,10,43\nZ,-,3,10,43\nZ,+,9,10,43\n"
        with pytest.raises(ValueError, match="line 4: repeated outcome"):
            tables_from_csv(text)

    def test_csv_rejects_unknown_outcome_label(self):
        text = "setting,outcome,count,shots,seed\nZ,+,7,10,43\nZ,0,3,10,43\n"
        with pytest.raises(ValueError, match="line 3: unknown outcome label '0'"):
            tables_from_csv(text)

    def test_csv_rejects_incomplete_table(self):
        text = "setting,outcome,count,shots,seed\nXX,++,7,10,43\nXX,+-,3,10,43\nXX,-+,0,10,43\n"
        with pytest.raises(ValueError, match="setting XX, shots 10, seed 43"):
            tables_from_csv(text)

    def test_csv_rejects_short_row(self):
        with pytest.raises(ValueError, match="line 2"):
            tables_from_csv("setting,outcome,count,shots,seed\nZ,+,7\n")

    @pytest.mark.parametrize("counts", [(1.5, 2.5), (1, 2.5), (float("nan"), 4), ("1", "3")])
    def test_non_integral_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="whole numbers"):
            CountsTable("Z", counts, 4, 0)

    def test_whole_float_counts_become_ints(self):
        table = CountsTable("Z", (1.0, np.int64(3)), 4, 0)
        assert table.counts == (1, 3) and all(type(c) is int for c in table.counts)

    @pytest.mark.parametrize("row, line", [("Z,+,x,4,0", 2), ("Z,+,7.0,10,1", 2), ("Z,+,3,4,s", 2)])
    def test_csv_rejects_non_integer_cell(self, row, line):
        text = f"setting,outcome,count,shots,seed\n{row}\nZ,-,1,4,0\n"
        with pytest.raises(ValueError, match=f"^CSV line {line}: count, shots and seed must be integers"):
            tables_from_csv(text)

    def test_csv_sum_mismatch_names_the_table(self):
        text = "setting,outcome,count,shots,seed\nZ,+,3,5,9\nZ,-,1,5,9\n"
        with pytest.raises(ValueError, match="^table for setting Z, shots 5, seed 9: counts sum 4 != shots 5$"):
            tables_from_csv(text)

    def test_a_table_is_the_tuple_of_its_fields(self):
        table = CountsTable("Z", [np.int64(1), 2.0], 3, 0)
        setting, counts, shots, seed = table
        assert (setting, counts, shots, seed) == ("Z", (1, 2), 3, 0) == table
        assert len(table) == 4 and table[1] is table.counts
        assert not hasattr(table, "__dict__")
        with pytest.raises(AttributeError):
            table.shots = 4

    @pytest.mark.parametrize("changes, message", [
        ({"counts": (-1, 4)}, "counts must be nonnegative"),
        ({"shots": 4}, "counts sum 3 != shots 4"),
        ({"counts": (1.5, 1.5)}, "counts must be whole numbers"),
        ({"setting": "Z\r"}, "setting must be a string without a carriage return or NUL"),
    ])
    def test_replace_and_make_apply_the_constructors_rules(self, changes, message):
        table = CountsTable("Z", (1, 2), 3, 0)
        with pytest.raises(ValueError, match=re.escape(message)):
            table._replace(**changes)
        with pytest.raises(ValueError, match=re.escape(message)):
            CountsTable._make({**table._asdict(), **changes}.values())

    def test_replace_normalizes_counts_like_the_constructor(self):
        table = CountsTable("Z", (1, 2), 3, 0)._replace(counts=(np.int64(2), 1.0))
        assert type(table) is CountsTable and table == ("Z", (2, 1), 3, 0)
        assert all(type(c) is int for c in table.counts)

    @pytest.mark.parametrize("clone", CLONES)
    def test_copies_and_pickles_are_equal_tables(self, clone):
        for table in (CountsTable("XX", (10, 20, 30, 40), 100, 42), CountsTable("Z", (7, 3), 10, -2**70)):
            again = clone(table)
            assert type(again) is CountsTable and again == table

    @pytest.mark.parametrize("clone", CLONES)
    def test_copies_and_pickles_apply_the_constructors_rules(self, clone):
        # A table that skipped the constructor, as the columnar pass builds
        # them, is checked again when copied or read back from a pickle.
        forged = tuple.__new__(CountsTable, ("Z", (1, 2), 4, 0))
        with pytest.raises(ValueError, match="counts sum 3 != shots 4"):
            clone(forged)

    @pytest.mark.parametrize("quoting", [csv.QUOTE_MINIMAL, csv.QUOTE_ALL])
    def test_both_readers_build_tables_of_python_values(self, quoting):
        tables = [CountsTable("XX", (10, 20, 30, 40), 100, 42), CountsTable("Z", (7, 3), 10, 2**70)]
        buf = io.StringIO()
        csv.writer(buf, quoting=quoting, lineterminator="\n").writerows(
            csv.reader(io.StringIO(tables_to_csv(tables))))
        text = buf.getvalue()
        columnar = _clean_tables(text)
        assert (columnar is None) == (quoting == csv.QUOTE_ALL)
        for read in filter(None, (columnar, _read_records(text), tables_from_csv(text))):
            assert read == tables
            for table in read:
                assert type(table) is CountsTable and type(table.setting) is str
                assert type(table.shots) is int and type(table.seed) is int
                assert type(table.counts) is tuple and all(type(c) is int for c in table.counts)


def read(reader, text: str):
    """(tables, None), or (None, (exception type, message)) if `reader` raises."""
    try:
        return reader(text), None
    except ValueError as err:
        return None, (type(err), str(err))


def is_plain(text: str) -> bool:
    """Text with no quote, lone carriage return or NUL, which the columnar pass reads."""
    return not any(c in text.replace("\r\n", "\n") for c in '"\r\0')


def assert_readers_agree(text: str):
    """`tables_from_csv` gives what the row-at-a-time reader gives, error
    included.  On plain text the columnar pass gives tables exactly when that
    reader does, and the same tables; it hands any other text to that reader."""
    want = read(_read_records, text)
    assert read(tables_from_csv, text) == want
    got = _clean_tables(text)
    assert got == (want[0] if is_plain(text) else None)
    if got is not None:
        fields = [[type(t.setting), *map(type, t.counts), type(t.shots), type(t.seed)] for t in got]
        assert fields == [[str, *[int] * len(t.counts), int, int] for t in got]


def int_text(value: int, style: str) -> str:
    """An integer cell as a writer other than `tables_to_csv` might spell it."""
    if style == "zeros":
        return ("-" if value < 0 else "") + "00" + str(abs(value))
    if style == "spaces":
        return f" {value} "
    if style == "underscore":
        return f"{value:_}"
    if style == "plus":
        return f"+{value}" if value >= 0 else str(value)
    return str(value)


FAULTS = ("short row", "bad label", "non-integer cell", "repeated row", "missing outcome",
          "negative count", "sum mismatch", "carriage return")


@st.composite
def count_table_csv(draw):
    """CSV text of a few pair and single tables, rows shuffled and interleaved,
    cells in varied integer spellings, with up to two injected faults."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        setting = draw(st.one_of(st.sampled_from(PAIRS + AXES), st.text(alphabet='XYZ,"\n a', max_size=4)))
        labels = draw(st.sampled_from([OUTCOMES_PAIR, OUTCOMES_SINGLE]))
        counts = draw(st.lists(st.one_of(st.integers(0, 50), st.integers(2**63, 2**65)),
                               min_size=len(labels), max_size=len(labels)))
        seed = draw(st.one_of(st.integers(-3, 3), st.integers(-2**70, 2**70)))
        rows += [[setting, label, count, sum(counts), seed] for label, count in zip(labels, counts)]
    rows = draw(st.permutations(rows))
    faults = draw(st.lists(st.sampled_from(FAULTS), max_size=2))
    for fault in faults:
        i = draw(st.integers(0, len(rows) - 1))
        if fault == "repeated row":
            rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
        elif fault == "missing outcome" and len(rows) > 1:
            del rows[i]
        elif fault == "negative count":
            # Moved to a row of the same table, so the sum still matches.
            key = itemgetter(0, 3, 4)
            twins = [row for row in rows if key(row) == key(rows[i]) and row is not rows[i]]
            if twins:
                twins[0][2] += rows[i][2] + 1
            rows[i][2] = -1
        elif fault == "sum mismatch":
            rows[i][2] += 1
        elif fault == "carriage return":
            old = rows[i][0]
            for row in rows:
                if row[0] == old:
                    row[0] = old + "\r"
    text_rows = [[row[0], row[1], *(int_text(v, draw(st.sampled_from(
        ["plain", "zeros", "spaces", "underscore", "plus"]))) for v in row[2:])] for row in rows]
    # A short row is cut last, so that no later fault indexes past its end.
    for fault in sorted(faults, key=lambda f: f == "short row"):
        i = draw(st.integers(0, len(text_rows) - 1))
        if fault == "short row":
            text_rows[i] = text_rows[i][:draw(st.integers(1, 4))]
        elif fault == "bad label":
            text_rows[i][1] = draw(st.sampled_from(["0", "+-+", "", " +", "--+"]))
        elif fault == "non-integer cell":
            text_rows[i][draw(st.integers(2, 4))] = draw(st.sampled_from(["7.0", "x", "", "1e3", "0x10"]))
    for _ in range(draw(st.integers(0, 2))):
        text_rows.insert(draw(st.integers(0, len(text_rows))), [])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator=draw(st.sampled_from(["\n", "\r\n"])),
                        quoting=draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL])))
    writer.writerow(CSV_HEADER)
    writer.writerows(text_rows)
    return buf.getvalue()


class TestColumnarReader:
    """The columnar pass `_clean_tables` against the row-at-a-time reader
    `_read_records`, which words every error of `tables_from_csv`."""

    @settings(max_examples=400, deadline=None)
    @given(count_table_csv())
    def test_matches_reference_reader(self, text):
        assert_readers_agree(text)

    @settings(max_examples=50, deadline=None)
    @given(st.data(), st.lists(st.integers(0, 2**62 - 1), min_size=1, max_size=40, unique=True))
    def test_tomography_tables_take_the_columnar_pass(self, data, tags):
        # Each qubit's X, Y and Z tables, told apart by their seed column, as
        # a tomography run over many qubits writes them.
        tables = []
        for tag in tags:
            shots = data.draw(st.sampled_from([1000, 4000, 10000]))
            for axis in AXES:
                plus = data.draw(st.integers(0, shots))
                tables.append(CountsTable(axis, (plus, shots - plus), shots, tag))
        assert _clean_tables(tables_to_csv(tables)) == tables

    @pytest.mark.parametrize("text", [
        "",
        "a,b,c\n",
        "setting,outcome,count,shots,seed\n",
        "setting,outcome,count,shots,seed\n\n\n",
        "setting,outcome,count,shots,seed\nXX,++,10,100,42\nXX,+-,20,100,42\nXX,-+,30,100,42\n"
        "XX,--,40,100,42\nZ,+,7,10,43\nZ,-,3,10,43\n",
        "setting,outcome,count,shots,seed\nZ,+,7,10,43\nZ,-,3,10,43\nZ,+,9,10,43\n",
        "setting,outcome,count,shots,seed\nZ,+,7,10,43\nZ,0,3,10,43\n",
        "setting,outcome,count,shots,seed\nXX,++,7,10,43\nXX,+-,3,10,43\nXX,-+,0,10,43\n",
        "setting,outcome,count,shots,seed\nZ,+,7\n",
        "setting,outcome,count,shots,seed\nZ,+,x,4,0\nZ,-,1,4,0\n",
        "setting,outcome,count,shots,seed\nZ,+,7.0,10,1\nZ,-,1,4,0\n",
        "setting,outcome,count,shots,seed\nZ,+,3,4,s\nZ,-,1,4,0\n",
        "setting,outcome,count,shots,seed\nZ,+,3,5,9\nZ,-,1,5,9\n",
        # 7 and 07 name one table; a row of a later table comes between.
        "setting,outcome,count,shots,seed\nZ,+,3,07,9\nX,+,1,1,9\nZ,-,4,7,0_9\nX,-,0,1,9\n",
        'setting,outcome,count,shots,seed\n"Y\r",+,1,1,1\n"Y\r",-,0,1,1\n',
        # A negative count and a carriage return, then a short row: the line fault wins.
        'setting,outcome,count,shots,seed\nZ,+,-3,1,9\nZ,-,4,1,9\n"Y\r",+,1,1,1\n"Y\r",-,0,1,1\nZ\n',
        # The same table faults without the short row: the first table to appear fails.
        'setting,outcome,count,shots,seed\n"Y\r",+,1,1,1\nZ,+,-3,1,9\nZ,-,4,1,9\n"Y\r",-,0,1,1\n',
        "setting,outcome,count,shots,seed\nZ,+,1,1,1\nZ,-,0,1,1\nZ,++,0,1,1\n",
        "setting,outcome,count,shots,seed\nZ,+,1,1,1\nZ,-,0,1,1\nZ,++,0,1,1\nZ,+-,0,1,1\n",
        # csv's first record here is [], so the header is missing.
        "\nsetting,outcome,count,shots,seed\nZ,+,7,10,43\nZ,-,3,10,43\n",
        "setting,outcome,count,shots,seed",
        "setting,outcome,count,shots,seed\nZ,+,7,10,43\nZ,-,3,10,43",
        "setting,outcome,count,shots,seed\n\nZ,+,7,10,43\n\n\nZ,-,3,10,43\n\n",
        "setting,outcome,count,shots,seed\r\nZ,+,7,10,43\r\nZ,-,3,10,43\r\n",
        # CRLF reads as LF; a carriage return left over goes to the row reader.
        "\r\nsetting,outcome,count,shots,seed\r\nZ,+,7,10,43\r\nZ,-,3,10,43\r\n",
        "setting,outcome,count,shots,seed\r\nZ,+,7,10,43\r\r\nZ,-,3,10,43\r\n",
        "setting,outcome,count,shots,seed\r\nZ,+,7,10,43\r\nZ,-,3,10,43\r",
        "setting,outcome,count,shots,seed\nZ,+,7,10,43\r\nZ,-,3,10,43\n",
        '"setting","outcome","count","shots","seed"\n"Z","+","7","10","43"\n"Z","-","3","10","43"\n',
        # Python 3.10's csv module refuses a NUL and 3.11 reads it as data;
        # the columnar pass leaves it to the row reader either way.
        "setting,outcome,count,shots,seed\nZ\0,+,7,10,43\nZ\0,-,3,10,43\n",
        # csv.reader refuses a field longer than its size limit.
        *(f"setting,outcome,count,shots,seed\n{'Z' * n},+,1,1,0\n{'Z' * n},-,0,1,0\n"
          for n in (csv.field_size_limit(), csv.field_size_limit() + 1)),
    ])
    def test_matches_reference_reader_on_fixed_cases(self, text):
        assert_readers_agree(text)

    def test_line_ends_do_not_change_the_tables(self):
        lf = ("setting,outcome,count,shots,seed\nXX,++,1,4,0\nXX,+-,1,4,0\nXX,-+,0,4,0\nXX,--,2,4,0\n"
              "Z,+,7,10,43\nZ,-,3,10,43\n")
        crlf = lf.replace("\n", "\r\n")
        tables = _clean_tables(lf)
        assert tables == _clean_tables(crlf) == _read_records(crlf) == tables_from_csv(crlf)
        assert len(tables) == 2

    @pytest.mark.parametrize("text, name", [(None, "NoneType"), (b"setting,outcome,count,shots,seed\n", "bytes"),
                                            (5, "int")])
    def test_refuses_what_is_not_text(self, text, name, monkeypatch):
        # None used to read as empty text and bytes failed inside io.StringIO.
        def no_reader(_):
            raise AssertionError("a reader ran")
        monkeypatch.setattr(measure, "_clean_tables", no_reader)
        monkeypatch.setattr(measure, "_read_records", no_reader)
        with pytest.raises(TypeError, match=f"^CSV text must be a str, got {name}$"):
            tables_from_csv(text)

    @pytest.mark.parametrize("before, message", [
        ("", "CSV line 2: new-line character seen in unquoted field"),
        ("Z,+,1,1,1\nZ,+,0,1,1\n", "CSV line 3: repeated outcome '+'"),
        ("Z,+,1,1\n", "CSV line 2: expected 5 fields"),
        ("Z,+,1,1,1\nZ,-,1,1,1\n", "CSV line 4: new-line character seen in unquoted field"),
        ('"a\nb",+,1,1,1\n', "CSV line 4: new-line character seen in unquoted field"),
    ])
    def test_csv_error_after_a_faulty_line_reports_the_line(self, before, message):
        # An unquoted carriage return stops the csv module itself: a one-line
        # ValueError naming its line, unless a faulty line read before it is.
        text = f"setting,outcome,count,shots,seed\n{before}Z\r,+,1,1,1\n"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}[^\n]*$") as caught:
            tables_from_csv(text)
        # The csv module's advice on opening a file does not apply to a string.
        assert "do you need" not in str(caught.value)
        assert_readers_agree(text)

    def test_csv_error_in_the_header_names_line_one(self):
        text = "setting\r,outcome,count,shots,seed\nZ,+,1,1,1\n"
        with pytest.raises(ValueError, match="^CSV line 1: new-line character"):
            tables_from_csv(text)
        assert_readers_agree(text)

    @pytest.mark.parametrize("text, line", [
        ('setting,outcome,count,shots,seed\n"a\nb",+,1,1,1\nZ,0,1,1,1\n', 4),
        ('setting,outcome,count,shots,seed\n"a\n\nb",+,1,1,1\n\n"c\nd",0,1,1,1\n', 6),
        ('setting,outcome,count,shots,seed\r\nZ,+,1,1,1\r\n\r\nZ,0,1,1,1\r\n', 4),
    ])
    def test_line_numbers_count_file_lines_not_records(self, text, line):
        # A quoted setting may hold newlines; the error names the file line
        # on which the faulty record starts.
        with pytest.raises(ValueError, match=f"^CSV line {line}: "):
            tables_from_csv(text)
        assert_readers_agree(text)


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
           st.lists(st.one_of(st.text(max_size=4), st.integers())),
           st.lists(st.lists(st.one_of(st.text(max_size=4), st.integers(-3, 3)), max_size=3).map(tuple),
                    max_size=4))
    def test_derive_seeds_equals_derive_seed_of_each_suffix(self, master, prefix, suffixes):
        want = [reference_derive_seed(master, *prefix, *s) for s in suffixes]
        assert derive_seeds(master, prefix, suffixes) == [derive_seed(master, *prefix, *s) for s in suffixes] == want

    @pytest.mark.parametrize("left, right", [
        ((1, "a/b"), (1, "a", "b")),
        ((1, "ab", "c"), (1, "a", "bc")),
        ((12, 3), (1, 23)),
        ((1, ""), (1,)),
    ])
    def test_derive_seeds_keeps_the_injective_pairs_apart(self, left, right):
        # Each side's tags as a prefix and as a suffix; a pair that shares
        # its master seed also as two suffixes of one family.
        want = [derive_seed(*left), derive_seed(*right)]
        assert want[0] != want[1]
        for i, (master, *tags) in enumerate((left, right)):
            assert derive_seeds(master, tags, [()]) == derive_seeds(master, (), [tags]) == [want[i]]
        if left[0] == right[0]:
            assert derive_seeds(left[0], (), [left[1:], right[1:]]) == want

    def test_derive_seeds_of_no_suffix_is_empty_and_of_an_empty_one_is_the_prefix(self):
        assert derive_seeds(5, ("a", 1), []) == []
        assert derive_seeds(5, ("a", 1), [()]) == [derive_seed(5, "a", 1)]

    @pytest.mark.parametrize("master", [1.5, 1.0, True, "7", None, np.float64(3.0)])
    def test_derive_seeds_refuses_a_master_seed_that_is_no_integer(self, master):
        with pytest.raises(ValueError, match=r"^master seed must be an integer, got "):
            derive_seeds(master, ("a",), [("b",)])
        with pytest.raises(ValueError, match=r"^master seed must be an integer, got "):
            derive_seeds(master, (), [])

    @pytest.mark.skipif(not INT_DIGITS, reason="this Python writes an integer of any length")
    @pytest.mark.parametrize("master", [10**5000, -10**5000, 10**INT_DIGITS, -10**INT_DIGITS],
                             ids=["10**5000", "-10**5000", "10**limit", "-10**limit"])
    def test_derive_seeds_refuses_a_master_seed_too_long_to_write(self, master):
        # Such a seed used to fail in `str` with Python's own error, which
        # names no seed; the refusal cannot show the value, whose repr raises.
        want = rf"^master seed must be an integer of at most {INT_DIGITS} digits$"
        with pytest.raises(ValueError, match=want):
            derive_seeds(master, ("x",), [()])
        with pytest.raises(ValueError, match=want):
            derive_seed(master, "x")

    @pytest.mark.skipif(not INT_DIGITS, reason="this Python writes an integer of any length")
    def test_derive_seeds_takes_the_longest_master_seed_python_writes(self):
        for master in (10**INT_DIGITS - 1, -(10**INT_DIGITS - 1), 2 ** (3 * INT_DIGITS)):
            assert derive_seeds(master, ("x",), [(1,)]) == [reference_derive_seed(master, "x", 1)]

    def test_generator_streams_independent(self):
        a = generator(derive_seed(1, "x")).random(4)
        b = generator(derive_seed(1, "y")).random(4)
        assert not np.allclose(a, b)

    def test_exact_correlations_of_bell(self):
        t = correlators(pair_probs(density(BELL_PHI))).reshape(3, 3)
        assert np.abs(t - np.diag([1.0, -1.0, 1.0])).max() < 1e-12


SEED_EDGES = (0, 1, 2**63 - 1, 2**63, 2**64 - 2, 2**64 - 1)
seeds = st.one_of(st.sampled_from(SEED_EDGES), st.integers(0, 2**64 - 1))


def draw_all(rng: np.random.Generator, odd: int) -> list[np.ndarray]:
    """One draw of each kind the pipelines use, with an odd number of 32-bit
    integers first so a buffered half-word is left behind."""
    return [
        rng.integers(0, 2**32, size=odd, dtype=np.uint32),
        rng.multinomial(1000, [0.1, 0.2, 0.3, 0.4]),
        rng.poisson([[3.0, 0.0], [4000.0, 7.5]], size=(5, 2, 2)),
        rng.integers(0, 3, size=9),
        rng.random(7),
    ]


class TestSeedRange:
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1)])
    def test_ends_are_accepted(self, seed):
        assert np.array_equal(generator(seed).random(3), next(generators([seed], (1,))).random(3))

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_neighbours_outside_are_refused(self, seed):
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got -?\d+$"):
            generator(seed)
        with pytest.raises(ValueError, match=r"^row 1: seed must be an integer in \[0, 2\*\*64\)"):
            next(generators([5, seed], (2,)))

    @pytest.mark.parametrize("seed", [1.0, True, "3", None, np.float64(2.0)])
    def test_non_integers_are_refused(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            generator(seed)

    def test_every_seed_is_checked_before_the_first_draw(self):
        with pytest.raises(ValueError, match=r"^row \(1, 0\): seed"):
            next(generators([[1, 2], [-3, 4]], (2, 2)))


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


class TestRekeyedStreams:
    """One Philox re-keyed per row against a new generator per row."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(seeds, min_size=1, max_size=6), st.integers(0, 3).map(lambda k: 2 * k + 1))
    def test_rekeyed_generator_reproduces_generator(self, keys, odd):
        for seed, rng in zip(keys, generators(keys, (len(keys),)), strict=True):
            for got, want in zip(draw_all(rng, odd), draw_all(generator(seed), odd)):
                assert np.array_equal(got, want)

    def test_a_held_generator_keeps_its_stream(self):
        """A generator taken from `generators` and held past another draw
        still gives its own seed's bits: each call has a stream of its own."""
        rng = next(generators(11, ()))
        sample_counts([0.5, 0.5], 10, 99)
        assert np.array_equal(rng.random(3), generator(11).random(3))
        assert rng is not next(generators(5, ()))

    def test_each_thread_keeps_its_own_stream(self):
        """Four threads, more than the cores of a small host, take rows of
        their own `generators` iterators in lock step under a short switch
        interval, so each draw sits between draws of the others; every row
        still gets the bits of its own new generator."""
        keys = [[3, 2**64 - 1, 0, 17], [5, 6, 2**63, 3], [1, 1, 2, 2], [9, 8, 7, 6]]
        step = threading.Barrier(len(keys), timeout=30)

        def rows(t):
            out = []
            for rng in generators(keys[t], (len(keys[t]),)):
                step.wait()
                out.append(draw_all(rng, 3))
                step.wait()
            return out

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(keys)) as pool:
                futures = [pool.submit(rows, t) for t in range(len(keys))]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for t, seeds in enumerate(keys):
            for seed, row in zip(seeds, got[t], strict=True):
                for a, b in zip(row, draw_all(generator(seed), 3)):
                    assert np.array_equal(a, b)

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([(1,), (5,), (2, 3), (0,)]), st.sampled_from([2, 4]),
           st.integers(1, 5000))
    def test_stacked_sample_counts_equals_rows_alone(self, data, shape, k, shots):
        probs = np.random.default_rng(data.draw(st.integers(0, 2**32))).dirichlet(np.ones(k), size=shape)
        keys = np.array(data.draw(st.lists(seeds, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                        dtype=object).reshape(shape)
        table = sample_counts(probs, shots, keys)
        assert table.shape == probs.shape and table.dtype.kind == "i"
        for index in np.ndindex(*shape):
            assert np.array_equal(table[index], sample_counts(probs[index], shots, keys[index]))

    @settings(max_examples=40, deadline=None)
    @given(st.data(), st.sampled_from([(1,), (4,), (2, 2), (0,)]), st.integers(1, 50))
    def test_stacked_poisson_resample_equals_items_alone(self, data, shape, resamples):
        counts = np.random.default_rng(data.draw(st.integers(0, 2**32))).integers(0, 5000, size=(*shape, 3, 2))
        keys = np.array(data.draw(st.lists(seeds, min_size=int(np.prod(shape)), max_size=int(np.prod(shape)))),
                        dtype=object).reshape(shape)
        out = poisson_resample(counts, resamples, keys)
        assert out.shape == (*shape, resamples, 3, 2)
        for index in np.ndindex(*shape):
            assert np.array_equal(out[index], poisson_resample(counts[index], resamples, keys[index]))

    @pytest.mark.parametrize("row, probs, match", [
        (2, [0.5, 0.6], "probabilities sum to 1.1"),
        (1, [1.5, -0.5], "negative probability"),
        (0, [np.nan, 1.0], "probabilities sum to nan"),
    ])
    def test_bad_row_is_named(self, row, probs, match):
        table = np.full((3, 2), 0.5)
        table[row] = probs
        with pytest.raises(ValueError, match=f"^row {row}: {match}"):
            sample_counts(table, 10, [1, 2, 3])

    def test_bad_row_of_a_deeper_table_is_named(self):
        table = np.full((2, 3, 4), 0.25)
        table[1, 2] = [0.5, 0.5, 0.5, -0.5]
        with pytest.raises(ValueError, match=r"^row \(1, 2\): negative probability"):
            sample_counts(table, 10, np.arange(6).reshape(2, 3))

    def test_bad_seed_row_is_named(self):
        with pytest.raises(ValueError, match=r"^row 1: seed must be an integer"):
            sample_counts(np.full((2, 2), 0.5), 10, [1, -1])
        with pytest.raises(ValueError, match=r"^row 0: seed must be an integer"):
            poisson_resample(np.ones((2, 4)), 3, [2**64, 1])

    def test_single_row_errors_keep_their_text(self):
        with pytest.raises(ValueError, match="^probabilities sum to"):
            sample_counts([0.5, 0.6], 10, 0)
        with pytest.raises(ValueError, match=r"^seed must be an integer in \[0, 2\*\*64\), got -1$"):
            sample_counts([0.5, 0.5], 10, -1)

    # `generators` holds the one check of the seeds' shape, which every draw
    # reaches before any stream is re-keyed.
    @pytest.mark.parametrize("draw, seeds, rows", [
        (lambda: next(generators([1, 2], (3,))), (2,), (3,)),
        (lambda: next(generators(7, (1,))), (), (1,)),
        (lambda: sample_counts(np.full((2, 2), 0.5), 10, 1), (), (2,)),
        (lambda: sample_counts(np.full((2, 2), 0.5), 10, [1, 2, 3]), (3,), (2,)),
        (lambda: sample_counts(np.full(2, 0.5), 10, [1]), (1,), ()),
        (lambda: poisson_resample(np.ones((3, 4)), 2, [1, 2]), (2,), (3,)),
        (lambda: poisson_resample(np.ones(3), 2, [[1, 2, 3]]), (1, 3), (3,)),
        (lambda: poisson_resample(np.ones(2), 2, np.ones((2, 2, 2), dtype=int)), (2, 2, 2), (2,)),
        (lambda: qsv_run([0.25, 0.25], 10, [1]), (1,), (2,)),
        (lambda: bootstrap_std(purity_from_counts, np.full((2, 3, 2), 5), [1], resamples=10), (1,), (2,)),
    ], ids=["generators", "generators-scalar", "sample_counts-scalar", "sample_counts-more", "sample_counts-row",
            "poisson_resample", "poisson_resample-more-axes", "poisson_resample-most-axes", "qsv_run", "bootstrap_std"])
    def test_needs_one_seed_per_row(self, draw, seeds, rows, monkeypatch):
        monkeypatch.setattr(measure, "_rekeyed", lambda *args: pytest.fail("re-keyed a stream"))
        message = f"need one seed per row: seeds of shape {seeds} for rows of shape {rows}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            draw()

    def test_a_faulty_table_is_named_before_a_faulty_seed(self):
        with pytest.raises(ValueError, match=r"^row 1: probabilities sum to"):
            sample_counts([[0.5, 0.5], [0.5, 0.6]], 10, [-1, 1])
        with pytest.raises(ValueError, match=r"^row 1: count -1 is not a whole number"):
            poisson_resample([[1, 2], [-1, 2]], 2, [2**64, 1])
        with pytest.raises(ValueError, match=r"^row 0: fidelity must be"):
            qsv_run([2.0, 0.5], 10, [-1, 1])

    def test_empty_count_array_with_one_seed(self):
        # A 0-size item still takes its one seed: nothing to infer from its size.
        assert poisson_resample(np.zeros((0, 3, 2)), 5, 1).shape == (5, 0, 3, 2)
        assert poisson_resample(np.zeros((2, 0)), 3, [1, 2]).shape == (2, 3, 0)
