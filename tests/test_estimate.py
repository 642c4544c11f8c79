import math
import re
import time
from fractions import Fraction
from functools import lru_cache
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from realmask import estimate, experiments
from realmask.estimate import (
    agresti_coull,
    bootstrap_std,
    decode_fidelity,
    decode_real_state,
    decode_weights,
    mle_qubit_batch,
    project_to_density,
    purity_from_counts,
    qsv_interval,
    qsv_run,
    squared_bloch_length,
)
from realmask.experiments import ExperimentConfig, probe_vector, run_fig4
from realmask.masker import masker_matrix
from realmask.measure import (
    AXES,
    PAIRS,
    apply_depolarizing,
    correlators,
    derive_seed,
    generator,
    pair_probs,
    poisson_resample,
    sample_counts,
)
from realmask.qcore import BELL_PHI, EPS_EXACT, PAULIS, checked_density, fidelity_with_pure, partial_trace

from helpers import (
    binomial_pmf,
    concurrence_from_purity,
    density,
    exact_qsv_coverage,
    exact_square_covariance,
    exact_square_moments,
    hr_combination,
    magic_basis,
    mask_state,
    random_density,
    random_real_density,
    random_unitary,
    reference_project_to_density,
    trace_distance,
    verification_operator,
    verification_projectors,
)


def bell_counts(rho, shots: int, seed: int) -> np.ndarray:
    """(3, 2) X/Y/Z counts of a qubit, each axis one multinomial draw of its (+, -) probabilities."""
    plus = [np.trace(rho @ (np.eye(2) + PAULIS[ax]) / 2).real for ax in AXES]
    return np.array([generator(derive_seed(seed, ax)).multinomial(shots, [p, 1.0 - p]) for ax, p in zip(AXES, plus)])


def exact_correlators(rho) -> np.ndarray:
    """3x3 correlators of a two-qubit state: its probability table read as counts."""
    return correlators(pair_probs(rho)).reshape(3, 3)


def bloch_of(rho: np.ndarray) -> np.ndarray:
    return np.array([2 * rho[0, 1].real, -2 * rho[0, 1].imag, (rho[0, 0] - rho[1, 1]).real])


def linear_inversion(counts: np.ndarray) -> np.ndarray:
    """(n+ - n-)/n per axis, 0 on an axis without counts."""
    n = counts.sum(axis=1)
    return np.divide(counts[:, 0] - counts[:, 1], n, out=np.zeros(3), where=n > 0)


def likelihood_gradient(r: np.ndarray, counts: np.ndarray) -> np.ndarray:
    plus, minus = counts[:, 0], counts[:, 1]
    return (np.divide(plus, 1 + r, out=np.zeros(3), where=plus > 0)
            - np.divide(minus, 1 - r, out=np.zeros(3), where=minus > 0))


def hand_decode(t: np.ndarray) -> np.ndarray:
    """The decode written out entry by entry: the oracle for the derived map."""
    rho = np.zeros((4, 4))
    rho[0, 0] = (1 + t[0, 0] - t[1, 1] + t[2, 2]) / 4
    rho[1, 1] = (1 - t[0, 0] + t[1, 1] + t[2, 2]) / 4
    rho[2, 2] = (1 + t[0, 0] + t[1, 1] - t[2, 2]) / 4
    rho[3, 3] = (1 - t[0, 0] - t[1, 1] - t[2, 2]) / 4
    rho[0, 1] = rho[1, 0] = -(t[1, 0] + t[0, 1]) / 4
    rho[0, 2] = rho[2, 0] = (t[1, 2] + t[2, 1]) / 4
    rho[0, 3] = rho[3, 0] = (t[2, 0] - t[0, 2]) / 4
    rho[1, 2] = rho[2, 1] = (t[0, 2] + t[2, 0]) / 4
    rho[1, 3] = rho[3, 1] = (t[1, 2] - t[2, 1]) / 4
    rho[2, 3] = rho[3, 2] = (t[1, 0] - t[0, 1]) / 4
    return rho


def bisect_sphere_fit(n_plus: list[float], n_minus: list[float]) -> list[float]:
    """The boundary fit one item at a time by plain bisection of lam to
    adjacent floats: the reference for `estimate._sphere_fit`.

    |r_k| at lam is the root in [0, 1] of p(s) = (1 - s)(a - 2 lam s (1 + s))
    - b (1 + s), a = max(n+, n-), b = min(n+, n-), climbed to by monotone
    Newton from below; the radii at the upper end have |r| <= 1.
    """
    axes = [(max(a, b), min(a, b)) for a, b in zip(n_plus, n_minus)]

    def radii(lam: float, start: list[float]) -> list[float]:
        out = []
        for (a, b), s in zip(axes, start):
            while True:
                q = a - 2.0 * lam * s * (1.0 + s)
                p = (1.0 - s) * q - b * (1.0 + s)
                if p <= 0.0:
                    break
                new = min(s - p / (-q - 2.0 * lam * (1.0 - s) * (1.0 + 2.0 * s) - b), 1.0)
                if new <= s:
                    break
                s = new
            out.append(s)
        return out

    lo, hi = 0.0, (sum(n_plus) + sum(n_minus)) / 4.0
    s_hi = radii(hi, [0.0, 0.0, 0.0])
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        s = radii(mid, s_hi)
        if s[0] * s[0] + s[1] * s[1] + s[2] * s[2] > 1.0:
            lo = mid
        else:
            hi, s_hi = mid, s
    return [math.copysign(s, a - b) for s, a, b in zip(s_hi, n_plus, n_minus)]


@lru_cache(maxsize=None)
def seeded_boundary_counts(n_items: int, seed: int, max_shots: int = 10_000) -> np.ndarray:
    """(n_items, 3, 2) counts of almost pure states whose linear inversion
    leaves the Bloch ball, up to `max_shots` shots per axis."""
    rng = generator(seed)
    items = []
    while len(items) < n_items:
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        shots = rng.integers(1, max_shots + 1, size=3)
        plus = np.clip(np.round(shots * (1 + direction) / 2) + rng.integers(-3, 4, size=3), 0, shots)
        counts = np.stack([plus, shots - plus], axis=1).astype(float)
        if np.linalg.norm(linear_inversion(counts)) > 1.0:
            items.append(counts)
    out = np.array(items)
    out.setflags(write=False)
    return out


def correlator_stacks(max_items: int = 6):
    """(n, 3, 3) correlation stacks with entries on a 1e-6 grid in [-1, 1]."""
    entry = st.integers(-10**6, 10**6).map(lambda k: k / 10**6)
    return st.integers(1, max_items).flatmap(
        lambda n: st.lists(entry, min_size=9 * n, max_size=9 * n).map(lambda v: np.reshape(v, (n, 3, 3))))


def log_likelihood(r: np.ndarray, counts: np.ndarray) -> float:
    plus, minus = counts[:, 0], counts[:, 1]
    return float(np.sum(plus * np.log1p(r) + minus * np.log1p(-r)))


EPS = np.finfo(float).eps
# Largest tangent residual `lagrange_condition` accepts, in its eps units: the
# exact fit reached 10 on 60,000 seeded near-pure items, and a stop window of
# 1e-9 in place of 4 eps exceeds 64 on 16% of them.
KKT_LIMIT = 64.0


def lagrange_condition(r: np.ndarray, counts: np.ndarray) -> tuple[float, float]:
    """Multiplier lam of grad = 2 lam r on the unit sphere, and the size of the
    gradient's part tangent to the sphere in units of eps times the sum of the
    magnitudes n+/(1 + r_k) and n-/(1 - r_k) of the gradient's terms.

    Rounding in r and in those terms scales with their sum, not with the
    gradient: near the small-lam end the terms cancel, so a residual relative
    to |grad| is ill-conditioned there.
    """
    grad = likelihood_gradient(r, counts)
    lam = float(grad @ r) / 2
    plus, minus = counts[:, 0], counts[:, 1]
    terms = (np.divide(plus, 1 + r, out=np.zeros(3), where=plus > 0)
             + np.divide(minus, 1 - r, out=np.zeros(3), where=minus > 0))
    return lam, float(np.linalg.norm(grad - 2 * lam * r) / (EPS * terms.sum()))


class TestVerificationOperator:
    def test_spectral_identity_for_bell(self):
        omega = verification_operator(np.eye(2))
        proj = np.outer(BELL_PHI, BELL_PHI.conj())
        assert np.abs(omega - (proj + (np.eye(4) - proj) / 3)).max() < 1e-12

    def test_spectral_identity_for_rotated_targets(self, rng):
        for j in range(4):
            omega = verification_operator(hr_combination(np.eye(4)[j]))
            phi = magic_basis()[j]
            proj = np.outer(phi, phi.conj())
            assert np.abs(omega - (proj + (np.eye(4) - proj) / 3)).max() < 1e-12
        for _ in range(20):
            a = rng.normal(size=4)
            a /= np.linalg.norm(a)
            u = hr_combination(a)
            omega = verification_operator(u)
            target = (np.kron(u, np.eye(2)) @ BELL_PHI)
            proj = np.outer(target, target.conj())
            assert np.abs(omega - (proj + (np.eye(4) - proj) / 3)).max() < 1e-12

    def test_pass_probability_is_one_third_plus_two_thirds_of_the_fidelity(self, rng):
        """The law `qsv_run` samples: a round passes with probability
        tr(Omega rho) = (1 + 2 <Ma|rho|Ma>)/3 for every state rho and real
        target a, with Omega built from the three test projectors."""
        for _ in range(200):
            a = rng.normal(size=4)
            a /= np.linalg.norm(a)
            rho = random_density(4, rng)
            omega = verification_operator(hr_combination(a))
            assert abs(np.trace(omega @ rho).real - (1 + 2 * masked_fidelity(rho, a)) / 3) < 1e-12

    def test_projectors_are_rank_two(self):
        for p in verification_projectors(np.eye(2)):
            assert np.trace(p).real == pytest.approx(2.0, abs=1e-12)
            assert np.abs(p @ p - p).max() < 1e-12


def masked_fidelity(rho, a) -> float:
    """<Ma|rho|Ma>: the fidelity of a state with the verification target of a real input a."""
    target = masker_matrix() @ a
    return float(np.vdot(target, np.asarray(rho) @ target).real)


def qsv_one(fidelity, n_tests: int, seed) -> int:
    """`qsv_run` on a stack of one: one fidelity, one pass count."""
    (out,) = qsv_run([fidelity], n_tests, seed)
    return out


def binomial_passed(fidelity, n_tests: int, seed: int) -> int:
    """The pass count drawn as `qsv_run` must draw it: one binomial from `generator(seed)`."""
    return int(generator(seed).binomial(n_tests, (1 + 2 * fidelity) / 3))


E0 = np.eye(4)[0]  # the target (1 ⊗ 1)|Phi>


class TestQsvRun:
    def test_ideal_source_always_passes(self):
        for j in range(4):
            rho = density(magic_basis()[j])
            assert qsv_one(masked_fidelity(rho, np.eye(4)[j]), 2000, derive_seed(1, "ideal", j)) == 2000
        assert qsv_interval(2000, 2000)[0] == 0.0

    def test_maximally_mixed_concentrates_at_three_quarters(self):
        eps_hat = qsv_interval(qsv_one(masked_fidelity(np.eye(4) / 4, E0), 20_000, 2), 20_000)[0]
        # pass rate 1/2 per rank-two test -> eps_hat near 0.75
        assert abs(eps_hat - 0.75) < 0.03

    # True and 2.5 used to end in numpy's "expected a sequence of integers or a single integer".
    @pytest.mark.parametrize("n_tests, rule", [
        (True, "an integer"), (2.5, "an integer"), (2.0, "an integer"), ("3", "an integer"), (None, "an integer"),
        (0, "a positive integer"), (-1, "a positive integer"),
        (10**18 + 1, r"at most 10\*\*18"), (2**63 - 1, r"at most 10\*\*18"), (10**30, r"at most 10\*\*18"),
    ])
    def test_rejects_a_bad_test_count(self, n_tests, rule):
        with pytest.raises(ValueError, match=rf"^n_tests must be {rule}, got {re.escape(repr(n_tests))}$"):
            qsv_one(0.5, n_tests, 2)

    def test_takes_a_numpy_integer_test_count(self):
        assert qsv_one(0.25, np.int64(50), 2) == qsv_one(0.25, 50, 2)

    @pytest.mark.parametrize("n_tests", [10**18, np.int64(10**18)])
    def test_draws_the_largest_test_counts_at_once(self, n_tests):
        # Per-test draws would need exabytes here; one binomial takes microseconds.
        start = time.perf_counter()
        passed = qsv_one(0.99, n_tests, 7)
        assert time.perf_counter() - start < 1.0
        assert type(passed) is int and passed == binomial_passed(0.99, n_tests, 7)
        eps_hat, _error, low, high = qsv_interval(passed, n_tests)
        assert 0.0 < low <= eps_hat <= high < 0.02

    def test_real_coefficient_target(self, rng):
        a = rng.normal(size=4)
        a /= np.linalg.norm(a)
        assert qsv_one(masked_fidelity(density(masker_matrix() @ a), a), 1000, 4) == 1000

    def test_nested_lists_match_arrays(self):
        fids = [0.9, 0.5, 1.0]
        assert qsv_run(np.array(fids), 500, 3) == qsv_run(fids, 500, 3)

    def test_passed_is_one_binomial_draw_for_the_probes(self):
        for idx in (1, 2, 3, 4):
            a = probe_vector(idx)
            f = masked_fidelity(apply_depolarizing(density(masker_matrix() @ a), 0.01), a)
            for n_tests in (1, 5000, 100_000, 10**18):
                seed = derive_seed(20404, "fig3.qsv", idx)
                assert qsv_one(f, n_tests, seed) == binomial_passed(f, n_tests, seed)

    def test_passed_is_one_binomial_draw_for_random_states(self, rng):
        for i in range(200):
            a = rng.normal(size=4)
            a /= np.linalg.norm(a)
            f = masked_fidelity(random_density(4, rng), a)
            assert qsv_one(f, 2000, i) == binomial_passed(f, 2000, i)

    @pytest.mark.parametrize("f, p", [(1.0 + 2.2e-16, 1.0), (1.0 + 1e-10, 1.0), (-1e-10, 1 / 3), (-0.0, 1 / 3)])
    def test_round_off_outside_the_unit_interval_is_clipped(self, f, p):
        # numpy's binomial refuses p = 1.0000000000000002, which a noiseless
        # masked probe's fidelity gives.
        assert qsv_one(f, 5000, 9) == int(generator(9).binomial(5000, p))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1.0 + 1e-9, -1e-9, 1.5, -0.5])
    def test_rejects_a_fidelity_outside_the_unit_interval(self, bad):
        with pytest.raises(ValueError, match=rf"^row 0: fidelity must be a finite number in \[0, 1\], "
                                             rf"got {re.escape(repr(bad))}$"):
            qsv_one(bad, 10, 0)

    @pytest.mark.parametrize("bad", [0.5, [[0.5]], np.ones((2, 3))], ids=["scalar", "column", "table"])
    def test_rejects_what_is_not_a_row_of_fidelities(self, bad):
        with pytest.raises(ValueError, match=r"^fidelities must be an \(n,\) array, got shape"):
            qsv_run(bad, 10, 0)

    def test_experiment_scale_arithmetic(self):
        # S = 4986 of N = 5000 maps to eps_hat = 0.0042, fidelity 0.9958.
        lo, hi = agresti_coull(4986, 5000)
        eps_hat, error, low, high = qsv_interval(4986, 5000)
        assert eps_hat == pytest.approx(0.0042, abs=1e-12)
        assert 1.0 - eps_hat == pytest.approx(0.9958, abs=1e-12)
        assert (low, high) == (lo, hi) and lo <= eps_hat <= hi
        assert error == max(eps_hat - lo, hi - eps_hat)

    def test_unbiased_over_many_runs(self):
        # E[eps_hat] = eps within 2 standard errors at N = 5000.
        n, runs = 5000, 500
        for eps in (0.0, 0.005, 0.02):
            f = masked_fidelity(apply_depolarizing(density(BELL_PHI), eps / 0.75), E0)
            estimates = np.empty(runs)
            for i in range(runs):
                estimates[i] = qsv_interval(qsv_one(f, n, derive_seed(10, "bias", eps, i)), n)[0]
            p_succ = 1 - 2 * eps / 3
            se = 1.5 * np.sqrt(p_succ * (1 - p_succ) / n) / np.sqrt(runs)
            assert abs(estimates.mean() - eps) <= max(2 * se, 1e-12)


class TestQsvStack:
    """An (n,) stack of fidelities in one qsv_run call, drawn from one generator."""

    def test_probe_stack_draws_one_binomial_per_probe(self):
        _probs, fids = experiments._fig3_model(0.01)
        seed = derive_seed(20404, "fig3.qsv")
        rng = generator(seed)
        assert qsv_run(fids, 5000, seed) == [int(rng.binomial(5000, (1 + 2 * f) / 3)) for f in fids.tolist()]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, 1.0 + 1e-9, -1e-9])
    def test_bad_fidelity_row_is_named(self, bad):
        with pytest.raises(ValueError, match=r"^row 1: fidelity must be a finite number in \[0, 1\]"):
            qsv_run([1.0, bad, bad], 10, 0)

    @pytest.mark.parametrize("seed", [-1, 2**64, 1.0, [1, 2]])
    def test_a_bad_seed_is_refused(self, seed):
        with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, 2\*\*64\), got {re.escape(repr(seed))}$"):
            qsv_run([0.25, 0.25], 10, seed)

    def test_empty_stack_gives_no_results(self):
        assert qsv_run(np.zeros(0), 10, 0) == []

    def test_reads_a_read_only_model_unaltered(self):
        _probs, fids = experiments._fig3_model(0.01)
        assert not fids.flags.writeable
        before = fids.copy()
        assert qsv_run(fids, 100, 1) == qsv_run(fids.tolist(), 100, 1)
        assert np.array_equal(fids, before)


class TestQsvInterval:
    """`qsv_interval` reads a pass count as fig3 reports it."""

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 10**18), st.data())
    def test_the_interval_holds_the_estimate_and_its_error_is_the_wider_side(self, total, data):
        passed = data.draw(st.integers(0, total))
        eps_hat, error, low, high = qsv_interval(passed, total)
        lo, hi = agresti_coull(passed, total)
        assert eps_hat == 1.5 * (1.0 - passed / total)
        assert 0.0 <= low <= min(lo, eps_hat) and max(hi, eps_hat) <= high <= 1.5
        assert error == max(eps_hat - low, high - eps_hat)

    @pytest.mark.parametrize("passed, total", [(1.5, 3), (True, 3), (5, 4), (0, 0)])
    def test_rejects_bad_counts_as_agresti_coull_does(self, passed, total):
        with pytest.raises(ValueError, match=r"^need integers 0 <= passed <= total with total >= 1, got "):
            qsv_interval(passed, total)


# Fidelities of the exact-coverage check: the default config's probes, then
# noisier states; and the fixed seed and size of its one draw, never re-picked.
COVERAGE_FIDELITIES = (0.9925, 0.95, 0.9, 0.8, 0.6)
COVERAGE_SEED, COVERAGE_DRAWS = 0, 4000


class TestExactQsvCoverage:
    """`helpers.exact_qsv_coverage` sums the binomial law of `qsv_run`'s pass
    counts over the intervals of `qsv_interval` that hold 1 - F."""

    @pytest.mark.parametrize("n_tests, p", [(50, 0.995), (5000, 0.99), (7, 1.0)])
    def test_the_law_sums_to_one(self, n_tests, p):
        # Log-gamma's rounding leaves about 2e-12 at N = 5000.
        assert math.fsum(binomial_pmf(k, n_tests, p) for k in range(n_tests + 1)) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("fidelity", COVERAGE_FIDELITIES)
    def test_it_is_the_covering_share_of_drawn_pass_counts(self, fidelity):
        # Within 3 binomial standard errors of the share over fixed draws at N = 50.
        n_tests, draws = 50, COVERAGE_DRAWS
        want = exact_qsv_coverage(fidelity, n_tests)
        passes = qsv_run([fidelity] * draws, n_tests, COVERAGE_SEED)
        intervals = [qsv_interval(passed, n_tests) for passed in passes]
        covered = sum(low <= 1.0 - fidelity <= high for _eps, _err, low, high in intervals)
        assert abs(covered / draws - want) <= 3 * math.sqrt(want * (1 - want) / draws)

    def test_the_default_configs_coverage_falls_short_of_95_percent(self):
        # Recorded in ROADMAP item 9: Agresti-Coull oscillates below nominal.
        config = ExperimentConfig()
        fidelities = experiments._fig3_model(config.noise_p)[1].tolist()
        coverage = [exact_qsv_coverage(f, config.qsv_tests) for f in fidelities]
        assert coverage == pytest.approx([0.94447] * 4, abs=1e-5)

    def test_a_pure_state_is_covered_when_every_test_passes(self):
        assert exact_qsv_coverage(1.0, 50) == float(qsv_interval(50, 50)[2] == 0.0)


class TestAgrestiCoull:
    def test_frozen_experiment_scale_values(self):
        # Independent transcription of the interval construction gives
        # [0.0024319624060, 0.0071131418152] for S=4986, N=5000 at 95%.
        lo, hi = agresti_coull(4986, 5000)
        assert lo == pytest.approx(0.0024319624060001686, abs=1e-15)
        assert hi == pytest.approx(0.007113141815247045, abs=1e-15)

    def test_perfect_score_interval_shrinks(self):
        lo1, hi1 = agresti_coull(1000, 1000)
        lo2, hi2 = agresti_coull(100_000, 100_000)
        assert lo1 == 0.0 and lo2 == 0.0
        assert hi2 < hi1
        assert hi2 < 1e-3

    def test_endpoints_clipped_to_range(self):
        lo, hi = agresti_coull(0, 5)
        assert 0.0 <= lo <= hi <= 1.5

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 100_000), st.data())
    def test_contains_point_estimate(self, total, data):
        passed = data.draw(st.integers(0, total))
        lo, hi = agresti_coull(passed, total)
        eps_hat = np.clip(1.5 * (1 - passed / total), 0.0, 1.5)
        assert lo <= eps_hat + 1e-12
        assert hi >= eps_hat - 1e-12

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            agresti_coull(5, 4)

    # 1.5 and True used to give an interval.
    @pytest.mark.parametrize("passed, total", [
        (1.5, 3), (True, 3), (1, 3.0), (2, True), ("1", 3), (None, 3), (5, 4), (-1, 3), (0, 0),
    ])
    def test_rejects_bad_counts(self, passed, total):
        message = rf"^need integers 0 <= passed <= total with total >= 1, got {re.escape(f'{passed!r}/{total!r}')}$"
        with pytest.raises(ValueError, match=message):
            agresti_coull(passed, total)

    def test_takes_numpy_integers(self):
        assert agresti_coull(np.int64(4986), np.uint32(5000)) == agresti_coull(4986, 5000)

    def test_kappa_is_the_975_normal_quantile(self):
        # Written as a literal, so that importing the estimators loads no `statistics`.
        assert estimate._KAPPA == NormalDist().inv_cdf(0.975)

    @pytest.mark.parametrize("passed, total", [(4986, 5000), (0, 5), (5, 5), (3, 10**18)])
    def test_endpoints_are_plain_floats(self, passed, total):
        assert [type(x) for x in agresti_coull(passed, total)] == [float, float]
        assert [type(x) for x in qsv_interval(passed, total)] == [float] * 4


class TestTomography:
    def test_flat_counts_give_maximally_mixed(self):
        n = 4000
        counts = np.full((1, 3, 2), n // 2)
        assert np.abs(mle_qubit_batch(counts)[0] - np.eye(2) / 2).max() < 1e-9
        assert purity_from_counts(counts)[0] == pytest.approx(0.5, abs=1e-9)

    def test_pure_z_counts_give_ground_state(self):
        n = 4000
        counts = np.array([[[n // 2, n // 2], [n // 2, n // 2], [n, 0]]])
        assert np.abs(mle_qubit_batch(counts)[0] - np.diag([1.0, 0.0])).max() < 1e-6
        assert purity_from_counts(counts)[0] == pytest.approx(1.0, abs=1e-6)

    def test_simulate_then_reconstruct(self, rng):
        for _ in range(5):
            bloch = rng.normal(size=3)
            bloch *= rng.uniform(0, 0.95) / np.linalg.norm(bloch)
            rho = checked_density((np.eye(2) + bloch[0] * np.array([[0, 1], [1, 0]])
                                   + bloch[1] * np.array([[0, -1j], [1j, 0]])
                                   + bloch[2] * np.diag([1, -1])) / 2)
            counts = bell_counts(rho, 1_000_000, seed=int(rng.integers(2**32)))
            assert trace_distance(mle_qubit_batch(counts[None])[0], rho) < 0.005

    def test_mle_matches_linear_inversion_inside_ball(self, rng):
        for trial in range(20):
            bloch = rng.normal(size=3)
            bloch *= rng.uniform(0.0, 0.8) / np.linalg.norm(bloch)
            counts = np.stack([
                np.array([(1 + b) / 2 * 10**7, (1 - b) / 2 * 10**7]) for b in bloch
            ])
            rho = mle_qubit_batch(counts[None])[0]
            lin = (np.eye(2, dtype=complex)
                   + bloch[0] * np.array([[0, 1], [1, 0]])
                   + bloch[1] * np.array([[0, -1j], [1j, 0]])
                   + bloch[2] * np.diag([1, -1])) / 2
            assert trace_distance(rho, lin) < 1e-6

    def test_boundary_fit_is_exact(self, rng):
        # The linear inversion (0.05, -0.055, 1) lies outside the Bloch ball,
        # so the estimate is the point of the sphere where the likelihood
        # gradient is normal to it.
        counts = np.array([[210.0, 190.0], [189.0, 211.0], [400.0, 0.0]])
        bloch = bloch_of(mle_qubit_batch(counts[None])[0])
        assert np.linalg.norm(linear_inversion(counts)) > 1.0
        assert np.linalg.norm(bloch) == pytest.approx(1.0, abs=1e-12)
        assert purity_from_counts(counts[None])[0] == pytest.approx(1.0, abs=1e-12)
        lam, residual = lagrange_condition(bloch, counts)
        assert lam > 0.0
        assert residual <= KKT_LIMIT
        # No nearby point of the sphere is more likely.
        best = log_likelihood(bloch, counts)
        for step in rng.normal(scale=1e-3, size=(200, 3)):
            other = (bloch + step) / np.linalg.norm(bloch + step)
            assert log_likelihood(other, counts) <= best

    def test_empty_axes_are_maximally_mixed(self):
        counts = np.array([[[0.0, 0.0], [0.0, 0.0], [3.0, 1.0]], [[0.0, 0.0]] * 3])
        rhos = mle_qubit_batch(counts)
        assert np.array_equal(rhos[0], np.array([[0.75, 0.0], [0.0, 0.25]], dtype=complex))
        assert np.array_equal(rhos[1], np.eye(2, dtype=complex) / 2)

    def test_batch_shape(self):
        counts = np.tile(np.array([[500.0, 500.0]] * 3), (7, 1, 1))
        rhos = mle_qubit_batch(counts)
        assert rhos.shape == (7, 2, 2)

    def test_optional_bootstrap_fills_std_purity(self):
        n = 4000
        _, (std,) = bootstrap_std(purity_from_counts, np.full((1, 3, 2), n // 2), 2, resamples=50)
        assert 0.0 < std < 0.02


def axis_counts(max_shots: int):
    return st.integers(0, max_shots).flatmap(lambda n: st.integers(0, n).map(lambda k: (k, n - k)))


@st.composite
def near_pure_counts(draw):
    """X/Y/Z counts of an almost pure state, so the linear inversion lands
    near the Bloch sphere, on either side of it."""
    direction = np.array(draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3)))
    assume(np.linalg.norm(direction) > 1e-3)
    direction /= np.linalg.norm(direction)
    items = []
    for b in direction:
        shots = draw(st.integers(1, 10_000))
        plus = min(max(round(shots * (1 + b) / 2) + draw(st.integers(-3, 3)), 0), shots)
        items.append((plus, shots - plus))
    return tuple(items)


class TestExactMle:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.tuples(*[axis_counts(10)] * 3), near_pure_counts()),
                    min_size=1, max_size=6))
    def test_exact_mle_properties(self, items):
        counts = np.array(items, dtype=float)
        rhos = mle_qubit_batch(counts)
        for i, rho in enumerate(rhos):
            assert np.abs(rho - rho.conj().T).max() == 0.0
            assert abs(np.trace(rho) - 1.0) <= 1e-15
            assert np.linalg.eigvalsh(rho).min() >= -1e-15
            r, r_lin = bloch_of(rho), linear_inversion(counts[i])
            if (r_lin * r_lin).sum() <= 1.0:
                assert np.abs(r - r_lin).max() <= 1e-15
            else:
                assert abs(np.linalg.norm(r) - 1.0) <= 1e-12
                lam, residual = lagrange_condition(r, counts[i])
                assert lam >= 0.0
                assert residual <= KKT_LIMIT
            assert mle_qubit_batch(counts[i:i + 1])[0].tobytes() == rho.tobytes()

    def test_matches_bisection_oracle(self):
        counts = seeded_boundary_counts(5000, seed=91)
        got = np.array([bloch_of(rho) for rho in mle_qubit_batch(counts)])
        want = np.array([bisect_sphere_fit(c[:, 0].tolist(), c[:, 1].tolist()) for c in counts])
        assert np.abs(got - want).max() <= 1e-14
        assert np.all(purity_from_counts(counts) == 1.0)
        for r, r_oracle, c in zip(got, want, counts):
            best = log_likelihood(r_oracle, c)
            assert best - log_likelihood(r, c) <= 1e-12 * abs(best)

    def test_batch_rows_match_batches_of_one(self):
        counts = seeded_boundary_counts(5000, seed=91)[:4000]
        rhos = mle_qubit_batch(counts)
        for i, rho in enumerate(rhos):
            assert mle_qubit_batch(counts[i:i + 1])[0].tobytes() == rho.tobytes()

    @pytest.mark.parametrize("item", [
        # b = 0 on every axis
        [[5, 0], [3, 0], [7, 0]],
        [[1, 0], [1, 0], [1, 0]],
        [[0, 9], [4, 0], [10**9, 0]],
        # 1-shot axes
        [[1, 0], [0, 1], [1, 0]],
        [[0, 1], [1, 0], [2, 1]],
        # an empty axis beside a boundary pair
        [[1, 0], [0, 1], [0, 0]],
        [[4000, 0], [0, 0], [2, 1]],
        [[10, 0], [0, 0], [0, 10]],
        [[10**9, 1], [0, 3], [0, 0]],
        # counts up to 1e9
        [[10**9, 1], [0, 10**9], [3, 0]],
        [[123456789, 1], [987654321, 2], [0, 7]],
        [[1, 0], [1, 0], [10**9, 0]],
        [[10**9, 0], [6 * 10**8, 4 * 10**8], [0, 0]],
    ])
    def test_edge_items_end_on_the_sphere(self, item):
        counts = np.array(item, dtype=float)
        assert np.linalg.norm(linear_inversion(counts)) > 1.0
        rho = mle_qubit_batch(counts[None])[0]
        r = bloch_of(rho)
        assert np.isfinite(rho).all()
        assert 1.0 - 1e-15 <= np.linalg.norm(r) <= 1.0 + 1e-15
        assert np.linalg.eigvalsh(rho).min() >= -1e-15
        assert purity_from_counts(counts[None])[0] == 1.0

    def test_small_multiplier_item_is_exact(self, rng):
        # The linear inversion lies just outside the ball, so lam is near 0 and
        # the relative KKT residual is ill-conditioned (8.4e-9 here); check the
        # fit against nearby sphere points instead.
        counts = np.array([[6766.0, 1474.0], [6313.0, 2308.0], [7910.0, 1918.0]])
        bloch = bloch_of(mle_qubit_batch(counts[None])[0])
        assert np.linalg.norm(linear_inversion(counts)) > 1.0
        assert np.linalg.norm(bloch) == pytest.approx(1.0, abs=1e-12)
        best = log_likelihood(bloch, counts)
        for step in rng.normal(scale=1e-3, size=(200, 3)):
            other = (bloch + step) / np.linalg.norm(bloch + step)
            assert log_likelihood(other, counts) <= best

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_counts(self, bad):
        counts = np.full((2, 3, 2), 10.0)
        counts[1, 2, 0] = bad
        for estimator in (mle_qubit_batch, purity_from_counts):
            with pytest.raises(ValueError, match="finite"):
                estimator(counts)
        with pytest.raises(ValueError, match="finite"):
            purity_from_counts(np.full((1, 3, 2), bad))

    @pytest.mark.parametrize("bad", [np.ones((2, 3, 3)), np.ones(3), np.ones((2, 2, 2)), np.ones((1, 1, 3, 2))],
                             ids=["three-outcome", "row", "two-axis", "four-dim"])
    def test_rejects_counts_of_another_shape(self, bad):
        for estimator in (mle_qubit_batch, purity_from_counts):
            with pytest.raises(ValueError, match=r"^counts must have shape \(batch, 3, 2\)$"):
                estimator(bad)

    def test_rejects_a_negative_count(self):
        counts = np.full((2, 3, 2), 10.0)
        counts[1, 0, 1] = -1.0
        for estimator in (mle_qubit_batch, purity_from_counts):
            with pytest.raises(ValueError, match="^counts must be finite and nonnegative$"):
                estimator(counts)



def big_axis_counts():
    """One axis of 10**9 shots."""
    return st.integers(0, 10**9).map(lambda k: (k, 10**9 - k))


def mixed_items():
    """Items inside the ball, near-pure items on either side of the sphere,
    and items with empty and 10**9-shot axes."""
    axis = st.one_of(axis_counts(10), st.just((0, 0)), big_axis_counts())
    return st.one_of(st.tuples(*[axis] * 3), near_pure_counts())


class TestPurityFromCounts:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(mixed_items(), min_size=1, max_size=6))
    # tr(rho^2) of the complex MLE matrix reads above (1 + r.r)/2 by 2**-53
    # in the first and by 2**-52 in the second.
    @example([((1, 1), (1, 1), (16, 1))])
    @example([((0, 0), (0, 0), (0, 0)), ((21, 4), (1, 1), (66, 11))])
    def test_is_the_mle_purity(self, items):
        # Inside the ball the MLE is the linear inversion r, so its purity is
        # (1 + r.r)/2 to the last bit, and tr(rho^2) of the MLE matrix to
        # within 2**-52, one ulp of the largest purity 1; outside it the MLE
        # lies on the sphere, with purity 1.
        counts = np.array(items, dtype=float)
        got = purity_from_counts(counts)
        r = np.array([linear_inversion(c) for c in counts])
        r2 = r[:, 0] * r[:, 0] + r[:, 1] * r[:, 1] + r[:, 2] * r[:, 2]
        outside = r2 > 1.0
        assert got[~outside].tobytes() == (0.5 * (1.0 + r2[~outside])).tobytes()
        assert np.all(got[outside] == 1.0)
        rhos = mle_qubit_batch(counts)
        trace = np.einsum("bij,bji->b", rhos, rhos).real
        assert np.all(np.abs(got - trace)[~outside] <= np.spacing(1.0))

    def test_runs_no_sphere_fit(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("purity_from_counts ran a sphere fit")

        monkeypatch.setattr(estimate, "_sphere_fit", refuse)
        assert np.all(purity_from_counts(seeded_boundary_counts(5000, seed=91)) == 1.0)


def table_moments(probs) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(3, 3) means x of qubit A and y of qubit B and the correlator t of
    each pair table (j, k) of a (9, 4) Born table."""
    p = np.asarray(probs).reshape(3, 3, 2, 2)
    return (p[..., 0, :].sum(axis=-1) - p[..., 1, :].sum(axis=-1), p[..., 0].sum(axis=-1) - p[..., 1].sum(axis=-1),
            p[..., 0, 0] - p[..., 0, 1] - p[..., 1, 0] + p[..., 1, 1])


def exact_covariance(probs, n: int) -> float:
    """Cov(Q^_A, Q^_B) of nine pair tables of `n` shots each: the closed form
    at the tables' own moments, summed over the tables."""
    x, y, t = table_moments(probs)
    return float(estimate._square_covariance(t * t, x * y * t, x * x * y * y, n).sum())


def axis_tables(plus_a, plus_b, n: int) -> np.ndarray:
    """(9, 4) pair tables of `n` shots whose A and B marginals, summed over
    each axis's three tables, count `plus_a[j]` and `plus_b[k]` outcomes +
    of 3n: each sum split as evenly as it goes over its three tables, and
    each table's cells n++ = min(a, b), then the others, from its two
    marginals a and b."""
    def split(total):  # (3,) sums -> (3, 3) counts, row j over its three tables
        base, extra = np.divmod(np.asarray(total), 3)
        return base[:, None] + (np.arange(3) < extra[:, None])
    a, b = split(plus_a), split(plus_b).T
    both = np.minimum(a, b)
    return np.stack([both, a - both, b - both, n - a - b + both], axis=-1).reshape(9, 4)


class TestSquaredBlochLength:
    """`squared_bloch_length` on nine pair tables: each qubit's axes are the
    summed marginals of 3N shots, held to the exact binomial law of one axis
    (`helpers.exact_square_moments`), and the qubits' covariance to the exact
    law of a shared table (`helpers.exact_square_covariance`)."""

    @pytest.mark.parametrize("n, r", [(3, 0.0), (6, 0.0), (9, 0.3), (120, 0.9)])
    def test_the_square_is_unbiased_with_the_closed_form_variance(self, n, r):
        mean, var = exact_square_moments(n, r)
        assert mean == pytest.approx(r * r, abs=1e-12)
        assert estimate._square_variance(r * r, n) == pytest.approx(var, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_each_outcome_gives_its_square_and_the_variance_at_it(self, n):
        # Three axes of k and m - k counts of m = 3n, signs alternating, for
        # both qubits: Q = 3 u_k, its variance three times that of u at r^2 =
        # clip(u_k, 0, 1).  At k = 0 and m every axis reads one outcome.
        m = 3 * n
        for k in range(1, m):
            u = (m * ((2 * k - m) / m) ** 2 - 1.0) / (m - 1.0)
            q, var, cov = squared_bloch_length(axis_tables([k, m - k, k], [m - k, k, k], n), n)
            assert q.shape == var.shape == (2,) and cov.shape == ()
            assert q == pytest.approx([3.0 * u] * 2, abs=1e-12)
            want = 3.0 * estimate._square_variance(min(max(u, 0.0), 1.0), m)
            assert var == pytest.approx([want] * 2, abs=1e-15) and (var >= 0.0).all()

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_three_unanimous_axes_read_the_plug_in_with_the_stated_bound(self, n):
        # Each of A's axes reads one outcome, so every u_k is 1: Q would read
        # 3 with no variance.  It reads the plug-in 1 with the stated bound
        # 1/4.  B has one mixed axis, so it keeps the unbiased estimate, which
        # may exceed 1.
        m = 3 * n
        q, var, _cov = squared_bloch_length(axis_tables([m, 0, m], [m, m - 1, 0], n), n)
        u = (m * ((m - 2) / m) ** 2 - 1.0) / (m - 1.0)
        assert q[0] == 1.0 and var[0] == 0.25
        assert q[1] == pytest.approx(2.0 + u, abs=1e-12) and var[1] > 0.0

    def test_a_pure_axis_has_no_variance_and_a_mixed_one_has_some(self):
        q, var, _cov = squared_bloch_length(axis_tables([30, 15, 0], [0, 15, 30], 10), 10)
        assert q == pytest.approx([2.0 - 1.0 / 29.0] * 2, abs=1e-15)
        assert var == pytest.approx([estimate._square_variance(0.0, 30)] * 2, abs=1e-18) and (var > 0.0).all()

    def test_without_shots_it_is_the_squared_length_of_both_reduced_states(self):
        rhos = np.stack([random_density(4, np.random.default_rng(seed)) for seed in range(5)])
        q, var, cov = squared_bloch_length(pair_probs(rhos), None)
        for qubit, keep in enumerate("AB"):
            reduced = partial_trace(rhos, keep)
            want = [sum(np.trace(rho @ PAULIS[ax]).real ** 2 for ax in AXES) for rho in reduced]
            assert q[:, qubit] == pytest.approx(want, abs=1e-15)
        assert var.shape == (5, 2) and cov.shape == (5,) and not var.any() and not cov.any()

    def test_one_shot_tables_give_three_shot_axes(self):
        # Each axis of each qubit reads two outcomes + and one -: r = 1/3, so
        # u = (3/9 - 1)/2 = -1/3 on every axis, unbiased where one shot alone
        # could not be.
        q, var, _cov = squared_bloch_length(axis_tables([2, 2, 2], [2, 2, 2], 1), 1)
        assert q == pytest.approx([-1.0, -1.0], abs=1e-15)
        assert var == pytest.approx([3.0 * estimate._square_variance(0.0, 3)] * 2, abs=1e-15)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**32 - 1), st.integers(1, 9)), min_size=1, max_size=8),
           st.sampled_from([(-1,), (2, -1)]))
    def test_each_item_of_a_stack_reads_as_it_would_alone(self, items, shape):
        n = 9
        counts = np.array([np.random.default_rng(seed).multinomial(n, np.ones(4) / 4, size=9) for seed, _ in items])
        if shape == (2, -1) and len(items) % 2:
            counts = np.concatenate([counts, counts[:1]])
        stacked = counts.reshape(*shape, 9, 4)
        got = squared_bloch_length(stacked, n)
        assert [v.shape for v in got] == [(*stacked.shape[:-2], 2), (*stacked.shape[:-2], 2), stacked.shape[:-2]]
        alone = [squared_bloch_length(item, n) for item in counts]
        for value, want in zip(got, zip(*alone)):
            assert value.tobytes() == np.array(want).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 40))
    def test_the_qubits_swap_with_their_tables(self, seed, n):
        # Table (j, k) read with the qubits' roles swapped is table (k, j)
        # with its outcomes (a, b) read as (b, a).
        counts = np.random.default_rng(seed).multinomial(n, np.random.default_rng(seed).dirichlet(np.ones(4)), size=9)
        swapped = counts.reshape(3, 3, 2, 2).transpose(1, 0, 3, 2).reshape(9, 4)
        (q, var, cov), (q_s, var_s, cov_s) = squared_bloch_length(counts, n), squared_bloch_length(swapped, n)
        assert q.tolist() == q_s[::-1].tolist() and var.tolist() == var_s[::-1].tolist()
        assert cov == pytest.approx(cov_s, rel=1e-12, abs=1e-300)

    def test_the_covariance_estimate_is_not_clipped(self):
        # One-shot tables whose marginals read a covariance beyond the bound
        # sqrt(Var_A Var_B) of any covariance: the estimate stays unbiased.
        q, var, cov = squared_bloch_length(np.array([[1, 0, 0, 0]] * 8 + [[0, 0, 0, 1]]), 1)
        assert cov > math.sqrt(var[0] * var[1]) > 0.0

    def test_the_largest_shots_give_finite_moments(self):
        n = 10**18
        counts = axis_tables([3 * n, 3 * n // 2, 0], [0, 3 * n // 2, 3 * n], n)
        q, var, cov = squared_bloch_length(counts, n)
        assert np.isfinite([*q, *var, cov]).all() and (var > 0.0).all()
        assert q == pytest.approx([2.0, 2.0], abs=1e-15)

    def test_counts_above_two_to_the_53_are_summed_exactly(self):
        # Each count rounds as a float, and the rounded pair sums to n - 2.
        n = 18_014_398_445_206_346
        counts = np.array([[9_007_199_178_507_249, 9_007_199_266_699_097, 0, 0]] * 9)
        assert float(counts[0, 0]) + float(counts[0, 1]) != n
        assert np.isfinite(np.concatenate([np.ravel(v) for v in squared_bloch_length(counts, n)])).all()
        with pytest.raises(ValueError, match=f"^every table must hold shots = {n} whole counts$"):
            squared_bloch_length(counts + np.array([1, 0, 0, 0]), n)

    @pytest.mark.parametrize("counts, shots, message", [
        (np.ones((3, 2)), 2, r"counts must have shape \(\.\.\., 9, 4\)"),
        (np.ones((9, 2)), 2, r"counts must have shape \(\.\.\., 9, 4\)"),
        (np.ones(36), 2, r"counts must have shape \(\.\.\., 9, 4\)"),
        ([[1, 1, 0, 0]] * 8 + [[2, 1, 0, 0]], 2, "every table must hold shots = 2 whole counts"),
        ([[1, 1, 0, 0]] * 8 + [[3, -1, 0, 0]], 2, "counts must be finite and nonnegative"),
        ([[1, 1, 0, 0]] * 8 + [[1, math.nan, 0, 0]], 2, "counts must be finite and nonnegative"),
        ([[1, 1, 0, 0]] * 9, 0, "shots must be "),
        ([[1, 1, 0, 0]] * 9, 2.5, "shots must be "),
        ([[1, 0, 0, 0]] * 9, True, "shots must be "),
        ([[1, 1, 0, 0]] * 9, 10**19, "shots must be "),
    ])
    def test_refuses(self, counts, shots, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            squared_bloch_length(counts, shots)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    @pytest.mark.parametrize("state", ["probe 1", "probe 4 noisy", "random pure", "random mixed"])
    def test_the_closed_form_covariance_is_the_exact_law(self, state, n):
        """`_square_covariance` at each table's moments, summed over the nine
        tables, against the exact law of the shared table and the four tables
        it does not share, enumerated outcome by outcome."""
        rng = np.random.default_rng(3)
        probs = {"probe 1": lambda: masked_pair_probs(1, 0.0), "probe 4 noisy": lambda: masked_pair_probs(4, 0.3),
                 "random pure": lambda: pair_probs(density(random_unitary(4, rng)[:, 0])),
                 "random mixed": lambda: pair_probs(random_density(4, rng))}[state]()
        x, y, t = table_moments(probs)
        want = math.fsum(exact_square_covariance(n, *args) for args in zip(x.ravel(), y.ravel(), t.ravel()))
        assert exact_covariance(probs, n) == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("n, within", [(40, 0.2), (400, 0.1)])
    @pytest.mark.parametrize("probe, noise_p", [(1, 0.0), (1, 0.3), (4, 0.0), (4, 0.3)])
    def test_the_covariance_estimate_is_unbiased_at_the_masked_point(self, probe, noise_p, n, within):
        """The reduced states of a masked probe are maximally mixed, x = y =
        0, where a plug-in product x^ y^ reads about 3 times the covariance.
        The estimate's mean over 40,000 draws (8 seeds of 5,000 tables each)
        lies within `within` of the exact covariance."""
        probs = masked_pair_probs(probe, noise_p)
        estimates = [squared_bloch_length(sample_counts(np.broadcast_to(probs, (5000, 9, 4)), n, seed), n)[2]
                     for seed in range(8)]
        assert np.mean(estimates) == pytest.approx(exact_covariance(probs, n), rel=within)


class TestBootstrap:
    def test_constant_quantity_has_zero_std(self):
        counts = np.array([[100, 100]])
        assert bootstrap_std(lambda c: np.ones(len(c)), counts, 0, resamples=50)[1][0] == 0.0

    def test_purity_std_scale_for_mixed_data(self):
        n = 4000
        counts = np.full((1, 3, 2), n // 2)
        _, (std,) = bootstrap_std(purity_from_counts, counts, 1, resamples=100)
        assert 0.0 < std < 0.02

    def test_two_resamples_run(self):
        # The smallest count accepted: the spread is the std of the two redraws.
        counts = np.array([[30, 70]])
        point, (std,) = bootstrap_std(lambda c: c[:, 0] / c.sum(axis=1), counts, 7, resamples=2)
        draws = poisson_resample(counts, 2, 7)[:, 0]
        assert point.tolist() == [0.3]
        assert std == np.std(draws[:, 0] / draws.sum(axis=1), ddof=1) > 0.0

    def test_resamples_minimum(self):
        with pytest.raises(ValueError):
            bootstrap_std(lambda c: c.sum(axis=1), np.zeros((1, 2)), 0, resamples=1)

    # True used to be refused as "need at least 2 resamples" and 3.0 ended in numpy's TypeError.
    @pytest.mark.parametrize("resamples", [1, 0, True, 2.5, 3.0, "3", None])
    def test_rejects_a_bad_resample_count(self, resamples):
        with pytest.raises(ValueError, match=rf"^resamples must be an integer >= 2, got {re.escape(repr(resamples))}$"):
            bootstrap_std(lambda c: c.sum(axis=1), np.ones((1, 2)), 0, resamples=resamples)

    def test_concurrence_std_at_zero_phase(self):
        # Masked (|0>+|1>)/sqrt(2): path qubit maximally mixed, concurrence 1.
        from realmask.masker import mask_pure
        from realmask.qcore import partial_trace

        psi = np.array([1.0, 1.0, 0.0, 0.0]) / np.sqrt(2)
        rho_path = partial_trace(density(mask_pure(psi)), "A")
        counts = bell_counts(rho_path, 10_000, seed=31)

        def concurrence(c):
            return concurrence_from_purity(purity_from_counts(c))

        _, (std,) = bootstrap_std(concurrence, counts[None], 32, resamples=100)
        assert 0.0 < std < 0.02

    def test_one_poisson_draw_per_estimate(self):
        # The quantity sees the counts, then exactly generator(seed).poisson(counts, size=(R, ...)).
        counts = np.array([[[30, 10], [0, 0]], [[5, 7], [1, 0]]])
        seen = []

        def first_count(c):
            seen.append(c)
            return c[:, 0, 0, 0].astype(float)

        (point,), (std,) = bootstrap_std(first_count, counts[None], 9, resamples=40)
        want = generator(9).poisson(counts, size=(40, 2, 2, 2))
        assert len(seen) == 1 and np.array_equal(seen[0], np.concatenate([counts[None], want]))
        assert point == 30.0
        assert std == float(np.std(want[:, 0, 0, 0], ddof=1))

    def test_quantity_must_give_one_value_per_resample(self):
        with pytest.raises(ValueError, match="shape"):
            bootstrap_std(lambda c: c.sum(), np.array([[5, 5]]), 0, resamples=10)

    def test_a_stack_spreads_over_its_redrawn_stacks(self, rng):
        # Zero-count axes, a boundary item and 1-shot axes beside ordinary ones:
        # each item's spread is the std of its values over the redrawn stacks.
        counts = np.concatenate([
            rng.integers(0, 400, size=(6, 3, 2)),
            [[[0, 0], [0, 0], [0, 0]], [[1, 0], [0, 1], [1, 0]], [[900, 0], [450, 450], [450, 450]]],
        ])
        seed = derive_seed(3, "stack")
        point, stacked = bootstrap_std(purity_from_counts, counts, seed, resamples=100)
        redrawn = generator(seed).poisson(counts, size=(100, *counts.shape))
        values = purity_from_counts(redrawn.reshape(-1, 3, 2)).reshape(100, len(counts))
        assert point.shape == stacked.shape == (len(counts),)
        assert np.array_equal(point, purity_from_counts(counts))
        # Summed down the resample axis, not pairwise along a lone row: equal to round-off.
        assert np.allclose(stacked, [np.std(values[:, i], ddof=1) for i in range(len(counts))], rtol=1e-12, atol=0)

    def test_each_entry_of_a_row_spreads_as_a_lone_value(self, rng):
        # fig3's quantity gives the path and polarization purities and their
        # mean; each column's point and spread are those of that column alone.
        counts = np.concatenate([rng.integers(0, 400, size=(5, 2, 3, 2)), np.zeros((1, 2, 3, 2), dtype=int)])
        seed = derive_seed(5, "columns")

        def columns(c):
            pur = purity_from_counts(c.reshape(-1, 3, 2)).reshape(-1, 2)
            return np.column_stack([pur, pur.mean(axis=1)])

        point, std = bootstrap_std(columns, counts, seed, resamples=100)
        assert point.shape == std.shape == (len(counts), 3)
        for k in range(3):
            alone = bootstrap_std(lambda c: columns(c)[:, k], counts, seed, resamples=100)
            assert np.array_equal(point[:, k], alone[0]) and np.array_equal(std[:, k], alone[1])

    def test_the_stack_draws_from_one_generator(self):
        # The items, then each redrawn stack in turn, all from generator(seed).
        counts = np.array([[[30, 10]], [[5, 7]]])
        seen = []

        def total(c):
            seen.append(c)
            return c.sum(axis=(1, 2)).astype(float)

        bootstrap_std(total, counts, 4, resamples=5)
        want = np.concatenate([counts, generator(4).poisson(counts, size=(5, 2, 1, 2)).reshape(10, 1, 2)])
        assert len(seen) == 1 and np.array_equal(seen[0], want)

    def test_empty_stack_gives_no_values(self):
        point, std = bootstrap_std(purity_from_counts, np.zeros((0, 3, 2)), 0, resamples=10)
        assert point.shape == std.shape == (0,)


class TestMaskedOutputTomography:
    def test_reduced_purities_near_half_across_seeds(self):
        # 4000 shots/basis at p = 0.01 noise: both reduced purities land in
        # [0.48, 0.53] for essentially every seed.
        from realmask.masker import mask_pure
        from realmask.qcore import partial_trace

        inside = 0
        total = 0
        for idx in (1, 2, 3, 4):
            rho = apply_depolarizing(density(mask_pure(probe_vector(idx))), 0.01)
            for qubit in ("A", "B"):
                red = partial_trace(rho, qubit)
                for s in range(10):
                    counts = bell_counts(red, 4000, seed=derive_seed(77, idx, qubit, s))
                    mle = mle_qubit_batch(counts[None])[0]
                    total += 1
                    inside += 0.48 <= float(np.trace(mle @ mle).real) <= 0.53
        assert inside >= 0.95 * total


class TestCorrelationMatrix:
    def test_exact_bell_correlators(self):
        t = exact_correlators(density(BELL_PHI))
        assert np.abs(t - np.diag([1.0, -1.0, 1.0])).max() < 1e-12

    def test_exact_masked_uniform_input(self):
        c = np.ones(4) / 2
        rho = mask_state(np.outer(c, c))
        t = exact_correlators(rho)
        want = np.array([[0, -1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        assert np.abs(t - want).max() < 1e-12

    def test_maximally_mixed_vanishes(self):
        t = exact_correlators(np.eye(4) / 4)
        assert np.abs(t).max() < 1e-12

    def test_counts_path_matches_exact_at_degenerate_probs(self):
        counts = np.array([
            sample_counts(p, 4000, derive_seed(5, pair[0], pair[1]))
            for pair, p in zip(PAIRS, pair_probs(density(BELL_PHI)))
        ])
        t = correlators(counts).reshape(3, 3)
        # Diagonal correlators are degenerate (probabilities 0/0.5): exact.
        assert np.abs(np.diag(t) - [1.0, -1.0, 1.0]).max() == 0.0
        assert np.abs(t - np.diag([1.0, -1.0, 1.0])).max() < 4 / np.sqrt(4000)


class TestDecode:
    @pytest.mark.parametrize("bad", [np.eye(2), np.ones(3), np.ones((3, 4)), np.ones((2, 4, 3))])
    def test_refuses_a_matrix_that_is_not_3x3(self, bad):
        with pytest.raises(ValueError, match="^correlation matrix must be 3x3$"):
            decode_real_state(bad)

    def test_diagonal_t_gives_ground_state(self):
        rho_hat, _rho_proj = decode_real_state(np.diag([1.0, -1.0, 1.0]))
        want = np.zeros((4, 4))
        want[0, 0] = 1.0
        assert np.abs(rho_hat - want).max() < 1e-12

    def test_uniform_probe_t(self):
        t = np.array([[0, -1, 0], [0, 0, 1], [1, 0, 0]], dtype=float)
        rho_hat, _rho_proj = decode_real_state(t)
        assert np.abs(rho_hat - 0.25).max() < 1e-12

    def test_round_trip_exact(self, rng):
        rhos = [random_real_density(4, rng) for _ in range(300)]
        ts = np.array([exact_correlators(mask_state(rho)) for rho in rhos])
        raw, _proj = decode_real_state(ts)
        for got, rho in zip(raw, rhos):
            assert trace_distance(got.astype(complex), rho) < 1e-12

    def test_a_pure_input_decodes_to_itself(self):
        c = np.ones(4) / 2
        _rho_hat, rho_proj = decode_real_state(exact_correlators(mask_state(np.outer(c, c))))
        assert fidelity_with_pure(rho_proj, c) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("shape", [(), (2,), (2, 3)])
    def test_returns_two_real_stacks_shaped_like_the_correlators(self, shape):
        out = decode_real_state(np.zeros(shape + (3, 3)))
        assert type(out) is tuple and len(out) == 2
        for rho in out:
            assert type(rho) is np.ndarray and rho.dtype == np.float64 and rho.shape == shape + (4, 4)

    def test_rejects_oversized_correlators(self):
        with pytest.raises(ValueError):
            decode_real_state(np.full((3, 3), 1.5))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_correlators(self, value):
        # A NaN entry used to pass the magnitude check and fail inside eigh.
        ts = np.zeros((2, 3, 3))
        ts[1, 2, 0] = value
        with pytest.raises(ValueError, match="NaN or infinite"):
            decode_real_state(ts)

    def test_rejects_one_oversized_item_of_a_stack(self):
        ts = np.zeros((4, 3, 3))
        ts[2, 1, 0] = -1.5
        with pytest.raises(ValueError, match="magnitude"):
            decode_real_state(ts)

    def test_map_is_derived_once(self):
        from realmask.estimate import _decode_map

        kmap = _decode_map()
        assert kmap is _decode_map()
        assert not kmap.flags.writeable
        assert np.array_equal(kmap * 4, np.round(kmap * 4))

    @settings(max_examples=100, deadline=None)
    @given(correlator_stacks())
    def test_map_matches_hand_formulas(self, ts):
        got, _proj = decode_real_state(ts)
        assert np.array_equal(got, np.array([hand_decode(t) for t in ts]))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-1, 1, allow_nan=False), min_size=16, max_size=16))
    def test_round_trip_random_real_state(self, entries):
        g = np.reshape(entries, (4, 4))
        m = g.T @ g
        assume(np.trace(m) > 1e-3)
        rho = m / np.trace(m)
        rho_hat, _rho_proj = decode_real_state(exact_correlators(mask_state(rho)))
        assert np.abs(rho_hat - rho).max() < 1e-12

    @settings(max_examples=60, deadline=None)
    @given(correlator_stacks())
    def test_stack_rows_match_single_decodes(self, ts):
        rho_hat, rho_proj = decode_real_state(ts)
        for i, t in enumerate(ts):
            one_hat, one_proj = decode_real_state(t)
            assert np.array_equal(rho_hat[i], one_hat)
            assert np.array_equal(rho_proj[i], one_proj)

    def test_zero_stack_decodes_to_maximally_mixed(self):
        # A resample in which every setting drew no shots has all-zero correlators.
        _rho_hat, rho_proj = decode_real_state(np.zeros((5, 3, 3)))
        assert np.isfinite(rho_proj).all()
        assert np.abs(rho_proj - np.eye(4) / 4).max() < 1e-15
        assert np.abs(fidelity_with_pure(rho_proj, np.ones(4) / 2) - 0.25).max() < 1e-15


def masked_pair_probs(probe: int, noise_p: float) -> np.ndarray:
    """(9, 4) Born tables of the masked probe under depolarizing noise."""
    a = probe_vector(probe)
    return pair_probs(apply_depolarizing(mask_state(np.outer(a, a)), noise_p))


class TestDecodeFidelity:
    """`decode_fidelity` on the nine pair tables of a masked probe, with the
    weights `decode_weights` gives that probe."""

    @pytest.mark.parametrize("noise_p", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("probe", [1, 2, 3, 4])
    def test_analytic_tables_give_the_raw_decodes_fidelity_with_no_error(self, probe, noise_p):
        a, probs = probe_vector(probe), masked_pair_probs(probe, noise_p)
        fid, error = decode_fidelity(probs, None, decode_weights(a))
        rho_raw = decode_real_state(correlators(probs).reshape(3, 3))[0]
        assert type(fid) is float and type(error) is float
        assert error == 0.0
        assert abs(fid - fidelity_with_pure(rho_raw, a)) <= 1e-15

    @pytest.mark.parametrize("noise_p", [0.01, 0.3])
    @pytest.mark.parametrize("probe", [1, 2, 3, 4])
    def test_drawn_tables_give_the_raw_decodes_fidelity(self, probe, noise_p):
        a = probe_vector(probe)
        counts = sample_counts(masked_pair_probs(probe, noise_p), 50, 11)
        fid, error = decode_fidelity(counts, 50, decode_weights(a))
        assert abs(fid - fidelity_with_pure(decode_real_state(correlators(counts).reshape(3, 3))[0], a)) <= 1e-15
        assert 0.0 < error < math.inf

    @pytest.mark.parametrize("table", [[2, 0, 0, 0], [4, 0, 0, 0], [2.5, 0, 0, 0], [1.5, 1.5, 0, 0],
                                       [0.5, 0.5, 1, 1]])
    def test_tables_that_do_not_hold_the_shots_are_refused(self, table):
        counts = np.array([[1, 1, 1, 0]] * 9, dtype=np.asarray(table).dtype)
        counts[4] = table
        with pytest.raises(ValueError, match="^every table must hold shots = 3 whole counts$"):
            decode_fidelity(counts, 3, decode_weights(probe_vector(4)))

    @pytest.mark.parametrize("counts, weights, shots, message", [
        (np.ones((3, 3, 4)), np.ones(10), 4, r"counts must have shape \(9, 4\)$"),
        (np.ones((9, 2)), np.ones(10), 2, r"counts must have shape \(9, 4\)$"),
        (np.ones((1, 9, 4)), np.ones(10), 4, r"counts must have shape \(9, 4\)$"),
        (np.ones((9, 4)), np.ones(9), 4, r"weights must have shape \(10,\), got \(9,\)$"),
        (np.ones((9, 4)), np.ones(10), 0, "shots must be "),
        (np.ones((9, 4)), np.ones(10), True, "shots must be "),
    ])
    def test_refuses(self, counts, weights, shots, message):
        with pytest.raises(ValueError, match=f"^{message}"):
            decode_fidelity(counts, shots, weights)

    @pytest.mark.parametrize("probe", [1, 2, 3, 4])
    def test_one_shot_tables_give_the_variance_bound(self, probe):
        # One shot per table shows no spread: the error is the bound
        # sqrt(sum w_n^2 / N), as Var T_n <= 1/N.
        w = decode_weights(probe_vector(probe))
        counts = sample_counts(masked_pair_probs(probe, 0.01), 1, probe)
        assert decode_fidelity(counts, 1, w)[1] == math.sqrt(math.fsum((w[1:] ** 2).tolist())) > 0.0

    @pytest.mark.parametrize("n", [2, 5, 7, 4000])
    def test_a_unanimous_table_reads_the_rule_of_three_bound(self, n):
        # Five tables read one outcome each, four read n - 1 and 1.  A
        # unanimous table's variance is 4 q (1 - q)/N at q = min(3/N, 1/2),
        # which is 1/N up to 6 shots; the others keep (1 - T^2)/(N - 1).
        w = decode_weights(probe_vector(3))
        unanimous = [[n, 0, 0, 0], [0, n, 0, 0], [0, 0, n, 0], [0, 0, 0, n], [n, 0, 0, 0]]
        counts = np.array(unanimous + [[n - 1, 1, 0, 0], [0, 1, 0, n - 1], [1, n - 1, 0, 0], [0, 0, 1, n - 1]])
        q = min(Fraction(3, n), Fraction(1, 2))
        bound = 4 * q * (1 - q) / n
        assert (bound == Fraction(1, n)) == (n <= 6)
        t = [Fraction(a - b - c + d, n) for a, b, c, d in counts.tolist()]
        var = [bound if abs(x) == 1 else (1 - x * x) / (n - 1) for x in t]
        want = math.sqrt(sum(Fraction(wn) ** 2 * v for wn, v in zip(w[1:], var)))
        assert decode_fidelity(counts, n, w)[1] == pytest.approx(want, rel=1e-12)


# Each estimator that reads count tables: its (rows, outcomes) table, the
# words its refusal gives the stack ahead of the tables, whether it takes
# shots, and a call on counts and shots.
COUNT_READERS = {
    "squared_bloch_length": ((9, 4), "..., ", True, squared_bloch_length),
    "decode_fidelity": ((9, 4), "", True, lambda counts, shots: decode_fidelity(counts, shots, np.ones(10))),
    "mle_qubit_batch": ((3, 2), "batch, ", False, lambda counts, shots: mle_qubit_batch(counts)),
    "purity_from_counts": ((3, 2), "batch, ", False, lambda counts, shots: purity_from_counts(counts)),
}


# Each fault of a count table: the shots it is read at, the last table's
# first two counts (None: every table an outcome short), and the refusal.
COUNT_FAULTS = {
    "nan": (None, [math.nan, 1.0], "counts must be finite and nonnegative"),
    "inf": (None, [math.inf, 1.0], "counts must be finite and nonnegative"),
    "-inf": (None, [-math.inf, 1.0], "counts must be finite and nonnegative"),
    "negative": (None, [-1.0, 3.0], "counts must be finite and nonnegative"),
    "an-outcome-short": (None, None, "counts must have shape ({stack}{rows}, {outcomes})"),
    "negative-at-shots": (2, [3.0, -1.0], "counts must be finite and nonnegative"),
    "nan-at-shots": (2, [math.nan, 1.0], "counts must be finite and nonnegative"),
    "fractional": (2, [0.5, 1.5], "every table must hold shots = 2 whole counts"),
    "too-few": (2, [1.0, 0.0], "every table must hold shots = 2 whole counts"),
    "too-many": (2, [3.0, 0.0], "every table must hold shots = 2 whole counts"),
    "no-shots": (0, [1.0, 1.0], "shots must be a positive integer, got 0"),
}


class TestCountTables:
    """The four count readers check a table by one rule,
    `measure._count_tables`, and refuse each fault in the same words."""

    @pytest.mark.parametrize("reader, fault", [
        pytest.param(reader, fault, id=f"{reader}-{fault}")
        for fault in COUNT_FAULTS for reader in COUNT_READERS
        # Two readers take no shots, so they read only analytic faults.
        if COUNT_FAULTS[fault][0] is None or COUNT_READERS[reader][2]
    ])
    def test_every_reader_refuses_a_fault_in_the_same_words(self, reader, fault):
        (rows, outcomes), stack, _takes_shots, read = COUNT_READERS[reader]
        shots, last, message = COUNT_FAULTS[fault]
        counts = np.zeros((rows, outcomes))
        counts[:, :2] = 1.0
        if last is None:
            counts = counts[:, :-1]
        else:
            counts[-1, :2] = last
        want = message.format(stack=stack, rows=rows, outcomes=outcomes)
        with pytest.raises(ValueError, match=f"^{re.escape(want)}$"):
            read(counts, shots)

    @pytest.mark.parametrize("reader", COUNT_READERS)
    def test_every_reader_takes_the_valid_table(self, reader):
        (rows, outcomes), _stack, _takes_shots, read = COUNT_READERS[reader]
        counts = np.zeros((rows, outcomes), dtype=int)
        counts[:, :2] = 1
        read(counts, 2)
        read(counts / 2.0, None)

    def test_fractional_counts_are_refused_at_a_given_shots(self):
        # Each table sums to the shots, yet no draw gives half a count.
        with pytest.raises(ValueError, match="^every table must hold shots = 3 whole counts$"):
            decode_fidelity(np.full((9, 4), 1.5) * [1, 1, 0, 0], 3, decode_weights(probe_vector(4)))
        with pytest.raises(ValueError, match="^every table must hold shots = 3 whole counts$"):
            squared_bloch_length([[2.5, 0.5, 0, 0], [1.5, 1.5, 0, 0]] + [[3, 0, 0, 0]] * 7, 3)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -1.0])
    def test_decode_fidelity_in_analytic_mode_refuses_a_faulty_table(self, bad):
        # `correlators` alone reads a table whose sum is not positive as one of
        # no shots, which would give the fidelity w_0 with error 0.
        with pytest.raises(ValueError, match="^counts must be finite and nonnegative$"):
            decode_fidelity(np.full((9, 4), bad), None, decode_weights(probe_vector(4)))


@st.composite
def unit_trace_stacks(draw) -> np.ndarray:
    """(n, d, d) stacks, d = 2 or 4, of unit-trace complex Hermitian or real
    symmetric matrices: full-rank and rank-deficient density matrices,
    matrices with negative eigenvalues down to round-off size, and the I/d
    that an all-zero correlator matrix decodes to."""
    d, real = draw(st.sampled_from([2, 4])), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mats = []
    for kind in draw(st.lists(st.sampled_from(["full", "deficient", "negative", "round-off", "zero"]),
                              min_size=1, max_size=6)):
        if kind == "zero":
            mats.append(decode_real_state(np.zeros((3, 3)))[0] if d == 4 else np.eye(2) / 2)
            continue
        if kind == "full":
            vals = rng.dirichlet(np.ones(d))
        elif kind == "deficient":
            k = rng.integers(1, d)
            vals = np.concatenate([rng.dirichlet(np.ones(k)), np.zeros(d - k)])
        else:
            vals = rng.uniform(0.0, 1.0, size=d)
            vals[0] = -(rng.uniform(0.0, 0.5) if kind == "negative" else 10.0 ** rng.uniform(-16, -11))
            vals[1:] *= (1.0 - vals[0]) / vals[1:].sum()
        vecs = np.linalg.qr(rng.normal(size=(d, d)))[0] if real else random_unitary(d, rng)
        mats.append((vecs * vals) @ vecs.conj().T)
    return np.array(mats).real if real else np.array(mats)


class TestProjection:
    @settings(max_examples=200, deadline=None)
    @given(unit_trace_stacks())
    def test_matches_the_reference_and_is_a_density_matrix(self, mats):
        out = project_to_density(mats)
        assert np.abs(out - reference_project_to_density(mats)).max() <= 1e-14
        assert np.array_equal(out, out.conj().swapaxes(-1, -2))
        assert np.abs(np.trace(out, axis1=-2, axis2=-1) - 1.0).max() <= EPS_EXACT
        assert np.linalg.eigvalsh(out).min() >= -1e-14
        checked_density(out)

    @settings(max_examples=100, deadline=None)
    @given(unit_trace_stacks())
    def test_works_in_the_field_of_its_input(self, mats):
        # A complex stack projects exactly as the oracle does; a real one
        # stays real, within round-off of the oracle's complex arithmetic.
        out = project_to_density(mats)
        assert out.dtype == mats.dtype
        if np.iscomplexobj(mats):
            assert np.array_equal(out, reference_project_to_density(mats))
        else:
            assert np.abs(out - reference_project_to_density(mats)).max() <= 1e-14

    def test_a_bootstrap_stack_is_decomposed_once(self, monkeypatch):
        """One `eigh` per decoded stack, in real arithmetic: for 100 resampled
        tables alone and for a sampled fig4 run, which decodes its one table."""
        a = probe_vector(4)
        counts = sample_counts(pair_probs(mask_state(np.outer(a, a))), 4000, 9)
        ts = correlators(poisson_resample(counts, 100, 7)).reshape(-1, 3, 3)
        run_fig4(ExperimentConfig(seed=3))  # builds fig4's model, whose state check is no `eigh`
        calls = {"eigh": [], "eigvalsh": []}
        for name in calls:
            def spy(mat, *args, _name=name, _original=getattr(np.linalg, name), **kwargs):
                calls[_name].append((np.shape(mat), np.asarray(mat).dtype))
                return _original(mat, *args, **kwargs)
            monkeypatch.setattr(np.linalg, name, spy)
        assert decode_real_state(ts)[1].dtype == np.float64
        assert calls == {"eigh": [((100, 4, 4), np.float64)], "eigvalsh": []}
        calls["eigh"].clear()
        run_fig4(ExperimentConfig(seed=4))
        assert calls == {"eigh": [((4, 4), np.float64)], "eigvalsh": []}

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_refuses_a_non_finite_matrix(self, value):
        mat = np.eye(4) / 4
        mat[1, 2] = value
        with pytest.raises(ValueError, match="non-finite"):
            project_to_density(mat)

    def test_refuses_a_spectrum_beyond_rounding(self):
        # At 1e17 the simplex shift loses the 1 of the trace to rounding.
        with pytest.raises(ValueError, match=r"^projected spectrum sums to 1 only within 7\.500e\+16$"):
            project_to_density(np.diag([1e17, 1.0, 0.0, 0.0]))

    def test_valid_state_unchanged(self, rng):
        rho = random_real_density(4, rng)
        out = project_to_density(rho)
        assert trace_distance(out, rho) < 1e-12

    def test_repairs_negative_eigenvalue(self):
        mat = np.diag([0.7, 0.4, -0.1, 0.0])
        out = project_to_density(mat)
        vals = np.linalg.eigvalsh(out)
        assert vals.min() >= -1e-14
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.floats(-2, 2, allow_nan=False), min_size=2, max_size=6))
    def test_simplex_projection_properties(self, values):
        from realmask.estimate import _simplex_projection

        v = np.asarray(values)
        p = _simplex_projection(v)
        assert p.min() >= 0.0
        assert p.sum() == pytest.approx(1.0, abs=1e-9)
        # Projection is idempotent.
        assert np.abs(_simplex_projection(p) - p).max() < 1e-9

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 6), st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_simplex_projection_rows_match_single(self, n, d, seed):
        from realmask.estimate import _simplex_projection

        v = np.random.default_rng(seed).normal(size=(n, d))
        out = _simplex_projection(v)
        for row, x in zip(out, v):
            assert np.array_equal(row, _simplex_projection(x))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 5), st.integers(0, 2**32 - 1))
    def test_projection_rows_match_single(self, n, seed):
        # Unit-trace real symmetric matrices, many with negative eigenvalues.
        g = np.random.default_rng(seed).normal(size=(n, 4, 4))
        sym = g + g.swapaxes(1, 2)
        sym -= np.trace(sym, axis1=1, axis2=2)[:, None, None] * np.eye(4) / 4
        mats = np.eye(4) / 4 + 0.1 * sym
        out = project_to_density(mats)
        for row, mat in zip(out, mats):
            assert np.array_equal(row, project_to_density(mat))

