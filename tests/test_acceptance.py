"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently.

Criteria 1-6 are exact-path (deterministic, noiseless); criteria 7-11 are
seeded Monte Carlo reproductions of the experimental statistics at the
experiment's sample sizes (5000 verification tests, 4000/10000 shots per
setting).
"""
import math
import time

import numpy as np

from realmask import measure, optics, walk
from realmask.estimate import agresti_coull, decode_real_state, qsv_interval, qsv_run, squared_bloch_length
from realmask.experiments import ExperimentConfig, phase_probe, probe_vector, run_fig3
from realmask.masker import hr_unitaries, mask_pure, masker_matrix
from realmask.measure import (
    PAIRS,
    apply_depolarizing,
    correlators,
    derive_seed,
    pair_probs,
    sample_counts,
)
from realmask.qcore import BELL_PHI, fidelity_with_pure, partial_trace

from helpers import (
    density,
    haar_state,
    inner,
    magic_basis,
    mask_state,
    prepared_amplitudes,
    pure_fidelity,
    random_real_density,
    robustness_of_imaginarity,
    spin_flip_concurrence,
    trace_distance,
    verification_operator,
)

SEED = 20404


def _report(num: int, text: str) -> None:
    print(f"\nACCEPTANCE {num:2d} PASS — {text}")


def test_criterion_1_triple_equivalence():
    """Walk, masker and optical table agree pairwise on 100 real inputs in < 5 s."""
    rng = np.random.default_rng(SEED)
    m = masker_matrix()
    start = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        a = rng.normal(size=4)
        a /= np.linalg.norm(a)
        ref = m @ a
        via_walk = walk.run_masking_walk(a)
        via_optics = optics.simulate_masking(a)
        worst = max(
            worst,
            1 - pure_fidelity(ref, via_walk),
            1 - pure_fidelity(ref, via_optics),
            1 - pure_fidelity(via_walk, via_optics),
        )
    elapsed = time.perf_counter() - start
    assert worst < 1e-10
    assert elapsed < 5.0
    _report(1, f"triple equivalence: max pairwise infidelity {worst:.2e} in {elapsed:.2f} s")


def test_criterion_2_masking_exactness():
    """Both reductions of every masked real state sit at 1/2 to 1e-12."""
    rng = np.random.default_rng(SEED + 1)
    worst = 0.0
    for _ in range(1000):
        out = mask_state(random_real_density(4, rng))
        worst = max(
            worst,
            trace_distance(partial_trace(out, "A"), np.eye(2) / 2),
            trace_distance(partial_trace(out, "B"), np.eye(2) / 2),
        )
    assert worst < 1e-12
    _report(2, f"masking exactness on 1000 real states: max trace distance {worst:.2e}")


def test_criterion_3_concurrence_imaginarity_relation():
    """C(M psi) = sqrt(1 - I_R(psi)^2) on 1000 random pure ququarts."""
    rng = np.random.default_rng(SEED + 2)
    worst = 0.0
    for _ in range(1000):
        psi = haar_state(4, rng)
        c = spin_flip_concurrence(mask_pure(psi))
        i_r = robustness_of_imaginarity(density(psi))
        worst = max(worst, abs(c - math.sqrt(max(0.0, 1 - i_r**2))))
    assert worst < 1e-10
    _report(3, f"concurrence-imaginarity relation on 1000 states: max deviation {worst:.2e}")


def test_criterion_4_decode_round_trip():
    """Correlator decoding inverts the masker exactly on 1000 real states."""
    rng = np.random.default_rng(SEED + 3)
    rhos = [random_real_density(4, rng) for _ in range(1000)]
    ts = np.array([correlators(pair_probs(mask_state(rho))).reshape(3, 3) for rho in rhos])
    raw, _proj = decode_real_state(ts)
    worst = max(trace_distance(r.astype(complex), rho) for r, rho in zip(raw, rhos))
    assert worst < 1e-12
    _report(4, f"decode round-trip on 1000 real states: max trace distance {worst:.2e}")


def test_criterion_5_algebraic_identities():
    """Anticommutators, magic-basis orthonormality and the verification operator."""
    mats = hr_unitaries()[1:]
    worst = 0.0
    for j, uj in enumerate(mats):
        for k, uk in enumerate(mats):
            want = -2 * np.eye(2) if j == k else np.zeros((2, 2))
            worst = max(worst, np.abs(uj @ uk + uk @ uj - want).max())
    basis = magic_basis()
    for j, bj in enumerate(basis):
        for k, bk in enumerate(basis):
            worst = max(worst, abs(inner(bj, bk) - (1.0 if j == k else 0.0)))
    omega = verification_operator(np.eye(2))
    proj = np.outer(BELL_PHI, BELL_PHI.conj())
    worst = max(worst, np.abs(omega - (proj + (np.eye(4) - proj) / 3)).max())
    assert worst < 1e-12
    _report(5, f"HR / magic-basis / verification-operator identities: max deviation {worst:.2e}")


def test_criterion_6_preparation_solvers():
    """Angle solver round-trips 1000 targets; phase pipeline exact on the grid."""
    rng = np.random.default_rng(SEED + 4)
    worst = 0.0
    for _ in range(1000):
        a = rng.normal(size=4)
        a /= np.linalg.norm(a)
        state = optics.simulate_preparation(optics.solve_prep_angles(a))
        worst = max(worst, np.abs(prepared_amplitudes(state) - a).max())
    assert worst < 1e-10
    worst_phase = 0.0
    for phi in (0.0, 30.0, 45.0, 60.0, 90.0):  # pi/6, pi/4, pi/3, pi/2 in degrees
        state = optics.simulate_preparation(optics.phase_prep_angles(phi))
        vec = prepared_amplitudes(state)
        want = np.array([1.0, np.exp(1j * math.radians(phi)), 0, 0]) / np.sqrt(2)
        worst_phase = max(worst_phase, 1 - abs(np.vdot(want, vec)) ** 2)
    assert worst_phase < 1e-12
    _report(6, f"prep solver round-trip max error {worst:.2e}; phase-pipeline max infidelity {worst_phase:.2e}")


def test_criterion_7_fig3_fidelities():
    """Verification fidelities at p=0.01, N=5000: all >= 0.98, medians in [0.985, 0.998]."""
    start = time.perf_counter()
    canonical = []
    medians = []
    for idx in (1, 2, 3, 4):
        a = probe_vector(idx)
        target = mask_pure(a)
        rho = apply_depolarizing(density(target), 0.01)
        fidelity = np.vdot(target, rho @ target).real
        fids = [
            1.0 - qsv_interval(qsv_run([fidelity], 5000, derive_seed(SEED, "accept7", idx, s))[0], 5000)[0]
            for s in range(50)
        ]
        canonical.append(fids[0])
        medians.append(float(np.median(fids)))
    elapsed = time.perf_counter() - start
    assert all(f >= 0.98 for f in canonical)
    assert all(0.985 <= m <= 0.998 for m in medians)
    assert elapsed < 60.0
    _report(7, f"fig3 fidelities {[f'{f:.4f}' for f in canonical]}, "
               f"medians over 50 seeds {[f'{m:.4f}' for m in medians]} in {elapsed:.1f} s")


def test_criterion_8_fig3_purities():
    """Average reduced purities in [0.48, 0.53] with closed-form errors reported."""
    report = run_fig3(ExperimentConfig(seed=SEED))
    assert "resamples" not in report
    purities = []
    for row in report["probes"]:
        p = row["purity"]
        assert 0.48 <= p["estimate"] <= 0.53
        assert p["error_kind"] == "std"
        assert 0.0 < p["error"] < 0.02
        purities.append(p["estimate"])
    _report(8, f"fig3 purities {[f'{p:.4f}' for p in purities]} (closed-form std reported)")


def test_criterion_9_fig4_decoding():
    """Median decoding fidelity over 100 seeds lands in [0.980, 0.995]."""
    a = probe_vector(4)
    rho = apply_depolarizing(density(mask_pure(a)), 0.01)
    probs = pair_probs(rho)
    fids = []
    for s in range(100):
        counts = np.array([
            sample_counts(p, 4000, derive_seed(SEED, "accept9", s, pair[0], pair[1]))
            for pair, p in zip(PAIRS, probs)
        ])
        t = correlators(counts).reshape(3, 3)
        fids.append(fidelity_with_pure(decode_real_state(t)[1], a))
    median = float(np.median(fids))
    assert 0.980 <= median <= 0.995
    _report(9, f"fig4 decoding: median fidelity {median:.4f} over 100 seeds (target 0.989)")


def test_criterion_10_fig5_curve():
    """Noiseless concurrence tracks cos(phi) within 0.03 in >= 95% of 50 runs."""
    phis = (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)
    prob_table = pair_probs(np.stack([density(mask_pure(phase_probe(p))) for p in phis]))
    theory = np.cos(np.radians(phis))
    runs_ok = 0
    worst = 0.0
    for s in range(50):
        # Nine pair tables per phase; the path qubit's axes are their marginals.
        counts = sample_counts(prob_table, 10_000, derive_seed(SEED, "accept10", s))
        q = squared_bloch_length(counts, 10_000)[0][:, 0]
        c_est = np.sqrt(np.clip(1 - q, 0.0, 1.0))
        dev = np.abs(c_est - theory)
        worst = max(worst, float(dev.max()))
        if (dev < 0.03).all():
            runs_ok += 1
    assert runs_ok >= 48  # 95% of 50
    _report(10, f"fig5 curve: {runs_ok}/50 runs inside 0.03 everywhere (worst deviation {worst:.4f})")


def test_criterion_11_interval_coverage():
    """95% infidelity intervals cover the truth in >= 92% of 1000 trials."""
    coverages = {}
    for eps in (0.005, 0.01, 0.02):
        p_succ = 1 - 2 * eps / 3
        draws = measure.generator(derive_seed(SEED, "accept11", eps)).binomial(5000, p_succ, size=1000)
        hits = 0
        for s in draws:
            lo, hi = agresti_coull(int(s), 5000)
            hits += lo <= eps <= hi
        coverages[eps] = hits / 10.0
        assert hits >= 920
    _report(11, "interval coverage " + ", ".join(f"eps={e}: {c:.1f}%" for e, c in coverages.items()))
