"""The stacked fig3/fig5 pipelines against per-point oracles.

The oracles below run each probe or phase point on its own, with its own
density matrices and MLE calls, as the pipelines did before they processed a
figure as one stack.  They draw as the one-generator law says: each of a
run's draws (verification, tomography) takes one generator keyed
by one sub-seed, and its rows are drawn from it one after another in the
stack's order, so the reports must agree byte for byte.
"""
import collections
import csv
import dataclasses
import io
import json
import math
import os
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realmask import estimate, experiments, masker, measure, optics, qcore, walk
from realmask.experiments import (
    PROBE_LABELS,
    ExperimentConfig,
    phase_probe,
    probe_vector,
    report_texts,
    report_row,
    run_fig3,
    run_fig4,
    run_fig5,
)
from realmask.masker import mask_pure
from realmask.measure import derive_seed
from realmask.qcore import fidelity_with_pure, partial_trace

from helpers import (INT_DIGITS, concurrence_from_purity, density, json_leaf_rows, purity, reference_report_json,
                     spin_flip_concurrence, tables_csv, wootters_concurrence)


def oracle_row(target, estimate, error, error_kind, **extra):
    return {"target": target, "estimate": estimate, "error": error, "error_kind": error_kind, **extra}


def oracle_masked_probe(a, noise_p):
    ideal = mask_pure(a)
    rho = density(ideal)
    return ideal, rho if noise_p == 0.0 else measure.apply_depolarizing(rho, noise_p)


def stream(config, *tags):
    """The one generator of a run's draw tagged `tags`."""
    return measure.generator(derive_seed(config.seed, *tags))


def oracle_pauli_counts(rho, shots, rng):
    """One state's X/Y/Z or pair tables, each one multinomial draw from `rng`."""
    probs = measure.axis_probs(rho) if rho.shape[-1] == 2 else measure.pair_probs(rho)
    return np.array([rng.multinomial(shots, p / p.sum()) for p in np.clip(probs, 0.0, None)])


class TestProbes:
    def test_probe_vectors(self):
        assert np.allclose(probe_vector(1), [1, 0, 0, 0])
        assert np.allclose(probe_vector(4), [0.5] * 4)
        assert np.linalg.norm(probe_vector(3)) == pytest.approx(1.0)

    def test_probes_form_complete_basis(self):
        basis = np.column_stack([probe_vector(i) for i in (1, 2, 3, 4)])
        assert abs(np.linalg.det(basis)) > 1e-6  # complete but non-orthogonal

    def test_phase_probe(self):
        v = phase_probe(90.0)
        assert v[1] == pytest.approx(1j / np.sqrt(2))

    def test_bad_probe_index(self):
        with pytest.raises(ValueError):
            probe_vector(5)

    # True and 1.0 used to run probe 1 and write "probe": true or 1.0 into the report.
    @pytest.mark.parametrize("probe", [True, False, 1.0, 2.5, "4", None, 0, 5, np.float64(4.0)])
    def test_a_bool_or_non_integer_probe_is_refused(self, probe):
        message = rf"^probe index must be an integer 1\.\.4, got {re.escape(repr(probe))}$"
        with pytest.raises(ValueError, match=message):
            probe_vector(probe)
        with pytest.raises(ValueError, match=message):
            run_fig4(ExperimentConfig(seed=1, analytic=True), probe=probe)

    @pytest.mark.parametrize("analytic", [False, True])
    def test_a_numpy_integer_probe_gives_the_report_of_its_int(self, analytic):
        config = ExperimentConfig(seed=1, analytic=analytic)
        assert np.array_equal(probe_vector(np.int64(2)), probe_vector(2))
        assert report_texts(run_fig4(config, probe=np.int64(2))) == report_texts(run_fig4(config, probe=2))


def oracle_fig3(config):
    shots = config.shots("fig3")
    rows = []
    qsv, tomo = stream(config, "fig3.qsv"), stream(config, "fig3.tomo")
    for idx in (1, 2, 3, 4):
        a = probe_vector(idx)
        ideal, rho = oracle_masked_probe(a, config.noise_p)
        fidelity = fidelity_with_pure(rho, ideal)
        if config.analytic:
            eps = 1.0 - fidelity
            fid = oracle_row(f"probe {idx} fidelity", 1.0 - eps, 0.0, "ci95",
                             eps_hat=eps, eps_low=eps, eps_high=eps, passed=None)
            pur_a, pur_b = (purity(partial_trace(rho, k)) for k in ("A", "B"))
            std = 0.0
        else:
            total = config.qsv_tests
            passed = int(qsv.binomial(total, (1 + 2 * min(fidelity, 1.0)) / 3))  # a pure state's may read 1 + 2e-16
            eps = 1.5 * (1.0 - passed / total)
            low, high = estimate.agresti_coull(passed, total)
            low, high = min(low, eps), max(high, eps)
            fid = oracle_row(f"probe {idx} fidelity", 1.0 - eps, max(eps - low, high - eps), "ci95",
                             eps_hat=eps, eps_low=low, eps_high=high, passed=passed)
            counts = np.array([oracle_pauli_counts(partial_trace(rho, k), shots, tomo) for k in ("A", "B")])
            (q_a, q_b), (var_a, var_b) = (v.tolist() for v in estimate.squared_bloch_length(counts, shots))
            pur_a, pur_b = 0.5 * (1.0 + q_a), 0.5 * (1.0 + q_b)
            std = math.sqrt((var_a + var_b) / 16.0)
        pur = oracle_row(f"probe {idx} avg purity", 0.5 * (pur_a + pur_b), std, "std",
                         path_purity=pur_a, pol_purity=pur_b)
        rows.append({"probe": idx, "target": PROBE_LABELS[idx], "fidelity": fid, "purity": pur})
    sampled = not config.analytic
    return {
        "experiment": "fig3", "seed": config.seed, "noise_p": config.noise_p,
        "qsv_tests": config.qsv_tests if sampled else None, "shots_per_setting": shots if sampled else None,
        "analytic": config.analytic, "probes": rows,
    }


def oracle_fig5(config):
    shots = config.shots("fig5")
    points = []
    tomo = stream(config, "fig5.tomo")
    for phi in config.phi_grid_deg:
        ideal, rho = oracle_masked_probe(phase_probe(phi), config.noise_p)
        rho_path = partial_trace(rho, "A")
        if config.analytic and config.noise_p == 0.0:
            est, std = spin_flip_concurrence(ideal), 0.0
        elif config.analytic:
            est, std = float(concurrence_from_purity(purity(rho_path))), 0.0
        else:
            counts = oracle_pauli_counts(rho_path, shots, tomo)
            (q,), (var,) = (v.tolist() for v in estimate.squared_bloch_length(counts[None], shots))
            est, sd = float(concurrence_from_purity(0.5 * (1.0 + q))), math.sqrt(var)
            floor = max(1.0 - q, sd)
            std = sd / (2.0 * math.sqrt(floor)) if floor > 0.0 else 0.0
        points.append(oracle_row(f"phi = {phi} deg", est, std, "std",
                                 phi_deg=phi, theory_cos=math.cos(math.radians(phi))))
    sampled = not config.analytic
    return {
        "experiment": "fig5", "seed": config.seed, "noise_p": config.noise_p,
        "shots_per_setting": shots if sampled else None, "analytic": config.analytic, "points": points,
    }


CONFIGS = {
    "seed 1": ExperimentConfig(seed=1),
    "seed 9173": ExperimentConfig(seed=9173),
    "seed 20404": ExperimentConfig(seed=20404),
    "noiseless": ExperimentConfig(seed=1, noise_p=0.0),
    "one shot": ExperimentConfig(seed=1, shots_per_setting=1),
    # Some qubits read one outcome on every axis: Q reads 1 with the one-shot bound.
    "two shots noiseless": ExperimentConfig(seed=1, noise_p=0.0, shots_per_setting=2),
    "analytic": ExperimentConfig(seed=1, analytic=True),
    "analytic noiseless": ExperimentConfig(seed=1, noise_p=0.0, analytic=True),
    "analytic noise 0.05": ExperimentConfig(seed=1, noise_p=0.05, analytic=True),
}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("run, oracle", [(run_fig3, oracle_fig3), (run_fig5, oracle_fig5)],
                         ids=["fig3", "fig5"])
def test_stacked_figure_matches_per_point_oracle(run, oracle, config):
    assert report_texts(run(config)) == report_texts(oracle(config))


def test_fig5_off_default_grid_matches_oracle():
    config = ExperimentConfig(seed=5, shots_per_setting=300, phi_grid_deg=(180.0, -45.0, 33.3, 90.0))
    assert report_texts(run_fig5(config)) == report_texts(oracle_fig5(config))


@pytest.mark.parametrize("grid", [(), []])
def test_an_empty_phase_grid_is_refused(grid):
    # It used to write "points": [], a fig5 with no estimate in it.
    message = rf"^phi_grid_deg must be a non-empty list of finite numbers, got {re.escape(repr(grid))}$"
    with pytest.raises(ValueError, match=message):
        ExperimentConfig(phi_grid_deg=grid)


@pytest.mark.parametrize("seed", [1, 5])
def test_noiseless_fig5_at_90_degrees_has_a_finite_nonzero_error(seed):
    """The path qubit is pure at 90 degrees, so Q reads about 1, and at seed
    5 more than 1, where the delta method's sqrt(1 - Q) is 0; the floor
    sd(Q) keeps the error finite and nonzero, and the estimate within it."""
    point = run_fig5(ExperimentConfig(seed=seed, noise_p=0.0))["points"][-1]
    assert point["phi_deg"] == 90.0
    assert 0.0 < point["error"] < 0.02 and 0.0 <= point["estimate"] <= 2.0 * point["error"]
    if seed == 5:
        assert point["estimate"] == 0.0


def test_analytic_noiseless_fig5_is_the_cosine():
    grid = tuple(float(phi) for phi in range(0, 181, 15)) + (33.3, -45.0)
    for point in run_fig5(ExperimentConfig(noise_p=0.0, phi_grid_deg=grid, analytic=True))["points"]:
        assert point["estimate"] <= 1.0
        assert abs(point["estimate"] - abs(point["theory_cos"])) <= 1e-15


@pytest.mark.parametrize("phi", [89.9999, 90.0, -89.9999, 179.9999])
def test_analytic_noiseless_fig5_near_its_zeros_is_the_cosine(phi):
    # Near cos = 0 a concurrence read from a purity, sqrt(2 (1 - P)), keeps
    # few digits; the pure probes' spin-flip formula keeps them all.
    (point,) = run_fig5(ExperimentConfig(noise_p=0.0, phi_grid_deg=(phi,), analytic=True))["points"]
    assert point["estimate"] == pytest.approx(abs(math.cos(math.radians(phi))), rel=1e-12, abs=0.0)


def analytic_fig5_and_concurrence(noise_p, phis):
    """Analytic fig5's estimate and the concurrence of the masked noisy state at each phase."""
    points = run_fig5(ExperimentConfig(noise_p=noise_p, phi_grid_deg=phis, analytic=True))["points"]
    states = [oracle_masked_probe(phase_probe(phi), noise_p)[1] for phi in phis]
    return [(point["estimate"], wootters_concurrence(rho)) for point, rho in zip(points, states)]


@pytest.mark.parametrize("noise_p", [0.0, 0.01, 0.1, 0.3])
def test_analytic_fig5_bounds_the_concurrence_from_above(noise_p):
    # sqrt(2 (1 - tr rho_A^2)) is the concurrence of a pure state only; under
    # noise it is an upper bound.
    for reported, concurrence in analytic_fig5_and_concurrence(noise_p, tuple(map(float, range(0, 181, 15)))):
        if noise_p == 0.0:
            # Square roots of the zero eigenvalues of rho Y rho* Y keep half their digits.
            assert reported == pytest.approx(concurrence, abs=1e-8)
        else:
            assert reported > concurrence


@pytest.mark.parametrize("phi, reported, concurrence", [(90.0, 0.1411, 0.0), (0.0, 1.0, 0.985)])
def test_analytic_fig5_at_the_default_noise_is_no_concurrence(phi, reported, concurrence):
    # The figures the README quotes beside `theory_cos`.
    ((got, want),) = analytic_fig5_and_concurrence(ExperimentConfig().noise_p, (phi,))
    assert (round(got, 4), round(want, 4)) == (reported, concurrence)


@pytest.mark.parametrize("probe", experiments.PROBES)
def test_fig4_draws_its_probes_tables_from_the_probes_stream(probe):
    # fig4 goes through the same stacked states, and each probe draws from a stream of its own.
    config = ExperimentConfig(seed=1)
    rep = run_fig4(config, probe)
    _ideal, rho = oracle_masked_probe(probe_vector(probe), config.noise_p)
    counts = oracle_pauli_counts(rho, config.shots("fig4"), stream(config, "fig4", probe))
    assert rep["correlators"] == measure.correlators(counts).reshape(3, 3).tolist()


# Seeds of the calibration gate, fixed once; never re-picked to pass.
CALIBRATION_SEEDS = range(1000, 1200)


@pytest.mark.parametrize("probe", experiments.PROBES)
def test_fig4_fidelity_error_is_calibrated(probe):
    """At the default config the decode fidelity, taken against the analytic
    value, has z = (F - F_true)/error centred on 0 with unit spread, and
    F +- 1.96 error covers F_true in a binomial band around 95% of the
    seeds.  The projected decode's bootstrap missed low: mean z -1.08 and
    coverage 0.88 for probe 4 at the default config."""
    truth = run_fig4(ExperimentConfig(analytic=True), probe)["fidelity"]["estimate"]
    z = np.array([(row["estimate"] - truth) / row["error"] for row in
                  (run_fig4(ExperimentConfig(seed=seed), probe)["fidelity"] for seed in CALIBRATION_SEEDS)])
    n = len(z)
    assert abs(z.mean()) < 0.3
    assert 0.8 < z.std(ddof=1) < 1.2
    assert abs(np.mean(np.abs(z) <= 1.96) - 0.95) <= 3.0 * math.sqrt(0.95 * 0.05 / n)


def calibration_z(run, rows) -> np.ndarray:
    """(seed, row) array of z = (estimate - analytic value)/error over
    `CALIBRATION_SEEDS` at the default config, for the rows that `rows`
    picks from a report of `run`."""
    truth = [row["estimate"] for row in rows(run(ExperimentConfig(analytic=True)))]
    return np.array([[(row["estimate"] - want) / row["error"]
                      for row, want in zip(rows(run(ExperimentConfig(seed=seed))), truth)]
                     for seed in CALIBRATION_SEEDS])


def test_fig3_purity_error_is_calibrated():
    """Each probe's average purity, taken against the analytic value, has
    |mean z| < 0.3, and its error is not smaller than its spread (sd z <=
    1.2).  The reduced states are maximally mixed, where the plug-in
    variance keeps a first-order term 4 r^2 (1 - r^2)/n that the true law
    lacks, so the bars over-cover: sd z is 0.65-0.69.  The bootstrap read
    mean z +0.94."""
    z = calibration_z(run_fig3, lambda report: [probe["purity"] for probe in report["probes"]])
    assert z.shape == (len(CALIBRATION_SEEDS), len(experiments.PROBES))
    assert (np.abs(z.mean(axis=0)) < 0.3).all()
    assert (z.std(axis=0, ddof=1) <= 1.2).all()


def test_fig5_concurrence_error_is_calibrated():
    """Every phase has |mean z| < 0.3.  At 15-90 degrees sd z lies in [0.8,
    1.2] and C +- 1.96 error covers the analytic value in a binomial band
    around 95% of the seeds; at 0 degrees the path qubit is maximally mixed
    and the bars over-cover, so there sd z is only bounded by 1.2."""
    assert ExperimentConfig().phi_grid_deg[0] == 0.0
    z = calibration_z(run_fig5, lambda report: report["points"])
    n = len(z)
    assert (np.abs(z.mean(axis=0)) < 0.3).all()
    assert z[:, 0].std(ddof=1) <= 1.2
    spread = z[:, 1:].std(axis=0, ddof=1)
    assert ((0.8 <= spread) & (spread <= 1.2)).all()
    coverage = np.mean(np.abs(z[:, 1:]) <= 1.96, axis=0)
    assert (np.abs(coverage - 0.95) <= 3.0 * math.sqrt(0.95 * 0.05 / n)).all()


@pytest.mark.parametrize("run", [run_fig3, run_fig5])
def test_a_one_shot_run_reports_the_stated_bound(run):
    """One shot per table carries no information about Q: the plug-in reads
    purity 1 and concurrence 0, and Q's variance is the bound 1/4 of any
    quantity in [0, 1], so fig3's average purity has the error sqrt(1/4 +
    1/4)/4 and fig5's concurrence sqrt(1/4) / (2 sqrt(max(1 - 1, 1/2)))."""
    report = run(ExperimentConfig(seed=1, shots_per_setting=1))
    if run is run_fig3:
        rows, want = [probe["purity"] for probe in report["probes"]], (1.0, math.sqrt(0.5) / 4.0)
    else:
        rows, want = report["points"], (0.0, 0.5 / (2.0 * math.sqrt(0.5)))
    assert {(row["estimate"], row["error"]) for row in rows} == {want}
    assert all(0.0 < row["error"] < math.inf for row in rows)


def test_noiseless_fig4_decodes_the_fourth_probe_exactly():
    """At p = 0 the fidelity reads only correlators that are +-1 with
    certainty, so it is 1 at every seed.  Their tables are unanimous, which
    4000 shots do not prove deterministic, so the error is the rule of
    three's bound 4 q (1 - q)/N on each, q = 3/N."""
    weights = experiments._fig4_model(0.0, 4)[0]
    n = ExperimentConfig().shots("fig4")
    q = 3.0 / n
    want = math.sqrt(math.fsum((weights[1:] ** 2).tolist()) * 4.0 * q * (1.0 - q) / n)
    for seed in (1, 2, 3):
        row = run_fig4(ExperimentConfig(seed=seed, noise_p=0.0))["fidelity"]
        assert abs(row["estimate"] - 1.0) <= 1e-12
        assert row["error"] == pytest.approx(want, rel=1e-12)


def test_a_two_shot_fig4_run_of_unanimous_tables_reports_the_bound():
    """At 2 shots and p = 0.01 every table of this run reads one outcome and
    the third probe's decode reads 4/3; each table's variance is the bound
    1/N, so the error is sqrt(sum w_n^2 / 2), not 0."""
    weights = experiments._fig4_model(0.01, 3)[0]
    rep = run_fig4(ExperimentConfig(seed=77, shots_per_setting=2, noise_p=0.01), 3)
    assert all(abs(x) == 1.0 for row in rep["correlators"] for x in row)
    assert rep["fidelity"]["estimate"] == pytest.approx(4.0 / 3.0, abs=1e-12)
    assert rep["fidelity"]["error"] == pytest.approx(math.sqrt(math.fsum((weights[1:] ** 2).tolist()) / 2.0),
                                                     rel=1e-12)


@pytest.mark.parametrize("probe", experiments.PROBES)
def test_a_one_shot_fig4_reports_the_variance_bound(probe):
    """One shot per table leaves no spread to estimate, so the error is the
    bound sqrt(sum w_n^2 / N_n) with N_n = 1."""
    config = ExperimentConfig(seed=1, shots_per_setting=1)
    weights = experiments._fig4_model(config.noise_p, probe)[0]
    row = run_fig4(config, probe)["fidelity"]
    assert row["error"] == math.sqrt(math.fsum((weights[1:] ** 2).tolist())) > 0.0


def test_fig4_error_divides_by_the_shots_less_one():
    """Fixed tables of 3 shots, each with a correlator inside (-1, 1): the
    error is sqrt(sum_n w_n^2 (1 - T_n^2) / (N - 1)), the unbiased variance
    of each table's mean of its N outcomes +-1, not one over N + 1, which the
    calibration gate cannot tell apart at 4000 shots."""
    counts = np.array([[2, 1, 0, 0], [1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1], [0, 2, 0, 1],
                       [1, 1, 0, 1], [0, 0, 1, 2], [2, 0, 1, 0], [0, 1, 0, 2]])
    weights = estimate.decode_weights(probe_vector(4))
    t = [Fraction(int(a - b - c + d), 3) for a, b, c, d in counts.tolist()]
    assert all(abs(x) < 1 for x in t)

    def error(less):
        return math.sqrt(sum(Fraction(w) ** 2 * (1 - x * x) / (3 - less) for w, x in zip(weights[1:], t)))

    got = estimate.decode_fidelity(counts, 3, weights)[1]
    assert got == pytest.approx(error(1), rel=1e-12)
    assert got != pytest.approx(error(-1), rel=0.1)


def test_a_fig4_fidelity_above_one_is_reported_as_it_is(monkeypatch):
    """Counts whose raw decode reads more than 1 are not clipped: every
    correlator at the sign of its weight gives w_0 + sum |w_n|, 1.5 for the
    third probe, and their tables of one outcome give the bound 1/N of
    each table's variance."""
    weights = experiments._fig4_model(ExperimentConfig().noise_p, 3)[0]
    counts = np.array([[5, 0, 0, 0] if w >= 0 else [0, 5, 0, 0] for w in weights[1:]])
    monkeypatch.setattr(experiments, "_counts", lambda *args, **kwargs: counts)
    rep = run_fig4(ExperimentConfig(seed=1, shots_per_setting=5), 3)
    assert rep["fidelity"]["estimate"] == pytest.approx(1.5, abs=1e-12)
    assert rep["fidelity"]["error"] == pytest.approx(math.sqrt(math.fsum((weights[1:] ** 2).tolist()) / 5.0),
                                                     rel=1e-12)
    assert np.linalg.eigvalsh(np.array(rep["rho_decoded"])).min() >= -1e-12


def clear_models():
    for model in (experiments._fig3_model, experiments._fig4_model, experiments._fig5_model):
        model.cache_clear()


def test_each_masked_stack_is_checked_once_per_config(monkeypatch):
    """The first run of each figure at a config checks its (n, 4, 4) masked
    stack once, in `apply_depolarizing`, and its reduced stacks in
    `partial_trace`; fig3's verification reads the fidelities of the stack
    and checks nothing more.  A run at another seed reads the cached model
    and checks no state.  No state check repairs a matrix, so only the
    positivity projection calls `eigh`, once per fig4 run, on its one
    decoded table."""
    clear_models()
    checks, eighs = [], []

    def spy(original, log, with_shape):
        def wrapper(mat, *args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            log.append((caller, np.shape(mat)) if with_shape else caller)
            return original(mat, *args, **kwargs)
        return wrapper

    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "realmask"]:
        if hasattr(module, "checked_density"):
            monkeypatch.setattr(module, "checked_density", spy(module.checked_density, checks, True))
    monkeypatch.setattr(np.linalg, "eigh", spy(np.linalg.eigh, eighs, False))
    first, second = {}, {}
    for got, seed in ((first, ExperimentConfig().seed), (second, 7)):
        for name, run in (("fig3", run_fig3), ("fig4", run_fig4), ("fig5", run_fig5)):
            run(ExperimentConfig(seed=seed))
            got[name] = (checks[:], eighs[:])
            del checks[:], eighs[:]
    n = len(ExperimentConfig().phi_grid_deg)
    assert first["fig3"][0] == [("apply_depolarizing", (4, 4, 4)), ("partial_trace", (4, 2, 2)),
                                ("partial_trace", (4, 2, 2))]
    assert first["fig4"][0] == [("apply_depolarizing", (1, 4, 4))]
    assert first["fig5"][0] == [("apply_depolarizing", (n, 4, 4)), ("partial_trace", (n, 2, 2))]
    assert second["fig3"][0] == second["fig4"][0] == second["fig5"][0] == []
    for log in (first, second):
        assert log["fig3"][1] == log["fig5"][1] == []
        assert log["fig4"][1] == ["project_to_density"]


def test_figures_in_two_threads_equal_their_serial_reports():
    """Each draw builds a generator of its own: fig3, fig4 and fig5 runs at
    distinct seeds, made by two threads at once, give the reports that the
    same runs give one after another."""
    runs = [(run, ExperimentConfig(seed=seed)) for seed in (2, 3, 5, 8) for run in (run_fig3, run_fig4, run_fig5)]
    serial = [report_texts(run(config)) for run, config in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(lambda job: report_texts(job[0](job[1])), job) for job in runs]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


# (owner, name, calls in a cold op, calls in a warm op) of one default figures
# op: fig3, fig4, fig5 and equiv, each report written.  The rows down to
# `write_report` are the functions perfbench/tracer.py traces; then numpy's
# `eigh` and `Philox` (one per `generator` call), the qubit estimator of fig3
# and fig5, the complex Bloch matrices of the qubit MLE and the file opens.
# A change that moves a count edits its row.
OP_CALLS = (
    (qcore, "partial_trace", 3, 0),
    (masker, "mask_pure", 4, 0),
    (walk, "run_masking_walk", 1, 0),
    (optics, "simulate_masking", 1, 0),
    (optics, "solve_prep_angles", 3, 1),
    (measure, "derive_seed", 5, 5),  # one per draw: 2 for fig3, 1 for fig4, 1 for fig5, 1 for equiv
    (measure, "generator", 5, 5),
    (measure, "sample_counts", 3, 3),
    (measure, "poisson_resample", 0, 0),
    (measure, "tables_from_csv", 0, 0),
    (estimate, "qsv_run", 1, 1),
    (estimate, "mle_qubit_batch", 0, 0),
    (estimate, "purity_from_counts", 0, 0),
    (estimate, "bootstrap_std", 0, 0),
    (estimate, "decode_real_state", 1, 1),
    (experiments, "run_fig3", 1, 1),
    (experiments, "run_fig4", 1, 1),
    (experiments, "run_fig5", 1, 1),
    (experiments, "run_equivalence", 1, 1),
    (experiments, "write_report", 4, 4),
    (np.linalg, "eigh", 1, 1),
    (np.random, "Philox", 5, 5),
    (estimate, "squared_bloch_length", 2, 2),
    (estimate, "_bloch_matrices", 0, 0),
    (os, "open", 8, 8),
)
# Rows of the first argument over a warm op: fig3's 4 verification probes;
# fig3's 4 probes (two qubits each) and fig5's 7 phases, each figure's qubits
# estimated in one call; fig4's one (3, 3) correlation matrix, decoded as it
# is.
OP_ROWS = {"estimate.qsv_run": 4, "estimate.squared_bloch_length": 11, "estimate.decode_real_state": 3}


def _call_key(owner, name):
    return f"{owner.__name__.removeprefix('realmask.')}.{name}"


def test_a_figures_op_makes_its_pinned_calls(monkeypatch, tmp_path):
    """A cold op, run with every cache of the package cleared, and a warm op at another seed make the calls of
    `OP_CALLS`.  Each name is counted in every namespace of the package that
    binds it, as perfbench/tracer.py counts it."""
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "realmask"]
    calls, rows = collections.Counter(), collections.Counter()

    def counted(key, original):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            if key in OP_ROWS:
                rows[key] += len(args[0])
            return original(*args, **kwargs)
        return wrapper

    for owner, name, _cold, _warm in OP_CALLS:
        original = getattr(owner, name)
        wrapper = counted(_call_key(owner, name), original)
        for module in {owner, *package}:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, wrapper)
    for value in [v for module in package for v in vars(module).values() if hasattr(v, "cache_clear")]:
        value.cache_clear()

    def op(seed, out):
        config = ExperimentConfig(seed=seed)
        for run in (experiments.run_fig3, experiments.run_fig4, experiments.run_fig5, experiments.run_equivalence):
            experiments.write_report(run(config), out)

    op(1, tmp_path / "cold")
    cold = dict(calls)
    calls.clear()
    rows.clear()
    op(2, tmp_path / "warm")
    pinned = {_call_key(owner, name): (c, w) for owner, name, c, w in OP_CALLS}
    assert {key: (cold.get(key, 0), calls[key]) for key in pinned} == pinned
    assert dict(rows) == OP_ROWS


def test_a_default_op_gives_each_stream_its_own_tag_text(monkeypatch):
    """A sub-seed hashes the `str` text of each tag, so two tag tuples of one
    text, such as (4,) and ("4",), share a stream.  The 5 tag tuples a
    default op derives (fig3, fig4, fig5 and equiv at `ExperimentConfig()`),
    each read as the texts of its parts, are pairwise distinct, and so are
    their sub-seeds.  `derive_seed` is wrapped in every namespace of the
    package that binds it."""
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "realmask"]
    original, tags, seeds = measure.derive_seed, [], []

    def recorded(master_seed, *parts):
        seeds.append(original(master_seed, *parts))
        tags.append(tuple(map(str, parts)))
        return seeds[-1]

    for module in package:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, recorded)
    for run in (run_fig3, run_fig4, run_fig5, experiments.run_equivalence):
        run(ExperimentConfig())
    assert len(tags) == len(set(tags)) == 5
    assert len(seeds) == len(set(seeds)) == 5


def test_model_arrays_refuse_writes():
    config = ExperimentConfig()
    models = (experiments._fig3_model(config.noise_p), experiments._fig4_model(config.noise_p, 4),
              experiments._fig5_model(config.noise_p, config.phi_grid_deg))
    for arr in (arr for model in models for arr in model):
        assert arr.size and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0


def target_tables(counts, shots, seed, *tags):
    """A figure's count stack as (setting, counts, shots, seed) tables, one
    list per target (the stack's (3, 2) or (9, 4) items in order), a table
    per row: setting the row's axis or pair label, seed the draw's sub-seed
    of `seed` tagged `tags`, which every table of the draw shares, so only
    the target tells same-setting tables apart."""
    labels = measure.AXES if counts.shape[-2] == len(measure.AXES) else measure.PAIRS
    sub_seed = derive_seed(seed, *tags)
    return [[(label, tuple(row), shots, sub_seed) for label, row in zip(labels, item)]
            for item in counts.reshape(-1, *counts.shape[-2:]).tolist()]


@pytest.mark.parametrize("seed", [1, 9173])
@pytest.mark.parametrize("run", [run_fig3, run_fig4, run_fig5])
def test_counts_read_back_from_csv_estimate_to_the_reports_bytes(run, seed, monkeypatch):
    """The seam end to end: a figure's drawn counts, int64 rows that sum to
    the shots, are written as count-table text, one text per target, and
    read back with `tables_from_csv`; the figure's estimator reads them in
    place of the drawn ones and gives the report's bytes."""
    config = ExperimentConfig(seed=seed)
    want = run(config)
    drawn, read = experiments._counts, []

    def read_back(probs, shots, seed, *tags):
        counts = drawn(probs, shots, seed, *tags)
        assert counts.dtype == np.int64 and (counts.sum(axis=-1) == shots).all()
        texts = [tables_csv(tables) for tables in target_tables(counts, shots, seed, *tags)]
        read.append(np.array([[table.counts for table in measure.tables_from_csv(text)] for text in texts])
                    .reshape(counts.shape))
        assert read[-1] is not counts and np.array_equal(read[-1], counts)
        return read[-1]

    monkeypatch.setattr(experiments, "_counts", read_back)
    got = run(config)
    assert len(read) == 1
    assert report_texts(got) == report_texts(want)


@pytest.mark.parametrize("run", [run_fig3, run_fig4, run_fig5])
def test_analytic_counts_are_the_models_born_tables(run, monkeypatch):
    config = ExperimentConfig(analytic=True)
    model = {run_fig3: experiments._fig3_model(config.noise_p)[0],
             run_fig4: experiments._fig4_model(config.noise_p, 4)[1],
             run_fig5: experiments._fig5_model(config.noise_p, config.phi_grid_deg)[1]}[run]
    drawn, calls = experiments._counts, []

    def recorded(probs, *args, **kwargs):
        calls.append((probs, drawn(probs, *args, **kwargs)))
        return calls[-1][1]

    monkeypatch.setattr(experiments, "_counts", recorded)
    run(config)
    ((probs, counts),) = calls
    assert counts is probs and np.shares_memory(counts, model) and not counts.flags.writeable


def figure_reports(config):
    return [report_texts(run(config)) for run in (run_fig3, run_fig4, run_fig5)]


@pytest.mark.parametrize("analytic", [False, True])
def test_a_warm_model_gives_the_bytes_of_a_cold_one(analytic):
    """A list phase grid reads the model of its tuple, and noise_p = -0.0
    the model that 0.0 built; both give what a cold cache gives."""
    config = ExperimentConfig(seed=3, analytic=analytic)
    clear_models()
    listed = run_fig5(dataclasses.replace(config, phi_grid_deg=list(config.phi_grid_deg)))
    assert report_texts(listed) == report_texts(run_fig5(config))
    assert experiments._fig5_model.cache_info().hits == 1

    negative = dataclasses.replace(config, noise_p=-0.0)
    clear_models()
    cold = figure_reports(negative)
    clear_models()
    figure_reports(dataclasses.replace(negative, noise_p=0.0))
    assert figure_reports(negative) == cold
    assert [m.cache_info().hits for m in (experiments._fig3_model, experiments._fig4_model,
                                         experiments._fig5_model)] == [1, 1, 1]


def test_report_row_rejects_unknown_error_kind():
    with pytest.raises(ValueError, match="error_kind"):
        report_row("x", 1.0, 0.1, "sigma")


def test_report_row_key_order_and_extras():
    row = report_row("phi=0", 1.0, 0.01, "std", theory_cos=1.0, phi_deg=0.0)
    assert list(row) == ["target", "estimate", "error", "error_kind", "theory_cos", "phi_deg"]
    assert row == oracle_row("phi=0", 1.0, 0.01, "std", theory_cos=1.0, phi_deg=0.0)


ESTIMATE = ["target", "estimate", "error", "error_kind"]
# Per figure: the head's keys, then the keys of each row by where it sits.
LAYOUT = {
    "fig3": (["experiment", "seed", "noise_p", "qsv_tests", "shots_per_setting", "analytic", "probes"],
             {"probes": ["probe", "target", "fidelity", "purity"],
              "fidelity": [*ESTIMATE, "eps_hat", "eps_low", "eps_high", "passed"],
              "purity": [*ESTIMATE, "path_purity", "pol_purity"]}),
    "fig4": (["experiment", "seed", "noise_p", "shots_per_setting", "analytic", "probe", "target",
              "correlators", "rho_raw", "rho_decoded", "fidelity"],
             {"fidelity": ESTIMATE}),
    "fig5": (["experiment", "seed", "noise_p", "shots_per_setting", "analytic", "points"],
             {"points": [*ESTIMATE, "phi_deg", "theory_cos"]}),
}


def _rows(report):
    """(where, row) for every row of a figure report."""
    if report["experiment"] == "fig3":
        for entry in report["probes"]:
            yield from (("probes", entry), ("fidelity", entry["fidelity"]), ("purity", entry["purity"]))
    elif report["experiment"] == "fig4":
        yield "fidelity", report["fidelity"]
    else:
        yield from (("points", point) for point in report["points"])


@pytest.mark.parametrize("analytic", [False, True], ids=["sampled", "analytic"])
@pytest.mark.parametrize("run", [run_fig3, run_fig4, run_fig5])
def test_the_head_holds_the_run_facts_and_rows_only_their_estimates(run, analytic):
    report = run(ExperimentConfig(seed=1, analytic=analytic))
    head, row_keys = LAYOUT[report["experiment"]]
    assert list(report) == head
    rows = list(_rows(report))
    assert len(rows) == {"fig3": 12, "fig4": 1, "fig5": 7}[report["experiment"]]
    for where, row in rows:
        assert list(row) == row_keys[where]
        # A row's target labels the row; fig4's head target is the probe.
        assert set(row).isdisjoint(set(head) - {"target"})


@pytest.mark.parametrize("analytic", [False, True], ids=["sampled", "analytic"])
@pytest.mark.parametrize("run", [run_fig3, run_fig4, run_fig5])
def test_a_head_states_the_draws_only_of_a_sampled_run(run, analytic):
    """An analytic run draws nothing: its head's shots and fig3's
    verification tests are null, whatever the config holds."""
    config = ExperimentConfig(seed=1, shots_per_setting=7, qsv_tests=11, analytic=analytic)
    report = run(config)
    drawn = {"shots_per_setting": 7}
    if report["experiment"] == "fig3":
        drawn["qsv_tests"] = 11
    assert {key: report[key] for key in drawn} == ({key: None for key in drawn} if analytic else drawn)
    assert (report["seed"], report["noise_p"], report["analytic"]) == (1, config.noise_p, analytic)


@pytest.mark.parametrize("run", [run_fig3, run_fig4, run_fig5])
def test_no_row_field_repeats_a_head_fact_in_every_row(run):
    """The value form of the head rule: a field that holds one head fact's
    value in every row of its kind restates that fact, whatever its name."""
    report = run(ExperimentConfig(seed=1))
    head = {repr(value) for value in report.values() if not isinstance(value, (list, dict))}
    fields = collections.defaultdict(set)
    for where, row in _rows(report):
        for key, value in row.items():
            fields[where, key].add(repr(value))
    assert [field for field, values in fields.items() if len(values) == 1 and values <= head] == []


@pytest.mark.parametrize("analytic", [False, True], ids=["sampled", "analytic"])
def test_fig3_csv_states_qsv_tests_once_in_its_head(analytic):
    report = run_fig3(ExperimentConfig(seed=1, qsv_tests=11, analytic=analytic))
    lines = report_texts(report)[1].splitlines()
    rows = [line for line in lines if "tests" in line.partition(",")[0]]
    assert rows == ["qsv_tests," if analytic else "qsv_tests,11"]
    # The head is the one place that states the tests.
    assert all("tests" not in row["fidelity"] for row in report["probes"])


# ---------------------------------------------------------------------------
# A config checks its own fields, and a head states the numbers its run used,
# as Python ints and floats.

@pytest.mark.parametrize("seed", ["abc", True, 2.5])
@pytest.mark.parametrize("analytic", [False, True], ids=["sampled", "analytic"])
@pytest.mark.parametrize("run", [run_fig3, run_fig4, run_fig5])
def test_a_seed_that_is_not_an_integer_is_refused(run, analytic, seed):
    # An analytic run draws nothing, yet its head states the seed.
    with pytest.raises(ValueError, match=f"^seed must be an integer, got {re.escape(repr(seed))}$"):
        run(ExperimentConfig(seed=seed, analytic=analytic))


# Such a seed used to be accepted, and every run then failed in `str` with
# Python's own error, which names no field; the refusal cannot show the
# value, whose repr raises.  Shots and tests are refused alike.
@pytest.mark.skipif(not INT_DIGITS, reason="this Python writes an integer of any length")
@pytest.mark.parametrize("field", ["seed", "shots_per_setting", "qsv_tests"])
@pytest.mark.parametrize("value", [10**5000, 10**INT_DIGITS, -10**INT_DIGITS],
                         ids=["10**5000", "10**limit", "-10**limit"])
def test_an_integer_too_long_to_write_is_refused(field, value):
    with pytest.raises(ValueError, match=rf"^{field} must be an integer of at most {INT_DIGITS} digits$"):
        ExperimentConfig(**{field: value})


@pytest.mark.skipif(not INT_DIGITS, reason="this Python writes an integer of any length")
@pytest.mark.parametrize("seed", [10**INT_DIGITS - 1, -(10**INT_DIGITS - 1), 2 ** (3 * INT_DIGITS)],
                         ids=["most-digits", "negative", "past-the-bit-bound"])
def test_the_longest_seed_python_writes_runs(seed):
    report = json.loads(report_texts(run_fig4(ExperimentConfig(seed=seed)))[0])
    assert report["seed"] == seed


# Each used to run: "no" and 1 in analytic mode, writing "analytic": "no"
# and 1, and np.True_ until the report encoder met it.
@pytest.mark.parametrize("analytic", ["no", 1, 0, np.True_, None])
def test_an_analytic_flag_that_is_not_a_bool_is_refused(analytic):
    with pytest.raises(ValueError, match=f"^analytic must be true or false, got {re.escape(repr(analytic))}$"):
        ExperimentConfig(analytic=analytic)


# (True,) used to run at 1 degree; a NaN failed inside the model, naming no
# field, and an integer beyond the floats raised OverflowError.
@pytest.mark.parametrize("grid", [(True,), (0.0, np.False_), (math.nan,), (0.0, -math.inf), (10**400,), ("45",),
                                  [[0.0]], "0,45", 45.0, np.array([0.0, 45.0])])
def test_a_phase_grid_that_is_not_a_list_of_finite_numbers_is_refused(grid):
    with pytest.raises(ValueError, match="^phi_grid_deg must be a non-empty list of finite numbers, got "):
        ExperimentConfig(phi_grid_deg=grid)


def test_shots_beyond_the_cap_are_refused_before_any_run():
    # 2**63 - 1 shots at p = 0 used to run fig3 and fig4, then fail inside
    # fig5's Poisson resampling with "row 6: count ... is not a whole number".
    with pytest.raises(ValueError, match=rf"^shots_per_setting must be at most 10\*\*18, got {2**63 - 1}$"):
        ExperimentConfig(noise_p=0.0, shots_per_setting=2**63 - 1)
    config = ExperimentConfig(noise_p=0.0, shots_per_setting=measure.MAX_SHOTS, phi_grid_deg=(90.0,))
    assert [point["estimate"] for point in run_fig5(config)["points"]] == [0.0]


@pytest.mark.parametrize("shots", [None, 7])
def test_analytic_mode_is_shots_none(shots):
    """Analytic mode draws nothing: its shots are None whatever the config
    holds, the n -> inf limit that `squared_bloch_length` reads."""
    for experiment, default in experiments.DEFAULT_SHOTS.items():
        assert ExperimentConfig(shots_per_setting=shots, analytic=True).shots(experiment) is None
        assert ExperimentConfig(shots_per_setting=shots).shots(experiment) == (default if shots is None else 7)


def test_a_config_holds_plain_python_values():
    config = ExperimentConfig(seed=np.uint64(7), shots_per_setting=np.int32(9), qsv_tests=np.int64(11),
                              noise_p=np.float32(0.25), phi_grid_deg=[np.int8(-15), np.float16(0.5)])
    assert config == ExperimentConfig(seed=7, shots_per_setting=9, qsv_tests=11, noise_p=0.25,
                                      phi_grid_deg=(-15.0, 0.5))
    assert [type(getattr(config, f.name)) for f in dataclasses.fields(config)] == [int, int, int, float, tuple, bool]
    assert [type(phi) for phi in config.phi_grid_deg] == [float, float]
    assert type(dataclasses.replace(config, noise_p=1).noise_p) is float


@pytest.mark.parametrize("field", ["seed", "shots_per_setting", "qsv_tests"])
@pytest.mark.parametrize("run", [run_fig3, run_fig4, run_fig5])
def test_numpy_integers_give_the_bytes_of_python_ints(run, field):
    config = ExperimentConfig(seed=1, shots_per_setting=50, qsv_tests=40)
    report = run(dataclasses.replace(config, **{field: np.int64(getattr(config, field))}))
    assert report_texts(report) == report_texts(run(config))


def test_a_numpy_seed_gives_the_equivalence_bytes_of_a_python_int():
    report = experiments.run_equivalence(ExperimentConfig(seed=np.int64(3)), n_inputs=np.int64(5))
    assert report_texts(report) == report_texts(experiments.run_equivalence(ExperimentConfig(seed=3),
                                                                            n_inputs=5))


@pytest.mark.parametrize("analytic", [False, True], ids=["sampled", "analytic"])
@pytest.mark.parametrize("run, given, plain", [
    *[(run, {"noise_p": 1}, {"noise_p": 1.0}) for run in (run_fig3, run_fig4, run_fig5)],
    *[(run, {"noise_p": np.float32(0.01)}, {"noise_p": float(np.float32(0.01))}) for run in (run_fig3, run_fig4, run_fig5)],
    (run_fig5, {"phi_grid_deg": (0, 90)}, {"phi_grid_deg": (0.0, 90.0)}),
    (run_fig5, {"phi_grid_deg": (np.float32(15.0), np.int64(30))}, {"phi_grid_deg": (15.0, 30.0)}),
], ids=[f"{fig}-{value}" for value in ("int-noise", "float32-noise") for fig in ("fig3", "fig4", "fig5")]
    + ["fig5-int-phases", "fig5-numpy-phases"])
def test_equal_numbers_of_another_type_give_the_same_bytes(run, given, plain, analytic):
    given_texts, plain_texts = [report_texts(r)
                                for r in (run(ExperimentConfig(seed=1, analytic=analytic, **f)) for f in (given, plain))]
    assert given_texts == plain_texts


@pytest.mark.parametrize("noise_p", [True, False, np.True_])
@pytest.mark.parametrize("run", [run_fig3, run_fig4, run_fig5])
def test_a_bool_noise_is_refused(run, noise_p):
    # The model of the equal number, built first, must not stand in for it.
    run(ExperimentConfig(seed=1, noise_p=float(noise_p), analytic=True))
    with pytest.raises(ValueError, match=rf"^noise_p must be a number in \[0, 1\], got {re.escape(repr(noise_p))}$"):
        run(ExperimentConfig(seed=1, noise_p=noise_p, analytic=True))


# ---------------------------------------------------------------------------
# The report writer against `json.dumps` of the rounded report.

TRICKY_TEXT = ["", '"', "\\", "\n\t\r\x00\x1f\x7f", "é", "\u2028", "\U0001f600", "phi = 90.0 deg"]
scalars = st.one_of(
    st.text(), st.sampled_from(TRICKY_TEXT), st.integers(), st.integers(-2**70, 2**70), st.booleans(), st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
)
documents = st.recursive(
    scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.lists(inner, max_size=3).map(tuple),
                            st.dictionaries(st.one_of(st.text(), st.sampled_from(TRICKY_TEXT)), inner, max_size=4)),
    max_leaves=30,
)


class TestReportJson:
    @settings(max_examples=300, deadline=None)
    @given(st.dictionaries(st.one_of(st.text(), st.sampled_from(TRICKY_TEXT)), documents, max_size=5))
    def test_matches_json_dumps_of_the_rounded_report(self, report):
        json_text, csv_text = report_texts(report)
        assert json_text == reference_report_json(report)
        # The CSV reads back as the leaves of that JSON text; csv.reader reads a NUL from Python 3.11.
        if sys.version_info >= (3, 11) or "\0" not in csv_text:
            assert list(csv.reader(io.StringIO(csv_text))) == json_leaf_rows(json_text)

    @pytest.mark.parametrize("config", [ExperimentConfig(seed=1), ExperimentConfig(seed=1, analytic=True)],
                             ids=["sampled", "analytic"])
    @pytest.mark.parametrize("run", [run_fig3, run_fig4, run_fig5, experiments.run_equivalence])
    def test_figure_reports_match_json_dumps(self, run, config):
        report = run(config)
        assert report_texts(report)[0] == reference_report_json(report)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float64("-inf")])
    @pytest.mark.parametrize("where", ["top", "nested"])
    def test_refuses_a_non_finite_float(self, bad, where):
        report = {"x": bad} if where == "top" else {"points": [{"estimate": 0.5}, {"error": [1.0, bad]}]}
        with pytest.raises(ValueError):
            reference_report_json(report)
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            report_texts(report)

    @pytest.mark.parametrize("bad", [np.int64(3), np.bool_(True), {1, 2}, object()])
    def test_refuses_what_json_cannot_encode(self, bad):
        with pytest.raises(TypeError):
            reference_report_json({"x": [bad]})
        with pytest.raises(TypeError, match="is not JSON serializable$"):
            report_texts({"x": [bad]})

    # json.dumps writes an int key as its text; a report's keys are its paths, so it takes only strings.
    @pytest.mark.parametrize("key, kind", [(1, "int"), (None, "NoneType"), (("a",), "tuple")])
    def test_refuses_a_key_that_is_no_string(self, key, kind):
        with pytest.raises(TypeError, match=f"^keys must be str, not {kind}$"):
            report_texts({"points": [{key: 0.5}]})



# ---------------------------------------------------------------------------
# Report files: the encoded texts, all or nothing.

@pytest.mark.parametrize("run, stem", [(run_fig3, "fig3"), (run_fig4, "fig4"), (run_fig5, "fig5"),
                                       (experiments.run_equivalence, "equiv")])
def test_written_files_hold_the_encoded_texts(run, stem, tmp_path):
    """Each file, named after the report's experiment, holds the encoder's
    text as bytes, with no platform newline translation, in a directory made
    when missing, over a longer file too, with the mode that
    `Path.write_text` gives a new file."""
    report = run(ExperimentConfig(seed=1))
    assert report["experiment"] == stem
    out = tmp_path / "a" / "b"
    want = [text.encode() for text in report_texts(report)]
    paths = experiments.write_report(report, out)
    assert paths == [out / f"{stem}.json", out / f"{stem}.csv"]
    assert [p.read_bytes() for p in paths] == want
    paths[0].write_bytes(b"x" * 100_000)
    assert experiments.write_report(report, out) == paths
    assert [p.read_bytes() for p in paths] == want
    (tmp_path / "ref").write_text("")
    assert {p.stat().st_mode for p in paths} == {(tmp_path / "ref").stat().st_mode}


def _nan_fig5():
    report = run_fig5(ExperimentConfig(seed=1, analytic=True))
    report["points"][0]["estimate"] = float("nan")
    return report


# A report that one encoder refused used to leave the other's file behind.
@pytest.mark.parametrize("report, error", [
    (lambda: {"experiment": "fig4", "x": np.float32(1.0)}, TypeError),
    (_nan_fig5, ValueError),
], ids=["not serializable", "nan"])
def test_a_refused_report_writes_nothing(report, error, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(error):
        experiments.write_report(report(), out)
    assert not out.exists()
    out.mkdir()
    with pytest.raises(error):
        experiments.write_report(report(), out)
    assert list(out.iterdir()) == []


def _open_descriptors() -> int:
    return len(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts descriptors in /proc/self/fd")
@pytest.mark.parametrize("fault", ["short write", "full device"])
def test_a_failed_write_raises_and_closes_its_file(fault, tmp_path, monkeypatch):
    report = run_fig4(ExperimentConfig(seed=1, analytic=True))
    if fault == "short write":
        write = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: write(fd, data[:len(data) // 2]))
        error = "^short write to .*fig4.json: [0-9]+ of [0-9]+ bytes$"
    elif os.path.exists("/dev/full"):
        (tmp_path / "fig4.json").symlink_to("/dev/full")
        error = "No space left on device"
    else:
        pytest.skip("needs /dev/full")
    before = _open_descriptors()
    with pytest.raises(OSError, match=error):
        experiments.write_report(report, tmp_path)
    assert _open_descriptors() == before
    assert not (tmp_path / "fig4.csv").exists()
