"""The stacked fig3/fig5 pipelines against per-point oracles.

The oracles below run each probe or phase point on its own, with its own
density matrices, MLE calls and bootstrap, as the pipelines did before they
processed a figure as one stack.  Every sampling call keeps its seed, so the
reports must agree byte for byte.
"""
import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realmask import estimate, experiments, measure
from realmask.experiments import (
    BOOTSTRAP_RESAMPLES,
    PROBE_LABELS,
    ExperimentConfig,
    phase_probe,
    probe_vector,
    report_json,
    report_row,
    run_fig3,
    run_fig4,
    run_fig5,
)
from realmask.masker import mask_pure, masker_matrix
from realmask.measure import derive_seed
from realmask.qcore import (
    concurrence_from_purity,
    fidelity_with_pure,
    partial_trace,
    purity,
    spin_flip_concurrence,
)

from helpers import density, reference_report_json


def oracle_row(config, experiment, target, estimate, error, error_kind, n, shots, **extra):
    return {"experiment": experiment, "target": target, "estimate": estimate, "error": error,
            "error_kind": error_kind, "N": n, "shots": shots, "seed": config.seed,
            "noise_p": config.noise_p, **extra}


def oracle_masked_probe(a, noise_p):
    ideal = mask_pure(a)
    rho = density(ideal)
    return ideal, rho if noise_p == 0.0 else measure.apply_depolarizing(rho, noise_p)


def oracle_pauli_counts(rho, shots, master_seed, *tags):
    labels, probs = ((measure.AXES, measure.axis_probs) if rho.shape[-1] == 2
                     else (measure.PAIRS, measure.pair_probs))
    return np.array([
        measure.sample_counts(p, shots, derive_seed(master_seed, *tags, label))
        for label, p in zip(labels, probs(rho))
    ])


def oracle_bootstrap(quantity, counts, seed):
    values = quantity(measure.poisson_resample(counts, BOOTSTRAP_RESAMPLES, seed))
    return float(np.std(values, ddof=1))


def oracle_fig3(config):
    shots = config.shots("fig3")
    rows = []
    for idx in (1, 2, 3, 4):
        a = probe_vector(idx)
        ideal, rho = oracle_masked_probe(a, config.noise_p)
        if config.analytic:
            eps = 1.0 - fidelity_with_pure(rho, ideal)
            fid = oracle_row(config, "fig3", f"probe {idx} fidelity", 1.0 - eps, 0.0, "ci95", None, None,
                             eps_hat=eps, eps_low=eps, eps_high=eps, passed=None, tests=None)
            pur_a, pur_b = (purity(partial_trace(rho, k)) for k in ("A", "B"))
            std, resamples = 0.0, None
        else:
            (qsv,) = estimate.qsv_run(estimate.qsv_pass_probs(rho[None], a[None]), config.qsv_tests,
                                      [derive_seed(config.seed, "fig3.qsv", idx)])
            fid = oracle_row(config, "fig3", f"probe {idx} fidelity", qsv.fidelity, qsv.error, "ci95",
                             qsv.total, None, eps_hat=qsv.eps_hat, eps_low=qsv.ci_low,
                             eps_high=qsv.ci_high, passed=qsv.passed, tests=qsv.total)
            counts = np.array([
                oracle_pauli_counts(partial_trace(rho, k), shots, config.seed, "fig3.tomo", idx, tag)
                for k, tag in (("A", "path"), ("B", "pol"))
            ])
            pur_a, pur_b = estimate.purity_from_counts(counts).tolist()
            resamples = BOOTSTRAP_RESAMPLES
            std = oracle_bootstrap(
                lambda c: estimate.purity_from_counts(c.reshape(-1, 3, 2)).reshape(-1, 2).mean(axis=1),
                counts, derive_seed(config.seed, "fig3.boot", idx),
            )
        pur = oracle_row(config, "fig3", f"probe {idx} avg purity", 0.5 * (pur_a + pur_b), std, "std",
                         None, None if config.analytic else shots,
                         path_purity=pur_a, pol_purity=pur_b, resamples=resamples)
        rows.append({"probe": idx, "target": PROBE_LABELS[idx], "fidelity": fid, "purity": pur})
    return {
        "experiment": "fig3", "seed": config.seed, "noise_p": config.noise_p,
        "qsv_tests": config.qsv_tests, "shots_per_setting": shots,
        "analytic": config.analytic, "probes": rows,
    }


def oracle_fig5(config):
    shots = config.shots("fig5")
    points = []
    for i, phi in enumerate(config.phi_grid_deg):
        ideal, rho = oracle_masked_probe(phase_probe(phi), config.noise_p)
        rho_path = partial_trace(rho, "A")

        def conc(c):
            return concurrence_from_purity(estimate.purity_from_counts(c))

        if config.analytic and config.noise_p == 0.0:
            est, std = spin_flip_concurrence(ideal), 0.0
        elif config.analytic:
            est, std = float(concurrence_from_purity(purity(rho_path))), 0.0
        else:
            counts = oracle_pauli_counts(rho_path, shots, config.seed, "fig5.tomo", i)
            est = float(conc(counts[None])[0])
            std = oracle_bootstrap(conc, counts, derive_seed(config.seed, "fig5.boot", i))
        points.append(oracle_row(config, "fig5", f"phi = {phi} deg", est, std, "std", None,
                                 None if config.analytic else shots,
                                 phi_deg=phi, theory_cos=math.cos(math.radians(phi))))
    return {
        "experiment": "fig5", "seed": config.seed, "noise_p": config.noise_p,
        "shots_per_setting": shots, "analytic": config.analytic, "points": points,
    }


CONFIGS = {
    "seed 1": ExperimentConfig(seed=1),
    "seed 9173": ExperimentConfig(seed=9173),
    "seed 20404": ExperimentConfig(seed=20404),
    "noiseless": ExperimentConfig(seed=1, noise_p=0.0),
    "one shot": ExperimentConfig(seed=1, shots_per_setting=1),
    "analytic": ExperimentConfig(seed=1, analytic=True),
    "analytic noiseless": ExperimentConfig(seed=1, noise_p=0.0, analytic=True),
}


@pytest.mark.parametrize("config", CONFIGS.values(), ids=CONFIGS.keys())
@pytest.mark.parametrize("run, oracle", [(run_fig3, oracle_fig3), (run_fig5, oracle_fig5)],
                         ids=["fig3", "fig5"])
def test_stacked_figure_matches_per_point_oracle(run, oracle, config):
    assert report_json(run(config)) == report_json(oracle(config))


def test_fig5_off_default_grid_matches_oracle():
    config = ExperimentConfig(seed=5, shots_per_setting=300, phi_grid_deg=(180.0, -45.0, 33.3, 90.0))
    assert report_json(run_fig5(config)) == report_json(oracle_fig5(config))


@pytest.mark.parametrize("analytic", [False, True])
def test_fig5_empty_grid_gives_no_points(analytic):
    assert run_fig5(ExperimentConfig(seed=1, phi_grid_deg=(), analytic=analytic))["points"] == []


def test_noiseless_fig5_is_exactly_unentangled_at_90_degrees():
    # The path qubit is pure at 90 degrees, so every fit and resample lies on
    # the Bloch sphere: purity exactly 1, concurrence and its error exactly 0.
    point = run_fig5(ExperimentConfig(seed=1, noise_p=0.0))["points"][-1]
    assert point["phi_deg"] == 90.0
    assert (point["estimate"], point["error"]) == (0.0, 0.0)


def test_analytic_noiseless_fig5_is_the_cosine():
    grid = tuple(float(phi) for phi in range(0, 181, 15)) + (33.3, -45.0)
    for point in run_fig5(ExperimentConfig(noise_p=0.0, phi_grid_deg=grid, analytic=True))["points"]:
        assert point["estimate"] <= 1.0
        assert abs(point["estimate"] - abs(point["theory_cos"])) <= 1e-15


def test_fig4_is_a_stack_of_one():
    # fig4 goes through the same stacked states; its report must not move.
    config = ExperimentConfig(seed=1, noise_p=0.0)
    rep = run_fig4(config)
    _ideal, rho = oracle_masked_probe(probe_vector(4), 0.0)
    counts = oracle_pauli_counts(rho, config.shots("fig4"), config.seed, "fig4", 4)
    assert rep["correlators"] == measure.correlators(counts).reshape(3, 3).tolist()


def clear_models():
    for model in (experiments._fig3_model, experiments._fig4_model, experiments._fig5_model):
        model.cache_clear()


def test_each_masked_stack_is_checked_once_per_config(monkeypatch):
    """The first run of each figure at a config checks its (n, 4, 4) masked
    stack once, in `apply_depolarizing`, its reduced stacks in
    `partial_trace`, and fig3's stack once more where its verification table
    is built; a run at another seed reads the cached model and checks no
    state.  No state check repairs a matrix, so only the positivity
    projection calls `eigh`, once per fig4 run: the point correlators and
    their resamples decode in one call."""
    masker_matrix()  # its one-time build checks reduced states too
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
                                ("partial_trace", (4, 2, 2)), ("qsv_pass_probs", (4, 4, 4))]
    assert first["fig4"][0] == [("apply_depolarizing", (1, 4, 4))]
    assert first["fig5"][0] == [("apply_depolarizing", (n, 4, 4)), ("partial_trace", (n, 2, 2))]
    assert second["fig3"][0] == second["fig4"][0] == second["fig5"][0] == []
    for log in (first, second):
        assert log["fig3"][1] == log["fig5"][1] == []
        assert log["fig4"][1] == ["project_to_density"]


def test_each_sampled_figure_makes_one_estimator_call_and_one_resample_call(monkeypatch):
    """A figure's point estimates ride in the estimator call of their
    bootstrap resamples: fig3 estimates its 4 x 2 qubits and their 100
    resamples each in one `purity_from_counts` call, fig4 decodes 101
    correlation matrices in one `decode_real_state` call, fig5 its 7 points
    and their resamples in one call.  Each draws its resamples once."""
    calls = []

    def spy(module, name):
        original = getattr(module, name)

        def wrapper(arg, *args, **kwargs):
            calls.append((name, len(arg)))
            return original(arg, *args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    spy(estimate, "purity_from_counts")
    spy(estimate, "decode_real_state")
    spy(estimate, "poisson_resample")
    spy(estimate, "qsv_run")
    rows = BOOTSTRAP_RESAMPLES + 1
    n = len(ExperimentConfig().phi_grid_deg)
    for run, want in ((run_fig3, [("qsv_run", 4), ("poisson_resample", 4), ("purity_from_counts", 8 * rows)]),
                      (run_fig4, [("poisson_resample", 1), ("decode_real_state", rows)]),
                      (run_fig5, [("poisson_resample", n), ("purity_from_counts", n * rows)])):
        run(ExperimentConfig(seed=11))
        assert calls == want, run.__name__
        del calls[:]


def test_model_arrays_refuse_writes():
    config = ExperimentConfig()
    models = (experiments._fig3_model(config.noise_p), experiments._fig4_model(config.noise_p, 4),
              experiments._fig5_model(config.noise_p, config.phi_grid_deg))
    for arr in (arr for model in models for arr in model):
        assert arr.size and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0


def figure_reports(config):
    return [report_json(run(config)) for run in (run_fig3, run_fig4, run_fig5)]


@pytest.mark.parametrize("analytic", [False, True])
def test_a_warm_model_gives_the_bytes_of_a_cold_one(analytic):
    """A list phase grid reads the model of its tuple, and noise_p = -0.0
    the model that 0.0 built; both give what a cold cache gives."""
    config = ExperimentConfig(seed=3, analytic=analytic)
    clear_models()
    listed = run_fig5(dataclasses.replace(config, phi_grid_deg=list(config.phi_grid_deg)))
    assert report_json(listed) == report_json(run_fig5(config))
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
        report_row(ExperimentConfig(seed=1), "fig3", "x", 1.0, 0.1, "sigma")


def test_report_row_key_order_and_extras():
    config = ExperimentConfig(seed=1, noise_p=0.0)
    row = report_row(config, "fig5", "phi=0", 1.0, 0.01, "std", shots=10_000, theory_cos=1.0, phi_deg=0.0)
    assert list(row) == ["experiment", "target", "estimate", "error", "error_kind", "N", "shots",
                         "seed", "noise_p", "theory_cos", "phi_deg"]
    assert row == oracle_row(config, "fig5", "phi=0", 1.0, 0.01, "std", None, 10_000,
                             theory_cos=1.0, phi_deg=0.0)


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
        assert report_json(report) == reference_report_json(report)

    @pytest.mark.parametrize("config", [ExperimentConfig(seed=1), ExperimentConfig(seed=1, analytic=True)],
                             ids=["sampled", "analytic"])
    @pytest.mark.parametrize("run", [run_fig3, run_fig4, run_fig5, experiments.run_equivalence])
    def test_figure_reports_match_json_dumps(self, run, config):
        report = run(config)
        assert report_json(report) == reference_report_json(report)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), np.float64("nan"), np.float64("-inf")])
    @pytest.mark.parametrize("where", ["top", "nested"])
    def test_refuses_a_non_finite_float(self, bad, where):
        report = {"x": bad} if where == "top" else {"points": [{"estimate": 0.5}, {"error": [1.0, bad]}]}
        with pytest.raises(ValueError):
            reference_report_json(report)
        with pytest.raises(ValueError, match="^Out of range float values are not JSON compliant"):
            report_json(report)

    @pytest.mark.parametrize("bad", [np.int64(3), np.bool_(True), {1, 2}, object()])
    def test_refuses_what_json_cannot_encode(self, bad):
        with pytest.raises(TypeError):
            reference_report_json({"x": [bad]})
        with pytest.raises(TypeError, match="is not JSON serializable$"):
            report_json({"x": [bad]})

