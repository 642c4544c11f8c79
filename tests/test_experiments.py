"""The stacked fig3/fig5 pipelines against per-point oracles.

The oracles below run each probe or phase point on its own, with its own
density matrices, MLE calls and bootstrap, as the pipelines did before they
processed a figure as one stack.  Every sampling call keeps its seed, so the
reports must agree byte for byte.
"""
import math

import numpy as np
import pytest

from realmask import estimate, measure
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
from realmask.masker import mask_pure
from realmask.measure import derive_seed
from realmask.qcore import (
    concurrence_from_purity,
    fidelity_with_pure,
    partial_trace,
    purity,
    spin_flip_concurrence,
)

from helpers import density


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
            qsv = estimate.qsv_run(rho, a, config.qsv_tests, derive_seed(config.seed, "fig3.qsv", idx))
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
