"""The stacked fig3/fig5 pipelines against per-point oracles.

The oracles below run each probe or phase point on its own, with its own
density matrices, MLE calls and bootstrap, as the pipelines did before they
processed a figure as one stack.  Every sampling call keeps its seed, so the
reports must agree byte for byte.
"""
import collections
import dataclasses
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realmask import estimate, experiments, masker, measure, optics, qcore, walk
from realmask.experiments import (
    BOOTSTRAP_RESAMPLES,
    PROBE_LABELS,
    ExperimentConfig,
    phase_probe,
    probe_vector,
    report_csv,
    report_json,
    report_row,
    run_fig3,
    run_fig4,
    run_fig5,
)
from realmask.masker import mask_pure
from realmask.measure import derive_seed
from realmask.qcore import concurrence_from_purity, fidelity_with_pure, partial_trace

from helpers import density, purity, reference_report_json, spin_flip_concurrence


def oracle_row(target, estimate, error, error_kind, **extra):
    return {"target": target, "estimate": estimate, "error": error, "error_kind": error_kind, **extra}


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
        fidelity = fidelity_with_pure(rho, ideal)
        if config.analytic:
            eps = 1.0 - fidelity
            fid = oracle_row(f"probe {idx} fidelity", 1.0 - eps, 0.0, "ci95",
                             eps_hat=eps, eps_low=eps, eps_high=eps, passed=None)
            pur_a, pur_b = (purity(partial_trace(rho, k)) for k in ("A", "B"))
            std = 0.0
        else:
            total = config.qsv_tests
            (passed,) = estimate.qsv_run([fidelity], total, [derive_seed(config.seed, "fig3.qsv", idx)])
            eps = 1.5 * (1.0 - passed / total)
            low, high = estimate.agresti_coull(passed, total)
            low, high = min(low, eps), max(high, eps)
            fid = oracle_row(f"probe {idx} fidelity", 1.0 - eps, max(eps - low, high - eps), "ci95",
                             eps_hat=eps, eps_low=low, eps_high=high, passed=passed)
            counts = np.array([
                oracle_pauli_counts(partial_trace(rho, k), shots, config.seed, "fig3.tomo", idx, tag)
                for k, tag in (("A", "path"), ("B", "pol"))
            ])
            pur_a, pur_b = estimate.purity_from_counts(counts).tolist()
            std = oracle_bootstrap(
                lambda c: estimate.purity_from_counts(c.reshape(-1, 3, 2)).reshape(-1, 2).mean(axis=1),
                counts, derive_seed(config.seed, "fig3.boot", idx),
            )
        pur = oracle_row(f"probe {idx} avg purity", 0.5 * (pur_a + pur_b), std, "std",
                         path_purity=pur_a, pol_purity=pur_b)
        rows.append({"probe": idx, "target": PROBE_LABELS[idx], "fidelity": fid, "purity": pur})
    sampled = not config.analytic
    return {
        "experiment": "fig3", "seed": config.seed, "noise_p": config.noise_p,
        "qsv_tests": config.qsv_tests if sampled else None, "shots_per_setting": shots if sampled else None,
        "resamples": BOOTSTRAP_RESAMPLES if sampled else None,
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
        points.append(oracle_row(f"phi = {phi} deg", est, std, "std",
                                 phi_deg=phi, theory_cos=math.cos(math.radians(phi))))
    sampled = not config.analytic
    return {
        "experiment": "fig5", "seed": config.seed, "noise_p": config.noise_p,
        "shots_per_setting": shots if sampled else None, "resamples": BOOTSTRAP_RESAMPLES if sampled else None,
        "analytic": config.analytic, "points": points,
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


@pytest.mark.parametrize("phi", [89.9999, 90.0, -89.9999, 179.9999])
def test_analytic_noiseless_fig5_near_its_zeros_is_the_cosine(phi):
    # Near cos = 0 a concurrence read from a purity, sqrt(2 (1 - P)), keeps
    # few digits; the pure probes' spin-flip formula keeps them all.
    (point,) = run_fig5(ExperimentConfig(noise_p=0.0, phi_grid_deg=(phi,), analytic=True))["points"]
    assert point["estimate"] == pytest.approx(abs(math.cos(math.radians(phi))), rel=1e-12, abs=0.0)


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
    stack once, in `apply_depolarizing`, and its reduced stacks in
    `partial_trace`; fig3's verification reads the fidelities of the stack
    and checks nothing more.  A run at another seed reads the cached model
    and checks no state.  No state check repairs a matrix, so only the
    positivity projection calls `eigh`, once per fig4 run: the point
    correlators and their resamples decode in one call."""
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
    """Each thread draws from its own re-keyed stream: fig3, fig4 and fig5
    runs at distinct seeds, made by two threads at once, give the reports
    that the same runs give one after another."""
    runs = [(run, ExperimentConfig(seed=seed)) for seed in (2, 3, 5, 8) for run in (run_fig3, run_fig4, run_fig5)]
    serial = [report_json(run(config)) for run, config in runs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(lambda job: report_json(job[0](job[1])), job) for job in runs]
            threaded = [f.result(timeout=120) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


# (owner, name, calls in a cold op, calls in a warm op) of one default figures
# op: fig3, fig4, fig5 and equiv, each report written.  The rows down to
# `write_report` are the functions perfbench/tracer.py traces; then the seed
# derivation, numpy's `eigh` and `Philox`, the re-key of the thread's stream,
# the complex Bloch matrices of the qubit MLE and the file opens.  A change
# that moves a count edits its row.
OP_CALLS = (
    (qcore, "partial_trace", 3, 0),
    (masker, "mask_pure", 0, 0),
    (walk, "run_masking_walk", 1, 0),
    (optics, "simulate_masking", 1, 0),
    (optics, "solve_prep_angles", 3, 1),
    (measure, "derive_seed", 1, 1),
    (measure, "generator", 0, 0),
    (measure, "sample_counts", 3, 3),
    (measure, "poisson_resample", 3, 3),
    (measure, "tables_from_csv", 0, 0),
    (estimate, "qsv_run", 1, 1),
    (estimate, "mle_qubit_batch", 0, 0),
    (estimate, "purity_from_counts", 2, 2),
    (estimate, "bootstrap_std", 3, 3),
    (estimate, "decode_real_state", 1, 1),
    (experiments, "run_fig3", 1, 1),
    (experiments, "run_fig4", 1, 1),
    (experiments, "run_fig5", 1, 1),
    (experiments, "run_equivalence", 1, 1),
    (experiments, "write_report", 4, 4),
    (measure, "derive_seeds", 8, 8),  # 71 sub-seeds, equiv's one through derive_seed
    (np.linalg, "eigh", 1, 1),
    (np.random, "Philox", 1, 0),
    (measure, "_rekeyed", 71, 71),
    (estimate, "_bloch_matrices", 0, 0),
    (os, "open", 8, 8),
)
# Rows of the first argument over a warm op: fig3's 4 verification probes;
# the count arrays resampled by fig3 (4), fig4 (1) and fig5 (7); fig3's 8
# qubits and fig5's 7 with their 100 resamples each, estimated in one
# purity call per figure; fig4's 101 correlation matrices, decoded in one call.
OP_ROWS = {"estimate.qsv_run": 4, "measure.poisson_resample": 12,
           "estimate.purity_from_counts": 15 * (BOOTSTRAP_RESAMPLES + 1),
           "estimate.decode_real_state": BOOTSTRAP_RESAMPLES + 1}


def _call_key(owner, name):
    return f"{owner.__name__.removeprefix('realmask.')}.{name}"


def test_a_figures_op_makes_its_pinned_calls(monkeypatch, tmp_path):
    """A cold op, run with every cache of the package and the thread's
    stream cleared, and a warm op at another seed make the calls of
    `OP_CALLS`.  Each name is counted in every namespace of the package that
    binds it, as perfbench/tracer.py counts it."""
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "realmask"]
    calls, rows = collections.Counter(), collections.Counter()
    measure._thread_rekey()

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
    monkeypatch.delattr(measure._STREAMS, "rekey")  # rebuilt by the cold op, with the counted re-key

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
    text, such as (4,) and ("4",), share a stream.  The 71 tag tuples a
    default op derives (fig3, fig4, fig5 and equiv at `ExperimentConfig()`),
    each read as the texts of its prefix and suffix, are pairwise distinct,
    and so are their sub-seeds.  `derive_seeds` is wrapped in every
    namespace of the package that binds it; `derive_seed` calls it too."""
    package = [m for name, m in sys.modules.items() if name.split(".")[0] == "realmask"]
    original, tags, seeds = measure.derive_seeds, [], []

    def recorded(master_seed, prefix, suffixes):
        suffixes = list(suffixes)
        got = original(master_seed, prefix, suffixes)
        tags.extend(tuple(str(part) for part in (*prefix, *suffix)) for suffix in suffixes)
        seeds.extend(got)
        return got

    for module in package:
        for attr, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, attr, recorded)
    for run in (run_fig3, run_fig4, run_fig5, experiments.run_equivalence):
        run(ExperimentConfig())
    assert len(tags) == len(set(tags)) == 71
    assert len(seeds) == len(set(seeds)) == 71


def test_model_arrays_refuse_writes():
    config = ExperimentConfig()
    models = (experiments._fig3_model(config.noise_p), experiments._fig4_model(config.noise_p, 4),
              experiments._fig5_model(config.noise_p, config.phi_grid_deg))
    for arr in (arr for model in models for arr in model):
        assert arr.size and not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr.flat[0] = 0.0


def count_tables(counts, config, experiment, family, keys, parts=((),)):
    """A figure's count stack as `CountsTable`s, one per row in the order
    `_counts` draws them: setting the row's axis or pair label, seed its
    sub-seed."""
    labels = measure.AXES if counts.shape[-2] == len(measure.AXES) else measure.PAIRS
    tags = [(*key, *part, label) for key in keys for part in parts for label in labels]
    return [measure.CountsTable(tag[-1], tuple(row), config.shots(experiment), derive_seed(config.seed, family, *tag))
            for tag, row in zip(tags, counts.reshape(len(tags), -1).tolist())]


@pytest.mark.parametrize("seed", [1, 9173])
@pytest.mark.parametrize("run", [run_fig3, run_fig4, run_fig5])
def test_counts_read_back_from_csv_estimate_to_the_reports_bytes(run, seed, monkeypatch):
    """The seam end to end: a figure's drawn counts, int64 rows that sum to
    the shots, are written through `tables_to_csv` and read back with
    `tables_from_csv`; `_estimate` reads them in place of the drawn ones
    and gives the report's bytes."""
    config = ExperimentConfig(seed=seed)
    want = run(config)
    drawn, read = experiments._counts, []

    def read_back(probs, config, experiment, family, keys, parts=((),)):
        counts = drawn(probs, config, experiment, family, keys, parts)
        assert counts.dtype == np.int64 and (counts.sum(axis=-1) == config.shots(experiment)).all()
        text = measure.tables_to_csv(count_tables(counts, config, experiment, family, keys, parts))
        read.append(np.array([table.counts for table in measure.tables_from_csv(text)]).reshape(counts.shape))
        assert read[-1] is not counts and np.array_equal(read[-1], counts)
        return read[-1]

    monkeypatch.setattr(experiments, "_counts", read_back)
    got = run(config)
    assert len(read) == 1
    assert (report_json(got), report_csv(got)) == (report_json(want), report_csv(want))


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
        report_row("x", 1.0, 0.1, "sigma")


def test_report_row_key_order_and_extras():
    row = report_row("phi=0", 1.0, 0.01, "std", theory_cos=1.0, phi_deg=0.0)
    assert list(row) == ["target", "estimate", "error", "error_kind", "theory_cos", "phi_deg"]
    assert row == oracle_row("phi=0", 1.0, 0.01, "std", theory_cos=1.0, phi_deg=0.0)


ESTIMATE = ["target", "estimate", "error", "error_kind"]
# Per figure: the head's keys, then the keys of each row by where it sits.
LAYOUT = {
    "fig3": (["experiment", "seed", "noise_p", "qsv_tests", "shots_per_setting", "resamples", "analytic",
              "probes"],
             {"probes": ["probe", "target", "fidelity", "purity"],
              "fidelity": [*ESTIMATE, "eps_hat", "eps_low", "eps_high", "passed"],
              "purity": [*ESTIMATE, "path_purity", "pol_purity"]}),
    "fig4": (["experiment", "seed", "noise_p", "shots_per_setting", "resamples", "analytic", "probe", "target",
              "correlators", "rho_raw", "rho_decoded", "fidelity"],
             {"fidelity": ESTIMATE}),
    "fig5": (["experiment", "seed", "noise_p", "shots_per_setting", "resamples", "analytic", "points"],
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
    """An analytic run draws nothing: its head's shots, resamples and fig3's
    verification tests are null, whatever the config holds."""
    config = ExperimentConfig(seed=1, shots_per_setting=7, qsv_tests=11, analytic=analytic)
    report = run(config)
    drawn = {"shots_per_setting": 7, "resamples": BOOTSTRAP_RESAMPLES}
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
def test_fig3_csv_tests_column_is_the_heads_qsv_tests(analytic):
    report = run_fig3(ExperimentConfig(seed=1, qsv_tests=11, analytic=analytic))
    lines = report_csv(report).splitlines()
    column = lines[0].split(",").index("tests")
    assert [line.split(",")[column] for line in lines[1:]] == ["" if analytic else "11"] * len(experiments.PROBES)
    # The head is the one place that states the tests, so the column reads it there.
    assert all("tests" not in row["fidelity"] for row in report["probes"])


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
    want = [report_json(report).encode(), report_csv(report).encode()]
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


# An unknown layout used to leave bogus.json behind: the JSON file was
# written before the CSV encoder refused the report.
@pytest.mark.parametrize("report, error", [
    (lambda: {"experiment": "bogus", "x": 1.0}, "^no CSV layout for experiment 'bogus'$"),
    (_nan_fig5, "^Out of range float values are not JSON compliant"),
], ids=["unknown layout", "nan"])
def test_a_refused_report_writes_nothing(report, error, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError, match=error):
        experiments.write_report(report(), out)
    assert not out.exists()
    out.mkdir()
    with pytest.raises(ValueError, match=error):
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
