import argparse
import contextlib
import dataclasses
import errno
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from realmask import cli, experiments, measure
from realmask.experiments import (
    ExperimentConfig,
    probe_vector,
    report_texts,
    run_equivalence,
    run_fig3,
    run_fig4,
    run_fig5,
    write_report,
)


class TestDeterminism:
    def test_fig5_seed_changes_counts(self):
        fast = ExperimentConfig(seed=1, shots_per_setting=500, phi_grid_deg=(30.0,))
        other = ExperimentConfig(seed=2, shots_per_setting=500, phi_grid_deg=(30.0,))
        r1 = run_fig5(fast)
        r2 = run_fig5(other)
        assert r1["points"][0]["estimate"] != r2["points"][0]["estimate"]

    def test_fig3_analytic_noiseless(self):
        cfg = ExperimentConfig(seed=0, noise_p=0.0, analytic=True)
        rep = run_fig3(cfg)
        for row in rep["probes"]:
            assert row["fidelity"]["estimate"] == pytest.approx(1.0, abs=1e-12)
            assert row["purity"]["estimate"] == pytest.approx(0.5, abs=1e-12)
            assert row["fidelity"]["error_kind"] == "ci95"
            assert row["purity"]["error_kind"] == "std"

    def test_fig4_analytic_depolarized(self):
        cfg = ExperimentConfig(seed=0, noise_p=0.01, analytic=True)
        rep = run_fig4(cfg)
        # decode is affine in the correlators: fidelity = 1 - 3p/4 exactly.
        assert rep["fidelity"]["estimate"] == pytest.approx(0.9925, abs=1e-12)

    def test_fig5_analytic_endpoints(self):
        cfg = ExperimentConfig(seed=0, noise_p=0.0, analytic=True, phi_grid_deg=(0.0, 90.0))
        rep = run_fig5(cfg)
        assert rep["points"][0]["estimate"] == pytest.approx(1.0, abs=1e-7)
        assert rep["points"][1]["estimate"] == pytest.approx(0.0, abs=1e-7)

    def test_fig3_sampled_noiseless_is_perfect(self):
        # With no noise the output is an eigenstate of every test projector,
        # so all 5000 tests pass and the interval contains zero infidelity.
        cfg = ExperimentConfig(seed=13, noise_p=0.0, shots_per_setting=500)
        rep = run_fig3(cfg)
        for row in rep["probes"]:
            assert row["fidelity"]["estimate"] == 1.0
            assert row["fidelity"]["eps_low"] <= 0.0 <= row["fidelity"]["eps_high"]

    def test_fig4_noiseless_analytic_decodes_exactly(self):
        cfg = ExperimentConfig(seed=0, noise_p=0.0, analytic=True)
        rep = run_fig4(cfg)
        probe = probe_vector(4)
        assert np.abs(np.array(rep["rho_decoded"]) - np.outer(probe, probe)).max() < 1e-12
        assert rep["fidelity"]["estimate"] == pytest.approx(1.0, abs=1e-12)

    def test_fig4_probe1_correlators(self):
        cfg = ExperimentConfig(seed=0, noise_p=0.0, analytic=True)
        rep = run_fig4(cfg, probe=1)
        assert np.abs(np.array(rep["correlators"]) - np.diag([1.0, -1.0, 1.0])).max() < 1e-12


class TestReportFiles:
    def test_fig5_csv_is_its_json_leaves(self):
        cfg = ExperimentConfig(seed=3, noise_p=0.0, analytic=True, phi_grid_deg=(0.0, 45.0))
        assert report_texts(run_fig5(cfg))[1].splitlines() == [
            "path,value", f"schema,{experiments.REPORT_SCHEMA}", "experiment,fig5", "seed,3", "noise_p,0.0",
            "shots_per_setting,", "analytic,true",
            "points.0.target,phi = 0.0 deg", "points.0.estimate,1.0", "points.0.error,0.0",
            "points.0.error_kind,std", "points.0.phi_deg,0.0", "points.0.theory_cos,1.0",
            "points.1.target,phi = 45.0 deg", "points.1.estimate,0.707106781187", "points.1.error,0.0",
            "points.1.error_kind,std", "points.1.phi_deg,45.0", "points.1.theory_cos,0.707106781187"]

    def test_fig3_csv_rows(self):
        lines = report_texts(run_fig3(ExperimentConfig(seed=3, analytic=True)))[1].splitlines()
        assert lines[:3] == ["path,value", f"schema,{experiments.REPORT_SCHEMA}", "experiment,fig3"]
        assert lines[8:11] == ["probes.0.probe,1", "probes.0.target,|0>", "probes.0.fidelity.target,probe 1 fidelity"]

    def test_write_report_creates_files(self, tmp_path):
        cfg = ExperimentConfig(seed=3, analytic=True)
        paths = write_report(run_fig3(cfg), tmp_path)
        assert sorted(p.name for p in paths) == ["fig3.csv", "fig3.json"]
        doc = json.loads((tmp_path / "fig3.json").read_text())
        assert doc["experiment"] == "fig3"

    def test_report_carries_schema_version(self):
        doc = json.loads(report_texts(run_fig4(ExperimentConfig(seed=3, analytic=True)))[0])
        assert next(iter(doc)) == "schema"
        assert doc["schema"] == experiments.REPORT_SCHEMA == 24

    def test_non_finite_value_is_refused(self):
        with pytest.raises(ValueError):
            report_texts({"experiment": "fig5", "points": [{"estimate": 0.5, "error": float("nan")}]})

    def test_floats_rendered_at_twelve_digits(self):
        cfg = ExperimentConfig(seed=3, analytic=True, noise_p=1 / 3)
        text = report_texts(run_fig4(cfg))[0]
        assert "0.333333333333," in text  # noise_p rounded to 12 significant digits

    def test_every_estimate_labels_its_error(self):
        cfg = ExperimentConfig(seed=5, shots_per_setting=200, qsv_tests=200)
        rep3 = run_fig3(cfg)
        for row in rep3["probes"]:
            assert row["fidelity"]["error_kind"] in ("ci95", "std")
            assert row["purity"]["error_kind"] in ("ci95", "std")
        rep5 = run_fig5(ExperimentConfig(seed=5, shots_per_setting=200, phi_grid_deg=(10.0,)))
        assert rep5["points"][0]["error_kind"] == "std"


class TestRuntimeBudget:
    def test_default_pipelines_under_a_minute(self):
        import time

        cfg = ExperimentConfig(seed=6)
        for runner in (run_fig3, run_fig4, run_fig5):
            start = time.perf_counter()
            runner(cfg)
            assert time.perf_counter() - start < 60.0


GAP_KEYS = ("max_gap_masker_walk", "max_gap_masker_optics", "max_gap_preparation", "max_gap_measurement")


@pytest.fixture
def cold_equiv_caches():
    """Clear the cached layouts and gaps that a fault injection bypasses, before and after."""
    caches = (experiments._fixed_gaps, experiments.optics.masking_layout)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


def _swap_walk_coins(monkeypatch):
    steps = list(experiments.walk.masking_schedule())
    c2, c1 = steps[2:4]
    steps[2:4] = [experiments.walk.Local(c1.u, c2.sites), experiments.walk.Local(c2.u, c1.sites)]
    monkeypatch.setattr(experiments.walk, "masking_schedule", lambda: tuple(steps))


def _tilt_c1_hwp(monkeypatch):
    monkeypatch.setitem(experiments.optics._COIN_TRIPLES, "C1", (135.0, 44.9, 90.0))


def _tilt_h4(monkeypatch):
    real = experiments.optics.measurement_layout
    monkeypatch.setattr(experiments.optics, "measurement_layout",
                        lambda angles: real(dataclasses.replace(angles, h4=angles.h4 + 0.01)))


def _tilt_h2(monkeypatch):
    real = experiments.optics.solve_prep_angles
    monkeypatch.setattr(experiments.optics, "solve_prep_angles",
                        lambda a: dataclasses.replace(real(a), h2=real(a).h2 + 1e-3))


class TestEquivalence:
    def test_default_run_passes(self):
        rep = run_equivalence(ExperimentConfig(seed=9), n_inputs=25)
        assert set(rep) == {"experiment", "seed", "n_inputs", "threshold", "max_gap", *GAP_KEYS, "pass"}
        assert rep["pass"] is True and rep["threshold"] == 1e-10
        assert rep["max_gap"] == max(rep[key] for key in GAP_KEYS) <= 1e-14

    @pytest.mark.parametrize("n", [0, -5])
    def test_rejects_empty_run(self, n):
        # A run over no inputs would pass after checking nothing.
        with pytest.raises(ValueError, match=rf"^n_inputs must be a positive integer, got {n}$"):
            run_equivalence(ExperimentConfig(seed=9), n_inputs=n)

    # True used to write "n_inputs": true, and 2.5 ended in numpy's TypeError.
    @pytest.mark.parametrize("n", [True, 2.5, 3.0, "3", None])
    def test_rejects_a_bool_or_non_integer_input_count(self, n):
        with pytest.raises(ValueError, match=rf"^n_inputs must be an integer, got {re.escape(repr(n))}$"):
            run_equivalence(ExperimentConfig(seed=9), n_inputs=n)

    # The library used to run 10**18 + 1 inputs, and a 5,000-digit count,
    # that `--n-inputs` refused, and both took up to 10**18 inputs, about
    # 5e4 years of work; the two now share `experiments._n_inputs`.
    def test_input_count_has_the_rule_of_its_flag(self, capsys, monkeypatch):
        monkeypatch.setattr(experiments, "_preparation_gap", lambda a: pytest.fail("ran before the count was checked"))
        with pytest.raises(ValueError, match=r"^n_inputs must be at most 10\*\*9, got 1000000001$"):
            run_equivalence(ExperimentConfig(seed=9), n_inputs=experiments.MAX_N_INPUTS + 1)
        with pytest.raises(SystemExit) as exc:
            cli.main(["equiv", "--n-inputs", str(experiments.MAX_N_INPUTS + 1)])
        assert exc.value.code == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
        assert errors == ["realmask equiv: error: argument --n-inputs: must be at most 10**9, got 1000000001"]
        with pytest.raises(ValueError, match=r"^n_inputs must be "):
            run_equivalence(ExperimentConfig(seed=9), n_inputs=10**4999)

    def test_one_input_runs(self, capsys):
        # The smallest count that the run and the flag accept.
        rep = run_equivalence(ExperimentConfig(seed=9), n_inputs=1)
        assert rep["pass"] is True and rep["n_inputs"] == 1
        assert cli.main(["equiv", "--n-inputs", "1"]) == 0
        assert capsys.readouterr().out == report_texts(run_equivalence(ExperimentConfig(), 1))[0]

    def test_takes_a_numpy_integer_input_count(self):
        rep = run_equivalence(ExperimentConfig(seed=9), n_inputs=np.int64(5))
        assert type(rep["n_inputs"]) is int
        assert report_texts(rep) == report_texts(run_equivalence(ExperimentConfig(seed=9), n_inputs=5))

    def test_impossible_threshold_fails(self, monkeypatch):
        monkeypatch.setattr(experiments, "EQUIV_THRESHOLD", 0.0)
        rep = run_equivalence(ExperimentConfig(seed=9), n_inputs=5)
        assert rep["pass"] is False and rep["threshold"] == 0.0

    def test_blocks_keep_the_input_stream(self, monkeypatch):
        # Blocks draw the same preparation targets, in the same order, as one
        # draw per target.
        experiments._fixed_gaps()  # the basis targets are checked once, before this run
        seen = []
        real_solve = experiments.optics.solve_prep_angles

        def recording_solve(a):
            seen.append(np.array(a))
            return real_solve(a)

        monkeypatch.setattr(experiments, "EQUIV_BLOCK", 4)
        monkeypatch.setattr(experiments.optics, "solve_prep_angles", recording_solve)
        run_equivalence(ExperimentConfig(seed=9), n_inputs=10)
        rng = measure.generator(experiments.derive_seed(9, "equiv"))
        real = np.array([rng.normal(size=4) for _ in range(10)])
        assert [len(a) for a in seen] == [4, 4, 2]
        for got, w in zip(seen, (real[:4], real[4:8], real[8:])):
            assert np.allclose(got, w / np.linalg.norm(w, axis=-1, keepdims=True), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("inject, moved", [
        (_swap_walk_coins, {"max_gap_masker_walk": 0.1}),
        (_tilt_c1_hwp, {"max_gap_masker_optics": 1e-3}),
        (_tilt_h4, {"max_gap_measurement": 1e-4}),
        # The table's basis check runs through the preparation, so it sees H2 too.
        (_tilt_h2, {"max_gap_preparation": 1e-5, "max_gap_masker_optics": 1e-5}),
    ], ids=["walk-coins-swapped", "c1-hwp-at-44.9", "h4-plus-0.01", "h2-plus-0.001"])
    def test_each_fault_fails_its_own_gap(self, inject, moved, monkeypatch, cold_equiv_caches, tmp_path, capsys):
        inject(monkeypatch)
        rep = run_equivalence(ExperimentConfig(seed=9), n_inputs=10)
        assert rep["pass"] is False
        for key in GAP_KEYS:
            assert rep[key] > moved[key] if key in moved else rep[key] <= 1e-14, key
        assert cli.main(["equiv", "--n-inputs", "10", "--out", str(tmp_path)]) == 2
        assert "equivalence FAILED: max gap" in capsys.readouterr().err

    def test_block_boundary(self):
        n = experiments.EQUIV_BLOCK + 1
        rep = run_equivalence(ExperimentConfig(seed=9), n_inputs=n)
        assert rep["pass"] is True and rep["n_inputs"] == n
        json.loads(report_texts(rep)[0])  # refuses NaN and infinity


# The settings each experiment subcommand reads.
READS = {
    "fig3": {"seed", "shots_per_setting", "qsv_tests", "noise_p", "analytic", "output_path"},
    "fig4": {"seed", "shots_per_setting", "noise_p", "analytic", "output_path"},
    "fig5": {"seed", "shots_per_setting", "noise_p", "phi_grid_deg", "analytic", "output_path"},
    "equiv": {"seed", "output_path"},
}
# A flag and a config value for each field, and the config it gives.
FIELD_VALUES = {
    "seed": (["--seed", "3"], 3, 3),
    "shots_per_setting": (["--shots", "20"], 20, 20),
    "qsv_tests": (["--qsv-tests", "20"], 20, 20),
    "noise_p": (["--noise-p", "0.5"], 0.5, 0.5),
    "phi_grid_deg": (["--phi-grid", "0,45"], [0, 45], (0.0, 45.0)),
    "analytic": (["--analytic"], True, True),
    "output_path": (["--out", "reports"], "reports", "reports"),
}

# Values of every kind that a config field may be given.  The numpy float64
# NaN and the floats are JSON-representable; the other numpy scalars are not.
SCALARS = st.one_of(
    st.booleans(), st.none(), st.text(max_size=3), st.floats(),
    st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan, math.inf, -math.inf]),
    st.integers(-3, 3), st.integers(10**18 - 1, 10**18 + 1), st.integers(2**63 - 1, 2**64), st.just(10**400),
    st.sampled_from([np.int64(3), np.uint64(2**64 - 1), np.int8(-1), np.float32(0.25), np.float16(math.inf),
                     np.float64(math.nan), np.True_, np.False_]),
)
ANY_VALUE = st.one_of(SCALARS, st.lists(SCALARS, max_size=3), st.lists(SCALARS, max_size=3).map(tuple))
# Values that each field should accept, drawn beside ANY_VALUE so that accepted configs are common.
VALID = {
    "seed": st.integers(-2**70, 2**70),
    "shots_per_setting": st.integers(1, measure.MAX_SHOTS),
    "qsv_tests": st.integers(1, measure.MAX_SHOTS),
    "noise_p": st.floats(0.0, 1.0),
    "phi_grid_deg": st.lists(st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.integers(-720, 720)),
                             min_size=1, max_size=3),
    "analytic": st.booleans(),
}
# A config that runs fast, onto which each drawn field value goes.
CHEAP = {"seed": 1, "shots_per_setting": 20, "qsv_tests": 20, "phi_grid_deg": (0.0, 45.0)}
PLAIN_TYPES = {"seed": int, "shots_per_setting": int, "qsv_tests": int, "noise_p": float, "phi_grid_deg": tuple,
               "analytic": bool}


def _plain(value):
    """`value` with each numpy integer or float scalar replaced by its Python number."""
    if isinstance(value, (list, tuple)):
        return type(value)(map(_plain, value))
    return value.item() if isinstance(value, (np.integer, np.floating)) else value


def _config_or_error(**fields) -> tuple[ExperimentConfig | None, str | None]:
    try:
        return ExperimentConfig(**fields), None
    except ValueError as exc:
        return None, str(exc)


def _reject_constant(token):
    raise ValueError(f"{token} in report")


class TestCommandLine:
    @pytest.mark.parametrize("field", sorted(experiments.FIELD_CHECKS))
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_the_library_and_a_config_file_accept_and_refuse_alike(self, field, data, tmp_path_factory):
        value = data.draw(VALID[field] if data.draw(st.booleans()) else ANY_VALUE)
        config, error = _config_or_error(**{field: value})
        # A numpy integer or float is taken as its Python number, a numpy bool as no number.
        plain, plain_error = _config_or_error(**{field: _plain(value)})
        assert (config, error is None) == (plain, plain_error is None)
        event("refused" if config is None else "accepted")
        if config is not None:
            got = getattr(config, field)
            assert got is None or type(got) is PLAIN_TYPES[field]  # None: the experiment's default shots
            if field == "phi_grid_deg":
                assert all(type(phi) is float for phi in got)
            run = dataclasses.replace(ExperimentConfig(**CHEAP), **{field: got})
            for report in (run_fig3(run), run_fig4(run), run_fig5(run), run_equivalence(run, n_inputs=2)):
                json.loads(report_texts(report)[0], parse_constant=_reject_constant)
        try:
            text = json.dumps({field: value})
        except TypeError:  # a numpy integer or bool, which JSON cannot hold
            return
        event("compared with a config file")
        # The library given the value as a config file gives it.
        config, error = _config_or_error(**json.loads(text))
        cfg_path = tmp_path_factory.getbasetemp() / "hypothesis-config.json"
        cfg_path.write_text(text)
        args = cli.build_parser().parse_args(["fig3" if field == "qsv_tests" else "fig5", "--config", str(cfg_path)])
        if error is None:
            assert cli._build_config(args) == (config, None)
        else:
            with pytest.raises(SystemExit) as exc:
                cli._build_config(args)
            assert exc.value.code == f"config file {cfg_path}: {error}"

    @pytest.mark.parametrize("field", sorted(FIELD_VALUES))
    @pytest.mark.parametrize("command", sorted(READS))
    def test_subcommand_takes_only_the_fields_it_reads(self, command, field, tmp_path, capsys):
        # `equiv --analytic --shots 7 --qsv-tests 2 --noise-p 0.9` used to exit 0
        # and ignore all four flags.
        flag, value, want = FIELD_VALUES[field]
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({field: value}))
        by_flag, by_config = [command, *flag], [command, "--config", str(cfg_path)]
        if field in READS[command]:
            for argv in (by_flag, by_config):
                config, out_dir = cli._build_config(cli.build_parser().parse_args(argv))
                assert (out_dir if field == "output_path" else getattr(config, field)) == want
            return
        with pytest.raises(SystemExit) as exc:
            cli.main(by_flag)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        with pytest.raises(SystemExit) as exc:
            cli.main(by_config)
        assert isinstance(exc.value.code, str) and repr(field) in exc.value.code

    def test_fig5_writes_outputs(self, tmp_path, capsys):
        rc = cli.main([
            "fig5", "--seed", "4", "--shots", "400", "--noise-p", "0",
            "--phi-grid", "0,45", "--out", str(tmp_path),
        ])
        assert rc == 0
        texts = [(tmp_path / f"fig5.{ext}").read_bytes().decode() for ext in ("json", "csv")]
        assert texts[1].startswith("path,value\n")
        assert tuple(texts) == report_texts(run_fig5(ExperimentConfig(seed=4, shots_per_setting=400, noise_p=0.0,
                                                                       phi_grid_deg=(0.0, 45.0))))

    def test_stdout_json_mode(self, capsys):
        rc = cli.main(["fig4", "--analytic", "--seed", "8"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["experiment"] == "fig4"

    def test_equiv_exit_codes(self, tmp_path, monkeypatch, capsys):
        rc = cli.main(["equiv", "--n-inputs", "10", "--out", str(tmp_path)])
        assert rc == 0

        def fake_run(config, n_inputs):
            return {"experiment": "equiv", "pass": False, "max_gap": 1.0,
                    "threshold": 1e-10, "seed": 0, "n_inputs": n_inputs, **dict.fromkeys(GAP_KEYS, 1.0)}

        monkeypatch.setattr(experiments, "run_equivalence", fake_run)
        rc = cli.main(["equiv", "--n-inputs", "10", "--out", str(tmp_path)])
        assert rc == 2

    def test_config_file_and_flag_precedence(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 123, "noise_p": 0.5, "analytic": True}))
        rc = cli.main(["fig4", "--config", str(cfg_path), "--noise-p", "0.25"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["seed"] == 123          # from config file
        assert doc["noise_p"] == 0.25      # flag wins

    @pytest.mark.parametrize("command, key", [("fig4", "sseed"), ("fig4", "probe"), ("equiv", "n_inputs")])
    def test_config_file_rejects_unknown_keys(self, command, key, tmp_path):
        # `--probe` and `--n-inputs` are flags only; the refusal used to say
        # that the subcommand "does not read" them.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({key: 2}))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg_path)])
        keys = sorted({*READS[command], "experiment"})
        assert exc.value.code == (f"config file {cfg_path}: not config keys of {command}: [{key!r}]; "
                                  f"its keys are {keys}")

    @pytest.mark.parametrize("text", ["[1]", '"seed"', "7", "null"])
    def test_config_file_must_hold_an_object(self, text, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig4", "--config", str(cfg_path)])
        assert exc.value.code == f"config file {cfg_path} must hold a JSON object"

    # Each document goes to a subcommand that reads its key, so that it
    # reaches the key's value check, not the unknown-key refusal.
    @pytest.mark.parametrize("command, doc", [
        ("fig4", {"analytic": "false"}),
        ("fig4", {"analytic": 0}),
        ("fig4", {"seed": 1.7}),
        ("fig4", {"seed": True}),
        ("fig4", {"seed": "7"}),
        ("fig4", {"shots_per_setting": 400.0}),
        ("fig4", {"shots_per_setting": 0}),
        ("fig4", {"shots_per_setting": 2**63}),
        ("fig3", {"qsv_tests": False}),
        ("fig4", {"noise_p": "0.1"}),
        ("fig4", {"noise_p": 1.5}),
        ("fig5", {"phi_grid_deg": ["0", "45"]}),
        ("fig4", {"output_path": 3}),
        ("fig4", {"experiment": 7}),
        ("fig4", {"experiment": "fig5"}),
    ])
    def test_config_file_rejects_mistyped_values(self, tmp_path, command, doc):
        # {"analytic": "false", "seed": 1.7} used to run in analytic mode with seed 1,
        # and an "experiment" key of any value was ignored.
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--config", str(cfg_path)])
        key = next(iter(doc))
        assert isinstance(exc.value.code, str)
        assert exc.value.code.startswith(f"config file {cfg_path}: {key} must ")

    @pytest.mark.parametrize("command", sorted(READS))
    def test_parser_defaults_are_those_of_experiments(self, command):
        parser = cli.build_parser()
        args = parser.parse_args([command])
        assert cli._build_config(args) == (ExperimentConfig(), None)
        if command == "fig4":
            assert args.probe == experiments.DEFAULT_PROBE == inspect.signature(run_fig4).parameters["probe"].default
            for probe in experiments.PROBES:
                assert parser.parse_args([command, "--probe", str(probe)]).probe == probe
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--probe", str(max(experiments.PROBES) + 1)])
        if command == "equiv":
            assert (args.n_inputs == experiments.DEFAULT_N_INPUTS
                    == inspect.signature(run_equivalence).parameters["n_inputs"].default)
        grid = experiments.DEFAULT_PHI_GRID
        shown = {"seed": f"(default {experiments.DEFAULT_SEED})",
                 "phi_grid_deg": f"(default {grid[0]:g},{grid[1]:g},...,{grid[-1]:g})"}
        for field, text in shown.items():
            if field in READS[command]:
                assert text in cli.OPTIONS[field][2]

    # These helps used to type their caps a second time, beside the rule's constant.
    @pytest.mark.parametrize("command, flag, cap", [
        ("fig3", "--shots", measure.MAX_SHOTS),
        ("fig3", "--qsv-tests", measure.MAX_SHOTS),
        ("equiv", "--n-inputs", experiments.MAX_N_INPUTS),
    ])
    def test_a_capped_flags_help_names_the_cap_it_is_held_to(self, command, flag, cap, capsys):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices[command]
        (help_text,) = [a.help for a in sub._actions if flag in a.option_strings]
        (power,) = re.findall(r"\bat most 10\*\*(\d+)\)", help_text)
        assert 10 ** int(power) == cap
        assert getattr(parser.parse_args([command, flag, str(cap)]), sub._option_string_actions[flag].dest) == cap
        with pytest.raises(SystemExit):
            parser.parse_args([command, flag, str(cap + 1)])
        assert f"must be at most 10**{power}, got {cap + 1}" in capsys.readouterr().err

    # `--probe 5` used to be argparse's "invalid choice", a second rule beside
    # the library's `probe index must be ...`.
    @pytest.mark.parametrize("probe", ["0", "5", "-1"])
    def test_probe_flag_takes_the_library_rule(self, probe, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig4", "--analytic", "--probe", probe])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"realmask fig4: error: argument --probe: probe index must be an integer 1..4, got {probe}"
        assert "--probe PROBE" in err

    def test_config_experiment_key_may_name_the_subcommand(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "fig4", "seed": 3}))
        assert cli.main(["fig4", "--analytic", "--config", str(cfg_path)]) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == 3

    def test_unreadable_config_file_is_a_clean_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{seed: 1")
        for path in (bad, tmp_path / "missing.json"):
            with pytest.raises(SystemExit) as exc:
                cli.main(["fig4", "--config", str(path)])
            assert isinstance(exc.value.code, str) and str(path) in exc.value.code

    # Each used to end in a traceback: the NUL in `mkdir`'s "embedded null
    # byte", the lone surrogate in its UnicodeEncodeError, the nesting in
    # `json.loads`'s RecursionError.
    @pytest.mark.parametrize("text, error", [
        ('{"output_path": "a\\u0000b"}', "output_path must not hold a NUL character, got 'a\\x00b'"),
        ('{"output_path": "\\ud800"}', "output_path 'utf-8' codec can't encode character '\\ud800'"),
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
    ], ids=["nul-in-output-path", "unencodable-output-path", "nested-100000-deep"])
    def test_config_file_value_that_used_to_end_in_a_traceback(self, text, error, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(text)
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig5", "--analytic", "--config", str(cfg_path)])
        assert exc.value.code.startswith(f"config file {cfg_path}: {error}")
        assert capsys.readouterr().out == "" and sorted(tmp_path.iterdir()) == [cfg_path]

    @pytest.mark.parametrize("argv", [
        ["fig3", "--noise-p", "1.5"],
        ["fig3", "--noise-p", "nan"],
        ["fig3", "--qsv-tests", "0"],
        ["fig4", "--shots", "0"],
        ["fig4", "--shots", "2.5"],
        # 2**63 shots used to end in an OverflowError from the multinomial
        # draw, and 2**63 - 1 in fig5's Poisson resampling.
        ["fig3", "--shots", "9223372036854775808"],
        ["fig4", "--shots", "9223372036854775808"],
        ["fig5", "--shots", "9223372036854775807", "--noise-p", "0", "--phi-grid", "90"],
        ["fig5", "--shots", "1000000000000000001"],
        # 2**63 tests used to end in numpy's "Maximum allowed dimension
        # exceeded"; tests are bounded as shots are.
        ["fig3", "--qsv-tests", "9223372036854775808"],
        ["fig3", "--qsv-tests", "1000000000000000001"],
        ["fig5", "--phi-grid", "0,x"],
        ["fig5", "--phi-grid", "0,inf"],
        ["equiv", "--n-inputs", "0"],
        # Each of these used to end in a traceback or print nan angles.
        ["angles", "--state", "a,b,c,d"],
        ["angles", "--basis", "x,1,2,3"],
        ["angles", "--state", "nan,1,1,1"],
        ["angles", "--state", "inf,1,1,1"],
        ["angles", "--phi", "nan"],
        ["angles", "--basis", "nan,0,0,0"],
        ["angles", "--state", "0,0,0,0"],
        ["angles", "--state", "1,1,1"],
        # A bad Pauli pair used to exit 1 from inside the command.
        ["angles", "--setting", "QQ"],
        ["angles", "--setting", "X"],
    ])
    def test_bad_flag_values_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {argv[1]}:" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("experiment", ["fig3", "fig4", "fig5"])
    @pytest.mark.parametrize("shots", ["1", "2"])
    def test_one_or_two_shots_give_finite_reports(self, experiment, shots, tmp_path):
        # Such tables give no unbiased square (one shot) or may read one
        # outcome on every axis, with no variance (two shots); each must
        # still give a finite estimate and a valid report.
        tests = ["--qsv-tests", "50"] if experiment == "fig3" else []
        rc = cli.main([experiment, "--shots", shots, *tests, "--out", str(tmp_path)])
        assert rc == 0

        def reject(token):
            raise ValueError(f"{token} in report")

        doc = json.loads((tmp_path / f"{experiment}.json").read_text(), parse_constant=reject)
        assert doc["shots_per_setting"] == int(shots)
        assert "nan" not in (tmp_path / f"{experiment}.csv").read_text()

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_every_accepted_config_writes_valid_json(self, data):
        command = data.draw(st.sampled_from(sorted(READS)))
        reads = READS[command]
        argv = [command, f"--seed={data.draw(st.integers(-2**63, 2**64))}"]
        if "shots_per_setting" in reads:
            argv.append(f"--shots={data.draw(st.one_of(st.integers(1, 50), st.integers(1, measure.MAX_SHOTS)))}")
        if "qsv_tests" in reads:
            argv.append(f"--qsv-tests={data.draw(st.integers(1, 50))}")
        if "noise_p" in reads:
            argv.append(f"--noise-p={data.draw(st.floats(0.0, 1.0))!r}")
        if "phi_grid_deg" in reads:
            phases = data.draw(st.lists(st.floats(-720.0, 720.0), min_size=1, max_size=3))
            argv.append("--phi-grid=" + ",".join(repr(x) for x in phases))
        if command == "equiv":
            argv.append("--n-inputs=5")
        if "analytic" in reads and data.draw(st.booleans()):
            argv.append("--analytic")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0

        def reject(token):
            raise ValueError(f"{token} in report")

        doc = json.loads(out.getvalue(), parse_constant=reject)
        assert doc["schema"] == experiments.REPORT_SCHEMA

    def test_most_tests_run_in_under_a_second(self, capsys):
        # One binomial pass count per probe: 10**18 tests used to need
        # exabytes of test draws.
        experiments._fig3_model(experiments.DEFAULT_NOISE_P)
        start = time.perf_counter()
        assert cli.main(["fig3", f"--qsv-tests={measure.MAX_SHOTS}", "--seed", "1"]) == 0
        assert time.perf_counter() - start < 1.0
        doc = json.loads(capsys.readouterr().out, parse_constant=pytest.fail)
        assert doc["qsv_tests"] == 10**18
        for row in doc["probes"]:
            fid = row["fidelity"]
            assert 0 < fid["passed"] < doc["qsv_tests"]
            assert 0.98 < fid["estimate"] < 1.0 and 0.0 < fid["error"] < 1e-9

    def test_config_file_bounds_the_tests_as_the_flag_does(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"qsv_tests": 10**18 + 1}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig3", "--config", str(cfg_path)])
        assert exc.value.code == f"config file {cfg_path}: qsv_tests must be at most 10**18, got {10**18 + 1}"

    def test_most_shots_run(self, capsys):
        assert cli.main(["fig5", f"--shots={measure.MAX_SHOTS}", "--noise-p", "0", "--phi-grid", "90"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["shots_per_setting"] == 10**18 and doc["points"][0]["estimate"] == 0.0

    def test_memory_error_is_a_one_line_exit(self, monkeypatch, capsys):
        # A run that cannot get its memory used to end in numpy's traceback;
        # the failed allocation is injected here.
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 72.8 TiB for an array with shape (10000000000000,)")

        monkeypatch.setattr(experiments.estimate, "qsv_run", refuse)
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig3", "--qsv-tests", "10000000000000"])
        assert exc.value.code == ("fig3: not enough memory for this run: "
                                  "Unable to allocate 72.8 TiB for an array with shape (10000000000000,)")
        assert capsys.readouterr().out == ""

    def test_angles_subcommand(self, capsys):
        rc = cli.main(["angles", "--state", "1,1,1,1", "--phi", "90", "--setting", "ZZ"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "H1 = 22.500000 deg" in out
        assert "H2 = 45.000000 deg" in out  # phi/4 + 22.5 at phi = 90
        assert "Q2 = " in out and "H5 = " in out

    def test_angles_requires_an_argument(self):
        # The message used to leave out --basis, which is accepted on its own.
        with pytest.raises(SystemExit) as exc:
            cli.main(["angles"])
        assert exc.value.code == "angles: give at least one of --state, --phi, --setting, --basis"

    def test_angles_usage_error_exits_nonzero(self):
        import subprocess
        import sys

        proc = subprocess.run([sys.executable, "-m", "realmask.cli", "angles"], capture_output=True, text=True)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr == "angles: give at least one of --state, --phi, --setting, --basis\n"

    def test_angles_takes_one_measurement_setting(self, capsys):
        # Given both, `angles` used to print the --setting and drop --basis.
        with pytest.raises(SystemExit) as exc:
            cli.main(["angles", "--setting", "XY", "--basis", "0.3,0.5,1.1,0.2"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == \
            "realmask angles: error: argument --basis: not allowed with argument --setting"

    def test_angles_print_inside_one_plate_period(self, capsys):
        # A tiny negative H2 used to print as 180.000000 deg.
        assert cli.main(["angles", "--phi", "-90.00000000000001"]) == 0
        assert "  H2 = 0.000000 deg\n" in capsys.readouterr().out

    def test_angles_prints_the_q1_of_its_record(self, monkeypatch, capsys):
        # Q1 used to be printed as a literal 45 deg, whatever the record held.
        monkeypatch.setattr(cli.optics, "phase_prep_angles",
                            lambda phi: cli.optics.PrepAngles(h1=0.0, h2=30.0, h3=0.0, q1=30.0))
        assert cli.main(["angles", "--phi", "30"]) == 0
        assert "  Q1 = 30.000000 deg (inserted on the -3 rail)\n" in capsys.readouterr().out

    @pytest.mark.parametrize("setting", ["XW", "X", "XYZ", "xq", ""])
    def test_angles_rejects_a_non_pauli_setting(self, setting, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["angles", "--setting", setting])
        assert exc.value.code == 2
        assert (f"argument --setting: must be a Pauli pair like XX, XY, ..., ZZ, got {setting!r}"
                in capsys.readouterr().err)

    def test_angles_setting_is_case_insensitive(self, capsys):
        assert cli.main(["angles", "--setting", "xY"]) == 0
        mixed = capsys.readouterr().out
        assert cli.main(["angles", "--setting", "XY"]) == 0
        assert capsys.readouterr().out == mixed and "measurement setting XY " in mixed

    # Subnormal amplitudes used to be divided by a norm they could not hold
    # ("target norm 1.414... deviates from 1"), and huge ones overflowed it.
    @pytest.mark.parametrize("state, same_as", [
        ("5e-324,5e-324,0,0", "1,1,0,0"),
        ("1e308,1e308,1e308,1e308", "1,1,1,1"),
        ("1e-320,3e-321,0,0", None),
    ])
    def test_angles_state_of_any_finite_scale(self, state, same_as, capsys):
        assert cli.main(["angles", "--state", state]) == 0
        out = capsys.readouterr().out
        assert "  H1 = " in out and "  H3 = " in out
        if same_as is not None:
            assert cli.main(["angles", "--state", same_as]) == 0
            assert capsys.readouterr().out == out

    def test_out_naming_a_file_is_a_clean_error(self, tmp_path):
        # Report writing under an existing regular file used to end in a
        # FileExistsError traceback.
        taken = tmp_path / "taken"
        taken.write_text("")
        with pytest.raises(SystemExit) as exc:
            cli.main(["fig4", "--analytic", "--out", str(taken)])
        assert isinstance(exc.value.code, str)
        assert exc.value.code.startswith("fig4: ") and str(taken) in exc.value.code

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_output_path_is_a_usage_error(self, tmp_path, source, capsys, monkeypatch):
        # An empty path used to print the report to stdout and exit 0.  Its own
        # value check refuses it, as every setting's does: as a flag, a usage
        # error (exit 2); as a config value, a config-file error (exit 1).
        monkeypatch.chdir(tmp_path)
        argv = ["fig4", "--analytic"]
        if source == "flag":
            argv += ["--out", ""]
        else:
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({"output_path": ""}))
            argv += ["--config", str(cfg_path)]
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert captured.out == ""
        if source == "flag":
            assert exc.value.code == 2
            assert captured.err.splitlines()[-1] == \
                "realmask fig4: error: argument --out: must be a non-empty string, got ''"
        else:
            assert exc.value.code == f"config file {cfg_path}: output_path must be a non-empty string, got ''"
        assert sorted(p.name for p in tmp_path.iterdir()) == (["cfg.json"] if source == "config" else [])

    # A list starting with a minus sign after a space used to be read as a
    # flag: "argument --phi-grid: expected one argument", exit 2.
    @pytest.mark.parametrize("argv, flag, value, shown", [
        (["fig5", "--analytic"], "--phi-grid", "-15,0", '"phi_deg": -15.0'),
        (["fig5", "--analytic", "--seed", "-3"], "--phi-grid", "-15,-30,45", '"phi_deg": -30.0'),
        (["fig5", "--analytic"], "--phi-grid", "-.5,1", '"phi_deg": -0.5'),
        (["angles"], "--state", "-1,0,0,0", "a = (-1.000000, 0.000000"),
        (["angles", "--phi", "-30"], "--state", "-1,2,-3,4", "a = (-0.182574, 0.365148, -0.547723"),
        (["angles"], "--basis", "-0.3,0.5,-1.1,0.2", "gamma=-0.300000, zeta=0.500000, alpha=-1.100000"),
        # A lone negative number that is no plain decimal.
        (["angles"], "--phi", "-1e1", "phi = -10.000000 deg"),
        (["fig5", "--analytic"], "--phi-grid", "-1e1", '"phi_deg": -10.0'),
        (["fig5", "--analytic"], "--phi-grid", "-1_5", '"phi_deg": -15.0'),
    ])
    def test_a_negative_list_takes_either_spelling(self, argv, flag, value, shown, capsys):
        assert cli.main([*argv, flag, value]) == 0
        spaced = capsys.readouterr().out
        assert shown in spaced
        assert cli.main([*argv, f"{flag}={value}"]) == 0
        assert capsys.readouterr().out == spaced

    @pytest.mark.parametrize("argv", [["fig5", "--", "-15,0"], ["fig5", "--phi-grid", "--", "-15,0"],
                                      ["fig5", "--phi-grid=-15", "-15,0"], ["fig5", "-", "-15,0"]])
    def test_a_value_after_no_long_flag_stays_alone(self, argv):
        # A bare "--" ends the flags, and "--x=v" already holds its value.
        assert cli._attach_negative_lists(argv) == argv

    @pytest.mark.parametrize("argv, flag", [
        (["fig5", "--phi-grid", "-inf,0"], "--phi-grid"),
        (["fig5", "--phi-grid", "-15,x"], "--phi-grid"),
        (["angles", "--state", "-1,0,0"], "--state"),
        (["angles", "--basis", "-0.3,nan,0,0"], "--basis"),
        (["fig5", "--analytic", "-15,0"], "--analytic"),
        (["fig5", "--phi-grid", "-inf"], "--phi-grid"),
        (["angles", "--phi", "-inf"], "--phi"),
        (["angles", "--phi", "-nan"], "--phi"),
    ])
    def test_a_bad_negative_list_is_a_usage_error_of_its_flag(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and f"argument {flag}:" in err and "expected one argument" not in err

    # A lone "-inf" used to be read as a flag too: "expected one argument".
    @pytest.mark.parametrize("argv", [
        ["fig5", "--phi-grid", "-inf"],
        ["fig5", "--analytic", "--phi-grid", "-nan"],
        ["angles", "--phi", "-inf"],
        ["angles", "--phi", "-Infinity"],
    ])
    def test_a_lone_non_finite_negative_value_gets_the_finite_error_of_its_flag(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1].startswith(f"realmask {argv[0]}: error: argument {argv[-2]}: must be ")
        assert "finite number" in err[-1]

    def test_angles_raw_basis(self, capsys):
        rc = cli.main(["angles", "--basis", "0.785398,0,0.785398,1.570796"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "custom basis" in out and "solver residual" in out

    # An out-of-range --noise-p used to end in a ValueError traceback, and
    # -1e-3 or -inf in "expected one argument": the driver parses its
    # arguments through the command line's negative-value step.
    @pytest.mark.parametrize("value", ["2", "nan", "-1", "-1e-3", "-inf"])
    def test_reproduce_figures_rejects_bad_noise_p(self, tmp_path, value):
        import subprocess
        import sys
        from pathlib import Path

        script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
        out = subprocess.run([sys.executable, str(script), "--noise-p", value, "--out", str(tmp_path / "out")],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 2
        assert "usage:" in out.stderr and "argument --noise-p: must be a number in [0, 1], got " in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "out").exists()

    def test_reproduce_figures_out_naming_a_file_is_a_clean_error(self, tmp_path):
        import subprocess
        import sys
        from pathlib import Path

        script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
        taken = tmp_path / "taken"
        taken.write_text("")
        out = subprocess.run([sys.executable, str(script), "--out", str(taken)],
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 1
        assert out.stderr.startswith("reproduce_figures.py: ") and str(taken) in out.stderr
        assert len(out.stderr.splitlines()) == 1

    def test_reproduce_figures_empty_out_is_a_usage_error(self, tmp_path):
        # The driver's own `--out` used to take "" as the working directory,
        # write its eight reports there and exit 0; it now takes the flag,
        # and its check, from the command line's table.
        import subprocess
        import sys
        from pathlib import Path

        script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_figures.py"
        out = subprocess.run([sys.executable, str(script), "--out", ""], cwd=tmp_path,
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 2
        assert out.stderr.splitlines()[-1].endswith("error: argument --out: must be a non-empty string, got ''")
        assert list(tmp_path.iterdir()) == []

    def test_experiments_import_does_not_load_scipy(self):
        import subprocess
        import sys

        code = "import sys, realmask.experiments; print('scipy' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "False"

    def test_experiments_import_loads_no_statistics(self):
        # `statistics` pulled in `decimal` and `fractions` for one constant,
        # about 4 ms of each fresh start.
        import subprocess
        import sys

        code = ("import sys, realmask.experiments; "
                "print([m for m in ('statistics', 'decimal', 'fractions') if m in sys.modules])")
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
        assert out.stdout.strip() == "[]"

    def test_experiments_import_loads_no_random_module_of_its_own(self):
        # Each seeded call builds its own Philox stream; none is built at
        # import.  numpy 2 loads numpy.random only on first use; an older
        # numpy loads it with numpy itself, so the test compares with that.
        import subprocess
        import sys

        code = ("import sys, numpy; before = 'numpy.random' in sys.modules; import realmask.experiments; "
                "print(before, 'numpy.random' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True, capture_output=True, text=True)
        before, after = out.stdout.split()
        assert after == before


REPO = Path(__file__).resolve().parents[1]
# The commands that print to stdout, as the arguments after the interpreter,
# with the name that prefixes their one-line error; "{out}" is a fresh directory.
PRINTING = {
    "fig3": ["-m", "realmask.cli", "fig3", "--analytic"],
    "fig4": ["-m", "realmask.cli", "fig4", "--analytic"],
    "fig5": ["-m", "realmask.cli", "fig5", "--analytic"],
    "equiv": ["-m", "realmask.cli", "equiv", "--n-inputs", "1"],
    "angles": ["-m", "realmask.cli", "angles", "--state", "1,2,3,4"],
    "reproduce_figures.py": [str(REPO / "scripts" / "reproduce_figures.py"), "--seed", "1", "--out", "{out}"],
}


class TestFailedStdout:
    """A stdout that cannot take the output is a one-line error, exit 1.

    Each command used to end in a BrokenPipeError or an ENOSPC OSError
    traceback, and then Python's "Exception ignored" message from the flush
    at exit.
    """

    @staticmethod
    def _run(name, stdout, tmp_path, **popen):
        argv = [arg.replace("{out}", str(tmp_path / "out")) for arg in PRINTING[name]]
        proc = subprocess.run([sys.executable, *argv], stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": str(REPO / "src")}, **popen)
        assert proc.returncode == 1, proc.stderr
        assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr
        [line] = proc.stderr.splitlines()
        return line

    @pytest.mark.parametrize("name", sorted(PRINTING))
    def test_a_pipe_whose_reader_has_closed(self, name, tmp_path):
        read, write = os.pipe()
        os.close(read)
        try:
            line = self._run(name, write, tmp_path)
        finally:
            os.close(write)
        assert line == f"{name}: [Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="this system has no /dev/full")
    @pytest.mark.parametrize("name", sorted(PRINTING))
    def test_a_full_device(self, name, tmp_path):
        with open("/dev/full", "w") as full:
            line = self._run(name, full, tmp_path)
        assert line == f"{name}: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"

    # Python starts with `sys.stdout` None when fd 1 is closed; nothing runs.
    @pytest.mark.parametrize("name", sorted(PRINTING))
    def test_a_stdout_closed_at_the_start(self, name, tmp_path):
        line = self._run(name, subprocess.DEVNULL, tmp_path, preexec_fn=lambda: os.close(1))
        assert line == f"{name}: standard output is closed"
        assert not (tmp_path / "out").exists()
