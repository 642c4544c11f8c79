"""Command-line harness.

Subcommands mirror the experiment pipelines: `fig3` (verification fidelity +
reduced purities), `fig4` (correlation decoding), `fig5` (concurrence vs
phase), `equiv` (masker / walk / optics cross-check, nonzero exit on breach),
and `angles` (waveplate angle solutions for preparation and measurement).

Option precedence: command-line flags override the --config file, which
overrides built-in defaults.  Flag and config-file values go through the same
checks; a bad value is a one-line error, never a silent coercion.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from . import experiments, measure, optics
from .experiments import ExperimentConfig


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _integer(v) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"must be an integer, got {v!r}")
    return v


def _positive(v) -> int:
    if _integer(v) < 1:
        raise ValueError(f"must be a positive integer, got {v!r}")
    return v


def _probability(v) -> float:
    if not _is_number(v) or not 0.0 <= v <= 1.0:
        raise ValueError(f"must be a number in [0, 1], got {v!r}")
    return float(v)


def _phases(v) -> tuple[float, ...]:
    if not isinstance(v, (list, tuple)) or not v or not all(_is_number(x) and math.isfinite(x) for x in v):
        raise ValueError(f"must be a non-empty list of finite numbers, got {v!r}")
    return tuple(float(x) for x in v)


def _finite(v) -> float:
    if not _is_number(v) or not math.isfinite(v):
        raise ValueError(f"must be a finite number, got {v!r}")
    return float(v)


def _four_finite(v) -> tuple[float, ...]:
    if len(v) != 4 or not all(math.isfinite(x) for x in v):
        raise ValueError(f"must be four comma-separated finite numbers, got {v!r}")
    return tuple(v)


def _real_state(v) -> tuple[float, ...]:
    parts = _four_finite(v)
    norm = math.hypot(*parts)
    if not 0.0 < norm < math.inf:
        raise ValueError(f"must have a finite nonzero norm, got {v!r}")
    return tuple(x / norm for x in parts)


def _flag(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"must be true or false, got {v!r}")
    return v


def _text(v) -> str:
    if not isinstance(v, str):
        raise ValueError(f"must be a string, got {v!r}")
    return v


_CONFIG_KEYS = {
    "seed": _integer,
    "shots_per_setting": _positive,
    "qsv_tests": _positive,
    "noise_p": _probability,
    "phi_grid_deg": _phases,
    "analytic": _flag,
    "output_path": _text,
}


def _load_config_file(path: str, command: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"config file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise SystemExit(f"config file {path} must hold a JSON object")
    unknown = set(doc) - set(_CONFIG_KEYS) - {"experiment"}
    if unknown:
        raise SystemExit(f"config file {path} has unknown keys: {sorted(unknown)}")
    if doc.get("experiment", command) != command:
        raise SystemExit(f"config file {path}: experiment must be {command!r}, got {doc['experiment']!r}")
    values = {}
    for key, v in doc.items():
        if key in _CONFIG_KEYS:
            try:
                values[key] = _CONFIG_KEYS[key](v)
            except ValueError as exc:
                raise SystemExit(f"config file {path}: {key} {exc}") from None
    return values


def _flag_type(parse, check):
    """argparse `type=`: parse the flag text, then apply a config-value check."""

    def convert(text: str):
        try:
            return check(parse(text))
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",")]


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    values: dict = {}
    if args.config:
        values.update(_load_config_file(args.config, args.command))
    if args.seed is not None:
        values["seed"] = args.seed
    if args.shots is not None:
        values["shots_per_setting"] = args.shots
    if args.qsv_tests is not None:
        values["qsv_tests"] = args.qsv_tests
    if args.noise_p is not None:
        values["noise_p"] = args.noise_p
    if getattr(args, "phi_grid", None):
        values["phi_grid_deg"] = args.phi_grid
    if args.analytic:
        values["analytic"] = True
    if args.out is not None:
        values["output_path"] = args.out
    if values.get("output_path") == "":
        print("realmask: the output path (--out or output_path) must not be empty", file=sys.stderr)
        raise SystemExit(2)
    return ExperimentConfig(**values)


def write_report_or_exit(report: dict, out_dir) -> list[Path]:
    """`experiments.write_report`, with a file-system error as a one-line exit."""
    try:
        return experiments.write_report(report, out_dir)
    except OSError as exc:
        raise SystemExit(f"cannot write reports to {out_dir}: {exc}") from None


def _emit(report: dict, config: ExperimentConfig) -> None:
    if config.output_path:
        for p in write_report_or_exit(report, config.output_path):
            print(f"wrote {p}")
    else:
        sys.stdout.write(experiments.report_json(report))


def _cmd_experiment(args) -> int:
    config = _build_config(args)
    report = args.run(config, args)
    _emit(report, config)
    if report.get("pass") is False:
        print(f"equivalence FAILED: max infidelity {report['max_infidelity']:.3e} "
              f"exceeds {report['threshold']:.1e}", file=sys.stderr)
        return 2
    return 0


def _cmd_angles(args) -> int:
    did_something = False
    if args.state is not None:
        angles = optics.solve_prep_angles(args.state)
        print(f"preparation target a = ({', '.join(f'{x:.6f}' for x in args.state)})")
        print(f"  H1 = {angles.h1:.6f} deg")
        print(f"  H2 = {angles.h2:.6f} deg")
        print(f"  H3 = {angles.h3:.6f} deg")
        did_something = True
    if args.phi is not None:
        angles = optics.phase_prep_angles(args.phi)
        print(f"phase probe phi = {args.phi:.6f} deg -> (|0> + e^(i phi)|1>)/sqrt(2)")
        print(f"  H1 = {angles.h1:.6f} deg")
        print(f"  Q1 = 45.000000 deg (inserted on the -3 rail)")
        print(f"  H2 = {angles.h2:.6f} deg")
        did_something = True
    setting = None
    label = None
    if args.setting:
        label = args.setting.upper()
        if label not in measure.PAIRS:
            raise SystemExit("setting must be a Pauli pair like XX, XY, ..., ZZ")
        setting = optics.pauli_meas_setting(label[0], label[1])
    elif args.basis is not None:
        setting = optics.MeasSetting(*args.basis)
        label = "custom basis"
    if setting is not None:
        compiled = optics.compile_measurement(setting)
        print(f"measurement setting {label} "
              f"(gamma={setting.gamma:.6f}, zeta={setting.zeta:.6f}, "
              f"alpha={setting.alpha:.6f}, beta={setting.beta:.6f} rad)")
        print(f"  Q2 = {compiled.q2:.6f} deg")
        print(f"  H4 = {compiled.h4:.6f} deg")
        print(f"  Q3 = {compiled.q3:.6f} deg")
        print(f"  H5 = {compiled.h5:.6f} deg")
        print(f"  solver residual = {compiled.residual:.3e}")
        did_something = True
    if not did_something:
        raise SystemExit("angles: give at least one of --state, --phi, --setting")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realmask",
        description="Masking of the real ququart: simulation and estimation pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser):
        p.add_argument("--seed", type=int, default=None, help="master seed (default 20404)")
        p.add_argument("--shots", type=_flag_type(int, _positive), default=None,
                       help="shots per measurement setting")
        p.add_argument("--qsv-tests", type=_flag_type(int, _positive), default=None,
                       help="verification tests per probe")
        p.add_argument("--noise-p", type=_flag_type(float, _probability), default=None,
                       help="depolarizing noise strength")
        p.add_argument("--analytic", action="store_true", help="infinite-shot mode (no sampling)")
        p.add_argument("--out", type=str, default=None, help="output directory for CSV/JSON reports")
        p.add_argument("--config", type=str, default=None, help="JSON config file (flags override it)")

    p3 = sub.add_parser("fig3", help="verification fidelity and reduced purities for the four probes")
    add_common(p3)
    p3.set_defaults(func=_cmd_experiment, run=lambda config, args: experiments.run_fig3(config))

    p4 = sub.add_parser("fig4", help="correlation decoding of a masked probe")
    add_common(p4)
    p4.add_argument("--probe", type=int, default=4, choices=(1, 2, 3, 4))
    p4.set_defaults(func=_cmd_experiment, run=lambda config, args: experiments.run_fig4(config, args.probe))

    p5 = sub.add_parser("fig5", help="concurrence of the masked phase probes")
    add_common(p5)
    p5.add_argument("--phi-grid", type=_flag_type(_floats, _phases),
                    default=None, help="comma-separated phases in degrees (default 0,15,...,90)")
    p5.set_defaults(func=_cmd_experiment, run=lambda config, args: experiments.run_fig5(config))

    pe = sub.add_parser("equiv", help="masker / walk / optics equivalence check")
    add_common(pe)
    pe.add_argument("--n-inputs", type=_flag_type(int, _positive), default=100)
    pe.set_defaults(func=_cmd_experiment,
                    run=lambda config, args: experiments.run_equivalence(config, n_inputs=args.n_inputs))

    pa = sub.add_parser("angles", help="waveplate angle solutions")
    pa.add_argument("--state", type=_flag_type(_floats, _real_state), default=None,
                    help="four comma-separated real amplitudes (normalized automatically)")
    pa.add_argument("--phi", type=_flag_type(float, _finite), default=None,
                    help="phase-probe phase in degrees")
    pa.add_argument("--setting", type=str, default=None, help="Pauli pair, e.g. XY")
    pa.add_argument("--basis", type=_flag_type(_floats, _four_finite), default=None,
                    help="raw product-basis parameters gamma,zeta,alpha,beta (radians)")
    pa.set_defaults(func=_cmd_angles)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
