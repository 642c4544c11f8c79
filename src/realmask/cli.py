"""Command-line harness.

Subcommands mirror the experiment pipelines: `fig3` (verification fidelity +
reduced purities), `fig4` (correlation decoding), `fig5` (concurrence vs
phase), `equiv` (masker / walk / optics cross-check, nonzero exit on breach),
and `angles` (waveplate angle solutions for preparation and measurement).

Option precedence: command-line flags override the --config file, which
overrides the defaults that `experiments` owns.  One table, `OPTIONS`, gives
each setting its flag, flag parser, value check and help; a subcommand's flags
and config keys are made from it for the settings it reads (`FIELDS`), so it
takes no flag or key that it would ignore, and `scripts/reproduce_figures.py`
takes its `--seed`, `--noise-p` and `--out` from it too.  `fig4 --probe` and
`equiv --n-inputs` are flags only, with no config key.  A bad value, an
empty output path among them, is a one-line error, never a silent coercion:
a usage error (exit 2) as a flag, a config-file error (exit 1) as a key.  So
is a run that needs more memory than it can get (exit 1).  A comma list that
starts with a negative number, and a lone negative number in any spelling
`float` reads, may follow its flag after a space (`--phi-grid -15,0`,
`--phi -1e1`) or an `=` (`--phi-grid=-15,0`).
"""
from __future__ import annotations

import argparse
import inspect
import json
import math
import re
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


# The most shots per setting, and verification tests per probe: a bootstrap
# redraws each count from a Poisson law, whose numpy sampler refuses means
# above about 9.2e18, and a pass count is one binomial draw, whose numpy
# sampler takes at most 2**63 - 1 trials.
MAX_SHOTS = 10**18


def _count(v) -> int:
    if _positive(v) > MAX_SHOTS:
        raise ValueError(f"must be at most 10**18, got {v!r}")
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
    """Four finite amplitudes scaled to unit norm, by the largest magnitude first."""
    parts = _four_finite(v)
    scale = max(abs(x) for x in parts)
    if scale == 0.0:
        raise ValueError(f"must have a nonzero norm, got {v!r}")
    parts = [x / scale for x in parts]
    norm = math.hypot(*parts)
    return tuple(x / norm for x in parts)


def _pauli_pair(v: str) -> str:
    if v.upper() not in measure.PAIRS:
        raise ValueError(f"must be a Pauli pair like XX, XY, ..., ZZ, got {v!r}")
    return v.upper()


def _flag(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"must be true or false, got {v!r}")
    return v


def _text(v) -> str:
    if not isinstance(v, str) or not v:
        raise ValueError(f"must be a non-empty string, got {v!r}")
    return v


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


def _default(fn, name: str):
    """The default of `fn`'s parameter `name`."""
    return inspect.signature(fn).parameters[name].default


_PHI = experiments.DEFAULT_PHI_GRID

# Each setting that a flag or a config key can set: the value check they
# share, the flag, the parser of its text (None: a switch), the help.
OPTIONS = {
    "seed": (_integer, "--seed", int, f"master seed (default {experiments.DEFAULT_SEED})"),
    "shots_per_setting": (_count, "--shots", int, "shots per measurement setting (at most 10**18)"),
    "qsv_tests": (_count, "--qsv-tests", int, "verification tests per probe (at most 10**18)"),
    "noise_p": (_probability, "--noise-p", float, "depolarizing noise strength"),
    "phi_grid_deg": (_phases, "--phi-grid", _floats,
                     f"comma-separated phases in degrees (default {_PHI[0]:g},{_PHI[1]:g},...,{_PHI[-1]:g})"),
    "analytic": (_flag, "--analytic", None, "infinite-shot mode (no sampling)"),
    "output_path": (_text, "--out", str, "output directory for CSV/JSON reports"),
}

# The settings each experiment subcommand reads; it takes their flags and
# config keys and no others.
FIELDS = {
    "fig3": ("seed", "shots_per_setting", "qsv_tests", "noise_p", "analytic", "output_path"),
    "fig4": ("seed", "shots_per_setting", "noise_p", "analytic", "output_path"),
    "fig5": ("seed", "shots_per_setting", "noise_p", "phi_grid_deg", "analytic", "output_path"),
    "equiv": ("seed", "output_path"),
}


def add_options(parser: argparse.ArgumentParser, fields) -> None:
    """Give `parser` the flags of `fields`; `option_values` reads them back."""
    for field in fields:
        check, flag, parse, help = OPTIONS[field]
        how = {"type": _flag_type(parse, check)} if parse else {"action": "store_true"}
        parser.add_argument(flag, dest=field, default=None, help=help, **how)
    parser.set_defaults(fields=tuple(fields))


def option_values(args: argparse.Namespace) -> dict:
    """The settings given as flags to a parser set up by `add_options`."""
    return {field: getattr(args, field) for field in args.fields if getattr(args, field) is not None}


def _load_config_file(path: str, command: str, fields) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:
        raise SystemExit(f"config file {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise SystemExit(f"config file {path} must hold a JSON object")
    keys = {*fields, "experiment"}
    if unknown := set(doc) - keys:
        raise SystemExit(f"config file {path}: not config keys of {command}: {sorted(unknown)}; "
                         f"its keys are {sorted(keys)}")
    experiment = doc.pop("experiment", command)
    if experiment != command:
        raise SystemExit(f"config file {path}: experiment must be {command!r}, got {experiment!r}")
    values = {}
    for key, v in doc.items():
        try:
            values[key] = OPTIONS[key][0](v)
        except ValueError as exc:
            raise SystemExit(f"config file {path}: {key} {exc}") from None
    return values


def _build_config(args: argparse.Namespace) -> tuple[ExperimentConfig, str | None]:
    """The run's config, and the directory its reports go to (None: stdout)."""
    values = _load_config_file(args.config, args.command, args.fields) if args.config else {}
    values.update(option_values(args))
    out_dir = values.pop("output_path", None)
    return ExperimentConfig(**values), out_dir


def write_report_or_exit(report: dict, out_dir) -> list[Path]:
    """`experiments.write_report`, with a file-system error as a one-line exit."""
    try:
        return experiments.write_report(report, out_dir)
    except OSError as exc:
        raise SystemExit(f"cannot write reports to {out_dir}: {exc}") from None


def _cmd_experiment(args) -> int:
    config, out_dir = _build_config(args)
    try:
        report = args.run(config, args)
    except MemoryError as exc:
        raise SystemExit(f"{args.command}: not enough memory for this run: {str(exc) or 'MemoryError'}") from None
    if out_dir:
        for p in write_report_or_exit(report, out_dir):
            print(f"wrote {p}")
    else:
        sys.stdout.write(experiments.report_json(report))
    if report.get("pass") is False:
        print(f"equivalence FAILED: max gap {report['max_gap']:.3e} > {report['threshold']:.1e}", file=sys.stderr)
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
    label, setting = args.setting, None
    if label is not None:
        setting = optics.pauli_meas_setting(*label)
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
        raise SystemExit("angles: give at least one of --state, --phi, --setting, --basis")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="realmask",
        description="Masking of the real ququart: simulation and estimation pipelines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_experiment(name: str, help: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        add_options(p, FIELDS[name])
        p.add_argument("--config", type=str, default=None, help="JSON config file (flags override it)")
        p.set_defaults(func=_cmd_experiment, run=run)
        return p

    add_experiment("fig3", "verification fidelity and reduced purities for the four probes",
                   lambda config, args: experiments.run_fig3(config))
    p4 = add_experiment("fig4", "correlation decoding of a masked probe",
                        lambda config, args: experiments.run_fig4(config, args.probe))
    p4.add_argument("--probe", type=int, default=_default(experiments.run_fig4, "probe"),
                    choices=experiments.PROBES)
    add_experiment("fig5", "concurrence of the masked phase probes",
                   lambda config, args: experiments.run_fig5(config))
    pe = add_experiment("equiv", "masker / walk / optics equivalence check",
                        lambda config, args: experiments.run_equivalence(config, n_inputs=args.n_inputs))
    pe.add_argument("--n-inputs", type=_flag_type(int, _positive),
                    default=_default(experiments.run_equivalence, "n_inputs"))

    pa = sub.add_parser("angles", help="waveplate angle solutions")
    pa.add_argument("--state", type=_flag_type(_floats, _real_state), default=None,
                    help="four comma-separated real amplitudes (normalized automatically)")
    pa.add_argument("--phi", type=_flag_type(float, _finite), default=None,
                    help="phase-probe phase in degrees")
    pa.add_argument("--setting", type=_flag_type(str, _pauli_pair), default=None, help="Pauli pair, e.g. XY")
    pa.add_argument("--basis", type=_flag_type(_floats, _four_finite), default=None,
                    help="raw product-basis parameters gamma,zeta,alpha,beta (radians)")
    pa.set_defaults(func=_cmd_angles)

    return parser


# A comma list that starts with a minus sign, such as "-15,0": argparse takes
# it for a flag unless it is attached to its own flag with "=".  So does a
# lone negative number that is not a plain decimal, such as "-1e1" or "-inf".
_NEGATIVE_LIST = re.compile(r"-[^-].*,")


def _is_negative_value(arg: str) -> bool:
    """A negative comma list, or a lone token with a minus sign that `float` reads."""
    if _NEGATIVE_LIST.match(arg):
        return True
    if not arg.startswith("-"):
        return False
    try:
        float(arg)
    except ValueError:
        return False
    return True


def _attach_negative_lists(argv) -> list[str]:
    """`argv` with each negative value of `_is_negative_value` attached to the
    long flag before it; `main` and `scripts/reproduce_figures.py` parse
    their arguments through it."""
    out: list[str] = []
    for arg in argv:
        flag = out[-1] if out else ""
        if flag.startswith("--") and len(flag) > 2 and "=" not in flag and _is_negative_value(arg):
            out[-1] = f"{flag}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    args = build_parser().parse_args(_attach_negative_lists(sys.argv[1:] if argv is None else argv))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
