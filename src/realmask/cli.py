"""Command-line harness.

Subcommands mirror the experiment pipelines: `fig3` (verification fidelity +
reduced purities), `fig4` (correlation decoding), `fig5` (concurrence vs
phase), `equiv` (masker / walk / optics cross-check, nonzero exit on breach),
and `angles` (waveplate angle solutions for preparation and measurement).

Option precedence: command-line flags override the --config file, which
overrides the defaults that `experiments` owns.  One table, `OPTIONS`, gives
each setting its flag, flag parser and help, and `CHECKS` its value check:
`ExperimentConfig`'s own (`experiments.FIELD_CHECKS`), and `--out`'s (a
non-empty path with no NUL).  A subcommand's flags and config keys are made
from them for the settings it reads (`FIELDS`), so it takes no flag or key
that it would ignore, and `scripts/reproduce_figures.py` takes its `--seed`,
`--noise-p` and `--out` from them too.  `fig4 --probe` and `equiv
--n-inputs` are flags only.  A bad value is a one-line error, never a silent
coercion: a usage error (exit 2) as a flag, a config-file error (exit 1) as
a key.  `guard` makes a file-system error (an `--out` that cannot be
written, a closed or full stdout) and a lack of memory one-line errors too
(exit 1).  A negative comma list or number may follow its flag after a
space (`--phi-grid -15,0`) or an `=`.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
from pathlib import Path

from . import experiments, measure, optics
from .experiments import ExperimentConfig


def _finite(v: float) -> float:
    if not math.isfinite(v):
        raise ValueError(f"must be a finite number, got {v!r}")
    return v


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


def _text(v) -> str:
    if not isinstance(v, str) or not v:
        raise ValueError(f"must be a non-empty string, got {v!r}")
    if "\0" in v:
        raise ValueError(f"must not hold a NUL character, got {v!r}")
    os.fsencode(v)  # a character the file system cannot encode raises UnicodeEncodeError, a ValueError
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


_PHI = experiments.DEFAULT_PHI_GRID

# Each setting that a flag or a config key can set: the flag, the parser of
# its text (None: a switch) and the help.
OPTIONS = {
    "seed": ("--seed", int, f"master seed (default {experiments.DEFAULT_SEED})"),
    "shots_per_setting": ("--shots", int, "shots per measurement setting (at most 10**18)"),
    "qsv_tests": ("--qsv-tests", int, "verification tests per probe (at most 10**18)"),
    "noise_p": ("--noise-p", float, "depolarizing noise strength"),
    "phi_grid_deg": ("--phi-grid", _floats,
                     f"comma-separated phases in degrees (default {_PHI[0]:g},{_PHI[1]:g},...,{_PHI[-1]:g})"),
    "analytic": ("--analytic", None, "infinite-shot mode (no sampling)"),
    "output_path": ("--out", str, "output directory for CSV/JSON reports"),
}
# Each setting's value check, which its flag and its config key share.
CHECKS = {**experiments.FIELD_CHECKS, "output_path": _text}

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
        flag, parse, help = OPTIONS[field]
        how = {"type": _flag_type(parse, CHECKS[field])} if parse else {"action": "store_true"}
        parser.add_argument(flag, dest=field, default=None, help=help, **how)
    parser.set_defaults(fields=tuple(fields))


def option_values(args: argparse.Namespace) -> dict:
    """The settings given as flags to a parser set up by `add_options`."""
    return {field: getattr(args, field) for field in args.fields if getattr(args, field) is not None}


def _load_config_file(path: str, command: str, fields) -> dict:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError, RecursionError) as exc:
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
    try:
        return {key: experiments._checked(key, CHECKS[key], v) for key, v in doc.items()}
    except ValueError as exc:
        raise SystemExit(f"config file {path}: {exc}") from None


def _build_config(args: argparse.Namespace) -> tuple[ExperimentConfig, str | None]:
    """The run's config, and the directory its reports go to (None: stdout)."""
    values = _load_config_file(args.config, args.command, args.fields) if args.config else {}
    values.update(option_values(args))
    out_dir = values.pop("output_path", None)
    return ExperimentConfig(**values), out_dir


def guard(name: str, work, *args) -> int:
    """The exit code of `work(*args)`, with stdout flushed.  A stdout closed at
    the start (nothing runs), an OSError (an unwritable report, a failed stdout)
    or a MemoryError is a one-line error with `name`, exit 1; all else raises."""
    if sys.stdout is None:  # Python starts without one when its fd 1 is closed
        raise SystemExit(f"{name}: standard output is closed")
    try:
        code = work(*args)
        sys.stdout.flush()
        return code
    except MemoryError as exc:
        raise SystemExit(f"{name}: not enough memory for this run: {str(exc) or 'MemoryError'}") from None
    except OSError as exc:
        try:
            sys.stdout.flush()
        except OSError:  # stdout failed: its unwritten bytes go to the null device, not to a second error at exit
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise SystemExit(f"{name}: {exc}") from None


def _cmd_experiment(args) -> int:
    config, out_dir = _build_config(args)
    report = args.run(config, args)
    if out_dir:
        for p in experiments.write_report(report, out_dir):
            print(f"wrote {p}")
    else:
        sys.stdout.write(experiments.report_texts(report)[0])
    if report.get("pass") is False:
        print(f"equivalence FAILED: max gap {report['max_gap']:.3e} > {report['threshold']:.1e}", file=sys.stderr)
        return 2
    return 0


def _cmd_angles(args) -> int:
    if all(v is None for v in (args.state, args.phi, args.setting, args.basis)):
        raise SystemExit("angles: give at least one of --state, --phi, --setting, --basis")
    if args.state is not None:
        angles = optics.solve_prep_angles(args.state)
        print(f"preparation target a = ({', '.join(f'{x:.6f}' for x in args.state)})")
        print(f"  H1 = {angles.h1:.6f} deg")
        print(f"  H2 = {angles.h2:.6f} deg")
        print(f"  H3 = {angles.h3:.6f} deg")
    if args.phi is not None:
        angles = optics.phase_prep_angles(args.phi)
        print(f"phase probe phi = {args.phi:.6f} deg -> (|0> + e^(i phi)|1>)/sqrt(2)")
        print(f"  H1 = {angles.h1:.6f} deg")
        print(f"  Q1 = {angles.q1:.6f} deg (inserted on the -3 rail)")
        print(f"  H2 = {angles.h2:.6f} deg")
    if args.setting or args.basis:  # at most one of the two, by their parser group
        label = args.setting or "custom basis"
        setting = optics.pauli_meas_setting(*args.setting) if args.setting else optics.MeasSetting(*args.basis)
        compiled = optics.compile_measurement(setting)
        print(f"measurement setting {label} "
              f"(gamma={setting.gamma:.6f}, zeta={setting.zeta:.6f}, "
              f"alpha={setting.alpha:.6f}, beta={setting.beta:.6f} rad)")
        print(f"  Q2 = {compiled.q2:.6f} deg")
        print(f"  H4 = {compiled.h4:.6f} deg")
        print(f"  Q3 = {compiled.q3:.6f} deg")
        print(f"  H5 = {compiled.h5:.6f} deg")
        print(f"  solver residual = {compiled.residual:.3e}")
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
    p4.add_argument("--probe", type=_flag_type(int, experiments._probe_index), default=experiments.DEFAULT_PROBE,
                    help=f"probe index 1..4 (default {experiments.DEFAULT_PROBE})")
    add_experiment("fig5", "concurrence of the masked phase probes",
                   lambda config, args: experiments.run_fig5(config))
    pe = add_experiment("equiv", "masker / walk / optics equivalence check",
                        lambda config, args: experiments.run_equivalence(config, n_inputs=args.n_inputs))
    pe.add_argument("--n-inputs", type=_flag_type(int, experiments._n_inputs), default=experiments.DEFAULT_N_INPUTS,
                    help=f"random real preparation targets (default {experiments.DEFAULT_N_INPUTS}, at most 10**9)")

    pa = sub.add_parser("angles", help="waveplate angle solutions")
    pa.add_argument("--state", type=_flag_type(_floats, _real_state), default=None,
                    help="four comma-separated real amplitudes (normalized automatically)")
    pa.add_argument("--phi", type=_flag_type(float, _finite), default=None,
                    help="phase-probe phase in degrees")
    measurement = pa.add_mutually_exclusive_group()
    measurement.add_argument("--setting", type=_flag_type(str, _pauli_pair), default=None, help="Pauli pair, e.g. XY")
    measurement.add_argument("--basis", type=_flag_type(_floats, _four_finite), default=None,
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
    return guard(args.command, args.func, args)


if __name__ == "__main__":
    sys.exit(main())
