#!/usr/bin/env python3
"""Run the three figure pipelines plus the equivalence check in one go.

Writes figN.{json,csv} and equiv.{json,csv} into the output directory
(`results` unless --out names one) and prints a one-line summary per
experiment.  Fully deterministic for a fixed seed; see the package README for
what each report contains.
"""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from realmask import cli, experiments
from realmask.experiments import ExperimentConfig


def _run(cfg: ExperimentConfig, out: Path) -> int:
    rep3 = experiments.run_fig3(cfg)
    experiments.write_report(rep3, out)
    fids = [row["fidelity"]["estimate"] for row in rep3["probes"]]
    purs = [row["purity"]["estimate"] for row in rep3["probes"]]
    print(f"fig3: fidelities {[f'{f:.4f}' for f in fids]}, avg purities {[f'{p:.4f}' for p in purs]}")

    rep4 = experiments.run_fig4(cfg)
    experiments.write_report(rep4, out)
    print(f"fig4: decoding fidelity {rep4['fidelity']['estimate']:.4f} "
          f"+/- {rep4['fidelity']['error']:.4f} (bootstrap std)")

    rep5 = experiments.run_fig5(cfg)
    experiments.write_report(rep5, out)
    pairs = [(p["phi_deg"], p["estimate"]) for p in rep5["points"]]
    print("fig5: concurrence " + ", ".join(f"{phi:.0f}deg={c:.3f}" for phi, c in pairs))

    repe = experiments.run_equivalence(cfg)
    experiments.write_report(repe, out)
    print(f"equiv: max gap {repe['max_gap']:.2e} (pass={repe['pass']})")

    print(f"reports written to {out}/")
    return 0 if repe["pass"] else 2


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    cli.add_options(parser, ("seed", "noise_p", "output_path"))
    args = parser.parse_args(cli._attach_negative_lists(sys.argv[1:] if argv is None else argv))

    values = cli.option_values(args)
    out = Path(values.pop("output_path", "results"))
    return cli.guard(parser.prog, _run, ExperimentConfig(**values), out)

if __name__ == "__main__":
    sys.exit(main())
