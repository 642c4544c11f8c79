#!/usr/bin/env python3
"""Fresh-spawn wall times of the CLI subcommands and of reproduce_figures.py.

Times `realmask fig3`, `fig4`, `fig5` and `equiv` at their defaults and
`scripts/reproduce_figures.py --seed 1`, each from a new interpreter, for
one or more source trees (a checkout's root).  Each tree's `src/` and
`scripts/` are copied without bytecode first and every spawn runs with
PYTHONDONTWRITEBYTECODE=1, so every spawn compiles realmask's modules, as
a host that writes no bytecode does.  Each round runs every command once
per tree, with the trees' order alternating from round to round; reports
go to a temporary directory.  Prints one JSON object: for each tree and
command, the median and quartiles of the wall seconds.  Fewer than two
rounds, which give no quartiles, a tree without `src/realmask/` or
`scripts/reproduce_figures.py` and a tree named twice are usage errors
(exit 2); a command that exits nonzero ends the run with a one-line error
(exit 1).

    python scripts/spawn_times.py --rounds 15 . ../parent-checkout
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# The console script's own body, so that a copied tree's `src/` is the one run.
CLI = "import sys; from realmask.cli import main; sys.exit(main())"
COMMANDS = {
    "fig3": ["-c", CLI, "fig3"],
    "fig4": ["-c", CLI, "fig4"],
    "fig5": ["-c", CLI, "fig5"],
    "equiv": ["-c", CLI, "equiv"],
    "reproduce_figures --seed 1": ["{scripts}/reproduce_figures.py", "--seed", "1"],
}


def _rounds(text: str) -> int:
    try:
        if (rounds := int(text)) >= 2:
            return rounds
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be an integer >= 2, for the quartiles, got {text!r}")


def _tree(text: str) -> Path:
    tree = Path(text)
    if not ((tree / "src" / "realmask").is_dir() and (tree / "scripts" / "reproduce_figures.py").is_file()):
        raise argparse.ArgumentTypeError(f"{text!r} is no checkout: it lacks src/realmask/ "
                                         "or scripts/reproduce_figures.py")
    return tree


def _copy_tree(tree: Path, into: Path) -> Path:
    for part in ("src", "scripts"):
        shutil.copytree(tree / part, into / part, ignore=shutil.ignore_patterns("__pycache__"))
    return into


def _spawn(copy: Path, args: list[str], out: Path) -> float:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(copy / "src")}
    argv = [sys.executable, *(a.format(scripts=copy / "scripts") for a in args), "--out", str(out)]
    start = time.perf_counter()
    subprocess.run(argv, env=env, cwd=out, check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs="+", type=_tree, help="checkout roots to time")
    parser.add_argument("--rounds", type=_rounds, default=15, help="rounds, at least 2 (default 15)")
    args = parser.parse_args(argv)
    if len({str(tree) for tree in args.trees}) < len(args.trees):
        parser.error("a tree is named twice")
    times = {str(tree): {name: [] for name in COMMANDS} for tree in args.trees}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {str(tree): _copy_tree(tree, Path(tmp) / f"tree{i}") for i, tree in enumerate(args.trees)}
        out = Path(tmp) / "out"
        out.mkdir()
        for rnd in range(args.rounds):
            order = list(copies) if rnd % 2 == 0 else list(reversed(copies))
            for name, cmd in COMMANDS.items():
                for tree in order:
                    try:
                        times[tree][name].append(_spawn(copies[tree], cmd, out))
                    except subprocess.CalledProcessError as exc:
                        print(f"{parser.prog}: {name!r} in tree {tree} exited with code {exc.returncode}",
                              file=sys.stderr)
                        return 1
    summary = {tree: {name: dict(zip(("q1_s", "median_s", "q3_s"),
                                     (round(q, 4) for q in statistics.quantiles(runs, n=4))))
                      for name, runs in per_tree.items()}
               for tree, per_tree in times.items()}
    print(json.dumps({"rounds": args.rounds, "python": sys.version.split()[0], "nproc": os.cpu_count(),
                      "seconds": summary}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
