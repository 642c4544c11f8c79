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
command, the median and quartiles of the wall seconds.

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("trees", nargs="+", type=Path, help="checkout roots to time")
    parser.add_argument("--rounds", type=int, default=15)
    args = parser.parse_args()
    times = {str(tree): {name: [] for name in COMMANDS} for tree in args.trees}
    with tempfile.TemporaryDirectory() as tmp:
        copies = {str(tree): _copy_tree(tree, Path(tmp) / f"tree{i}") for i, tree in enumerate(args.trees)}
        out = Path(tmp) / "out"
        out.mkdir()
        for rnd in range(args.rounds):
            order = list(copies) if rnd % 2 == 0 else list(reversed(copies))
            for name, cmd in COMMANDS.items():
                for tree in order:
                    times[tree][name].append(_spawn(copies[tree], cmd, out))
    summary = {tree: {name: dict(zip(("q1_s", "median_s", "q3_s"),
                                     (round(q, 4) for q in statistics.quantiles(runs, n=4))))
                      for name, runs in per_tree.items()}
               for tree, per_tree in times.items()}
    print(json.dumps({"rounds": args.rounds, "python": sys.version.split()[0], "nproc": os.cpu_count(),
                      "seconds": summary}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
