#!/usr/bin/env python3
"""Mutation sweep: do a module's tests notice a flipped operator or a dropped `raise`?

    python tests/mutants.py src/realmask/estimate.py

Each mutant changes one site of the module: a comparison operator becomes
its boundary twin (`<` and `<=`, `>` and `>=`) or its negation (`==` and
`!=`, `is` and `is not`, `in` and `not in`), one `and` becomes `or` or
back, or one `raise` statement becomes `pass`.  The sites are found with
`ast` and edited in the source text, so comments and layout stay.  Every
mutant is written in turn into one copy of the project tree (`ROOT`) made
without bytecode, and the module's test file `tests/test_<module stem>.py`
runs there under `python -m pytest -x` with PYTHONDONTWRITEBYTECODE=1 and
the copy's `src/` first on PYTHONPATH.

The test file first runs once on the unmutated copy, without a time limit.
A mutant is killed when its tests fail or run past `SLOWDOWN` times that
run's time (then its process group is ended), and survives when they pass.
A site that `EQUIVALENT` lists for the module is not run and is reported as
equivalent.  A site reads `qualname: line text [old -> new]`.  One line per
mutant goes to stdout as it ends, then a summary; the exit code is 1 when an
unlisted mutant survives, 2 on a usage error or when the unmutated tests
fail, else 0.

Stdlib only.  The file is not named like a test module, so pytest does not
collect it.
"""
from __future__ import annotations

import argparse
import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
# A mutant's tests may take this many times the unmutated run's time before they are ended as a hang.
SLOWDOWN = 10

_ON_TOLERANCE = "differs only when a value lands exactly on the tolerance"
_INVARIANT = "guards an invariant of fixed data, which no input to the function breaks"
# The known equivalent mutants of each module, by its path inside ROOT: site -> why no test can tell.
EQUIVALENT = {
    "src/realmask/estimate.py": {
        "_sphere_fit: if s[0] * s[0] + s[1] * s[1] + s[2] * s[2] > 1.0: [> -> >=]":
            "a midpoint exactly on the sphere is the root; either bracket end keeps it",
        "mle_qubit_batch: for i in np.flatnonzero(r2 > 1.0): [> -> >=]":
            "a linear inversion exactly on the sphere is also the sphere fit's answer",
        "decode_real_state: if np.abs(t).max(initial=0.0) > 1.0 + EPS_PROB: [> -> >=]": _ON_TOLERANCE,
        "_simplex_projection: k = vals.shape[-1] - np.argmax(shifted[..., ::-1] > 0, axis=-1, keepdims=True) "
        "[> -> >=]": "a zero `shifted` entry gives the same shift whichever side of it k falls",
        "project_to_density: if not gap <= EPS_EXACT: [<= -> <]": _ON_TOLERANCE,
        "_decode_map: if residual > EPS_EXACT: [> -> >=]": _ON_TOLERANCE,
        '_decode_map: raise AssertionError(f"decode map is off the 1/4 grid or fails to invert by '
        '{residual:.3e}") [raise -> pass]': _INVARIANT,
    },
    "src/realmask/experiments.py": {
        '_preparation_gap: raise AssertionError(f"prepared window moved: lo {got.lo}, shape '
        '{got.amps.shape} against " [raise -> pass]': _INVARIANT,
        'run_equivalence: "pass": bool(max_gap < EQUIV_THRESHOLD), [< -> <=]': _ON_TOLERANCE,
    },
    "src/realmask/masker.py": {
        "masker_matrix: if (dev := np.abs(gram - np.eye(4)).max()) > EPS_EXACT: [> -> >=]": _ON_TOLERANCE,
    },
    "src/realmask/measure.py": {
        "_digits_beyond_text: return limit if limit and n.bit_length() > 3 * limit and n >= 10**limit else 0 "
        "[> -> >=]": "an n of exactly 3 * limit bits is below 8**limit < 10**limit, so the last test fails",
        "sample_counts: bad = (rows < -EPS_EXACT).any(axis=-1) [< -> <=]": _ON_TOLERANCE,
        "sample_counts: bad = ~(np.abs(sums - 1.0) <= EPS_PROB)  # a NaN sum is faulty too [<= -> <]": _ON_TOLERANCE,
    },
    "src/realmask/optics.py": {
        "solve_prep_angles: h2 = np.where(r01 > EPS_EXACT, np.degrees(np.arctan2(a1, a0)) / 2.0, 0.0) [> -> >=]":
            _ON_TOLERANCE,
        "solve_prep_angles: h3 = np.where(r23 > EPS_EXACT, np.degrees(np.arctan2(a2, -a3)) / 2.0, 0.0) [> -> >=]":
            _ON_TOLERANCE,
        "_solve_to_horizontal: if not residual <= SOLVER_TOL: [<= -> <]": _ON_TOLERANCE,
        "_solve_to_horizontal: b = (np.angle(t1) - np.angle(t0)) if (t0 != 0 and t1 != 0) else 0.0 [and -> or]":
            "`_first_basis_state` makes t1 exactly 0 only at theta = 0, where t0 = 1 has phase 0, so b is 0 either "
            "way, and never makes t0 exactly 0",
        "detector_distribution: if leak > EPS_PROB: [> -> >=]": _ON_TOLERANCE,
    },
    "src/realmask/qcore.py": {
        "checked_state: if (bad := np.flatnonzero(np.abs(norm - 1.0) > EPS_EXACT)).size: [> -> >=]": _ON_TOLERANCE,
        "checked_density: skew = np.abs(arr - _dagger(arr)).max(axis=(-2, -1), initial=0.0) > EPS_EXACT [> -> >=]":
            _ON_TOLERANCE,
        "checked_density: off = np.abs(tr - 1.0) > EPS_EXACT [> -> >=]": _ON_TOLERANCE,
        "checked_density: bad = np.flatnonzero(skew | off | (lo < -EPS_NUMERIC)) [< -> <=]": _ON_TOLERANCE,
        "fidelity_with_pure: if spurious > EPS_EXACT: [> -> >=]": _ON_TOLERANCE,
    },
    "src/realmask/walk.py": {
        "extract_two_qubit: if stray > EPS_EXACT: [> -> >=]": _ON_TOLERANCE,
    },
}

# Each comparison and boolean operator's text and its mutant's.
FLIPS = {
    ast.Lt: ("<", "<="), ast.LtE: ("<=", "<"), ast.Gt: (">", ">="), ast.GtE: (">=", ">"),
    ast.Eq: ("==", "!="), ast.NotEq: ("!=", "=="), ast.Is: ("is", "is not"), ast.IsNot: ("is not", "is"),
    ast.In: ("in", "not in"), ast.NotIn: ("not in", "in"), ast.And: ("and", "or"), ast.Or: ("or", "and"),
}
_OPERATOR_WORDS = {"<", "<=", ">", ">=", "==", "!=", "is", "not", "in", "and", "or"}
# The command that runs a test file, stopping at its first failure.
PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider"]


class Mutant(NamedTuple):
    site: str
    line: int
    start: int  # offsets into the module's text of the replaced span
    end: int
    text: str

    def apply(self, source: str) -> str:
        return source[:self.start] + self.text + source[self.end:]


def _offsets(source: str):
    """A function of an `ast` position (line, UTF-8 byte column) and one of a
    `tokenize` position (line, character column), each to an offset into
    `source`."""
    lines = source.splitlines(keepends=True)
    starts = [0]
    for line in lines:
        starts.append(starts[-1] + len(line))

    def of_ast(line: int, col: int) -> int:
        return starts[line - 1] + len(lines[line - 1].encode()[:col].decode())

    return of_ast, lambda pos: starts[pos[0] - 1] + pos[1]


def mutants(source: str) -> list[Mutant]:
    """Every mutant of `source`, in the order of the text."""
    tree = ast.parse(source)
    of_ast, of_token = _offsets(source)
    tokens = [(of_token(tok.start), of_token(tok.end))
              for tok in tokenize.generate_tokens(io.StringIO(source).readline) if tok.string in _OPERATOR_WORDS]
    lines = source.splitlines()
    found = []  # (start, end, scope, old, new)

    def flip(left: ast.AST, op: ast.AST, right: ast.AST, scope: str) -> None:
        """The mutant of the operator `op` between the operands `left` and `right`."""
        after, before = of_ast(left.end_lineno, left.end_col_offset), of_ast(right.lineno, right.col_offset)
        span = [tok for tok in tokens if after <= tok[0] and tok[1] <= before]
        if span:  # none inside an f-string that tokenizes as one string
            found.append((span[0][0], span[-1][1], scope, *FLIPS[type(op)]))

    def visit(node: ast.AST, scope: str) -> None:
        if isinstance(node, ast.Raise):
            found.append((of_ast(node.lineno, node.col_offset), of_ast(node.end_lineno, node.end_col_offset),
                          scope, "raise", "pass"))
        elif isinstance(node, ast.Compare):
            for left, op, right in zip([node.left, *node.comparators], node.ops, node.comparators):
                flip(left, op, right, scope)
        elif isinstance(node, ast.BoolOp):
            for left, right in zip(node.values, node.values[1:]):
                flip(left, node.op, right, scope)
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            visit(child, inner)

    visit(tree, "")
    seen: dict[str, int] = {}
    result = []
    for start, end, scope, old, new in sorted(found):
        line = source.count("\n", 0, start) + 1
        site = f"{scope or '<module>'}: {lines[line - 1].strip()} [{old} -> {new}]"
        seen[site] = seen.get(site, 0) + 1
        result.append(Mutant(site if seen[site] == 1 else f"{site} #{seen[site]}", line, start, end, new))
    return result


def _run_tests(tree: Path, tests: Path, timeout: float | None) -> str:
    """"passed", "failed" or "timeout" for the test file run in `tree`."""
    paths = [str(tree / "src"), str(tree), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": os.pathsep.join(paths)}
    with subprocess.Popen([*PYTEST, str(tests)], cwd=tree, env=env, start_new_session=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
        try:
            return "passed" if proc.wait(timeout) == 0 else "failed"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "timeout"


def sweep(module: Path, tests: Path):
    """Yield (verdict, mutant) for each mutant of `module`, a file inside
    ROOT tested by `tests`: "killed", "timeout", "equivalent" or "survived".
    Raises RuntimeError before any mutant when the unmutated tests fail."""
    source = module.read_text(encoding="utf-8")
    root = ROOT.resolve()
    equivalent = EQUIVALENT.get(module.relative_to(root).as_posix(), {})
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(root, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_out", ".bench_build"))
        target, test_file = tree / module.relative_to(root), tree / tests.relative_to(root)
        start = time.perf_counter()
        if _run_tests(tree, test_file, None) != "passed":
            raise RuntimeError("the unmutated tests failed")
        limit = SLOWDOWN * (time.perf_counter() - start)
        for mutant in mutants(source):
            if mutant.site in equivalent:
                yield "equivalent", mutant
                continue
            target.write_text(mutant.apply(source), encoding="utf-8")
            outcome = _run_tests(tree, test_file, limit)
            target.write_text(source, encoding="utf-8")
            yield {"passed": "survived", "failed": "killed", "timeout": "timeout"}[outcome], mutant


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("module", type=Path, help="the module to mutate, inside the project tree")
    module = parser.parse_args(argv).module.resolve()
    tests = ROOT.resolve() / "tests" / f"test_{module.stem}.py"
    if not (module.is_file() and module.is_relative_to(ROOT.resolve()) and tests.is_file()):
        parser.error(f"{module} is no file inside {ROOT} with a test file {tests}")
    counts = dict.fromkeys(("killed", "timeout", "equivalent", "survived"), 0)
    try:
        for verdict, mutant in sweep(module, tests):
            counts[verdict] += 1
            print(f"{verdict:<10} line {mutant.line}: {mutant.site}", flush=True)
    except RuntimeError as err:
        print(f"{parser.prog}: error: {err}", file=sys.stderr)
        return 2
    print(f"{sum(counts.values())} mutants: " + ", ".join(f"{n} {verdict}" for verdict, n in counts.items()))
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
