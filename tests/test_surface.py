"""`src/realmask` holds only what the pipelines and the CLI use.

Every public top-level function or class of the package must be reached from
the console scripts named in `pyproject.toml` or from `scripts/`.  A
definition is reached when a script, or a definition already reached,
mentions its name; module-level constants count as definitions, so a table
that names a function reaches it.  Names are matched without their module,
so a dead definition that shares its name with a live one passes, but a live
one never fails.

Each name has one home, its module: callers import the modules, and the
package's `__init__` holds its docstring and nothing else, so it binds and
re-exports no name.

No module of the package checks anything with an `assert` statement, which
`python -O` strips.
"""
from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "realmask"

# Public names that no pipeline calls yet, each kept for the ROADMAP item
# that will.  A name leaves this list when its item makes it reachable.
KEEP = {
    # The tomo-batch workload reads it (items 1 and 26).
    "tables_from_csv",
    # Not a pipeline step, and item 4's statistics need no fit (item 12
    # deletes it): `perfbench/tracer.py` wraps `estimate.mle_qubit_batch` by
    # name, and without it `Tracer.install` raises AttributeError.
    "mle_qubit_batch",
}


def _mentioned(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def _definitions() -> dict[str, list[ast.AST]]:
    """Top-level definitions of every package module, by name."""
    defs: dict[str, list[ast.AST]] = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, []).append(node)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            defs.setdefault(name.id, []).append(node)
    return defs


def _public_classes_and_functions(defs) -> set[str]:
    return {name for name, nodes in defs.items() if not name.startswith("_")
            and any(isinstance(n, (ast.FunctionDef, ast.ClassDef)) for n in nodes)}


def _reached(defs, roots: set[str]) -> set[str]:
    seen: set[str] = set()
    todo = [name for name in roots if name in defs]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in defs[name]:
            todo.extend(m for m in _mentioned(node) if m in defs and m not in seen)
    return seen


def _entry_points() -> set[str]:
    """Names the console scripts call and the names `scripts/*.py` mention."""
    names = set(re.findall(r'^\w+ = "realmask\.\w+:(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M))
    assert names, "pyproject.toml names no realmask console script"
    for path in sorted((ROOT / "scripts").glob("*.py")):
        names |= _mentioned(ast.parse(path.read_text()))
    return names


def test_every_public_definition_is_reached():
    defs = _definitions()
    unreached = _public_classes_and_functions(defs) - _reached(defs, _entry_points() | KEEP)
    assert not unreached, (
        f"public names no pipeline, CLI command or script reaches: {sorted(unreached)}; "
        "delete them, move test-only ones to tests/helpers.py, or make them private"
    )


def test_keep_list_names_only_unreached_definitions():
    defs = _definitions()
    public = _public_classes_and_functions(defs)
    assert KEEP <= public, f"keep-list names that are not public definitions: {sorted(KEEP - public)}"
    live = KEEP & _reached(defs, _entry_points())
    assert not live, f"keep-list names the pipelines now reach, so drop them from KEEP: {sorted(live)}"


def test_package_init_holds_only_its_docstring():
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert ast.get_docstring(tree), "src/realmask/__init__.py lost its docstring"
    extra = [f"line {node.lineno}: {type(node).__name__}" for node in tree.body[1:]]
    assert not extra, f"src/realmask/__init__.py holds more than its docstring; import names from their modules: {extra}"


def test_no_assert_statements():
    asserts = [f"{path.name}:{node.lineno}" for path in sorted(SRC.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text())) if isinstance(node, ast.Assert)]
    assert not asserts, f"assert statements vanish under python -O; raise instead: {asserts}"
