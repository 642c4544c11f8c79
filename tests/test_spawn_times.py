"""`scripts/spawn_times.py` refuses what it cannot time before it copies or
spawns anything, and summarizes each tree's five commands."""
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("spawn_times", ROOT / "scripts" / "spawn_times.py")
spawn_times = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spawn_times)


def fake_checkout(root: Path) -> Path:
    (root / "src" / "realmask").mkdir(parents=True)
    (root / "scripts").mkdir()
    (root / "scripts" / "reproduce_figures.py").write_text("")
    return root


@pytest.mark.parametrize("argv", [
    ["--rounds", "1", "{root}"],
    ["--rounds", "0", "{root}"],
    ["--rounds", "-3", "{root}"],
    ["--rounds", "two", "{root}"],
    ["--rounds", "2", "{missing}"],
    ["--rounds", "2", "{root}", "{root}/src"],
    ["--rounds", "2", "{root}", "{root}/"],
])
def test_a_refusal_is_a_usage_error_before_any_copy_or_spawn(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(spawn_times, "_copy_tree", lambda *a: pytest.fail("copied a tree"))
    monkeypatch.setattr(spawn_times, "_spawn", lambda *a: pytest.fail("started an interpreter"))
    with pytest.raises(SystemExit) as exc:
        spawn_times.main([a.format(root=ROOT, missing=tmp_path / "missing") for a in argv])
    assert exc.value.code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and err[0].startswith("usage: ") and ": error: " in err[1]


def test_each_tree_gets_quartiles_of_its_five_commands(tmp_path, monkeypatch, capsys):
    calls = []

    def spawn(copy, args, out):
        calls.append((copy.name, args))
        return 0.1 * len(calls)

    monkeypatch.setattr(spawn_times, "_spawn", spawn)
    trees = [str(ROOT), str(fake_checkout(tmp_path / "other"))]
    assert spawn_times.main(["--rounds", "3", *trees]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rounds"] == 3
    assert list(doc["seconds"]) == trees
    for per_tree in doc["seconds"].values():
        assert list(per_tree) == list(spawn_times.COMMANDS)
        for quartiles in per_tree.values():
            assert list(quartiles) == ["q1_s", "median_s", "q3_s"]
            assert quartiles["q1_s"] <= quartiles["median_s"] <= quartiles["q3_s"]
    assert len(calls) == 3 * 5 * 2
    # The trees' order alternates from round to round.
    assert [c[0] for c in calls[:2]] == ["tree0", "tree1"] and [c[0] for c in calls[10:12]] == ["tree1", "tree0"]


def test_a_failing_command_is_a_one_line_error(tmp_path, monkeypatch, capsys):
    def spawn(copy, args, out):
        raise subprocess.CalledProcessError(3, args)

    monkeypatch.setattr(spawn_times, "_spawn", spawn)
    tree = str(fake_checkout(tmp_path / "tree"))
    assert spawn_times.main(["--rounds", "2", tree]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.endswith(f": 'fig3' in tree {tree} exited with code 3\n")
