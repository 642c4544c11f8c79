"""`tests/mutants.py` classifies each mutant of a module by what its tests do."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("mutants", ROOT / "tests" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

# Three mutation sites: `sign`'s flip is caught, `clip`'s gives the same
# values, and `steps_to`'s never reaches its return.
FIXTURE = '''\
def sign(x):
    return 1 if x > 0 else 0  # a comment the mutants keep


def clip(x):
    return 0 if x < 0 else x


def steps_to(limit):
    """Steps from 0 up to `limit`, one at a time, never past it."""
    x = steps = 0
    while True:
        if x >= limit:
            return steps
        x, steps = min(x + 1, limit), steps + 1
'''

FIXTURE_TESTS = '''\
from fixture import clip, sign, steps_to


def test_fixture():
    assert [sign(x) for x in (-2, 0, 3)] == [0, 0, 1]
    assert [clip(x) for x in (-2, 0, 3)] == [0, 0, 3]
    assert steps_to(3) == 3
'''


def test_each_site_gives_one_mutant_that_keeps_the_rest_of_the_text():
    found = mutants.mutants(FIXTURE)
    assert [(m.line, m.site) for m in found] == [
        (2, "sign: return 1 if x > 0 else 0  # a comment the mutants keep [> -> >=]"),
        (6, "clip: return 0 if x < 0 else x [< -> <=]"),
        (13, "steps_to: if x >= limit: [>= -> >]"),
    ]
    assert [m.apply(FIXTURE).splitlines()[m.line - 1] for m in found] == [
        "    return 1 if x >= 0 else 0  # a comment the mutants keep",
        "    return 0 if x <= 0 else x",
        "        if x > limit:",
    ]
    for mutant in found:
        changed = [a != b for a, b in zip(mutant.apply(FIXTURE).splitlines(), FIXTURE.splitlines())]
        assert sum(changed) == 1 and changed[mutant.line - 1]


def test_a_raise_becomes_pass_and_chained_and_spelled_operators_flip_one_at_a_time():
    source = 'def f(a, b):\n    if 0 <= a < (b):\n        raise ValueError(\n            "no")\n    return a is not b\n'
    assert [m.apply(source).splitlines()[m.line - 1] for m in mutants.mutants(source)] == [
        "    if 0 < a < (b):", "    if 0 <= a <= (b):", "        pass", "    return a is b"]


def test_each_and_or_swaps_alone_whatever_the_parentheses():
    source = "def f(a, b, c):\n    return (a and b) or not c and (\n        a)\n"
    found = mutants.mutants(source)
    assert [m.site for m in found] == [
        "f: return (a and b) or not c and ( [and -> or]",
        "f: return (a and b) or not c and ( [or -> and]",
        "f: return (a and b) or not c and ( [and -> or] #2",
    ]
    assert [m.apply(source).splitlines()[1] for m in found] == [
        "    return (a or b) or not c and (",
        "    return (a and b) and not c and (",
        "    return (a and b) or not c or (",
    ]


def sweep_here(monkeypatch, tmp_path, module, tests, equivalent=None):
    """Point the sweep at a tree of `tmp_path` holding `fixture.py` and `tests/test_fixture.py`."""
    (tmp_path / "tests").mkdir()
    (tmp_path / "fixture.py").write_text(module)
    (tmp_path / "tests" / "test_fixture.py").write_text(tests)
    monkeypatch.setattr(mutants, "ROOT", tmp_path)
    monkeypatch.setattr(mutants, "EQUIVALENT", {"fixture.py": equivalent or {}})
    # The fixtures use no hypothesis, whose pytest plugin costs about 1 s of each run's start.
    monkeypatch.setattr(mutants, "PYTEST", [*mutants.PYTEST, "-p", "no:hypothesispytest"])
    return mutants.main([str(tmp_path / "fixture.py")])


def test_a_sweep_tells_killed_equivalent_and_hanging_mutants_apart(tmp_path, capsys, monkeypatch):
    # A hang is ended at 3 times the unmutated run's time, about 1 s here.
    monkeypatch.setattr(mutants, "SLOWDOWN", 3)
    clip_site = mutants.mutants(FIXTURE)[1].site
    code = sweep_here(monkeypatch, tmp_path, FIXTURE, FIXTURE_TESTS, {clip_site: "clip(0) is 0 either way"})
    lines = capsys.readouterr().out.splitlines()
    verdicts = [line.split()[0] for line in lines[:3]]
    # Past the limit, a failing run counts as killed too, so a slow host may end `sign`'s as a timeout.
    assert verdicts[0] in ("killed", "timeout") and verdicts[1:] == ["equivalent", "timeout"]
    assert lines[3].startswith("3 mutants: ") and lines[3].endswith(", 1 equivalent, 0 survived")
    assert code == 0
    # The tree mutated is a copy: the fixture itself is left as it was.
    assert (tmp_path / "fixture.py").read_text() == FIXTURE


def test_an_unlisted_equivalent_mutant_survives_and_fails_the_sweep(tmp_path, capsys, monkeypatch):
    code = sweep_here(monkeypatch, tmp_path, "def clip(x):\n    return 0 if x < 0 else x\n",
                      "from fixture import clip\n\n\ndef test_clip():\n    assert clip(-1) == clip(0) == 0\n")
    out = capsys.readouterr().out.splitlines()
    assert out == ["survived   line 2: clip: return 0 if x < 0 else x [< -> <=]",
                   "1 mutants: 0 killed, 0 timeout, 0 equivalent, 1 survived"]
    assert code == 1


def test_a_failing_unmutated_run_stops_the_sweep_before_any_mutant(tmp_path, capsys, monkeypatch):
    code = sweep_here(monkeypatch, tmp_path, FIXTURE, "def test_fails():\n    assert False\n")
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err.endswith("error: the unmutated tests failed\n")


def test_each_listed_equivalent_site_is_a_mutant_of_its_module():
    for path, sites in mutants.EQUIVALENT.items():
        assert set(sites) <= {m.site for m in mutants.mutants((ROOT / path).read_text(encoding="utf-8"))}, path
