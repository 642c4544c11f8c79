"""Golden reports: each run of `RUNS` is made in process and compared byte
for byte with its files under tests/golden/, so a moved number, numpy random
stream or report layout fails on every CI leg.  They are made a second time
in reverse order, when each run reads figure models cached by another.  A
report's CSV is the leaves of its JSON, and a test reads every golden CSV
back as the leaves of its golden JSON.

`python tests/test_golden.py` writes the fresh files there.  While
`experiments.REPORT_SCHEMA` equals the schema of the committed
seed1/fig3.json, and always for the `angles` texts (they carry no schema), it
names the moved files, writes nothing and exits 1.  After a schema bump it
writes the files and lists those whose content moved apart from the "schema"
line.

`digests.json` covers the JSON of every report of a wider sweep (`_sweep`),
less its "schema", read with `json.loads(parse_float=str)` so that each
number is its text as written.  It records each experiment's leaf paths,
list indices written "[]" (`probes[].purity.estimate`); for each report, the
first 16 hex digits of the SHA-256 of its leaves on its experiment's paths;
and for each experiment and path, one such digest of that path's leaves over
the whole sweep.  The script compares a fresh sweep with the committed paths
and writes the file under the same rules.  It names each path that moved or
went as "<experiment> <path>: moved" or "removed", each new path as "added",
and each report whose leaves on the committed paths moved by its family,
seed and figure.  So an added field is named as added and moves no report's
digest on those paths; a rewritten file's report digests cover its new paths.
"""
import contextlib
import csv
import functools
import hashlib
import io
import json
import runpy
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FIGURES = "reproduce_figures.py"
# Loading the driver puts the repository's src/ first on sys.path, so this
# file also runs as a plain script.
reproduce_figures = runpy.run_path(str(ROOT / "scripts" / FIGURES))["main"]

from realmask import cli, experiments  # noqa: E402
from realmask.experiments import ExperimentConfig, run_equivalence, run_fig3, run_fig4, run_fig5  # noqa: E402
from helpers import json_leaf_rows, json_leaves  # noqa: E402

# (where under tests/golden/, argv of the driver or of a `realmask` subcommand).
# A report run writes into that directory; an `angles` run's stdout is that file.
RUNS = (
    ("seed1", (FIGURES, "--seed", "1")),
    ("seed9173", (FIGURES, "--seed", "9173")),
    ("seed1_noiseless", (FIGURES, "--seed", "1", "--noise-p", "0")),
    ("analytic", ("fig3", "--analytic", "--seed", "1")),
    ("analytic", ("fig4", "--analytic", "--seed", "1")),
    ("analytic", ("fig5", "--analytic", "--seed", "1")),
    # Concurrence taken from the amplitudes of the pure phase probes.
    ("analytic_noiseless", ("fig5", "--analytic", "--noise-p", "0", "--seed", "1")),
    # The pure phase probes: the 90-degree point's squared Bloch length reads
    # above 1, where the delta method's error takes its floor.
    ("noiseless", ("fig5", "--noise-p", "0", "--seed", "1")),
    # Noiseless masked states: the pure densities, checked as they are.
    ("noiseless", ("fig3", "--noise-p", "0", "--seed", "1")),
    # One-shot runs.  fig4's one-shot tables say nothing of a variance, so its
    # error is the variance bound of one-shot tables.  fig3's and fig5's
    # qubits sum three one-shot tables on each axis, so their squared Bloch
    # lengths are estimated without bias; fig5's 60-degree qubit reads one
    # outcome on every axis, so its Q reads 1 with the stated bound 1/4.
    ("one_shot", ("fig5", "--shots", "1", "--seed", "1")),
    ("one_shot", ("fig4", "--shots", "1", "--seed", "1")),
    ("one_shot", ("fig3", "--shots", "1", "--seed", "1")),
    # The other probes' decodes: the default runs decode only the fourth.
    ("probe1", ("fig4", "--probe", "1", "--seed", "1")),
    ("probe2", ("fig4", "--probe", "2", "--seed", "1")),
    ("probe3", ("fig4", "--probe", "3", "--seed", "1")),
    ("qsv_large", ("fig3", "--qsv-tests", "100000", "--seed", "1")),  # a large verification run
    # Gap digits that move with any change in the arithmetic of the walk, the
    # optical table or the measurement module.
    ("equiv", ("equiv", "--n-inputs", "5000", "--seed", "1")),
    # The optical angle solvers.
    ("angles/state.txt", ("angles", "--state", "1,2,3,4", "--phi", "30", "--setting", "XY")),
    ("angles/basis.txt", ("angles", "--basis", "0.3,0.5,1.1,0.2")),
)


def _read(root: Path) -> dict[str, bytes]:
    return {p.relative_to(root).as_posix(): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@functools.cache
def generate(runs: tuple = RUNS) -> dict[str, bytes]:
    """The bytes of every file that `runs` writes, by path under tests/golden/."""
    with tempfile.TemporaryDirectory() as tmp:
        for where, argv in runs:
            out, stdout = Path(tmp) / where, io.StringIO()
            with contextlib.redirect_stdout(stdout):
                if argv[0] == FIGURES:
                    rc = reproduce_figures([*argv[1:], "--out", str(out)])
                else:
                    rc = cli.main(list(argv) if argv[0] == "angles" else [*argv, "--out", str(out)])
            if rc != 0:  # not an assert: CI runs this file under `python -O`
                raise RuntimeError(f"{' '.join(argv)} exited {rc}")
            if argv[0] == "angles":
                out.parent.mkdir(parents=True, exist_ok=True)
                out.write_bytes(stdout.getvalue().encode())
        return _read(Path(tmp))


def _without_schema(data: bytes) -> list[bytes]:
    """The lines of a report file less its schema: the JSON's line or the CSV's row."""
    return [line for line in data.splitlines() if b'"schema":' not in line and not line.startswith(b"schema,")]


DIGESTS = "digests.json"
# The digest sweep's seeds and grids, fixed when its digests were first
# committed.  They are never re-picked so that a moved report does not show.
SWEEP_SEEDS = range(200)
EDGE_NOISE = (0.0, 1e-9, 0.01, 0.5, 0.99, 1.0 - 1e-9, 1.0)
EDGE_COUNTS = (1, 2, 5)
ANALYTIC_NOISE = (0.0, 1e-12, 0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.999, 1.0)
EQUIV_SEEDS = (0, 1, 2)


def _figures(family: str, config: ExperimentConfig, probes, **params):
    """(name, report) of fig3, of fig4 at each of `probes` and of fig5 at `config`."""
    name = " ".join([family, f"seed={config.seed}", *(f"{key}={value!r}" for key, value in params.items())])
    yield f"{name} fig3", run_fig3(config)
    for probe in probes:
        yield f"{name} fig4 probe={probe}", run_fig4(config, probe=probe)
    yield f"{name} fig5", run_fig5(config)


def _sweep():
    """(name, report) of each report of the digest sweep, in order: the
    sampled default at 200 seeds, fig4's probe cycling 1-4; the edge grid of
    `noise_p` by shots and tests of 1, 2 and 5, one seed each; analytic mode
    over a noise grid, every fig4 probe; `equiv` at three seeds."""
    for seed in SWEEP_SEEDS:
        yield from _figures("sampled", ExperimentConfig(seed=seed), [seed % 4 + 1])
    grid = [(p, n) for p in EDGE_NOISE for n in EDGE_COUNTS]
    for seed, (p, n) in enumerate(grid):
        yield from _figures("edge", ExperimentConfig(seed=seed, noise_p=p, shots_per_setting=n, qsv_tests=n),
                            [seed % 4 + 1], noise_p=p, n=n)
    for p in ANALYTIC_NOISE:
        yield from _figures("analytic", ExperimentConfig(seed=1, noise_p=p, analytic=True), (1, 2, 3, 4), noise_p=p)
    for seed in EQUIV_SEEDS:
        yield f"equiv seed={seed} equiv", run_equivalence(ExperimentConfig(seed=seed))


def _field(path: tuple) -> str:
    """A leaf's path with each list index written "[]": ("probes", 0, "purity", "estimate")
    is "probes[].purity.estimate"."""
    return "".join("[]" if isinstance(part, int) else f".{part}" for part in path).lstrip(".")


@functools.cache
def swept() -> tuple:
    """(name, experiment, leaves) of each report of `_sweep`: a leaf is the
    (path, field, text) of a leaf of its JSON less "schema", read as written,
    its path the keys and list indices joined by "."."""
    out = []
    for name, report in _sweep():
        doc = json.loads(experiments.report_texts(report)[0], parse_float=str)
        del doc["schema"]
        leaves = tuple((".".join(map(str, path)), _field(path), json.dumps(value)) for path, value in json_leaves(doc))
        out.append((name, doc["experiment"], leaves))
    return tuple(out)


def _digests(sweep, paths: dict[str, list[str]] | None = None) -> dict:
    """The digest file's document for `sweep`, as `swept` gives it: each
    experiment's paths (`paths`, else those of the sweep in order of first
    appearance), each report's digest over its leaves on them, and each
    path's over the sweep."""
    if paths is None:
        paths = {}
        for _, experiment, leaves in sweep:
            paths.setdefault(experiment, {}).update(dict.fromkeys(field for _, field, _ in leaves))
        paths = {experiment: list(fields) for experiment, fields in paths.items()}
    fields = {experiment: {field: hashlib.sha256() for field in names} for experiment, names in paths.items()}
    reports = {}
    for name, experiment, leaves in sweep:
        kept, report = fields.get(experiment, {}), hashlib.sha256()
        for path, field, text in leaves:
            if field in kept:
                line = f"{path}={text}\n".encode()
                report.update(line)
                kept[field].update(name.encode() + b"\0" + line)
        reports[name] = report.hexdigest()[:16]
    return {"schema": experiments.REPORT_SCHEMA, "paths": paths, "digests": reports,
            "fields": {experiment: {field: h.hexdigest()[:16] for field, h in hashes.items()}
                       for experiment, hashes in fields.items()}}


def _digest_file() -> bytes:
    return (json.dumps(_digests(swept()), indent=0) + "\n").encode()


def _digest_changes(committed: dict) -> list[str]:
    """What moved between the committed digest document and a fresh sweep:
    each path that moved, was added or went, then each report whose leaves
    on the committed paths moved, came or went."""
    fresh, projected = _digests(swept()), _digests(swept(), committed["paths"])
    changes = []
    for experiment in {**committed["fields"], **fresh["fields"]}:
        kept, now = committed["fields"].get(experiment, {}), fresh["fields"].get(experiment, {})
        for field in {**kept, **now}:
            state = "added" if field not in kept else "removed" if field not in now else "moved"
            if kept.get(field) != now.get(field):
                changes.append(f"{experiment} {field}: {state}")
    kept, now = committed["digests"], projected["digests"]
    return changes + [name for name in {**now, **kept} if now.get(name) != kept.get(name)]


def _named(name: str, new: dict[str, bytes], old: dict[str, bytes]) -> list[str]:
    """`name`, or for the digest file the paths and reports that moved."""
    if name != DIGESTS or name not in new or name not in old:
        return [name]
    return [f"{name}: {change}" for change in _digest_changes(json.loads(old[name]))]


def regenerate(golden: Path = GOLDEN) -> int:
    """Write the fresh files over `golden` under the module docstring's rules; returns the exit code."""
    new, old = {**generate(), DIGESTS: _digest_file()}, _read(golden)
    committed = json.loads(old["seed1/fig3.json"])["schema"] if "seed1/fig3.json" in old else None
    changed = sorted(name for name in new.keys() | old.keys() if new.get(name) != old.get(name))
    refused = [moved for name in changed if name in new and name in old
               and (committed == experiments.REPORT_SCHEMA or name.startswith("angles/"))
               for moved in _named(name, new, old)]
    if refused:
        print(f"moved under report schema {committed}; nothing written.  Bump experiments.REPORT_SCHEMA "
              "if the change is meant to move reports (angles texts may not move):",
              *refused, sep="\n  ", file=sys.stderr)
        return 1
    for name in changed:
        if name in new:
            (golden / name).parent.mkdir(parents=True, exist_ok=True)
            (golden / name).write_bytes(new[name])
        else:
            (golden / name).unlink()
    moved = [moved for name in changed
             if _without_schema(new.get(name, b"")) != _without_schema(old.get(name, b""))
             for moved in _named(name, new, old)]
    print(f"report schema {committed} -> {experiments.REPORT_SCHEMA}: {len(changed)} files rewritten, "
          f"{len(moved)} moved apart from the schema line", *moved, sep="\n  ")
    return 0


def _moved(new: dict[str, bytes]) -> list[str]:
    old = {name: data for name, data in _read(GOLDEN).items() if name != DIGESTS}
    return [name for name in sorted(new.keys() | old.keys()) if new.get(name) != old.get(name)]


def test_reports_match_golden():
    assert _moved(generate()) == [], \
        "reports moved: bump experiments.REPORT_SCHEMA and run `python tests/test_golden.py`, or mend the change"


def test_reports_match_golden_from_warm_models_in_reverse_order():
    """Each figure's seed-independent model is cached per process: made again
    after `RUNS`, in reverse order, every run reads a model another run built."""
    generate()
    assert _moved(generate(RUNS[::-1])) == []


def test_report_digests_match():
    """Every path and every report of the sweep hashes to its committed
    digest; each that moved is named."""
    new, old = {DIGESTS: _digest_file()}, {DIGESTS: (GOLDEN / DIGESTS).read_bytes()}
    moved = _named(DIGESTS, new, old)
    assert not moved, (f"{len(moved)} paths or reports moved, first {moved[0]}: bump experiments.REPORT_SCHEMA "
                       "and run `python tests/test_golden.py`, or mend the change")
    assert new == old  # the schema line too


def test_each_golden_csv_is_the_leaves_of_its_json():
    """A golden JSON read back and encoded again gives both golden files, and
    `csv.reader` reads its CSV as the JSON's leaves, each number's text as the
    JSON writes it."""
    reports = sorted(p for p in GOLDEN.rglob("*.json") if p.name != DIGESTS)
    assert len(reports) == 26
    for path in reports:
        texts = path.read_bytes().decode(), path.with_suffix(".csv").read_bytes().decode()
        report = json.loads(texts[0])
        del report["schema"]
        assert experiments.report_texts(report) == texts, path
        assert list(csv.reader(io.StringIO(texts[1]))) == json_leaf_rows(texts[0]), path


def _copy_moving_a_digit(tmp_path: Path, name: str) -> Path:
    """A copy of tests/golden/ in which the last digit of file `name`, if any, moved."""
    copy = Path(shutil.copytree(GOLDEN, tmp_path / "golden"))
    if name:
        text = (copy / name).read_text()
        i = max(i for i, ch in enumerate(text) if ch.isdigit())
        (copy / name).write_text(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
    return copy


def test_regenerating_an_unchanged_tree_rewrites_nothing(tmp_path, capsys):
    copy = _copy_moving_a_digit(tmp_path, "")
    stamps = [p.stat().st_mtime_ns for p in sorted(copy.rglob("*"))]
    assert regenerate(copy) == 0
    assert [p.stat().st_mtime_ns for p in sorted(copy.rglob("*"))] == stamps
    assert "0 files rewritten" in capsys.readouterr().out


def test_a_report_moved_under_the_same_schema_is_refused(tmp_path, capsys):
    copy = _copy_moving_a_digit(tmp_path, "seed1/fig4.json")
    before = _read(copy)
    assert regenerate(copy) == 1
    assert _read(copy) == before
    assert capsys.readouterr().err.splitlines()[1:] == ["  seed1/fig4.json"]


def test_a_digest_moved_under_the_same_schema_is_refused_and_named(tmp_path, capsys):
    copy = _copy_moving_a_digit(tmp_path, "")
    text = (copy / DIGESTS).read_text()
    digest = json.loads(text)["digests"]["edge seed=7 noise_p=0.01 n=2 fig4 probe=4"]
    (copy / DIGESTS).write_text(text.replace(digest, "0" * 16))
    before = _read(copy)
    assert regenerate(copy) == 1
    assert _read(copy) == before
    assert capsys.readouterr().err.splitlines()[1:] == [f"  {DIGESTS}: edge seed=7 noise_p=0.01 n=2 fig4 probe=4"]


def test_after_a_schema_bump_the_files_are_written_and_the_moved_ones_listed(tmp_path, capsys):
    copy = _copy_moving_a_digit(tmp_path, "one_shot/fig5.csv")
    for path in copy.rglob("*.json"):
        path.write_text(path.read_text().replace(f'"schema": {experiments.REPORT_SCHEMA},', '"schema": 8,', 1))
    for path in copy.rglob("*.csv"):
        path.write_text(path.read_text().replace(f"\nschema,{experiments.REPORT_SCHEMA}\n", "\nschema,8\n", 1))
    assert regenerate(copy) == 0
    assert _read(copy) == _read(GOLDEN)
    rewritten = len(list(copy.rglob("*.json"))) + len(list(copy.rglob("*.csv")))  # each report's schema
    assert capsys.readouterr().out.splitlines() == [
        f"report schema 8 -> {experiments.REPORT_SCHEMA}: {rewritten} files rewritten, "
        "1 moved apart from the schema line",
        "  one_shot/fig5.csv"]


def test_a_moved_field_is_named_by_its_path_and_report(tmp_path, capsys, monkeypatch):
    name, path = "sampled seed=3 fig5", "points.2.theory_cos"

    def moved(entry):
        report, experiment, leaves = entry
        return (report, experiment, tuple((p, field, '"0.5"' if (report, p) == (name, path) else text)
                                          for p, field, text in leaves))

    sweep = tuple(map(moved, swept()))
    monkeypatch.setitem(globals(), "swept", lambda: sweep)
    copy = _copy_moving_a_digit(tmp_path, "")
    before = _read(copy)
    assert regenerate(copy) == 1
    assert _read(copy) == before
    assert capsys.readouterr().err.splitlines()[1:] == [f"  {DIGESTS}: fig5 points[].theory_cos: moved",
                                                        f"  {DIGESTS}: {name}"]


def test_an_added_field_is_named_as_added_and_moves_no_report_digest(tmp_path, capsys, monkeypatch):
    sweep = tuple((report, experiment, leaves + (("bias", "bias", '"0.0"'),) if experiment == "fig5" else leaves)
                  for report, experiment, leaves in swept())
    copy = _copy_moving_a_digit(tmp_path, "")
    for path in copy.rglob("*.json"):
        path.write_text(path.read_text().replace(f'"schema": {experiments.REPORT_SCHEMA},', '"schema": 8,', 1))
    monkeypatch.setitem(globals(), "swept", lambda: sweep)
    assert regenerate(copy) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1:] == [f"  {DIGESTS}: fig5 bias: added"]
    written = json.loads((copy / DIGESTS).read_text())
    assert written["paths"]["fig5"][-1] == "bias" and "bias" in written["fields"]["fig5"]


if __name__ == "__main__":
    sys.exit(regenerate())
