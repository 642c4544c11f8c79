"""Golden reports: each run of `RUNS` is made in process and compared byte
for byte with its files under tests/golden/, so a moved number, numpy random
stream or report layout fails on every CI leg.  They are made a second time
in reverse order, when each run reads figure models cached by another.

`python tests/test_golden.py` writes the fresh files there.  While
`experiments.REPORT_SCHEMA` equals the schema of the committed
seed1/fig3.json, and always for the `angles` texts (they carry no schema), it
names the moved files, writes nothing and exits 1.  After a schema bump it
writes the files and lists those whose content moved apart from the "schema"
line.

`digests.json` holds the digest of every report of a wider sweep (`_sweep`):
the first 16 hex digits of the SHA-256 of its JSON bytes, less their
"schema" line, followed by its CSV bytes.  The script writes it under the
same rules, naming a moved report by its family, seed and figure.
"""
import contextlib
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
    # The pure phase probes: the 90-degree point and its resamples invert outside the
    # Bloch ball, where the MLE purity is 1 (the one-shot runs invert outside it too).
    ("noiseless", ("fig5", "--noise-p", "0", "--seed", "1")),
    # Noiseless masked states: the pure densities, checked as they are.
    ("noiseless", ("fig3", "--noise-p", "0", "--seed", "1")),
    ("one_shot", ("fig5", "--shots", "1", "--seed", "1")),  # axes with zero counts in the bootstrap resamples
    # A one-shot decode (zero-shot correlators) and one-shot purities: point
    # estimates with zero-count axes, estimated in the call of their resamples.
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
    return [line for line in data.splitlines() if b'"schema":' not in line]


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


@functools.cache
def digests() -> dict[str, str]:
    """The digest of each report of `_sweep`, by name."""
    out = {}
    for name, report in _sweep():
        data = b"\n".join(_without_schema(experiments.report_json(report).encode()))
        out[name] = hashlib.sha256(data + experiments.report_csv(report).encode()).hexdigest()[:16]
    return out


def _digest_file(table: dict[str, str]) -> bytes:
    return (json.dumps({"schema": experiments.REPORT_SCHEMA, "digests": table}, indent=0) + "\n").encode()


def _named(name: str, new: dict[str, bytes], old: dict[str, bytes]) -> list[str]:
    """`name`, or for the digest file the reports whose digests moved."""
    if name != DIGESTS or name not in new or name not in old:
        return [name]
    fresh, kept = (json.loads(data)["digests"] for data in (new[name], old[name]))
    return [f"{name}: {key}" for key in [*fresh, *(k for k in kept if k not in fresh)]
            if fresh.get(key) != kept.get(key)]


def regenerate(golden: Path = GOLDEN) -> int:
    """Write the fresh files over `golden` under the module docstring's rules; returns the exit code."""
    new, old = {**generate(), DIGESTS: _digest_file(digests())}, _read(golden)
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
    """Every report of the sweep hashes to its committed digest; the first
    that moved is named by its family, seed and figure."""
    new, old = {DIGESTS: _digest_file(digests())}, {DIGESTS: (GOLDEN / DIGESTS).read_bytes()}
    moved = _named(DIGESTS, new, old)
    assert not moved, (f"{len(moved)} reports moved, first {moved[0]}: bump experiments.REPORT_SCHEMA and run "
                       "`python tests/test_golden.py`, or mend the change")
    assert new == old  # the schema line too


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
    assert regenerate(copy) == 0
    assert _read(copy) == _read(GOLDEN)
    rewritten = len(list(copy.rglob("*.json"))) + 1  # every JSON file's schema line and the moved CSV
    assert capsys.readouterr().out.splitlines() == [
        f"report schema 8 -> {experiments.REPORT_SCHEMA}: {rewritten} files rewritten, "
        "1 moved apart from the schema line",
        "  one_shot/fig5.csv"]


if __name__ == "__main__":
    sys.exit(regenerate())
