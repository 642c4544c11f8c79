"""The three benchmark workloads: input generation, the timed op, output checks.

Every input comes from the benchmark's own seed through `sub_seed`, which is
SHA-256 in this file, never `realmask.derive_seed`; the tomo-batch count table
is drawn with numpy here, never with `realmask.measure`.  A change to the
program's seed derivation or sampler therefore leaves the workloads alone.

An op returns its outputs; `check` returns a list of problems with them
(empty when correct) and `fingerprint` the bytes that a repeat of the same op
must reproduce exactly.
"""
from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import shutil
import tempfile
import time
from pathlib import Path

import numpy as np

from realmask import estimate, experiments, measure

# Estimates may sit at most this many of their own standard errors from the
# analytic-mode value.  Over 25 seeds at the default config the largest
# distance seen was 2.6 (fig3), 1.7 (fig4) and 3.1 (fig5) standard errors.
Z_LIMIT = 6.0
CI95_Z = 1.959963984540054


def sub_seed(workload: str, seed: int, k: int) -> int:
    """63-bit seed of op `k`: SHA-256 over the workload name, run seed and k."""
    digest = hashlib.sha256(f"realmask-bench/{workload}/{seed}/{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def _nonfinite_in(obj) -> bool:
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(_nonfinite_in(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_nonfinite_in(v) for v in obj)
    return False


def _off_by(name: str, est: float, ref: float, sigma: float) -> list[str]:
    if abs(est - ref) <= Z_LIMIT * sigma:
        return []
    return [f"{name}: {est!r} is {abs(est - ref) / sigma if sigma else math.inf:.3g} "
            f"standard errors from the analytic {ref!r}"]


class Workload:
    """Defaults for a workload whose op result is its output and needs no cleanup.

    `nominal_op_s` is an op's wall time on a 2-vCPU Intel Xeon VM at the slow
    end of its drift; it fixes how many ops a run of a given length attempts,
    not what is measured.
    """

    stages: tuple[str, ...] = ()

    def finish(self, inp, result):
        return result

    def cleanup(self, inp) -> None:
        pass


class Figures(Workload):
    """The default reproduce_figures set: fig3, fig4, fig5, equiv, four reports."""

    name = "figures"
    items_per_op = 4
    nominal_op_s = 1.8
    stages = ("fig3", "fig4", "fig5", "equiv")

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        ref = experiments.ExperimentConfig(analytic=True)
        self.ref3 = experiments.run_fig3(ref)
        self.ref4 = experiments.run_fig4(ref)
        self.ref5 = experiments.run_fig5(ref)

    def prepare(self, k: int):
        cfg = experiments.ExperimentConfig(seed=sub_seed(self.name, self.seed, k))
        return cfg, Path(tempfile.mkdtemp(prefix="figures-", dir=self.scratch))

    def run(self, inp, stage_s: dict[str, float]):
        cfg, out = inp
        steps = (
            ("fig3", experiments.run_fig3),
            ("fig4", experiments.run_fig4),
            ("fig5", experiments.run_fig5),
            ("equiv", experiments.run_equivalence),
        )
        for stage, fn in steps:
            t = time.perf_counter()
            experiments.write_report(fn(cfg), out)
            stage_s[stage] = time.perf_counter() - t
        return out

    def finish(self, inp, out: Path) -> dict[str, bytes]:
        return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

    def cleanup(self, inp) -> None:
        shutil.rmtree(inp[1], ignore_errors=True)

    def check(self, inp, files: dict[str, bytes]) -> list[str]:
        want = {f"{s}.{ext}" for s in self.stages for ext in ("json", "csv")}
        if set(files) != want:
            return [f"report files {sorted(files)}, expected {sorted(want)}"]
        problems = []
        reports = {}
        for name, data in files.items():
            text = data.decode()
            if name.endswith(".json"):
                try:
                    reports[name] = json.loads(text, parse_constant=_reject_constant)
                except ValueError as exc:
                    problems.append(f"{name}: {exc}")
                    continue
                if _nonfinite_in(reports[name]):
                    problems.append(f"{name}: non-finite number")
            else:
                for row in csv.reader(io.StringIO(text)):
                    for cell in row:
                        try:
                            value = float(cell)
                        except ValueError:
                            continue
                        if not math.isfinite(value):
                            problems.append(f"{name}: non-finite cell {cell!r}")
        if problems:
            return problems
        for got, ref in zip(reports["fig3.json"]["probes"], self.ref3["probes"]):
            f = got["fidelity"]
            problems += _off_by(f"fig3 probe {got['probe']} fidelity", f["estimate"],
                                ref["fidelity"]["estimate"], f["error"] / CI95_Z)
        f4 = reports["fig4.json"]["fidelity"]
        problems += _off_by("fig4 decode fidelity", f4["estimate"],
                            self.ref4["fidelity"]["estimate"], f4["error"])
        for got, ref in zip(reports["fig5.json"]["points"], self.ref5["points"]):
            problems += _off_by(f"fig5 phi={got['phi_deg']} concurrence", got["estimate"],
                                ref["estimate"], got["error"])
        if reports["equiv.json"]["pass"] is not True:
            problems.append("equiv reports pass: false")
        return problems

    def fingerprint(self, files: dict[str, bytes]) -> bytes:
        return b"".join(name.encode() + b"\0" + data for name, data in sorted(files.items()))


class EquivSweep(Workload):
    """run_equivalence over 1,000 random real inputs (plus its 10 complex ones)."""

    name = "equiv-sweep"
    nominal_op_s = 0.9
    n_inputs = 1000
    items_per_op = n_inputs + 10

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def prepare(self, k: int):
        return experiments.ExperimentConfig(seed=sub_seed(self.name, self.seed, k))

    def run(self, cfg, stage_s: dict[str, float]):
        return experiments.run_equivalence(cfg, n_inputs=self.n_inputs)

    def check(self, cfg, report: dict) -> list[str]:
        problems = []
        if _nonfinite_in(report):
            problems.append("non-finite number in the equivalence report")
        if report.get("n_inputs") != self.n_inputs:
            problems.append(f"report covers {report.get('n_inputs')} inputs, asked {self.n_inputs}")
        if report.get("pass") is not True:
            problems.append(f"pass: false (max infidelity {report.get('max_infidelity')!r})")
        return problems

    def fingerprint(self, report: dict) -> bytes:
        return json.dumps(report, sort_keys=True).encode()


class TomoBatch(Workload):
    """Parse a count-table CSV for 256 qubits, then one batched MLE over all of them.

    A quarter of the qubits are exactly pure; the rest have Bloch radius
    uniform in the ball's volume.  Every qubit gets 1000, 4000 or 10000 shots
    on each of X, Y and Z.
    """

    name = "tomo-batch"
    nominal_op_s = 2.2
    n_qubits = 256
    shot_choices = (1000, 4000, 10000)
    items_per_op = n_qubits

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed

    def prepare(self, k: int):
        rng = np.random.Generator(np.random.Philox(key=sub_seed(self.name, self.seed, k)))
        n = self.n_qubits
        direction = rng.normal(size=(n, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        radius = np.concatenate([np.ones(n // 4), rng.random(n - n // 4) ** (1.0 / 3.0)])
        bloch = direction * radius[:, None]
        shots = rng.choice(self.shot_choices, size=n)
        plus = rng.binomial(shots[:, None], np.clip((1.0 + bloch) / 2.0, 0.0, 1.0))
        # The seed column tells the tables of different qubits apart.
        tags = rng.integers(0, 2**62, size=n)
        if len(set(tags.tolist())) != n:
            raise RuntimeError("table tags collided; draw again with another seed")
        rows = ["setting,outcome,count,shots,seed"]
        for i in range(n):
            for axis, p in zip("XYZ", plus[i]):
                s, tag = int(shots[i]), int(tags[i])
                rows.append(f"{axis},+,{p},{s},{tag}")
                rows.append(f"{axis},-,{s - p},{s},{tag}")
        return {"csv": "\n".join(rows) + "\n", "bloch": bloch, "shots": shots}

    def run(self, inp, stage_s: dict[str, float]):
        tables = measure.tables_from_csv(inp["csv"])
        if [t.setting for t in tables] != list("XYZ") * self.n_qubits:
            raise ValueError("tables came back out of X, Y, Z order")
        counts = np.array([t.counts for t in tables], dtype=float).reshape(self.n_qubits, 3, 2)
        return estimate.purity_from_counts(counts)

    def check(self, inp, purity: np.ndarray) -> list[str]:
        if purity.shape != (self.n_qubits,):
            return [f"purity array has shape {purity.shape}"]
        if not np.all(np.isfinite(purity)):
            return ["non-finite purity"]
        problems = []
        low, high = float(purity.min()), float(purity.max())
        if low < 0.5 - 1e-12 or high > 1.0 + 1e-12:
            problems.append(f"purity outside [1/2, 1]: min {low!r}, max {high!r}")
        # First-order shot noise of (1 + |r|^2)/2 plus the |dr|^2 bias term.
        b, n = inp["bloch"], inp["shots"]
        sigma = np.sqrt(np.sum(b**2 * (1.0 - b**2), axis=1) / n)
        tol = Z_LIMIT * sigma + Z_LIMIT**2 * 1.5 / n
        truth = (1.0 + np.sum(b**2, axis=1)) / 2.0
        bad = np.flatnonzero(np.abs(purity - truth) > tol)
        if bad.size:
            i = int(bad[0])
            problems.append(f"{bad.size} purities beyond shot noise, e.g. qubit {i}: "
                            f"{float(purity[i])!r} vs true {float(truth[i])!r} (tolerance {tol[i]:.3g})")
        return problems

    def fingerprint(self, purity: np.ndarray) -> bytes:
        return purity.tobytes()


WORKLOADS = {w.name: w for w in (Figures, EquivSweep, TomoBatch)}

# Exceptions an op may end with that mark the op failed rather than the
# program broken: the estimator's own report that it did not converge.
DECLARED_FAILURES = tuple(
    cls for cls in (getattr(estimate, "ConvergenceError", None),) if cls is not None
)
