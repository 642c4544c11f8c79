"""Experiment pipelines reproducing the three result figures at desk scale.

Each run is fully determined by an ExperimentConfig: every random draw flows
through a sub-seed derived from (config.seed, stream tag, indices), so a rerun
with the same config produces byte-identical report files.  Estimates are
never emitted bare: fidelity errors are 95% confidence half-widths, purity and
concurrence errors are bootstrap standard deviations, and each report row says
which via its error_kind field.

Each figure runs its points as one stack: the masked states of all points
form one (n, 4, 4) array, checked once; the point estimates of a figure take
one purity call and its bootstrap resamples one more.  The seeded draws of a
figure take one call each too: one `sample_counts` call over all its Pauli
tables, one `qsv_run` call over fig3's probes and one `poisson_resample`
call per bootstrap, each row or item still drawn from its own sub-seed.
Sampled counts stay integer arrays from the draw to the estimate.
"""
from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import estimate, measure, optics, walk
from .masker import masker_matrix
from .measure import derive_seed, generator
from .qcore import checked_density, concurrence_from_purity, partial_trace, purity, spin_flip_concurrence

# Version of the JSON reports, bumped whenever the layout or the numbers that a
# fixed config produces change.
REPORT_SCHEMA = 10

DEFAULT_SEED = 20404
DEFAULT_QSV_TESTS = 5000
DEFAULT_NOISE_P = 0.01
DEFAULT_PHI_GRID = (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)
DEFAULT_SHOTS = {"fig3": 4000, "fig4": 4000, "fig5": 10000}
BOOTSTRAP_RESAMPLES = 100
# Random preparation targets the equivalence check runs through the table at
# once; it bounds the memory of a large --n-inputs run.
EQUIV_BLOCK = 4096
# Largest amplitude or probability gap against the masker that `equiv` passes.
EQUIV_THRESHOLD = 1e-10

PROBE_LABELS = {
    1: "|0>",
    2: "(|0>+|1>)/sqrt(2)",
    3: "(|0>+|1>+|2>)/sqrt(3)",
    4: "(|0>+|1>+|2>+|3>)/2",
}


def probe_vector(index: int) -> np.ndarray:
    """The four probe inputs: uniform superpositions of the first k basis kets."""
    if index not in (1, 2, 3, 4):
        raise ValueError(f"probe index must be 1..4, got {index}")
    v = np.zeros(4)
    v[:index] = 1.0
    return v / np.linalg.norm(v)


def phase_probe(phi_deg: float) -> np.ndarray:
    """(|0> + e^{i phi}|1>)/sqrt(2)."""
    return np.array([1.0, np.exp(1j * math.radians(phi_deg)), 0.0, 0.0]) / np.sqrt(2)


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = DEFAULT_SEED
    shots_per_setting: int | None = None  # resolved per experiment
    qsv_tests: int = DEFAULT_QSV_TESTS
    noise_p: float = DEFAULT_NOISE_P
    phi_grid_deg: tuple[float, ...] = DEFAULT_PHI_GRID
    analytic: bool = False
    output_path: str | None = None

    def shots(self, experiment: str) -> int:
        if self.shots_per_setting is not None:
            return self.shots_per_setting
        return DEFAULT_SHOTS[experiment]


def report_row(config: ExperimentConfig, experiment: str, target: str, estimate: float,
               error: float, error_kind: str, n: int | None = None, shots: int | None = None,
               **extra) -> dict:
    """One labeled estimate, its error a 95% CI half-width ("ci95") or a bootstrap std ("std")."""
    if error_kind not in ("ci95", "std"):
        raise ValueError(f"error_kind must be 'ci95' or 'std', got {error_kind!r}")
    return {"experiment": experiment, "target": target, "estimate": estimate, "error": error,
            "error_kind": error_kind, "N": n, "shots": shots, "seed": config.seed,
            "noise_p": config.noise_p, **extra}


def _masked_states(probes: np.ndarray, noise_p: float) -> tuple[np.ndarray, np.ndarray]:
    """The masked probes of an (n, 4) stack as (n, 4) vectors, and their
    (n, 4, 4) densities under depolarizing noise, each stack checked once; at
    p = 0 the ideal densities themselves, which the depolarizing rebuild could
    perturb."""
    vecs = (masker_matrix() @ probes[..., None])[..., 0]
    ideal = checked_density(vecs[:, :, None] * vecs[:, None, :].conj())
    return vecs, ideal if noise_p == 0.0 else measure.apply_depolarizing(ideal, noise_p)


def _pauli_counts(probs: np.ndarray, shots: int, master_seed: int, tags) -> np.ndarray:
    """Counts of every row of a stack of probability tables, (n, 3, 2) for
    qubits or (n, 9, 4) for pairs, in one `sample_counts` call.

    Row r of table i is drawn from its own sub-seed, tagged with `tags[i]`
    and the row's `measure.AXES` or `measure.PAIRS` label.
    """
    labels = measure.AXES if probs.shape[-2] == len(measure.AXES) else measure.PAIRS
    seeds = np.array([[derive_seed(master_seed, *t, label) for label in labels] for t in tags], dtype=object)
    return measure.sample_counts(probs, shots, seeds.reshape(probs.shape[:-1]))


# ---------------------------------------------------------------------------
# fig3: verification fidelity + reduced-state purity for the four probes.

PROBES = (1, 2, 3, 4)


def _avg_purity(counts: np.ndarray) -> np.ndarray:
    """Mean MLE purity of the two qubits of each (2, 3, 2) count array of a stack."""
    return estimate.purity_from_counts(counts.reshape(-1, 3, 2)).reshape(-1, 2).mean(axis=1)


def run_fig3(config: ExperimentConfig) -> dict:
    shots = config.shots("fig3")
    probes = np.array([probe_vector(idx) for idx in PROBES])
    ideal, rho = _masked_states(probes, config.noise_p)
    # (probe, qubit, 2, 2): the path (A) and polarization (B) qubit of each probe.
    reduced = np.stack([partial_trace(rho, k) for k in ("A", "B")], axis=1)
    if config.analytic:
        eps = 1.0 - np.einsum("ni,nij,nj->n", ideal.conj(), rho, ideal).real
        fids = [report_row(config, "fig3", f"probe {idx} fidelity", 1.0 - e, 0.0, "ci95",
                           eps_hat=e, eps_low=e, eps_high=e, passed=None, tests=None)
                for idx, e in zip(PROBES, eps.tolist())]
        pur, std, resamples = purity(reduced), np.zeros(len(PROBES)), None
    else:
        qsvs = estimate.qsv_run(rho, probes, config.qsv_tests,
                                [derive_seed(config.seed, "fig3.qsv", idx) for idx in PROBES])
        fids = [report_row(config, "fig3", f"probe {idx} fidelity", qsv.fidelity, qsv.error, "ci95",
                           qsv.total, eps_hat=qsv.eps_hat, eps_low=qsv.ci_low, eps_high=qsv.ci_high,
                           passed=qsv.passed, tests=qsv.total)
                for idx, qsv in zip(PROBES, qsvs)]
        tags = [("fig3.tomo", idx, tag) for idx in PROBES for tag in ("path", "pol")]
        counts = _pauli_counts(measure.axis_probs(reduced).reshape(-1, 3, 2), shots, config.seed, tags)
        counts = counts.reshape(len(PROBES), 2, 3, 2)
        seeds = [derive_seed(config.seed, "fig3.boot", idx) for idx in PROBES]
        pur = estimate.purity_from_counts(counts.reshape(-1, 3, 2)).reshape(-1, 2)
        resamples = BOOTSTRAP_RESAMPLES
        std = estimate.bootstrap_std(_avg_purity, counts, seeds, resamples=resamples)
    rows = []
    for i, idx in enumerate(PROBES):
        pur_a, pur_b = pur[i].tolist()
        avg = report_row(config, "fig3", f"probe {idx} avg purity", 0.5 * (pur_a + pur_b),
                         float(std[i]), "std", shots=None if config.analytic else shots,
                         path_purity=pur_a, pol_purity=pur_b, resamples=resamples)
        rows.append({
            "probe": idx,
            "target": PROBE_LABELS[idx],
            "fidelity": fids[i],
            "purity": avg,
        })
    return {
        "experiment": "fig3",
        "seed": config.seed,
        "noise_p": config.noise_p,
        "qsv_tests": config.qsv_tests,
        "shots_per_setting": shots,
        "analytic": config.analytic,
        "probes": rows,
    }


# ---------------------------------------------------------------------------
# fig4: correlation decoding of the masked fourth probe.

def run_fig4(config: ExperimentConfig, probe: int = 4) -> dict:
    shots = config.shots("fig4")
    a = probe_vector(probe)
    probs = measure.pair_probs(_masked_states(a[None], config.noise_p)[1][0])
    if config.analytic:
        t = measure.correlators(probs).reshape(3, 3)
        fid_std = 0.0
    else:
        counts = _pauli_counts(probs[None], shots, config.seed, [("fig4", probe)])[0]
        t = measure.correlators(counts).reshape(3, 3)

        def decode_fidelity(stack: np.ndarray) -> np.ndarray:
            ts = measure.correlators(stack).reshape(-1, 3, 3)
            return estimate.decode_real_state(ts, a).fidelity_vs_input

        fid_std = float(estimate.bootstrap_std(
            decode_fidelity, counts[None], [derive_seed(config.seed, "fig4.boot", probe)],
            resamples=BOOTSTRAP_RESAMPLES,
        )[0])
    decoded = estimate.decode_real_state(t, input_state=a)
    fid = report_row(config, "fig4", f"probe {probe} decode fidelity", decoded.fidelity_vs_input,
                     fid_std, "std", shots=shots,
                     resamples=None if config.analytic else BOOTSTRAP_RESAMPLES)
    return {
        "experiment": "fig4",
        "seed": config.seed,
        "noise_p": config.noise_p,
        "shots_per_setting": shots,
        "analytic": config.analytic,
        "probe": probe,
        "target": PROBE_LABELS[probe],
        "correlators": t.tolist(),
        "rho_raw": decoded.rho_hat.tolist(),
        "rho_decoded": decoded.rho_proj.real.tolist(),
        "fidelity": fid,
    }


# ---------------------------------------------------------------------------
# fig5: concurrence of the masked phase probes vs the cosine prediction.

def _concurrence(counts: np.ndarray) -> np.ndarray:
    """Concurrence from the MLE purity of each (3, 2) count array of a stack."""
    return concurrence_from_purity(estimate.purity_from_counts(counts))


def run_fig5(config: ExperimentConfig) -> dict:
    shots = config.shots("fig5")
    phis = config.phi_grid_deg
    probes = np.array([phase_probe(phi) for phi in phis]).reshape(-1, 4)
    vecs, states = _masked_states(probes, config.noise_p)
    rho_path = partial_trace(states, "A")
    if config.analytic:  # the pure states at p = 0 need no square root of a rounded 1 - purity
        est, std = (np.array([spin_flip_concurrence(v) for v in vecs]) if config.noise_p == 0.0
                    else concurrence_from_purity(purity(rho_path))), np.zeros(len(phis))
    else:
        counts = _pauli_counts(measure.axis_probs(rho_path), shots, config.seed,
                               [("fig5.tomo", i) for i in range(len(phis))])
        seeds = [derive_seed(config.seed, "fig5.boot", i) for i in range(len(phis))]
        est = _concurrence(counts)
        std = estimate.bootstrap_std(_concurrence, counts, seeds, resamples=BOOTSTRAP_RESAMPLES)
    points = [
        report_row(config, "fig5", f"phi = {phi} deg", float(est[i]), float(std[i]), "std",
                   shots=None if config.analytic else shots,
                   phi_deg=phi, theory_cos=math.cos(math.radians(phi)))
        for i, phi in enumerate(phis)
    ]
    return {
        "experiment": "fig5",
        "seed": config.seed,
        "noise_p": config.noise_p,
        "shots_per_setting": shots,
        "analytic": config.analytic,
        "points": points,
    }


# ---------------------------------------------------------------------------
# equivalence: walk, optical table and measurement module against the masker.

def _preparation_gap(a: np.ndarray) -> float:
    """Largest amplitude gap between the rails prepared for real (n, 4) targets and the walk's encoding."""
    got, want = optics.simulate_preparation(optics.solve_prep_angles(a)), walk.encode_input(a)
    if (got.lo, got.amps.shape) != (want.lo, want.amps.shape):
        raise AssertionError(f"prepared window moved: lo {got.lo}, shape {got.amps.shape} against "
                             f"the walk's {want.lo}, {want.amps.shape}")
    return float(np.abs(got.amps - want.amps).max())


@lru_cache(maxsize=None)
def _fixed_gaps() -> tuple[tuple[str, float], ...]:
    """Gaps of the parts a basis fixes, checked once: the walk's and the table's 4x4 maps against
    the masker (times `optics.MASKING_PHASE`), the preparation at the basis targets (the solver's
    degenerate branches) and each Pauli pair's detector probabilities, a Hermitian form, on 16 states."""
    m, eye, (j, k) = masker_matrix(), np.eye(4), np.triu_indices(4, 1)
    states = np.concatenate([eye, (eye[j] + eye[k]) / np.sqrt(2), (eye[j] + 1j * eye[k]) / np.sqrt(2)])
    want = measure.pair_probs(states[:, :, None] * states[:, None, :].conj())[..., optics.SPCM_OUTCOMES]
    got = [optics.simulate_measurement(states, optics.pauli_meas_setting(*pair)) for pair in measure.PAIRS]
    return (("masker_walk", float(np.abs(walk.run_masking_walk(eye).T - m).max())),
            ("masker_optics", float(np.abs(optics.simulate_masking(eye).T - optics.MASKING_PHASE * m).max())),
            ("preparation", _preparation_gap(eye)),
            ("measurement", float(np.abs(np.stack(got, axis=1) - want).max())))


def run_equivalence(config: ExperimentConfig, n_inputs: int = 100) -> dict:
    """The linear parts' gaps, and the preparation's over `n_inputs` random real targets."""
    if n_inputs < 1:
        raise ValueError(f"n_inputs must be >= 1, got {n_inputs}")
    rng = generator(derive_seed(config.seed, "equiv"))
    gaps = dict(_fixed_gaps())
    for start in range(0, n_inputs, EQUIV_BLOCK):
        a = rng.normal(size=(min(EQUIV_BLOCK, n_inputs - start), 4))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        gaps["preparation"] = max(gaps["preparation"], _preparation_gap(a))
    max_gap = max(gaps.values())
    return {
        "experiment": "equivalence",
        "seed": config.seed,
        "n_inputs": n_inputs,
        "threshold": EQUIV_THRESHOLD,
        "max_gap": max_gap,
        **{f"max_gap_{part}": gap for part, gap in gaps.items()},
        "pass": bool(max_gap < EQUIV_THRESHOLD),
    }


# ---------------------------------------------------------------------------
# Deterministic serialization: floats at 12 significant digits.

def _round_floats(obj):
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v) for v in obj]
    return obj


def report_json(report: dict) -> str:
    """JSON text of a report under a top-level "schema" key; NaN or infinity raises ValueError."""
    doc = {"schema": REPORT_SCHEMA, **_round_floats(report)}
    return json.dumps(doc, indent=2, allow_nan=False) + "\n"


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.12g}"
    return "" if x is None else str(x)


def report_csv(report: dict) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    kind = report["experiment"]
    if kind == "fig3":
        writer.writerow([
            "probe", "fidelity_est", "fidelity_err", "eps_hat", "eps_low", "eps_high",
            "passed", "tests", "avg_purity", "purity_std",
        ])
        for row in report["probes"]:
            f, p = row["fidelity"], row["purity"]
            writer.writerow([
                row["probe"], _fmt(f["estimate"]), _fmt(f["error"]), _fmt(f["eps_hat"]),
                _fmt(f["eps_low"]), _fmt(f["eps_high"]), _fmt(f["passed"]), _fmt(f["tests"]),
                _fmt(p["estimate"]), _fmt(p["error"]),
            ])
    elif kind == "fig4":
        writer.writerow(["setting", "correlator"])
        values = (value for row in report["correlators"] for value in row)
        for label, value in zip(measure.PAIRS, values):
            writer.writerow([label.lower(), _fmt(value)])
        writer.writerow(["fidelity", _fmt(report["fidelity"]["estimate"])])
        writer.writerow(["fidelity_std", _fmt(report["fidelity"]["error"])])
    elif kind == "fig5":
        writer.writerow(["phi_deg", "concurrence_est", "concurrence_std", "theory_cos"])
        for row in report["points"]:
            writer.writerow([
                _fmt(row["phi_deg"]), _fmt(row["estimate"]),
                _fmt(row["error"]), _fmt(row["theory_cos"]),
            ])
    elif kind == "equivalence":
        writer.writerow(["quantity", "value"])
        for key in ("max_gap", "max_gap_masker_walk", "max_gap_masker_optics", "max_gap_preparation",
                    "max_gap_measurement", "threshold"):
            writer.writerow([key, _fmt(report[key])])
        writer.writerow(["pass", str(report["pass"]).lower()])
    else:
        raise ValueError(f"no CSV layout for experiment {kind!r}")
    return buf.getvalue()


def write_report(report: dict, out_dir) -> list[Path]:
    """Write <experiment>.json and <experiment>.csv into `out_dir`."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stem = report["experiment"] if report["experiment"] != "equivalence" else "equiv"
    json_path = out / f"{stem}.json"
    csv_path = out / f"{stem}.csv"
    json_path.write_text(report_json(report))
    csv_path.write_text(report_csv(report))
    return [json_path, csv_path]
