"""Experiment pipelines reproducing the three result figures at desk scale.

Each run is fully determined by an ExperimentConfig: every random draw flows
through a sub-seed derived from (config.seed, stream tag, indices), so a rerun
with the same config produces byte-identical report files.  Estimates are
never emitted bare: fidelity errors are 95% confidence half-widths, purity and
concurrence errors are bootstrap standard deviations, and each report row says
which via its error_kind field.

Each figure splits into a seed-independent model and its seeded draws.  The
model builds the masked states of all points as one (n, 4, 4) stack under
depolarizing noise, checked by `measure.apply_depolarizing`, and keeps only
what the draws and analytic mode read of it: the Born tables, fig3's
fidelities of the masked probes with their noiseless images, fig4's probe
vector and fig5's |psi^T psi| of its phase probes.  It is built and checked
once per process for each value of the config fields it reads
(`_fig3_model`, `_fig4_model`, `_fig5_model`), never for the seed, and its
arrays are read-only, so a run that reads a cached model checks no state.
The seeded draws of a figure take one call each: one `sample_counts` call
over all its Pauli tables, one `qsv_run` call over fig3's probes (one
binomial pass count per probe, drawn from its fidelity) and one
`poisson_resample` call per bootstrap, each row or item still drawn from its
own sub-seed; the sub-seeds of each tag family ("fig3.tomo", "fig3.qsv",
"fig3.boot", ...) come from one `measure.derive_seeds` call.  A figure's
point estimates ride in the estimator call of their bootstrap resamples
(`estimate.bootstrap_std`), so fig3 makes one `purity_from_counts` call,
fig4 one `decode_real_state` call and fig5 one concurrence call.  Sampled
counts stay integer arrays from the draw to the estimate.

A figure draws counts, then estimates from them, and the two steps meet at
plain counts.  `_counts` gives its count tables: in analytic mode the Born
tables themselves, read as counts of one shot, else the drawn int64 counts.
`_estimate` runs the figure's estimator on them, with zero errors in
analytic mode or bootstrap errors; it reads only the counts, so counts read
back from a file estimate as drawn ones do.  The two are the one place that
chooses between the modes, apart from fig3's verification, which splits the
same way: `estimate.qsv_run` draws each probe's pass count and
`estimate.qsv_interval` gives its infidelity and interval, while analytic
mode draws none and reads 1 - F with no width.  fig5 at p = 0 reads the
concurrence of each pure masked probe M psi as |psi^T psi|, which the
masker's magic-basis identity proves (`masker.masker_matrix`).

A report states each fact of its run once, in its head: its name
(`experiment`: "fig3", "fig4", "fig5" or "equiv", also the stem of its
files), the seed and, for a figure, `noise_p`, the facts of its draws (fig3's
`qsv_tests`, `shots_per_setting` and `resamples`, each None in analytic
mode, which draws nothing) and `analytic`.  A row (`report_row`)
holds only its estimate and what belongs to that estimate alone; fig3's CSV
repeats the head's `qsv_tests` in its `tests` column.

Reports are written as JSON with floats at 12 significant digits, rounded and
encoded in one walk (`report_json`), and as CSV (`report_csv`).
`write_report` encodes both texts before it opens a file, so a refused report
leaves nothing behind, and writes each one's bytes as they are, with no
platform newline translation.
"""
from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import estimate, measure, optics, walk
from .masker import masker_matrix
from .measure import _is_integer, derive_seed, derive_seeds, generators
from .qcore import concurrence_from_purity, partial_trace

# Version of the JSON reports, bumped whenever the layout or the numbers that a
# fixed config produces change.
REPORT_SCHEMA = 18

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


def _probe_index(index) -> int:
    """A probe index 1..4 as a Python int; a bool or a non-integer is refused."""
    if not (_is_integer(index) and 1 <= index <= 4):
        raise ValueError(f"probe index must be an integer 1..4, got {index!r}")
    return int(index)


def probe_vector(index: int) -> np.ndarray:
    """The four probe inputs: uniform superpositions of the first k basis kets."""
    index = _probe_index(index)
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

    def shots(self, experiment: str) -> int:
        if self.shots_per_setting is not None:
            return self.shots_per_setting
        return DEFAULT_SHOTS[experiment]


def report_row(target: str, estimate: float, error: float, error_kind: str, **extra) -> dict:
    """One labeled estimate, its error a 95% CI half-width ("ci95") or a bootstrap std ("std")."""
    if error_kind not in ("ci95", "std"):
        raise ValueError(f"error_kind must be 'ci95' or 'std', got {error_kind!r}")
    return {"target": target, "estimate": estimate, "error": error, "error_kind": error_kind, **extra}


def _masked_states(probes: np.ndarray, noise_p: float) -> tuple[np.ndarray, np.ndarray]:
    """The masked probes of an (n, 4) stack as (n, 4) vectors, and their
    (n, 4, 4) densities under depolarizing noise, checked once by
    `measure.apply_depolarizing`; at p = 0 the pure densities (their
    Hermitian part), with no repair."""
    vecs = (masker_matrix() @ probes[..., None])[..., 0]
    return vecs, measure.apply_depolarizing(vecs[:, :, None] * vecs[:, None, :].conj(), noise_p)


# Models kept per figure: a few KB each, bounded so that a loop over noise
# levels or phase grids cannot grow without limit.
_MODELS_KEPT = 8


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _head(config: ExperimentConfig, experiment: str, **sampling) -> dict:
    """A figure report's head: its name, seed and noise, then the facts of its
    draws (`sampling`, `shots_per_setting` and `resamples`), each None in
    analytic mode, which draws nothing, and `analytic`."""
    drawn = {**sampling, "shots_per_setting": config.shots(experiment), "resamples": BOOTSTRAP_RESAMPLES}
    return {"experiment": experiment, "seed": config.seed, "noise_p": config.noise_p,
            **{key: None if config.analytic else value for key, value in drawn.items()},
            "analytic": config.analytic}


def _counts(probs: np.ndarray, config: ExperimentConfig, experiment: str, family: str,
            keys: list[tuple], parts: tuple[tuple, ...] = ((),)) -> np.ndarray:
    """The count tables of a stack of Born tables: `probs` holds item i's
    tables, (..., 3, 2) for qubits or (..., 9, 4) for pairs, under its tags
    `keys[i]`.  In analytic mode they are `probs` itself, the tables read as
    counts of one shot.  Sampled, every row is drawn as int64 counts with
    `config.shots(experiment)` shots in one `sample_counts` call, from its
    own sub-seed tagged `family`, the item's key, the table's part (one per
    table of an item) and the row's `measure.AXES` or `measure.PAIRS` label.
    """
    if config.analytic:
        return probs
    labels = measure.AXES if probs.shape[-2] == len(measure.AXES) else measure.PAIRS
    seeds = derive_seeds(config.seed, (family,),
                         [(*key, *part, label) for key in keys for part in parts for label in labels])
    return measure.sample_counts(probs, config.shots(experiment),
                                 np.array(seeds, dtype=object).reshape(probs.shape[:-1]))


def _estimate(quantity, counts: np.ndarray, config: ExperimentConfig, experiment: str,
              keys: list[tuple]) -> tuple[np.ndarray, np.ndarray]:
    """`quantity` of each item of a stack of count tables, which it maps to
    (m, ...) values, and their spread: zero in analytic mode, else the
    bootstrap std, item i resampled from the sub-seed tagged
    "<experiment>.boot" and `keys[i]`.  It reads only the counts, so counts
    from anywhere estimate as drawn ones do."""
    if config.analytic:
        values = np.asarray(quantity(counts))
        return values, np.zeros_like(values)
    return estimate.bootstrap_std(quantity, counts, derive_seeds(config.seed, (f"{experiment}.boot",), keys),
                                  resamples=BOOTSTRAP_RESAMPLES)


# ---------------------------------------------------------------------------
# fig3: verification fidelity + reduced-state purity for the four probes.

PROBES = (1, 2, 3, 4)


def _purities(counts: np.ndarray) -> np.ndarray:
    """(m, 3) MLE purities of the path and polarization qubits of each
    (2, 3, 2) count array of a stack, and their mean, whose spread fig3
    reports."""
    pur = estimate.purity_from_counts(counts.reshape(-1, 3, 2)).reshape(-1, 2)
    return np.column_stack([pur, pur.mean(axis=1)])


@lru_cache(maxsize=_MODELS_KEPT)
def _fig3_model(noise_p: float) -> tuple[np.ndarray, np.ndarray]:
    """fig3's seed-independent arrays at `noise_p`, read-only: the (probe,
    qubit, 3, 2) Born table of each masked probe's path (A) and polarization
    (B) qubit, and the (4,) fidelities of the masked probes with their
    noiseless images, which analytic mode reports and the verification
    draws sample."""
    probes = np.array([probe_vector(idx) for idx in PROBES])
    ideal, rho = _masked_states(probes, noise_p)
    reduced = np.stack([partial_trace(rho, k) for k in ("A", "B")], axis=1)
    fidelities = np.einsum("ni,nij,nj->n", ideal.conj(), rho, ideal).real
    return _read_only(measure.axis_probs(reduced), fidelities)


def run_fig3(config: ExperimentConfig) -> dict:
    probs, fidelities = _fig3_model(config.noise_p)
    keys = [(idx,) for idx in PROBES]
    # Each probe's (eps_hat, error, eps_low, eps_high, passed); analytic mode draws no pass counts.
    if config.analytic:
        verdicts = [(e, 0.0, e, e, None) for e in (1.0 - fidelities).tolist()]
    else:
        passes = estimate.qsv_run(fidelities, config.qsv_tests, derive_seeds(config.seed, ("fig3.qsv",), keys))
        verdicts = [(*estimate.qsv_interval(passed, config.qsv_tests), passed) for passed in passes]
    counts = _counts(probs, config, "fig3", "fig3.tomo", keys, parts=(("path",), ("pol",)))
    pur, std = _estimate(_purities, counts, config, "fig3", keys)
    rows = [{"probe": idx, "target": PROBE_LABELS[idx],
             "fidelity": report_row(f"probe {idx} fidelity", 1.0 - eps, err, "ci95",
                                    eps_hat=eps, eps_low=low, eps_high=high, passed=passed),
             "purity": report_row(f"probe {idx} avg purity", avg, spread, "std",
                                  path_purity=pur_a, pol_purity=pur_b)}
            for idx, (eps, err, low, high, passed), (pur_a, pur_b, avg), spread
            in zip(PROBES, verdicts, pur.tolist(), std[:, 2].tolist())]
    return {**_head(config, "fig3", qsv_tests=config.qsv_tests), "probes": rows}


# ---------------------------------------------------------------------------
# fig4: correlation decoding of the masked fourth probe.

@lru_cache(maxsize=_MODELS_KEPT)
def _fig4_model(noise_p: float, probe: int) -> tuple[np.ndarray, np.ndarray]:
    """fig4's seed-independent arrays, read-only: the probe vector and the
    (9, 4) Born table of its masked state at `noise_p`."""
    a = probe_vector(probe)
    return _read_only(a, measure.pair_probs(_masked_states(a[None], noise_p)[1][0]))


def _decoded(tables: np.ndarray, a: np.ndarray) -> np.ndarray:
    """(m, 42) rows for a stack of (9, 4) Pauli-pair tables, decoded in one
    call: each table's decode fidelity with `a`, then its raw and its
    projected reconstruction and its nine correlators, flattened."""
    t = measure.correlators(tables).reshape(-1, 3, 3)
    out = estimate.decode_real_state(t, a)
    m = len(tables)
    return np.column_stack([out.fidelity_vs_input, out.rho_hat.reshape(m, 16), out.rho_proj.reshape(m, 16),
                            t.reshape(m, 9)])


def run_fig4(config: ExperimentConfig, probe: int = 4) -> dict:
    probe = _probe_index(probe)
    a, probs = _fig4_model(config.noise_p, probe)
    counts = _counts(probs[None], config, "fig4", "fig4", [(probe,)])
    values, std = _estimate(lambda stack: _decoded(stack, a), counts, config, "fig4", [(probe,)])
    values = values[0]
    return {
        **_head(config, "fig4"),
        "probe": probe,
        "target": PROBE_LABELS[probe],
        "correlators": values[33:].reshape(3, 3).tolist(),
        "rho_raw": values[1:17].reshape(4, 4).tolist(),
        "rho_decoded": values[17:33].reshape(4, 4).tolist(),
        "fidelity": report_row(f"probe {probe} decode fidelity", float(values[0]), float(std[0, 0]), "std"),
    }


# ---------------------------------------------------------------------------
# fig5: concurrence of the masked phase probes vs the cosine prediction.

def _concurrence(counts: np.ndarray) -> np.ndarray:
    """Concurrence from the MLE purity of each (3, 2) count array of a stack."""
    return concurrence_from_purity(estimate.purity_from_counts(counts))


@lru_cache(maxsize=_MODELS_KEPT)
def _fig5_model(noise_p: float, phis: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """fig5's seed-independent arrays, read-only: |psi^T psi| of each phase
    probe psi at `phis` (degrees), the concurrence of its noiseless masked
    image, and the (n, 3, 2) Born table of their path (A) qubits at
    `noise_p`."""
    probes = np.array([phase_probe(phi) for phi in phis]).reshape(-1, 4)
    states = _masked_states(probes, noise_p)[1]
    return _read_only(np.abs((probes * probes).sum(axis=-1)), measure.axis_probs(partial_trace(states, "A")))


def run_fig5(config: ExperimentConfig) -> dict:
    phis = config.phi_grid_deg
    pure, probs = _fig5_model(config.noise_p, tuple(phis))
    keys = [(i,) for i in range(len(phis))]
    counts = _counts(probs, config, "fig5", "fig5.tomo", keys)
    est, std = _estimate(_concurrence, counts, config, "fig5", keys)
    if config.analytic and config.noise_p == 0.0:  # the pure states need no square root of a rounded 1 - purity
        est = pure
    points = [report_row(f"phi = {phi} deg", float(est[i]), float(std[i]), "std",
                         phi_deg=phi, theory_cos=math.cos(math.radians(phi)))
              for i, phi in enumerate(phis)]
    return {**_head(config, "fig5"), "points": points}


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
    if not (_is_integer(n_inputs) and n_inputs >= 1):
        raise ValueError(f"n_inputs must be an integer >= 1, got {n_inputs!r}")
    n_inputs = int(n_inputs)
    rng = next(generators([derive_seed(config.seed, "equiv")]))
    gaps = dict(_fixed_gaps())
    for start in range(0, n_inputs, EQUIV_BLOCK):
        a = rng.normal(size=(min(EQUIV_BLOCK, n_inputs - start), 4))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        gaps["preparation"] = max(gaps["preparation"], _preparation_gap(a))
    max_gap = max(gaps.values())
    return {
        "experiment": "equiv",
        "seed": config.seed,
        "n_inputs": n_inputs,
        "threshold": EQUIV_THRESHOLD,
        "max_gap": max_gap,
        **{f"max_gap_{part}": gap for part, gap in gaps.items()},
        "pass": bool(max_gap < EQUIV_THRESHOLD),
    }


# ---------------------------------------------------------------------------
# Deterministic serialization: floats at 12 significant digits.

def _encode(obj, indent: str, out: list[str]) -> None:
    """Append the JSON text of `obj` at depth `indent` to `out`: floats at 12
    significant digits, everything else as `json.dumps(..., indent=2,
    allow_nan=False)` writes it.  Dict keys must be strings."""
    if isinstance(obj, str):
        out.append(encode_basestring_ascii(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        out.append(repr(float(f"{obj:.12g}")))
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = indent + "  "
        sep = "[\n" + inner
        for value in obj:
            out.append(sep)
            _encode(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = indent + "  "
        sep = "{\n" + inner
        for key, value in obj.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _encode(value, inner, out)
            sep = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def report_json(report: dict) -> str:
    """JSON text of a report under a top-level "schema" key, floats at 12
    significant digits, laid out as `json.dumps(..., indent=2)` lays it out;
    NaN or infinity raises ValueError."""
    out: list[str] = []
    _encode({"schema": REPORT_SCHEMA, **report}, "", out)
    out.append("\n")
    return "".join(out)


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
                _fmt(f["eps_low"]), _fmt(f["eps_high"]), _fmt(f["passed"]), _fmt(report["qsv_tests"]),
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
    elif kind == "equiv":
        writer.writerow(["quantity", "value"])
        for key in ("max_gap", *(k for k in report if k.startswith("max_gap_")), "threshold"):
            writer.writerow([key, _fmt(report[key])])
        writer.writerow(["pass", str(report["pass"]).lower()])
    else:
        raise ValueError(f"no CSV layout for experiment {kind!r}")
    return buf.getvalue()


def write_report(report: dict, out_dir) -> list[Path]:
    """Write <experiment>.json and <experiment>.csv into `out_dir`, made when
    missing, and return their paths.  Both texts are encoded before a file is
    opened, so a refused report writes nothing; each file gets its bytes,
    untranslated, in one write, and a short write raises OSError."""
    data = (report_json(report).encode(), report_csv(report).encode())
    out = Path(out_dir)
    if not out.is_dir():
        out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"{report['experiment']}.{ext}" for ext in ("json", "csv")]
    for path, text in zip(paths, data):
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC | getattr(os, "O_BINARY", 0), 0o666)
        try:
            if (written := os.write(fd, text)) != len(text):
                raise OSError(f"short write to {path}: {written} of {len(text)} bytes")
        finally:
            os.close(fd)
    return paths
