"""Experiment pipelines reproducing the three result figures at desk scale.

Each run is fully determined by an ExperimentConfig, which checks each
field as it is built (`FIELD_CHECKS`, `measure`'s number rules, which the
CLI's flags and config keys share; shots and tests at most 10**18) and
holds it as a plain Python value: every random draw flows
through a sub-seed derived from (config.seed, stream tags), so a rerun
with the same config produces byte-identical report files.  Estimates are
never emitted bare: verification fidelity errors are 95% confidence
half-widths, the others standard deviations in closed form, and each report
row says which via its error_kind field.

Each figure splits into a seed-independent model and its seeded draws.  The
model masks all its probes (`masker.mask_pure`) into one (n, 4, 4) stack
under depolarizing noise, checked by `measure.apply_depolarizing`, and keeps
only what the draws and analytic mode read of it: the Born tables, fig3's
fidelities of the masked probes with their noiseless images, fig4's fidelity
weights and fig5's |psi^T psi| of its phase probes.  It is built and checked
once per process for each value of the config fields it reads
(`_fig3_model`, `_fig4_model`, `_fig5_model`), never for the seed, and its
arrays are read-only, so a run that reads a cached model checks no state.
A figure's seeded draws take one call of each kind (`sample_counts` and
fig3's `qsv_run`), each drawing its whole table from one generator keyed by
one `measure.derive_seed` call on the seed and the call's tags: its family
("fig3.tomo", "fig3.qsv", ...), and for fig4 its probe too, so that each
probe draws a stream of its own.  No estimate draws: fig3's purities and
fig5's concurrences read each qubit's squared Bloch length and its exact
variance (`estimate.squared_bloch_length`), and fig4's fidelity, linear in
the counts, has a closed-form error (`estimate.decode_fidelity`).

Analytic mode is `shots` None: `ExperimentConfig.shots` gives None for it,
the limit of infinitely many shots, and each figure reads its shots once
and passes them on.  A figure draws counts, then estimates from them, and
the two steps meet at plain counts: `_counts` gives the Born tables at
shots None (read as counts of one shot) or the drawn int64 counts, and the
estimators (`estimate.squared_bloch_length`, `estimate.decode_fidelity`)
read only counts and shots, so counts read back from a file estimate as
drawn ones do.  Only fig3's verification reads the mode itself:
`estimate.qsv_run` draws pass counts and `estimate.qsv_interval` reads
them, while analytic mode reads 1 - F with no width.  fig5 at p = 0 reads the concurrence of each
pure masked probe M psi as |psi^T psi|, which the masker's magic-basis
identity proves (`masker.masker_matrix`).

A report states each fact of its run once, in its head: its name
(`experiment`: "fig3", "fig4", "fig5" or "equiv", also the stem of its
files), the seed and, for a figure, `noise_p`, the facts of its draws (fig3's
`qsv_tests` and `shots_per_setting`, each None in analytic mode, which draws
nothing) and `analytic`.  A row (`report_row`) holds only its estimate and
what belongs to that estimate alone.

A report is written as JSON with floats at 12 significant digits and as a
CSV of that JSON's leaves: the header `path,value`, then one row per scalar
leaf in the JSON's order, `schema` first, its path the keys and list indices
joined by "." (`probes.0.fidelity.estimate`) and its cell the JSON's text of
a number or bool, a string's own text or empty for null.  One walk rounds
the report and writes both texts (`report_texts`), so the CSV has no layout
of its own.  `write_report` encodes both texts before it opens a file, so a
refused report leaves nothing behind, and writes each one's bytes as they
are, with no platform newline translation.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import lru_cache
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import estimate, measure, optics, walk
from .masker import mask_pure
from .measure import _checked, _count, _integer, _is_integer, _is_number, _probability, derive_seed, generator
from .qcore import fidelity_with_pure, partial_trace

# Version of the JSON reports, bumped whenever the layout or the numbers that a
# fixed config produces change.
REPORT_SCHEMA = 24

DEFAULT_SEED = 20404
DEFAULT_QSV_TESTS = 5000
DEFAULT_NOISE_P = 0.01
DEFAULT_PHI_GRID = (0.0, 15.0, 30.0, 45.0, 60.0, 75.0, 90.0)
DEFAULT_SHOTS = {"fig3": 4000, "fig4": 4000, "fig5": 10000}
DEFAULT_PROBE = 4
DEFAULT_N_INPUTS = 100
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


# The most random targets `run_equivalence` checks: unlike a count of shots or
# tests, each costs time, about 1.5 us on a 2-core host, so 10**9 take about
# 25 minutes.
MAX_N_INPUTS = 10**9


def _n_inputs(v) -> int:
    """`run_equivalence`'s count of random targets, the one rule of `equiv --n-inputs` too."""
    return _count(v, MAX_N_INPUTS)


def _phases(v) -> tuple[float, ...]:
    try:  # an integer beyond the floats is refused as not finite
        phis = tuple(map(float, v)) if isinstance(v, (list, tuple)) and all(map(_is_number, v)) else ()
    except OverflowError:
        phis = ()
    if not (phis and all(map(math.isfinite, phis))):
        raise ValueError(f"must be a non-empty list of finite numbers, got {v!r}")
    return phis


def _flag(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"must be true or false, got {v!r}")
    return v


# Each config field's check: the plain Python value the config holds, or ValueError("must ...").
FIELD_CHECKS = {
    "seed": _integer,
    "shots_per_setting": lambda v: None if v is None else _count(v),  # None: the experiment's default
    "qsv_tests": _count,
    "noise_p": _probability,
    "phi_grid_deg": _phases,
    "analytic": _flag,
}


@dataclass(frozen=True)
class ExperimentConfig:
    """A run's settings, each checked by `FIELD_CHECKS` and held as a plain Python value."""
    seed: int = DEFAULT_SEED
    shots_per_setting: int | None = None
    qsv_tests: int = DEFAULT_QSV_TESTS
    noise_p: float = DEFAULT_NOISE_P
    phi_grid_deg: tuple[float, ...] = DEFAULT_PHI_GRID
    analytic: bool = False

    def __post_init__(self) -> None:
        for field, check in FIELD_CHECKS.items():
            object.__setattr__(self, field, _checked(field, check, getattr(self, field)))

    def shots(self, experiment: str) -> int | None:
        """Shots per setting of `experiment`'s draws; None in analytic mode, which draws nothing."""
        if self.analytic:
            return None
        return DEFAULT_SHOTS[experiment] if self.shots_per_setting is None else self.shots_per_setting


def report_row(target: str, estimate: float, error: float, error_kind: str, **extra) -> dict:
    """One labeled estimate, its error a 95% CI half-width ("ci95") or a standard deviation ("std")."""
    if error_kind not in ("ci95", "std"):
        raise ValueError(f"error_kind must be 'ci95' or 'std', got {error_kind!r}")
    return {"target": target, "estimate": estimate, "error": error, "error_kind": error_kind, **extra}


def _masked_states(probes: np.ndarray, noise_p: float) -> tuple[np.ndarray, np.ndarray]:
    """The masked probes of an (n, 4) stack as (n, 4) vectors, and their
    (n, 4, 4) densities under depolarizing noise, checked once by
    `measure.apply_depolarizing`; at p = 0 the pure densities (their
    Hermitian part), with no repair."""
    vecs = mask_pure(probes)
    return vecs, measure.apply_depolarizing(vecs[:, :, None] * vecs[:, None, :].conj(), noise_p)


# Models kept per figure: a few KB each, bounded so that a loop over noise
# levels or phase grids cannot grow without limit.
_MODELS_KEPT = 8


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


def _head(config: ExperimentConfig, experiment: str, **drawn) -> dict:
    """A figure report's head: name, seed, noise, the facts of its draws in the order given (each None in
    analytic mode) and `analytic`."""
    return {"experiment": experiment, "seed": config.seed, "noise_p": config.noise_p, **drawn,
            "analytic": config.analytic}


def _counts(probs: np.ndarray, shots: int | None, seed: int, *tags) -> np.ndarray:
    """The count tables of a stack of qubit (..., 3, 2) or pair (..., 9, 4)
    Born tables.  At `shots` None (analytic mode) they are `probs` itself,
    the tables read as counts of one shot.  Otherwise they are drawn as int64
    counts of `shots` shots in one `sample_counts` call, from the sub-seed of
    `seed` tagged `tags`.
    """
    if shots is None:
        return probs
    return measure.sample_counts(probs, shots, derive_seed(seed, *tags))


# ---------------------------------------------------------------------------
# fig3: verification fidelity + reduced-state purity for the four probes.

PROBES = (1, 2, 3, 4)


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
    return _read_only(measure.axis_probs(reduced), fidelity_with_pure(rho, ideal))


def run_fig3(config: ExperimentConfig) -> dict:
    """Each probe's verification fidelity, and its path and polarization qubits' purities (1 + Q)/2 from their
    squared Bloch lengths Q, unclipped, with their average, whose error is sqrt(Var Q_A + Var Q_B) / 4."""
    probs, fidelities = _fig3_model(config.noise_p)
    shots, tests = config.shots("fig3"), config.qsv_tests
    # Each probe's (eps_hat, error, eps_low, eps_high, passed); analytic mode draws no pass counts.
    if config.analytic:
        tests, verdicts = None, [(e, 0.0, e, e, None) for e in (1.0 - fidelities).tolist()]
    else:
        passes = estimate.qsv_run(fidelities, tests, derive_seed(config.seed, "fig3.qsv"))
        verdicts = [(*estimate.qsv_interval(passed, tests), passed) for passed in passes]
    q, var = estimate.squared_bloch_length(_counts(probs, shots, config.seed, "fig3.tomo"), shots)
    pur = 0.5 * (1.0 + q)
    rows = [{"probe": idx, "target": PROBE_LABELS[idx],
             "fidelity": report_row(f"probe {idx} fidelity", 1.0 - eps, err, "ci95",
                                    eps_hat=eps, eps_low=low, eps_high=high, passed=passed),
             "purity": report_row(f"probe {idx} avg purity", avg, spread, "std",
                                  path_purity=pur_a, pol_purity=pur_b)}
            for idx, (eps, err, low, high, passed), (pur_a, pur_b), avg, spread
            in zip(PROBES, verdicts, pur.tolist(), pur.mean(axis=1).tolist(), np.sqrt(var.sum(axis=1) / 16.0).tolist())]
    return {**_head(config, "fig3", qsv_tests=tests, shots_per_setting=shots), "probes": rows}


# ---------------------------------------------------------------------------
# fig4: correlation decoding of the masked fourth probe.

@lru_cache(maxsize=_MODELS_KEPT)
def _fig4_model(noise_p: float, probe: int) -> tuple[np.ndarray, np.ndarray]:
    """fig4's read-only model: the decode weights of its probe (`estimate.decode_weights`) and the (9, 4) Born
    table of the masked probe at `noise_p`."""
    a = probe_vector(probe)
    return _read_only(estimate.decode_weights(a), measure.pair_probs(_masked_states(a[None], noise_p)[1][0]))


def run_fig4(config: ExperimentConfig, probe: int = DEFAULT_PROBE) -> dict:
    """The probe's correlators T, their raw and projected decodes and the raw decode's fidelity with the
    probe, unclipped, with its standard error (`estimate.decode_fidelity`)."""
    probe = _probe_index(probe)
    weights, probs = _fig4_model(config.noise_p, probe)
    shots = config.shots("fig4")
    counts = _counts(probs, shots, config.seed, "fig4", probe)
    t = measure.correlators(counts).reshape(3, 3)
    rho_raw, rho_decoded = estimate.decode_real_state(t)
    return {
        **_head(config, "fig4", shots_per_setting=shots),
        "probe": probe,
        "target": PROBE_LABELS[probe],
        "correlators": t.tolist(),
        "rho_raw": rho_raw.tolist(),
        "rho_decoded": rho_decoded.tolist(),
        "fidelity": report_row(f"probe {probe} decode fidelity", *estimate.decode_fidelity(counts, shots, weights),
                               "std"),
    }


# ---------------------------------------------------------------------------
# fig5: concurrence of the masked phase probes vs the cosine prediction.

@lru_cache(maxsize=_MODELS_KEPT)
def _fig5_model(noise_p: float, phis: tuple[float, ...]) -> tuple[np.ndarray, np.ndarray]:
    """fig5's seed-independent arrays, read-only: |psi^T psi| of each phase
    probe psi at `phis` (degrees), the concurrence of its noiseless masked
    image, and the (n, 3, 2) Born table of their path (A) qubits at
    `noise_p`."""
    probes = np.array([phase_probe(phi) for phi in phis])
    states = _masked_states(probes, noise_p)[1]
    return _read_only(np.abs((probes * probes).sum(axis=-1)), measure.axis_probs(partial_trace(states, "A")))


def run_fig5(config: ExperimentConfig) -> dict:
    """Each phase probe's concurrence sqrt(1 - Q) from its path qubit's squared Bloch length Q, clipped to [0, 1],
    with the delta method's error sd(Q) / (2 sqrt(max(1 - Q, sd(Q)))): the floor keeps it finite where Q reads 1
    or more, and it is 0 only where sd(Q) is."""
    phis = config.phi_grid_deg
    pure, probs = _fig5_model(config.noise_p, phis)
    shots = config.shots("fig5")
    q, var = estimate.squared_bloch_length(_counts(probs, shots, config.seed, "fig5.tomo"), shots)
    est, sd = np.sqrt(np.clip(1.0 - q, 0.0, 1.0)), np.sqrt(var)
    floor = np.maximum(1.0 - q, sd)
    std = np.divide(sd, 2.0 * np.sqrt(floor), out=np.zeros_like(sd), where=floor > 0.0)
    if shots is None and config.noise_p == 0.0:  # the pure states need no square root of a rounded 1 - Q
        est = pure
    points = [report_row(f"phi = {phi} deg", float(est[i]), float(std[i]), "std",
                         phi_deg=phi, theory_cos=math.cos(math.radians(phi)))
              for i, phi in enumerate(phis)]
    return {**_head(config, "fig5", shots_per_setting=shots), "points": points}


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
    eye, (j, k) = np.eye(4), np.triu_indices(4, 1)
    masked = mask_pure(eye)
    states = np.concatenate([eye, (eye[j] + eye[k]) / np.sqrt(2), (eye[j] + 1j * eye[k]) / np.sqrt(2)])
    want = measure.pair_probs(states[:, :, None] * states[:, None, :].conj())[..., optics.SPCM_OUTCOMES]
    got = [optics.simulate_measurement(states, optics.pauli_meas_setting(*pair)) for pair in measure.PAIRS]
    return (("masker_walk", float(np.abs(walk.run_masking_walk(eye) - masked).max())),
            ("masker_optics", float(np.abs(optics.simulate_masking(eye) - optics.MASKING_PHASE * masked).max())),
            ("preparation", _preparation_gap(eye)),
            ("measurement", float(np.abs(np.stack(got, axis=1) - want).max())))


def run_equivalence(config: ExperimentConfig, n_inputs: int = DEFAULT_N_INPUTS) -> dict:
    """The linear parts' gaps, and the preparation's over `n_inputs` random
    real targets, at most `MAX_N_INPUTS`."""
    n_inputs = _checked("n_inputs", _n_inputs, n_inputs)
    rng = generator(derive_seed(config.seed, "equiv"))
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
# Deterministic serialization: the JSON text and its CSV of leaves, in one walk.

def _csv_cell(text: str) -> str:
    """`text` as one CSV cell: quoted, with its quotes doubled, when it holds a
    comma, a quote or a line break, which `csv.reader` reads back as `text`."""
    if "," in text or '"' in text or "\n" in text or "\r" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _encode(obj, indent: str, path: str | None, out: list[str], rows: list[str]) -> None:
    """Append the JSON text of `obj` at depth `indent` to `out`, and to `rows`
    the CSV row `path,cell` of each scalar leaf in it, its path the keys and
    list indices from the top (`path` None) joined by ".".  Floats are
    written at 12 significant digits, everything else as `json.dumps(...,
    indent=2, allow_nan=False)` writes it; a number's or a bool's cell is its
    JSON text, a string's its own text and null's empty.  Dict keys must be
    strings."""
    if isinstance(obj, str):
        text, cell = encode_basestring_ascii(obj), _csv_cell(obj)
    elif obj is None:
        text, cell = "null", ""
    elif obj is True or obj is False:
        text = cell = "true" if obj else "false"
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"Out of range float values are not JSON compliant: {obj!r}")
        text = cell = repr(float(f"{obj:.12g}"))
    elif isinstance(obj, int):
        text = cell = int.__repr__(obj)
    elif isinstance(obj, (list, tuple, dict)):
        keyed = isinstance(obj, dict)
        brackets = "{}" if keyed else "[]"
        if not obj:
            out.append(brackets)
            return
        inner, prefix = indent + "  ", "" if path is None else path + "."
        sep = brackets[0] + "\n" + inner
        for key, value in obj.items() if keyed else zip(map(str, range(len(obj))), obj):
            if keyed and not isinstance(key, str):
                raise TypeError(f"keys must be str, not {key.__class__.__name__}")
            out.append(sep + encode_basestring_ascii(key) + ": " if keyed else sep)
            _encode(value, inner, prefix + key, out, rows)
            sep = ",\n" + inner
        out.append("\n" + indent + brackets[1])
        return
    else:
        raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")
    out.append(text)
    rows.append(f"{_csv_cell(path)},{cell}\n")


def report_texts(report: dict) -> tuple[str, str]:
    """The JSON and the CSV text of a report under a top-level "schema" key,
    encoded in one walk.  The JSON has floats at 12 significant digits, laid
    out as `json.dumps(..., indent=2)` lays it out; the CSV has the header
    `path,value` and a row for each scalar leaf of the JSON, in its order
    (`_encode`).  NaN or infinity raises ValueError."""
    out: list[str] = []
    rows = ["path,value\n"]
    _encode({"schema": REPORT_SCHEMA, **report}, "", None, out, rows)
    out.append("\n")
    return "".join(out), "".join(rows)


def write_report(report: dict, out_dir) -> list[Path]:
    """Write <experiment>.json and <experiment>.csv into `out_dir`, made when
    missing, and return their paths.  Both texts are encoded before a file is
    opened, so a refused report writes nothing; each file gets its bytes,
    untranslated, in one write, and a short write raises OSError."""
    data = [text.encode() for text in report_texts(report)]
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
