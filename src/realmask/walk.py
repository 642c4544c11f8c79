"""Discrete-time coined quantum walk with position-dependent coins.

The walker lives on a line; the coin qubit picks the direction of the
conditional translation |x,0> -> |x-1,0>, |x,1> -> |x+1,1>.  A schedule is an
ordered list of layers, each either a coin layer (one 2x2 unitary per
position, identity elsewhere) or the translation.  The shipped default
schedule masks a ququart whose amplitudes sit on the odd positions
-3,-1,1,3 (coin |1>) into a hybrid two-qubit state on positions +/-1.

This module also holds the dense engine that the optical table reuses: a
complex (..., sites, 2) array whose leading axes index a batch of inputs, and
two primitives, a local 2x2 on some or all sites and a qubit-conditional
shift (s0, s1).  Coin layers and the translation lower onto these here;
waveplates and beam displacers lower onto the same two in `optics`.

Coin placements for the default schedule: the four-step geometry is pinned by
requiring that the composite map equal the masker column-for-column under the
position identification +1 -> |0>_A, -1 -> |1>_A (coin = qubit B), including
the overall -i phase.  The closing coin layer {Z at -1, XZ at +1} after the
last translation is what makes the identity exact under this translation
convention; it is the walk-level counterpart of the 0-degree half-wave plates
in the optical realization.

Schedules are plain data and can be saved to / loaded from a JSON document
(see schedule_schema.json); matrices are stored as 8 reals (row-major,
re/im interleaved) and round-trip bit-exactly.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from types import MappingProxyType
from typing import Collection, Iterable, Mapping, Union

import numpy as np

from .qcore import EPS_EXACT, PAULI_X, PAULI_Z, require_unitary

COIN_X = PAULI_X
COIN_Z = PAULI_Z
COIN_C1 = np.array([[1j, 1], [-1j, 1]], dtype=complex) / np.sqrt(2)
COIN_C2 = np.array([[1, 1j], [-1, 1j]], dtype=complex) / np.sqrt(2)
COIN_XZ = PAULI_X @ PAULI_Z


class ExtractionError(ValueError):
    """State has support outside the extractable sites +/-1."""


@dataclass(frozen=True, eq=False)
class RailState:
    """`amps[..., i, q]` is the amplitude of qubit q on site lo + i (zero off
    the window); leading axes index a batch.  The walk reads (site, qubit) as
    (position, coin); the optical table reads it as (rail, polarization) with
    H = 0, V = 1.
    """

    lo: int
    amps: np.ndarray

    @staticmethod
    def of(amplitudes: Mapping[tuple[int, int], complex]) -> "RailState":
        """A single normalized state from {(site, qubit): amplitude}."""
        lo = min(x for x, _c in amplitudes)
        amps = np.zeros((max(x for x, _c in amplitudes) - lo + 1, 2), dtype=complex)
        for (x, c), a in amplitudes.items():
            if c not in (0, 1):
                raise ValueError(f"qubit index must be 0 or 1, got {c}")
            amps[x - lo, c] = a
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > EPS_EXACT:
            raise ValueError(f"state norm {norm} deviates from 1 by more than {EPS_EXACT}")
        return RailState(lo, amps)

    def amplitude(self, site: int, qubit: int) -> np.ndarray:
        """Amplitudes of `qubit` on `site`, one per batch item."""
        i = site - self.lo
        if 0 <= i < self.amps.shape[-2]:
            return self.amps[..., i, qubit]
        return np.zeros(self.amps.shape[:-2], dtype=complex)

    def max_outside(self, sites: Collection[int], qubits: Collection[int] = (0, 1)) -> float:
        """Largest |amplitude| over the batch anywhere but on `qubits` of `sites`."""
        on = np.zeros(self.amps.shape[-2:], dtype=bool)
        for x in sites:
            if 0 <= x - self.lo < len(on):
                on[x - self.lo, list(qubits)] = True
        return float(np.abs(self.amps[..., ~on]).max(initial=0.0))


def apply_local(state: RailState, u: np.ndarray, sites: Collection[int] | None = None) -> RailState:
    """Multiply the qubit spinor at each listed site (every site if None) by `u`, a
    (2, 2) matrix or a (..., 2, 2) stack that broadcasts against the batch axes."""
    n = state.amps.shape[-2]
    idx = slice(None) if sites is None else [x - state.lo for x in sorted(sites) if 0 <= x - state.lo < n]
    u = np.asarray(u)[..., None, :, :]
    a = state.amps[..., idx, :]
    new = u[..., 0] * a[..., 0, None] + u[..., 1] * a[..., 1, None]
    out = np.empty(new.shape[:-2] + state.amps.shape[-2:], dtype=complex)
    out[...] = state.amps
    out[..., idx, :] = new
    return RailState(state.lo, out)


def shift(state: RailState, s0: int, s1: int) -> RailState:
    """Move qubit-0 amplitudes by s0 sites and qubit-1 amplitudes by s1 sites.

    The window grows to hold both shifted copies, so no amplitude is dropped
    or merged and the norm is preserved exactly.
    """
    lo, hi = min(s0, s1, 0), max(s0, s1, 0)
    n = state.amps.shape[-2]
    out = np.zeros(state.amps.shape[:-2] + (n + hi - lo, 2), dtype=complex)
    out[..., s0 - lo:s0 - lo + n, 0] = state.amps[..., 0]
    out[..., s1 - lo:s1 - lo + n, 1] = state.amps[..., 1]
    return RailState(state.lo + lo, out)


def run(state: RailState, steps: Iterable) -> RailState:
    """Apply walk layers or optical elements in order; each lowers itself onto
    `apply_local` and `shift` through its `apply` method."""
    for step in steps:
        state = step.apply(state)
    return state


@dataclass(frozen=True, eq=False)
class CoinLayer:
    """Position-dependent coin operators (read-only); other positions get identity."""

    coins: Mapping[int, np.ndarray]

    def __init__(self, coins: Mapping[int, np.ndarray]):
        checked = {}
        for x, u in coins.items():
            arr = require_unitary(u, what=f"coin at position {x}")
            if arr.shape != (2, 2):
                raise ValueError(f"coin at position {x} must be 2x2")
            arr = arr.copy()
            arr.setflags(write=False)
            checked[int(x)] = arr
        object.__setattr__(self, "coins", MappingProxyType(checked))

    def apply(self, state: RailState) -> RailState:
        # Coins sit on distinct positions, so one local pass per position
        # gives the same amplitudes as a single pass over the whole layer.
        for x, u in self.coins.items():
            state = apply_local(state, u, (x,))
        return state


@dataclass(frozen=True)
class Translate:
    """Marker layer for the conditional translation."""

    def apply(self, state: RailState) -> RailState:
        return shift(state, -1, +1)


TRANSLATE = Translate()

Layer = Union[CoinLayer, Translate]


@dataclass(frozen=True)
class WalkSchedule:
    name: str
    layers: tuple[Layer, ...]

    def __post_init__(self):
        for layer in self.layers:
            if not isinstance(layer, (CoinLayer, Translate)):
                raise TypeError(f"layer must be CoinLayer or Translate, got {type(layer)}")
        object.__setattr__(self, "layers", tuple(self.layers))

    @property
    def steps(self) -> int:
        """Number of translation layers."""
        return sum(1 for layer in self.layers if isinstance(layer, Translate))


def run_schedule(state: RailState, schedule: WalkSchedule) -> RailState:
    return run(state, schedule.layers)


def encode_input(a) -> RailState:
    """Ququart amplitudes (..., 4) onto the odd positions, coin |1>:
    a0|-3,1> + a1|-1,1> + a2|1,1> + a3|3,1>."""
    vec = np.asarray(a, dtype=complex)
    if vec.shape[-1:] != (4,):
        raise ValueError("input must have 4 amplitudes")
    if np.abs(np.linalg.norm(vec, axis=-1) - 1.0).max() > EPS_EXACT:
        raise ValueError("input amplitudes must be normalized")
    amps = np.zeros(vec.shape[:-1] + (7, 2), dtype=complex)
    amps[..., ::2, 1] = vec
    return RailState(-3, amps)


@lru_cache(maxsize=None)
def masking_schedule() -> WalkSchedule:
    """Default schedule realizing the ququart masker on positions -3..3 (built once)."""
    return WalkSchedule(
        name="mask-real-ququart",
        layers=(
            CoinLayer({-1: COIN_X, 3: COIN_X}),
            TRANSLATE,
            CoinLayer({-2: COIN_C2, 2: COIN_C1}),
            TRANSLATE,
            CoinLayer({-3: COIN_X, 3: COIN_X}),
            TRANSLATE,
            TRANSLATE,
            CoinLayer({-1: COIN_Z, 1: COIN_XZ}),
        ),
    )


def extract_two_qubit(state: RailState, *, tol: float = EPS_EXACT) -> np.ndarray:
    """Read sites +/-1 as qubit A (+1 -> |0>, -1 -> |1>); the site's qubit is qubit B.
    Returns normalized (..., 4) amplitudes."""
    stray = state.max_outside((1, -1))
    if stray > tol:
        raise ExtractionError(f"support outside sites +/-1 with amplitude {stray:.3e}")
    vec = np.stack([state.amplitude(x, c) for x in (1, -1) for c in (0, 1)], axis=-1)
    return vec / np.linalg.norm(vec, axis=-1, keepdims=True)


def embed_two_qubit(psi) -> RailState:
    """Inverse of extract_two_qubit: put (..., 4) two-qubit amplitudes onto sites +/-1."""
    vec = np.asarray(psi, dtype=complex)
    if vec.shape[-1:] != (4,):
        raise ValueError("expected a two-qubit state")
    return RailState(-1, np.stack([vec[..., 2:], np.zeros_like(vec[..., :2]), vec[..., :2]], axis=-2))


def run_masking_walk(a) -> np.ndarray:
    """encode -> default schedule -> extract, as (..., 4) two-qubit amplitudes."""
    return extract_two_qubit(run_schedule(encode_input(a), masking_schedule()))


# ---------------------------------------------------------------------------
# Schedule (de)serialization.  Field names are fixed by schedule_schema.json.

def _matrix_to_reals(u: np.ndarray) -> list[float]:
    flat = np.asarray(u, dtype=complex).reshape(-1)
    out: list[float] = []
    for z in flat:
        out.extend((float(z.real), float(z.imag)))
    return out


def _matrix_from_reals(values) -> np.ndarray:
    vals = list(values)
    if len(vals) != 8:
        raise ValueError(f"coin matrix needs 8 reals, got {len(vals)}")
    z = [complex(vals[2 * i], vals[2 * i + 1]) for i in range(4)]
    return np.array([[z[0], z[1]], [z[2], z[3]]], dtype=complex)


def schedule_to_dict(schedule: WalkSchedule) -> dict:
    layers = []
    for layer in schedule.layers:
        if isinstance(layer, Translate):
            layers.append({"type": "translate"})
        else:
            coins = [
                {"position": x, "matrix": _matrix_to_reals(u)}
                for x, u in sorted(layer.coins.items())
            ]
            layers.append({"type": "coins", "coins": coins})
    return {"name": schedule.name, "layers": layers}


def schedule_from_dict(doc: dict) -> WalkSchedule:
    if not isinstance(doc, dict) or not isinstance(doc.get("layers"), list):
        raise ValueError("schedule document must be an object with a 'layers' list")
    layers: list[Layer] = []
    for i, entry in enumerate(doc["layers"]):
        try:
            if entry["type"] == "translate":
                layers.append(TRANSLATE)
            elif entry["type"] == "coins":
                coins = {int(c["position"]): _matrix_from_reals(c["matrix"]) for c in entry["coins"]}
                layers.append(CoinLayer(coins))
            else:
                raise ValueError(f"unknown type {entry['type']!r}")
        except KeyError as exc:
            raise ValueError(f"layer {i}: missing key {exc}") from None
        except (TypeError, ValueError) as exc:
            raise ValueError(f"layer {i}: {exc}") from None
    return WalkSchedule(name=str(doc.get("name", "unnamed")), layers=tuple(layers))


def save_schedule(schedule: WalkSchedule, path) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2) + "\n")


def load_schedule(path) -> WalkSchedule:
    return schedule_from_dict(json.loads(Path(path).read_text()))
