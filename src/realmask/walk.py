"""Discrete-time coined quantum walk with position-dependent coins.

The walker lives on a line; the coin qubit picks the direction of the
conditional translation |x,0> -> |x-1,0>, |x,1> -> |x+1,1>.  A schedule is an
ordered list of layers, each either a coin layer (one 2x2 unitary per
position, identity elsewhere) or the translation.  The shipped default
schedule masks a ququart whose amplitudes sit on the odd positions
-3,-1,1,3 (coin |1>) into a hybrid two-qubit state on positions +/-1.

This module also holds the sparse engine that the optical table reuses: a
state {(site, qubit): amplitude} and two primitives, a local 2x2 on some or
all sites and a qubit-conditional shift (s0, s1).  Coin layers and the
translation lower onto these here; waveplates and beam displacers lower onto
the same two in `optics`.

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

from .qcore import (
    EPS_EXACT,
    PAULI_X,
    PAULI_Z,
    StateVector,
    require_unitary,
)

COIN_X = PAULI_X
COIN_Z = PAULI_Z
COIN_C1 = np.array([[1j, 1], [-1j, 1]], dtype=complex) / np.sqrt(2)
COIN_C2 = np.array([[1, 1j], [-1, 1j]], dtype=complex) / np.sqrt(2)
COIN_XZ = PAULI_X @ PAULI_Z


class ExtractionError(ValueError):
    """State has support outside the extractable sites +/-1."""


@dataclass(frozen=True, eq=False)
class RailState:
    """Sparse site/qubit amplitudes: {(site, qubit): amplitude}.

    The walk reads (site, qubit) as (position, coin); the optical table reads
    it as (rail, polarization) with H = 0, V = 1.
    """

    amplitudes: Mapping[tuple[int, int], complex]

    def __init__(self, amplitudes: Mapping[tuple[int, int], complex], *, _skip_check: bool = False):
        amps = {}
        for (x, c), a in amplitudes.items():
            if c not in (0, 1):
                raise ValueError(f"qubit index must be 0 or 1, got {c}")
            if a != 0:
                amps[(int(x), int(c))] = complex(a)
        if not _skip_check:
            norm = np.sqrt(sum(abs(a) ** 2 for a in amps.values()))
            if abs(norm - 1.0) > EPS_EXACT:
                raise ValueError(f"state norm {norm} deviates from 1 by more than {EPS_EXACT}")
        object.__setattr__(self, "amplitudes", amps)

    def norm(self) -> float:
        return float(np.sqrt(sum(abs(a) ** 2 for a in self.amplitudes.values())))

    def sites(self) -> set[int]:
        return {x for (x, _c) in self.amplitudes}

    def amplitude(self, site: int, qubit: int) -> complex:
        return self.amplitudes.get((site, qubit), 0j)


def apply_local(state: RailState, u: np.ndarray, sites: Collection[int] | None = None) -> RailState:
    """Multiply the qubit spinor at each listed site (every site if None) by `u`."""
    out: dict[tuple[int, int], complex] = {}
    for (x, c), a in state.amplitudes.items():
        if sites is not None and x not in sites:
            out[(x, c)] = out.get((x, c), 0j) + a
            continue
        for c2 in (0, 1):
            amp = u[c2, c] * a
            if amp != 0:
                out[(x, c2)] = out.get((x, c2), 0j) + amp
    return RailState(out, _skip_check=True)


def shift(state: RailState, s0: int, s1: int) -> RailState:
    """Move qubit-0 amplitudes by s0 sites and qubit-1 amplitudes by s1 sites.

    The map is injective on (site, qubit), so amplitudes never merge and the
    norm is preserved exactly.
    """
    return RailState(
        {(x + (s1 if c else s0), c): a for (x, c), a in state.amplitudes.items()},
        _skip_check=True,
    )


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
    """Ququart amplitudes onto the odd positions, coin |1>:
    a0|-3,1> + a1|-1,1> + a2|1,1> + a3|3,1>."""
    vec = np.asarray(a, dtype=complex)
    if vec.shape != (4,):
        raise ValueError("input must have 4 amplitudes")
    if abs(np.linalg.norm(vec) - 1.0) > EPS_EXACT:
        raise ValueError("input amplitudes must be normalized")
    return RailState({(-3, 1): vec[0], (-1, 1): vec[1], (1, 1): vec[2], (3, 1): vec[3]})


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


def extract_two_qubit(state: RailState, *, tol: float = EPS_EXACT) -> StateVector:
    """Read sites +/-1 as qubit A (+1 -> |0>, -1 -> |1>); the site's qubit is qubit B."""
    stray = max(
        (abs(a) for (x, _c), a in state.amplitudes.items() if x not in (1, -1)),
        default=0.0,
    )
    if stray > tol:
        raise ExtractionError(f"support outside sites +/-1 with amplitude {stray:.3e}")
    vec = np.zeros(4, dtype=complex)
    for (x, c), a in state.amplitudes.items():
        if x in (1, -1):
            qa = 0 if x == 1 else 1
            vec[2 * qa + c] = a
    return StateVector.normalized(vec)


def embed_two_qubit(psi: StateVector) -> RailState:
    """Inverse of extract_two_qubit: put a two-qubit state onto sites +/-1."""
    if psi.dim != 4:
        raise ValueError("expected a two-qubit state")
    amps = {}
    for qa in (0, 1):
        for c in (0, 1):
            a = psi.amplitudes[2 * qa + c]
            if a != 0:
                amps[(1 if qa == 0 else -1, c)] = a
    return RailState(amps)


def run_masking_walk(a) -> StateVector:
    """encode -> default schedule -> extract, as a two-qubit state."""
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
    if not isinstance(doc, dict) or "layers" not in doc:
        raise ValueError("schedule document must be an object with a 'layers' list")
    layers: list[Layer] = []
    for i, entry in enumerate(doc["layers"]):
        kind = entry.get("type")
        if kind == "translate":
            layers.append(TRANSLATE)
        elif kind == "coins":
            coins = {int(c["position"]): _matrix_from_reals(c["matrix"]) for c in entry["coins"]}
            layers.append(CoinLayer(coins))
        else:
            raise ValueError(f"layer {i}: unknown type {kind!r}")
    return WalkSchedule(name=str(doc.get("name", "unnamed")), layers=tuple(layers))


def save_schedule(schedule: WalkSchedule, path) -> None:
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2) + "\n")


def load_schedule(path) -> WalkSchedule:
    return schedule_from_dict(json.loads(Path(path).read_text()))
