"""Discrete-time coined quantum walk with position-dependent coins.

The walker lives on a line; the coin qubit picks the direction of the
conditional translation |x,0> -> |x-1,0>, |x,1> -> |x+1,1>.  A schedule is an
ordered tuple of two kinds of step: `Local(u, sites)`, a 2x2 coin on the
listed positions (identity elsewhere), and `Shift(s0, s1)`, a
qubit-conditional shift, of which the translation is `TRANSLATE =
Shift(-1, +1)`.  The shipped default schedule masks a ququart whose
amplitudes sit on the odd positions -3,-1,1,3 (coin |1>) into a hybrid
two-qubit state on positions +/-1.

The same steps run the optical table: `optics` writes its waveplates as
`Local` steps and its beam displacers as `Shift` steps.  Each step's `apply`
acts on a `RailState`, a complex (..., sites, 2) array whose leading axes
index a batch of inputs.

Coin placements for the default schedule: the four-step geometry is pinned by
requiring that the composite map equal the masker column-for-column under the
position identification +1 -> |0>_A, -1 -> |1>_A (coin = qubit B), including
the overall -i phase.  The closing coins {Z at -1, XZ at +1} after the last
translation are what make the identity exact under this translation
convention; they are the walk-level counterpart of the 0-degree half-wave
plates in the optical realization.
"""
from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection, Iterable

import numpy as np

from .qcore import EPS_EXACT, PAULI_X, PAULI_Z, checked_state

COIN_X = PAULI_X
COIN_Z = PAULI_Z
COIN_C1 = np.array([[1j, 1], [-1j, 1]], dtype=complex) / np.sqrt(2)
COIN_C2 = np.array([[1, 1j], [-1, 1j]], dtype=complex) / np.sqrt(2)
COIN_XZ = PAULI_X @ PAULI_Z
for _coin in (COIN_C1, COIN_C2, COIN_XZ):
    _coin.setflags(write=False)


@dataclass(frozen=True, eq=False)
class RailState:
    """`amps[..., i, q]` is the amplitude of qubit q on site lo + i (zero off
    the window); leading axes index a batch.  The walk reads (site, qubit) as
    (position, coin); the optical table reads it as (rail, polarization) with
    H = 0, V = 1.
    """

    lo: int
    amps: np.ndarray

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


def run(state: RailState, steps: Iterable[Local | Shift]) -> RailState:
    """Apply `Local` and `Shift` steps in order."""
    for step in steps:
        state = step.apply(state)
    return state


@dataclass(frozen=True, eq=False)
class Local:
    """The 2x2 matrix `u`, or a (..., 2, 2) stack with one matrix per batch
    item, on the qubit of each listed site; every site when `sites` is None.

    `u` is held as a read-only view and `sites` as a frozenset of ints: a
    site that is not an integer raises rather than being truncated onto
    another site.
    """

    u: np.ndarray
    sites: frozenset[int] | None = None

    def __post_init__(self):
        u = np.asarray(self.u).view()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)
        if self.sites is not None:
            object.__setattr__(self, "sites", frozenset(map(operator.index, self.sites)))

    def apply(self, state: RailState) -> RailState:
        """`state` with `u` on the qubit of each listed site inside its window."""
        n = state.amps.shape[-2]
        idx = (slice(None) if self.sites is None
               else [x - state.lo for x in sorted(self.sites) if 0 <= x - state.lo < n])
        u = self.u[..., None, :, :]
        a = state.amps[..., idx, :]
        new = u[..., 0] * a[..., 0, None] + u[..., 1] * a[..., 1, None]
        out = np.empty(new.shape[:-2] + state.amps.shape[-2:], dtype=complex)
        out[...] = state.amps
        out[..., idx, :] = new
        return RailState(state.lo, out)


@dataclass(frozen=True)
class Shift:
    """Qubit-0 amplitudes move by `s0` sites and qubit-1 amplitudes by `s1`."""

    s0: int
    s1: int

    def apply(self, state: RailState) -> RailState:
        """The window grows to hold both shifted copies, so no amplitude is
        dropped or merged and the norm is preserved exactly."""
        s0, s1 = self.s0, self.s1
        lo, hi = min(s0, s1, 0), max(s0, s1, 0)
        n = state.amps.shape[-2]
        out = np.zeros(state.amps.shape[:-2] + (n + hi - lo, 2), dtype=complex)
        out[..., s0 - lo:s0 - lo + n, 0] = state.amps[..., 0]
        out[..., s1 - lo:s1 - lo + n, 1] = state.amps[..., 1]
        return RailState(state.lo + lo, out)


TRANSLATE = Shift(-1, +1)


def encode_input(a) -> RailState:
    """Ququart amplitudes (..., 4) onto the odd positions, coin |1>:
    a0|-3,1> + a1|-1,1> + a2|1,1> + a3|3,1>.  Each row must pass
    `qcore.checked_state`."""
    vec = checked_state(a, "input vector")
    if vec.shape[-1:] != (4,):
        raise ValueError("input must have 4 amplitudes")
    amps = np.zeros(vec.shape[:-1] + (7, 2), dtype=complex)
    amps[..., ::2, 1] = vec
    return RailState(-3, amps)


@lru_cache(maxsize=None)
def masking_schedule() -> tuple[Local | Shift, ...]:
    """The steps of the default schedule, which realizes the ququart masker
    on positions -3..3 (built once)."""
    return (
        Local(COIN_X, {-1, 3}),
        TRANSLATE,
        Local(COIN_C2, {-2}),
        Local(COIN_C1, {2}),
        TRANSLATE,
        Local(COIN_X, {-3, 3}),
        TRANSLATE,
        TRANSLATE,
        Local(COIN_Z, {-1}),
        Local(COIN_XZ, {1}),
    )


def extract_two_qubit(state: RailState) -> np.ndarray:
    """Read sites +/-1 as qubit A (+1 -> |0>, -1 -> |1>); the site's qubit is qubit B.
    Returns normalized (..., 4) amplitudes."""
    stray = state.max_outside((1, -1))
    if stray > EPS_EXACT:
        raise ValueError(f"support outside sites +/-1 with amplitude {stray:.3e}")
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
    return extract_two_qubit(run(encode_input(a), masking_schedule()))

