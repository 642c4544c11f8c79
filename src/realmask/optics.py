"""Jones-calculus model of the path/polarization setup.

The photon state lives on a handful of parallel spatial rails, each carrying a
polarization qubit (H, V).  Each layout is a tuple of the walk's two steps: a
waveplate is a `walk.Local` holding its Jones matrix (built once, when the
layout is built; a per-item stack when its angle is an array) on the rails it
covers, and a beam displacer is a `walk.Shift` that moves H by one number of
rails and V by another, which is how the walk's conditional translation is
implemented in glass.

Conventions (pinned so the closed-form preparation pipeline holds verbatim):

  HWP(theta) = [[cos 2t,  sin 2t],
                [sin 2t, -cos 2t]]            (theta in degrees, t in radians)

  QWP(theta) = 1/sqrt(2) [[1 - i cos 2t, -i sin 2t],
                          [-i sin 2t,    1 + i cos 2t]]

With these, HWP(45) = X, HWP(0) = Z, and a QWP at 45 degrees after an HWP at
phi/4 + 22.5 degrees turns |H> into (|H> + e^{i phi}|V>)/sqrt(2) up to a
global phase, which is the convention self-test run by the test-suite.

Beam-displacer routing differs between the three modules: the preparation
module displaces H by -4 then V by +2 (matching the -3,-1,1,3 rail labels),
while the masking module uses the symmetric (-1, +1) form so that rail labels
coincide with walker positions at every step.

The table runs on the walk's dense engine, a `walk.RailState` array indexed
by (..., rail, H|V).  Its angles stay independent of the walk's coins; `equiv`
checks whole layouts, the masking one against the masker times `MASKING_PHASE`.
Polarizing beam splitters are not modelled as steps: `detector_distribution`
reads the H/V ports directly, SPCM k seeing pair outcome `SPCM_OUTCOMES[k]`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .qcore import EPS_EXACT, PAULI_X, PAULI_Z, _row_prefix, checked_state
from .walk import Local, RailState, Shift, embed_two_qubit, extract_two_qubit, run

H, V = 0, 1


class SolverError(RuntimeError):
    """Angle solve did not reach the required residual."""


def hwp_jones(theta_deg) -> np.ndarray:
    """Half-wave plate at `theta_deg` from horizontal in the (H, V) basis; angle arrays give a stack."""
    t = 2 * np.radians(theta_deg)
    return np.multiply.outer(np.cos(t), PAULI_Z) + np.multiply.outer(np.sin(t), PAULI_X)


def qwp_jones(theta_deg) -> np.ndarray:
    """Quarter-wave plate at `theta_deg`, (1 - i HWP(theta))/sqrt(2) in the module docstring's convention."""
    return (np.eye(2) - 1j * hwp_jones(theta_deg)) / np.sqrt(2)


# ---------------------------------------------------------------------------
# Preparation module: H1 -> BD -> {H2 @ -3, H3 @ 1} [-> Q1 @ -3] -> BD
#                      -> X-plates @ {-3, 1}

def _fold_half_turn(angle_deg):
    """An angle (or array of angles) folded into [0, 180), one wave-plate
    period; float `%` alone rounds a tiny negative angle up to exactly 180."""
    folded = angle_deg % 180.0
    return folded - 180.0 * (folded == 180.0)


@dataclass(frozen=True)
class PrepAngles:
    """Half-wave-plate angles (degrees) that set the four real amplitudes (floats or per-item arrays)."""

    h1: float
    h2: float
    h3: float


def solve_prep_angles(a) -> PrepAngles:
    """Invert the preparation pipeline for (..., 4) targets, each row checked
    by `qcore.checked_state` and then to be real; each rule names its first
    faulty row.

    Branch choice: h1 in [0, 45] so cos(2 h1), sin(2 h1) >= 0; then
    2 h2 = atan2(a1, a0) and 2 h3 = atan2(a2, -a3), each angle folded into
    [0, 180).  Degenerate branches (a0=a1=0 or a2=a3=0) leave the
    unconstrained angle at 0.
    """
    vec = checked_state(a, "target")
    if vec.shape[-1:] != (4,):
        raise ValueError("target must be a real 4-vector")
    if (bad := np.flatnonzero(vec.imag.any(axis=-1))).size:
        raise ValueError(f"{_row_prefix(vec.shape[:-1], bad[0])}target must be real")
    a0, a1, a2, a3 = (vec.real[..., k] for k in range(4))
    r01 = np.hypot(a0, a1)
    r23 = np.hypot(a2, a3)
    h1 = np.degrees(np.arctan2(r23, r01)) / 2.0
    h2 = np.where(r01 > EPS_EXACT, np.degrees(np.arctan2(a1, a0)) / 2.0, 0.0)
    h3 = np.where(r23 > EPS_EXACT, np.degrees(np.arctan2(a2, -a3)) / 2.0, 0.0)
    return PrepAngles(_fold_half_turn(h1), _fold_half_turn(h2), _fold_half_turn(h3))


def phase_prep_angles(phi_deg: float) -> PrepAngles:
    """Angles for the probe (|0> + e^{i phi}|1>)/sqrt(2) with q1_deg=45; h2 folded into [0, 180)."""
    return PrepAngles(h1=0.0, h2=_fold_half_turn(phi_deg / 4.0 + 22.5), h3=0.0)


PREP_INPUT_RAIL = 1  # rail carrying the |H>-polarized input photon
# The preparation's fixed |rail 1, H> input and closing X plates, built once and read-only.
_PREP_INPUT = RailState(PREP_INPUT_RAIL, np.eye(2, dtype=complex)[[H]])
_PREP_INPUT.amps.setflags(write=False)
_PREP_X_PLATES = Local(hwp_jones(45.0), {-3, 1})


def preparation_layout(angles: PrepAngles, q1_deg: float | None = None) -> tuple[Local | Shift, ...]:
    steps = [
        Local(hwp_jones(angles.h1), {PREP_INPUT_RAIL}),
        Shift(-4, 0),
        Local(hwp_jones(angles.h2), {-3}),
        Local(hwp_jones(angles.h3), {1}),
    ]
    if q1_deg is not None:
        steps.append(Local(qwp_jones(q1_deg), {-3}))
    steps += [Shift(0, 2), _PREP_X_PLATES]
    return tuple(steps)


def simulate_preparation(angles: PrepAngles, q1_deg: float | None = None) -> RailState:
    """Run the preparation module on the fixed |rail 1, H> input; angle arrays give a batch."""
    return run(_PREP_INPUT, preparation_layout(angles, q1_deg))


# ---------------------------------------------------------------------------
# Masking module: the walk schedule in glass.  Coins C1/C2 are realized as
# QWP-HWP-QWP triples; the two triples share one global phase e^{i pi/4}, so
# the module output equals the walk output up to a single overall phase.

_COIN_TRIPLES = {
    "C1": (135.0, 45.0, 90.0),  # QWP, HWP, QWP angles, in beam order
    "C2": (135.0, 0.0, 90.0),
}
# The table's output is MASKING_PHASE times the masker's: the triples' shared phase.
MASKING_PHASE = np.exp(1j * np.pi / 4)


def _coin_triple_plates(name: str, rail: int) -> tuple[Local, Local, Local]:
    q_in, h_mid, q_out = _COIN_TRIPLES[name]
    return Local(qwp_jones(q_in), {rail}), Local(hwp_jones(h_mid), {rail}), Local(qwp_jones(q_out), {rail})


@lru_cache(maxsize=None)
def masking_layout() -> tuple[Local | Shift, ...]:
    """Optical layout of the masker (built once); rail labels track walker
    positions.  HWP(45) is the X plate and HWP(0) the Z plate."""
    step = Shift(-1, +1)
    return (
        Local(hwp_jones(45.0), {-1, 3}),
        step,
        *_coin_triple_plates("C2", -2),
        *_coin_triple_plates("C1", 2),
        step,
        Local(hwp_jones(45.0), {-3, 3}),
        step,
        step,
        # Z at rail -1; XZ at rail +1 as two stacked plates (Z first, then X).
        Local(hwp_jones(0.0), {-1, 1}),
        Local(hwp_jones(45.0), {1}),
    )


def simulate_masking(a) -> np.ndarray:
    """Full table: preparation solved from real (..., 4) `a`, then the masking module."""
    return extract_two_qubit(run(simulate_preparation(solve_prep_angles(a)), masking_layout()))


# ---------------------------------------------------------------------------
# Measurement module (local projective measurement onto a product basis).

@dataclass(frozen=True)
class MeasSetting:
    """Product-basis parameters, radians.

    Path qubit basis:  |f0> = cos(gamma)|0> + e^{i zeta} sin(gamma)|1>,
                       |f1> = sin(gamma)|0> - e^{i zeta} cos(gamma)|1>.
    Polarization basis: same form with (alpha, beta).
    """

    gamma: float
    zeta: float
    alpha: float
    beta: float

    def path_basis(self) -> tuple[np.ndarray, np.ndarray]:
        return _basis_pair(self.gamma, self.zeta)

    def pol_basis(self) -> tuple[np.ndarray, np.ndarray]:
        return _basis_pair(self.alpha, self.beta)


def _basis_pair(theta: float, phase: float) -> tuple[np.ndarray, np.ndarray]:
    e = np.exp(1j * phase)
    v0 = np.array([math.cos(theta), e * math.sin(theta)], dtype=complex)
    v1 = np.array([math.sin(theta), -e * math.cos(theta)], dtype=complex)
    return v0, v1


_PAULI_EIGENBASIS = {"X": (math.pi / 4, 0.0), "Y": (math.pi / 4, math.pi / 2), "Z": (0.0, 0.0)}


def pauli_meas_setting(first: str, second: str) -> MeasSetting:
    """Product setting whose +1/-1 basis states are the Pauli eigenvectors."""
    g, z = _PAULI_EIGENBASIS[first]
    a, b = _PAULI_EIGENBASIS[second]
    return MeasSetting(gamma=g, zeta=z, alpha=a, beta=b)


@dataclass(frozen=True)
class MeasAngles:
    """Compiled waveplate angles (degrees) for the measurement module."""

    q2: float
    h4: float
    q3: float
    h5: float

    residual: float = 0.0


# Largest residual 1 - |<H|achieved>|^2 a compiled measurement may leave.
SOLVER_TOL = 1e-10


def _solve_to_horizontal(target: np.ndarray) -> tuple[float, float, float]:
    """QWP/HWP angles with HWP(h) QWP(q) |target> proportional to |H>.

    Writing the target as (cos a, e^{ib} sin a) up to a global phase, the pair
    S = asin(-sin 2a sin b), D = atan2(sin 2a cos b, cos 2a) gives exact angles
    q = D/2, h = (S + D)/4 in this Jones convention.  The closed form is
    exact; its residual 1 - |<H|achieved>|^2 is still re-checked against
    `SOLVER_TOL`; a NaN residual fails the check.
    """
    t0, t1 = target
    a = math.atan2(abs(t1), abs(t0))
    b = (np.angle(t1) - np.angle(t0)) if (t0 != 0 and t1 != 0) else 0.0
    big_s = math.asin(max(-1.0, min(1.0, -math.sin(2 * a) * math.sin(b))))
    big_d = math.atan2(math.sin(2 * a) * math.cos(b), math.cos(2 * a))
    q, h = math.degrees(big_d / 2.0), math.degrees((big_s + big_d) / 4.0)
    v = hwp_jones(h) @ qwp_jones(q) @ target
    residual = 1.0 - abs(v[0]) ** 2
    if not residual <= SOLVER_TOL:
        raise SolverError(f"closed-form angles leave residual {residual:.3e} (tolerance {SOLVER_TOL:.1e})")
    return float(_fold_half_turn(q)), float(_fold_half_turn(h)), float(residual)


def compile_measurement(setting: MeasSetting) -> MeasAngles:
    """Waveplate angles sending the setting's basis onto the four detectors.

    Q2/H4 rotate the polarization basis onto (H, V); Q3/H5 do the same for the
    path basis after the displacer pair has moved it onto polarization.
    """
    q2, h4, r1 = _solve_to_horizontal(setting.pol_basis()[0])
    q3, h5, r2 = _solve_to_horizontal(setting.path_basis()[0])
    return MeasAngles(q2=q2, h4=h4, q3=q3, h5=h5, residual=max(r1, r2))


def measurement_layout(angles: MeasAngles) -> tuple[Local | Shift, ...]:
    """Q2-H4 on every rail, the displacer pair with X plates (HWP(45)), then Q3-H5."""
    return (
        Local(qwp_jones(angles.q2)),
        Local(hwp_jones(angles.h4)),
        Shift(0, 2),
        Local(hwp_jones(45.0), {-1, 3}),
        Shift(0, 2),
        Local(qwp_jones(angles.q3)),
        Local(hwp_jones(angles.h5)),
    )


# Detector rails after the displacer pair: rail +3 hosts SPCM 0 (H) and 1 (V),
# rail +1 hosts SPCM 2 (H) and 3 (V).
_SPCM_PORTS = ((3, H), (3, V), (1, H), (1, V))
# The `measure.OUTCOMES_PAIR` index each SPCM sees: +-, --, ++, -+.
SPCM_OUTCOMES = (1, 3, 0, 2)


def detector_distribution(state: RailState) -> np.ndarray:
    """Click probabilities (..., 4) at SPCM 0..3 for measurement-module outputs."""
    probs = np.abs(np.stack([state.amplitude(x, p) for x, p in _SPCM_PORTS], axis=-1)) ** 2
    leak = (1.0 - probs.sum(axis=-1)).max(initial=0.0)
    if leak > 1e-9:
        raise ValueError(f"probability {leak:.3e} outside the four detector ports")
    return probs


def simulate_measurement(psi, setting: MeasSetting) -> np.ndarray:
    """End-to-end module simulation of a two-qubit pure (4,) state, or of each
    row of a (..., 4) stack, checked by `qcore.checked_state`; returns SPCM
    0..3 probabilities (..., 4).

    SPCM (0, 1, 2, 3) see |a1|^2, |a3|^2, |a0|^2, |a2|^2 where a_j are the
    coefficients of the state in the setting's product basis.
    """
    state = embed_two_qubit(checked_state(psi, "state"))
    return detector_distribution(run(state, measurement_layout(compile_measurement(setting))))
