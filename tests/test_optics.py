import math

import numpy as np
import pytest

from realmask import optics
from realmask.experiments import DEFAULT_PHI_GRID, phase_probe, probe_vector
from realmask.masker import mask_pure, masker_matrix
from realmask.measure import PAIRS, pair_probs
from realmask.optics import (
    H,
    V,
    MeasSetting,
    compile_measurement,
    detector_distribution,
    hwp_jones,
    masking_layout,
    measurement_layout,
    pauli_meas_setting,
    phase_prep_angles,
    preparation_layout,
    qwp_jones,
    simulate_masking,
    simulate_measurement,
    simulate_preparation,
    solve_prep_angles,
)
from realmask.qcore import PAULI_X, PAULI_Z
from realmask.walk import (
    Local,
    RailState,
    Shift,
    embed_two_qubit,
    encode_input,
    extract_two_qubit,
    masking_schedule,
    run,
)

from helpers import (
    born_product_probs,
    density,
    haar_state,
    local_sites,
    prepared_amplitudes,
    pure_fidelity,
    rail_state,
    random_unitary,
    spcm_to_outcome_order,
    with_local_at,
    worst_masker_infidelity,
)

SQRT2 = np.sqrt(2)


def global_phase_fidelity(got: np.ndarray, want: np.ndarray) -> float:
    return abs(np.vdot(want, got)) ** 2


class TestJonesConventions:
    def test_hwp_45_is_x(self):
        assert np.abs(hwp_jones(45.0) - PAULI_X).max() < 1e-15

    def test_hwp_0_is_z(self):
        assert np.abs(hwp_jones(0.0) - PAULI_Z).max() < 1e-15

    def test_hwp_22p5_makes_diagonal(self):
        out = hwp_jones(22.5) @ np.array([1, 0], dtype=complex)
        assert np.abs(out - np.array([1, 1]) / SQRT2).max() < 1e-15

    def test_qwp_at_zero_is_phase_only(self):
        q = qwp_jones(0.0)
        assert abs(q[0, 1]) == 0 and abs(q[1, 0]) == 0
        assert abs(abs(q[0, 0]) - 1) < 1e-15

    def test_qwp_unitary(self):
        for theta in (0.0, 13.7, 45.0, 90.0, 122.4):
            q = qwp_jones(theta)
            assert np.abs(q.conj().T @ q - np.eye(2)).max() < 1e-15

    @pytest.mark.parametrize("phi_deg,expected_phase", [(0.0, 1.0), (90.0, 1j)])
    def test_phase_pipeline_convention_selftest(self, phi_deg, expected_phase):
        # H2 at phi/4 + 22.5 deg then Q1 at 45 deg turns |H> into
        # (|H> + e^{i phi}|V>)/sqrt(2) up to a global phase.
        out = qwp_jones(45.0) @ hwp_jones(phi_deg / 4 + 22.5) @ np.array([1, 0], dtype=complex)
        want = np.array([1.0, expected_phase]) / SQRT2
        assert global_phase_fidelity(out, want) == pytest.approx(1.0, abs=1e-12)


class TestPrepAngles:
    def test_basis_state(self):
        angles = solve_prep_angles([1, 0, 0, 0])
        assert (angles.h1, angles.h2, angles.h3) == (0.0, 0.0, 0.0)

    def test_uniform_state(self):
        angles = solve_prep_angles(np.ones(4) / 2)
        assert angles.h1 == pytest.approx(22.5, abs=1e-12)
        assert angles.h2 == pytest.approx(22.5, abs=1e-12)
        assert angles.h3 == pytest.approx(67.5, abs=1e-12)

    def test_last_basis_state(self):
        angles = solve_prep_angles([0, 0, 0, 1])
        assert angles.h1 == pytest.approx(45.0, abs=1e-12)
        assert angles.h3 == pytest.approx(90.0, abs=1e-12)
        # substitution oracle: -sin(2 h1) cos(2 h3) = 1
        assert -math.sin(math.radians(2 * angles.h1)) * math.cos(math.radians(2 * angles.h3)) == pytest.approx(1.0)

    def test_phase_record_holds_its_quarter_wave_plate(self):
        for phi in (*DEFAULT_PHI_GRID, -90.00000000000001, 179.9999, np.array([0.0, 30.0])):
            assert phase_prep_angles(phi).q1 == 45.0

    def test_solved_record_has_no_quarter_wave_plate(self):
        assert solve_prep_angles(np.ones(4) / 2).q1 is None
        assert solve_prep_angles(np.eye(4)).q1 is None

    def test_round_trip_random(self, rng):
        for _ in range(1000):
            a = rng.normal(size=4)
            a /= np.linalg.norm(a)
            out = simulate_preparation(solve_prep_angles(a))
            assert np.abs(prepared_amplitudes(out) - a).max() < 1e-10

    def test_rejects_complex_or_unnormalized(self):
        with pytest.raises(ValueError, match=r"^target norm 1\.414\d* deviates from 1 by more than 1e-12$"):
            solve_prep_angles([1, 1, 0, 0])
        with pytest.raises(ValueError, match=r"^target norm 2\.0 deviates from 1 by more than 1e-12$"):
            solve_prep_angles([2, 0, 0, 0])
        with pytest.raises(ValueError, match="^target must be real$"):
            solve_prep_angles([0.6, 0.8j, 0, 0])

    def test_refuses_a_complex_target(self):
        # Its imaginary part used to be dropped with only a ComplexWarning.
        with pytest.raises(ValueError):
            solve_prep_angles([0.6 + 0.1j, 0.8, 0, 0])
        targets = np.array([[1, 0, 0, 0], [0.6, 0.8j, 0, 0], [0, 1j, 0, 0]])
        with pytest.raises(ValueError, match="^row 1: target must be real$"):
            solve_prep_angles(targets)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_target(self, bad):
        # A NaN norm used to slip past the normalization check.
        with pytest.raises(ValueError, match="^target contains non-finite entries$"):
            solve_prep_angles([bad, 0.0, 0.0, 0.0])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 2.0])
    def test_stack_names_its_first_faulty_row(self, bad):
        targets = np.tile(np.eye(4)[0], (2, 3, 1))
        targets[1, 1, 0] = targets[1, 2, 0] = bad
        fault = r"norm 2\.0 deviates from 1" if math.isfinite(bad) else "contains non-finite entries"
        with pytest.raises(ValueError, match=rf"^row \(1, 1\): target {fault}"):
            solve_prep_angles(targets)


class TestPreparation:
    def test_basis_state_lands_on_rail_minus3(self):
        out = simulate_preparation(solve_prep_angles([1, 0, 0, 0]))
        assert out.amplitude(-3, V) == pytest.approx(1.0)
        assert out.max_outside({-3}, (V,)) ** 2 < 1e-24

    @pytest.mark.parametrize("mode", [(-3, H), (5, V)])
    def test_prepared_amplitudes_reject_stray_modes(self, mode):
        with pytest.raises(ValueError):
            prepared_amplitudes(rail_state({mode: 1.0}))

    def test_uniform_state_elementwise(self):
        out = simulate_preparation(solve_prep_angles(np.ones(4) / 2))
        vec = prepared_amplitudes(out)
        assert np.abs(vec - 0.5).max() < 1e-12

    def test_phase_insertion(self):
        out = simulate_preparation(phase_prep_angles(90.0))
        vec = prepared_amplitudes(out)
        want = np.array([1, 1j, 0, 0]) / SQRT2
        assert global_phase_fidelity(vec, want) == pytest.approx(1.0, abs=1e-12)

    def test_phase_record_alone_prepares_its_probe(self):
        # The record used to leave out Q1, which callers passed on their own;
        # without it the probe at 30 deg came out real, |overlap| 0.935.
        phis = (*DEFAULT_PHI_GRID, -90.00000000000001, 179.9999)
        cases = [(phase_prep_angles(phi), phase_probe(phi)) for phi in phis]
        cases.append((phase_prep_angles(np.array(phis)), np.stack([phase_probe(phi) for phi in phis])))
        for angles, probe in cases:
            got, want = simulate_preparation(angles), encode_input(probe)
            assert (got.lo, got.amps.shape) == (want.lo, want.amps.shape)
            overlap = np.abs(np.sum(want.amps.conj() * got.amps, axis=(-2, -1)))
            assert np.all(overlap >= 1 - 1e-12), angles.h2

    @pytest.mark.parametrize("phi, h2", [(-200.0, 152.5), (-810.0, 0.0), (720.0, 22.5), (1e6, 2.5)])
    def test_phase_angles_fold_into_one_plate_period(self, phi, h2):
        # H2 used to leave [0, 180): phi = 720 gave 202.5 deg and phi = -200
        # gave -27.5 deg.  A half-wave plate repeats every 180 deg, so the
        # folded angle prepares the same state.
        assert phase_prep_angles(phi).h2 == h2
        vec = prepared_amplitudes(simulate_preparation(phase_prep_angles(phi)))
        want = np.array([1, np.exp(1j * math.radians(phi)), 0, 0]) / SQRT2
        assert 1 - global_phase_fidelity(vec, want) < 1e-12

    def test_angles_below_one_plate_period(self):
        # A tiny negative angle used to fold to exactly 180.0 under float %.
        angles = solve_prep_angles(np.array([1, -1e-17, 0, 1]) / SQRT2)
        assert (angles.h1, angles.h2, angles.h3) == (22.5, 0.0, 90.0)
        assert phase_prep_angles(-90.00000000000001).h2 == 0.0
        stacked = solve_prep_angles(np.array([[1, -1e-17, 0, 1], [-1, -1e-17, 0, 1]]) / SQRT2)
        for h in (stacked.h1, stacked.h2, stacked.h3):
            assert np.all((0.0 <= h) & (h < 180.0))

    def test_phase_pipeline_grid(self):
        for phi in (0.0, 30.0, 45.0, 60.0, 90.0):
            out = simulate_preparation(phase_prep_angles(phi))
            vec = prepared_amplitudes(out)
            want = np.array([1, np.exp(1j * math.radians(phi)), 0, 0]) / SQRT2
            assert 1 - global_phase_fidelity(vec, want) < 1e-12


class TestElements:
    def test_bd_is_injective_on_occupied_modes(self):
        # Per-polarization shifts cannot merge amplitudes: populate every mode
        # on several rails and check the amplitude multiset is just relabeled.
        amps = {}
        k = 0
        for rail in (-2, 0, 2):
            for pol in (H, V):
                k += 1
                amps[(rail, pol)] = k
        norm = math.sqrt(sum(abs(a) ** 2 for a in amps.values()))
        state = rail_state({key: a / norm for key, a in amps.items()})
        out = Shift(0, 2).apply(state)
        assert np.count_nonzero(out.amps) == np.count_nonzero(state.amps)
        assert sorted(np.abs(out.amps[out.amps != 0])) == pytest.approx(
            sorted(np.abs(state.amps[state.amps != 0]))
        )

    def test_bd_routing_is_injective_in_layouts(self):
        # Walk through the masking layout tracking basis states one at a time.
        for rail in (-3, -1, 1, 3):
            state = rail_state({(rail, V): 1.0})
            out = run(state, masking_layout())
            assert np.linalg.norm(out.amps) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_every_local_step_is_unitary_and_read_only(self, rng):
        a = rng.normal(size=(20, 4))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        layouts = [masking_schedule(), masking_layout(), preparation_layout(solve_prep_angles(a))]
        layouts += [measurement_layout(compile_measurement(pauli_meas_setting(p, q))) for p in "XYZ" for q in "XYZ"]
        for steps in layouts:
            for step in steps:
                if isinstance(step, Local):
                    u = step.u
                    assert np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(2)).max() < 1e-12
                    assert not u.flags.writeable


class TestMaskingLayout:
    def test_layout_is_built_once(self):
        assert masking_layout() is masking_layout()

    def test_every_plate_position_is_injected(self):
        assert len(local_sites(masking_layout())) == 13

    @pytest.mark.parametrize("step,rail", local_sites(masking_layout()))
    def test_haar_random_plate_is_caught(self, step, rail, rng):
        # A fault at any plate must break the 1e-10 equiv threshold.
        a = rng.normal(size=(64, 4))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        start = simulate_preparation(solve_prep_angles(a))
        assert worst_masker_infidelity(start, masking_layout(), a) < 1e-10
        steps = with_local_at(masking_layout(), step, rail, random_unitary(2, rng))
        assert worst_masker_infidelity(start, steps, a) > 1e-10

    def test_full_table_matches_masker(self, rng):
        m = masker_matrix()
        for _ in range(100):
            a = rng.normal(size=4)
            a /= np.linalg.norm(a)
            got = simulate_masking(a)
            assert pure_fidelity(m @ a, got) >= 1 - 1e-10

    def test_a_real_stack_equals_the_phased_mask_pure(self, rng):
        a = rng.normal(size=(2, 5, 4))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        assert np.abs(simulate_masking(a) - optics.MASKING_PHASE * mask_pure(a)).max() < 1e-12

    def test_phase_probe_through_full_table(self):
        m = masker_matrix()
        for phi in (0.0, 45.0, 90.0):
            c = np.array([1, np.exp(1j * math.radians(phi)), 0, 0]) / SQRT2
            got = extract_two_qubit(run(simulate_preparation(phase_prep_angles(phi)), masking_layout()))
            assert pure_fidelity(m @ c, got) >= 1 - 1e-10

    def test_batch_matches_single_inputs(self, rng):
        a = rng.normal(size=(50, 4))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        batch = simulate_masking(a)
        for row, got in zip(a, batch):
            assert np.array_equal(simulate_masking(row), got)

    def test_embed_extract_round_trip(self, rng):
        psi = haar_state(4, rng)
        again = extract_two_qubit(embed_two_qubit(psi))
        assert pure_fidelity(psi, again) == pytest.approx(1.0, abs=1e-12)


class TestMeasurement:
    def test_zz_setting_routes_computational_basis(self):
        setting = pauli_meas_setting("Z", "Z")
        # |00> = (path +1, H) has product-basis coefficient a0 -> SPCM 2.
        probs = simulate_measurement(np.array([1, 0, 0, 0]), setting)
        assert probs[2] == pytest.approx(1.0, abs=1e-10)
        probs = simulate_measurement(np.array([0, 0, 0, 1]), setting)
        assert probs[1] == pytest.approx(1.0, abs=1e-10)

    def test_xx_setting_concentrates_plus_plus(self):
        setting = pauli_meas_setting("X", "X")
        plus_plus = np.ones(4) / 2
        probs = simulate_measurement(plus_plus, setting)
        assert probs[2] == pytest.approx(1.0, abs=1e-10)

    def test_polarization_y_basis(self):
        # alpha = pi/4, beta = pi/2 measures sigma_y on the polarization qubit.
        setting = MeasSetting(gamma=0.0, zeta=0.0, alpha=math.pi / 4, beta=math.pi / 2)
        y_plus = np.array([1, 1j, 0, 0]) / SQRT2  # |0>_path (|H>+i|V>)/sqrt2
        probs = simulate_measurement(y_plus, setting)
        assert probs[2] == pytest.approx(1.0, abs=1e-10)

    def test_detector_distribution_order(self):
        # A module output sitting entirely on (rail 3, H) is SPCM 0.
        state = rail_state({(3, H): 1.0})
        assert detector_distribution(state)[0] == 1.0

    def test_uniform_input_gives_uniform_detectors(self):
        setting = pauli_meas_setting("Z", "Z")
        psi = np.ones(4) / 2
        probs = simulate_measurement(psi, setting)
        assert np.abs(probs - 0.25).max() < 1e-10

    def test_rejects_unnormalized_state(self, rng):
        setting = pauli_meas_setting("X", "Y")
        psi = haar_state(4, rng)
        with pytest.raises(ValueError, match="norm"):
            simulate_measurement(2 * psi, setting)

    @pytest.mark.parametrize("bad", [2.0, np.nan, np.inf, -np.inf])
    def test_first_unnormalized_row_is_named(self, bad, rng):
        states = np.array([[haar_state(4, rng) for _ in range(3)] for _ in range(2)])
        states[1, 2] = [bad, 0, 0, 0]
        fault = r"norm 2\.0 deviates from 1" if np.isfinite(bad) else "contains non-finite entries"
        with pytest.raises(ValueError, match=rf"^row \(1, 2\): state {fault}"):
            simulate_measurement(states, pauli_meas_setting("X", "Y"))

    def test_stack_equals_rows_alone(self, rng):
        states = np.array([haar_state(4, rng) for _ in range(6)])
        for pair in PAIRS:
            setting = pauli_meas_setting(pair[0], pair[1])
            stacked = simulate_measurement(states.reshape(2, 3, 4), setting)
            assert stacked.shape == (2, 3, 4)
            for got, psi in zip(stacked.reshape(6, 4), states):
                assert np.array_equal(got, simulate_measurement(psi, setting))

    def test_simulation_matches_born_rule(self, rng):
        for _ in range(100):
            setting = MeasSetting(
                gamma=rng.uniform(0, math.pi / 2), zeta=rng.uniform(0, 2 * math.pi),
                alpha=rng.uniform(0, math.pi / 2), beta=rng.uniform(0, 2 * math.pi),
            )
            psi = haar_state(4, rng)
            spcm = simulate_measurement(psi, setting)
            got = spcm_to_outcome_order(spcm)
            want = born_product_probs(psi, setting)
            assert np.abs(got - want).max() < 1e-8

    @pytest.mark.parametrize("probe", [1, 2, 3, 4])
    def test_matches_pipeline_outcome_probs(self, probe):
        # The pipelines sample measure.pair_probs; the optical module must
        # give the same distribution for every masked probe and Pauli pair.
        psi = mask_pure(probe_vector(probe))
        for pair, want in zip(PAIRS, pair_probs(density(psi))):
            got = spcm_to_outcome_order(simulate_measurement(psi, pauli_meas_setting(pair[0], pair[1])))
            assert np.abs(got - want).max() < 1e-12

    def test_compile_reports_residual(self):
        compiled = compile_measurement(pauli_meas_setting("X", "Y"))
        assert compiled.residual < 1e-10

    def test_solver_error_on_impossible_tolerance(self, monkeypatch):
        monkeypatch.setattr(optics, "SOLVER_TOL", -1.0)
        with pytest.raises(RuntimeError, match=r"^closed-form angles leave residual .* \(tolerance -1\.0e\+00\)$"):
            compile_measurement(pauli_meas_setting("X", "Y"))

    @pytest.mark.parametrize("setting", [
        MeasSetting(math.nan, 0.0, 0.0, 0.0),
        MeasSetting(0.0, 0.0, 0.0, math.nan),
    ])
    def test_solver_error_on_nan_residual(self, setting):
        # A NaN residual used to pass `residual > tol` and max() dropped it.
        with pytest.raises(RuntimeError, match=r"^closed-form angles leave residual nan "):
            compile_measurement(setting)


def test_solve_prep_angles_refuses_a_target_of_another_dimension():
    with pytest.raises(ValueError, match="^target must be a real 4-vector$"):
        solve_prep_angles(np.ones(3) / np.sqrt(3))


def test_detector_distribution_refuses_light_outside_its_ports():
    # Half the light on rail -1, which no detector watches.
    state = RailState(-1, np.array([[np.sqrt(0.5), 0.0], [0.0, 0.0], [0.0, np.sqrt(0.5)]], dtype=complex))
    with pytest.raises(ValueError, match=r"^probability 5\.000e-01 outside the four detector ports$"):
        detector_distribution(state)
