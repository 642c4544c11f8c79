import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from realmask.masker import masker_matrix
from realmask.optics import (
    compile_measurement,
    masking_layout,
    measurement_layout,
    pauli_meas_setting,
    preparation_layout,
    solve_prep_angles,
)
from realmask.walk import (
    COIN_C1,
    COIN_C2,
    COIN_X,
    COIN_XZ,
    COIN_Z,
    TRANSLATE,
    ExtractionError,
    Local,
    RailState,
    Shift,
    encode_input,
    extract_two_qubit,
    masking_schedule,
    run,
    run_masking_walk,
)

from helpers import (
    dense_run,
    local_sites,
    pure_fidelity,
    rail_state,
    random_unitary,
    with_local_at,
    worst_masker_infidelity,
)

SQRT2 = np.sqrt(2)


def amp(state: RailState, x: int, c: int) -> complex:
    return state.amplitude(x, c)


def nonzero(state: RailState) -> dict:
    """{(site, qubit): amplitude} of a single state's nonzero entries."""
    return {(state.lo + int(i), int(c)): state.amps[i, c] for i, c in zip(*np.nonzero(state.amps))}


class TestTranslate:
    def test_coin_zero_moves_left(self):
        out = TRANSLATE.apply(rail_state({(0, 0): 1.0}))
        assert amp(out, -1, 0) == 1.0

    def test_coin_one_moves_right(self):
        out = TRANSLATE.apply(rail_state({(0, 1): 1.0}))
        assert amp(out, 1, 1) == 1.0

    def test_superposition_termwise(self):
        out = TRANSLATE.apply(rail_state({(2, 0): 1 / SQRT2, (2, 1): 1 / SQRT2}))
        assert amp(out, 1, 0) == pytest.approx(1 / SQRT2)
        assert amp(out, 3, 1) == pytest.approx(1 / SQRT2)

    @settings(max_examples=50, deadline=None)
    @given(st.dictionaries(
        st.tuples(st.integers(-4, 4), st.integers(0, 1)),
        st.complex_numbers(min_magnitude=0.01, max_magnitude=1.0, allow_infinity=False, allow_nan=False),
        min_size=1, max_size=6,
    ))
    def test_norm_and_position_shift(self, raw):
        norm = np.sqrt(sum(abs(a) ** 2 for a in raw.values()))
        state = rail_state({k: v / norm for k, v in raw.items()})
        out = TRANSLATE.apply(state)
        assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-12)
        for (x, c), a in nonzero(state).items():
            assert amp(out, x - 1 if c == 0 else x + 1, c) == a


class TestEngine:
    def test_local_acts_on_every_site_when_none_listed(self):
        state = rail_state({(0, 0): 1 / SQRT2, (5, 1): 1 / SQRT2})
        out = Local(COIN_X).apply(state)
        assert nonzero(out) == {(0, 1): 1 / SQRT2, (5, 0): 1 / SQRT2}

    def test_local_leaves_unlisted_sites_alone(self):
        state = rail_state({(0, 0): 1 / SQRT2, (5, 1): 1 / SQRT2})
        out = Local(COIN_X, {0}).apply(state)
        assert nonzero(out) == {(0, 1): 1 / SQRT2, (5, 1): 1 / SQRT2}

    def test_shift_moves_each_qubit_by_its_own_offset(self):
        state = rail_state({(1, 0): 0.6, (1, 1): 0.8j})
        out = Shift(-4, 2).apply(state)
        assert nonzero(out) == {(-3, 0): 0.6, (3, 1): 0.8j}

    def test_rejects_bad_qubit_index(self):
        with pytest.raises(ValueError):
            rail_state({(0, 2): 1.0})

    def test_rejects_unnormalized_state(self):
        with pytest.raises(ValueError, match=r"^state norm 1\.414\d* deviates from 1 by more than 1e-12$"):
            rail_state({(0, 0): 1.0, (1, 0): 1.0})
        with pytest.raises(ValueError, match=r"^state norm 2\.0 deviates from 1 by more than 1e-12$"):
            rail_state({(0, 0): 2.0})

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        # A NaN norm used to pass `abs(norm - 1) > EPS_EXACT` and build a state.
        with pytest.raises(ValueError, match="^state contains non-finite entries$"):
            rail_state({(0, 0): bad})


class TestLocal:
    def test_x_at_position(self):
        out = Local(COIN_X, {3}).apply(rail_state({(3, 1): 1.0}))
        assert amp(out, 3, 0) == 1.0

    def test_c2_column(self):
        out = Local(COIN_C2, {-2}).apply(rail_state({(-2, 1): 1.0}))
        assert amp(out, -2, 0) == pytest.approx(1j / SQRT2)
        assert amp(out, -2, 1) == pytest.approx(1j / SQRT2)

    def test_no_sites_is_noop(self):
        state = rail_state({(0, 0): 1 / SQRT2, (2, 1): 1j / SQRT2})
        out = Local(COIN_X, ()).apply(state)
        assert nonzero(out) == nonzero(state)

    def test_rejects_non_integral_position(self):
        # Truncating 1.5 to 1 would put the coin on another site.
        with pytest.raises(TypeError):
            Local(COIN_X, {1, 1.5})

    def test_accepts_numpy_integer_positions(self):
        step = Local(COIN_Z, [np.int64(-1), np.int32(2)])
        assert step.sites == {-1, 2}
        assert all(type(x) is int for x in step.sites)


class TestEncodeExtract:
    def test_basis_encodings(self):
        assert amp(encode_input([1, 0, 0, 0]), -3, 1) == 1.0
        assert amp(encode_input([0, 0, 1, 0]), 1, 1) == 1.0

    def test_uniform_encoding(self):
        state = encode_input(np.ones(4) / 2)
        for x in (-3, -1, 1, 3):
            assert amp(state, x, 1) == pytest.approx(0.5)
            assert amp(state, x, 0) == 0

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match=r"^input vector norm 1\.414\d* deviates from 1 by more than 1e-12$"):
            encode_input([1, 1, 0, 0])
        with pytest.raises(ValueError, match=r"^input vector norm 2\.0 deviates from 1 by more than 1e-12$"):
            encode_input([2, 0, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_amplitudes(self, bad):
        # A NaN norm used to pass `abs(norm - 1) > EPS_EXACT` and encode a state.
        with pytest.raises(ValueError, match="^input vector contains non-finite entries$"):
            encode_input(np.full(4, bad))
        with pytest.raises(ValueError, match="^input vector contains non-finite entries$"):
            encode_input([bad, 0, 0, 0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0])
    def test_stack_names_its_first_faulty_row(self, bad):
        stack = np.tile(np.eye(4)[0], (5, 1))
        stack[2, 0] = stack[4, 3] = bad
        fault = r"norm 2\.0 deviates from 1" if np.isfinite(bad) else "contains non-finite entries"
        with pytest.raises(ValueError, match=rf"^row 2: input vector {fault}"):
            encode_input(stack)

    def test_extract_identification(self):
        assert np.allclose(extract_two_qubit(rail_state({(1, 0): 1.0})), [1, 0, 0, 0])
        assert np.allclose(extract_two_qubit(rail_state({(-1, 1): 1.0})), [0, 0, 0, 1])

    def test_extract_bell(self):
        out = extract_two_qubit(rail_state({(1, 0): 1 / SQRT2, (-1, 1): 1 / SQRT2}))
        assert np.allclose(out, np.array([1, 0, 0, 1]) / SQRT2)

    def test_extract_rejects_stray_support(self):
        with pytest.raises(ExtractionError):
            extract_two_qubit(rail_state({(1, 0): np.sqrt(0.5), (3, 0): np.sqrt(0.5)}))


class TestMaskingSchedule:
    def test_schedule_is_built_once_and_read_only(self):
        schedule = masking_schedule()
        assert masking_schedule() is schedule
        step = schedule[0]
        with pytest.raises(AttributeError):
            step.sites.add(0)
        with pytest.raises(ValueError):
            step.u[0, 0] = 0.0
        for coin in (COIN_X, COIN_Z, COIN_C1, COIN_C2, COIN_XZ):
            with pytest.raises(ValueError):
                coin[0, 0] = 0.0

    def test_default_schedule_has_four_translations(self):
        shifts = [step for step in masking_schedule() if isinstance(step, Shift)]
        assert shifts == [TRANSLATE] * 4 and TRANSLATE == Shift(-1, +1)

    def test_intermediate_after_two_steps(self):
        # The first five steps are the two coined steps, each ending in TRANSLATE.
        assert masking_schedule()[4] is TRANSLATE
        out = run(encode_input([1, 0, 0, 0]), masking_schedule()[:5])
        assert amp(out, -3, 0) == pytest.approx(1j / SQRT2, abs=1e-15)
        assert amp(out, -1, 1) == pytest.approx(1j / SQRT2, abs=1e-15)

    def test_intermediate_coefficients_random_real(self, rng):
        partial = masking_schedule()[:5]
        for _ in range(100):
            a = rng.normal(size=4)
            a /= np.linalg.norm(a)
            out = run(encode_input(a), partial)
            assert amp(out, -3, 0) == pytest.approx((1j * a[0] + a[1]) / SQRT2, abs=1e-12)
            assert amp(out, -1, 1) == pytest.approx((1j * a[0] - a[1]) / SQRT2, abs=1e-12)
            assert amp(out, 1, 0) == pytest.approx((a[2] + 1j * a[3]) / SQRT2, abs=1e-12)
            assert amp(out, 3, 1) == pytest.approx((a[2] - 1j * a[3]) / SQRT2, abs=1e-12)

    def test_final_state_for_basis_input(self):
        out = run(encode_input([1, 0, 0, 0]), masking_schedule())
        assert amp(out, 1, 0) == pytest.approx(-1j / SQRT2, abs=1e-15)
        assert amp(out, -1, 1) == pytest.approx(-1j / SQRT2, abs=1e-15)

    def test_final_amplitudes_uniform_input(self):
        out = run(encode_input(np.ones(4) / 2), masking_schedule())
        r8 = 2 * SQRT2
        assert amp(out, 1, 0) == pytest.approx((1 - 1j) / r8, abs=1e-15)
        assert amp(out, -1, 1) == pytest.approx(-(1 + 1j) / r8, abs=1e-15)
        assert amp(out, 1, 1) == pytest.approx((1 - 1j) / r8, abs=1e-15)
        assert amp(out, -1, 0) == pytest.approx((1 + 1j) / r8, abs=1e-15)

    def test_positions_stay_in_artifact_window(self, rng):
        a = rng.normal(size=(20, 4))
        a /= np.linalg.norm(a, axis=-1, keepdims=True)
        state = encode_input(a)
        for layer in masking_schedule():
            state = layer.apply(state)
            occupied = state.lo + np.flatnonzero(np.abs(state.amps).max(axis=(0, 2)))
            assert all(-5 <= x <= 5 for x in occupied)

    def test_exact_masker_equality_including_phase(self, rng):
        m = masker_matrix()
        for _ in range(100):
            a = rng.normal(size=4)
            a /= np.linalg.norm(a)
            got = run_masking_walk(a)
            assert np.abs(got - m @ a).max() < 1e-12

    def test_equivalence_for_complex_inputs(self, rng):
        m = masker_matrix()
        for _ in range(100):
            a = rng.normal(size=4) + 1j * rng.normal(size=4)
            a /= np.linalg.norm(a)
            got = run_masking_walk(a)
            assert pure_fidelity(m @ a, got) > 1 - 1e-12


def _worst_masker_infidelity(schedule, a: np.ndarray) -> float:
    return worst_masker_infidelity(encode_input(a), schedule, a)


class TestCrossCheckSharpness:
    """A fault in any coin of the schedule must break the 1e-10 equiv threshold."""

    @pytest.fixture
    def inputs(self, rng):
        a = rng.normal(size=(64, 4))
        return a / np.linalg.norm(a, axis=-1, keepdims=True)

    def test_default_schedule_agrees(self, inputs):
        assert _worst_masker_infidelity(masking_schedule(), inputs) < 1e-10

    def test_every_coin_position_is_injected(self):
        assert len(local_sites(masking_schedule())) == 8

    @pytest.mark.parametrize("step,position", local_sites(masking_schedule()))
    def test_haar_random_coin_is_caught(self, step, position, inputs, rng):
        steps = with_local_at(masking_schedule(), step, position, random_unitary(2, rng))
        assert _worst_masker_infidelity(steps, inputs) > 1e-10

    def test_swapped_c1_c2_is_caught(self, inputs):
        steps = list(masking_schedule())
        c2, c1 = steps[2:4]
        assert (c2.sites, c1.sites) == ({-2}, {2})
        assert np.array_equal(c2.u, COIN_C2) and np.array_equal(c1.u, COIN_C1)
        steps[2:4] = [Local(COIN_C1, {-2}), Local(COIN_C2, {2})]
        assert _worst_masker_infidelity(steps, inputs) > 1e-10

    def test_batch_matches_single_inputs(self, inputs):
        batch = run_masking_walk(inputs)
        for a, got in zip(inputs, batch):
            assert np.array_equal(run_masking_walk(a), got)


@st.composite
def schedules(draw):
    """(start state, steps): a random batch of states on a random window, and
    either random `Local` and `Shift` steps or a shipped layout with two of its
    steps swapped."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    batch, n = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    amps = rng.normal(size=(batch, n, 2)) + 1j * rng.normal(size=(batch, n, 2))
    start = RailState(draw(st.integers(-4, 4)), amps / np.linalg.norm(amps, axis=(-2, -1), keepdims=True))
    if draw(st.booleans()):
        a = rng.normal(size=(batch, 4))
        # The preparation layout of a batch of targets has per-item plates.
        prep = preparation_layout(solve_prep_angles(a / np.linalg.norm(a, axis=-1, keepdims=True)))
        pair = draw(st.sampled_from(("XY", "ZX", "YY")))
        meas = measurement_layout(compile_measurement(pauli_meas_setting(pair[0], pair[1])))
        steps = list(draw(st.sampled_from((masking_schedule(), masking_layout(), prep, meas))))
        i, j = draw(st.integers(0, len(steps) - 1)), draw(st.integers(0, len(steps) - 1))
        steps[i], steps[j] = steps[j], steps[i]
        return start, steps
    steps = []
    for kind in draw(st.lists(st.sampled_from(("local", "shift")), max_size=10)):
        if kind == "shift":  # s0 > s1 swaps the directions of TRANSLATE
            steps.append(Shift(draw(st.integers(-4, 4)), draw(st.integers(-4, 4))))
        else:
            per_item = draw(st.booleans())
            u = np.stack([random_unitary(2, rng) for _ in range(batch)]) if per_item else random_unitary(2, rng)
            steps.append(Local(u, draw(st.none() | st.sets(st.integers(-12, 12), max_size=4))))
    return start, steps


class TestRun:
    @settings(max_examples=200, deadline=None)
    @given(schedules())
    def test_matches_dense_reference(self, schedule):
        start, steps = schedule
        pad = sum(max(abs(step.s0), abs(step.s1)) for step in steps if isinstance(step, Shift))
        want = dense_run(start, steps, pad)
        out = run(start, steps)
        at = out.lo - (start.lo - pad)
        assert 0 <= at and at + out.amps.shape[-2] <= want.shape[-2]
        got = np.zeros_like(want)
        got[..., at:at + out.amps.shape[-2], :] = out.amps
        assert np.abs(got - want).max() < 1e-12

    def test_empty_schedule(self):
        state = encode_input([0, 1, 0, 0])
        out = run(state, ())
        assert out.lo == state.lo and np.array_equal(out.amps, state.amps)

    def test_single_translate(self):
        out = run(rail_state({(0, 1): 1.0}), (TRANSLATE,))
        assert amp(out, 1, 1) == 1.0

    def test_norm_preserved_on_random_schedules(self, rng):
        for _ in range(1000):
            layers = []
            for _ in range(rng.integers(1, 9)):
                if rng.random() < 0.5:
                    layers.append(TRANSLATE)
                else:
                    positions = rng.choice(np.arange(-4, 5), size=rng.integers(1, 4), replace=False)
                    layers.extend(Local(random_unitary(2, rng), {x}) for x in positions)
            start = rail_state({(int(rng.integers(-4, 5)), int(rng.integers(0, 2))): 1.0})
            out = run(start, layers)
            assert np.linalg.norm(out.amps) == pytest.approx(1.0, abs=1e-12)

