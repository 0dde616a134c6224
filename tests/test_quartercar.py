"""Quarter-car model pieces: forces, the road height, slot stepping."""

import struct

import pytest
from hypothesis import example, given, settings, strategies as st

from eccosim import quartercar
from eccosim.control import ConstantStep
from eccosim.master import run_cosimulation
from eccosim.quartercar import (
    LINEAR_PARAMS,
    NONLINEAR_PARAMS,
    ROAD_HEIGHT,
    ChassisExact,
    ChassisSpringDamper,
    QuarterCarParams,
    WheelAssembly,
    WheelOnly,
    build_reticulation,
    preset_params,
    spring_damper_force,
)


def test_presets():
    assert preset_params("linear") is LINEAR_PARAMS
    assert preset_params("nonlinear").d_c == 900.0
    assert preset_params("nonlinear").n_d == 1.5
    assert preset_params("nonlinear").m_c == 400.0
    with pytest.raises(ValueError):
        preset_params("cubic")


def test_params_are_values_of_their_six_knobs():
    # the repr appears in error messages; ==, hash and repr ignore the derived exponent
    assert repr(NONLINEAR_PARAMS) == (
        "QuarterCarParams(m_c=400.0, m_w=40.0, k_c=15000.0, k_w=150000.0, d_c=900.0, n_d=1.5)"
    )
    assert NONLINEAR_PARAMS.damping_exponent == 0.5
    twin = QuarterCarParams(d_c=900.0, n_d=1.5)
    assert twin is not NONLINEAR_PARAMS
    assert twin == NONLINEAR_PARAMS and hash(twin) == hash(NONLINEAR_PARAMS)
    assert twin != LINEAR_PARAMS
    with pytest.raises(AttributeError):
        twin.n_d = 0.5
    with pytest.raises(TypeError):
        QuarterCarParams(c_d=900.0)


@pytest.mark.parametrize("name", ["m_c", "m_w", "k_c", "k_w", "d_c"])
@pytest.mark.parametrize("value", [0.0, -1.0, float("nan"), float("inf"), float("-inf")])
def test_params_refuse_a_mass_stiffness_or_damping_out_of_range(name, value):
    # m_c = 0 once divided by zero in a run; m_w < 0, k_w = 0 and d_c < 0 once ran to the end
    if name == "d_c" and value == 0.0:
        assert QuarterCarParams(d_c=0.0).d_c == 0.0  # an undamped car
        return
    with pytest.raises(ValueError, match=f"^{name} must be finite and "):
        QuarterCarParams(**{name: value})


@pytest.mark.parametrize("n_d", [-0.5, -1.0, float("nan"), float("inf")])
def test_params_refuse_an_exponent_that_is_not_finite_and_positive(n_d):
    # 2 / (1 + 2*n_d) would divide by zero, turn negative, be NaN, or be 0
    with pytest.raises(ValueError, match="n_d"):
        QuarterCarParams(n_d=n_d)


def test_spring_damper_force_examples():
    assert spring_damper_force(0.1, 0.0, 0.0, 0.0, LINEAR_PARAMS) == pytest.approx(1500.0)
    assert spring_damper_force(0.0, 0.0, 1.0, 0.0, LINEAR_PARAMS) == pytest.approx(1000.0)
    # nonlinear preset: exponent 0.5, so dv = 0.25 gives 900 * 0.5
    assert spring_damper_force(0.0, 0.0, 0.25, 0.0, NONLINEAR_PARAMS) == pytest.approx(450.0)
    assert spring_damper_force(0.0, 0.0, -0.25, 0.0, NONLINEAR_PARAMS) == pytest.approx(-450.0)
    assert spring_damper_force(0.0, 0.0, 0.0, 0.0, NONLINEAR_PARAMS) == 0.0


coord = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


@given(z_c=coord, z_w=coord, v_c=coord, v_w=coord)
def test_linear_preset_damping_is_exactly_linear(z_c, z_w, v_c, v_w):
    p = LINEAR_PARAMS
    expected = p.k_c * (z_c - z_w) + p.d_c * (v_c - v_w)
    assert spring_damper_force(z_c, z_w, v_c, v_w, p) == expected


@given(dv=st.floats(min_value=1e-6, max_value=10.0))
@pytest.mark.parametrize("params", [LINEAR_PARAMS, NONLINEAR_PARAMS])
def test_damping_odd_symmetry(params, dv):
    f_pos = spring_damper_force(0.0, 0.0, dv, 0.0, params)
    f_neg = spring_damper_force(0.0, 0.0, -dv, 0.0, params)
    assert f_neg == -f_pos


def test_initial_tyre_energy_matches_controller_energy_scale():
    from eccosim.bench import ExperimentConfig

    e0 = 0.5 * LINEAR_PARAMS.k_w * ROAD_HEIGHT**2
    assert e0 == pytest.approx(750.0, rel=1e-12)
    assert ExperimentConfig().e0 == pytest.approx(e0, rel=1e-12)


def test_chassis_exact_free_drift():
    s1 = ChassisExact(LINEAR_PARAMS)
    s1.z_c, s1.v_c = 0.2, 0.5
    s1.set_inputs([0.0])
    s1.do_step(0.0, 1e-3)
    assert s1.v_c == 0.5
    assert s1.z_c == pytest.approx(0.2 + 0.5e-3, rel=1e-15)


def test_chassis_exact_held_force():
    s1 = ChassisExact(LINEAR_PARAMS)
    s1.set_inputs([-400.0])
    s1.do_step(0.0, 1e-3)
    assert s1.v_c == pytest.approx(-1.0e-3, rel=1e-12)
    assert s1.get_outputs() == (s1.v_c,)


def test_chassis_exact_matches_fine_euler_oracle():
    # brute-force micro-integration with h = 1e-7 over one macro step
    z0, v0, u, dt = 0.013, -0.42, 731.0, 1e-3
    h = 1e-7
    a = u / LINEAR_PARAMS.m_c
    z, v = z0, v0
    for _ in range(int(round(dt / h))):
        z += h * v
        v += h * a
    s1 = ChassisExact(LINEAR_PARAMS)
    s1.z_c, s1.v_c = z0, v0
    s1.set_inputs([u])
    s1.do_step(0.0, dt)
    assert s1.v_c == pytest.approx(v, rel=1e-9)
    assert s1.z_c == pytest.approx(z, abs=1e-9)


def test_wheel_assembly_single_substep_hand_check():
    s2 = WheelAssembly(LINEAR_PARAMS, micro_steps=1)
    s2.set_inputs([0.0])
    s2.do_step(0.0, 1e-3)
    # F_w = -15000 N at the start, so v_w += h * 15000 / 40
    assert s2.v_w == pytest.approx(1e-3 * 15000.0 / 40.0, rel=1e-15)
    assert s2.z_w == 0.0  # position update used the start-of-substep velocity
    assert s2.z_c_int == 0.0


def test_wheel_only_low_accuracy_variant():
    s2 = WheelOnly(LINEAR_PARAMS, micro_steps=1)
    assert s2.micro_step_ratio == 1
    s2.set_inputs([0.0])
    s2.do_step(0.0, 1e-3)
    assert s2.v_w == pytest.approx(0.375, rel=1e-15)


def test_chassis_spring_damper_first_substep():
    s1 = ChassisSpringDamper(LINEAR_PARAMS, micro_steps=1)
    s1.z_c = 0.01
    s1.set_inputs([0.0])
    expected_force = LINEAR_PARAMS.k_c * 0.01
    assert s1.get_outputs() == (pytest.approx(expected_force),)
    s1.do_step(0.0, 1e-3)
    assert s1.v_c == pytest.approx(-1e-3 * expected_force / 400.0, rel=1e-12)


def _bits(*values):
    return [struct.pack("d", v) for v in values]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    params=st.sampled_from([LINEAR_PARAMS, NONLINEAR_PARAMS]),
    a=st.floats(),
    b=st.floats(),
    v=st.floats(),
    u=st.floats(),
    dt=st.floats(min_value=1e-6, max_value=0.1),
)
@example(params=LINEAR_PARAMS, a=0.01, b=0.0, v=0.3, u=float("nan"), dt=1e-3)
@example(params=LINEAR_PARAMS, a=-0.0, b=0.0, v=0.0, u=-0.0, dt=1e-3)
@example(params=LINEAR_PARAMS, a=5e-324, b=-5e-324, v=5e-324, u=-5e-324, dt=1e-3)
@example(params=NONLINEAR_PARAMS, a=-0.0, b=0.0, v=-5e-324, u=0.0, dt=1e-3)
def test_one_micro_step_equals_the_law_bit_for_bit(params, a, b, v, u, dt):
    # the same Euler step written with spring_damper_force; packing counts -0.0 and NaN
    p, h = params, dt
    s2 = WheelAssembly(p, micro_steps=1)
    s2.z_c_int, s2.z_w, s2.v_w = a, b, v
    s2.set_inputs([u])
    s2.do_step(0.0, dt)
    f_c = spring_damper_force(a, b, u, v, p)
    f_w = p.k_w * (b - ROAD_HEIGHT)
    expected = (a + h * u, b + h * v, v + h * (f_c - f_w) / p.m_w)
    assert _bits(s2.z_c_int, s2.z_w, s2.v_w) == _bits(*expected)

    s1 = ChassisSpringDamper(p, micro_steps=1)
    s1.z_c, s1.v_c, s1.z_w_int = a, v, b
    s1.set_inputs([u])
    s1.do_step(0.0, dt)
    f_c = spring_damper_force(a, b, v, u, p)
    expected = (a + h * v, v + h * (-f_c) / p.m_c, b + h * u)
    assert _bits(s1.z_c, s1.v_c, s1.z_w_int) == _bits(*expected)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    params=st.sampled_from([LINEAR_PARAMS, NONLINEAR_PARAMS]),
    a=st.floats(),
    b=st.floats(),
    v=st.floats(),
    u=st.floats(),
)
@example(params=LINEAR_PARAMS, a=0.01, b=0.0, v=0.3, u=float("nan"))
@example(params=LINEAR_PARAMS, a=-0.0, b=0.0, v=0.0, u=-0.0)
@example(params=LINEAR_PARAMS, a=-0.0, b=0.0, v=-0.0, u=0.0)
@example(params=LINEAR_PARAMS, a=5e-324, b=-5e-324, v=5e-324, u=-5e-324)
@example(params=NONLINEAR_PARAMS, a=-0.0, b=0.0, v=-5e-324, u=0.0)
def test_force_outputs_equal_the_law_bit_for_bit(params, a, b, v, u):
    # the force slots' outputs written with spring_damper_force; packing counts -0.0 and NaN
    s2 = WheelAssembly(params)
    s2.z_c_int, s2.z_w, s2.v_w = a, b, v
    s2.set_inputs([u])
    assert _bits(*s2.get_outputs()) == _bits(spring_damper_force(a, b, u, v, params))

    s1 = ChassisSpringDamper(params)
    s1.z_c, s1.v_c, s1.z_w_int = a, v, b
    s1.set_inputs([u])
    assert _bits(*s1.get_outputs()) == _bits(spring_damper_force(a, b, v, u, params))


@pytest.mark.parametrize("reticulation", ["A", "B"])
@pytest.mark.parametrize("params", [LINEAR_PARAMS, NONLINEAR_PARAMS])
def test_linear_micro_steps_make_no_law_calls(monkeypatch, reticulation, params):
    # the linear law is in-line in the micro steps; the force-output slot's get_outputs
    # calls it per step and once at t = 0, and its nonlinear micro steps per micro step
    calls = []
    law = quartercar.spring_damper_force

    def counted(*args):
        calls.append(args)
        return law(*args)

    monkeypatch.setattr(quartercar, "spring_damper_force", counted)
    slots, bonds = build_reticulation(reticulation, params)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.05)
    assert record.step_count == 50
    expected = 50 * (1 if params is LINEAR_PARAMS else 10 + 1) + 1
    assert len(calls) == expected


def test_micro_step_halving_is_first_order():
    # successive differences of the end state shrink by ~2 per halving
    def final_state(micro):
        s2 = WheelAssembly(LINEAR_PARAMS, micro_steps=micro)
        s2.set_inputs([0.3])
        t = 0.0
        for _ in range(10):
            s2.do_step(t, 1e-3)
            t += 1e-3
        return s2.z_w

    e10, e20, e40 = final_state(10), final_state(20), final_state(40)
    ratio = (e10 - e20) / (e20 - e40)
    assert 1.5 <= ratio <= 2.5


@pytest.mark.parametrize("params", [LINEAR_PARAMS, NONLINEAR_PARAMS])
def test_cosimulation_reconstruction_drift_vanishes(params):
    # the wheel side's reconstructed chassis displacement drifts by O(dt)
    def drift(dt):
        slots, bonds = build_reticulation("A", params)
        run_cosimulation(slots, bonds, ConstantStep(dt), 0.5)
        return abs(slots[1].z_c_int - slots[0].z_c)

    d2, d1, d05 = drift(2e-3), drift(1e-3), drift(0.5e-3)
    assert d05 < d1 < d2
    assert 1.4 <= d2 / d1 <= 2.8
    assert 1.4 <= d1 / d05 <= 2.8


def test_step_counters_count_macro_steps():
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.05)
    assert slots[0].step_calls == record.step_count == 50
    assert slots[1].step_calls == 50


def test_invalid_micro_steps_rejected():
    # a count has no upper cap: the master bounds the micro steps a run plans
    for cls in (WheelAssembly, ChassisSpringDamper, WheelOnly):
        for bad in (0, -1, 2.5):
            with pytest.raises(ValueError, match=f"at least 1, got {bad}"):
                cls(LINEAR_PARAMS, micro_steps=bad)
        assert cls(LINEAR_PARAMS, micro_steps=10**9).micro_step_ratio == 10**9
    with pytest.raises(ValueError):
        build_reticulation("C", LINEAR_PARAMS)
