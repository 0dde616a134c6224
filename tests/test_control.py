"""Step-size policies: indicators, PI update, clamps, extrapolation."""

import math
import struct

import pytest
from hypothesis import given, settings, strategies as st

from eccosim.control import (
    EPS_FLOOR,
    ConstantStep,
    OutputExtrapolationIndicator,
    PIConfig,
    PIController,
    ResidualEnergyIndicator,
    ecco_indicator,
    pc_indicator,
    pi_step_size,
    predict_outputs,
)
from eccosim.energy import BOND_FIELDS
from eccosim.model import SimulatorFailure


def entry(dE_res, E_step, dt=1e-3):
    """One bond's ledger values for one step, in ``BOND_FIELDS`` order."""
    values = dict(
        P_port1=0.0, P_port2=0.0, P_12=E_step / dt,
        dP_res=dE_res / dt, dE_res=dE_res, E_step=E_step, E_res_accum=dE_res,
    )
    return tuple(values[name] for name in BOND_FIELDS)


def test_config_validation():
    with pytest.raises(ValueError):
        PIConfig(dt_min=1e-2, dt_max=1e-3)
    with pytest.raises(ValueError):
        PIConfig(theta_min=1.2)
    with pytest.raises(ValueError):
        PIConfig(alpha_s=0.0)
    with pytest.raises(ValueError):
        ResidualEnergyIndicator(rel_tol=0.0)
    with pytest.raises(ValueError):
        ResidualEnergyIndicator(energy_scale=[750.0, -1.0])
    with pytest.raises(ValueError):
        OutputExtrapolationIndicator(tol=-0.5)
    with pytest.raises(ValueError):
        OutputExtrapolationIndicator(rho=-1e-4)
    OutputExtrapolationIndicator(rho=0.0)  # pure absolute error is allowed


def test_derived_gains():
    # 0.3/(m+2), 0.4/(m+2) at m = 0 and 0.3/r, 0.4/r at r = 1, as the same doubles
    assert ResidualEnergyIndicator.k_i == pytest.approx(0.15) == 0.3 / 2
    assert ResidualEnergyIndicator.k_p == pytest.approx(0.2) == 0.4 / 2
    assert OutputExtrapolationIndicator.k_i == pytest.approx(0.3)
    assert OutputExtrapolationIndicator.k_p == pytest.approx(0.4)
    assert PIController(ResidualEnergyIndicator()).name == "ecco"
    assert PIController(OutputExtrapolationIndicator()).name == "predictor_corrector"


def test_ecco_indicator_normalization_point():
    r, e0, e = 2.5e-6, 750.0, -0.3
    de = r * (e0 + abs(e))
    assert ecco_indicator([entry(de, e)], [r], [e0]) == 1.0


def test_ecco_indicator_zero_and_rms():
    assert ecco_indicator([entry(0.0, 1.0), entry(0.0, -1.0)], [1.0, 1.0], [1.0, 1.0]) == 0.0
    # terms 0.6 and 0.8 with unit scales
    eps = ecco_indicator([entry(0.6, 0.0), entry(0.8, 0.0)], [1.0, 1.0], [1.0, 1.0])
    assert eps == pytest.approx(math.sqrt(0.5), rel=1e-15)
    assert eps == pytest.approx(0.7071, rel=1e-4)


def test_ecco_indicator_tolerance_scaling():
    bonds, r, e0 = [entry(0.37, 5.0), entry(-0.11, -3.0)], [1e-5, 2e-5], [750.0, 10.0]
    base = ecco_indicator(bonds, r, e0)
    assert ecco_indicator(bonds, [2.0 * x for x in r], e0) == base / 2.0
    assert ecco_indicator(bonds, [3.0 * x for x in r], e0) == pytest.approx(
        base / 3.0, rel=1e-14
    )


_bond = st.tuples(
    st.floats(min_value=-1e3, max_value=1e3),  # dE_res
    st.floats(min_value=-1e6, max_value=1e6),  # E_step
    st.floats(min_value=1e-9, max_value=1e-2),  # rel_tol
    st.floats(min_value=1e-3, max_value=1e4),  # energy_scale
)


@settings(derandomize=True, max_examples=200)
@given(bonds=st.lists(_bond, min_size=1, max_size=5))
def test_ecco_indicator_matches_hand_formula(bonds):
    steps = [entry(de, e) for de, e, _, _ in bonds]
    r = [b[2] for b in bonds]
    e0 = [b[3] for b in bonds]
    k = len(bonds)
    hand = math.sqrt(math.fsum((de / (rk * (ek + abs(e)))) ** 2 for de, e, rk, ek in bonds) / k)
    assert ecco_indicator(steps, r, e0) == pytest.approx(hand, rel=1e-15)
    with pytest.raises(ValueError):
        ecco_indicator(steps, r[:-1], e0)
    with pytest.raises(ValueError):
        ecco_indicator(steps, r, e0 + [750.0])


BOUNDS = dict(alpha_s=0.8, dt_min=1e-4, dt_max=1e-2, theta_min=0.2, theta_max=1.5)


def test_pi_step_size_unit_indicator_leaves_safety_factor():
    assert pi_step_size(1.0, 1.0, 1e-3, 0.15, 0.2, **BOUNDS) == pytest.approx(
        0.8e-3, rel=1e-15
    )


def test_pi_step_size_closed_form_example():
    # eps_now=0.5, eps_prev=1: growth factor 0.8 * 0.5**(-0.35) ~ 1.0197
    out = pi_step_size(0.5, 1.0, 1e-3, 0.15, 0.2, **BOUNDS)
    assert out == pytest.approx(1.0197e-3, rel=1e-4)


def test_pi_step_size_ratio_clamp_binds_before_absolute():
    out = pi_step_size(1e-12, 1.0, 1e-3, 0.15, 0.2, **BOUNDS)
    assert out == pytest.approx(1.5e-3, rel=1e-15)


def test_pi_step_size_absolute_bounds_win_when_disjoint():
    # theta interval [0.2, 1.5] us lies entirely below dt_min
    out = pi_step_size(1e6, 1.0, 1e-6, 0.15, 0.2, **BOUNDS)
    assert out == BOUNDS["dt_min"]


@settings(max_examples=300)
@given(
    eps_now=st.floats(min_value=0.0, max_value=1e6),
    eps_prev=st.floats(min_value=0.0, max_value=1e6),
    dt=st.floats(min_value=1e-6, max_value=1.0),
)
def test_pi_step_size_clamp_postcondition(eps_now, eps_prev, dt):
    out = pi_step_size(eps_now, eps_prev, dt, 0.15, 0.2, **BOUNDS)
    lo = max(BOUNDS["dt_min"], BOUNDS["theta_min"] * dt)
    hi = min(BOUNDS["dt_max"], BOUNDS["theta_max"] * dt)
    if lo <= hi:
        assert lo <= out <= hi
    else:
        assert BOUNDS["dt_min"] <= out <= BOUNDS["dt_max"]


def test_pi_step_size_monotone_in_current_indicator():
    wide = dict(alpha_s=0.8, dt_min=1e-12, dt_max=1e6, theta_min=1e-9, theta_max=1e9)
    eps = [1e-6, 1e-4, 1e-2, 0.5, 1.0, 2.0, 10.0]
    outs = [pi_step_size(e, 0.7, 1e-3, 0.15, 0.2, **wide) for e in eps]
    assert all(a > b for a, b in zip(outs, outs[1:]))


def test_predict_outputs_linear_identity():
    hist = [(0.0, (1.0, -2.0)), (0.5, (2.0, 1.0))]
    pred = predict_outputs(hist, 1.0)
    assert pred[0] == pytest.approx(2 * 2.0 - 1.0, rel=1e-15)
    assert pred[1] == pytest.approx(2 * 1.0 - (-2.0), rel=1e-15)


def test_predict_outputs_constant_history():
    hist = [(0.0, (3.25,)), (0.7, (3.25,))]
    assert predict_outputs(hist, 2.0) == [3.25]


def test_predict_outputs_quadratic_signal_underestimates():
    hist = [(0.0, (0.0,)), (1.0, (1.0,))]
    assert predict_outputs(hist, 2.0) == [2.0]  # true value 4


def test_predict_outputs_exact_on_affine_nonuniform():
    a, b = -0.7, 2.3
    hist = [(0.1, (a + b * 0.1,)), (0.17, (a + b * 0.17,))]
    for t in (0.3, 0.55, 1.0):
        assert predict_outputs(hist, t)[0] == pytest.approx(a + b * t, rel=1e-12)


def test_pc_indicator_examples():
    assert pc_indicator([1.0, -2.0], [1.0, -2.0], [1.0, 1.0], [0.0, 0.0]) == 0.0
    eps = pc_indicator([0.1, -0.3], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0])
    assert eps == pytest.approx(0.3, rel=1e-15)
    eps = pc_indicator([1000.0], [999.0], [0.5], [1e-4])
    assert eps == pytest.approx(1.818, rel=1e-3)


def test_pc_indicator_is_scale_sensitive():
    y, pred = [1.0, 1000.0], [1.2, 995.0]
    base = pc_indicator(y, pred, [1.0, 1.0], [1e-4, 1e-4])
    lam = 1e3
    scaled = pc_indicator(
        [y[0] / lam, y[1] * lam], [pred[0] / lam, pred[1] * lam], [1.0, 1.0], [1e-4, 1e-4]
    )
    assert abs(scaled - base) > 1e-3 * base


def test_pc_indicator_per_output_tolerances():
    # individual tolerances re-weight which output dominates the maximum
    y, pred = [1.1, 1000.0], [1.0, 990.0]
    uniform = pc_indicator(y, pred, [1.0, 1.0], [0.0, 0.0])
    assert uniform == pytest.approx(10.0, rel=1e-12)  # force miss dominates
    weighted = pc_indicator(y, pred, [1.0, 1000.0], [0.0, 0.0])
    assert weighted == pytest.approx(0.1, rel=1e-12)  # velocity miss dominates


def test_indicators_reject_mismatched_vectors():
    with pytest.raises(ValueError):
        ecco_indicator([entry(0.1, 1.0), entry(0.2, 1.0)], [1e-5], [750.0, 750.0])
    with pytest.raises(ValueError):
        pc_indicator([1.0, 2.0, 3.0], [1.0, 2.0], [1.0, 1.0], [0.0, 0.0])


def test_broadcast_rejects_wrong_length():
    # widths come from the stacked outputs at start: two per bond
    with pytest.raises(ValueError):
        PIController(OutputExtrapolationIndicator(tol=[1.0, 2.0, 3.0])).start([0.0] * 2)
    with pytest.raises(ValueError):
        PIController(ResidualEnergyIndicator(rel_tol=[1e-5, 1e-6])).start([0.0] * 2)
    pol = PIController(OutputExtrapolationIndicator(tol=[0.5, 2.0], rho=1e-4))
    pol.start([0.0, 0.0])
    assert pol.indicator.output_tol == (0.5, 2.0)
    assert pol.indicator.output_rho == (1e-4, 1e-4)


def test_constant_policy_keeps_dt():
    pol = ConstantStep(1e-3)
    assert pol.start([]) == 1e-3
    dt, eps = pol.next_step(1e-3, 1e-3, (entry(0.1, 0.2),), [0.0])
    assert (dt, eps) == (1e-3, 0.0)


@pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf"), float("-inf")])
def test_constant_policy_rejects_non_finite_or_non_positive_step(bad):
    with pytest.raises(ValueError, match="finite and positive"):
        ConstantStep(bad)


def test_ecco_controller_defaults_and_floor():
    pol = PIController(ResidualEnergyIndicator(rel_tol=1e-5), PIConfig())
    dt0 = pol.start([0.0, 0.0])
    assert dt0 == pol.config.dt_min
    assert pol.eps_prev == 1.0
    dt1, eps = pol.next_step(dt0, dt0, (entry(0.0, 0.0, dt=dt0),), [0.0, 0.0])
    assert eps == 0.0
    assert pol.eps_prev == EPS_FLOOR  # floored, never zero
    assert dt1 == pytest.approx(pol.config.theta_max * dt0, rel=1e-12)


def test_ecco_controller_rejects_out_of_band_dt0():
    for bad in (1.0, 1e-5, float("nan")):
        with pytest.raises(ValueError, match=r"dt0=.* outside \[0.0001, 0.01\]"):
            PIController(ResidualEnergyIndicator(), PIConfig(), dt0=bad)
    assert PIController(ResidualEnergyIndicator(), PIConfig(), dt0=3e-4).start([0.0, 0.0]) == 3e-4


def test_ecco_tolerance_product_underflow_rejected_at_start():
    # r * E0 == 0.0 would divide by zero in the first indicator evaluation
    with pytest.raises(ValueError, match="underflows"):
        ResidualEnergyIndicator(rel_tol=1e-200, energy_scale=1e-200).start([0.0, 0.0])
    tiny = ResidualEnergyIndicator(rel_tol=1e-160, energy_scale=1e-160)
    tiny.start([0.0, 0.0])  # subnormal but nonzero: accepted
    assert tiny(1e-4, (entry(0.0, 0.0),), [0.0, 0.0]) == 0.0


def test_ecco_controller_nonfinite_indicator():
    pol = PIController(ResidualEnergyIndicator(), PIConfig())
    pol.start([0.0, 0.0])
    with pytest.raises(SimulatorFailure, match="ecco indicator is nan at t=0.0001"):
        pol.next_step(1e-4, 1e-4, (entry(float("nan"), 0.0),), [0.0, 0.0])


def test_predictor_corrector_startup_skips_indicator():
    pol = PIController(OutputExtrapolationIndicator(tol=0.5), PIConfig())
    dt0 = pol.start([0.0])
    assert dt0 == pol.config.dt_min
    dt1, eps1 = pol.next_step(dt0, dt0, (), [1.0])
    assert (dt1, eps1) == (dt0, 0.0)  # history too short: keep dt, skip indicator
    assert pol.eps_prev == 1.0  # start-up leaves the PI memory alone
    # outputs 0, 1, 2 at equal spacing are affine: prediction is exact
    dt2, eps2 = pol.next_step(2 * dt0, dt0, (), [2.0])
    assert eps2 == 0.0
    assert dt2 == pytest.approx(pol.config.theta_max * dt0, rel=1e-12)


def test_predictor_corrector_tracks_prediction_miss():
    cfg = PIConfig()
    pol = PIController(OutputExtrapolationIndicator(tol=1.0, rho=0.0), cfg, dt0=1e-3)
    assert pol.start([0.0]) == 1e-3
    pol.next_step(1e-3, 1e-3, (), [1.0])  # startup
    # affine continuation: miss is zero, step grows by theta_max
    dt, eps = pol.next_step(2e-3, 1e-3, (), [2.0])
    assert eps == 0.0
    assert dt == pytest.approx(cfg.theta_max * 1e-3, rel=1e-12)
    # now a deviation of 0.5 from the affine prediction of 3.5 at t=3.5e-3
    dt2, eps2 = pol.next_step(3.5e-3, 1.5e-3, (), [4.0])
    assert eps2 == pytest.approx(0.5, rel=1e-12)


class _Scripted:
    """Indicator returning the errors in ``eps``, one per step."""

    name = "scripted"
    k_i = 0.11
    k_p = 0.07

    def __init__(self, eps):
        self.eps = eps

    def start(self, outputs):
        self.left = iter(self.eps)

    def __call__(self, t_next, bond_steps, outputs):
        return next(self.left)


def test_pi_controller_steps_exactly_as_pi_step_size():
    # distinct values in every slot, so a misordered bound tuple shows
    cfg = PIConfig(alpha_s=0.9, dt_min=2e-5, dt_max=5e-2, theta_min=0.3, theta_max=1.7)
    eps_seq = [None, 0.5, 2.0, 0.0, EPS_FLOOR, 1e-14, 37.0, 1.0, 1e4, 0.03, 0.8]
    pol = PIController(_Scripted(eps_seq), cfg, dt0=1e-3)
    dt = pol.start([0.0, 0.0])
    eps_prev, t = 1.0, 0.0
    for eps in eps_seq:
        t += dt
        dt_next, logged = pol.next_step(t, dt, (), [0.0, 0.0])
        if eps is None:
            assert (dt_next, logged) == (dt, 0.0)
            continue
        want = pi_step_size(
            eps, eps_prev, dt, _Scripted.k_i, _Scripted.k_p,
            cfg.alpha_s, cfg.dt_min, cfg.dt_max, cfg.theta_min, cfg.theta_max,
        )
        assert struct.pack("<dd", dt_next, logged) == struct.pack("<dd", want, eps)
        eps_prev = max(eps, EPS_FLOOR)
        assert pol.eps_prev == eps_prev
        dt = dt_next
