"""Reference solver self-checks and error metrics."""

import numpy as np
import pytest

from eccosim.control import ConstantStep
from eccosim.master import run_cosimulation
from eccosim.quartercar import (
    LINEAR_PARAMS,
    NONLINEAR_PARAMS,
    QuarterCarParams,
    build_reticulation,
)
from eccosim.reference import (
    NoOnsetInRange,
    ReferenceTrajectory,
    TimeRangeMismatch,
    damper_dissipation,
    linear_exact_states,
    local_power_error,
    reference_solve,
    stability_scan,
    step_size_sweep,
    summarize,
)
from eccosim.reference import _DP_TOL, _damping_force_arrays, _solve_adaptive, _solve_linear


def _p0_12(params, states):
    """Reticulation A bond power of state rows ``(z_c, v_c, z_w, v_w)``."""
    z_c, v_c, z_w, v_w = states
    return (params.k_c * (z_c - z_w) + _damping_force_arrays(params, v_c - v_w)) * v_c


def test_local_power_error_examples():
    assert local_power_error(-100.0, -100.0) == 0.0
    assert local_power_error(-90.0, -100.0) == 10.0


def test_static_equilibrium():
    ref = reference_solve(LINEAR_PARAMS, 4.0)
    assert ref.z_c[-1] == pytest.approx(0.1, abs=1e-3)
    assert ref.z_w[-1] == pytest.approx(0.1, abs=1e-3)
    assert abs(ref.v_c[-1]) < 1e-2
    assert ref.F_c[-1] == pytest.approx(0.0, abs=20.0)


def test_total_dissipation_equals_initial_tyre_energy():
    # all 750 J initially stored in the tyre spring end up in the damper
    ref = reference_solve(LINEAR_PARAMS, 8.0)
    assert damper_dissipation(ref) == pytest.approx(750.0, rel=1e-3)


def test_matrix_exponential_cross_check():
    ref = reference_solve(LINEAR_PARAMS, 5.0)
    times = [0.1, 1.0, 5.0]
    exact = linear_exact_states(LINEAR_PARAMS, times)
    for row, t in zip(exact, times):
        i = ref.index_at(t)
        solved = np.array([ref.z_c[i], ref.v_c[i], ref.z_w[i], ref.v_w[i]])
        scale = np.maximum(np.abs(row), 1e-3)
        assert np.max(np.abs(solved - row) / scale) < 1e-7


def test_linear_exact_states_requires_linear_damping():
    with pytest.raises(ValueError):
        linear_exact_states(NONLINEAR_PARAMS, [1.0])


def test_grid_self_convergence_linear():
    coarse = reference_solve(LINEAR_PARAMS, 1.0, h_ref=1e-5)
    fine = reference_solve(LINEAR_PARAMS, 1.0, h_ref=5e-6)
    scale = np.max(np.abs(fine.P0_12))
    diff = np.max(np.abs(coarse.P0_12 - fine.P0_12[::2]))
    assert diff / scale < 1e-8


def test_grid_self_convergence_nonlinear():
    # the square-root damping limits the attainable order near velocity crossings
    coarse = reference_solve(NONLINEAR_PARAMS, 1.0, h_ref=1e-5)
    fine = reference_solve(NONLINEAR_PARAMS, 1.0, h_ref=5e-6)
    scale = np.max(np.abs(fine.P0_12))
    diff = np.max(np.abs(coarse.P0_12 - fine.P0_12[::2]))
    assert diff / scale < 1e-4


def test_adaptive_oracle_converges_with_its_tolerance():
    # on a fixed grid the nonlinear check above compares one solution with itself
    n = 100_000
    loose = _p0_12(NONLINEAR_PARAMS, _solve_adaptive(NONLINEAR_PARAMS, n, 1e-5))
    tight = _p0_12(NONLINEAR_PARAMS, _solve_adaptive(NONLINEAR_PARAMS, n, 1e-5, tol=_DP_TOL / 100))
    assert np.max(np.abs(loose - tight)) / np.max(np.abs(tight)) < 1e-6


def test_adaptive_oracle_matches_affine_rk4_on_linear_preset():
    n = 100_000
    rk4 = _p0_12(LINEAR_PARAMS, _solve_linear(LINEAR_PARAMS, n, 1e-5))
    adaptive = _p0_12(LINEAR_PARAMS, _solve_adaptive(LINEAR_PARAMS, n, 1e-5))
    assert np.max(np.abs(adaptive - rk4)) / np.max(np.abs(rk4)) < 1e-8


@pytest.mark.parametrize("t_end, h_ref", [
    (0.0, 1e-5), (-1.0, 1e-5), (float("nan"), 1e-5), (float("inf"), 1e-5),
    (1.0, 0.0), (1.0, -1e-5), (1.0, float("nan")), (1.0, float("inf")),
])
def test_reference_rejects_bad_horizon_or_grid(t_end, h_ref):
    with pytest.raises(ValueError, match="finite and positive"):
        reference_solve(LINEAR_PARAMS, t_end, h_ref)


@pytest.mark.parametrize("n_d", [0.5, 1.5])
def test_reference_raises_on_non_finite_model(n_d):
    # linear (n_d = 0.5) and adaptive (n_d = 1.5) paths both fail instead of spinning
    with pytest.raises(ValueError, match="non-finite"):
        reference_solve(QuarterCarParams(d_c=float("nan"), n_d=n_d), 0.1)


@pytest.mark.parametrize("reticulation", ["A", "B"])
def test_reference_port_powers_balance_exactly(reticulation):
    ref = reference_solve(LINEAR_PARAMS, 1.0, reticulation=reticulation)
    for i in (0, 1, 10_000, 100_000):
        p1, p2 = ref.port_powers_at(i)
        assert p1 + p2 == 0.0


def test_index_lookup_and_bounds():
    ref = reference_solve(LINEAR_PARAMS, 1.0)
    assert ref.index_at(0.0) == 0
    assert ref.index_at(0.5) == 50_000
    with pytest.raises(TimeRangeMismatch):
        ref.index_at(2.0)


def test_summarize_run_against_itself_is_error_free():
    slots, graph = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, graph, ConstantStep(1e-3), 0.2)
    # synthetic reference whose dense samples replay the run's own bond power
    n = 200
    p0 = np.zeros(n + 1)
    for i, row in enumerate(record.rows):
        p0[i + 1] = row.bonds[0].P_12
    fake = ReferenceTrajectory(
        params=LINEAR_PARAMS,
        reticulation="A",
        h_ref=1e-3,
        t=np.arange(n + 1) * 1e-3,
        z_c=np.zeros(n + 1),
        v_c=np.zeros(n + 1),
        z_w=np.zeros(n + 1),
        v_w=np.zeros(n + 1),
        F_c=np.zeros(n + 1),
        P0_12=p0,
    )
    summary = summarize(record, fake)
    assert summary.mean_abs_dP == 0.0
    assert summary.step_count == 200


def test_summarize_is_policy_agnostic():
    slots, graph = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, graph, ConstantStep(1e-3), 0.2)
    ref = reference_solve(LINEAR_PARAMS, 0.2)
    summary_a = summarize(record, ref)
    record.policy = "renamed-controller"
    summary_b = summarize(record, ref)
    assert summary_a == summary_b


def test_summarize_rejects_short_reference():
    slots, graph = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, graph, ConstantStep(1e-3), 0.5)
    short = reference_solve(LINEAR_PARAMS, 0.2)
    with pytest.raises(TimeRangeMismatch):
        summarize(record, short)


def test_summarize_accepts_longer_reference():
    slots, graph = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, graph, ConstantStep(1e-3), 0.2)
    long_ref = reference_solve(LINEAR_PARAMS, 1.0)
    summary = summarize(record, long_ref)
    assert summary.step_count == 200
    assert summary.mean_abs_dP > 0.0
    assert summary.mean_P12 == pytest.approx(record.mean_p12(), rel=1e-12)
    assert summary.mean_dt == record.mean_dt()


def test_step_size_sweep_monotone():
    points = step_size_sweep([2e-3, 1e-3, 5e-4], LINEAR_PARAMS, "A", t_end=1.0)
    assert [p.dt for p in points] == [2e-3, 1e-3, 5e-4]
    assert points[0].mean_abs_dP > points[1].mean_abs_dP > points[2].mean_abs_dP > 0
    assert points[0].residual_estimate > points[1].residual_estimate > 0


def test_stability_scan_requires_bracketing():
    with pytest.raises(NoOnsetInRange):
        stability_scan(LINEAR_PARAMS, "A", 1e-3, 2e-3, t_scan=3.0)
    with pytest.raises(NoOnsetInRange):
        stability_scan(LINEAR_PARAMS, "B", 0.05, 0.08, t_scan=3.0)


def test_working_point_is_stable():
    # 1 ms constant steps run cleanly in both reticulations
    for kind in ("A", "B"):
        slots, graph = build_reticulation(kind, LINEAR_PARAMS)
        record = run_cosimulation(slots, graph, ConstantStep(1e-3), 1.0)
        assert record.complete
        assert all(abs(v) < 1.0 for v in record.rows[-1].probes.values())
