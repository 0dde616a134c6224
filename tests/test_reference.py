"""Reference solver self-checks and error metrics."""

import gc
import math
import struct
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from oracle_checks import (
    bond_powers_at_tolerance,
    damper_dissipation,
    generic_solve,
    linear_exact_states,
    scipy_states,
)

from eccosim.bench import ExperimentConfig, NoOnsetInRange, stability_scan, step_size_sweep
from eccosim.control import ConstantStep
from eccosim.master import RunRecord, run_cosimulation
from eccosim.quartercar import (
    LINEAR_PARAMS,
    NONLINEAR_PARAMS,
    QuarterCarParams,
    build_reticulation,
    spring_damper_force,
)
from eccosim.reference import (
    _DP_TOL,
    _STEP_WIDTH,
    ReferenceTrajectory,
    TimeRangeMismatch,
    _solve,
    pairwise_sum,
    reference_solve,
    summarize,
)

#: Sample times every 10 us over the first second.
GRID = [k * 1e-5 for k in range(100_001)]


def _bond_powers(params, tol=_DP_TOL, times=GRID):
    return bond_powers_at_tolerance(params, 1.0, tol, times)


def _max_rel_diff(a, b):
    """Largest difference of two sampled signals, relative to the peak of ``b``."""
    return max(abs(x - y) for x, y in zip(a, b)) / max(map(abs, b))


def _bits(x):
    return struct.pack("<d", x)


def test_equal_params_share_one_cached_solve():
    # the solve is cached per (params, t_end): an equal copy of the params is a hit
    reference_solve(NONLINEAR_PARAMS, 0.05)
    hits = _solve.cache_info().hits
    ref = reference_solve(QuarterCarParams(d_c=900.0, n_d=1.5), 0.05, reticulation="B")
    assert _solve.cache_info().hits == hits + 1
    assert ref.t is reference_solve(NONLINEAR_PARAMS, 0.05).t


@settings(deadline=None)
@given(st.integers(0, 1000).flatmap(lambda n: st.lists(st.floats(-1e200, 1e200), min_size=n, max_size=n)))
def test_pairwise_sum_matches_numpy_bit_for_bit(xs):
    assert _bits(pairwise_sum(xs)) == _bits(float(np.sum(np.array(xs, dtype=float))))


def test_pairwise_sum_matches_numpy_on_a_long_run():
    rng = np.random.default_rng(40_000)
    xs = (rng.standard_normal(40_000) * 10.0 ** rng.uniform(-8, 8, 40_000)).tolist()
    assert _bits(pairwise_sum(xs)) == _bits(float(np.sum(np.array(xs))))
    assert _bits(pairwise_sum([-0.0] * 9)) == _bits(float(np.sum(np.array([-0.0] * 9))))


def test_static_equilibrium():
    ref = reference_solve(LINEAR_PARAMS, 4.0)
    z_c, v_c, z_w, v_w = ref.states_at(4.0)
    assert z_c == pytest.approx(0.1, abs=1e-3)
    assert z_w == pytest.approx(0.1, abs=1e-3)
    assert abs(v_c) < 1e-2
    assert spring_damper_force(z_c, z_w, v_c, v_w, LINEAR_PARAMS) == pytest.approx(0.0, abs=20.0)


def test_total_dissipation_equals_initial_tyre_energy():
    # all 750 J initially stored in the tyre spring end up in the damper
    ref = reference_solve(LINEAR_PARAMS, 8.0)
    assert damper_dissipation(ref) == pytest.approx(750.0, rel=1e-3)


def test_matrix_exponential_cross_check():
    ref = reference_solve(LINEAR_PARAMS, 5.0)
    times = [0.1, 1.0, 5.0]
    exact = linear_exact_states(LINEAR_PARAMS, times)
    for row, t in zip(exact, times):
        solved = ref.states_at(t)
        assert max(abs(s - e) / max(abs(e), 1e-3) for s, e in zip(solved, row)) < 1e-7


def test_linear_exact_states_requires_linear_damping():
    with pytest.raises(ValueError):
        linear_exact_states(NONLINEAR_PARAMS, [1.0])


def test_grid_self_convergence_linear():
    # the oracle at its tolerance and at a hundredth of it, sampled on GRID
    loose = _bond_powers(LINEAR_PARAMS)
    tight = _bond_powers(LINEAR_PARAMS, tol=_DP_TOL / 100)
    assert _max_rel_diff(loose, tight) < 1e-8


def test_grid_self_convergence_nonlinear():
    # the oracle against an independent scipy solve, both sampled on GRID
    z_c, v_c, z_w, v_w = scipy_states(NONLINEAR_PARAMS, GRID).T
    other = [spring_damper_force(*x, NONLINEAR_PARAMS) * x[2] for x in zip(z_c, z_w, v_c, v_w)]
    assert _max_rel_diff(_bond_powers(NONLINEAR_PARAMS), other) < 1e-8


def test_adaptive_oracle_converges_with_its_tolerance():
    loose = _bond_powers(NONLINEAR_PARAMS)
    tight = _bond_powers(NONLINEAR_PARAMS, tol=_DP_TOL / 100)
    assert _max_rel_diff(loose, tight) < 1e-6


def test_adaptive_oracle_matches_matrix_exponential_on_linear_preset():
    times = GRID[::10]
    z_c, v_c, z_w, v_w = linear_exact_states(LINEAR_PARAMS, times).T
    exact = [spring_damper_force(*x, LINEAR_PARAMS) * x[2] for x in zip(z_c, z_w, v_c, v_w)]
    assert _max_rel_diff(_bond_powers(LINEAR_PARAMS, times=times), exact) < 1e-8


@pytest.mark.parametrize("t_end", [0.3, 1.0, 2.0])
@pytest.mark.parametrize("params", [LINEAR_PARAMS, NONLINEAR_PARAMS], ids=["linear", "nonlinear"])
def test_straight_line_step_matches_generic_tableau_loop(params, t_end):
    # same sums in the same order: every stored double is the same bits
    for tol in (_DP_TOL, _DP_TOL / 100):
        assert _solve(params, t_end, tol)[1].tobytes() == generic_solve(params, t_end, tol)[1].tobytes()


@pytest.mark.parametrize("t_end", [0.0, -1.0, float("nan"), float("inf")])
def test_reference_rejects_bad_horizon(t_end):
    with pytest.raises(ValueError, match="finite and positive"):
        reference_solve(LINEAR_PARAMS, t_end)


@pytest.mark.parametrize("n_d", [0.5, 1.5])
def test_reference_raises_on_non_finite_model(n_d):
    # linear (n_d = 0.5) and nonlinear (n_d = 1.5) damping both fail instead of spinning
    with pytest.raises(ValueError, match="non-finite"):
        reference_solve(QuarterCarParams(d_c=1e308, n_d=n_d), 0.1)


@pytest.mark.parametrize("reticulation", ["A", "B"])
def test_reference_port_powers_balance_exactly(reticulation):
    ref = reference_solve(LINEAR_PARAMS, 1.0, reticulation=reticulation)
    # both ports see the coupling force and the same velocity, so the port
    # powers are +P0 and -P0 of the force times that velocity
    for t in (0.0, 1e-5, 0.1, 1.0):
        z_c, v_c, z_w, v_w = ref.states_at(t)
        p0 = ref.bond_powers([t])[0]
        assert p0 == spring_damper_force(z_c, z_w, v_c, v_w, LINEAR_PARAMS) * (
            v_c if reticulation == "A" else v_w
        )


def test_index_lookup_and_bounds():
    ref = reference_solve(LINEAR_PARAMS, 1.0)
    assert ref.step_at(0.0) == 0
    assert ref.step_at(1.0) == len(ref.t) - 1
    k = ref.step_at(0.5)
    assert ref.t[k] <= 0.5 < ref.t[k + 1]
    assert ref.states_at(0.0) == (0.0, 0.0, 0.0, 0.0)
    for bad in (-1e-9, 1.0 + 1e-9, 2.0, float("nan")):
        with pytest.raises(TimeRangeMismatch):
            ref.states_at(bad)
        with pytest.raises(TimeRangeMismatch):
            ref.bond_powers([bad])
    with pytest.raises(ValueError, match="ascending"):
        ref.bond_powers([0.5, 0.25])


def test_bond_powers_walk_matches_single_lookups():
    ref = reference_solve(NONLINEAR_PARAMS, 2.0, reticulation="B")
    times = [0.0, 0.0, 3e-6, 0.25, 0.25, 0.7, 1.3, 2.0]
    times += list(ref.t[100:110])  # the start of a step belongs to that step
    times.sort()
    assert ref.bond_powers(times) == [ref.bond_powers([t])[0] for t in times]


def test_summarize_run_against_itself_is_error_free():
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.2)
    # synthetic reference with one step per row, starting at the row's time:
    # there its dense output is the state (P_12, 1, 0, 1), whose bond power
    # under a unit spring stiffness is the run's own P_12
    steps = array("d")
    for t, p12 in zip(record.column("t"), record.column("P_12")):
        steps.extend([t, 1.0, p12, 1.0, 0.0, 1.0] + [0.0] * 16)
    params = QuarterCarParams(k_c=1.0)
    fake = ReferenceTrajectory(params, "A", record.duration, steps[::_STEP_WIDTH], steps)
    summary = summarize(record, fake)
    assert summary.mean_abs_dP == 0.0
    assert summary.step_count == 200


def test_summarize_rejects_a_run_without_steps():
    # every summary field is an average or a sum over the steps; a run that
    # fails at t = 0 carries a record without any
    record = RunRecord(bond_count=1, probe_names=("z_c", "v_c", "z_w", "v_w"))
    with pytest.raises(ValueError, match="no steps"):
        summarize(record, reference_solve(LINEAR_PARAMS, 0.2))


def test_summarize_rejects_short_reference():
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.5)
    short = reference_solve(LINEAR_PARAMS, 0.2)
    with pytest.raises(TimeRangeMismatch):
        summarize(record, short)


def test_summarize_accepts_longer_reference():
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.2)
    long_ref = reference_solve(LINEAR_PARAMS, 1.0)
    summary = summarize(record, long_ref)
    assert summary.step_count == 200
    assert summary.mean_abs_dP > 0.0
    weighted = zip(record.column("P_12"), record.column("dt"))
    mean_p12 = math.fsum(p12 * dt for p12, dt in weighted) / record.duration
    assert summary.mean_P12 == pytest.approx(mean_p12, rel=1e-12)
    assert summary.mean_dt == record.mean_dt()


def test_step_size_sweep_monotone():
    points = step_size_sweep(ExperimentConfig(t_end=1.0), [2e-3, 1e-3, 5e-4])
    assert [p.dt for p in points] == [2e-3, 1e-3, 5e-4]
    assert points[0].mean_abs_dP > points[1].mean_abs_dP > points[2].mean_abs_dP > 0
    assert points[0].residual_estimate > points[1].residual_estimate > 0


def test_summarize_frees_its_lists_without_the_cyclic_gc():
    # a recursive closure in pairwise_sum once kept them, 640 kB for these
    # 10,000 rows, until a collection; the float free list keeps a few kB
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-4), 1.0)
    ref = reference_solve(LINEAR_PARAMS, 1.0)
    summarize(record, ref)  # first-use caches are not summarize's
    gc.collect()
    gc.disable()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summarize(record, ref)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
        gc.enable()
    assert retained < 32_000


def test_step_size_sweep_holds_one_run_at_a_time():
    cfg = ExperimentConfig(t_end=0.1)
    step_size_sweep(cfg, [1e-4])  # the reference solve is cached

    def peak(points):
        tracemalloc.start()
        try:
            step_size_sweep(cfg, [1e-4] * points)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(4) <= 1.2 * peak(1)


def test_stability_scan_requires_bracketing():
    with pytest.raises(NoOnsetInRange):
        stability_scan(ExperimentConfig(reticulation="A", t_end=3.0), 1e-3, 2e-3)
    with pytest.raises(NoOnsetInRange):
        stability_scan(ExperimentConfig(reticulation="B", t_end=3.0), 0.05, 0.08)


def test_stability_scan_ends_below_float_resolution():
    # once the bracket is one ulp wide its midpoint rounds onto an end; the
    # bisection once repeated that midpoint forever
    cfg = ExperimentConfig(reticulation="A", t_end=10.0)
    coarse = stability_scan(cfg, 0.040, 0.080)
    fine = stability_scan(cfg, 0.040, 0.080, resolution=1e-300)
    assert abs(fine - coarse) <= 1e-4


def test_working_point_is_stable():
    # 1 ms constant steps run cleanly in both reticulations
    for kind in ("A", "B"):
        slots, bonds = build_reticulation(kind, LINEAR_PARAMS)
        record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 1.0)
        assert record.complete
        assert all(abs(v) < 1.0 for v in record.last_probes())
