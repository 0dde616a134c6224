"""End-to-end acceptance suite.

Each test re-runs one recorded benchmark configuration (or property) and
prints a verdict line; run with ``pytest -s tests/test_acceptance.py`` to see
them all.  Quantitative expectations carry the tolerance bands they were
recorded with; property checks are tolerance-independent.
"""

from __future__ import annotations

import io
from functools import lru_cache

import numpy as np
import pytest
from oracle_checks import bond_powers_at_tolerance, damper_dissipation, linear_exact_states
from sweeps import default_sweep

from eccosim.bench import (
    ExperimentConfig,
    run_experiment,
    stability_scan,
    summarize_experiment,
    write_trajectory_csv,
)
from eccosim.control import (
    PIController,
    ResidualEnergyIndicator,
    ecco_indicator,
    pc_indicator,
    pi_step_size,
    predict_outputs,
)
from eccosim.energy import BOND_FIELDS
from eccosim.master import run_cosimulation
from eccosim.model import PortRole, SimulatorSlot
from eccosim.quartercar import LINEAR_PARAMS, build_reticulation
from eccosim.reference import _DP_TOL, reference_solve, summarize


def check(cid: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}")
    assert ok, f"{cid}: {detail}"


def within(measured: float, expected: float, rel: float) -> bool:
    return abs(measured - expected) <= rel * abs(expected)


@lru_cache(maxsize=None)
def bench(preset, reticulation, controller, tolerance=None, micro_s2=10):
    """Run one benchmark configuration and summarize it (cached)."""
    kw = dict(preset=preset, reticulation=reticulation, controller=controller,
              micro_ratio_s2=micro_s2)
    if controller == "constant":
        kw["dt0"] = 1e-3
    elif controller == "ecco":
        kw["r"] = tolerance
    else:
        kw["tol"] = tolerance
        kw["rho"] = 1e-4
    cfg = ExperimentConfig(**kw)
    record = run_experiment(cfg)
    return summarize_experiment(cfg, record)


# --- quantitative reproductions -------------------------------------------------


def test_c01_linear_constant_total_residual():
    s = bench("linear", "A", "constant")
    ok = within(abs(s.total_residual), 6.4, 0.15)
    check("criterion 1", ok, f"linear/A constant 1 ms: |residual|={abs(s.total_residual):.3f} J vs 6.4 J +/-15%")


def test_c02_linear_constant_power_metrics():
    s = bench("linear", "A", "constant")
    ok_dp = within(s.mean_abs_dP, 1.3, 0.30)
    ok_p12 = within(s.mean_P12, 0.4, 0.30)
    check(
        "criterion 2",
        ok_dp and ok_p12,
        f"linear/A constant: mean|dP|={s.mean_abs_dP:.3f} W vs 1.3 +/-30%, "
        f"mean P12={s.mean_P12:.3f} W vs 0.4 +/-30%",
    )


def test_c03_ecco_tight_tolerance_row():
    s = bench("linear", "A", "ecco", 2.8e-6)
    ok = (
        within(s.mean_dt, 1.0e-3, 0.20)
        and within(abs(s.total_residual), 1.6, 0.25)
        and within(s.mean_abs_dP, 0.4, 0.30)
    )
    check(
        "criterion 3",
        ok,
        f"linear/A ecco r=2.8e-6: mean dt={s.mean_dt * 1e3:.3f} ms vs 1 +/-20%, "
        f"|residual|={abs(s.total_residual):.3f} J vs 1.6 +/-25%, "
        f"mean|dP|={s.mean_abs_dP:.3f} W vs 0.4 +/-30%",
    )


def test_c04_ecco_relaxed_tolerance_row():
    s = bench("linear", "A", "ecco", 3.1e-5)
    ok = within(s.mean_dt, 2.9e-3, 0.20) and within(abs(s.total_residual), 5.0, 0.25)
    check(
        "criterion 4",
        ok,
        f"linear/A ecco r=3.1e-5: mean dt={s.mean_dt * 1e3:.3f} ms vs 2.9 +/-20%, "
        f"|residual|={abs(s.total_residual):.3f} J vs 5.0 +/-25%",
    )


def test_c05_nonlinear_rows():
    s_const = bench("nonlinear", "A", "constant")
    s_tight = bench("nonlinear", "A", "ecco", 7.5e-6)
    s_loose = bench("nonlinear", "A", "ecco", 1.0e-4)
    ok = (
        within(s_const.mean_abs_dP, 4.0, 0.30)
        and within(abs(s_const.total_residual), 5.0, 0.30)
        and within(s_tight.mean_abs_dP, 1.1, 0.30)
        and within(abs(s_tight.total_residual), 1.6, 0.30)
        and within(s_loose.mean_dt, 3.1e-3, 0.30)
    )
    check(
        "criterion 5",
        ok,
        f"nonlinear/A: constant (|dP|={s_const.mean_abs_dP:.2f} W vs 4, "
        f"|res|={abs(s_const.total_residual):.2f} J vs 5), "
        f"ecco 7.5e-6 (|dP|={s_tight.mean_abs_dP:.2f} vs 1.1, "
        f"|res|={abs(s_tight.total_residual):.2f} vs 1.6), "
        f"ecco 1e-4 mean dt={s_loose.mean_dt * 1e3:.2f} ms vs 3.1; all +/-30%",
    )


def test_c06_reticulation_b_rows():
    s_const = bench("linear", "B", "constant")
    s_ecco = bench("linear", "B", "ecco", 9.1e-7)
    ok = (
        within(s_const.mean_P12, -192.0, 0.20)
        and within(s_const.mean_abs_dP, 12.0, 0.20)
        and within(abs(s_const.total_residual), 23.0, 0.20)
        and within(s_ecco.mean_P12, -187.9, 0.20)
        and within(s_ecco.mean_abs_dP, 1.3, 0.20)
        and within(abs(s_ecco.total_residual), 1.6, 0.20)
    )
    check(
        "criterion 6",
        ok,
        f"linear/B: constant ({s_const.mean_P12:.1f} W, {s_const.mean_abs_dP:.1f} W, "
        f"{abs(s_const.total_residual):.1f} J) vs (-192, 12, 23); "
        f"ecco 9.1e-7 ({s_ecco.mean_P12:.1f}, {s_ecco.mean_abs_dP:.2f}, "
        f"{abs(s_ecco.total_residual):.2f}) vs (-187.9, 1.3, 1.6); +/-20%",
    )


def test_c07_reticulation_b_nonlinear_and_low_accuracy():
    s9c = bench("nonlinear", "B", "constant")
    s9e = bench("nonlinear", "B", "ecco", 2.4e-5)
    s10c = bench("linear", "B", "constant", micro_s2=1)
    s10e = bench("linear", "B", "ecco", 1.0e-6, micro_s2=1)
    reduction = 1.0 - abs(s10e.total_residual) / abs(s10c.total_residual)
    ok = (
        within(s9c.mean_P12, -390.0, 0.30)
        and within(s9c.mean_abs_dP, 30.0, 0.30)
        and within(abs(s9c.total_residual), 50.0, 0.30)
        and within(s9e.mean_P12, -377.0, 0.30)
        and within(s9e.mean_abs_dP, 5.0, 0.30)
        and within(abs(s9e.total_residual), 5.0, 0.30)
        and within(s10c.mean_P12, -220.0, 0.30)
        and within(s10c.mean_abs_dP, 40.0, 0.30)
        and within(abs(s10c.total_residual), 30.0, 0.30)
        and within(s10e.mean_P12, -190.0, 0.30)
        and within(s10e.mean_abs_dP, 4.0, 0.30)
        and within(abs(s10e.total_residual), 2.0, 0.30)
        and reduction >= 0.85
    )
    check(
        "criterion 7",
        ok,
        f"nonlinear/B constant ({s9c.mean_P12:.0f}, {s9c.mean_abs_dP:.1f}, "
        f"{abs(s9c.total_residual):.1f}) vs (-390, 30, 50), "
        f"ecco ({s9e.mean_P12:.0f}, {s9e.mean_abs_dP:.1f}, {abs(s9e.total_residual):.1f}) "
        f"vs (-377, 5, 5); low-accuracy constant ({s10c.mean_P12:.0f}, "
        f"{s10c.mean_abs_dP:.1f}, {abs(s10c.total_residual):.1f}) vs (-220, 40, 30), "
        f"ecco ({s10e.mean_P12:.0f}, {s10e.mean_abs_dP:.1f}, {abs(s10e.total_residual):.1f}) "
        f"vs (-190, 4, 2); all +/-30%; residual reduction {reduction:.1%} >= 85%",
    )


def test_c08_predictor_corrector_rows():
    rows = [
        ("linear", "A", 6.7e-1, 0.7, 2.9),
        ("nonlinear", "A", 2.1, 1.9, 3.1),
        ("linear", "B", 6.0e-1, 1.3, 1.7),
        ("nonlinear", "B", 6.5, 18.0, 21.0),
    ]
    details = []
    ok = True
    for preset, reticulation, tol, exp_dp, exp_res in rows:
        s = bench(preset, reticulation, "predictor_corrector", tol)
        row_ok = within(s.mean_abs_dP, exp_dp, 0.35) and within(
            abs(s.total_residual), exp_res, 0.35
        )
        ok = ok and row_ok
        details.append(
            f"{preset}/{reticulation} TOL={tol}: |dP|={s.mean_abs_dP:.2f} vs {exp_dp}, "
            f"|res|={abs(s.total_residual):.2f} vs {exp_res}"
        )
    check("criterion 8", ok, "; ".join(details) + "; all +/-35%")


def test_c09_stability_onsets():
    onset_a = stability_scan(ExperimentConfig(reticulation="A", t_end=100.0), 0.040, 0.080)
    onset_b = stability_scan(ExperimentConfig(reticulation="B", t_end=100.0), 0.005, 0.020)
    ok = abs(onset_a - 58.5e-3) <= 2e-3 and abs(onset_b - 11.3e-3) <= 1e-3
    check(
        "criterion 9",
        ok,
        f"instability onsets: A {onset_a * 1e3:.2f} ms vs 58.5 +/-2, "
        f"B {onset_b * 1e3:.2f} ms vs 11.3 +/-1",
    )
    # the exact bisection results behind the benchmark's pinned scan CSVs
    assert (onset_a, onset_b) == (0.05921875, 0.011328125)


def test_c10_sweep_slopes_and_estimator_quality():
    points = default_sweep()  # 0.1..10 ms, the same floats as np.geomspace(1e-4, 1e-2, 9)
    log_dt = np.log([p.dt for p in points])
    slope_true = np.polyfit(log_dt, np.log([p.mean_abs_dP for p in points]), 1)[0]
    slope_est = np.polyfit(log_dt, np.log([p.residual_estimate for p in points]), 1)[0]
    ratios = [p.residual_estimate / p.mean_abs_dP for p in points]
    ok = (
        abs(slope_true - 1.0) <= 0.25
        and abs(slope_est - 1.0) <= 0.25
        and all(0.1 <= r <= 10.0 for r in ratios)
    )
    check(
        "criterion 10",
        ok,
        f"sweep 0.1..10 ms: slopes true={slope_true:.3f}, estimate={slope_est:.3f} "
        f"(want 1 +/-0.25); estimate/true in [{min(ratios):.2f}, {max(ratios):.2f}]",
    )


# --- property-based acceptance ---------------------------------------------------


def test_c11_residual_equals_summed_local_power_errors():
    slots, graph = build_reticulation("A", LINEAR_PARAMS)
    from eccosim.control import ConstantStep

    record = run_cosimulation(slots, graph, ConstantStep(1e-3), 1.0)
    ref = reference_solve(LINEAR_PARAMS, 1.0, reticulation="A")
    worst = 0.0
    columns = zip(*(record.column(name) for name in ("P_port1", "P_port2", "dP_res")))
    for p0, (p_port1, p_port2, dp_res) in zip(ref.bond_powers(record.column("t")), columns):
        p0_1, p0_2 = p0, -p0
        dp1 = p_port1 - p0_1
        dp2 = p_port2 - p0_2
        worst = max(worst, abs(dp1 + dp2 + dp_res))
    ok = worst <= 1e-10
    check("criterion 11", ok, f"max |dP1 + dP2 + residual| = {worst:.3e} W <= 1e-10")


class _RecordingSlot(SimulatorSlot):
    """Transparent wrapper that logs the exchanged coupling signals."""

    def __init__(self, inner):
        self.inner = inner
        self.n_inputs = inner.n_inputs
        self.n_outputs = inner.n_outputs
        self.micro_step_ratio = inner.micro_step_ratio
        self.probe_names = inner.probe_names
        self.inputs_log: list[tuple[float, ...]] = []
        self.outputs_log: list[tuple[float, ...]] = []

    def set_inputs(self, u):
        self.inputs_log.append(tuple(u))
        self.inner.set_inputs(u)

    def do_step(self, t, dt):
        self.inner.do_step(t, dt)

    def get_outputs(self):
        y = self.inner.get_outputs()
        self.outputs_log.append(tuple(y))
        return y

    def probes(self):
        return self.inner.probes()


def _role_factor(role: PortRole, lam: float) -> float:
    return lam if role is PortRole.EFFORT else 1.0 / lam


def test_c12_scale_invariance_of_indicators():
    r, e0 = 2.8e-6, 750.0
    slots, graph = build_reticulation("A", LINEAR_PARAMS)
    wrapped = [_RecordingSlot(s) for s in slots]
    policy = PIController(ResidualEnergyIndicator(rel_tol=r, energy_scale=e0))
    record = run_cosimulation(wrapped, graph, policy, 1.0)
    bond = graph.bonds[0]
    p1, p2 = bond.port1, bond.port2

    def signals(step):
        u1 = wrapped[p1.owner].inputs_log[step][p1.input_index]
        u2 = wrapped[p2.owner].inputs_log[step][p2.input_index]
        y1 = wrapped[p1.owner].outputs_log[step + 1][p1.output_index]
        y2 = wrapped[p2.owner].outputs_log[step + 1][p2.output_index]
        return u1, u2, y1, y2

    def ecco_sequence(lam):
        seq = []
        for i, dt in enumerate(record.column("dt")):
            u1, u2, y1, y2 = signals(i)
            u1 *= _role_factor(p2.output_role, lam)
            u2 *= _role_factor(p1.output_role, lam)
            y1 *= _role_factor(p1.output_role, lam)
            y2 *= _role_factor(p2.output_role, lam)
            de = -(u1 * y1 + u2 * y2) * dt
            e_step = bond.sigma * (y1 * y2) * dt
            step = dict.fromkeys(BOND_FIELDS, 0.0) | {"dE_res": de, "E_step": e_step}
            seq.append(ecco_indicator([tuple(step.values())], [r], [e0]))
        return seq

    def pc_sequence(lam):
        f1 = _role_factor(p1.output_role, lam)
        f2 = _role_factor(p2.output_role, lam)
        history = [(0.0, (0.0, 0.0))]
        seq = []
        for i, t in enumerate(record.column("t")):
            _, _, y1, y2 = signals(i)
            y = (y1 * f1, y2 * f2)
            if len(history) >= 2:
                pred = predict_outputs(history[-2:], t)
                seq.append(pc_indicator(y, pred, [0.67, 0.67], [1e-4, 1e-4]))
            else:
                seq.append(0.0)
            history.append((t, y))
        return seq

    base = ecco_sequence(1.0)
    # recomputed indicator agrees with what the controller logged during the run
    logged = record.column("eps")
    recompute_err = max(
        abs(a - b) / max(abs(a), abs(b), 1e-300) for a, b in zip(base, logged)
    )
    assert recompute_err < 1e-12

    # Sequence deviation is measured against the sequence scale: at steps where
    # the two port powers nearly cancel, the residual itself is ill-conditioned
    # and pointwise relative comparison would amplify single-ulp scaling noise.
    scale = max(base)
    ok = True
    details = []
    for lam in (1e-3, 1e3):
        scaled = ecco_sequence(lam)
        err = max(abs(a - b) for a, b in zip(base, scaled)) / scale
        details.append(f"ecco drift {err:.2e} at lam={lam:g}")
        ok = ok and err <= 1e-12
        pc_base = pc_sequence(1.0)
        pc_scaled = pc_sequence(lam)
        pc_change = max(
            abs(a - b) / max(abs(a), abs(b), 1e-300)
            for a, b in zip(pc_base, pc_scaled)
        )
        details.append(f"pc change {pc_change:.2e}")
        ok = ok and pc_change > 1e-6
    check("criterion 12", ok, "; ".join(details) + " (ecco <= 1e-12, pc must change)")


def test_c13_randomized_clamp_postcondition():
    rng = np.random.default_rng(1723)
    n = 100_000
    eps_now = 10.0 ** rng.uniform(-14, 3, n)
    eps_prev = 10.0 ** rng.uniform(-14, 3, n)
    dts = 10.0 ** rng.uniform(-6, 0, n)
    dt_min, dt_max, th_min, th_max = 1e-4, 1e-2, 0.2, 1.5
    violations = 0
    for e_n, e_p, dt in zip(eps_now, eps_prev, dts):
        out = pi_step_size(e_n, e_p, dt, 0.15, 0.2, 0.8, dt_min, dt_max, th_min, th_max)
        lo, hi = max(dt_min, th_min * dt), min(dt_max, th_max * dt)
        if lo <= hi:
            if not lo <= out <= hi:
                violations += 1
        elif not dt_min <= out <= dt_max:
            violations += 1
    check("criterion 13", violations == 0, f"{n} random PI updates, {violations} clamp violations")


def test_c14_first_order_convergence():
    from eccosim.control import ConstantStep

    ref = reference_solve(LINEAR_PARAMS, 4.0, reticulation="A")
    errors = []
    for dt in (2e-3, 1e-3, 0.5e-3, 0.25e-3):
        slots, graph = build_reticulation("A", LINEAR_PARAMS)
        record = run_cosimulation(slots, graph, ConstantStep(dt), 4.0)
        errors.append(summarize(record, ref).mean_abs_dP)
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    ok = all(1.6 <= r <= 2.4 for r in ratios)
    check(
        "criterion 14",
        ok,
        "halving dt halves mean|dP|: ratios "
        + ", ".join(f"{r:.2f}" for r in ratios)
        + " (want within [1.6, 2.4])",
    )


def test_c15_determinism_and_no_rollback():
    def run_csv():
        slots, graph = build_reticulation("A", LINEAR_PARAMS)
        policy = PIController(ResidualEnergyIndicator(rel_tol=2.8e-6))
        record = run_cosimulation(slots, graph, policy, 1.0)
        buf = io.StringIO()
        write_trajectory_csv(record, buf)
        return buf.getvalue(), record, slots

    first_csv, record, slots = run_csv()
    second_csv, _, _ = run_csv()
    counters_ok = all(s.step_calls == record.step_count for s in slots)
    ok = first_csv == second_csv and counters_ok
    check(
        "criterion 15",
        ok,
        f"two runs CSV identical={first_csv == second_csv}; "
        f"do_step calls == {record.step_count} accepted steps: {counters_ok}",
    )


def test_c16_oracle_self_checks():
    dissipated = damper_dissipation(reference_solve(LINEAR_PARAMS, 8.0))
    ok_diss = within(dissipated, 750.0, 1e-3)

    ref5 = reference_solve(LINEAR_PARAMS, 5.0)
    times = [0.1, 1.0, 5.0]
    exact = linear_exact_states(LINEAR_PARAMS, times)
    worst_state = 0.0
    for row, t in zip(exact, times):
        solved = np.array(ref5.states_at(t))
        scale = np.maximum(np.abs(row), 1e-3)
        worst_state = max(worst_state, float(np.max(np.abs(solved - row) / scale)))
    ok_expm = worst_state <= 1e-7

    # the oracle at its tolerance and at a hundredth of it, on a 10 us grid
    grid = [k * 1e-5 for k in range(100_001)]
    loose, tight = (
        np.array(bond_powers_at_tolerance(LINEAR_PARAMS, 1.0, tol, grid))
        for tol in (_DP_TOL, _DP_TOL / 100)
    )
    tol_err = float(np.max(np.abs(loose - tight)) / np.max(np.abs(tight)))
    ok_tol = tol_err <= 1e-8

    check(
        "criterion 16",
        ok_diss and ok_expm and ok_tol,
        f"dissipation {dissipated:.2f} J vs 750 +/-0.1%; matrix-exponential "
        f"state error {worst_state:.2e} <= 1e-7; tolerance self-convergence "
        f"{tol_err:.2e} <= 1e-8",
    )
