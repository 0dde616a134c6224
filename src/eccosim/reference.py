"""Monolithic reference solver and the error metrics derived from it.

The reference trajectory integrates the full 4-state quarter car with a
classic fixed-step 4th-order Runge-Kutta method on a fine grid and exposes the
exact-coupling bond power for either reticulation.  Error summaries compare a
co-simulation record against it at the communication points (nearest dense
sample).  Also here: the step-size sweep that pits the residual estimate
against the true power error, and the bisection scan for the constant-step
stability onset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .control import ConstantStep
from .master import RunRecord, SimulatorFailure, run_cosimulation
from .quartercar import RETICULATIONS, QuarterCarParams, build_reticulation

DEFAULT_H_REF = 1e-5


class TimeRangeMismatch(ValueError):
    """The reference trajectory does not cover the run being summarized."""


class NoOnsetInRange(ValueError):
    """The scanned step-size range does not bracket a stability onset."""


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Dense fine-grid solution with the bond signals of one reticulation."""

    params: QuarterCarParams
    reticulation: str
    h_ref: float
    t: np.ndarray
    z_c: np.ndarray
    v_c: np.ndarray
    z_w: np.ndarray
    v_w: np.ndarray
    F_c: np.ndarray
    P0_12: np.ndarray

    @property
    def t_end(self) -> float:
        return float(self.t[-1])

    def index_at(self, time: float) -> int:
        """Nearest dense sample to ``time``; the grid spacing bounds the error."""
        idx = int(round(time / self.h_ref))
        if idx < 0 or idx >= len(self.t):
            raise TimeRangeMismatch(
                f"time {time} outside reference range [0, {self.t_end}]"
            )
        return idx

    def port_powers_at(self, index: int) -> tuple[float, float]:
        """Exact per-port powers (P0_k1, P0_k2); they cancel exactly by construction.

        Port 1 is the flow-receiving side, so its power is +force*velocity.
        """
        if self.reticulation == "A":
            p = float(self.F_c[index]) * float(self.v_c[index])
        else:
            p = float(self.F_c[index]) * float(self.v_w[index])
        return p, -p


def _damping_force_arrays(params, dv):
    """Damper force d_c * sign(dv) * |dv|**exponent on relative-velocity arrays."""
    expo = params.damping_exponent
    if expo == 1.0:
        return params.d_c * dv
    return params.d_c * np.sign(dv) * np.abs(dv) ** expo


@lru_cache(maxsize=16)
def _solve_states(params: QuarterCarParams, t_end: float, h_ref: float):
    """Fixed-step RK4 on the monolithic model; returns the dense state arrays."""
    n = int(round(t_end / h_ref))
    if n < 1:
        raise ValueError("t_end must cover at least one reference step")
    m_c, m_w = params.m_c, params.m_w
    k_c, k_w, d_c = params.k_c, params.k_w, params.d_c
    expo = params.damping_exponent
    linear = expo == 1.0

    def rhs(zc, vc, zw, vw):
        dv = vc - vw
        if linear:
            fc = k_c * (zc - zw) + d_c * dv
        elif dv > 0.0:
            fc = k_c * (zc - zw) + d_c * dv**expo
        elif dv < 0.0:
            fc = k_c * (zc - zw) - d_c * (-dv) ** expo
        else:
            fc = k_c * (zc - zw)
        fw = k_w * (zw - 0.1)  # road step is 0.1 for all t >= 0
        return vc, -fc / m_c, vw, (fc - fw) / m_w

    z_c = np.empty(n + 1)
    v_c = np.empty(n + 1)
    z_w = np.empty(n + 1)
    v_w = np.empty(n + 1)
    zc = vc = zw = vw = 0.0
    z_c[0] = v_c[0] = z_w[0] = v_w[0] = 0.0
    h = h_ref
    half = 0.5 * h
    sixth = h / 6.0
    for i in range(n):
        a1, b1, c1, d1 = rhs(zc, vc, zw, vw)
        a2, b2, c2, d2 = rhs(zc + half * a1, vc + half * b1, zw + half * c1, vw + half * d1)
        a3, b3, c3, d3 = rhs(zc + half * a2, vc + half * b2, zw + half * c2, vw + half * d2)
        a4, b4, c4, d4 = rhs(zc + h * a3, vc + h * b3, zw + h * c3, vw + h * d3)
        zc += sixth * (a1 + 2.0 * (a2 + a3) + a4)
        vc += sixth * (b1 + 2.0 * (b2 + b3) + b4)
        zw += sixth * (c1 + 2.0 * (c2 + c3) + c4)
        vw += sixth * (d1 + 2.0 * (d2 + d3) + d4)
        j = i + 1
        z_c[j] = zc
        v_c[j] = vc
        z_w[j] = zw
        v_w[j] = vw
    t = np.arange(n + 1) * h_ref
    return t, z_c, v_c, z_w, v_w


@lru_cache(maxsize=16)
def reference_solve(
    params: QuarterCarParams,
    t_end: float,
    h_ref: float = DEFAULT_H_REF,
    reticulation: str = "A",
) -> ReferenceTrajectory:
    """Dense monolithic solution plus exact bond power for one reticulation.

    Results are cached; treat the arrays as read-only.
    """
    if reticulation not in RETICULATIONS:
        raise ValueError(f"unknown reticulation {reticulation!r}, expected one of {RETICULATIONS}")
    t, z_c, v_c, z_w, v_w = _solve_states(params, t_end, h_ref)
    f_c = params.k_c * (z_c - z_w) + _damping_force_arrays(params, v_c - v_w)
    if reticulation == "A":
        p0_12 = f_c * v_c
    else:
        p0_12 = f_c * v_w
    return ReferenceTrajectory(
        params=params,
        reticulation=reticulation,
        h_ref=h_ref,
        t=t,
        z_c=z_c,
        v_c=v_c,
        z_w=z_w,
        v_w=v_w,
        F_c=f_c,
        P0_12=p0_12,
    )


def damper_dissipation(traj: ReferenceTrajectory) -> float:
    """Energy dissipated by the suspension damper over the trajectory (joules)."""
    dv = traj.v_c - traj.v_w
    return float(np.trapezoid(_damping_force_arrays(traj.params, dv) * dv, dx=traj.h_ref))


def linear_exact_states(params: QuarterCarParams, times: Sequence[float]) -> np.ndarray:
    """Closed-form matrix-exponential solution of the linear preset.

    Valid only for a linear damping law (exponent 1).  Returns one row
    (z_c, v_c, z_w, v_w) per requested time.
    """
    from scipy.linalg import expm

    if params.damping_exponent != 1.0:
        raise ValueError("closed-form solution requires the linear damping law")
    m_c, m_w, k_c, k_w, d_c = params.m_c, params.m_w, params.k_c, params.k_w, params.d_c
    a = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-k_c / m_c, -d_c / m_c, k_c / m_c, d_c / m_c],
            [0.0, 0.0, 0.0, 1.0],
            [k_c / m_w, d_c / m_w, -(k_c + k_w) / m_w, -d_c / m_w],
        ]
    )
    b = np.array([0.0, 0.0, 0.0, k_w * 0.1 / m_w])
    x_rest = np.linalg.solve(a, -b)  # static equilibrium under the road step
    out = np.empty((len(times), 4))
    for i, t in enumerate(times):
        out[i] = x_rest + expm(a * t) @ (-x_rest)  # x0 = 0
    return out


def local_power_error(p_cosim: float, p_ref: float) -> float:
    """Local error of a co-simulation power against the reference, P - P0."""
    return p_cosim - p_ref


@dataclass(frozen=True)
class ErrorSummary:
    """Run-level metrics: bond power mean, mean absolute power error, residual."""

    mean_P12: float
    mean_abs_dP: float
    total_residual: float
    mean_dt: float
    step_count: int


def summarize(record: RunRecord, ref: ReferenceTrajectory, bond: int = 0) -> ErrorSummary:
    """Time-averaged error metrics of a run against the reference trajectory.

    Averages weight each communication point with its step size, so adaptive
    and constant runs are compared on equal footing.  The reference must cover
    the whole run.
    """
    if record.step_count == 0:
        return ErrorSummary(0.0, 0.0, 0.0, 0.0, 0)
    if ref.t_end + 0.5 * ref.h_ref < record.duration:
        raise TimeRangeMismatch(
            f"reference ends at {ref.t_end}, run lasts {record.duration}"
        )
    times = np.array([row.t for row in record.rows])
    dts = np.array([row.dt for row in record.rows])
    p12 = np.array([row.bonds[bond].P_12 for row in record.rows])
    idx = np.rint(times / ref.h_ref).astype(np.int64)
    p0 = ref.P0_12[idx]
    total_t = record.duration
    return ErrorSummary(
        mean_P12=float(np.sum(p12 * dts)) / total_t,
        mean_abs_dP=float(np.sum(np.abs(p12 - p0) * dts)) / total_t,
        total_residual=record.total_residual(bond),
        mean_dt=record.mean_dt(),
        step_count=record.step_count,
    )


@dataclass(frozen=True)
class SweepPoint:
    """One constant-step run: true mean power error vs the residual estimate."""

    dt: float
    mean_abs_dP: float
    residual_estimate: float  # half the time-averaged |residual energy|


def step_size_sweep(
    dt_values: Sequence[float],
    params: QuarterCarParams,
    reticulation: str = "A",
    t_end: float = 4.0,
    micro_s1: int = 10,
    micro_s2: int = 10,
    h_ref: float = DEFAULT_H_REF,
) -> list[SweepPoint]:
    """Constant-step runs over ``dt_values``, recording both error curves.

    All runs execute before the reference is solved, so a divergent step size
    fails fast without paying for the fine-grid solution.
    """
    records = []
    for dt in dt_values:
        slots, graph = build_reticulation(reticulation, params, micro_s1, micro_s2)
        records.append(run_cosimulation(slots, graph, ConstantStep(dt), t_end))
    ref = reference_solve(params, t_end, h_ref, reticulation)
    points = []
    for dt, record in zip(dt_values, records):
        summary = summarize(record, ref)
        abs_res = sum(abs(row.bonds[0].dE_res) for row in record.rows)
        points.append(
            SweepPoint(
                dt=dt,
                mean_abs_dP=summary.mean_abs_dP,
                residual_estimate=0.5 * abs_res / record.duration,
            )
        )
    return points


def _diverges(
    dt: float,
    params: QuarterCarParams,
    reticulation: str,
    t_scan: float,
    micro_s1: int,
    micro_s2: int,
    threshold: float,
) -> bool:
    slots, graph = build_reticulation(reticulation, params, micro_s1, micro_s2)
    try:
        record = run_cosimulation(slots, graph, ConstantStep(dt), t_scan)
    except SimulatorFailure:
        return True
    for row in record.rows:
        if any(abs(v) > threshold for v in row.probes.values()):
            return True
    return False


def stability_scan(
    params: QuarterCarParams,
    reticulation: str,
    dt_lo: float,
    dt_hi: float,
    t_scan: float = 4.0,
    micro_s1: int = 10,
    micro_s2: int = 10,
    threshold: float = 1e6,
    resolution: float = 1e-4,
) -> float:
    """Smallest constant macro step that diverges, bisected to ``resolution``.

    A run diverges when any probed state exceeds ``threshold`` (or goes
    non-finite) before ``t_scan``.  The initial range must bracket the onset:
    ``dt_lo`` stable, ``dt_hi`` divergent.
    """
    if not 0.0 < dt_lo < dt_hi:
        raise ValueError("require 0 < dt_lo < dt_hi")
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")

    def scan(dt):
        return _diverges(dt, params, reticulation, t_scan, micro_s1, micro_s2, threshold)

    if scan(dt_lo):
        raise NoOnsetInRange(f"lower bound {dt_lo} already diverges")
    if not scan(dt_hi):
        raise NoOnsetInRange(f"upper bound {dt_hi} does not diverge")
    lo, hi = dt_lo, dt_hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if scan(mid):
            hi = mid
        else:
            lo = mid
    return hi
