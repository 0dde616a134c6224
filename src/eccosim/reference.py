"""Monolithic reference solver and the error metrics derived from it.

The reference trajectory solves the full 4-state quarter car on a fine grid
and exposes the exact-coupling bond power for either reticulation.  The linear
preset takes classic 4th-order Runge-Kutta steps, evaluated all at once as
powers of the one-step affine map; the nonlinear preset uses an adaptive
Dormand-Prince 5(4) integrator whose dense output is sampled onto the grid.
Error summaries compare a co-simulation record against it at the
communication points (nearest dense sample).  Also here: the step-size sweep
that pits the residual estimate against the true power error, and the
bisection scan for the constant-step stability onset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .control import ConstantStep
from .master import RunRecord, SimulatorFailure, run_cosimulation
from .quartercar import (
    RETICULATIONS,
    QuarterCarParams,
    build_reticulation,
    spring_damper_force,
    tyre_force,
)

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


def _linear_system(params: QuarterCarParams) -> tuple[np.ndarray, np.ndarray]:
    """``(A, x_rest)`` of the linear preset, ``x' = A (x - x_rest)``.

    ``x = (z_c, v_c, z_w, v_w)``; at rest under the 0.1 m road step both
    springs are relaxed, so ``x_rest = (0.1, 0, 0.1, 0)``.
    """
    m_c, m_w, k_c, k_w, d_c = params.m_c, params.m_w, params.k_c, params.k_w, params.d_c
    a = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [-k_c / m_c, -d_c / m_c, k_c / m_c, d_c / m_c],
            [0.0, 0.0, 0.0, 1.0],
            [k_c / m_w, d_c / m_w, -(k_c + k_w) / m_w, -d_c / m_w],
        ]
    )
    return a, np.array([0.1, 0.0, 0.1, 0.0])


def _power_deltas(step_delta: np.ndarray, count: int) -> np.ndarray:
    """``(I + D)^k - I`` for ``k = 0 .. count - 1``, built by doubling.

    Kept in delta form: ``I + D`` rounds ``D`` to the ulp of 1, which the
    powers then amplify.
    """
    deltas = np.empty((count, 4, 4))
    deltas[0] = 0.0
    top, m = step_delta, 1  # top = (I + D)^m - I
    while m < count:
        # (I + X)(I + Y) - I = X Y + Y + X, for X = top and Y = deltas[k]
        k = min(m, count - m)
        shifted = deltas[m : m + k]
        np.einsum("ab,kbc->kac", top, deltas[:k], out=shifted)
        shifted += deltas[:k]
        shifted += top
        top = top + top + np.einsum("ab,bc->ac", top, top)
        m *= 2
    return deltas


def _solve_linear(params: QuarterCarParams, n: int, h: float) -> np.ndarray:
    """Classic RK4 on the linear preset, ``n`` steps of ``h`` from rest.

    One RK4 step of ``e' = A e`` is the map ``e -> (I + D) e`` with
    ``D = hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24``, so step ``jB + k`` is
    ``(I + Q_j)(I + P_k) e_0`` for the powers ``P_k`` of one step and ``Q_j``
    of ``B`` steps.  With ``x_0 = 0``, ``e_0 = -x_rest`` and
    ``x = w_j + u_k + Q_j u_k`` where ``u_k = P_k e_0`` and ``w_j = Q_j e_0``.
    Returns the states as rows ``(z_c, v_c, z_w, v_w)`` of ``n + 1`` samples.
    """
    a, x_rest = _linear_system(params)
    ha = h * a
    eye = np.eye(4)
    poly = eye + ha / 4.0
    for div in (3.0, 2.0):
        poly = eye + np.einsum("ab,bc->ac", ha / div, poly)
    step_delta = np.einsum("ab,bc->ac", ha, poly)
    if not np.all(np.isfinite(step_delta)):
        raise ValueError(f"non-finite linear model for {params}")
    block = 1 << (n.bit_length() + 1) // 2  # about sqrt(n), so both tables stay small
    blocks = -(-(n + 1) // block)
    inner = _power_deltas(step_delta, block + 1)
    outer = _power_deltas(inner[block], blocks)
    e0 = -x_rest
    u = np.einsum("kab,b->ka", inner[:block], e0)
    w = np.einsum("jab,b->ja", outer, e0)
    states = np.empty((4, blocks, block))
    np.einsum("jab,kb->ajk", outer, u, out=states)
    states += w.T[:, :, None]
    states += u.T[:, None, :]
    return states.reshape(4, -1)[:, : n + 1]


#: Grid samples evaluated per numpy pass of the dense output.
_SAMPLE_CHUNK = 4096

#: Mixed absolute/relative tolerance of the Dormand-Prince oracle: at a
#: hundredth of it the nonlinear bond power moves by 3e-7 of its peak.
_DP_TOL = 1e-11

# Dormand & Prince (1980) 5(4) tableau and the dense output coefficients of
# Hairer, Norsett & Wanner, Solving ODEs I, section II.6 (their DOPRI5).  The
# model is autonomous for t >= 0, so the nodes c_i are not needed.  The last
# row of _DP_A is the 5th-order solution, whose derivative is the next step's
# first stage.
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_E = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)
_DP_D = (
    -12715105075 / 11282082432,
    0.0,
    87487479700 / 32700410799,
    -10690763975 / 1880347072,
    701980252875 / 199316789632,
    -1453857185 / 822651844,
    69997945 / 29380423,
)


def _rhs(params: QuarterCarParams, x: Sequence[float]) -> list[float]:
    """Time derivative of the monolithic quarter car under the road step."""
    z_c, v_c, z_w, v_w = x
    f_c = spring_damper_force(z_c, z_w, v_c, v_w, params)
    f_w = tyre_force(z_w, 0.0, params)
    return [v_c, -f_c / params.m_c, v_w, (f_c - f_w) / params.m_w]


def _solve_adaptive(
    params: QuarterCarParams, n: int, h_grid: float, tol: float = _DP_TOL
) -> np.ndarray:
    """Adaptive Dormand-Prince 5(4) from rest, sampled on the grid ``k * h_grid``.

    Each accepted step stores its start time, its length and the five dense
    output coefficients of each state; the ``n + 1`` grid samples are
    evaluated from them at the end.  Raises ``ValueError`` when the error
    estimate is not finite or the step size underflows.
    """
    from array import array
    from math import isfinite
    from operator import mul

    t_end = n * h_grid
    steps = array("d")  # per accepted step: t, h, then 5 coefficients x 4 states
    t = 0.0
    x = [0.0, 0.0, 0.0, 0.0]
    k_first = _rhs(params, x)
    h = h_grid
    while t < t_end:
        h = min(h, t_end - t)
        if t + h == t:
            raise ValueError(f"reference step size underflow at t={t} for {params}")
        stages = [[k] for k in k_first]  # per state, its derivative at each stage
        for row in _DP_A:  # the last row is the 5th-order solution, k7 its FSAL stage
            x_new = [xi + h * sum(map(mul, row, ks)) for xi, ks in zip(x, stages)]
            for ks, k in zip(stages, _rhs(params, x_new)):
                ks.append(k)
        err = 0.0
        for xi, xn, ks in zip(x, x_new, stages):
            scale = tol * (1.0 + max(abs(xi), abs(xn)))
            err += (h * sum(map(mul, _DP_E, ks)) / scale) ** 2
        err = (0.25 * err) ** 0.5
        if not isfinite(err):
            raise ValueError(f"non-finite reference error estimate at t={t} for {params}")
        if err <= 1.0:
            dx = [xn - xi for xi, xn in zip(x, x_new)]
            spline = [h * ks[0] - d for d, ks in zip(dx, stages)]
            steps.extend((t, h))
            steps.extend(x)
            steps.extend(dx)
            steps.extend(spline)
            steps.extend([d - h * ks[-1] - c for d, c, ks in zip(dx, spline, stages)])
            steps.extend([h * sum(map(mul, _DP_D, ks)) for ks in stages])
            t += h
            x = x_new
            k_first = [ks[-1] for ks in stages]
        h *= min(5.0, max(0.2, 0.9 * max(err, 1e-10) ** -0.2))
    data = np.frombuffer(steps).reshape(-1, 22)
    states = np.empty((4, n + 1))
    for lo in range(0, n + 1, _SAMPLE_CHUNK):  # chunks keep the temporaries small
        hi = min(lo + _SAMPLE_CHUNK, n + 1)
        grid = np.arange(lo, hi) * h_grid
        rows = data[np.searchsorted(data[:, 0], grid, side="right") - 1]
        theta = ((grid - rows[:, 0]) / rows[:, 1])[:, None]
        theta1 = 1.0 - theta
        c1, c2, c3, c4, c5 = rows[:, 2:].reshape(-1, 5, 4).transpose(1, 0, 2)
        states[:, lo:hi] = (c1 + theta * (c2 + theta1 * (c3 + theta * (c4 + theta1 * c5)))).T
    return states


@lru_cache(maxsize=16)
def _solve_states(params: QuarterCarParams, t_end: float, h_ref: float) -> np.ndarray:
    """States ``(z_c, v_c, z_w, v_w)`` from rest on the grid ``k * h_ref``."""
    for name, value in (("t_end", t_end), ("h_ref", h_ref)):
        if not (np.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be finite and positive, got {value}")
    n = int(round(t_end / h_ref))
    if n < 1:
        raise ValueError("t_end must cover at least one reference step")
    if params.damping_exponent == 1.0:
        return _solve_linear(params, n, h_ref)
    return _solve_adaptive(params, n, h_ref)


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
    z_c, v_c, z_w, v_w = _solve_states(params, t_end, h_ref)
    t = np.arange(len(z_c)) * h_ref
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
    a, x_rest = _linear_system(params)
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
    """True when the run fails or any probed state exceeds ``threshold``.

    The run stops at the first row beyond the threshold: later rows cannot
    change the verdict.
    """

    def beyond(row) -> bool:
        return any(abs(v) > threshold for v in row.probes.values())

    slots, graph = build_reticulation(reticulation, params, micro_s1, micro_s2)
    try:
        record = run_cosimulation(slots, graph, ConstantStep(dt), t_scan, stop=beyond)
    except SimulatorFailure:
        return True
    return not record.complete


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
