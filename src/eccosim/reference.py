"""Monolithic reference solver and the error metrics derived from it.

The reference solves the full 4-state quarter car from rest with an adaptive
Dormand-Prince 5(4) integrator and keeps the dense output of every accepted
step (Hairer, Norsett & Wanner, Solving ODEs I, section II.6), so the exact
coupling bond power of either reticulation can be read at any time of the
run.  Error summaries compare a co-simulation record against it at each
communication point's own time.  Also here: the step-size sweep that pits the
residual estimate against the true power error, and the bisection scan for
the constant-step stability onset.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, reduce
from math import isfinite
from operator import add, mul
from typing import Sequence

from .control import ConstantStep
from .master import RunRecord, SimulatorFailure, run_cosimulation
from .quartercar import (
    RETICULATIONS,
    QuarterCarParams,
    build_reticulation,
    spring_damper_force,
    tyre_force,
)


class TimeRangeMismatch(ValueError):
    """The reference trajectory does not cover the run being summarized."""


class NoOnsetInRange(ValueError):
    """The scanned step-size range does not bracket a stability onset."""


#: Doubles per accepted step in ``ReferenceTrajectory.steps``: the step's start
#: time and length, then its five dense-output coefficients for each state.
_STEP_WIDTH = 22


@dataclass(frozen=True)
class ReferenceTrajectory:
    """Dense monolithic solution with the bond signal of one reticulation.

    ``steps`` holds ``_STEP_WIDTH`` doubles per accepted step: its start time,
    its length, then the dense-output coefficients ``c1 .. c5`` of the states
    ``(z_c, v_c, z_w, v_w)``, four at a time.  ``t`` holds the start times
    alone.  Both come from the solver's cache; treat them as read-only.
    """

    params: QuarterCarParams
    reticulation: str
    t_end: float
    t: array
    steps: array

    def step_at(self, time: float) -> int:
        """Index of the accepted step whose interval holds ``time``."""
        if not 0.0 <= time <= self.t_end:
            raise TimeRangeMismatch(f"time {time} outside reference range [0, {self.t_end}]")
        return bisect_right(self.t, time) - 1

    def states_at(self, time: float) -> tuple[float, float, float, float]:
        """States ``(z_c, v_c, z_w, v_w)`` at ``time`` from the dense output."""
        b = _STEP_WIDTH * self.step_at(time)
        s = self.steps
        theta = (time - s[b]) / s[b + 1]
        theta1 = 1.0 - theta
        z_c, v_c, z_w, v_w = (
            s[i] + theta * (s[i + 4] + theta1 * (s[i + 8] + theta * (s[i + 12] + theta1 * s[i + 16])))
            for i in range(b + 2, b + 6)
        )
        return z_c, v_c, z_w, v_w

    def port_powers_at(self, time: float) -> tuple[float, float]:
        """Exact per-port powers (P0_k1, P0_k2) at ``time``; they cancel exactly.

        Port 1 is the flow-receiving side, so its power is +force*velocity.
        """
        p = self.bond_powers([time])[0]
        return p, -p

    def bond_powers(self, times: Sequence[float]) -> list[float]:
        """Exact bond power ``P0_12`` at each of the ascending ``times``.

        One walk over the accepted steps, from the step of the first time,
        serves all times, and each step's coefficients are unpacked once.
        Raises ``TimeRangeMismatch`` when the times leave ``[0, t_end]`` and
        ``ValueError`` when they descend.
        """
        out = []
        if not times:
            return out
        if not times[-1] <= self.t_end:
            raise TimeRangeMismatch(f"time {times[-1]} outside reference range [0, {self.t_end}]")
        params, starts, steps = self.params, self.t, self.steps
        on_chassis = self.reticulation == "A"
        last = len(starts) - 1
        j = self.step_at(times[0]) - 1
        next_start = starts[j + 1]
        for time in times:
            if time >= next_start:
                while j < last and starts[j + 1] <= time:
                    j += 1
                next_start = starts[j + 1] if j < last else float("inf")
                b = _STEP_WIDTH * j
                (t0, h, z1, v1, w1, u1, z2, v2, w2, u2, z3, v3, w3, u3,
                 z4, v4, w4, u4, z5, v5, w5, u5) = steps[b : b + _STEP_WIDTH]
            theta = (time - t0) / h
            if theta < 0.0:
                raise ValueError(f"times must be ascending, got {time} after {t0}")
            theta1 = 1.0 - theta
            z_c = z1 + theta * (z2 + theta1 * (z3 + theta * (z4 + theta1 * z5)))
            v_c = v1 + theta * (v2 + theta1 * (v3 + theta * (v4 + theta1 * v5)))
            z_w = w1 + theta * (w2 + theta1 * (w3 + theta * (w4 + theta1 * w5)))
            v_w = u1 + theta * (u2 + theta1 * (u3 + theta * (u4 + theta1 * u5)))
            f_c = spring_damper_force(z_c, z_w, v_c, v_w, params)
            out.append(f_c * v_c if on_chassis else f_c * v_w)
        return out


#: Mixed absolute/relative tolerance of the oracle.  The benchmark checks the
#: linear-A export run's mean_abs_dP to 1e-9 relative; it moves by 2e-9 at a
#: tolerance of 1e-12 and by 2e-10 at 1e-13.
_DP_TOL = 1e-13

#: First trial step [s]; the step-size control adapts it within a few steps.
_DP_H0 = 1e-5

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


@lru_cache(maxsize=16)
def _solve(params: QuarterCarParams, t_end: float, tol: float = _DP_TOL) -> tuple[array, array]:
    """Adaptive Dormand-Prince 5(4) from rest to ``t_end``: ``(starts, steps)``.

    Each accepted step stores its start time, its length and the five dense
    output coefficients of each state in ``steps``; ``starts`` repeats the
    start times.  Raises ``ValueError`` for a horizon that is not finite and
    positive, a non-finite error estimate or a step size that underflows.
    """
    if not (isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    steps = array("d")
    t = 0.0
    x = [0.0, 0.0, 0.0, 0.0]
    k_first = _rhs(params, x)
    h = _DP_H0
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
    return steps[::_STEP_WIDTH], steps


def reference_solve(
    params: QuarterCarParams, t_end: float, reticulation: str = "A"
) -> ReferenceTrajectory:
    """Dense monolithic solution to ``t_end`` plus exact bond power for one
    reticulation.  The solve is cached per ``(params, t_end)``."""
    if reticulation not in RETICULATIONS:
        raise ValueError(f"unknown reticulation {reticulation!r}, expected one of {RETICULATIONS}")
    starts, steps = _solve(params, t_end)
    return ReferenceTrajectory(params, reticulation, t_end, starts, steps)


def pairwise_sum(values: Sequence[float]) -> float:
    """Sum of ``values`` in numpy's pairwise order, so it equals ``np.sum`` bit for bit.

    Runs of at most 128 are summed by 8 interleaved accumulators; longer runs
    are split at half their length, rounded down to a multiple of 8.
    """

    def block(lo: int, n: int) -> float:
        if n < 8:
            return reduce(add, values[lo : lo + n], 0.0)
        if n <= 128:
            end = lo + n - n % 8
            r = [reduce(add, values[k:end:8]) for k in range(lo, lo + 8)]
            total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
            return reduce(add, values[end : lo + n], total)
        half = n // 2
        half -= half % 8
        return block(lo, half) + block(lo + half, n - half)

    return 0.0 + block(0, len(values))  # numpy starts from 0.0, so -0.0 sums to 0.0


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
    and constant runs are compared on equal footing.  The reference is read
    at each row's own time and must cover the whole run.
    """
    rows = record.rows
    if not rows:
        return ErrorSummary(0.0, 0.0, 0.0, 0.0, 0)
    p0 = ref.bond_powers([row.t for row in rows])
    weighted = [row.bonds[bond].P_12 * row.dt for row in rows]
    errors = [abs(row.bonds[bond].P_12 - p) * row.dt for row, p in zip(rows, p0)]
    total_t = record.duration
    return ErrorSummary(
        mean_P12=pairwise_sum(weighted) / total_t,
        mean_abs_dP=pairwise_sum(errors) / total_t,
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
) -> list[SweepPoint]:
    """Constant-step runs over ``dt_values``, recording both error curves.

    All runs execute before the reference is solved, so a divergent step size
    fails fast without paying for the reference solution.
    """
    records = []
    for dt in dt_values:
        slots, graph = build_reticulation(reticulation, params, micro_s1, micro_s2)
        records.append(run_cosimulation(slots, graph, ConstantStep(dt), t_end))
    ref = reference_solve(params, t_end, reticulation)
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
    ``dt_lo`` stable, ``dt_hi`` divergent.  The bisection also ends when the
    two ends are adjacent floats, so any positive ``resolution`` terminates.
    """
    if not 0.0 < dt_lo < dt_hi:
        raise ValueError("require 0 < dt_lo < dt_hi")
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    if not (isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold must be finite and positive, got {threshold}")

    def scan(dt):
        return _diverges(dt, params, reticulation, t_scan, micro_s1, micro_s2, threshold)

    if scan(dt_lo):
        raise NoOnsetInRange(f"lower bound {dt_lo} already diverges")
    if not scan(dt_hi):
        raise NoOnsetInRange(f"upper bound {dt_hi} does not diverge")
    lo, hi = dt_lo, dt_hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket is one ulp wide: nothing lies between
            break
        if scan(mid):
            hi = mid
        else:
            lo = mid
    return hi
