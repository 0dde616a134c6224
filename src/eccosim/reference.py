"""Monolithic reference solver and the error metrics derived from it.

The reference solves the full 4-state quarter car from rest with an adaptive
Dormand-Prince 5(4) integrator and keeps the dense output of every accepted
step (Hairer, Norsett & Wanner, Solving ODEs I, section II.6), so the exact
coupling bond power of either reticulation can be read at any time of the
run.  Error summaries compare a co-simulation record against it at each
communication point's own time.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import namedtuple
from functools import lru_cache, reduce
from math import isfinite
from operator import add
from typing import Iterator, Sequence

from .master import RunRecord
from .quartercar import RETICULATIONS, ROAD_HEIGHT, QuarterCarParams, spring_damper_force


class TimeRangeMismatch(ValueError):
    """The reference trajectory does not cover the run being summarized."""


#: Doubles per accepted step in ``ReferenceTrajectory.steps``: the step's start
#: time and length, then its five dense-output coefficients for each state.
_STEP_WIDTH = 22


class ReferenceTrajectory(namedtuple("ReferenceTrajectory", "params reticulation t_end t steps")):
    """Dense monolithic solution with the bond signal of one reticulation.

    ``steps`` holds ``_STEP_WIDTH`` doubles per accepted step: its start time,
    its length, then the dense-output coefficients ``c1 .. c5`` of the states
    ``(z_c, v_c, z_w, v_w)``, four at a time.  ``t`` holds the start times
    alone.  Both come from the solver's cache; treat them as read-only.
    """

    __slots__ = ()

    def step_at(self, time: float) -> int:
        """Index of the accepted step whose interval holds ``time``."""
        if not 0.0 <= time <= self.t_end:
            raise TimeRangeMismatch(f"time {time} outside reference range [0, {self.t_end}]")
        return bisect_right(self.t, time) - 1

    def states_at(self, time: float) -> tuple[float, float, float, float]:
        """States ``(z_c, v_c, z_w, v_w)`` at ``time`` from the dense output."""
        return next(self.states_along((time,)))

    def states_along(self, times: Sequence[float]) -> Iterator[tuple[float, float, float, float]]:
        """States ``(z_c, v_c, z_w, v_w)`` at each of the ascending ``times``.

        One walk over the accepted steps, from the step of the first time,
        serves all times, and each step's coefficients are unpacked once.
        Raises ``TimeRangeMismatch`` when the times leave ``[0, t_end]`` and
        ``ValueError`` when they descend.
        """
        if not times:
            return
        if not times[-1] <= self.t_end:
            raise TimeRangeMismatch(f"time {times[-1]} outside reference range [0, {self.t_end}]")
        starts, steps = self.t, self.steps
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
            yield (
                z1 + theta * (z2 + theta1 * (z3 + theta * (z4 + theta1 * z5))),
                v1 + theta * (v2 + theta1 * (v3 + theta * (v4 + theta1 * v5))),
                w1 + theta * (w2 + theta1 * (w3 + theta * (w4 + theta1 * w5))),
                u1 + theta * (u2 + theta1 * (u3 + theta * (u4 + theta1 * u5))),
            )

    def bond_powers(self, times: Sequence[float]) -> list[float]:
        """Exact bond power ``P0_12`` at each of ``times``; see :meth:`states_along`."""
        params, force = self.params, spring_damper_force
        states = self.states_along(times)
        if self.reticulation == "A":  # the bond carries the chassis velocity
            return [force(z_c, z_w, v_c, v_w, params) * v_c for z_c, v_c, z_w, v_w in states]
        return [force(z_c, z_w, v_c, v_w, params) * v_w for z_c, v_c, z_w, v_w in states]


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


# The tableau unpacked once for the straight-line step below; a72, e2 and d2
# are zero and their terms are left out.
(_A21,), (_A31, _A32), (_A41, _A42, _A43), (_A51, _A52, _A53, _A54), \
    (_A61, _A62, _A63, _A64, _A65), (_A71, _, _A73, _A74, _A75, _A76) = _DP_A
_E1, _, _E3, _E4, _E5, _E6, _E7 = _DP_E
_D1, _, _D3, _D4, _D5, _D6, _D7 = _DP_D


@lru_cache(maxsize=16)
def _solve(params: QuarterCarParams, t_end: float, tol: float = _DP_TOL) -> tuple[array, array]:
    """Adaptive Dormand-Prince 5(4) from rest to ``t_end``: ``(starts, steps)``.

    Each accepted step stores its start time, its length and the five dense
    output coefficients of each state in ``steps``; ``starts`` repeats the
    start times.  Raises ``ValueError`` for a horizon that is not finite and
    positive, a non-finite error estimate or a step size that underflows.

    The step is written out over the four states ``(z, v, w, u)`` =
    ``(z_c, v_c, z_w, v_w)``.  The derivatives of ``z`` and ``w`` are ``v``
    and ``u``, so each stage ``i`` computes only the accelerations ``ai`` and
    ``bi`` of chassis and wheel.  Every tableau sum runs left to right over
    the stages, so the bits do not depend on how a Python version sums.
    """
    if not (isfinite(t_end) and t_end > 0.0):
        raise ValueError(f"t_end must be finite and positive, got {t_end}")
    m_c, m_w, k_w = params.m_c, params.m_w, params.k_w
    road = ROAD_HEIGHT
    force = spring_damper_force
    steps = array("d")
    extend = steps.extend
    t = 0.0
    z = v = w = u = 0.0
    f = force(z, w, v, u, params)
    a1 = -f / m_c
    b1 = (f - k_w * (w - road)) / m_w
    h = _DP_H0
    while t < t_end:
        h = min(h, t_end - t)
        if t + h == t:
            raise ValueError(f"reference step size underflow at t={t} for {params}")
        z2 = z + h * (_A21 * v)
        v2 = v + h * (_A21 * a1)
        w2 = w + h * (_A21 * u)
        u2 = u + h * (_A21 * b1)
        f = force(z2, w2, v2, u2, params)
        a2 = -f / m_c
        b2 = (f - k_w * (w2 - road)) / m_w
        z3 = z + h * (_A31 * v + _A32 * v2)
        v3 = v + h * (_A31 * a1 + _A32 * a2)
        w3 = w + h * (_A31 * u + _A32 * u2)
        u3 = u + h * (_A31 * b1 + _A32 * b2)
        f = force(z3, w3, v3, u3, params)
        a3 = -f / m_c
        b3 = (f - k_w * (w3 - road)) / m_w
        z4 = z + h * (_A41 * v + _A42 * v2 + _A43 * v3)
        v4 = v + h * (_A41 * a1 + _A42 * a2 + _A43 * a3)
        w4 = w + h * (_A41 * u + _A42 * u2 + _A43 * u3)
        u4 = u + h * (_A41 * b1 + _A42 * b2 + _A43 * b3)
        f = force(z4, w4, v4, u4, params)
        a4 = -f / m_c
        b4 = (f - k_w * (w4 - road)) / m_w
        z5 = z + h * (_A51 * v + _A52 * v2 + _A53 * v3 + _A54 * v4)
        v5 = v + h * (_A51 * a1 + _A52 * a2 + _A53 * a3 + _A54 * a4)
        w5 = w + h * (_A51 * u + _A52 * u2 + _A53 * u3 + _A54 * u4)
        u5 = u + h * (_A51 * b1 + _A52 * b2 + _A53 * b3 + _A54 * b4)
        f = force(z5, w5, v5, u5, params)
        a5 = -f / m_c
        b5 = (f - k_w * (w5 - road)) / m_w
        z6 = z + h * (_A61 * v + _A62 * v2 + _A63 * v3 + _A64 * v4 + _A65 * v5)
        v6 = v + h * (_A61 * a1 + _A62 * a2 + _A63 * a3 + _A64 * a4 + _A65 * a5)
        w6 = w + h * (_A61 * u + _A62 * u2 + _A63 * u3 + _A64 * u4 + _A65 * u5)
        u6 = u + h * (_A61 * b1 + _A62 * b2 + _A63 * b3 + _A64 * b4 + _A65 * b5)
        f = force(z6, w6, v6, u6, params)
        a6 = -f / m_c
        b6 = (f - k_w * (w6 - road)) / m_w
        # the 5th-order solution; its derivative is the next step's first stage
        z7 = z + h * (_A71 * v + _A73 * v3 + _A74 * v4 + _A75 * v5 + _A76 * v6)
        v7 = v + h * (_A71 * a1 + _A73 * a3 + _A74 * a4 + _A75 * a5 + _A76 * a6)
        w7 = w + h * (_A71 * u + _A73 * u3 + _A74 * u4 + _A75 * u5 + _A76 * u6)
        u7 = u + h * (_A71 * b1 + _A73 * b3 + _A74 * b4 + _A75 * b5 + _A76 * b6)
        f = force(z7, w7, v7, u7, params)
        a7 = -f / m_c
        b7 = (f - k_w * (w7 - road)) / m_w
        err = (
            (h * (_E1 * v + _E3 * v3 + _E4 * v4 + _E5 * v5 + _E6 * v6 + _E7 * v7)
             / (tol * (1.0 + max(abs(z), abs(z7))))) ** 2
            + (h * (_E1 * a1 + _E3 * a3 + _E4 * a4 + _E5 * a5 + _E6 * a6 + _E7 * a7)
               / (tol * (1.0 + max(abs(v), abs(v7))))) ** 2
            + (h * (_E1 * u + _E3 * u3 + _E4 * u4 + _E5 * u5 + _E6 * u6 + _E7 * u7)
               / (tol * (1.0 + max(abs(w), abs(w7))))) ** 2
            + (h * (_E1 * b1 + _E3 * b3 + _E4 * b4 + _E5 * b5 + _E6 * b6 + _E7 * b7)
               / (tol * (1.0 + max(abs(u), abs(u7))))) ** 2
        )
        err = (0.25 * err) ** 0.5
        if not isfinite(err):
            raise ValueError(f"non-finite reference error estimate at t={t} for {params}")
        if err <= 1.0:
            dz, dv, dw, du = z7 - z, v7 - v, w7 - w, u7 - u
            sz, sv, sw, su = h * v - dz, h * a1 - dv, h * u - dw, h * b1 - du
            extend((
                t, h, z, v, w, u, dz, dv, dw, du, sz, sv, sw, su,
                dz - h * v7 - sz, dv - h * a7 - sv, dw - h * u7 - sw, du - h * b7 - su,
                h * (_D1 * v + _D3 * v3 + _D4 * v4 + _D5 * v5 + _D6 * v6 + _D7 * v7),
                h * (_D1 * a1 + _D3 * a3 + _D4 * a4 + _D5 * a5 + _D6 * a6 + _D7 * a7),
                h * (_D1 * u + _D3 * u3 + _D4 * u4 + _D5 * u5 + _D6 * u6 + _D7 * u7),
                h * (_D1 * b1 + _D3 * b3 + _D4 * b4 + _D5 * b5 + _D6 * b6 + _D7 * b7),
            ))
            t += h
            z, v, w, u, a1, b1 = z7, v7, w7, u7, a7, b7
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


def _pairwise_block(values: Sequence[float], lo: int, n: int) -> float:
    """numpy's pairwise sum of ``values[lo : lo + n]``; see :func:`pairwise_sum`."""
    if n < 8:
        return reduce(add, values[lo : lo + n], 0.0)
    if n <= 128:
        end = lo + n - n % 8
        r = [reduce(add, values[k:end:8]) for k in range(lo, lo + 8)]
        total = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
        return reduce(add, values[end : lo + n], total)
    half = n // 2
    half -= half % 8
    return _pairwise_block(values, lo, half) + _pairwise_block(values, lo + half, n - half)


def pairwise_sum(values: Sequence[float]) -> float:
    """Sum of ``values`` in numpy's pairwise order, so it equals ``np.sum`` bit for bit.

    Runs of at most 128 are summed by 8 interleaved accumulators; longer runs
    are split at half their length, rounded down to a multiple of 8.
    """
    # numpy starts from 0.0, so -0.0 sums to 0.0
    return 0.0 + _pairwise_block(values, 0, len(values))


class ErrorSummary(
    namedtuple("ErrorSummary", "mean_P12 mean_abs_dP total_residual mean_dt step_count")
):
    """Run-level metrics: bond power mean, mean absolute power error, residual."""

    __slots__ = ()


def summarize(record: RunRecord, ref: ReferenceTrajectory, bond: int = 0) -> ErrorSummary:
    """Time-averaged error metrics of a run against the reference trajectory.

    Averages weight each communication point with its step size, so adaptive
    and constant runs are compared on equal footing.  The reference is read
    at each row's own time and must cover the whole run.  Raises
    ``ValueError`` for a run without steps.
    """
    if not record.step_count:
        raise ValueError("the run has no steps to summarize")
    p12, dt = record.column("P_12", bond), record.column("dt")
    p0 = ref.bond_powers(record.column("t"))
    weighted = [p * h for p, h in zip(p12, dt)]
    errors = [abs(p - q) * h for p, q, h in zip(p12, p0, dt)]
    total_t = record.duration
    return ErrorSummary(
        mean_P12=pairwise_sum(weighted) / total_t,
        mean_abs_dP=pairwise_sum(errors) / total_t,
        total_residual=record.total_residual(bond),
        mean_dt=record.mean_dt(),
        step_count=record.step_count,
    )
