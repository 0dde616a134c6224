"""Independent checks of the reference oracle, for the tests only.

The matrix-exponential solution of the linear preset, a scipy DOP853 solution
of either preset and the damper's dissipated energy, all computed with
numpy / scipy from outside the oracle, the oracle's bond power at a
tolerance of the caller's choice, the Dormand-Prince solve written as a
generic loop over the tableau rows, which the oracle's straight-line step
must match bit for bit, and the co-simulation master written as a generic
loop over slots and bonds, which the loop compiled per run shape must match
in the same way.
"""

from array import array
from functools import reduce
from itertools import chain
from math import inf, isfinite
from operator import add, itemgetter, mul
from struct import Struct

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from eccosim.energy import BondLedger, CompensatedSum
from eccosim.master import RunRecord, SimulatorFailure, _check, _probe_layout
from eccosim.model import apply_connections, validate_graph
from eccosim.quartercar import ROAD_HEIGHT, QuarterCarParams, spring_damper_force
from eccosim.reference import _DP_A, _DP_D, _DP_E, _DP_H0, _STEP_WIDTH, ReferenceTrajectory, _solve


def linear_system(params: QuarterCarParams) -> tuple[np.ndarray, np.ndarray]:
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


def linear_exact_states(params: QuarterCarParams, times) -> np.ndarray:
    """Closed-form matrix-exponential solution of the linear preset.

    Valid only for a linear damping law (exponent 1).  Returns one row
    (z_c, v_c, z_w, v_w) per requested time.
    """
    if params.damping_exponent != 1.0:
        raise ValueError("closed-form solution requires the linear damping law")
    a, x_rest = linear_system(params)
    out = np.empty((len(times), 4))
    for i, t in enumerate(times):
        out[i] = x_rest + expm(a * t) @ (-x_rest)  # x0 = 0
    return out


def scipy_states(params: QuarterCarParams, times) -> np.ndarray:
    """Either preset solved by scipy's DOP853 at ``rtol=1e-12`` from rest.

    The right-hand side is written out here, apart from the oracle's.
    Returns one row (z_c, v_c, z_w, v_w) per requested time.
    """

    def rhs(_t, x):
        z_c, v_c, z_w, v_w = x
        dv = v_c - v_w
        f_c = params.k_c * (z_c - z_w) + params.d_c * np.sign(dv) * abs(dv) ** params.damping_exponent
        return [v_c, -f_c / params.m_c, v_w, (f_c - params.k_w * (z_w - 0.1)) / params.m_w]

    sol = solve_ivp(rhs, (0.0, times[-1]), [0.0] * 4, "DOP853", t_eval=times, rtol=1e-12, atol=1e-14)
    if not sol.success:
        raise RuntimeError(sol.message)
    return sol.y.T


def damper_dissipation(traj: ReferenceTrajectory) -> float:
    """Energy dissipated by the suspension damper over the trajectory (joules).

    Five-point Gauss-Legendre quadrature on each accepted step's dense output,
    exact for the linear damping law.
    """
    data = np.frombuffer(traj.steps).reshape(-1, _STEP_WIDTH)
    nodes, weights = np.polynomial.legendre.leggauss(5)
    theta = (0.5 * (nodes + 1.0))[None, :, None]
    theta1 = 1.0 - theta
    c1, c2, c3, c4, c5 = (data[:, None, 2 + 4 * k : 6 + 4 * k] for k in range(5))
    states = c1 + theta * (c2 + theta1 * (c3 + theta * (c4 + theta1 * c5)))
    dv = states[..., 1] - states[..., 3]
    p = traj.params
    power = p.d_c * np.abs(dv) ** (p.damping_exponent + 1.0)
    return float(0.5 * np.sum(data[:, 1] * (power @ weights)))


def bond_powers_at_tolerance(params: QuarterCarParams, t_end: float, tol: float, times) -> list[float]:
    """Reticulation A bond power at ``times`` of the oracle solved at ``tol`` to ``t_end``."""
    return ReferenceTrajectory(params, "A", t_end, *_solve(params, t_end, tol)).bond_powers(times)


def _rhs(params: QuarterCarParams, x) -> list[float]:
    """Time derivative of the monolithic quarter car under the road step."""
    z_c, v_c, z_w, v_w = x
    f_c = spring_damper_force(z_c, z_w, v_c, v_w, params)
    f_w = params.k_w * (z_w - ROAD_HEIGHT)  # the tyre spring on the raised road
    return [v_c, -f_c / params.m_c, v_w, (f_c - f_w) / params.m_w]


def _dot(row, ks) -> float:
    """``row . ks`` summed left to right from 0, on every Python version."""
    return reduce(add, map(mul, row, ks), 0)


def generic_solve(params: QuarterCarParams, t_end: float, tol: float) -> tuple[array, array]:
    """The oracle's ``(starts, steps)``, computed by looping over the tableau rows.

    The same method, step control and storage as ``reference._solve``, with
    each stage built from lists of per-state derivatives.
    """
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
            x_new = [xi + h * _dot(row, ks) for xi, ks in zip(x, stages)]
            for ks, k in zip(stages, _rhs(params, x_new)):
                ks.append(k)
        err = 0.0
        for xi, xn, ks in zip(x, x_new, stages):
            scale = tol * (1.0 + max(abs(xi), abs(xn)))
            err += (h * _dot(_DP_E, ks) / scale) ** 2
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
            steps.extend([h * _dot(_DP_D, ks) for ks in stages])
            t += h
            x = x_new
            k_first = [ks[-1] for ks in stages]
        h *= min(5.0, max(0.2, 0.9 * max(err, 1e-10) ** -0.2))
    return steps[::_STEP_WIDTH], steps


def generic_cosimulation(slots, bonds, policy, t_end: float) -> RunRecord:
    """The record of ``master.run_cosimulation``, from one loop for every run shape.

    It keeps lists of the slots' signals, screens them by comparing their
    lengths and value types with the run's as one list, and picks the
    coupling outputs and books the bonds by looping over the routes.  It
    checks none of the bounds the master checks before a run; like the
    master, it records ``t_end`` itself as the time of a step cut onto it,
    and attaches the rows before a failing step to its failure in one place.
    """
    wiring = validate_graph(bonds, slots)
    probe_names = _probe_layout(slots)
    record = RunRecord(bond_count=len(wiring.routes), probe_names=tuple(chain(*probe_names)))
    try:
        _generic_steps(slots, wiring, probe_names, policy, t_end, record)
    except SimulatorFailure as exc:
        exc.record = record
        record.complete = False
        raise
    return record


def _generic_steps(slots, wiring, probe_names, policy, t_end, record) -> None:
    """Append the rows of :func:`generic_cosimulation` to ``record``, from the check at t = 0."""
    t_tol = 1e-12 * max(t_end, 1.0)
    routes = wiring.routes
    pack_row = Struct(f"{record.width}d").pack
    output_widths = [slot.n_outputs for slot in slots]
    widths = output_widths + [len(names) for names in probe_names]
    readers = [slot.get_outputs for slot in slots] + [slot.probes for slot in slots]
    n_outputs = sum(output_widths)
    shape = widths + [float] * sum(widths)  # each vector's width, then each value's type
    picks = [sum(output_widths[:o]) + k for r in routes for o, k in ((r[0], r[2]), (r[3], r[5]))]
    pick = itemgetter(*picks) if picks else lambda values: ()
    ledgers = [BondLedger(route[6]) for route in routes]

    signals = [slot.get_outputs() for slot in slots]
    coupled = pick(_check(0.0, signals, output_widths, probe_names))
    dt_next = policy.start(coupled)
    clock = CompensatedSum().add
    t_now = 0.0
    while t_end - t_now > t_tol:
        remaining = t_end - t_now
        if not policy.min_step <= dt_next < inf:
            raise ValueError(f"policy {policy.name!r} proposed step size {dt_next} at t={t_now}")
        if dt_next >= remaining * (1.0 - 1e-9):
            dt, t_next = remaining, t_end
        else:
            dt, t_next = dt_next, clock(dt_next)
        inputs = apply_connections(wiring, coupled)
        for slot, u in zip(slots, inputs):
            slot.set_inputs(u)
            slot.do_step(t_now, dt)
        signals = [read() for read in readers]
        try:
            values = sum(signals, ())
            if not (
                [*map(len, signals), *map(type, values)] == shape and isfinite(sum(values, 0.0))
            ):
                raise TypeError
        except TypeError:
            values = _check(t_next, signals, widths, probe_names)
        coupled = pick(values)
        bond_steps = [
            ledger.record(dt, inputs[o_e][i_e], inputs[o_f][i_f], coupled[2 * j], coupled[2 * j + 1])
            for j, (ledger, (o_e, i_e, _, o_f, i_f, _, _)) in enumerate(zip(ledgers, routes))
        ]
        for j, (o_e, _, k_e, o_f, _, k_f, _) in enumerate(routes):
            if not all(map(isfinite, bond_steps[j])):
                raise SimulatorFailure(
                    f"non-finite bond power at t={t_next}: bond {j} "
                    f"(slot {o_e} output {k_e}, slot {o_f} output {k_f})"
                )
        dt_next, eps = policy.next_step(t_next, dt, bond_steps, coupled)
        record.data.frombytes(pack_row(t_next, dt, eps, *chain(*bond_steps), *values[n_outputs:]))
        t_now = t_next
