"""Independent checks of the reference oracle, for the tests only.

The matrix-exponential solution of the linear preset, a scipy DOP853 solution
of either preset and the damper's dissipated energy, all computed with
numpy / scipy from outside the oracle, and the oracle's bond power at a
tolerance of the caller's choice.
"""

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from eccosim.quartercar import QuarterCarParams
from eccosim.reference import _STEP_WIDTH, ReferenceTrajectory, _solve


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
