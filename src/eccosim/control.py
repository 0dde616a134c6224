"""Macro step size policies.

Two policies drive the master loop: a constant step, and one PI controller
fed by an error indicator.  The residual-energy indicator (scale-invariant,
exact local power error) gives the paper's controller; the output-extrapolation
indicator measures the prediction miss of a predictor/corrector baseline.  Both
share the same PI update and the same rate/absolute step clamps.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from math import isfinite, sqrt
from typing import Sequence

from .energy import BOND_FIELDS
from .model import Frozen, SimulatorFailure

# Where the residual-energy indicator finds its values in a ledger step.
_DE_RES, _E_STEP = BOND_FIELDS.index("dE_res"), BOND_FIELDS.index("E_step")

# Indicators are clamped below this before exponentiation so a vanishing
# residual cannot divide by zero; growth is then limited by theta_max anyway.
EPS_FLOOR = 1e-12


def _broadcast(value, n: int, name: str) -> tuple[float, ...]:
    if isinstance(value, (int, float)):
        return (float(value),) * n
    values = tuple(float(v) for v in value)
    if len(values) != n:
        raise ValueError(f"{name} needs 1 or {n} values, got {len(values)}")
    return values


class PIConfig(Frozen):
    """Safety factor and step clamps of the PI step update, shared by every indicator."""

    _field_defaults = {
        "alpha_s": 0.8, "dt_min": 1e-4, "dt_max": 1e-2, "theta_min": 0.2, "theta_max": 1.5
    }
    __slots__ = tuple(_field_defaults)

    def __init__(self, **values: float):
        super().__init__(**values)
        if not 0.0 < self.dt_min <= self.dt_max:
            raise ValueError("require 0 < dt_min <= dt_max")
        if not 0.0 < self.theta_min < 1.0 < self.theta_max:
            raise ValueError("require 0 < theta_min < 1 < theta_max")
        if not 0.0 < self.alpha_s <= 1.0:
            raise ValueError("require 0 < alpha_s <= 1")


def _validate_sign(value, name: str, zero_ok: bool = False) -> None:
    values = (value,) if isinstance(value, (int, float)) else tuple(value)
    if not all(v >= 0.0 if zero_ok else v > 0.0 for v in values):
        raise ValueError(f"{name} must be {'non-negative' if zero_ok else 'strictly positive'}")


def ecco_indicator(
    bond_steps: Sequence[Sequence[float]],
    rel_tol: Sequence[float],
    energy_scale: Sequence[float],
) -> float:
    """Scalar error indicator from each bond's ledger values in ``BOND_FIELDS`` order.

    RMS over bonds of dE_res_k / (r_k * (E0_k + |E_step_k|)); values <= 1
    mean the residual energies are within tolerance.
    """
    acc = 0.0
    for step, r, e0 in zip(bond_steps, rel_tol, energy_scale, strict=True):
        term = step[_DE_RES] / (r * (e0 + abs(step[_E_STEP])))
        acc += term * term
    return sqrt(acc / len(bond_steps))


def pi_step_size(
    eps_now: float,
    eps_prev: float,
    dt_now: float,
    k_i: float,
    k_p: float,
    alpha_s: float,
    dt_min: float,
    dt_max: float,
    theta_min: float,
    theta_max: float,
) -> float:
    """PI step update: alpha_s * eps_now^(-k_i-k_p) * eps_prev^k_p * dt_now.

    The raw proposal is rate-clamped to [theta_min, theta_max] * dt_now first,
    then clamped to the absolute bounds [dt_min, dt_max]; the absolute bounds
    win if the two intervals are disjoint.
    """
    e_now = eps_now if eps_now > EPS_FLOOR else EPS_FLOOR
    e_prev = eps_prev if eps_prev > EPS_FLOOR else EPS_FLOOR
    raw = alpha_s * e_now ** (-k_i - k_p) * e_prev**k_p * dt_now
    dt = min(max(raw, theta_min * dt_now), theta_max * dt_now)
    return min(max(dt, dt_min), dt_max)


def predict_outputs(
    history: Sequence[tuple[float, Sequence[float]]], t_next: float
) -> list[float]:
    """Extrapolate each output to ``t_next`` along the line through the last two samples.

    ``history`` holds ``(t, outputs)`` samples, at least two; past step sizes
    may be non-uniform.
    """
    (t0, y0), (t1, y1) = history[-2], history[-1]
    w0 = (t_next - t1) / (t0 - t1)
    w1 = (t_next - t0) / (t1 - t0)
    return [w0 * a + w1 * b for a, b in zip(y0, y1)]


def pc_indicator(
    y: Sequence[float],
    y_pred: Sequence[float],
    tol: Sequence[float],
    rho: Sequence[float],
) -> float:
    """Predictor/corrector error indicator.

    Worst output of |y - y_pred| / (TOL * (1 + rho * max(|y|, |y_pred|))).
    Unlike the residual-energy indicator this is sensitive to output scaling.
    """
    worst = 0.0
    for ya, pa, t, r in zip(y, y_pred, tol, rho, strict=True):
        err = abs(ya - pa) / (t * (1.0 + r * max(abs(ya), abs(pa))))
        if err > worst:
            worst = err
    return worst


class StepPolicy(ABC):
    """Interface the master loop drives: :meth:`start` once per run, then
    :meth:`next_step` once per accepted macro step.  Neither proposes a step
    size below ``min_step``, so a run's horizon bounds its step count."""

    name: str = "policy"
    min_step: float

    @abstractmethod
    def start(self, outputs: Sequence[float]) -> float:
        """Reset per-run state for a run from t = 0; return the first macro step size.

        ``outputs`` are the initial coupling outputs stacked two per bond.
        """

    @abstractmethod
    def next_step(
        self,
        t_next: float,
        dt_used: float,
        bond_steps: Sequence[Sequence[float]],
        outputs: Sequence[float],
    ) -> tuple[float, float]:
        """Consume one completed step; return (next step size, logged indicator).

        ``bond_steps`` holds each bond's ledger values in ``BOND_FIELDS`` order.
        """


class ConstantStep(StepPolicy):
    """Fixed macro step size ``dt``, its ``min_step``; the indicator is logged as 0."""

    name = "constant"

    def __init__(self, dt: float):
        if not (isfinite(dt) and dt > 0.0):
            raise ValueError(f"constant step size must be finite and positive, got {dt}")
        self.min_step = dt

    def start(self, outputs):
        return self.min_step

    def next_step(self, t_next, dt_used, bond_steps, outputs):
        return self.min_step, 0.0


class ResidualEnergyIndicator:
    """Residual energy per step against each bond's energy resolution.

    ``rel_tol`` and ``energy_scale`` may be scalars or one value per bond; the
    bond count is taken from the stacked outputs at :meth:`start`.  Inputs are
    extrapolated as constants (m = 0), so the gains are 0.3/(m+2) and 0.4/(m+2).
    """

    name = "ecco"
    k_i = 0.15
    k_p = 0.2

    def __init__(
        self,
        rel_tol: float | Sequence[float] = 1e-5,
        energy_scale: float | Sequence[float] = 750.0,
    ):
        _validate_sign(rel_tol, "rel_tol")
        _validate_sign(energy_scale, "energy_scale")
        self.rel_tol = rel_tol
        self.energy_scale = energy_scale

    def start(self, outputs: Sequence[float]) -> None:
        n_bonds = len(outputs) // 2
        if n_bonds < 1:
            raise ValueError("residual-energy control needs at least one bond")
        self.bond_rel_tol = _broadcast(self.rel_tol, n_bonds, "rel_tol")
        self.bond_energy_scale = _broadcast(self.energy_scale, n_bonds, "energy_scale")
        # r * (E0 + |E|) >= r * E0 in float arithmetic, so a nonzero product
        # here keeps every indicator denominator nonzero.
        if any(r * e0 == 0.0 for r, e0 in zip(self.bond_rel_tol, self.bond_energy_scale)):
            raise ValueError("rel_tol * energy_scale underflows to 0")

    def __call__(self, t_next, bond_steps, outputs) -> float:
        return ecco_indicator(bond_steps, self.bond_rel_tol, self.bond_energy_scale)


class OutputExtrapolationIndicator:
    """Miss of a linear extrapolation of the coupling outputs.

    ``tol`` and ``rho`` may be scalars or one value per coupling output; the
    output count is taken from the outputs at :meth:`start`.  The
    extrapolation order is r = m + 1 = 1, so the gains are 0.3/r and 0.4/r.
    Until two samples are stored the indicator is ``None``.
    """

    name = "predictor_corrector"
    k_i = 0.3
    k_p = 0.4

    def __init__(
        self,
        tol: float | Sequence[float] = 1.0,
        rho: float | Sequence[float] = 1e-4,
    ):
        _validate_sign(tol, "tol")
        _validate_sign(rho, "rho", zero_ok=True)
        self.tol = tol
        self.rho = rho

    def start(self, outputs: Sequence[float]) -> None:
        if not outputs:
            raise ValueError("predictor/corrector control needs coupling outputs")
        self.output_tol = _broadcast(self.tol, len(outputs), "tol")
        self.output_rho = _broadcast(self.rho, len(outputs), "rho")
        self.history = deque([(0.0, tuple(outputs))], maxlen=2)

    def __call__(self, t_next, bond_steps, outputs) -> float | None:
        eps = None
        if len(self.history) == 2:
            y_pred = predict_outputs(self.history, t_next)
            eps = pc_indicator(outputs, y_pred, self.output_tol, self.output_rho)
        self.history.append((t_next, tuple(outputs)))
        return eps


class PIController(StepPolicy):
    """PI step controller driven by an error indicator; never re-steps.

    The indicator supplies ``name``, the gains ``k_i``/``k_p``,
    ``start(outputs)`` and a call ``(t_next, bond_steps, outputs)`` returning
    the step's error, or ``None`` while it cannot judge yet; the step size is
    then kept and 0 is logged.  The first step ``dt0`` defaults to
    ``config.dt_min`` and must lie in ``[dt_min, dt_max]``.  :meth:`start`
    binds the indicator's call, and the gains and ``PIConfig`` bounds in
    ``pi_step_size``'s argument order, once per run, and resets the previous
    error to 1.  An error that is not finite raises :class:`SimulatorFailure`.
    """

    def __init__(self, indicator, config: PIConfig = PIConfig(), dt0: float | None = None):
        dt0 = config.dt_min if dt0 is None else dt0
        if not config.dt_min <= dt0 <= config.dt_max:
            raise ValueError(f"dt0={dt0} outside [{config.dt_min}, {config.dt_max}]")
        self.indicator = indicator
        self.config = config
        self.dt0 = dt0
        # pi_step_size clamps every proposal to at least dt_min; a None indicator keeps the step.
        self.min_step = config.dt_min
        self.name = indicator.name

    def start(self, outputs):
        cfg, ind = self.config, self.indicator
        ind.start(outputs)
        self.measure = ind.__call__  # a bound method is called faster than an instance
        self.bound = (
            ind.k_i, ind.k_p, cfg.alpha_s, cfg.dt_min, cfg.dt_max, cfg.theta_min, cfg.theta_max
        )
        self.eps_prev = 1.0
        return self.dt0

    def next_step(self, t_next, dt_used, bond_steps, outputs):
        eps = self.measure(t_next, bond_steps, outputs)
        if eps is None:
            return dt_used, 0.0
        if not isfinite(eps):
            raise SimulatorFailure(f"{self.name} indicator is {eps} at t={t_next}")
        dt_next = pi_step_size(eps, self.eps_prev, dt_used, *self.bound)
        self.eps_prev = eps if eps > EPS_FLOOR else EPS_FLOOR
        return dt_next, eps
