"""Energy bookkeeping for power bonds.

Per-port powers, the (approximate) transmitted bond power, and the residual
power/energy that measures how much energy the coupling wrongfully creates or
destroys during each macro step.  A positive residual adds energy to the
coupled system, a negative one drains it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .model import PowerBond


def port_power(u: float, y: float) -> float:
    """Power through one port: input times output (one effort, one flow)."""
    return u * y


def transmitted_power(bond: PowerBond, y1: float, y2: float) -> float:
    """Approximate power flowing through the bond, sigma * y1 * y2."""
    return bond.sigma * (y1 * y2)


def residual_power(u_prev: Sequence[float], y_next: Sequence[float]) -> float:
    """Residual power of one bond, -(u1*y1 + u2*y2).

    ``u_prev`` are the inputs set at the start of the macro step, ``y_next``
    the outputs collected at its end.  Zero means the exchange was balanced.
    """
    u1, u2 = u_prev
    y1, y2 = y_next
    return -(u1 * y1 + u2 * y2)


def residual_energy_step(dp_res: float, dt: float) -> float:
    """Residual energy of one macro step by the rectangle rule, dp_res * dt."""
    return dp_res * dt


def total_residual_power(u_all: Sequence[float], y_all: Sequence[float]) -> float:
    """Residual power summed over all bonds from stacked input/output vectors.

    Vectors are stacked bond by bond (u_a1, u_a2, u_b1, u_b2, ...); the result
    is -u.y, accumulated bond-wise so it equals the sum of the per-bond
    :func:`residual_power` values exactly.
    """
    if len(u_all) != len(y_all):
        raise ValueError(f"length mismatch: {len(u_all)} inputs vs {len(y_all)} outputs")
    if len(u_all) % 2:
        raise ValueError("stacked coupling vectors pair two ports per bond")
    total = 0.0
    for k in range(0, len(u_all), 2):
        total += -(u_all[k] * y_all[k] + u_all[k + 1] * y_all[k + 1])
    return total


def average_local_power_error(dp_res: float) -> float:
    """Mean of the two ports' local power errors, exactly -dp_res / 2."""
    return -0.5 * dp_res


class CompensatedSum:
    """Neumaier compensated accumulator; keeps long running sums at full precision."""

    __slots__ = ("_s", "_c")

    def __init__(self, value: float = 0.0):
        self._s = value
        self._c = 0.0

    def add(self, x: float) -> None:
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t

    @property
    def value(self) -> float:
        return self._s + self._c


@dataclass(slots=True)
class BondLedgerEntry:
    """One macro step of one bond: powers, residuals, and the running residual sum.

    ``dE_res == dP_res * dt`` holds exactly (rectangle rule); ``E_res_accum``
    is the compensated running sum of ``dE_res`` since t = 0.  Entries are
    treated as read-only; the class is not frozen because a frozen dataclass
    costs several times more to build, and one is built per bond per step.
    """

    t_next: float
    dt: float
    P_port1: float
    P_port2: float
    P_12: float
    dP_res: float
    dE_res: float
    E_step: float
    E_res_accum: float


class BondLedger:
    """Running residual energy of one bond; :meth:`record` returns each step's entry."""

    def __init__(self, bond: PowerBond):
        self._accum = CompensatedSum()
        self._sigma = bond.sigma

    def record(
        self, t_next: float, dt: float, u1: float, u2: float, y1: float, y2: float
    ) -> BondLedgerEntry:
        """Account one completed macro step from held inputs and fresh outputs.

        The arithmetic is that of :func:`port_power`, :func:`transmitted_power`
        and :func:`residual_energy_step`, inlined because it runs every step.
        """
        p1 = u1 * y1
        p2 = u2 * y2
        p12 = self._sigma * (y1 * y2)
        dp = -(p1 + p2)
        de = dp * dt
        accum = self._accum
        accum.add(de)
        return BondLedgerEntry(t_next, dt, p1, p2, p12, dp, de, p12 * dt, accum.value)

    @property
    def total_residual(self) -> float:
        """Compensated sum of all residual energies so far (joules)."""
        return self._accum.value
