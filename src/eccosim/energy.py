"""Energy bookkeeping for power bonds.

Per-port powers, the (approximate) transmitted bond power, and the residual
power/energy that measures how much energy the coupling wrongfully creates or
destroys during each macro step.  A positive residual adds energy to the
coupled system, a negative one drains it.
"""

from __future__ import annotations

#: What :meth:`BondLedger.record` returns for one bond and one step, in order.
BOND_FIELDS = ("P_port1", "P_port2", "P_12", "dP_res", "dE_res", "E_step", "E_res_accum")


class CompensatedSum:
    """Neumaier compensated accumulator; keeps long running sums at full precision."""

    __slots__ = ("_s", "_c")

    def __init__(self):
        self._s = 0.0
        self._c = 0.0

    def add(self, x: float) -> float:
        """Add ``x``; return the compensated sum of every value added so far."""
        t = self._s + x
        if abs(self._s) >= abs(x):
            self._c += (self._s - t) + x
        else:
            self._c += (x - t) + self._s
        self._s = t
        return t + self._c


class BondLedger:
    """Running residual energy of one bond of sign ``sigma``; :meth:`record`
    returns each step's values."""

    __slots__ = ("_add", "_sigma")

    def __init__(self, sigma: float):
        self._add = CompensatedSum().add
        self._sigma = sigma

    def record(self, dt: float, u1: float, u2: float, y1: float, y2: float) -> tuple[float, ...]:
        """Account one completed macro step from held inputs and fresh outputs.

        Port 1 is the bond's effort port, port 2 its flow port.  Returns the
        :data:`BOND_FIELDS` of the step: the port powers
        ``u1*y1`` and ``u2*y2``, the transmitted power ``sigma*y1*y2``, the
        residual power ``-(u1*y1 + u2*y2)``, the residual energy
        ``dP_res*dt`` (rectangle rule), the transmitted energy ``P_12*dt``,
        and the compensated running sum of the residual energies since t = 0.
        """
        p1 = u1 * y1
        p2 = u2 * y2
        p12 = self._sigma * (y1 * y2)
        dp = -(p1 + p2)
        de = dp * dt
        return p1, p2, p12, dp, de, p12 * dt, self._add(de)
