"""Power-bond domain model: ports, bonds, the contract every attachable
subsimulator implements, and the base of the package's keyword-built value
classes.

A power bond couples two simulators through a conjugate pair of signals (an
effort and a flow) whose product is a physical power.  The wiring here is
deliberately restricted to antisymmetric two-party bonds: each side's input is
plus or minus the other side's output, with opposite signs on the two sides.
A connection graph is the plain tuple of its bonds.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import namedtuple
from operator import index
from typing import Sequence


class Frozen:
    """Base of the immutable value classes built from keywords.

    A subclass names its fields, in order, with their defaults in
    ``_field_defaults`` and in ``__slots__``.  ``==``, hash and repr see those
    fields alone, and :meth:`replace` copies through ``__init__``, so a
    subclass that validates there validates every copy.
    """

    __slots__ = ()

    def __init__(self, **values):
        for name, default in self._field_defaults.items():
            object.__setattr__(self, name, values.pop(name, default))
        if values:
            raise TypeError(f"{type(self).__name__}() got unexpected fields {sorted(values)}")

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._field_defaults)

    def replace(self, **changes):
        """A copy with ``changes`` applied, built and validated by ``__init__``."""
        return type(self)(**dict(zip(self._field_defaults, self._values()), **changes))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._field_defaults)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")


def is_count(value, least: int) -> bool:
    """Whether ``value`` is an integer (``operator.index`` takes it) of at least ``least``."""
    try:
        return index(value) >= least
    except TypeError:
        return False


class NonAntisymmetricBond(ValueError):
    """A bond's ``sigma`` is not a unit sign, +1 or -1."""


class DanglingPort(ValueError):
    """A port references a simulator or a signal index that does not exist."""


class DuplicateConnection(ValueError):
    """A simulator input or output is wired into more than one bond."""


class PowerPort(namedtuple("PowerPort", "owner input_index output_index")):
    """One side of a power bond: signal indices into the owning simulator's
    input and output vectors."""

    __slots__ = ()


class PowerBond(namedtuple("PowerBond", "effort flow sigma")):
    """Antisymmetric connection of the port that outputs the effort and the
    port that outputs the flow: u_effort = sigma*y_flow, u_flow = -sigma*y_effort.

    Valid bonds have ``sigma`` +1 or -1, the unit sign of the transmitted
    power ``sigma*y_effort*y_flow``.
    """

    __slots__ = ()


class SimulatorSlot(ABC):
    """Contract a subsimulator implements to participate in a co-simulation.

    One macro step is ``set_inputs(u)``, ``do_step(t, dt)``, ``get_outputs()``.
    Inputs are held constant for the whole step (constant extrapolation) and
    ``get_outputs`` reads the post-step state without side effects.  Identical
    state and inputs must reproduce bitwise-identical outputs.

    ``probe_names`` names the diagnostic values ``probes`` returns, in order;
    they fix the trajectory record's probe columns for a whole run.
    ``micro_step_ratio`` is the work of one ``do_step`` in micro steps: the master
    plans a run's work from it before the first step.
    """

    n_inputs: int = 0
    n_outputs: int = 0
    micro_step_ratio: int = 1
    probe_names: tuple[str, ...] = ()

    @abstractmethod
    def set_inputs(self, u: Sequence[float]) -> None:
        """Store the input vector that holds during the next ``do_step``."""

    @abstractmethod
    def do_step(self, t: float, dt: float) -> None:
        """Advance the internal state over (t, t + dt] with inputs held constant."""

    @abstractmethod
    def get_outputs(self) -> tuple[float, ...]:
        """Output vector at the current state (post-step when called after do_step)."""

    def probes(self) -> tuple[float, ...]:
        """Diagnostic state values in ``probe_names`` order; optional."""
        return ()


class SimulatorFailure(RuntimeError):
    """A step broke: a slot value the master cannot use, or a non-finite bond power or
    indicator.  ``run_cosimulation`` sets ``record`` to the rows before that step; it
    is None until then."""

    record = None


class Wiring(namedtuple("Wiring", "input_counts routes")):
    """Validated routing table produced by :func:`validate_graph`: each
    simulator's input count, and one flat route per bond, ``(o_e, i_e, k_e,
    o_f, i_f, k_f, sigma)``: owner, input index and output index of the
    effort port, then of the flow port, then the sign as a float.  An input
    no route names is 0.0."""

    __slots__ = ()


def validate_graph(bonds: Sequence[PowerBond], slots: Sequence[SimulatorSlot]) -> Wiring:
    """Check ports, signs, and exclusivity of a connection graph against slots.

    Returns the graph's :class:`Wiring`.  Raises ``ValueError`` for a slot whose
    ``n_inputs`` or ``n_outputs`` is not a non-negative integer, then
    ``NonAntisymmetricBond``, ``DanglingPort`` (also for a port field that is not an
    integer), or ``DuplicateConnection``.
    """
    for i, slot in enumerate(slots):
        for name in ("n_inputs", "n_outputs"):
            value = getattr(slot, name)
            if not is_count(value, 0):
                raise ValueError(f"slot {i} {name} {value!r} is not a non-negative integer")
    used_inputs: set[tuple[int, int]] = set()
    used_outputs: set[tuple[int, int]] = set()
    for j, bond in enumerate(bonds):
        if bond.sigma not in (1, -1):
            raise NonAntisymmetricBond(f"bond {j} sign sigma={bond.sigma} must be +1 or -1")
        for port in (bond.effort, bond.flow):
            for field, value in zip(PowerPort._fields, port):
                try:
                    index(value)
                except TypeError:
                    raise DanglingPort(f"{field} {value!r} of {port} is not an integer") from None
            if not 0 <= port.owner < len(slots):
                raise DanglingPort(f"port owner {port.owner} out of range")
            slot = slots[port.owner]
            if not 0 <= port.input_index < slot.n_inputs:
                raise DanglingPort(
                    f"input index {port.input_index} out of range for simulator {port.owner}"
                )
            if not 0 <= port.output_index < slot.n_outputs:
                raise DanglingPort(
                    f"output index {port.output_index} out of range for simulator {port.owner}"
                )
            in_key = (port.owner, port.input_index)
            out_key = (port.owner, port.output_index)
            if in_key in used_inputs:
                raise DuplicateConnection(f"input {in_key} wired twice")
            if out_key in used_outputs:
                raise DuplicateConnection(f"output {out_key} wired twice")
            used_inputs.add(in_key)
            used_outputs.add(out_key)
    # float(sigma): the exchange and the ledgers then multiply floats only
    routes = tuple((*b.effort, *b.flow, float(b.sigma)) for b in bonds)
    return Wiring(input_counts=tuple(index(s.n_inputs) for s in slots), routes=routes)


def apply_connections(wiring: Wiring, coupled: Sequence[float]) -> list[list[float]]:
    """Map coupling outputs to inputs: per bond, u_effort = sigma*y_flow and
    u_flow = -sigma*y_effort.  ``coupled`` holds each bond's effort and flow
    outputs as floats, bond by bond; unbonded inputs are 0."""
    input_counts, routes = wiring
    inputs = [[0.0] * n for n in input_counts]
    j = 0  # each bond's effort output is coupled[j], its flow output coupled[j + 1]
    for o_e, i_e, _, o_f, i_f, _, sigma in routes:
        inputs[o_e][i_e] = sigma * coupled[j + 1]
        inputs[o_f][i_f] = -sigma * coupled[j]
        j += 2
    return inputs
