"""Power-bond domain model: ports, bonds, connection graphs, the contract
every attachable subsimulator implements, and the base of the package's
keyword-built value classes.

A power bond couples two simulators through a conjugate pair of signals (an
effort and a flow) whose product is a physical power.  The wiring here is
deliberately restricted to antisymmetric two-party bonds: each side's input is
plus or minus the other side's output, with opposite signs on the two sides.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import namedtuple
from enum import Enum
from typing import NamedTuple, Sequence


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


class PortRole(Enum):
    """Which power variable a signal carries; an effort/flow product is a power."""

    EFFORT = "effort"
    FLOW = "flow"


class NonAntisymmetricBond(ValueError):
    """Bond coefficients violate c1*c2 == -1, so the bond sign degenerates to 0."""


class DanglingPort(ValueError):
    """A port references a simulator or a signal index that does not exist."""


class DuplicateConnection(ValueError):
    """A simulator input or output is wired into more than one bond."""


class PowerPort(namedtuple("PowerPort", "owner input_index output_index input_role output_role")):
    """One side of a power bond: receives one power variable, emits the conjugate.

    ``input_index``/``output_index`` address the owning simulator's input and
    output vectors.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        port = super().__new__(cls, *args, **kwargs)
        if port.input_role == port.output_role:
            raise ValueError(
                f"power port must pair an effort with a flow, got {port.input_role.value} twice"
            )
        return port


class PowerBond(NamedTuple):
    """Antisymmetric connection of two ports: u1 = c1*y2 and u2 = c2*y1.

    Valid bonds have c1, c2 in {-1, +1} with c1*c2 == -1, which makes ``sigma``
    a well-defined unit sign for the transmitted power.
    """

    port1: PowerPort
    port2: PowerPort
    c1: int
    c2: int

    @property
    def sigma(self) -> int:
        """Unit sign of the transmitted-power product, (c1 - c2) / 2."""
        return (self.c1 - self.c2) // 2


class ConnectionGraph(NamedTuple):
    """Ordered collection of power bonds wiring simulator outputs to inputs."""

    bonds: tuple[PowerBond, ...] = ()


class SimulatorSlot(ABC):
    """Contract a subsimulator implements to participate in a co-simulation.

    One macro step is ``set_inputs(u)``, ``do_step(t, dt)``, ``get_outputs()``.
    Inputs are held constant for the whole step (constant extrapolation) and
    ``get_outputs`` reads the post-step state without side effects.  Identical
    state and inputs must reproduce bitwise-identical outputs.

    ``probe_names`` names the diagnostic values ``probes`` returns, in order;
    they fix the trajectory record's probe columns for a whole run.
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


class Wiring(NamedTuple):
    """Validated routing table produced by :func:`validate_graph`.

    Keeps the bonds, the per-simulator input widths needed to materialize
    complete input vectors, and one flat route per bond,
    ``(owner1, input1, output1, c1, owner2, input2, output2, c2)``, so the
    per-step exchange reads plain integers instead of walking port objects.
    """

    bonds: tuple[PowerBond, ...]
    input_widths: tuple[int, ...]
    routes: tuple[tuple[int, int, int, int, int, int, int, int], ...]


def validate_graph(graph: ConnectionGraph, slots: Sequence[SimulatorSlot]) -> Wiring:
    """Check ports, signs, and exclusivity of a connection graph against slots.

    Returns a :class:`Wiring` usable with :func:`apply_connections`.  Raises
    ``NonAntisymmetricBond``, ``DanglingPort``, or ``DuplicateConnection``.
    """
    used_inputs: set[tuple[int, int]] = set()
    used_outputs: set[tuple[int, int]] = set()
    for bond in graph.bonds:
        if bond.c1 * bond.c2 != -1:
            raise NonAntisymmetricBond(
                f"bond coefficients c1={bond.c1}, c2={bond.c2} must multiply to -1"
            )
        for port in (bond.port1, bond.port2):
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
    routes = tuple(
        (
            b.port1.owner, b.port1.input_index, b.port1.output_index, b.c1,
            b.port2.owner, b.port2.input_index, b.port2.output_index, b.c2,
        )
        for b in graph.bonds
    )
    return Wiring(
        bonds=tuple(graph.bonds), input_widths=tuple(s.n_inputs for s in slots), routes=routes
    )


def apply_connections(
    wiring: Wiring, outputs: Sequence[Sequence[float]]
) -> list[list[float]]:
    """Map simulator outputs to inputs: per bond, u1 = c1*y2 and u2 = c2*y1.

    ``outputs`` holds one output vector per simulator; unbonded inputs are 0.
    """
    inputs = [[0.0] * width for width in wiring.input_widths]
    for o1, i1, k1, c1, o2, i2, k2, c2 in wiring.routes:
        inputs[o1][i1] = c1 * outputs[o2][k2]
        inputs[o2][i2] = c2 * outputs[o1][k1]
    return inputs
