"""Jacobi co-simulation master loop.

At every communication point all simulators receive inputs mapped from the
previous outputs, then step independently over the same macro interval with
those inputs held constant.  Afterwards the per-bond energy ledgers are
updated from held inputs and fresh outputs, and the step policy proposes the
next macro step size.  Macro steps are never repeated.
"""

from __future__ import annotations

from array import array
from itertools import chain
from math import inf, isfinite
from struct import Struct
from typing import Callable, Sequence

from .control import StepPolicy
from .energy import BOND_FIELDS, BondLedger
from .model import ConnectionGraph, SimulatorSlot, Wiring, apply_connections, validate_graph


#: Most macro steps one run may take: 14 doubles per single-bond step, so
#: about 112 MB of rows, and 25 times the longest run any table, sweep or
#: export makes.  A run that needs more is a step-size mistake, and fails
#: before it exhausts memory.
MAX_MACRO_STEPS = 1_000_000

#: Leading fields of every row.
STEP_FIELDS = ("t", "dt", "eps")
#: Where the bond-power check finds its values in a ledger step.
_P_12, _DP_RES = BOND_FIELDS.index("P_12"), BOND_FIELDS.index("dP_res")


class SimulatorFailure(RuntimeError):
    """A simulator produced a non-finite output or state; carries the partial record."""

    def __init__(self, message: str, record: "RunRecord | None" = None):
        super().__init__(message)
        self.record = record


class RunRecord:
    """Macro-time-stamped trajectory of a co-simulation run.

    Each accepted step is one row of doubles in ``data``: ``t, dt, eps``,
    then the seven :data:`BOND_FIELDS` of each bond in bond order, then the
    probe values in ``probe_names`` order.  Read it through :meth:`column`,
    :meth:`last_probes` and the summaries; only this module knows the layout.
    """

    __slots__ = ("bond_count", "probe_names", "complete", "data", "_probe_start", "width")

    def __init__(self, bond_count=0, probe_names=(), complete=True):
        self.bond_count = bond_count
        self.probe_names = probe_names
        self.complete = complete
        self.data = array("d")
        self._probe_start = len(STEP_FIELDS) + len(BOND_FIELDS) * bond_count
        self.width = self._probe_start + len(probe_names)

    def _offset(self, name: str, bond: int) -> int:
        if name in STEP_FIELDS:
            return STEP_FIELDS.index(name)
        if name in BOND_FIELDS:
            if not 0 <= bond < self.bond_count:
                raise IndexError(f"bond {bond} out of range for {self.bond_count} bond(s)")
            return len(STEP_FIELDS) + len(BOND_FIELDS) * bond + BOND_FIELDS.index(name)
        if name in self.probe_names:
            return self._probe_start + self.probe_names.index(name)
        raise KeyError(f"no column {name!r}; probes are {self.probe_names}")

    def column(self, name: str, bond: int = 0) -> array:
        """One value per step of a step field, a bond's ledger field, or a probe."""
        return self.data[self._offset(name, bond) :: self.width]

    def last_probes(self) -> array:
        """Probe values of the last step, in ``probe_names`` order; empty before the first."""
        return self.data[len(self.data) - self.width + self._probe_start :]

    @property
    def step_count(self) -> int:
        return len(self.data) // self.width

    @property
    def duration(self) -> float:
        """Total simulated time, the sum of accepted step sizes."""
        return self.data[-self.width] if self.data else 0.0

    def mean_dt(self) -> float:
        return self.duration / self.step_count if self.data else 0.0

    def total_residual(self, bond: int = 0) -> float:
        """Accumulated residual energy over the run (joules)."""
        if not self.data:
            return 0.0
        return self.data[len(self.data) - self.width + self._offset("E_res_accum", bond)]


def _stacked_outputs(wiring: Wiring, outputs) -> list[float]:
    """Coupling outputs stacked bond by bond: (y_a1, y_a2, y_b1, y_b2, ...)."""
    stacked = []
    for o1, _, k1, _, o2, _, k2, _ in wiring.routes:
        stacked += (outputs[o1][k1], outputs[o2][k2])
    return stacked


def _non_finite_signal(outputs, probe_names: list[tuple[str, ...]], probes) -> str:
    """Name the first output, then probe, that is not a finite number."""
    for i, out in enumerate(outputs):
        if not hasattr(out, "__iter__"):
            return f"slot {i} outputs are {out!r}, not a sequence of numbers"
    outs = ((f"slot {i} output {k}", v) for i, out in enumerate(outputs) for k, v in enumerate(out))
    names = (f"slot {i} probe {name!r}" for i, keys in enumerate(probe_names) for name in keys)
    for signal, v in chain(outs, zip(names, probes)):
        try:
            if not isfinite(v):
                return signal
        except TypeError:
            return f"{signal} is {v!r}, not a number"
    return "unknown signal"


def _probe_layout(slots: Sequence[SimulatorSlot]) -> list[tuple[str, ...]]:
    """Each slot's ``probe_names``.

    Raises ``ValueError`` for a name that two slots share or that names a
    step or ledger field, since :meth:`RunRecord.column` could not tell them apart.
    """
    names = [tuple(slot.probe_names) for slot in slots]
    owner = dict.fromkeys(STEP_FIELDS + BOND_FIELDS, "the record")
    for i, keys in enumerate(names):
        for name in keys:
            if name in owner:
                raise ValueError(f"slot {i} probe {name!r} is also a column of {owner[name]}")
            owner[name] = f"slot {i}"
    return names


def run_cosimulation(
    slots: Sequence[SimulatorSlot],
    graph: ConnectionGraph,
    policy: StepPolicy,
    t_end: float,
    dt0: float | None = None,
    stop: Callable[[RunRecord], bool] | None = None,
) -> RunRecord:
    """Run the Jacobi master loop from t = 0 to ``t_end``.

    Per macro step: inputs are set from the last outputs, all slots step over
    the same interval, ledgers absorb the step, and the policy proposes the
    next step size.  The final step is truncated to land exactly on ``t_end``.
    No step is ever redone.  When ``stop`` is given, ``stop(record)`` is
    called after each row is appended; if it returns true the run ends there
    with ``record.complete`` set to False.

    The probe names are read once, from each slot's ``probe_names``, and
    fix the row layout for the run; each step, each slot's ``probes()``
    must return one value per name.

    Raises :class:`ValueError` before any step when ``t_end`` is negative or
    not finite or a probe name is not unique among the record's columns,
    and before the next step when the policy proposes a step size that is
    not finite and positive or the run has already taken ``MAX_MACRO_STEPS``
    steps.  A ``t_end`` within the end tolerance of 0 gives a record without
    steps.  Raises :class:`SimulatorFailure` (with the partial record
    attached) when a slot produces an output or probe value that is not a
    finite number, outputs or probes that are not a sequence, or more or
    fewer probe values than it has names, or when a bond power overflows;
    the message names the slot and signal, or the bond, that failed first.
    """
    if not (isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    wiring = validate_graph(graph, slots)
    ledgers = [BondLedger(bond) for bond in wiring.bonds]
    probe_names = _probe_layout(slots)
    record = RunRecord(bond_count=len(ledgers), probe_names=tuple(chain(*probe_names)))
    append_row = record.data.frombytes
    pack_row = Struct(f"{record.width}d").pack

    # Methods are looked up once per run instead of once per macro step.
    set_inputs = [slot.set_inputs for slot in slots]
    do_steps = [slot.do_step for slot in slots]
    get_outputs = [slot.get_outputs for slot in slots]
    read_probes = [
        (i, slot.probes, len(names)) for i, (slot, names) in enumerate(zip(slots, probe_names))
    ]
    taps = [
        (j, ledger.record, o1, i1, k1, o2, i2, k2)
        for j, (ledger, (o1, i1, k1, _, o2, i2, k2, _)) in enumerate(
            zip(ledgers, wiring.routes)
        )
    ]
    next_step = policy.next_step
    max_steps = MAX_MACRO_STEPS

    outputs = [get() for get in get_outputs]
    dt_next = policy.start(dt0, _stacked_outputs(wiring, outputs))

    # The clock is a CompensatedSum of the step sizes, kept in two locals.
    clock = 0.0
    clock_err = 0.0
    t_now = clock + clock_err
    t_tol = 1e-12 * max(abs(t_end), 1.0)
    steps = 0
    while True:
        remaining = t_end - t_now
        if remaining <= t_tol:
            break
        if steps >= max_steps:
            raise ValueError(
                f"run reached MAX_MACRO_STEPS = {max_steps} at t={t_now} "
                f"of t_end={t_end}; use a larger step size or a shorter horizon"
            )
        if not 0.0 < dt_next < inf:
            raise ValueError(
                f"policy {policy.name!r} proposed step size {dt_next} at t={t_now}; "
                "it must be finite and positive"
            )
        # Truncate onto t_end; absorb a degenerate final sliver into this step.
        dt = remaining if dt_next >= remaining * (1.0 - 1e-9) else dt_next

        inputs = apply_connections(wiring, outputs)
        for set_u, u in zip(set_inputs, inputs):
            set_u(u)
        for do_step in do_steps:
            do_step(t_now, dt)

        # CompensatedSum.add(dt), then .value
        total = clock + dt
        if abs(clock) >= abs(dt):
            clock_err += (clock - total) + dt
        else:
            clock_err += (dt - total) + clock
        clock = total
        t_next = clock + clock_err

        outputs = [get() for get in get_outputs]
        probes = []
        for i, read, count in read_probes:
            values = read()
            try:
                if len(values) == count:
                    probes += values
                    continue
                got = f"{len(values)} probe values"
            except TypeError:  # no length, so not a sequence of values
                got = repr(values)
            record.complete = False
            raise SimulatorFailure(
                f"slot {i} returned {got} at t={t_next} "
                f"for its {count} probe names {probe_names[i]}",
                record,
            )

        try:
            finite = all(map(isfinite, chain(*outputs, probes)))
        except TypeError:  # a value that is not a number
            finite = False
        if not finite:
            record.complete = False
            raise SimulatorFailure(
                f"non-finite simulator output at t={t_next}: "
                + _non_finite_signal(outputs, probe_names, probes),
                record,
            )

        bond_steps = []
        stacked = []
        ledger_fields = []
        for j, record_step, o1, i1, k1, o2, i2, k2 in taps:
            y1 = outputs[o1][k1]
            y2 = outputs[o2][k2]
            step = record_step(dt, inputs[o1][i1], inputs[o2][i2], y1, y2)
            if not (isfinite(step[_P_12]) and isfinite(step[_DP_RES])):
                # finite signals whose products overflow: the run has blown up
                record.complete = False
                raise SimulatorFailure(
                    f"non-finite bond power at t={t_next}: bond {j} "
                    f"(slot {o1} output {k1}, slot {o2} output {k2})",
                    record,
                )
            bond_steps.append(step)
            stacked += (y1, y2)
            ledger_fields += step
        dt_next, eps = next_step(t_next, dt, bond_steps, stacked)
        append_row(pack_row(t_next, dt, eps, *ledger_fields, *probes))
        steps += 1
        if stop is not None and stop(record):
            record.complete = False
            break
        t_now = t_next
    return record
