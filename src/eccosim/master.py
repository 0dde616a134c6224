"""Jacobi co-simulation master loop.

At every communication point all simulators receive inputs mapped from the
previous outputs, then step independently over the same macro interval with
those inputs held constant.  Afterwards the per-bond energy ledgers are
updated from held inputs and fresh outputs, and the step policy proposes the
next macro step size.  Macro steps are never repeated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from math import inf, isfinite
from typing import Callable, Sequence

from .control import StepPolicy
from .energy import BondLedger, BondLedgerEntry, CompensatedSum
from .model import ConnectionGraph, SimulatorSlot, Wiring, apply_connections, validate_graph


#: Most macro steps one run may take: about 0.7 GB of rows, and 25 times the
#: longest run any table, sweep or export makes.  A run that needs more is a
#: step-size mistake, and fails before it exhausts memory.
MAX_MACRO_STEPS = 1_000_000


class SimulatorFailure(RuntimeError):
    """A simulator produced a non-finite output or state; carries the partial record."""

    def __init__(self, message: str, record: "RunRecord | None" = None):
        super().__init__(message)
        self.record = record


@dataclass(slots=True)
class StepRow:
    """One accepted macro step: time stamp, step size, indicator, ledgers, probes.

    Rows are treated as read-only; like :class:`BondLedgerEntry` the class is
    not frozen because a frozen dataclass costs several times more to build.
    """

    t: float
    dt: float
    eps: float
    bonds: tuple[BondLedgerEntry, ...]
    probes: dict[str, float]


@dataclass
class RunRecord:
    """Macro-time-stamped trajectory of a co-simulation run."""

    rows: list[StepRow] = field(default_factory=list)
    t_end: float = 0.0
    policy: str = ""
    bond_count: int = 0
    complete: bool = True

    @property
    def step_count(self) -> int:
        return len(self.rows)

    @property
    def duration(self) -> float:
        """Total simulated time, the sum of accepted step sizes."""
        return self.rows[-1].t if self.rows else 0.0

    def mean_dt(self) -> float:
        return self.duration / len(self.rows) if self.rows else 0.0

    def total_residual(self, bond: int = 0) -> float:
        """Accumulated residual energy over the run (joules)."""
        return self.rows[-1].bonds[bond].E_res_accum if self.rows else 0.0


def _stacked_outputs(wiring: Wiring, outputs) -> list[float]:
    """Coupling outputs stacked bond by bond: (y_a1, y_a2, y_b1, y_b2, ...)."""
    stacked = []
    for o1, _, k1, _, o2, _, k2, _ in wiring.routes:
        stacked += (outputs[o1][k1], outputs[o2][k2])
    return stacked


def _non_finite_signal(slots: Sequence[SimulatorSlot], outputs) -> str:
    """Name the first non-finite output, then probe, as the step check reads them."""
    for i, out in enumerate(outputs):
        for k, v in enumerate(out):
            if not isfinite(v):
                return f"slot {i} output {k}"
    for i, slot in enumerate(slots):
        for name, v in slot.probes().items():
            if not isfinite(v):
                return f"slot {i} probe {name!r}"
    return "unknown signal"


def _overflowed_bond(wiring: Wiring, entries) -> str:
    """Name the first bond whose power is non-finite and the two outputs it multiplies."""
    for j, (entry, route) in enumerate(zip(entries, wiring.routes)):
        if not (isfinite(entry.P_12) and isfinite(entry.dP_res)):
            o1, _, k1, _, o2, _, k2, _ = route
            return f"bond {j} (slot {o1} output {k1}, slot {o2} output {k2})"
    return "unknown bond"


def run_cosimulation(
    slots: Sequence[SimulatorSlot],
    graph: ConnectionGraph,
    policy: StepPolicy,
    t_end: float,
    dt0: float | None = None,
    stop: Callable[[StepRow], bool] | None = None,
) -> RunRecord:
    """Run the Jacobi master loop from t = 0 to ``t_end``.

    Per macro step: inputs are set from the last outputs, all slots step over
    the same interval, ledgers absorb the step, and the policy proposes the
    next step size.  The final step is truncated to land exactly on ``t_end``.
    No step is ever redone.  When ``stop`` is given, ``stop(row)`` is called
    after each row is appended; if it returns true the run ends there with
    ``record.complete`` set to False.

    Raises :class:`ValueError` before any step when ``t_end`` is negative or
    not finite, and before the next step when the policy proposes a step size
    that is not finite and positive or the run has already taken
    ``MAX_MACRO_STEPS`` steps.  Raises :class:`SimulatorFailure` (with the
    partial record attached) when a slot produces a non-finite output or
    probe value, or when a bond power overflows; the message names the slot
    and signal, or the bond, that failed first.
    """
    if not (isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    wiring = validate_graph(graph, slots)
    ledgers = [BondLedger(bond) for bond in wiring.bonds]
    record = RunRecord(t_end=t_end, policy=policy.name, bond_count=len(ledgers))
    rows = record.rows

    # Methods are looked up once per run instead of once per macro step.
    set_inputs = [slot.set_inputs for slot in slots]
    do_steps = [slot.do_step for slot in slots]
    get_outputs = [slot.get_outputs for slot in slots]
    read_probes = [slot.probes for slot in slots]
    taps = [
        (ledger.record, o1, i1, k1, o2, i2, k2)
        for ledger, (o1, i1, k1, _, o2, i2, k2, _) in zip(ledgers, wiring.routes)
    ]
    next_step = policy.next_step
    max_steps = MAX_MACRO_STEPS

    outputs = [get() for get in get_outputs]
    dt_next = policy.start(dt0, 0.0, _stacked_outputs(wiring, outputs))

    clock = CompensatedSum()
    t_now = clock.value
    t_tol = 1e-12 * max(abs(t_end), 1.0)
    while True:
        remaining = t_end - t_now
        if remaining <= t_tol:
            break
        if len(rows) >= max_steps:
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

        clock.add(dt)
        t_next = clock.value
        outputs = [get() for get in get_outputs]
        probes: dict[str, float] = {}
        for read in read_probes:
            probes.update(read())

        if not all(map(isfinite, chain(*outputs, probes.values()))):
            record.complete = False
            raise SimulatorFailure(
                f"non-finite simulator output at t={t_next}: "
                + _non_finite_signal(slots, outputs),
                record,
            )

        entries = []
        stacked = []
        powers_finite = True
        for record_step, o1, i1, k1, o2, i2, k2 in taps:
            y1 = outputs[o1][k1]
            y2 = outputs[o2][k2]
            entry = record_step(t_next, dt, inputs[o1][i1], inputs[o2][i2], y1, y2)
            entries.append(entry)
            stacked += (y1, y2)
            powers_finite = powers_finite and isfinite(entry.P_12) and isfinite(entry.dP_res)
        if not powers_finite:
            # finite signals whose products overflow: the run has blown up
            record.complete = False
            raise SimulatorFailure(
                f"non-finite bond power at t={t_next}: " + _overflowed_bond(wiring, entries),
                record,
            )
        entries = tuple(entries)
        dt_next, eps = next_step(t_next, dt, entries, stacked)
        row = StepRow(t_next, dt, eps, entries, probes)
        rows.append(row)
        if stop is not None and stop(row):
            record.complete = False
            break
        t_now = t_next
    return record
