"""Jacobi co-simulation master loop.

At every communication point all simulators receive inputs mapped from the
previous outputs, then step independently over the same macro interval with
those inputs held constant.  Afterwards the per-bond energy ledgers are
updated from held inputs and fresh outputs, and the step policy proposes the
next macro step size.  Macro steps are never repeated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import Sequence

from .control import StepPolicy
from .energy import BondLedger, BondLedgerEntry, CompensatedSum
from .model import ConnectionGraph, SimulatorSlot, apply_connections, validate_graph


class SimulatorFailure(RuntimeError):
    """A simulator produced a non-finite output or state; carries the partial record."""

    def __init__(self, message: str, record: "RunRecord | None" = None):
        super().__init__(message)
        self.record = record


@dataclass(frozen=True, slots=True)
class StepRow:
    """One accepted macro step: time stamp, step size, indicator, ledgers, probes."""

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

    def mean_p12(self, bond: int = 0) -> float:
        """Time-weighted mean of the transmitted bond power."""
        if not self.rows:
            return 0.0
        acc = CompensatedSum()
        for row in self.rows:
            acc.add(row.bonds[bond].P_12 * row.dt)
        return acc.value / self.duration

    def total_residual(self, bond: int = 0) -> float:
        """Accumulated residual energy over the run (joules)."""
        return self.rows[-1].bonds[bond].E_res_accum if self.rows else 0.0


def probe_states(slots: Sequence[SimulatorSlot]) -> dict[str, float]:
    """Merge the named diagnostic probes of all slots into one mapping."""
    merged: dict[str, float] = {}
    for slot in slots:
        merged.update(slot.probes())
    return merged


def _stacked_outputs(bonds, outputs) -> list[float]:
    """Coupling outputs stacked bond by bond: (y_a1, y_a2, y_b1, y_b2, ...)."""
    stacked = []
    for bond in bonds:
        stacked.append(outputs[bond.port1.owner][bond.port1.output_index])
        stacked.append(outputs[bond.port2.owner][bond.port2.output_index])
    return stacked


def run_cosimulation(
    slots: Sequence[SimulatorSlot],
    graph: ConnectionGraph,
    policy: StepPolicy,
    t_end: float,
    dt0: float | None = None,
) -> RunRecord:
    """Run the Jacobi master loop from t = 0 to ``t_end``.

    Per macro step: inputs are set from the last outputs, all slots step over
    the same interval, ledgers absorb the step, and the policy proposes the
    next step size.  The final step is truncated to land exactly on ``t_end``.
    No step is ever redone.

    Raises :class:`ValueError` before any step when ``t_end`` is negative or
    not finite, and :class:`SimulatorFailure` (with the partial record
    attached) when a slot produces a non-finite output or probe value.
    """
    if not (isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    wiring = validate_graph(graph, slots)
    ledgers = [BondLedger(bond) for bond in wiring.bonds]
    record = RunRecord(t_end=t_end, policy=policy.name, bond_count=len(ledgers))

    outputs = [list(slot.get_outputs()) for slot in slots]
    dt_next = policy.start(dt0, 0.0, _stacked_outputs(wiring.bonds, outputs))

    clock = CompensatedSum()
    t_tol = 1e-12 * max(abs(t_end), 1.0)
    while True:
        t_now = clock.value
        remaining = t_end - t_now
        if remaining <= t_tol:
            break
        # Truncate onto t_end; absorb a degenerate final sliver into this step.
        dt = remaining if dt_next >= remaining * (1.0 - 1e-9) else dt_next

        inputs = apply_connections(wiring, outputs)
        for slot, u in zip(slots, inputs):
            slot.set_inputs(u)
        for slot in slots:
            slot.do_step(t_now, dt)

        clock.add(dt)
        t_next = clock.value
        outputs = [list(slot.get_outputs()) for slot in slots]
        probes = probe_states(slots)

        bad = not all(isfinite(v) for out in outputs for v in out)
        bad = bad or not all(isfinite(v) for v in probes.values())
        if bad:
            record.complete = False
            raise SimulatorFailure(f"non-finite simulator output at t={t_next}", record)

        entries = tuple(
            ledger.record(
                t_next,
                dt,
                inputs[ledger.bond.port1.owner][ledger.bond.port1.input_index],
                inputs[ledger.bond.port2.owner][ledger.bond.port2.input_index],
                outputs[ledger.bond.port1.owner][ledger.bond.port1.output_index],
                outputs[ledger.bond.port2.owner][ledger.bond.port2.output_index],
            )
            for ledger in ledgers
        )
        if not all(isfinite(e.P_12) and isfinite(e.dP_res) for e in entries):
            # finite signals whose products overflow: the run has blown up
            record.complete = False
            raise SimulatorFailure(f"non-finite bond power at t={t_next}", record)
        dt_next, eps = policy.next_step(
            t_next, dt, entries, _stacked_outputs(wiring.bonds, outputs)
        )
        record.rows.append(StepRow(t=t_next, dt=dt, eps=eps, bonds=entries, probes=probes))
    return record
