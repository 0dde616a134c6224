"""Jacobi co-simulation master loop.

At every communication point all simulators receive inputs mapped from the
previous outputs, then step independently over the same macro interval with
those inputs held constant.  Afterwards one check reads the fresh outputs,
the per-bond energy ledgers book the checked outputs against the held
inputs, and the step policy proposes the next macro step size.  Macro steps
are never repeated.
"""

from __future__ import annotations

from array import array
from itertools import chain
from math import inf, isfinite
from struct import Struct
from typing import Callable, Sequence

from .control import StepPolicy
from .energy import BOND_FIELDS, BondLedger
from .model import PowerBond, SimulatorSlot, apply_connections, validate_graph


#: Most macro steps one run may take: 14 doubles per single-bond step, so
#: about 112 MB of rows, and 25 times the longest run any table, sweep or
#: export makes.  A run that needs more is a step-size mistake, and fails
#: before it exhausts memory.
MAX_MACRO_STEPS = 1_000_000

#: Leading fields of every row.
STEP_FIELDS = ("t", "dt", "eps")


class SimulatorFailure(RuntimeError):
    """A slot returned a signal the master cannot use; marks the record it carries incomplete."""

    def __init__(self, message: str, record: "RunRecord | None" = None):
        super().__init__(message)
        if record is not None:
            record.complete = False
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


def _diagnosis(t, outputs, probes, widths, probe_names) -> str:
    """Name what fails :func:`_check` first: probe values of the wrong count,
    outputs that are not a sequence (a mapping is not one: it is read as its
    keys), a value that is not a finite number, then an output vector of the
    wrong length."""
    for i, (vector, names) in enumerate(zip(probes, probe_names)):
        sized = hasattr(vector, "__len__")
        if not sized or len(vector) != len(names):
            got = f"{len(vector)} probe values" if sized else repr(vector)
            return f"slot {i} returned {got} at t={t} for its {len(names)} probe names {names}"
    bad = f"non-finite simulator output at t={t}: "
    for i, out in enumerate(outputs):
        if hasattr(out, "keys") or not (hasattr(out, "__len__") and hasattr(out, "__getitem__")):
            return f"{bad}slot {i} outputs are {out!r}, not a sequence of numbers"
    outs = ((f"slot {i} output {k}", v) for i, out in enumerate(outputs) for k, v in enumerate(out))
    names = (f"slot {i} probe {name!r}" for i, keys in enumerate(probe_names) for name in keys)
    for signal, v in chain(outs, zip(names, chain(*probes))):
        try:
            if not isfinite(0.0 + v * 1.0):  # the float arithmetic of the check
                return bad + signal
        except TypeError:
            return f"{bad}{signal} is {v!r}, not a number"
        except OverflowError:  # an int beyond the float range
            return f"{bad}{signal} is too large for a float"
    for i, (out, width) in enumerate(zip(outputs, widths)):
        if len(out) != width:
            return f"slot {i} returned {len(out)} outputs at t={t} for its {width} outputs"


def _check(t, readers, routes, widths, probe_names, record) -> tuple[list, list, list]:
    """Call ``readers``, each slot's ``get_outputs`` and then, after a step, its
    ``probes``; return what they returned, its values in one list, and as
    floats the outputs the bonds of ``routes`` couple, bond by bond effort
    then flow (the ledgers multiply two, and two ints could outgrow a float).

    Raises :class:`SimulatorFailure` at ``t``, naming what :func:`_diagnosis`
    finds, unless each vector has its length in ``widths``, every value is a
    finite number that adds to a float, and each coupling output multiplies
    by a float and comes from a sequence, not a mapping.  One sum from 0.0
    screens the values: it is finite unless a value is not, or the sum
    overflows, which the values one by one tell apart.
    """
    signals = [read() for read in readers]
    values = []
    coupled = []
    try:
        for vector in signals:
            values += vector
        if widths == list(map(len, signals)) and (
            isfinite(sum(values, 0.0)) or all(map(isfinite, values))
        ):
            for o_e, _, k_e, o_f, _, k_f, _ in routes:
                effort, flow = signals[o_e], signals[o_f]
                if hasattr(effort, "keys") or hasattr(flow, "keys"):  # the sum saw its keys
                    break
                coupled += (effort[k_e] * 1.0, flow[k_f] * 1.0)
            else:
                return signals, values, coupled
    except (TypeError, OverflowError):  # not a number, or not a sequence
        pass
    n = len(probe_names)
    raise SimulatorFailure(_diagnosis(t, signals[:n], signals[n:], widths, probe_names), record)


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
    bonds: Sequence[PowerBond],
    policy: StepPolicy,
    t_end: float,
    stop: Callable[[RunRecord], bool] | None = None,
) -> RunRecord:
    """Run the Jacobi master loop from t = 0 to ``t_end``.

    One check reads what the slots return: their first outputs at t = 0,
    whose coupling outputs the policy's ``start`` sees to give the first step
    size, then after each macro step their outputs and probes.  Per macro
    step: inputs are set from the last checked outputs, all slots step over
    the same interval, then the step is checked, booked by the bond ledgers
    and given to the policy, which proposes the next step size.  The final
    step is truncated to land exactly on ``t_end``.  No step is ever redone.
    When ``stop`` is given, ``stop(record)`` is called after each row is
    appended; if it returns true the run ends there with ``record.complete``
    set to False.  The probe names are read once, from each slot's
    ``probe_names``, and fix the row layout for the run.

    Raises :class:`ValueError` before any step when ``t_end`` is negative,
    not finite or too short for one macro step (within the end tolerance of
    0) or a probe name is not unique among the record's columns, and before
    the next step when the policy proposes a step size that is not finite
    and positive or too small to advance the clock, or the run has already
    taken ``MAX_MACRO_STEPS`` steps.  Raises :class:`SimulatorFailure`, with
    the partial record attached (empty at t = 0), before the ledgers book a
    step in which a slot returns outputs or probes that are not a sequence,
    other than ``n_outputs`` outputs or one probe value per name, or a value
    that is not a finite number that adds to a float, and before the policy
    sees a step whose booked bond power is not finite; the message names the
    slot and signal, or the bond, that failed first.
    """
    if not (isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    t_tol = 1e-12 * max(t_end, 1.0)
    if t_end <= t_tol:
        raise ValueError(f"t_end={t_end} is too short for one macro step; it must exceed {t_tol}")
    wiring = validate_graph(bonds, slots)
    routes = wiring.routes
    probe_names = _probe_layout(slots)
    record = RunRecord(bond_count=len(routes), probe_names=tuple(chain(*probe_names)))
    append_row = record.data.frombytes
    pack_row = Struct(f"{record.width}d").pack

    # Methods are looked up once per run instead of once per macro step.
    set_inputs = [slot.set_inputs for slot in slots]
    do_steps = [slot.do_step for slot in slots]
    get_outputs = [slot.get_outputs for slot in slots]
    readers = get_outputs + [slot.probes for slot in slots]
    output_widths = [slot.n_outputs for slot in slots]
    # Bond j books its effort and flow outputs from coupled[2j] and coupled[2j + 1].
    taps = [
        (BondLedger(sigma).record, o_e, i_e, 2 * j, o_f, i_f, 2 * j + 1)
        for j, (o_e, i_e, _, o_f, i_f, _, sigma) in enumerate(routes)
    ]
    next_step = policy.next_step
    widths = output_widths + [len(names) for names in probe_names]
    n_outputs = sum(output_widths)
    max_steps = MAX_MACRO_STEPS

    signals, _, coupled = _check(0.0, get_outputs, routes, output_widths, probe_names, record)
    dt_next = policy.start(coupled)

    # The clock is a CompensatedSum of the step sizes, kept in two locals.
    clock = 0.0
    clock_err = 0.0
    t_now = clock + clock_err
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

        # CompensatedSum.add(dt), then .value
        total = clock + dt
        if abs(clock) >= abs(dt):
            clock_err += (clock - total) + dt
        else:
            clock_err += (dt - total) + clock
        clock = total
        t_next = clock + clock_err
        if t_next <= t_now:
            raise ValueError(
                f"policy {policy.name!r} step size {dt} at t={t_now} does not advance "
                "the clock; use a larger minimum step size"
            )

        inputs = apply_connections(wiring, signals)
        for set_u, u in zip(set_inputs, inputs):
            set_u(u)
        for do_step in do_steps:
            do_step(t_now, dt)

        signals, values, coupled = _check(t_next, readers, routes, widths, probe_names, record)
        bond_steps = []
        ledger_fields = []
        for record_step, o_e, i_e, j_e, o_f, i_f, j_f in taps:
            step = record_step(dt, inputs[o_e][i_e], inputs[o_f][i_f], coupled[j_e], coupled[j_f])
            bond_steps.append(step)
            ledger_fields += step
        if not isfinite(sum(ledger_fields, 0.0)):  # a bond has blown up, or only this sum overflowed
            for j, (o_e, _, k_e, o_f, _, k_f, _) in enumerate(routes):
                if not all(map(isfinite, bond_steps[j])):
                    raise SimulatorFailure(
                        f"non-finite bond power at t={t_next}: bond {j} "
                        f"(slot {o_e} output {k_e}, slot {o_f} output {k_f})",
                        record,
                    )
        dt_next, eps = next_step(t_next, dt, bond_steps, coupled)
        append_row(pack_row(t_next, dt, eps, *ledger_fields, *values[n_outputs:]))
        steps += 1
        if stop is not None and stop(record):
            record.complete = False
            break
        t_now = t_next
    return record
