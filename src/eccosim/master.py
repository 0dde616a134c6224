"""Jacobi co-simulation master loop.

At every communication point all simulators receive inputs mapped from the
previous coupling outputs, then step independently over the same macro
interval with those inputs held constant.  Afterwards one check reads what
they return and converts it to floats, the per-bond energy ledgers book the
coupling outputs against the held inputs, and the step policy proposes the
next macro step size.  Macro steps are never repeated.
"""

from __future__ import annotations

from array import array
from itertools import chain
from math import ceil, inf, isfinite
from operator import itemgetter
from struct import Struct
from typing import Callable, Sequence

from .control import StepPolicy
from .energy import BOND_FIELDS, BondLedger, CompensatedSum
from .model import PowerBond, SimulatorSlot, apply_connections, validate_graph


#: Most macro steps, so most rows, one run may record: 14 doubles per
#: single-bond step, so about 112 MB of rows, and 25 times the longest run any
#: table, sweep or export makes.  A run whose policy's smallest step could take
#: more is a step-size mistake, and is refused before its first step.
MAX_MACRO_STEPS = 1_000_000

#: Most micro steps a run, or a sweep's or scan's runs together, may plan: MAX_MACRO_STEPS
#: at the shipped 10 + 10 micro ratios.  See :func:`micro_step_plan`.
MICRO_STEP_BUDGET = 20_000_000

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

    def column(self, name: str, bond: int = 0, start: int = 0, stop: int | None = None) -> array:
        """Steps ``start`` to ``stop`` of a step field, a bond's ledger field, or a probe."""
        end = None if stop is None else stop * self.width
        return self.data[start * self.width + self._offset(name, bond) : end : self.width]

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


def _number(v) -> float:
    """The rule for a value a slot returns: a number adds to a float and ``float()`` converts
    it (keeping the sign of -0.0); the run uses that float, which must be finite."""
    0.0 + v
    return float(v)


def _sequence(v) -> bool:
    """The rule for a vector: sized and indexable (a set is not), and not a mapping."""
    return hasattr(v, "__len__") and hasattr(v, "__getitem__") and not hasattr(v, "keys")


def _diagnosis(t, outputs, probes, widths, probe_names) -> str:
    """Name what fails :func:`_check` first: probe values of the wrong count,
    outputs that are not a sequence, a value that is not a finite number,
    an output vector of the wrong length, then probes that are not a sequence."""
    for i, (vector, names) in enumerate(zip(probes, probe_names)):
        sized = hasattr(vector, "__len__")
        if not sized or len(vector) != len(names):
            got = f"{len(vector)} probe values" if sized else repr(vector)
            return f"slot {i} returned {got} at t={t} for its {len(names)} probe names {names}"
    bad = f"non-finite simulator output at t={t}: "
    for i, out in enumerate(outputs):
        if not _sequence(out):
            return f"{bad}slot {i} outputs are {out!r}, not a sequence of numbers"
    outs = ((f"slot {i} output {k}", v) for i, out in enumerate(outputs) for k, v in enumerate(out))
    names = (f"slot {i} probe {name!r}" for i, keys in enumerate(probe_names) for name in keys)
    for signal, v in chain(outs, zip(names, chain(*probes))):
        try:
            if not isfinite(_number(v)):
                return bad + signal
        except TypeError:
            return f"{bad}{signal} is {v!r}, not a number"
        except OverflowError:  # an int beyond the float range
            return f"{bad}{signal} is too large for a float"
    for i, (out, width) in enumerate(zip(outputs, widths)):
        if len(out) != width:
            return f"slot {i} returned {len(out)} outputs at t={t} for its {width} outputs"
    for i, vector in enumerate(probes):
        if not _sequence(vector):
            return f"{bad}slot {i} probes are {vector!r}, not a sequence of numbers"


def _check(t, signals, widths, probe_names, record) -> list[float]:
    """The rule for ``signals``, each slot's outputs and then, after a step, its
    probes: every value they hold, in that order, as a float.

    Raises :class:`SimulatorFailure` at ``t``, naming what :func:`_diagnosis`
    finds, unless each vector is a :func:`_sequence` of its length in
    ``widths`` and :func:`_number` converts each value to a finite float.
    """
    try:
        if widths == list(map(len, signals)) and all(map(_sequence, signals)):
            values = list(map(_number, chain(*signals)))
            if all(map(isfinite, values)):
                return values
    except (TypeError, OverflowError):  # not a sequence, or not a number
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


def micro_step_plan(slots: Sequence[SimulatorSlot], min_step: float, t_end: float) -> float:
    """Most micro steps a run can take: ``ceil(t_end / min_step)`` macro steps, as none is
    repeated and one past ``t_end`` is cut onto it, each of the slots' ``micro_step_ratio``."""
    steps = t_end / min_step
    return (ceil(steps) if steps < inf else steps) * sum(slot.micro_step_ratio for slot in slots)


def check_plan(plan: float, what: str) -> None:
    """Raise ``ValueError`` if ``what`` plans more than ``MICRO_STEP_BUDGET`` micro steps."""
    if not plan <= MICRO_STEP_BUDGET:
        raise ValueError(
            f"{what} plans {plan:.4g} micro steps, over MICRO_STEP_BUDGET = {MICRO_STEP_BUDGET}; "
            "use larger steps, fewer micro steps or a shorter horizon"
        )


def run_cosimulation(
    slots: Sequence[SimulatorSlot],
    bonds: Sequence[PowerBond],
    policy: StepPolicy,
    t_end: float,
    stop: Callable[[RunRecord], bool] | None = None,
) -> RunRecord:
    """Run the Jacobi master loop from t = 0 to ``t_end``.

    The policy's ``start`` gives the first step size from the coupling outputs
    :func:`_check` converts at t = 0, and the final step is truncated onto
    ``t_end``.  ``stop(record)``, when given, is called after each row is
    appended, and a true result ends the run with ``record.complete`` False.
    The slots' ``probe_names``, read once, fix the row layout.

    Raises :class:`ValueError` before any step when ``t_end`` is negative,
    not finite, too short for one macro step (within the end tolerance of 0)
    or longer than ``MAX_MACRO_STEPS`` of the policy's ``min_step``, or its
    :func:`micro_step_plan` exceeds ``MICRO_STEP_BUDGET`` (:func:`check_plan`), or a
    probe name is not unique among the record's columns, and before the
    next step when the policy proposes a step size that is not finite or is
    below its ``min_step``.  Raises :class:`SimulatorFailure`, with the
    partial record attached (empty at t = 0), before the ledgers book a step
    that breaks the rule of :func:`_check`, and before the policy sees a step
    whose booked bond power is not finite; the message names the slot and
    signal, or the bond, that failed first.
    """
    if not (isfinite(t_end) and t_end >= 0.0):
        raise ValueError(f"t_end must be finite and non-negative, got {t_end}")
    t_tol = 1e-12 * max(t_end, 1.0)
    if t_end <= t_tol:
        raise ValueError(f"t_end={t_end} is too short for one macro step; it must exceed {t_tol}")
    wiring = validate_graph(bonds, slots)
    min_step = policy.min_step
    if not t_end <= MAX_MACRO_STEPS * min_step:
        raise ValueError(
            f"t_end={t_end} exceeds MAX_MACRO_STEPS = {MAX_MACRO_STEPS} steps of {min_step}, "
            f"the smallest step of policy {policy.name!r}; use a larger step or a shorter horizon"
        )
    what = f"t_end={t_end} at {min_step}, the smallest step of policy {policy.name!r},"
    check_plan(micro_step_plan(slots, min_step, t_end), what)
    routes = wiring.routes
    probe_names = _probe_layout(slots)
    record = RunRecord(bond_count=len(routes), probe_names=tuple(chain(*probe_names)))
    append_row = record.data.frombytes
    pack_row = Struct(f"{record.width}d").pack

    # Methods are looked up once per run instead of once per macro step.
    set_inputs = [slot.set_inputs for slot in slots]
    do_steps = [slot.do_step for slot in slots]
    output_widths = [slot.n_outputs for slot in slots]
    widths = output_widths + [len(names) for names in probe_names]
    outputs = [slot.get_outputs for slot in slots]
    readers = outputs + [slot.probes for slot in slots]
    n_outputs = sum(output_widths)
    shape = widths + [float] * sum(widths)  # each vector's width, then each value's type
    # pick(values) holds bond j's effort and flow outputs at 2j and 2j + 1.
    picks = [sum(output_widths[:o]) + k for r in routes for o, k in ((r[0], r[2]), (r[3], r[5]))]
    pick = itemgetter(*picks) if picks else lambda values: ()
    taps = [
        (BondLedger(sigma).record, o_e, i_e, 2 * j, o_f, i_f, 2 * j + 1)
        for j, (o_e, i_e, _, o_f, i_f, _, sigma) in enumerate(routes)
    ]
    next_step = policy.next_step

    signals = [read() for read in outputs]
    coupled = pick(_check(0.0, signals, output_widths, probe_names, record))
    dt_next = policy.start(coupled)

    clock = CompensatedSum().add  # clock(dt) is the time after a step of dt
    t_now = 0.0
    while True:
        remaining = t_end - t_now
        if remaining <= t_tol:
            break
        # After the bound above, each step but the last (> t_tol) is >= t_end / MAX_MACRO_STEPS:
        # all advance a clock that never passes t_end, and at most MAX_MACRO_STEPS fit.
        if not min_step <= dt_next < inf:
            raise ValueError(
                f"policy {policy.name!r} proposed step size {dt_next} at t={t_now}; "
                f"it must be finite and at least its smallest step {min_step}"
            )
        # Truncate onto t_end; absorb a degenerate final sliver into this step.
        dt = remaining if dt_next >= remaining * (1.0 - 1e-9) else dt_next
        t_next = clock(dt)

        inputs = apply_connections(wiring, coupled)
        for set_u, do_step, u in zip(set_inputs, do_steps, inputs):
            set_u(u)
            do_step(t_now, dt)

        signals = []  # plain loops: in CPython 3.11 a list comprehension is a function call
        for read in readers:
            signals.append(read())
        # What SimulatorSlot declares, tuples of finite floats of their widths, is what
        # _check returns unchanged: one screen passes it, and _check takes the rest.
        try:
            values = sum(signals, ())
            if not (
                [*map(len, signals), *map(type, values)] == shape
                and isfinite(sum(values, 0.0))  # unless a float is not, or only this sum overflows
            ):
                raise TypeError
        except TypeError:
            values = _check(t_next, signals, widths, probe_names, record)
        coupled = pick(values)
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
        if stop is not None and stop(record):
            record.complete = False
            break
        t_now = t_next
    return record
