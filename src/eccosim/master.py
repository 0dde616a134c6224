"""Jacobi co-simulation master loop.

At every communication point all simulators receive inputs mapped from the
previous coupling outputs, then step independently over the same macro
interval with those inputs held constant.  Afterwards one check reads what
they return and converts it to floats, the per-bond energy ledgers book the
coupling outputs against the held inputs, and the step policy proposes the
next macro step size.  Macro steps are never repeated.  The steps after t = 0
run in a loop compiled once per run shape, with a local for each signal.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import chain, islice
from math import ceil, inf, isfinite
from operator import index
from struct import Struct
from typing import Callable, Sequence

from .control import StepPolicy
from .energy import BOND_FIELDS, BondLedger, CompensatedSum
from .model import PowerBond, SimulatorFailure, SimulatorSlot, is_count, validate_graph
from .model import apply_connections  # noqa: F401  inlined by the loop; the trace wraps it here


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


class RunRecord:
    """Macro-time-stamped trajectory of a co-simulation run.

    Each accepted step is one row of doubles in ``data``: ``t, dt, eps``,
    then the seven :data:`BOND_FIELDS` of each bond in bond order, then the
    probe values in ``probe_names`` order.  Read it through :meth:`column`
    and the summaries; only this module knows the layout.  A record starts
    complete; a run that ends early or fails marks it incomplete.
    """

    __slots__ = ("bond_count", "probe_names", "complete", "data", "_probe_start", "width")

    def __init__(self, bond_count=0, probe_names=()):
        self.bond_count = bond_count
        self.probe_names = probe_names
        self.complete = True
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


def _check(t, signals, widths, probe_names) -> list[float]:
    """Every value ``signals`` hold, each slot's outputs and then, after a step, its
    probes, in that order, as a float.

    A vector is sized and indexable (a set is not) and not a mapping, and is read as
    ``vector[k]`` for ``k`` in ``range(len(vector))``.  A value must add to a float, and
    ``float()`` converts it (keeping the sign of -0.0) to the finite float the run uses.
    Raises :class:`SimulatorFailure` at ``t`` naming the first failure, in this order:
    a probe count, outputs that are not a vector, a value (outputs first), an output
    length, probes that are not a vector.  Probes of the right count that are not a
    vector, such as a set, are iterated, so a value in them that breaks the value rule
    is named before they break the vector rule.
    """
    n = len(probe_names)
    for i, (vector, names) in enumerate(zip(signals[n:], probe_names)):
        sized = hasattr(vector, "__len__")
        if not sized or len(vector) != len(names):
            got = f"{len(vector)} probe values" if sized else repr(vector)
            raise SimulatorFailure(
                f"slot {i} returned {got} at t={t} for its {len(names)} probe names {names}"
            )
    vectors = [
        hasattr(v, "__len__") and hasattr(v, "__getitem__") and not hasattr(v, "keys")
        for v in signals
    ]
    bad = f"non-finite simulator output at t={t}: "
    for i, out in enumerate(signals[:n]):
        if not vectors[i]:
            raise SimulatorFailure(f"{bad}slot {i} outputs are {out!r}, not a sequence of numbers")
    values = []
    for s, (vector, indexed) in enumerate(zip(signals, vectors)):
        size = len(vector)
        read = (vector[k] for k in range(size)) if indexed else islice(vector, size)
        for k, v in enumerate(read):
            try:
                0.0 + v
                if isfinite(value := float(v)):
                    values.append(value)
                    continue
                problem = ""
            except TypeError:
                problem = f" is {v!r}, not a number"
            except OverflowError:  # an int beyond the float range
                problem = " is too large for a float"
            probe, i = divmod(s, n)
            signal = f"probe {probe_names[i][k]!r}" if probe else f"output {k}"
            raise SimulatorFailure(f"{bad}slot {i} {signal}{problem}")
    for s, (vector, width) in enumerate(zip(signals, widths)):
        if len(vector) != width:  # an output, as each probe count passed above
            got = f"{len(vector)} outputs"
            raise SimulatorFailure(f"slot {s} returned {got} at t={t} for its {width} outputs")
        if not vectors[s]:  # a probe vector, as each output vector passed above
            got = f"probes are {vector!r}"
            raise SimulatorFailure(f"{bad}slot {s - n} {got}, not a sequence of numbers")
    return values


def _probe_layout(slots: Sequence[SimulatorSlot]) -> list[tuple[str, ...]]:
    """Each slot's ``probe_names``, read as ``names[k]`` for ``k`` in ``range(len(names))``.

    Raises ``ValueError`` for ``probe_names`` that is a ``str`` (one name per
    character), a name that is not a ``str``, and a name that a slot repeats,
    that two slots share or that names a step or ledger field, since
    :meth:`RunRecord.column` could not tell them apart.
    """
    names = []
    owner = dict.fromkeys(STEP_FIELDS + BOND_FIELDS, "the record")
    for i, slot in enumerate(slots):
        declared = slot.probe_names
        if isinstance(declared, str):
            raise ValueError(f"slot {i} probe_names is the str {declared!r}, not a tuple of names")
        keys = tuple(declared[k] for k in range(len(declared)))
        for name in keys:
            if not isinstance(name, str):
                raise ValueError(f"slot {i} probe name {name!r} is not a str")
            if owner.get(name) == f"slot {i}":
                raise ValueError(f"slot {i} probe {name!r} is named twice in its probe_names")
            if name in owner:
                raise ValueError(f"slot {i} probe {name!r} is also a column of {owner[name]}")
            owner[name] = f"slot {i}"
        names.append(keys)
    return names


def micro_step_plan(slots: Sequence[SimulatorSlot], min_step: float, t_end: float) -> float:
    """Most micro steps a run can take: ``ceil(t_end / min_step)`` macro steps, as none is
    repeated and one past ``t_end`` is cut onto it, each of the slots' ``micro_step_ratio``.

    Raises ``ValueError`` for a ratio that is not an integer of at least 1."""
    for i, slot in enumerate(slots):
        ratio = slot.micro_step_ratio
        if not is_count(ratio, 1):
            raise ValueError(
                f"slot {i} micro_step_ratio {ratio!r} is not an integer of at least 1"
            )
    steps = t_end / min_step
    return (ceil(steps) if steps < inf else steps) * sum(slot.micro_step_ratio for slot in slots)


def check_plan(plan: float, what: str) -> None:
    """Raise ``ValueError`` if ``what`` plans more than ``MICRO_STEP_BUDGET`` micro steps."""
    if not plan <= MICRO_STEP_BUDGET:
        raise ValueError(
            f"{what} plans {plan:.4g} micro steps, over MICRO_STEP_BUDGET = {MICRO_STEP_BUDGET}; "
            "use larger steps, fewer micro steps or a shorter horizon"
        )


def _refuse_step(policy: StepPolicy, dt: float, t: float, min_step: float) -> None:
    """Raise ``ValueError``: the step size ``policy`` proposed at ``t`` is not finite or is
    below its smallest step."""
    raise ValueError(
        f"policy {policy.name!r} proposed step size {dt} at t={t}; "
        f"it must be finite and at least its smallest step {min_step}"
    )


def _bond_failure(t, routes, bond_steps) -> None:
    """Raise :class:`SimulatorFailure` at ``t`` naming the first bond that booked a
    value that is not finite; return if none did, and only their sum overflowed."""
    for j, ((o_e, _, k_e, o_f, _, k_f, _), step) in enumerate(zip(routes, bond_steps)):
        if not all(map(isfinite, step)):
            raise SimulatorFailure(
                f"non-finite bond power at t={t}: bond {j} "
                f"(slot {o_e} output {k_e}, slot {o_f} output {k_f})"
            )


# The macro-step loop, filled in per run shape by _step_loop.  Each step routes the
# coupling outputs to the inputs as apply_connections does, one local per bonded input
# (sigma or -sigma times the other port's output; an unbonded input is 0.0), calls every
# slot's set_inputs and do_step in slot order, reads all outputs and then all probes,
# and screens them: tuples or lists of finite floats of their widths unpack into locals
# unchanged, and anything else goes through _check.  Then the ledgers book the step
# against the held inputs, the policy sees it and the row is packed.  After the bounds
# run_cosimulation checks first, each step but the last (> t_tol) is at least
# t_end / MAX_MACRO_STEPS: all advance a clock that never passes t_end.
_LOOP = """\
def step_loop(
    t_end, t_tol, min_step, dt_next, coupled, signs, slot_calls, books, clock, next_step,
    pack_row, append_row, stop, record, policy, routes, widths, probe_names,
):
    {calls} = slot_calls
    {books} = books
    {signs} = signs
    {coupled} = coupled
    t_now = 0.0
    while True:
        remaining = t_end - t_now
        if remaining <= t_tol:
            return
        if not min_step <= dt_next < inf:
            _refuse_step(policy, dt_next, t_now, min_step)
        if dt_next >= remaining * (1.0 - 1e-9):  # cut onto t_end, absorbing a final sliver
            dt = remaining
            t_next = t_end
        else:
            dt = dt_next
            t_next = clock(dt)
        {route}
        {step}
        {read}
        try:
            if not ({sequences}):
                raise ValueError
            {unpack}
            if not ({floats} and isfinite({value_sum})):
                raise ValueError
        except ValueError:
            {values} = _check(t_next, [{vectors}], widths, probe_names)
        {book}
        if not isfinite({field_sum}):
            _bond_failure(t_next, routes, {bond_steps})
        dt_next, eps = next_step(t_next, dt, {bond_steps}, {coupled})
        append_row(pack_row(t_next, dt, eps, {row}))
        if stop is not None and stop(record):
            record.complete = False
            return
        t_now = t_next
"""


def _tuple(names: Sequence[str]) -> str:
    """``names`` as a tuple display, which is also an unpacking target."""
    return f"({', '.join(names)},)" if names else "()"


@lru_cache(maxsize=32)
def _step_loop(input_counts: tuple, output_widths: tuple, probe_counts: tuple, ports: tuple):
    """The loop of :data:`_LOOP` for runs of one shape, compiled once per shape.

    The shape is each slot's input count, output width and probe count and, per
    bond, the owner, input index and output index of its effort port and then of
    its flow port.  These ints are all the source holds: no text a slot supplies
    is compiled, and each callable the loop uses, bar the failure helpers it names,
    and each bond's sign are arguments of each run.
    """
    slots = range(len(output_widths))
    outs = [[f"y{i}_{k}" for k in range(n)] for i, n in enumerate(output_widths)]
    probes = [[f"p{i}_{k}" for k in range(n)] for i, n in enumerate(probe_counts)]
    vectors = [f"Y{i}" for i in slots] + [f"P{i}" for i in slots]
    values = [*chain(*outs), *chain(*probes)]
    steps = [f"b{j}" for j in range(len(ports))]
    fields = [[f"b{j}_{f}" for f in range(len(BOND_FIELDS))] for j in range(len(ports))]
    coupled = [outs[o][k] for p in ports for o, k in ((p[0], p[2]), (p[3], p[5]))]
    # Bond j's effort input is ue{j} = s{j} * (flow output), its flow input uf{j} = n{j} *
    # (effort output), with s{j} its sigma and n{j} = -sigma, as apply_connections has it.
    inputs = [["0.0"] * n for n in input_counts]
    routing = []
    for j, (o_e, i_e, _, o_f, i_f, _) in enumerate(ports):
        inputs[o_e][i_e], inputs[o_f][i_f] = f"ue{j}", f"uf{j}"
        routing += [f"ue{j} = s{j} * {coupled[2 * j + 1]}", f"uf{j} = n{j} * {coupled[2 * j]}"]
    unpacks = [f"{_tuple(names)} = {vector}" for names, vector in zip(outs + probes, vectors)]
    books = [
        f"b{j} = book{j}(dt, ue{j}, uf{j}, {coupled[2 * j]}, {coupled[2 * j + 1]})"
        for j in range(len(ports))
    ]
    line = "\n        "  # a new line in the loop's body
    source = _LOOP.format(
        calls=_tuple([f"{call}{i}" for i in slots for call in ("set", "do", "out", "probe")]),
        books=_tuple([f"book{j}" for j in range(len(ports))]),
        signs=_tuple([f"{sign}{j}" for j in range(len(ports)) for sign in "sn"]),
        coupled=_tuple(coupled),
        route=line.join(routing + [f"u{i} = {_tuple(u)}" for i, u in enumerate(inputs)]),
        step=line.join(f"set{i}(u{i}){line}do{i}(t_now, dt)" for i in slots),
        read=line.join([f"Y{i} = out{i}()" for i in slots] + [f"P{i} = probe{i}()" for i in slots]),
        sequences=" and ".join(f"(type({v}) is tuple or type({v}) is list)" for v in vectors)
        or "True",
        unpack=(line + "    ").join(unpacks),
        floats=" and ".join(f"type({v}) is float" for v in values) or "True",
        value_sum=" + ".join(values) or "0.0",
        values=_tuple(values),
        vectors=", ".join(vectors),
        book=line.join(f"{book}{line}{_tuple(f)} = {b}" for book, f, b in zip(books, fields, steps)),
        field_sum=" + ".join(chain(*fields)) or "0.0",
        bond_steps=_tuple(steps),
        row=", ".join([*chain(*fields), *chain(*probes)]),
    )
    exec(compile(source, "<eccosim.master step loop>", "exec"), globals(), loop := {})
    return loop["step_loop"]


def run_cosimulation(
    slots: Sequence[SimulatorSlot],
    bonds: Sequence[PowerBond],
    policy: StepPolicy,
    t_end: float,
    stop: Callable[[RunRecord], bool] | None = None,
) -> RunRecord:
    """Run the Jacobi master loop from t = 0 to ``t_end``.

    The policy's ``start`` gives the first step size from the coupling outputs
    :func:`_check` converts at t = 0, and the final step is cut onto
    ``t_end``: its row's ``t`` is ``t_end`` itself.  ``stop(record)``, when
    given, is called after each row is appended, and a true result ends the
    run with ``record.complete`` False.  The slots' ``probe_names``, read
    once, fix the row layout.  The steps run in the loop :func:`_step_loop`
    compiles for the run's shape (its slots' input counts, output widths and probe
    counts and its bonds' ports); the slots' methods, the ledgers, the policy and
    the bonds' signs are looked up once per run and handed to it.

    Raises :class:`ValueError` before any step when ``t_end`` is negative,
    not finite, too short for one macro step (within the end tolerance of 0)
    or longer than ``MAX_MACRO_STEPS`` of the policy's ``min_step``, or its
    :func:`micro_step_plan` exceeds ``MICRO_STEP_BUDGET`` (:func:`check_plan`), or a
    probe name is not a ``str`` unique among the record's columns, and before the
    next step when the policy proposes a step size that is not finite or is
    below its ``min_step``.  Raises :class:`SimulatorFailure` before the ledgers book a
    step that breaks the rule of :func:`_check`, before the policy sees a step whose
    booked bond power is not finite, and when its indicator is not finite, naming what
    failed first; its ``record`` is then the incomplete record of the rows before that
    step (empty at t = 0).
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

    # Methods are looked up once per run instead of once per macro step.
    slot_calls = [
        call
        for slot in slots
        for call in (slot.set_inputs, slot.do_step, slot.get_outputs, slot.probes)
    ]
    output_widths = [slot.n_outputs for slot in slots]
    widths = output_widths + [len(names) for names in probe_names]
    # Bond j's effort and flow outputs are values[picks[2j]] and values[picks[2j + 1]].
    picks = [sum(output_widths[:o]) + k for r in routes for o, k in ((r[0], r[2]), (r[3], r[5]))]

    try:
        values = _check(0.0, [slot.get_outputs() for slot in slots], output_widths, probe_names)
        coupled = tuple(values[p] for p in picks)
        dt_next = policy.start(coupled)
        step_loop = _step_loop(
            wiring.input_counts,
            tuple(map(index, output_widths)),
            tuple(map(len, probe_names)),
            tuple(tuple(map(index, route[:6])) for route in routes),
        )
        step_loop(
            t_end, t_tol, min_step, dt_next, coupled, [s for r in routes for s in (r[6], -r[6])],
            slot_calls, [BondLedger(route[6]).record for route in routes], CompensatedSum().add,
            policy.next_step, Struct(f"{record.width}d").pack, record.data.frombytes, stop,
            record, policy, routes, widths, probe_names,
        )
    except SimulatorFailure as exc:  # every failure at a step carries the rows before it
        exc.record = record
        record.complete = False
        raise
    return record
