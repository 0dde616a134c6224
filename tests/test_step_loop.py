"""The macro-step loop compiled per run shape, against the generic loop of the oracle checks."""

import math

from hypothesis import given, settings, strategies as st
from oracle_checks import generic_cosimulation

from eccosim import master
from eccosim.control import ConstantStep, PIController, ResidualEnergyIndicator, StepPolicy
from eccosim.energy import BOND_FIELDS
from eccosim.master import STEP_FIELDS, SimulatorFailure, run_cosimulation
from eccosim.model import PowerBond, PowerPort, SimulatorSlot
from eccosim.quartercar import LINEAR_PARAMS, build_reticulation


class _Toy(SimulatorSlot):
    """A slot of any shape: output k relaxes at rate k + 1 towards the summed inputs.

    It returns its vectors as ``kind`` (tuple or list) and logs every input it
    receives; once it has taken ``bad[0]`` steps, its ``bad[1]`` signal
    (``"output"`` or ``"probe"``) ``bad[2]`` reads ``bad[3]`` instead.
    """

    def __init__(self, n_inputs, n_outputs, probe_names, kind=tuple, bad=None):
        self.n_inputs = n_inputs
        self.n_outputs = n_outputs
        self.probe_names = probe_names
        self.kind = kind
        self.bad = bad
        self.state = [0.25 * (k + 1) for k in range(n_outputs)]
        self.u = ()
        self.steps = 0
        self.received = []

    def set_inputs(self, u):
        self.u = u
        self.received.append([v.hex() for v in u])

    def do_step(self, t, dt):
        drive = sum(self.u)
        self.state = [x + dt * (k + 1) * (drive - x) for k, x in enumerate(self.state)]
        self.steps += 1

    def _vector(self, signal, values):
        if self.bad is not None and self.bad[:2] == (self.steps, signal) and values:
            values[self.bad[2] % len(values)] = self.bad[3]
        return self.kind(values)

    def get_outputs(self):
        return self._vector("output", list(self.state))

    def probes(self):
        base = 0.5 * self.steps + sum(self.state)
        return self._vector("probe", [base + k for k in range(len(self.probe_names))])


class _FailsAt(StepPolicy):
    """``policy``, except that its ``at``-th ``next_step`` raises :class:`SimulatorFailure`."""

    def __init__(self, policy, at):
        self.policy, self.at = policy, at
        self.name, self.min_step = policy.name, policy.min_step

    def start(self, outputs):
        self.calls = 0
        return self.policy.start(outputs)

    def next_step(self, t_next, dt_used, bond_steps, outputs):
        self.calls += 1
        if self.calls == self.at:
            raise SimulatorFailure(f"{self.name} policy fails at t={t_next}")
        return self.policy.next_step(t_next, dt_used, bond_steps, outputs)


_RESERVED = frozenset(STEP_FIELDS + BOND_FIELDS)


@st.composite
def _run_shapes(draw):
    """Slot shapes, probe names, bonds, the policy, one bad value and the step the policy
    fails at: what `_outcome` takes."""
    n = draw(st.integers(1, 4))
    owners = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3))
    ports = [0] * n  # bonded inputs, and outputs, of each slot
    for pair in owners:
        for i in pair:
            ports[i] += 1
    if max(ports) > 3:  # each slot has at most 3 inputs and 3 outputs
        owners, ports = [], [0] * n
    shapes, inputs, outputs = [], [], []
    for used in ports:
        n_in, n_out = used + draw(st.integers(0, 3 - used)), used + draw(st.integers(0, 3 - used))
        kind = draw(st.sampled_from((tuple, tuple, tuple, list)))
        shapes.append((n_in, n_out, draw(st.integers(0, 3)), kind))
        inputs.append(draw(st.permutations(range(n_in))))
        outputs.append(draw(st.permutations(range(n_out))))
    bonds = []
    for o_e, o_f in owners:
        effort = PowerPort(o_e, inputs[o_e].pop(), outputs[o_e].pop())
        flow = PowerPort(o_f, inputs[o_f].pop(), outputs[o_f].pop())
        bonds.append(PowerBond(effort, flow, draw(st.sampled_from((1, -1)))))
    n_names = sum(shape[2] for shape in shapes)
    names = draw(
        st.lists(
            st.text().filter(lambda name: name not in _RESERVED),
            min_size=n_names,
            max_size=n_names,
            unique=True,
        )
    )
    ecco = bool(bonds) and draw(st.booleans())
    bad = draw(
        st.none()
        | st.tuples(
            st.integers(0, n - 1),
            st.integers(1, 6),
            st.sampled_from(("output", "probe")),
            st.integers(0, 2),
            st.sampled_from((math.nan, math.inf, "1.5", None, 2**2000, -0.0, 3)),
        )
    )
    return shapes, names, tuple(bonds), ecco, bad, draw(st.none() | st.integers(1, 8))


def _build(shapes, names, ecco, bad, fail_at):
    slots = []
    for i, (n_in, n_out, n_probes, kind) in enumerate(shapes):
        slot_names, names = tuple(names[:n_probes]), names[n_probes:]
        slot_bad = bad[1:] if bad is not None and bad[0] == i else None
        slots.append(_Toy(n_in, n_out, slot_names, kind, slot_bad))
    policy = PIController(ResidualEnergyIndicator(rel_tol=1e-3)) if ecco else ConstantStep(3e-3)
    return slots, policy if fail_at is None else _FailsAt(policy, fail_at)


def _outcome(run, shapes, names, bonds, ecco, bad, fail_at):
    slots, policy = _build(shapes, names, ecco, bad, fail_at)
    try:
        record = run(slots, bonds, policy, 0.02)
    except SimulatorFailure as failure:
        outcome = ("failed", str(failure), failure.record.complete, failure.record.data.tobytes())
    else:
        outcome = ("ran", record.probe_names, record.data.tobytes())
    return outcome, [slot.received for slot in slots]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_run_shapes())
def test_compiled_loop_matches_the_generic_loop_for_any_shape(shape):
    # record bytes, every input each slot received, and the message of a bad value or a
    # policy failure
    compiled = _outcome(run_cosimulation, *shape)
    assert compiled == _outcome(generic_cosimulation, *shape)


def test_a_second_run_of_the_same_shape_compiles_nothing_new():
    run_cosimulation(*build_reticulation("B", LINEAR_PARAMS), ConstantStep(1e-3), 0.01)
    before = master._step_loop.cache_info()
    run_cosimulation(*build_reticulation("B", LINEAR_PARAMS), ConstantStep(2e-3), 0.02)
    after = master._step_loop.cache_info()
    assert after.misses == before.misses
    assert after.hits == before.hits + 1


@settings(derandomize=True, max_examples=400, deadline=None)
@given(
    t_end=st.floats(1e-3, 10.0),
    steps=st.floats(1.0, 300.0),
)
def test_no_row_passes_the_horizon_and_a_cut_last_step_ends_on_it(t_end, steps):
    dt = t_end / steps
    record = run_cosimulation([_Toy(0, 0, ())], (), ConstantStep(dt), t_end)
    t, dts = record.column("t"), record.column("dt")
    assert max(t) <= t_end
    assert t_end - t[-1] <= 1e-12 * max(t_end, 1.0)
    if dts[-1] != dt:  # the last step was cut onto t_end
        assert t[-1] == t_end
