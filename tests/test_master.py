"""Master loop: exchange, stepping, ledgers, determinism, failure handling."""

import gc
import io
import math
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from functools import cache
from itertools import chain, product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from eccosim.bench import ExperimentConfig, run_experiment, write_trajectory_csv
from eccosim.control import (
    ConstantStep,
    PIConfig,
    PIController,
    ResidualEnergyIndicator,
    StepPolicy,
)
from eccosim import master
from eccosim.master import RunRecord, SimulatorFailure, run_cosimulation
from eccosim.energy import BOND_FIELDS, BondLedger, CompensatedSum
from eccosim.model import PowerBond, PowerPort, SimulatorSlot
from eccosim.quartercar import (
    LINEAR_PARAMS,
    ChassisSpringDamper,
    MonolithicQuarterCar,
    WheelOnly,
    build_reticulation,
)
from eccosim.reference import reference_solve


def test_record_without_steps_reads_zero():
    # what a run that fails at t = 0 carries: no run succeeds without a step
    record = RunRecord(bond_count=1, probe_names=("z_c", "v_c", "z_w", "v_w"))
    assert record.step_count == 0
    assert record.duration == 0.0
    assert record.mean_dt() == 0.0
    assert record.total_residual() == 0.0
    assert len(record.last_probes()) == 0


@pytest.mark.parametrize("t_end", [0.0, 1e-13, 1e-12])
def test_horizon_too_short_for_one_step_rejected_before_any_step(t_end):
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    with pytest.raises(ValueError) as info:
        run_cosimulation(slots, bonds, ConstantStep(1e-3), t_end)
    assert str(info.value) == (
        f"t_end={t_end} is too short for one macro step; it must exceed 1e-12"
    )
    assert [slot.step_calls for slot in slots] == [0, 0]


def test_macro_step_cap_stops_a_run_before_the_step_past_it(monkeypatch):
    # a horizon of exactly the cap's steps runs; one that could take more is refused up front
    monkeypatch.setattr(master, "MAX_MACRO_STEPS", 50)
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    assert run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.05).step_count == 50
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    with pytest.raises(ValueError, match="MAX_MACRO_STEPS = 50"):
        run_cosimulation(slots, bonds, ConstantStep(1e-9), 4.0)
    assert [slot.step_calls for slot in slots] == [0, 0]


def test_free_simulator_without_bonds_matches_standalone():
    driven = MonolithicQuarterCar(LINEAR_PARAMS)
    record = run_cosimulation([driven], (), ConstantStep(1e-3), 0.2)
    standalone = MonolithicQuarterCar(LINEAR_PARAMS)
    for t, dt in zip(record.column("t"), record.column("dt")):  # replay the accepted steps
        standalone.do_step(t - dt, dt)
    assert record.step_count == 200
    assert record.bond_count == 0
    with pytest.raises(IndexError):
        record.column("P_12")
    assert driven.probes() == standalone.probes()


def test_initial_probes_are_zero():
    slots, _ = build_reticulation("A", LINEAR_PARAMS)
    assert slots[0].probe_names + slots[1].probe_names == ("z_c", "v_c", "z_w", "v_w")
    assert slots[0].probes() + slots[1].probes() == (0.0, 0.0, 0.0, 0.0)


def test_no_rollback_every_step_executed_once():
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    starts = [[], []]
    for slot, seen in zip(slots, starts):
        def do_step(t, dt, step=slot.do_step, seen=seen):
            seen.append(t)
            step(t, dt)

        slot.do_step = do_step
    policy = PIController(ResidualEnergyIndicator(rel_tol=2.8e-6))
    record = run_cosimulation(slots, bonds, policy, 0.5)
    assert slots[0].step_calls == record.step_count
    assert slots[1].step_calls == record.step_count
    # the first step starts at t = 0, every later one where the previous row ends
    row_ends = list(record.column("t"))
    assert starts[0] == starts[1] == [0.0] + row_ends[:-1]


def test_ledger_rows_are_self_consistent():
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.3)
    prev_accum = 0.0
    names = ("dt", "P_12", "dP_res", "dE_res", "E_step", "E_res_accum")
    for dt, p12, dp_res, de_res, e_step, e_res_accum in zip(
        *(record.column(name) for name in names)
    ):
        assert de_res == dp_res * dt
        assert e_step == p12 * dt
        increment = e_res_accum - prev_accum
        # compensated accumulation: increments match to a few ulps of the total
        tol = 1e-13 * max(1.0, abs(e_res_accum))
        assert increment == pytest.approx(de_res, abs=tol)
        prev_accum = e_res_accum
        assert dt == pytest.approx(1e-3, rel=1e-12)


def test_final_step_truncates_onto_horizon():
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.0105)
    assert record.step_count == 11
    assert record.column("dt")[-1] == pytest.approx(0.5e-3, rel=1e-9)
    assert record.column("t")[-1] == pytest.approx(0.0105, rel=1e-12)


def test_horizon_shorter_than_minimum_step_still_lands_exactly():
    # truncation overrides the controller's lower bound on the (only) step
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    policy = PIController(ResidualEnergyIndicator(rel_tol=1e-5))
    record = run_cosimulation(slots, bonds, policy, 5e-5)
    assert record.step_count == 1
    assert record.column("dt")[0] == pytest.approx(5e-5, rel=1e-12)
    assert record.column("t")[0] == pytest.approx(5e-5, rel=1e-12)


def _csv_bytes(record: RunRecord) -> str:
    buf = io.StringIO()
    write_trajectory_csv(record, buf)
    return buf.getvalue()


def test_tolerance_width_checked_before_any_step():
    # one bond: a two-value rel_tol fails at start, not after the first step
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    policy = PIController(ResidualEnergyIndicator(rel_tol=[1e-5, 1e-6]))
    with pytest.raises(ValueError, match="rel_tol"):
        run_cosimulation(slots, bonds, policy, 0.5)
    assert [slot.step_calls for slot in slots] == [0, 0]


@pytest.mark.parametrize("t_end", [float("nan"), float("inf"), -1.0])
def test_bad_horizon_rejected_before_any_step(t_end):
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    with pytest.raises(ValueError, match="t_end"):
        run_cosimulation(slots, bonds, ConstantStep(1e-3), t_end)
    assert [slot.step_calls for slot in slots] == [0, 0]


def test_same_run_twice_is_byte_identical():
    def once():
        slots, bonds = build_reticulation("B", LINEAR_PARAMS)
        policy = PIController(ResidualEnergyIndicator(rel_tol=9.1e-7))
        return _csv_bytes(run_cosimulation(slots, bonds, policy, 0.5))

    assert once() == once()


def test_simulator_failure_aborts_with_partial_record():
    # far beyond the stability onset: states overflow to non-finite values
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    with pytest.raises(SimulatorFailure) as exc_info:
        run_cosimulation(slots, bonds, ConstantStep(0.05), 60.0)
    record = exc_info.value.record
    assert record is not None
    assert not record.complete
    assert 0 < record.step_count < 1200
    # the force and velocity stay finite, their product overflows
    message = str(exc_info.value)
    assert message.startswith("non-finite bond power at t=")
    assert message.endswith(": bond 0 (slot 0 output 0, slot 1 output 0)")


@pytest.mark.parametrize(
    "state, signal", [("v_w", "slot 1 output 0"), ("z_w", "slot 1 probe 'z_w'")]
)
def test_simulator_failure_names_slot_and_signal(state, signal):
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    wheel = slots[1]
    wheel_step = wheel.do_step

    def do_step(t, dt):  # the wheel's state breaks during its third step
        wheel_step(t, dt)
        if wheel.step_calls == 3:
            setattr(wheel, state, float("nan"))

    wheel.do_step = do_step
    with pytest.raises(SimulatorFailure) as exc_info:
        run_cosimulation(slots, bonds, ConstantStep(1e-3), 1.0)
    assert str(exc_info.value) == f"non-finite simulator output at t=0.003: {signal}"
    assert exc_info.value.record.step_count == 2


class _Proposes(StepPolicy):
    """Starts with ``first``, then proposes ``then`` after every step; states ``min_step``."""

    name = "proposes"

    def __init__(self, first, then, min_step=1e-4):
        self.first, self.then, self.min_step = first, then, min_step

    def start(self, outputs):
        return self.first

    def next_step(self, t_next, dt_used, bond_steps, outputs):
        return self.then, 0.0


@pytest.mark.parametrize("bad", [0.0, -1e-3, float("nan"), float("inf")])
def test_bad_policy_step_rejected_before_next_step(bad):
    # at the first proposal, before any step
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    with pytest.raises(ValueError, match="finite and at least its smallest step 0.0001"):
        run_cosimulation(slots, bonds, _Proposes(bad, 1e-3), 1.0)
    assert [slot.step_calls for slot in slots] == [0, 0]
    # after an accepted step
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    with pytest.raises(ValueError, match="finite and at least its smallest step 0.0001"):
        run_cosimulation(slots, bonds, _Proposes(1e-3, bad), 1.0)
    assert [slot.step_calls for slot in slots] == [1, 1]


def test_step_that_does_not_advance_the_clock_rejected_before_the_slots_step():
    # at t = 1e-3 a step of 1e-20 is less than half a unit in the last place of t,
    # and far below the smallest step the policy states
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    with pytest.raises(ValueError) as info:
        run_cosimulation(slots, bonds, _Proposes(1e-3, 1e-20), 1.0)
    assert str(info.value) == (
        "policy 'proposes' proposed step size 1e-20 at t=0.001; "
        "it must be finite and at least its smallest step 0.0001"
    )
    assert [slot.step_calls for slot in slots] == [1, 1]


@pytest.mark.parametrize("min_step", [0.0, -1e-3, float("nan"), 1e-7])
def test_policy_whose_smallest_step_bounds_no_run_refused_before_any_step(min_step):
    # a smallest step that is not positive, or too small for the horizon, admits runs
    # that never end or outgrow MAX_MACRO_STEPS
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    with pytest.raises(ValueError, match="MAX_MACRO_STEPS = 1000000 steps of"):
        run_cosimulation(slots, bonds, _Proposes(1e-3, 1e-3, min_step), 1.0)
    assert [slot.step_calls for slot in slots] == [0, 0]


def test_stop_hook_ends_run_at_first_true_row():
    def beyond(record):
        return any(abs(v) > 1e6 for v in record.last_probes())

    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    record = run_cosimulation(slots, bonds, ConstantStep(0.0125), 100.0, stop=beyond)
    assert record.step_count == 395
    assert record.complete is False
    assert [slot.step_calls for slot in slots] == [395, 395]
    assert record.probe_names == ("z_c", "v_c", "z_w", "v_w")
    steps = list(zip(*(record.column(name) for name in record.probe_names)))
    assert steps[-1] == tuple(record.last_probes())
    assert any(abs(v) > 1e6 for v in steps[-1])
    assert not any(abs(v) > 1e6 for step in steps[:-1] for v in step)


def test_adaptive_run_respects_step_bounds_and_rate_limits():
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    cfg = PIConfig()
    policy = PIController(ResidualEnergyIndicator(rel_tol=3.1e-5), cfg)
    record = run_cosimulation(slots, bonds, policy, 4.0)
    dts = record.column("dt")
    # the final step may be truncated onto t_end; all others obey the clamps
    for dt in dts[:-1]:
        assert cfg.dt_min <= dt <= cfg.dt_max * (1 + 1e-12)
    for prev, nxt in zip(dts[:-2], dts[1:-1]):
        ratio = nxt / prev
        assert cfg.theta_min - 1e-9 <= ratio <= cfg.theta_max + 1e-9
    assert min(dts) < max(dts)  # the controller actually moved the step size


def test_partial_probes_leave_empty_csv_fields():
    from eccosim.quartercar import ChassisExact

    slot = ChassisExact(LINEAR_PARAMS)
    slot.v_c = 0.25
    record = run_cosimulation([slot], (), ConstantStep(1e-3), 2e-3)
    buf = io.StringIO()
    write_trajectory_csv(record, buf)
    lines = buf.getvalue().strip().split("\n")
    fields = lines[1].split(",")
    assert fields[3:9] == [""] * 6  # no bond columns
    assert fields[9] != "" and fields[10] != ""  # z_c, v_c probed
    assert fields[11] == fields[12] == ""  # z_w, v_w absent


def test_chassis_settles_at_static_equilibrium():
    # steady state of the full model: both masses level with the road step
    z_c, _, z_w, _ = reference_solve(LINEAR_PARAMS, 4.0, reticulation="A").states_at(4.0)
    assert z_c == pytest.approx(0.1, abs=2e-3)
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 4.0)
    assert record.column("z_c")[-1] == pytest.approx(z_c, abs=2e-3)
    assert record.column("z_w")[-1] == pytest.approx(z_w, abs=2e-3)


def test_clock_is_the_compensated_sum_of_the_step_sizes():
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    policy = PIController(ResidualEnergyIndicator(rel_tol=2.8e-6))
    record = run_cosimulation(slots, bonds, policy, 1.0)
    clock = CompensatedSum()
    for t, dt in zip(record.column("t"), record.column("dt")):
        clock.add(dt)
        assert t == clock.value


def test_record_columns_follow_the_ledger_and_the_probes():
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.05)
    assert record.probe_names == ("z_c", "v_c", "z_w", "v_w")
    assert record.column("z_w")[-1] == slots[1].z_w
    assert record.column("v_c")[-1] == slots[0].v_c
    assert record.total_residual() == record.column("E_res_accum")[-1]
    for name in ("t", "dt", "eps", "E_step", "z_c"):
        assert len(record.column(name)) == record.step_count == 50
    with pytest.raises(IndexError):
        record.column("P_12", bond=1)
    with pytest.raises(KeyError):
        record.column("x_c")


class _KeepsSteps(ConstantStep):
    """Constant steps; keeps the time, step size and first bond's ledger
    values the master hands the policy after every step."""

    def __init__(self, dt: float):
        super().__init__(dt)
        self.steps = []

    def next_step(self, t_next, dt_used, bond_steps, outputs):
        self.steps.append((t_next, dt_used, bond_steps[0]))
        return super().next_step(t_next, dt_used, bond_steps, outputs)


def test_ledger_columns_hold_the_entries_the_policy_saw():
    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    policy = _KeepsSteps(1e-3)
    record = run_cosimulation(slots, bonds, policy, 0.05)
    assert [len(bond) for _, _, bond in policy.steps] == [len(BOND_FIELDS)] * 50
    for k, name in enumerate(BOND_FIELDS):
        assert list(record.column(name)) == [bond[k] for _, _, bond in policy.steps]
    assert list(record.column("t")) == [t for t, _, _ in policy.steps]
    assert list(record.column("dt")) == [dt for _, dt, _ in policy.steps]


class _Probed(SimulatorSlot):
    """A slot without ports probing ``x`` and ``y``; from its third step on
    ``probes`` returns ``later`` instead."""

    probe_names = ("x", "y")

    def __init__(self, later=(1.0, 2.0)):
        self.later = later
        self.steps = 0

    def set_inputs(self, u):
        pass

    def do_step(self, t, dt):
        self.steps += 1

    def get_outputs(self):
        return ()

    def probes(self):
        return (1.0, 2.0) if self.steps < 3 else self.later


@pytest.mark.parametrize("later", [(1.0,), (1.0, 2.0, 3.0), ()], ids=["short", "long", "empty"])
def test_probe_values_of_the_wrong_count_fail_naming_the_slot(later):
    slots = [MonolithicQuarterCar(LINEAR_PARAMS), _Probed(later)]
    with pytest.raises(SimulatorFailure) as info:
        run_cosimulation(slots, (), ConstantStep(1e-3), 0.01)
    assert str(info.value) == (
        f"slot 1 returned {len(later)} probe values at t=0.003 for its 2 probe names ('x', 'y')"
    )
    assert info.value.record.step_count == 2
    assert info.value.record.complete is False


class _ProbedUV(_Probed):
    probe_names = ("u", "v")


def test_probe_counts_that_only_add_up_fail_naming_the_slot():
    # one value too many and one too few: the total is right, each width is not
    slots = [_Probed((1.0, 2.0, 3.0)), _ProbedUV((4.0,))]
    with pytest.raises(SimulatorFailure) as info:
        run_cosimulation(slots, (), ConstantStep(1e-3), 0.01)
    assert str(info.value) == (
        "slot 0 returned 3 probe values at t=0.003 for its 2 probe names ('x', 'y')"
    )
    assert info.value.record.step_count == 2


class _DictProbes(MonolithicQuarterCar):
    """Still written to the old contract: ``probes()`` returns a dict."""

    def probes(self):
        return dict(zip(self.probe_names, super().probes()))


class _DecimalProbes(MonolithicQuarterCar):
    def probes(self):
        return tuple(map(Decimal, super().probes()))


class _HugeProbes(MonolithicQuarterCar):
    def probes(self):
        return (10**400, *super().probes()[1:])


def test_probes_that_are_not_numbers_fail_naming_the_slot():
    # a dict of the right length: its keys are read as the values; a Decimal
    # passes isfinite, but not the float arithmetic the record is packed with;
    # an int beyond the float range fails that arithmetic too
    for cls in (_DictProbes, _DecimalProbes, _HugeProbes):
        slot = cls(LINEAR_PARAMS)
        with pytest.raises(SimulatorFailure) as info:
            run_cosimulation([slot], (), ConstantStep(1e-3), 0.01)
        value = slot.probes()[0] if isinstance(slot, _DecimalProbes) else "z_c"
        what = f"is {value!r}, not a number"
        if isinstance(slot, _HugeProbes):
            what = "is too large for a float"
        assert str(info.value) == (
            f"non-finite simulator output at t=0.001: slot 0 probe 'z_c' {what}"
        )
        assert info.value.record.step_count == 0
        assert info.value.record.complete is False


class _AddsOnly:
    def __radd__(self, other):
        return other

    def __repr__(self):
        return "_AddsOnly()"


def test_outputs_that_are_not_numbers_fail_naming_the_slot():
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    wheel = slots[1]
    wheel_step = wheel.do_step

    def do_step(t, dt):  # the wheel's velocity turns into text during its third step
        wheel_step(t, dt)
        if wheel.step_calls == 3:
            wheel.v_w = "fast"

    wheel.do_step = do_step
    with pytest.raises(SimulatorFailure) as info:
        run_cosimulation(slots, bonds, ConstantStep(1e-3), 1.0)
    assert str(info.value) == (
        "non-finite simulator output at t=0.003: slot 1 output 0 is 'fast', not a number"
    )
    assert info.value.record.step_count == 2
    assert info.value.record.complete is False

    # a Decimal passes isfinite but not the float arithmetic of the slots and the
    # ledger; an int beyond the float range fails that arithmetic too, and so
    # does a value that adds to a float but cannot be multiplied by one
    broken = (
        (Decimal, lambda v_w: f"is {Decimal(v_w)!r}, not a number"),
        (lambda v_w: 10**400, lambda v_w: "is too large for a float"),
        (lambda v_w: _AddsOnly(), lambda v_w: "is _AddsOnly(), not a number"),
    )
    for (convert, what), (broken_after, t) in product(broken, ((0, "0.0"), (2, "0.002"))):
        message, v_w = _fail_with_wheel_outputs(lambda v_w: (convert(v_w),), broken_after)
        assert message == f"non-finite simulator output at t={t}: slot 1 output 0 {what(v_w)}"


def _fail_with_wheel_outputs(broken, broken_after):
    """Run reticulation B until its wheel, once it has taken ``broken_after``
    steps, returns ``broken(v_w)`` from ``get_outputs``; check that the run
    fails there with the steps before it recorded, and return the failure's
    message and the wheel's ``v_w`` that ``broken`` was given."""
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    wheel = slots[1]
    real = wheel.get_outputs

    def get_outputs():
        return broken(*real()) if wheel.step_calls == broken_after else real()

    wheel.get_outputs = get_outputs
    with pytest.raises(SimulatorFailure) as info:
        run_cosimulation(slots, bonds, ConstantStep(1e-3), 1.0)
    assert info.value.record.step_count == max(broken_after - 1, 0)
    assert info.value.record.complete is False
    assert [slot.step_calls for slot in slots] == [broken_after] * 2
    return str(info.value), wheel.v_w


class _NoProbes(MonolithicQuarterCar):
    def probes(self):
        return None


def test_probes_that_are_not_a_sequence_fail_naming_the_slot():
    with pytest.raises(SimulatorFailure) as info:
        run_cosimulation([_NoProbes(LINEAR_PARAMS)], (), ConstantStep(1e-3), 0.01)
    assert str(info.value) == (
        "slot 0 returned None at t=0.001 for its 4 probe names ('z_c', 'v_c', 'z_w', 'v_w')"
    )
    assert info.value.record.step_count == 0
    assert info.value.record.complete is False


def test_outputs_that_are_not_a_sequence_fail_naming_the_slot():
    # the wheel returns no sequence after its second step, or from the start;
    # a mapping is none either, even when its keys index like a sequence
    returns = (lambda v_w: None, lambda v_w: {0.0}, lambda v_w: {"v_w": v_w}, lambda v_w: {0: v_w})
    for returned, (broken_after, t) in product(returns, ((2, "0.002"), (0, "0.0"))):
        message, v_w = _fail_with_wheel_outputs(returned, broken_after)
        assert message == (
            f"non-finite simulator output at t={t}: "
            f"slot 1 outputs are {returned(v_w)!r}, not a sequence of numbers"
        )


@pytest.mark.parametrize("returned", [(), (0.0, 0.0)], ids=["empty", "long"])
def test_output_vectors_of_the_wrong_length_fail_naming_the_slot(returned):
    # the wheel returns a vector of the wrong length from the start, or after its second step
    for broken_after, t in ((0, "0.0"), (2, "0.002")):
        message, _ = _fail_with_wheel_outputs(lambda v_w: returned, broken_after)
        assert message == f"slot 1 returned {len(returned)} outputs at t={t} for its 1 outputs"


def test_int_outputs_whose_bond_power_overflows_fail_naming_the_bond():
    # the ledger books the coupling outputs as floats: two ints within the
    # float range whose product is beyond it give an infinite bond power,
    # not an OverflowError
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    for slot in slots:
        real = slot.get_outputs
        slot.get_outputs = lambda slot=slot, real=real: (10**200,) if slot.step_calls == 2 else real()
    with pytest.raises(SimulatorFailure) as info:
        run_cosimulation(slots, bonds, ConstantStep(1e-3), 1.0)
    assert str(info.value) == (
        "non-finite bond power at t=0.002: bond 0 (slot 0 output 0, slot 1 output 0)"
    )
    assert info.value.record.step_count == 1


def test_ledgers_book_only_checked_steps(monkeypatch):
    # the wheel's velocity is NaN after its third step: the check fails before
    # the ledger books that step, so two rows take two ledger calls
    booked = []
    real_record = BondLedger.record

    def record(self, dt, u1, u2, y1, y2):
        booked.append((u1, u2, y1, y2))
        return real_record(self, dt, u1, u2, y1, y2)

    monkeypatch.setattr(BondLedger, "record", record)
    message, _ = _fail_with_wheel_outputs(lambda v_w: (float("nan"),), 3)
    assert message == "non-finite simulator output at t=0.003: slot 1 output 0"
    assert len(booked) == 2
    assert all(map(math.isfinite, chain(*booked)))


class _ChassisB(ChassisSpringDamper):
    probe_names = ("z_c_B", "v_c_B")


class _WheelB(WheelOnly):
    probe_names = ("z_w_B", "v_w_B")


def test_two_bonds_in_one_run_match_their_single_bond_runs():
    # reticulations A and B side by side: slots 0-1 with bond 0, slots 2-3 with bond 1
    slots, (bond_a,) = build_reticulation("A", LINEAR_PARAMS)
    slots += [_ChassisB(LINEAR_PARAMS), _WheelB(LINEAR_PARAMS)]
    bond_b = PowerBond(PowerPort(2, 0, 0), PowerPort(3, 0, 0), sigma=1)
    both = run_cosimulation(slots, (bond_a, bond_b), ConstantStep(1e-3), 1.0)
    assert both.bond_count == 2
    for bond, kind in enumerate("AB"):
        alone = run_cosimulation(*build_reticulation(kind, LINEAR_PARAMS), ConstantStep(1e-3), 1.0)
        assert both.step_count == alone.step_count == 1000
        for name in BOND_FIELDS:
            assert both.column(name, bond).tobytes() == alone.column(name).tobytes(), (kind, name)
    assert both.column("v_w_B").tobytes() == alone.column("v_w").tobytes()


class _CountedStep(ConstantStep):
    def __init__(self, dt):
        super().__init__(dt)
        self.calls = 0

    def next_step(self, t_next, dt_used, bond_steps, outputs):
        self.calls += 1
        return super().next_step(t_next, dt_used, bond_steps, outputs)


def _two_bond_run():
    slots, (bond_a,) = build_reticulation("A", LINEAR_PARAMS)
    slots += [_ChassisB(LINEAR_PARAMS), _WheelB(LINEAR_PARAMS)]
    return slots, (bond_a, PowerBond(PowerPort(2, 0, 0), PowerPort(3, 0, 0), sigma=1))


@pytest.mark.parametrize("build, stop, steps", [
    (lambda: build_reticulation("B", LINEAR_PARAMS), None, 100),
    (_two_bond_run, None, 100),
    (lambda: build_reticulation("A", LINEAR_PARAMS), lambda record: record.step_count == 7, 7),
], ids=["one-bond", "two-bond", "stopped"])
def test_each_step_makes_one_exchange_one_policy_call_and_one_ledger_call_per_bond(
    build, stop, steps, monkeypatch
):
    # the per-layer trace divides by these counts
    booked, exchanges = [], []
    real_record, real_exchange = BondLedger.record, master.apply_connections
    monkeypatch.setattr(
        BondLedger, "record", lambda self, *a: booked.append(self) or real_record(self, *a)
    )
    monkeypatch.setattr(
        master, "apply_connections", lambda *a: exchanges.append(a) or real_exchange(*a)
    )
    slots, bonds = build()
    policy = _CountedStep(1e-3)
    record = run_cosimulation(slots, bonds, policy, 0.1, stop=stop)
    assert record.step_count == steps and record.complete is (stop is None)
    assert len(booked) == len(bonds) * steps and len(set(booked)) == len(bonds)
    assert policy.calls == len(exchanges) == steps


def test_finite_values_whose_sum_overflows_pass():
    huge = (1.5e308, 1.5e308)
    record = run_cosimulation([_Probed(huge)], (), ConstantStep(1e-3), 0.004)
    assert record.complete
    assert record.step_count == 4
    assert tuple(record.last_probes()) == huge


class _NamesOnly(_Probed):
    """Declares probe names but keeps the default, empty ``probes``."""

    probes = SimulatorSlot.probes


def test_declared_probes_need_a_probes_method():
    slot = _NamesOnly()
    with pytest.raises(SimulatorFailure, match="slot 0 returned 0 probe values") as info:
        run_cosimulation([slot], (), ConstantStep(1e-3), 0.01)
    assert slot.steps == 1
    assert info.value.record.step_count == 0
    assert info.value.record.complete is False


class _ProbesDt(_Probed):
    probe_names = ("dt",)


def test_probe_names_that_clash_are_rejected_before_the_first_step():
    slots = [MonolithicQuarterCar(LINEAR_PARAMS), MonolithicQuarterCar(LINEAR_PARAMS)]
    with pytest.raises(ValueError, match="slot 1 probe 'z_c' is also a column of slot 0"):
        run_cosimulation(slots, (), ConstantStep(1e-3), 0.01)
    assert [slot.step_calls for slot in slots] == [0, 0]
    slot = _ProbesDt()
    with pytest.raises(ValueError, match="slot 0 probe 'dt' is also a column of the record"):
        run_cosimulation([slot], (), ConstantStep(1e-3), 0.01)
    assert slot.steps == 0


def test_run_record_keeps_at_most_160_bytes_per_step():
    # each step is one row of 14 doubles (112 bytes); one object per step
    # would cost several hundred bytes more
    cfg = ExperimentConfig(controller="constant", dt0=1e-4, t_end=1.0)
    run_experiment(ExperimentConfig(t_end=1e-2))  # first-use caches are not the record's
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        record = run_experiment(cfg)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert record.step_count >= 10_000
    assert retained / record.step_count <= 160


class _MulText(_AddsOnly):
    """Adds to a float, but multiplies into text."""

    def __mul__(self, other):
        return "x"

    def __repr__(self):
        return "_MulText()"


class _FloatOnly:
    def __float__(self):
        return 1.0

    def __repr__(self):
        return "_FloatOnly()"


class _OneOutput(SimulatorSlot):
    """A slot with one output and no inputs, to run without bonds."""

    n_outputs = 1

    def __init__(self, outputs):
        self.outputs = outputs

    def set_inputs(self, u):
        pass

    def do_step(self, t, dt):
        pass

    def get_outputs(self):
        return self.outputs


class _RaddProbe(MonolithicQuarterCar):
    def probes(self):
        return (_AddsOnly(), *super().probes()[1:])


def test_values_the_check_once_let_through_fail_naming_the_slot():
    # a probe without __float__, which the record could not pack
    with pytest.raises(SimulatorFailure) as info:
        run_cosimulation([_RaddProbe(LINEAR_PARAMS)], (), ConstantStep(1e-3), 0.01)
    assert str(info.value) == (
        "non-finite simulator output at t=0.001: slot 0 probe 'z_c' is _AddsOnly(), not a number"
    )
    assert info.value.record.step_count == 0
    assert info.value.record.complete is False
    # a set is not a sequence, whether a bond reads it or not
    with pytest.raises(SimulatorFailure) as info:
        run_cosimulation([_OneOutput({0.5})], (), ConstantStep(1e-3), 0.01)
    assert str(info.value) == (
        "non-finite simulator output at t=0.0: slot 0 outputs are {0.5}, not a sequence of numbers"
    )
    assert info.value.record.step_count == 0
    assert info.value.record.complete is False
    # a coupling output that adds to a float but multiplies into text, from the third call
    message, _ = _fail_with_wheel_outputs(lambda v_w: (_MulText(),), 2)
    assert message == (
        "non-finite simulator output at t=0.002: slot 1 output 0 is _MulText(), not a number"
    )


def test_negative_zero_keeps_its_sign_in_the_record_and_the_next_input():
    # a conversion by 0.0 + v would turn -0.0 into 0.0, and the CSV field "-0.0" into "0.0"
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    chassis, wheel = slots
    real_outputs, real_probes, real_set_inputs = wheel.get_outputs, wheel.probes, chassis.set_inputs
    wheel.get_outputs = lambda: (-0.0,) if wheel.step_calls == 2 else real_outputs()
    wheel.probes = lambda: (-0.0, wheel.v_w) if wheel.step_calls == 2 else real_probes()
    received = []
    chassis.set_inputs = lambda u: received.append(u[0]) or real_set_inputs(u)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.005)
    assert math.copysign(1.0, record.column("z_w")[1]) == -1.0
    assert _csv_bytes(record).splitlines()[2].split(",")[-2] == "-0.0"
    # the chassis's input for step 3 is sigma * y_flow, from the wheel's step 2 outputs
    (bond,) = bonds
    assert (bond.effort.owner, bond.flow.owner) == (0, 1)
    assert received[2].hex() == (bond.sigma * -0.0).hex() == "-0x0.0p+0"



@pytest.mark.parametrize("reticulation", ["A", "B"])
def test_slots_returning_lists_run_as_their_tuples_do(reticulation, monkeypatch):
    # lists take the check's value-by-value path, over a whole adaptive run
    def run(slots, bonds):
        return run_cosimulation(slots, bonds, PIController(ResidualEnergyIndicator()), 1.0)

    tuples = run(*build_reticulation(reticulation, LINEAR_PARAMS))
    slots, bonds = build_reticulation(reticulation, LINEAR_PARAMS)
    received = []
    for slot in slots:
        outputs, probes, set_inputs = slot.get_outputs, slot.probes, slot.set_inputs
        slot.get_outputs = lambda outputs=outputs: list(outputs())
        slot.probes = lambda probes=probes: list(probes())
        slot.set_inputs = lambda u, set_inputs=set_inputs: received.extend(u) or set_inputs(u)
    converted = []
    number = master._number
    monkeypatch.setattr(master, "_number", lambda v: converted.append(v) or number(v))
    lists = run(slots, bonds)
    assert lists.data.tobytes() == tuples.data.tobytes()
    assert _csv_bytes(lists) == _csv_bytes(tuples)
    assert len(converted) == lists.step_count * 6 + 2  # two outputs, four probes per step
    assert len(received) == 2 * lists.step_count and {type(u) for u in received} == {float}


# What a slot returns in place of a vector of width n, or of one value v (n = 1).
def _empty(v, n):
    return ()


def _set(v, n):
    return set(range(n))


def _adds_only(v, n):
    return _AddsOnly()


def _mul_text(v, n):
    return _MulText()


_NOT_NUMBERS = (
    lambda v, n: None,
    _empty,
    _set,
    lambda v, n: dict.fromkeys(range(n), v),
    lambda v, n: {"v": v},
    lambda v, n: Decimal(v),
    lambda v, n: "1.5",  # float() would read it; 3 long, so no vector's width
    lambda v, n: b"1.5",
    lambda v, n: complex(v),
    lambda v, n: math.nan,
    lambda v, n: math.inf,
    lambda v, n: -math.inf,
    lambda v, n: 10**400,
    lambda v, n: (v for _ in range(n)),
    _adds_only,
    _mul_text,
    lambda v, n: _FloatOnly(),
)
_NUMBERS = (
    lambda v, n: Fraction(v),
    lambda v, n: v != 0.0,
    lambda v, n: round(v),
    lambda v, n: -0.0,
)


def _boundary_run(kind):
    if kind == "monolithic":
        return [MonolithicQuarterCar(LINEAR_PARAMS)], ()
    return build_reticulation(kind, LINEAR_PARAMS)


@cache
def _undisturbed(kind):
    return run_cosimulation(*_boundary_run(kind), ConstantStep(1e-3), 0.006)


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(("A", "B", "monolithic")),
    slot=st.integers(0, 1),
    signal=st.sampled_from(("outputs", "output", "probes", "probe")),
    index=st.integers(0, 3),
    make=st.sampled_from(_NOT_NUMBERS + _NUMBERS),
    k=st.integers(0, 4),
)
@example(kind="monolithic", slot=0, signal="probe", index=0, make=_adds_only, k=1)
@example(kind="monolithic", slot=0, signal="probes", index=0, make=_set, k=1)
@example(kind="B", slot=1, signal="output", index=0, make=_mul_text, k=2)
def test_a_value_either_runs_as_a_float_or_fails_naming_its_slot(kind, slot, signal, index, make, k):
    # once the slot has taken k steps, one of its signals returns make's value instead
    slots, bonds = _boundary_run(kind)
    slot %= len(slots)
    target = slots[slot]
    method = "get_outputs" if signal.startswith("output") else "probes"
    real = getattr(target, method)
    width = len(real())
    whole = signal.endswith("s")
    assume(whole or width > 0)
    index %= max(width, 1)

    def read():
        vector = real()
        if target.step_calls != k:
            return vector
        if whole:
            return make(vector[0] if vector else 0.0, width)
        return (*vector[:index], make(vector[index], 1), *vector[index + 1 :])

    setattr(target, method, read)
    received = []
    for each in slots:
        each.set_inputs = lambda u, real_set=each.set_inputs: received.extend(u) or real_set(u)
    valid = make in _NUMBERS if not whole else make is _empty and width == 0
    read_at_k = method == "get_outputs" or k > 0  # probes are first read after a step
    undisturbed = _undisturbed(kind)
    try:
        record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.006)
    except SimulatorFailure as failure:
        assert not valid and read_at_k, str(failure)
        t = undisturbed.column("t")[k - 1] if k else 0.0
        assert f"at t={t}" in str(failure) and f"slot {slot} " in str(failure)
        assert failure.record.complete is False
        rows = failure.record.data.tobytes()
        assert rows == undisturbed.data[: max(k - 1, 0) * undisturbed.width].tobytes()
    else:
        assert valid or not read_at_k
        assert record.complete and record.step_count == undisturbed.step_count
        assert all(map(math.isfinite, record.data))
        assert {type(u) for u in received} <= {float}
