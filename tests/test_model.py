"""Wiring validation and connection mapping."""

import re

import pytest
from hypothesis import given, strategies as st

from eccosim.control import ConstantStep
from eccosim.master import micro_step_plan, run_cosimulation
from eccosim.model import (
    DanglingPort,
    DuplicateConnection,
    NonAntisymmetricBond,
    PowerBond,
    PowerPort,
    apply_connections,
    validate_graph,
)
from eccosim.quartercar import LINEAR_PARAMS, ChassisExact, WheelAssembly, build_reticulation


def port(owner, i=0, o=0):
    return PowerPort(owner, i, o)


def two_port_bond(sigma):
    return PowerBond(effort=port(0), flow=port(1), sigma=sigma)


def dummy_slots(n=2):
    return [ChassisExact() for _ in range(n)]


class OnePortSlot(WheelAssembly):
    pass


def test_effort_first_wiring_is_valid_with_negative_sign():
    # u_effort = -y_flow, u_flow = +y_effort
    bond = two_port_bond(sigma=-1)
    slots = [OnePortSlot(), OnePortSlot()]
    wiring = validate_graph((bond,), slots)
    assert wiring.routes == ((0, 0, 0, 1, 0, 0, -1),)
    assert bond.sigma == -1
    assert bond.sigma**2 == 1


@pytest.mark.parametrize("kind", ["A", "B"])
def test_shipped_reticulations_validate(kind):
    slots, bonds = build_reticulation(kind, LINEAR_PARAMS)
    wiring = validate_graph(bonds, slots)
    assert len(wiring.routes) == 1
    assert wiring.routes[0][-1] ** 2 == 1


@pytest.mark.parametrize("kind, force", [("A", 1), ("B", 0)])
def test_shipped_reticulations_bond_the_force_slot_first(kind, force):
    # the effort port is the slot that outputs the suspension force, so sigma is +1 in both
    _, bonds = build_reticulation(kind, LINEAR_PARAMS)
    assert bonds == (PowerBond(PowerPort(force, 0, 0), PowerPort(1 - force, 0, 0), 1),)


def test_zero_coefficient_rejected():
    # only a unit sign keeps the transmitted power a plain effort-flow product
    for sigma in (0, 2.0, 0.5, -2):
        bond = two_port_bond(sigma=sigma)
        with pytest.raises(NonAntisymmetricBond, match=f"^bond 0 sign sigma={sigma} must be"):
            validate_graph((bond,), [OnePortSlot(), OnePortSlot()])


def test_dangling_owner_rejected():
    bond = two_port_bond(sigma=-1)
    with pytest.raises(DanglingPort):
        validate_graph((bond,), [OnePortSlot()])


@pytest.mark.parametrize("value", [0.5, 0.0, "0"])
@pytest.mark.parametrize("field", PowerPort._fields)
def test_port_field_that_is_not_an_integer_rejected(field, value):
    # a float or str index would reach the step loop, or fail a range check, as a bare TypeError
    slots, (bond,) = build_reticulation("A", LINEAR_PARAMS)
    effort = bond.effort._replace(**{field: value})
    bad = bond._replace(effort=effort)
    message = f"{field} {value!r} of {effort} is not an integer"
    with pytest.raises(DanglingPort) as info:
        validate_graph((bad,), slots)
    assert str(info.value) == message
    with pytest.raises(DanglingPort, match=re.escape(message)):
        run_cosimulation(slots, (bad,), ConstantStep(1e-3), 0.01)
    assert [slot.step_calls for slot in slots] == [0, 0]


@pytest.mark.parametrize(
    "name, value",
    [
        (name, value)
        for name in ("n_inputs", "n_outputs", "micro_step_ratio")
        for value in (1.0, 2.5, "1")
    ]
    + [("n_inputs", -1), ("n_outputs", -1), ("micro_step_ratio", 0), ("micro_step_ratio", -1000)],
)
def test_slot_count_that_is_not_a_valid_integer_rejected(name, value):
    # a float or str count would fail as a bare TypeError, and a negative ratio cancels the plan
    slots, bonds = build_reticulation("B", LINEAR_PARAMS, 1000, 1000)
    setattr(slots[1], name, value)
    least = "an integer of at least 1" if name == "micro_step_ratio" else "a non-negative integer"
    message = f"^slot 1 {name} {re.escape(repr(value))} is not {least}$"
    with pytest.raises(ValueError, match=message):
        run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.01)
    assert [slot.step_calls for slot in slots] == [0, 0]
    if name == "micro_step_ratio":  # the one reader of the ratio for runs, sweeps and scans
        with pytest.raises(ValueError, match=message):
            micro_step_plan(slots, 1e-5, 100.0)


def test_dangling_signal_index_rejected():
    bond = PowerBond(effort=port(0, i=3), flow=port(1), sigma=-1)
    with pytest.raises(DanglingPort):
        validate_graph((bond,), [OnePortSlot(), OnePortSlot()])


def test_duplicate_connection_rejected():
    b1 = two_port_bond(sigma=-1)
    b2 = two_port_bond(sigma=-1)
    with pytest.raises(DuplicateConnection):
        validate_graph((b1, b2), [OnePortSlot(), OnePortSlot()])


def test_empty_graph_two_slots_is_valid():
    wiring = validate_graph((), dummy_slots(2))
    assert wiring == ((1, 1), ())
    assert apply_connections(wiring, []) == [[0.0], [0.0]]


def test_apply_connections_example():
    bond = two_port_bond(sigma=-1)
    slots = [OnePortSlot(), OnePortSlot()]
    wiring = validate_graph((bond,), slots)
    # the coupling outputs, effort then flow: y_effort = 2, y_flow = 50
    u = apply_connections(wiring, [2.0, 50.0])
    assert u == [[-50.0], [2.0]]
    assert apply_connections(wiring, [0.0, 0.0]) == [[0.0], [0.0]]


def test_reticulation_b_initial_outputs_map_to_zero_inputs():
    slots, bonds = build_reticulation("B", LINEAR_PARAMS)
    wiring = validate_graph(bonds, slots)
    ((o_e, _, k_e, o_f, _, k_f, _),) = wiring.routes
    y0 = [slots[o_e].get_outputs()[k_e], slots[o_f].get_outputs()[k_f]]
    assert y0 == [0.0, 0.0]
    assert apply_connections(wiring, y0) == [[0.0], [0.0]]


finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(y1=finite, y2=finite, y1b=finite, y2b=finite, a=finite, b=finite)
def test_apply_connections_is_linear(y1, y2, y1b, y2b, a, b):
    bond = two_port_bond(sigma=-1)
    slots = [OnePortSlot(), OnePortSlot()]
    wiring = validate_graph((bond,), slots)
    combined = apply_connections(wiring, [a * y1 + b * y1b, a * y2 + b * y2b])
    ua = apply_connections(wiring, [y1, y2])
    ub = apply_connections(wiring, [y1b, y2b])
    # coefficients are +/-1, so both sides round identically
    assert combined[0][0] == a * ua[0][0] + b * ub[0][0]
    assert combined[1][0] == a * ua[1][0] + b * ub[1][0]


def test_slot_outputs_are_deterministic():
    def stepped():
        slot = WheelAssembly(LINEAR_PARAMS, micro_steps=7)
        slot.set_inputs([0.25])
        slot.do_step(0.0, 1e-3)
        slot.set_inputs([-0.125])
        slot.do_step(1e-3, 2e-3)
        return slot.get_outputs()

    assert stepped() == stepped()
