"""Power and residual-energy bookkeeping."""

import pytest
from hypothesis import given, strategies as st

from eccosim.energy import (
    BondLedger,
    CompensatedSum,
    average_local_power_error,
    port_power,
    residual_energy_step,
    residual_power,
    total_residual_power,
    transmitted_power,
)
from eccosim.model import PortRole, PowerBond, PowerPort


def bond_with_sign(c1, c2):
    return PowerBond(
        port1=PowerPort(0, 0, 0, PortRole.EFFORT, PortRole.FLOW),
        port2=PowerPort(1, 0, 0, PortRole.FLOW, PortRole.EFFORT),
        c1=c1,
        c2=c2,
    )


def test_port_power_examples():
    assert port_power(-50.0, 2.0) == -100.0
    assert port_power(0.0, 123.4) == 0.0
    assert port_power(2.0, 50.0) == 100.0


def test_transmitted_power_examples():
    bond = bond_with_sign(-1, 1)
    assert bond.sigma == -1
    assert transmitted_power(bond, 2.0, 50.0) == -100.0
    assert transmitted_power(bond, 0.0, 50.0) == 0.0
    assert transmitted_power(bond_with_sign(1, -1), 2.0, 50.0) == 100.0


def test_residual_power_examples():
    assert residual_power((-50.0, 2.0), (2.0, 50.0)) == 0.0
    assert residual_power((0.0, 0.0), (7.0, -3.0)) == 0.0
    assert residual_power((-50.0, 2.0), (2.2, 60.0)) == pytest.approx(-10.0, rel=1e-12)


def test_residual_energy_examples():
    assert residual_energy_step(3.0, 1e-3) == pytest.approx(3.0e-3, rel=1e-15)
    assert residual_energy_step(0.0, 1e-3) == 0.0


def test_average_local_power_error_examples():
    assert average_local_power_error(3.0) == -1.5
    assert average_local_power_error(0.0) == 0.0


def test_total_residual_power_examples():
    # two balanced bonds
    assert total_residual_power((-1.0, 2.0, -3.0, 4.0), (2.0, 1.0, 4.0, 3.0)) == 0.0
    # bonds with residuals -10 and +4
    u = (-50.0, 2.0, 1.0, 0.0)
    y = (2.2, 60.0, -4.0, 5.0)
    assert total_residual_power(u, y) == pytest.approx(-6.0, rel=1e-12)
    # single bond reduces to the per-bond value exactly
    assert total_residual_power((-50.0, 2.0), (2.2, 60.0)) == residual_power(
        (-50.0, 2.0), (2.2, 60.0)
    )


def test_total_residual_power_rejects_mismatched_lengths():
    with pytest.raises(ValueError):
        total_residual_power((1.0, 2.0), (1.0,))
    with pytest.raises(ValueError):
        total_residual_power((1.0, 2.0, 3.0), (1.0, 2.0, 3.0))


signal = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False)


@given(st.lists(st.tuples(signal, signal, signal, signal), min_size=1, max_size=5))
def test_total_residual_power_additivity(bonds):
    u = [x for u1, u2, _, _ in bonds for x in (u1, u2)]
    y = [x for _, _, y1, y2 in bonds for x in (y1, y2)]
    per_bond = 0.0
    for u1, u2, y1, y2 in bonds:
        per_bond += residual_power((u1, u2), (y1, y2))
    assert total_residual_power(u, y) == per_bond


@given(u=signal, y=signal, lam=st.sampled_from([1e-3, 1e3, 2.0, 0.5]))
def test_port_power_scale_invariance(u, y, lam):
    # one effort scaled by lam, the conjugate flow by 1/lam
    base = port_power(u, y)
    scaled = port_power(u * lam, y / lam)
    assert scaled == pytest.approx(base, rel=1e-12, abs=1e-300)


def test_ledger_accumulation_and_consistency():
    ledger = BondLedger(bond_with_sign(1, -1))
    t = 0.0
    for k in range(1000):
        dt = 1e-3
        t += dt
        before = ledger.total_residual
        entry = ledger.record(t, dt, u1=0.1 * k, u2=-2.0, y1=-2.0, y2=0.1 * k + 0.05)
        assert entry.dE_res == entry.dP_res * entry.dt
        assert entry.E_step == entry.P_12 * entry.dt
        increment = entry.E_res_accum - before
        assert increment == pytest.approx(entry.dE_res, rel=1e-12, abs=1e-15)
    assert ledger.total_residual == entry.E_res_accum


@given(
    u1=st.floats(-1e6, 1e6),
    u2=st.floats(-1e6, 1e6),
    y1=st.floats(-1e6, 1e6),
    y2=st.floats(-1e6, 1e6),
    dt=st.floats(1e-9, 1.0),
    c1=st.sampled_from([1, -1]),
)
def test_ledger_entry_matches_power_helpers(u1, u2, y1, y2, dt, c1):
    # the ledger inlines the helpers' arithmetic; the results must be identical
    bond = bond_with_sign(c1, -c1)
    e = BondLedger(bond).record(dt, dt, u1, u2, y1, y2)
    assert (e.P_port1, e.P_port2) == (port_power(u1, y1), port_power(u2, y2))
    assert e.P_12 == transmitted_power(bond, y1, y2)
    assert e.dP_res == residual_power((u1, u2), (y1, y2))
    assert e.dE_res == residual_energy_step(e.dP_res, dt)


def test_ledger_sign_semantics():
    # positive residual power => accumulated residual energy increases
    ledger = BondLedger(bond_with_sign(1, -1))
    e = ledger.record(1e-3, 1e-3, u1=1.0, u2=2.0, y1=-3.0, y2=0.5)
    assert e.dP_res == 2.0 > 0.0
    assert e.E_res_accum > 0.0
    e2 = ledger.record(2e-3, 1e-3, u1=1.0, u2=2.0, y1=-3.0, y2=0.5)
    assert e2.E_res_accum > e.E_res_accum


def test_average_local_error_matches_reference_port_errors():
    # oracle: per-port powers from the monolithic reference solution; they
    # balance exactly, so the mean local power error is -residual/2
    from eccosim.control import ConstantStep
    from eccosim.master import run_cosimulation
    from eccosim.quartercar import LINEAR_PARAMS, build_reticulation
    from eccosim.reference import reference_solve

    slots, graph = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, graph, ConstantStep(1e-3), 0.2)
    ref = reference_solve(LINEAR_PARAMS, 1.0, reticulation="A")
    columns = zip(*(record.column(name) for name in ("t", "P_port1", "P_port2", "dP_res")))
    for t, p_port1, p_port2, dp_res in columns:
        p0_1, p0_2 = ref.port_powers_at(t)
        mean_local = 0.5 * ((p_port1 - p0_1) + (p_port2 - p0_2))
        tol = 1e-12 * max(1.0, abs(p0_1))
        assert average_local_power_error(dp_res) == pytest.approx(
            mean_local, abs=tol
        )


def test_compensated_sum_beats_naive_drift():
    acc = CompensatedSum()
    naive = 0.0
    for _ in range(10**5):
        acc.add(0.1)
        naive += 0.1
    assert acc.value == pytest.approx(1e4, abs=1e-9)
    assert abs(acc.value - 1e4) <= abs(naive - 1e4)
