"""Power and residual-energy bookkeeping."""

import struct

import pytest
from hypothesis import given, strategies as st

from eccosim.energy import BOND_FIELDS, BondLedger, CompensatedSum


def one_step(u1=0.0, u2=0.0, y1=0.0, y2=0.0, dt=1e-3, c1=1):
    """The first step of a fresh ledger on a bond of sign ``c1``, by field name."""
    values = BondLedger(c1).record(dt, u1, u2, y1, y2)
    assert len(values) == len(BOND_FIELDS)
    return dict(zip(BOND_FIELDS, values))


def test_port_power_examples():
    for c1 in (1, -1):
        assert one_step(u1=-50.0, y1=2.0, c1=c1)["P_port1"] == -100.0
        assert one_step(u1=0.0, y1=123.4, c1=c1)["P_port1"] == 0.0
        assert one_step(u1=2.0, y1=50.0, c1=c1)["P_port1"] == 100.0
        assert one_step(u2=-50.0, y2=2.0, c1=c1)["P_port2"] == -100.0
        assert one_step(u2=2.0, y2=50.0, c1=c1)["P_port2"] == 100.0


def test_transmitted_power_examples():
    assert one_step(y1=2.0, y2=50.0, c1=-1)["P_12"] == -100.0
    assert one_step(y1=0.0, y2=50.0, c1=-1)["P_12"] == 0.0
    assert one_step(y1=2.0, y2=50.0, c1=1)["P_12"] == 100.0


def test_residual_power_examples():
    for c1 in (1, -1):
        assert one_step(-50.0, 2.0, 2.0, 50.0, c1=c1)["dP_res"] == 0.0
        assert one_step(0.0, 0.0, 7.0, -3.0, c1=c1)["dP_res"] == 0.0
        assert one_step(-50.0, 2.0, 2.2, 60.0, c1=c1)["dP_res"] == pytest.approx(-10.0, rel=1e-12)


def test_residual_energy_examples():
    # rectangle rule: dE_res = dP_res * dt, here with dP_res = 3 and 0
    step = one_step(u1=-3.0, y1=1.0, dt=1e-3)
    assert step["dP_res"] == 3.0
    assert step["dE_res"] == pytest.approx(3.0e-3, rel=1e-15)
    assert one_step(dt=1e-3)["dE_res"] == 0.0


def summed_residual_power(bonds):
    """dP_res of one step summed over one ledger per ``(u1, u2, y1, y2)`` bond."""
    total = 0.0
    for u1, u2, y1, y2 in bonds:
        total += one_step(u1, u2, y1, y2)["dP_res"]
    return total


def test_total_residual_power_examples():
    # two balanced bonds
    assert summed_residual_power([(-1.0, 2.0, 2.0, 1.0), (-3.0, 4.0, 4.0, 3.0)]) == 0.0
    # bonds with residuals -10 and +4
    bonds = [(-50.0, 2.0, 2.2, 60.0), (1.0, 0.0, -4.0, 5.0)]
    assert summed_residual_power(bonds) == pytest.approx(-6.0, rel=1e-12)
    # single bond reduces to the per-bond value exactly
    assert summed_residual_power([(-50.0, 2.0, 2.2, 60.0)]) == -(-50.0 * 2.2 + 2.0 * 60.0)


signal = st.floats(min_value=-1e5, max_value=1e5, allow_nan=False)


@given(st.lists(st.tuples(signal, signal, signal, signal), min_size=1, max_size=5))
def test_total_residual_power_additivity(bonds):
    # -u.y of the inputs and outputs stacked bond by bond, accumulated bond-wise
    u = [x for u1, u2, _, _ in bonds for x in (u1, u2)]
    y = [x for _, _, y1, y2 in bonds for x in (y1, y2)]
    stacked = 0.0
    for k in range(0, len(u), 2):
        stacked += -(u[k] * y[k] + u[k + 1] * y[k + 1])
    assert summed_residual_power(bonds) == stacked


@given(u=signal, y=signal, lam=st.sampled_from([1e-3, 1e3, 2.0, 0.5]))
def test_port_power_scale_invariance(u, y, lam):
    # one effort scaled by lam, the conjugate flow by 1/lam
    base = one_step(u1=u, y1=y)["P_port1"]
    scaled = one_step(u1=u * lam, y1=y / lam)["P_port1"]
    assert scaled == pytest.approx(base, rel=1e-12, abs=1e-300)


def test_ledger_accumulation_and_consistency():
    ledger = BondLedger(1)
    accum = CompensatedSum()
    before = 0.0
    dt = 1e-3
    for k in range(1000):
        step = dict(zip(BOND_FIELDS, ledger.record(dt, 0.1 * k, -2.0, -2.0, 0.1 * k + 0.05)))
        assert step["dE_res"] == step["dP_res"] * dt
        assert step["E_step"] == step["P_12"] * dt
        increment = step["E_res_accum"] - before
        assert increment == pytest.approx(step["dE_res"], rel=1e-12, abs=1e-15)
        before = step["E_res_accum"]
        assert step["E_res_accum"] == accum.add(step["dE_res"])


@given(
    u1=st.floats(-1e6, 1e6),
    u2=st.floats(-1e6, 1e6),
    y1=st.floats(-1e6, 1e6),
    y2=st.floats(-1e6, 1e6),
    dt=st.floats(1e-9, 1.0),
    c1=st.sampled_from([1, -1]),
)
def test_ledger_entry_matches_power_helpers(u1, u2, y1, y2, dt, c1):
    # the first step of a ledger is these formulas, to the bit
    p1, p2, p12 = u1 * y1, u2 * y2, c1 * (y1 * y2)
    dp = -(u1 * y1 + u2 * y2)
    expected = (p1, p2, p12, dp, dp * dt, p12 * dt, CompensatedSum().add(dp * dt))
    values = BondLedger(c1).record(dt, u1, u2, y1, y2)
    assert struct.pack("7d", *values) == struct.pack("7d", *expected)


def test_ledger_sign_semantics():
    # positive residual power => accumulated residual energy increases
    ledger = BondLedger(1)
    e = dict(zip(BOND_FIELDS, ledger.record(1e-3, u1=1.0, u2=2.0, y1=-3.0, y2=0.5)))
    assert e["dP_res"] == 2.0 > 0.0
    assert e["E_res_accum"] > 0.0
    e2 = dict(zip(BOND_FIELDS, ledger.record(1e-3, u1=1.0, u2=2.0, y1=-3.0, y2=0.5)))
    assert e2["E_res_accum"] > e["E_res_accum"]


def test_average_local_error_matches_reference_port_errors():
    # oracle: per-port powers from the monolithic reference solution; they
    # balance exactly, so the mean local power error is -residual/2
    from eccosim.control import ConstantStep
    from eccosim.master import run_cosimulation
    from eccosim.quartercar import LINEAR_PARAMS, build_reticulation
    from eccosim.reference import reference_solve

    slots, bonds = build_reticulation("A", LINEAR_PARAMS)
    record = run_cosimulation(slots, bonds, ConstantStep(1e-3), 0.2)
    ref = reference_solve(LINEAR_PARAMS, 1.0, reticulation="A")
    columns = zip(*(record.column(name) for name in ("P_port1", "P_port2", "dP_res")))
    for p0, (p_port1, p_port2, dp_res) in zip(ref.bond_powers(record.column("t")), columns):
        p0_1, p0_2 = p0, -p0
        mean_local = 0.5 * ((p_port1 - p0_1) + (p_port2 - p0_2))
        tol = 1e-12 * max(1.0, abs(p0_1))
        assert -0.5 * dp_res == pytest.approx(mean_local, abs=tol)


def test_compensated_sum_beats_naive_drift():
    acc = CompensatedSum()
    naive = 0.0
    for _ in range(10**5):
        total = acc.add(0.1)
        naive += 0.1
    assert total == pytest.approx(1e4, abs=1e-9)
    assert abs(total - 1e4) <= abs(naive - 1e4)
