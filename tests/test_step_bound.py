"""The step bound and the micro-step budget: shipped runs, sweeps and scans fit them; a run,
sweep or scan that cannot is refused before its first step."""

from math import nextafter

import pytest

from eccosim import bench
from eccosim.bench import RUN_CHARGE, ExperimentConfig, build_policy, stability_scan
from eccosim.cli import (
    _SCAN_RANGES,
    EXPECTED_TABLES,
    _config_from_args,
    _log_spaced,
    build_parser,
    main,
)
from eccosim.master import MICRO_STEP_BUDGET, micro_step_plan, run_cosimulation
from eccosim.quartercar import RETICULATIONS, build_reticulation, preset_params


def _shipped_configs():
    """Each table row, default ``sweep`` point, ``scan`` lower end and benchmark export config."""
    for table_id, table in EXPECTED_TABLES.items():
        for row in table.rows:
            yield f"{table_id}:{row.label}", row.config
    sweep = build_parser().parse_args(["sweep"])
    lo, hi = map(float, sweep.dt.split(".."))
    for dt in _log_spaced(lo, hi, sweep.points):
        yield f"sweep:{dt}", ExperimentConfig(controller="constant", dt0=dt)
    for ret in RETICULATIONS:
        t_scan = build_parser().parse_args(["scan", "--reticulation", ret]).t_scan
        dt_lo = _SCAN_RANGES[ret][0]
        cfg = ExperimentConfig(reticulation=ret, controller="constant", dt0=dt_lo, t_end=t_scan)
        yield f"scan:{ret}", cfg
    for preset, ret in (("linear", "A"), ("nonlinear", "B")):
        cfg = ExperimentConfig(preset=preset, reticulation=ret, controller="constant", dt0=1e-4)
        yield f"export:{preset}-{ret}", cfg


_SHIPPED = dict(_shipped_configs())


@pytest.mark.parametrize("key", list(_SHIPPED))
def test_shipped_runs_fit_the_step_bound(key):
    cfg = _SHIPPED[key]
    assert cfg.resolved_t_end / build_policy(cfg).min_step <= 4e4


#: Runs that once took the full MAX_MACRO_STEPS (11-15 s) before they failed.
UNBOUNDED = {
    "constant": ["--controller", "constant", "--dt0", "1e-7", "--t-end", "1"],
    "ecco": ["--t-end", "0.05", "--controller", "ecco", "--r", "1e-30", "--dt-min", "1e-20",
             "--dt0", "1e-4"],
}


@pytest.mark.parametrize("name", list(UNBOUNDED))
def test_run_that_cannot_finish_refused_before_any_step(name):
    cfg = _config_from_args(build_parser().parse_args(["run", *UNBOUNDED[name]]))
    slots, bonds = build_reticulation(cfg.reticulation, preset_params(cfg.preset))
    with pytest.raises(ValueError, match="MAX_MACRO_STEPS = 1000000 steps of 1e-(07|20), "):
        run_cosimulation(slots, bonds, build_policy(cfg), cfg.resolved_t_end)
    assert [slot.step_calls for slot in slots] == [0, 0]


@pytest.mark.parametrize("name", list(UNBOUNDED))
def test_cli_run_that_cannot_finish_exits_one(name, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert main(["run", *UNBOUNDED[name], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"the smallest step of policy '{name}'" in err
    assert "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("key", list(_SHIPPED))
def test_shipped_runs_fit_the_micro_step_budget(key):
    # the largest: T8 / PC-altA on reticulation B, 4 s at dt_min 1e-4 with 10 + 10 micro steps
    cfg = _SHIPPED[key]
    slots, _ = build_reticulation(
        cfg.reticulation, preset_params(cfg.preset), cfg.micro_ratio_s1, cfg.micro_ratio_s2
    )
    plan = micro_step_plan(slots, build_policy(cfg).min_step, cfg.resolved_t_end)
    assert plan <= 8e5 < MICRO_STEP_BUDGET


def test_plan_counts_whole_macro_steps():
    slots, _ = build_reticulation("B", preset_params("linear"))
    assert micro_step_plan(slots, 1e-3, 4.0) == 4000 * 20
    # a step past the horizon is cut onto it: one whole macro step, not a fraction of one
    assert micro_step_plan(slots, 1000.0, 0.01) == micro_step_plan(slots, 0.3, 1.0) / 4 == 20
    assert micro_step_plan(slots, 5e-324, 4.0) == float("inf")


class _Planned(Exception):
    """Raised in place of the budget check, to stop a command before its first run."""


def _plan(monkeypatch, command, *args, **kwargs):
    """The plan and the message a sweep or scan checks, read in place of its check."""
    plans = []

    def check_plan(plan, what):
        plans.append((plan, what))
        raise _Planned

    monkeypatch.setattr(bench, "check_plan", check_plan)
    with pytest.raises(_Planned):
        command(*args, **kwargs)
    return plans[0]


def test_default_sweep_and_scans_fit_the_micro_step_budget(monkeypatch):
    # a run plans ceil(t_end / dt) macro steps of 1 + 10 micro steps on A, 10 + 10 on B,
    # and a sweep or scan charges each of its runs RUN_CHARGE more
    sweep = build_parser().parse_args(["sweep"])
    dts = _log_spaced(*map(float, sweep.dt.split("..")), sweep.points)
    plan, _ = _plan(monkeypatch, bench.step_size_sweep, ExperimentConfig(), dts)
    assert plan == sum(-(-4.0 // dt) * 11 + RUN_CHARGE for dt in dts)
    assert plan == pytest.approx(1.0e6, rel=0.01)
    # the bracket ends, ceil(log2((hi - lo) / 1e-4)) bisections and one of slack, each at lo
    for ret, runs, ratio in (("A", 3 + 9, 11), ("B", 3 + 8, 20)):
        t_scan = build_parser().parse_args(["scan", "--reticulation", ret]).t_scan
        cfg = ExperimentConfig(reticulation=ret, t_end=t_scan)
        lo, hi = _SCAN_RANGES[ret]
        plan, what = _plan(monkeypatch, stability_scan, cfg, lo, hi)
        assert what == f"a scan of up to {runs} runs"
        assert plan == runs * (round(t_scan / lo) * ratio + RUN_CHARGE)
        assert plan <= 4.5e6 < MICRO_STEP_BUDGET


@pytest.mark.parametrize("lo, hi, resolution", [
    (0.04, 0.08, 1e-4),
    (0.04, 0.08, 5e-324),  # the bisection ends at adjacent floats
    (0.005, 0.02, 1e-300),
    (1e-300, 1e300, 5e-324),
    (1.0, 1.0 + 2**-40, 1e-30),
])
def test_scan_plans_at_least_the_runs_it_makes(lo, hi, resolution, monkeypatch):
    planned = []
    monkeypatch.setattr(bench, "check_plan", lambda plan, what: planned.append(what))
    for onset in (nextafter(lo, hi), *(lo + (hi - lo) * f for f in (0.1, 0.3, 0.5, 0.77, 1.0))):
        calls = []
        monkeypatch.setattr(bench, "_diverges", lambda cfg, dt, thr: calls.append(dt) or dt >= onset)
        stability_scan(ExperimentConfig(), lo, hi, resolution=resolution)
        assert len(calls) <= int(planned[-1].split()[-2])


def test_scan_below_float_spacing_fits_the_budget(monkeypatch):
    # the parent of the budget ran this scan to its end; 56 runs of 2,500 steps of 11
    t_scan = build_parser().parse_args(["scan", "--reticulation", "A"]).t_scan
    cfg = ExperimentConfig(reticulation="A", t_end=t_scan)
    plan, what = _plan(monkeypatch, stability_scan, cfg, *_SCAN_RANGES["A"], resolution=5e-324)
    assert what == "a scan of up to 56 runs" and plan <= MICRO_STEP_BUDGET


#: Runs, sweeps and scans that each plan more than MICRO_STEP_BUDGET micro steps.
OVER_BUDGET = {
    "run": ["run", "--reticulation", "B", "--controller", "constant", "--dt0", "1e-4",
            "--micro-s1", "1000", "--micro-s2", "1000", "--t-end", "100"],  # 2e9
    "run-past-horizon": ["run", "--reticulation", "B", "--controller", "constant", "--dt0",
                         "1000", "--micro-s2", "1000000000000", "--t-end", "0.01"],  # 1e12
    "sweep": ["sweep", "--points", "1000"],  # 9.5e7
    "sweep-narrow": ["sweep", "--dt", "1e-3..2e-3", "--points", "100000000000"],
    "sweep-wide": ["sweep", "--dt", "1e-4..1e6", "--points", "100000000000"],
    "scan": ["scan", "--reticulation", "B", "--lo", "1e-4"],  # 11 runs of 2e7
}


def test_run_over_the_micro_step_budget_refused_before_any_step():
    cfg = _config_from_args(build_parser().parse_args(OVER_BUDGET["run"]))
    slots, bonds = build_reticulation(
        cfg.reticulation, preset_params(cfg.preset), cfg.micro_ratio_s1, cfg.micro_ratio_s2
    )
    assert [slot.micro_step_ratio for slot in slots] == [1000, 1000]
    with pytest.raises(ValueError, match=r"plans 2e\+09 micro steps, over MICRO_STEP_BUDGET = "):
        run_cosimulation(slots, bonds, build_policy(cfg), cfg.resolved_t_end)
    assert [slot.step_calls for slot in slots] == [0, 0]


@pytest.mark.parametrize("name", list(OVER_BUDGET))
def test_cli_over_budget_exits_one_before_any_run(name, tmp_path, monkeypatch, capsys):
    runs = []
    monkeypatch.setattr(bench, "run_experiment", lambda *a, **k: runs.append(a))
    out = tmp_path / "x.csv"
    assert main([*OVER_BUDGET[name], "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "over MICRO_STEP_BUDGET = 20000000; " in err
    assert runs == []  # no sweep or scan run; a run is refused before its first step
    assert list(tmp_path.iterdir()) == []


def test_reticulation_a_chassis_declares_one_micro_step():
    # --micro-s1 costs nothing on A: its chassis is solved exactly
    slots, _ = build_reticulation("A", preset_params("linear"), micro_s1=1000)
    assert micro_step_plan(slots, 1e-3, 4.0) == 4000 * 11
