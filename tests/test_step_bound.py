"""The step bound: shipped runs fit it; a run that cannot is refused before its first step."""

import pytest

from eccosim.bench import ExperimentConfig, build_policy
from eccosim.cli import (
    _SCAN_RANGES,
    EXPECTED_TABLES,
    _config_from_args,
    _log_spaced,
    build_parser,
    main,
)
from eccosim.master import run_cosimulation
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
