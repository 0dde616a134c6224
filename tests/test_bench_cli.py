"""Configuration parsing, CSV schemas, and CLI exit codes."""

import gc
import hashlib
import inspect
import io
import math
import os
import tempfile
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import example, given, settings, strategies as st

from eccosim.bench import (
    CONTROLLERS,
    SUMMARY_HEADER,
    TRAJECTORY_HEADER,
    ConfigError,
    ExperimentConfig,
    build_policy,
    format_number,
    load_config,
    parse_config_text,
    run_experiment,
    stability_scan,
    summarize_experiment,
    write_summary_csv,
    write_trajectory_csv,
)
from eccosim import bench, cli, master
from eccosim.cli import EXPECTED_TABLES, METRICS, _log_spaced, check_row, main
from eccosim.control import (
    ConstantStep,
    NonFiniteIndicator,
    OutputExtrapolationIndicator,
    PIConfig,
    ResidualEnergyIndicator,
)
from eccosim.master import RunRecord, SimulatorFailure
from eccosim.quartercar import PRESETS, RETICULATIONS, WheelOnly
from eccosim.reference import ErrorSummary

CONFIG_TEXT = """
# benchmark configuration
model.preset = nonlinear
model.reticulation = B        # alternative splitting
model.micro_ratio_s2 = 1
controller.type = ecco
controller.r = 2.4e-5
sim.t_end = 0.5
output.path = out.csv
"""


def test_parse_config_text():
    overrides = parse_config_text(CONFIG_TEXT)
    assert overrides == {
        "preset": "nonlinear",
        "reticulation": "B",
        "micro_ratio_s2": 1,
        "controller": "ecco",
        "r": 2.4e-5,
        "t_end": 0.5,
        "out_path": "out.csv",
    }


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("model.colour = red")


def test_parse_config_rejects_bad_value():
    with pytest.raises(ConfigError):
        parse_config_text("sim.t_end = soon")
    with pytest.raises(ConfigError):
        parse_config_text("just some words")


def test_flag_overrides_win_over_file(tmp_path):
    path = tmp_path / "bench.cfg"
    path.write_text(CONFIG_TEXT)
    cfg = load_config(str(path), {"r": 1e-6, "t_end": None})
    assert cfg.r == 1e-6  # flag wins
    assert cfg.t_end == 0.5  # None overrides are ignored
    assert cfg.preset == "nonlinear"


def test_config_validation_errors():
    with pytest.raises(ConfigError):
        ExperimentConfig(preset="quadratic")
    with pytest.raises(ConfigError):
        ExperimentConfig(reticulation="C")
    with pytest.raises(ConfigError):
        ExperimentConfig(controller="pid")
    with pytest.raises(ConfigError):
        ExperimentConfig(micro_ratio_s1=0)
    with pytest.raises(ConfigError, match="micro step ratios must be at least 1"):
        ExperimentConfig(micro_ratio_s2=0)
    with pytest.raises(ConfigError):
        load_config(None, {"nonexistent": 1})
    for name in ("r", "e0", "tol", "rho", "alpha_s", "dt_min", "dt_max",
                 "theta_min", "theta_max", "t_end", "dt0"):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(**{name: float("nan")})
    with pytest.raises(ConfigError):
        ExperimentConfig(t_end=float("-inf"))
    with pytest.raises(ConfigError, match="is the trajectory path"):
        ExperimentConfig(out_path=os.path.abspath("a.csv"), summary_path="a.csv")


def test_resolved_defaults():
    assert ExperimentConfig(preset="linear").resolved_t_end == 4.0
    assert ExperimentConfig(preset="nonlinear").resolved_t_end == 2.0

    def first_step(**kw):
        return build_policy(ExperimentConfig(**kw)).start([0.0, 0.0])

    assert first_step(controller="constant") == 1e-3
    assert first_step(controller="ecco") == 1e-4
    assert first_step(controller="ecco", dt0=3e-4) == 3e-4
    assert ExperimentConfig(out_path="x.csv").resolved_summary_path == "x.summary.csv"


def test_tolerance_label_per_controller():
    assert ExperimentConfig(controller="constant").tolerance_label == ""
    assert ExperimentConfig(controller="ecco", r=2.8e-6).tolerance_label == "2.8e-06"
    assert ExperimentConfig(controller="predictor_corrector", tol=0.67).tolerance_label == "0.67"


def test_format_number_round_trips():
    for x in (0.1, 1 / 3, 6.4e-05, -187.9, 1e308, 5e-324, 0.0, -2.9e-3):
        assert float(format_number(x)) == x


def test_csv_headers_are_pinned():
    assert (
        TRAJECTORY_HEADER
        == "t,dt,eps,P12,P_port1,P_port2,dP_res,dE_res,E_res_accum,z_c,v_c,z_w,v_w"
    )
    assert (
        SUMMARY_HEADER
        == "preset,reticulation,controller,tolerance,mean_dt,steps,mean_P12,mean_abs_dP,total_residual"
    )


def _run_csv(cfg):
    record = run_experiment(cfg)
    buf = io.StringIO()
    write_trajectory_csv(record, buf)
    return buf.getvalue()


def test_trajectory_csv_round_trips_bit_exact():
    cfg = ExperimentConfig(controller="ecco", r=2.8e-6, t_end=0.05)
    text = _run_csv(cfg)
    lines = text.strip().split("\n")
    assert lines[0] == TRAJECTORY_HEADER
    record = run_experiment(cfg)
    assert len(lines) - 1 == record.step_count
    columns = zip(*(record.column(name) for name in ("t", "dt", "eps", "P_12", "z_c")))
    for line, (t, dt, eps, p12, z_c) in zip(lines[1:], columns):
        fields = line.split(",")
        assert float(fields[0]) == t
        assert float(fields[1]) == dt
        assert float(fields[2]) == eps
        assert float(fields[3]) == p12
        assert float(fields[9]) == z_c


def test_identical_configs_write_identical_bytes():
    cfg = ExperimentConfig(controller="ecco", r=2.8e-6, t_end=0.2)
    assert _run_csv(cfg) == _run_csv(cfg)


def test_trajectory_csv_holds_no_whole_column_copies():
    record = RunRecord(bond_count=1, probe_names=("z_c", "v_c", "z_w", "v_w"))
    rows = 20_000
    record.data.extend(i * 1e-3 for i in range(rows * record.width))
    with open(os.devnull, "w", encoding="utf-8", newline="") as fh:
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_trajectory_csv(record, fh)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
    # a copy of one whole column alone is 8 bytes per row
    assert peak / rows <= 16


def test_summary_csv_row():
    cfg = ExperimentConfig(t_end=0.05)
    record = run_experiment(cfg)
    summary = summarize_experiment(cfg, record)
    buf = io.StringIO()
    write_summary_csv(cfg, summary, buf)
    header, row = buf.getvalue().strip().split("\n")
    assert header == SUMMARY_HEADER
    fields = row.split(",")
    assert fields[0:4] == ["linear", "A", "constant", ""]
    assert int(fields[5]) == 50
    assert float(fields[4]) == summary.mean_dt


def test_expected_tables_well_formed():
    assert set(EXPECTED_TABLES) == {
        "T3", "T7", "T8", "T9", "T10",
        "PC-linear", "PC-nonlinear", "PC-altA", "PC-altB",
    }
    assert METRICS == ("mean_dt_ms", "mean_P12", "mean_abs_dP", "total_residual")
    for table_id, table in EXPECTED_TABLES.items():
        labels = [row.label for row in table.rows]
        assert len(set(labels)) == len(labels)
        for row in table.rows:
            assert len(row.expected) == len(row.bands) == len(METRICS)
            assert all(band is None or 0 < band < 1 for band in row.bands)
            assert cli._find_row(f"{table_id}:{row.label}") is row


#: sha256 of the lines ``check_row`` prints for every row of every table, each row
#: followed by its table and failure count, measured against all-1.0 and all-(-1.0) summaries
EXPECTED_TABLE_LINES_SHA256 = "a45de73fba1c447d1e3bc1df5a4e3ef7c06b18b8fef29089ee037cd53fcaf21e"


def test_table_expectations_print_pinned_lines():
    # pins every expected value, band and status column that ``reproduce`` prints, with no oracle
    buf = io.StringIO()
    with redirect_stdout(buf):
        for value in (1.0, -1.0):
            summary = ErrorSummary(value, value, value, value, 1)
            for table_id, table in EXPECTED_TABLES.items():
                for row in table.rows:
                    print(table_id, check_row(row, summary))
    text = buf.getvalue()
    assert {"ok", "FAIL", "info"} <= {line.split()[-1] for line in text.splitlines()}
    assert len(text.splitlines()) == 240
    assert hashlib.sha256(text.encode()).hexdigest() == EXPECTED_TABLE_LINES_SHA256


def test_cli_run_exit_zero(tmp_path):
    out = tmp_path / "traj.csv"
    code = main([
        "run", "--preset", "linear", "--reticulation", "A",
        "--controller", "constant", "--dt0", "1e-3", "--t-end", "0.05",
        "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 51
    assert (tmp_path / "traj.summary.csv").exists()


def test_cli_run_degenerate_horizon(tmp_path, capsys):
    # a run without a macro step has nothing to summarize: a config error
    out = tmp_path / "empty.csv"
    code = main(["run", "--t-end", "0", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: t_end must be finite and positive, got 0.0")
    code = main(["run", "--t-end", "1e-13", "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: t_end=1e-13 is too short for one macro step")
    assert list(tmp_path.iterdir()) == []


def test_cli_run_config_file(tmp_path):
    cfg_file = tmp_path / "bench.cfg"
    cfg_file.write_text(
        "model.preset = linear\ncontroller.type = constant\nsim.t_end = 0.02\n"
        f"output.path = {tmp_path}/c.csv\n"
    )
    assert main(["run", "--config", str(cfg_file)]) == 0
    assert (tmp_path / "c.csv").exists()


def test_cli_bad_config_exits_one(tmp_path):
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text("model.preset = cubic\n")
    assert main(["run", "--config", str(cfg_file)]) == 1
    assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 1


def test_cli_simulation_failure_exits_two(tmp_path):
    code = main([
        "run", "--reticulation", "B", "--controller", "constant",
        "--dt0", "0.05", "--t-end", "60", "--out", str(tmp_path / "d.csv"),
    ])
    assert code == 2
    assert (tmp_path / "d.csv").exists()  # partial trajectory for diagnosis


def test_cli_check_mismatch_exits_three(tmp_path):
    # a constant-step run cannot satisfy the adaptive row's expectations
    code = main([
        "run", "--controller", "constant", "--dt0", "1e-2",
        "--out", str(tmp_path / "e.csv"), "--check", "T3:ecco-2.8e-6",
    ])
    assert code == 3
    code = main([
        "run", "--t-end", "0.01", "--out", str(tmp_path / "f.csv"),
        "--check", "T3:no-such-row",
    ])
    assert code == 1


def test_cli_unknown_check_row_exits_one_before_running(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "--check", "T3:no-such-row"]) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert list(tmp_path.iterdir()) == []


def test_cli_run_twice_writes_identical_bytes(tmp_path):
    args = [
        "run", "--controller", "ecco", "--r", "3.1e-5", "--t-end", "0.3",
    ]
    assert main(args + ["--out", str(tmp_path / "one.csv")]) == 0
    assert main(args + ["--out", str(tmp_path / "two.csv")]) == 0
    assert (tmp_path / "one.csv").read_bytes() == (tmp_path / "two.csv").read_bytes()
    assert (
        (tmp_path / "one.summary.csv").read_bytes()
        == (tmp_path / "two.summary.csv").read_bytes()
    )


def test_cli_check_passing_row(tmp_path):
    code = main([
        "run", "--controller", "constant", "--dt0", "1e-3",
        "--out", str(tmp_path / "g.csv"), "--check", "T3:constant",
    ])
    assert code == 0


@pytest.mark.parametrize("argv", [
    ["run", "--t-end", "nan"],
    ["run", "--t-end", "inf"],
    ["run", "--t-end", "-1"],
    ["run", "--dt0", "nan"],
    ["scan", "--reticulation", "A", "--t-scan", "nan"],
    ["scan", "--reticulation", "A", "--resolution", "nan"],
    ["sweep", "--t-end", "nan"],
    ["sweep", "--t-end", "-1"],
    ["run", "--controller", "ecco", "--r", "1e-200", "--e0", "1e-200", "--t-end", "0.01"],
    ["sweep", "--points", "0"],
    ["sweep", "--points", "-1"],
    ["sweep", "--dt", "1e-3..2e-3", "--points", "100000000000"],
    ["scan", "--reticulation", "A", "--threshold", "nan"],
    ["scan", "--reticulation", "A", "--threshold", "inf"],
    ["scan", "--reticulation", "A", "--threshold", "0"],
    ["sweep", "--t-end", "0"],
    ["run", "--t-end", "0"],
    ["run", "--t-end", "1e-13"],
    ["scan", "--reticulation", "A", "--t-scan", "-1"],
    ["scan", "--reticulation", "A", "--t-scan", "0"],
    ["run", "--micro-s2", "1000000000"],
    ["scan", "--reticulation", "B", "--hi", "inf"],
    ["scan", "--reticulation", "B", "--hi", "1e400"],
    ["run", "--reticulation", "B", "--controller", "constant", "--dt0", "1e-4",
     "--micro-s1", "1000", "--micro-s2", "1000", "--t-end", "100"],
    ["sweep", "--points", "1000"],
])
def test_cli_bad_horizon_or_value_exits_one(argv, tmp_path, monkeypatch, capsys):
    # each of these once hung or exited 0 or 2; now all are config errors
    runs = []
    real_run = bench.run_experiment
    monkeypatch.setattr(bench, "run_experiment", lambda *a, **k: runs.append(a) or real_run(*a, **k))
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not (tmp_path / "x.csv").exists()
    assert runs == []  # no scan or sweep run was made before the error
    flags = dict(zip(argv, argv[1:]))
    if "--hi" in flags:  # once a full stable run, then an error naming dt0
        assert err == "error: upper bound dt_hi must be finite, got inf\n"
    horizon = float(flags.get("--t-end", flags.get("--t-scan", "nan")))
    if horizon <= 0.0:  # every command words an empty horizon alike
        assert err == f"error: t_end must be finite and positive, got {horizon}\n"


def test_cli_scan_rejects_an_empty_horizon(capsys):
    # every run of an empty horizon completes, so the scan used to blame the bracket
    assert main(["scan", "--reticulation", "A", "--t-scan", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "t_end" in err


def test_cli_sweep_rejects_an_empty_horizon(capsys):
    assert main(["sweep", "--t-end", "0"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "t_end" in err


_INVALID = st.sampled_from([math.nan, math.inf, -1.0, 0.0])
#: Steps of at least 10 us over at most 50 ms keep every run under 5k macro steps.
_STEP = _INVALID | st.floats(1e-5, 1e-2)
_KNOB = st.sampled_from([0.0, -1.0, -1e-3, 1e-300, 5e-324]) | st.floats(1e-3, 10.0)
_RUN_FLAGS = st.fixed_dictionaries(
    {"--t-end": _INVALID | st.floats(0.0, 0.05, exclude_min=True)},
    optional={
        "--preset": st.sampled_from(tuple(PRESETS)),
        "--reticulation": st.sampled_from(RETICULATIONS),
        "--controller": st.sampled_from(CONTROLLERS),
        **dict.fromkeys(("--dt0", "--dt-min", "--dt-max"), _STEP),
        **dict.fromkeys(("--micro-s1", "--micro-s2"), st.integers(-1, 20)),
        **dict.fromkeys(
            ("--r", "--e0", "--tol", "--rho", "--alpha-s", "--theta-min", "--theta-max"), _KNOB
        ),
    },
)


#: Predictor/corrector with steps down to 1e-20 s: refused before its first step, which
#: once ran until steps of 1e-20 s stopped advancing the clock at t = 0.000225.
_STALLED_CLOCK = {
    "--t-end": 0.05, "--controller": "predictor_corrector", "--tol": 1e-30,
    "--dt-min": 1e-20, "--dt0": 1e-4,
}


@settings(max_examples=60, deadline=None)
@given(flags=_RUN_FLAGS)
@example(flags=_STALLED_CLOCK)
def test_cli_run_any_flags_exits_with_a_documented_code(flags):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        argv = ["run", *(f"{k}={v}" for k, v in flags.items()), "--out", os.path.join(tmp, "r.csv")]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code, err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_cli_run_past_macro_step_cap_exits_one(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(master, "MAX_MACRO_STEPS", 50)
    out = tmp_path / "x.csv"
    assert main(["run", "--controller", "constant", "--dt0", "1e-9", "--t-end", "4", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "MAX_MACRO_STEPS = 50" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_cli_run_whose_step_does_not_advance_the_clock_exits_one(tmp_path, capsys):
    out = tmp_path / "x.csv"
    argv = ["run", *(f"{k}={v}" for k, v in _STALLED_CLOCK.items()), "--out", str(out)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: t_end=0.05 exceeds MAX_MACRO_STEPS = 1000000 steps of 1e-20, the smallest step "
        "of policy 'predictor_corrector'; use a larger step or a shorter horizon\n"
    )
    assert not out.exists()


def test_cli_non_finite_indicator_exits_two(tmp_path, capsys):
    # TOL * (1 + rho * |y|) is a subnormal, so the first judged step's indicator is inf
    code = main([
        "run", "--controller", "predictor_corrector", "--tol", "1e-320", "--rho", "0",
        "--t-end", "0.01", "--out", str(tmp_path / "p.csv"),
    ])
    assert code == 2
    assert capsys.readouterr().err.startswith("simulation failure:")


def test_empty_output_paths_rejected_before_any_step(tmp_path, monkeypatch, capsys):
    for name in ("out_path", "summary_path"):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(**{name: ""})
    monkeypatch.chdir(tmp_path)
    cfg_file = tmp_path / "empty.cfg"
    cfg_file.write_text("output.path =\nsim.t_end = 0.01\n")
    for argv in (["--out", ""], ["--summary-out", ""], ["--config", str(cfg_file)]):
        assert main(["run", "--t-end", "0.01", *argv]) == 1
        assert capsys.readouterr().err.startswith("error:")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["empty.cfg"]


def _no_run(*args, **kwargs):
    raise AssertionError("the run started")


@pytest.mark.parametrize("argv", [
    ["--out", "a.csv", "--summary-out", "a.csv"],
    ["--summary-out", "run.csv"],
    ["--config", "same.cfg"],
], ids=["flags", "default-out", "config-file"])
def test_summary_path_equal_to_trajectory_path_exits_one_before_any_step(
    argv, tmp_path, monkeypatch, capsys
):
    # the summary would overwrite the trajectory it summarizes
    monkeypatch.chdir(tmp_path)
    (tmp_path / "same.cfg").write_text("output.path = b.csv\noutput.summary_path = ./b.csv\n")
    monkeypatch.setattr(cli, "run_experiment", _no_run)
    assert main(["run", "--t-end", "0.01", *argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: summary path ") and err.endswith(" is the trajectory path\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["same.cfg"]


@pytest.mark.parametrize("controller, indicator, fields", [
    ("ecco", ResidualEnergyIndicator, ("rel_tol", "energy_scale")),
    ("predictor_corrector", OutputExtrapolationIndicator, ("tol", "rho")),
])
def test_cli_controller_defaults_are_the_librarys(controller, indicator, fields):
    args = cli.build_parser().parse_args(["run", "--controller", controller])
    cfg = cli._config_from_args(args)
    assert cfg == ExperimentConfig(controller=controller)
    policy = build_policy(cfg)
    assert policy.config == PIConfig()
    assert type(policy.indicator) is indicator
    for name in fields:
        assert getattr(policy.indicator, name) == getattr(indicator(), name)
    assert cfg.dt0 is None and policy.dt0 == PIConfig().dt_min


def test_cli_constant_step_and_scan_defaults(monkeypatch):
    policy = build_policy(cli._config_from_args(cli.build_parser().parse_args(["run"])))
    assert type(policy) is ConstantStep and policy.min_step == 1e-3
    args = cli.build_parser().parse_args(["scan", "--reticulation", "A"])
    scan_defaults = inspect.signature(stability_scan).parameters
    assert args.threshold == scan_defaults["threshold"].default == 1e6
    assert args.resolution == scan_defaults["resolution"].default == 1e-4
    # sweep and scan take the model they run from the library's defaults
    configs = []
    monkeypatch.setattr(cli, "step_size_sweep", lambda cfg, dts: configs.append(cfg) or [])
    monkeypatch.setattr(cli, "stability_scan", lambda cfg, *a, **kw: configs.append(cfg) or 0.05)
    assert main(["sweep"]) == 0
    assert main(["scan", "--reticulation", "B"]) == 0
    default = ExperimentConfig()
    assert [(c.preset, c.reticulation) for c in configs] == [
        (default.preset, default.reticulation), (default.preset, "B")
    ]


def test_cli_unwritable_output_exits_one(tmp_path, monkeypatch, capsys):
    # refused before any run: a run would be lost when its output is written
    for worker in ("run_experiment", "step_size_sweep", "stability_scan"):
        monkeypatch.setattr(cli, worker, _no_run)
    monkeypatch.setattr(bench, "run_experiment", _no_run)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "adir").mkdir()
    missing = str(tmp_path / "missing" / "x.csv")
    for command in (
        ["run", "--t-end", "0.01"],
        ["sweep", "--dt", "1e-3..2e-3", "--points", "2", "--t-end", "0.2"],
        ["scan", "--reticulation", "B", "--resolution", "0.02"],
    ):
        for out, why in ((missing, "does not exist"), ("missing/x.csv", "does not exist"),
                         ("adir", "is a directory")):
            assert main([*command, "--out", out]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error:") and why in err
    for argv, why in (
        (["--out", "ok.csv", "--summary-out", "missing/s.csv"], "does not exist"),
        (["--out", "ok.csv", "--summary-out", "adir"], "is a directory"),
    ):
        assert main(["run", "--t-end", "0.01", *argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and why in err
    assert [p.name for p in tmp_path.iterdir()] == ["adir"]
    assert not any((tmp_path / "adir").iterdir())


@pytest.mark.parametrize("argv, worker", [
    (["run", "--t-end", "0.01"], "run_experiment"),
    (["reproduce", "T3"], "run_experiment"),
    (["sweep", "--points", "2"], "step_size_sweep"),
    (["scan", "--reticulation", "A"], "stability_scan"),
], ids=["run", "reproduce", "sweep", "scan"])
@pytest.mark.parametrize("error, code, prefix", [
    (ConfigError("bad key"), 1, "error:"),
    (ValueError("bad value"), 1, "error:"),
    (OSError("disk full"), 1, "error:"),
    (SimulatorFailure("slot 0 output 0"), 2, "simulation failure:"),
    (NonFiniteIndicator("indicator is nan"), 2, "simulation failure:"),
], ids=["ConfigError", "ValueError", "OSError", "SimulatorFailure", "NonFiniteIndicator"])
def test_cli_main_maps_each_error_to_its_exit_code(
    argv, worker, error, code, prefix, tmp_path, monkeypatch, capsys
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, worker, fail)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == code
    err = capsys.readouterr().err
    assert err.startswith(prefix) and str(error) in err
    assert "Traceback" not in err


def test_cli_failed_partial_write_still_exits_two(tmp_path, monkeypatch, capsys):
    # the output directory passes the up-front check and is gone when the run fails
    out_dir = tmp_path / "gone"
    out_dir.mkdir()

    def fail(cfg):
        out_dir.rmdir()
        raise SimulatorFailure("slot 1 output 0", RunRecord(complete=False))

    monkeypatch.setattr(cli, "run_experiment", fail)
    assert main(["run", "--out", str(out_dir / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert "error: [Errno" in err and "simulation failure: slot 1 output 0" in err
    assert "Traceback" not in err


class _AddsOnly:
    def __radd__(self, other):
        return other

    def __repr__(self):
        return "_AddsOnly()"


def test_cli_probe_that_is_not_a_number_exits_two(tmp_path, monkeypatch, capsys):
    # the record cannot pack a value without __float__: the check refuses it before
    real = WheelOnly.probes

    def probes(self):
        return (_AddsOnly(), self.v_w) if self.step_calls >= 2 else real(self)

    monkeypatch.setattr(WheelOnly, "probes", probes)
    out = tmp_path / "p.csv"
    argv = ["run", "--reticulation", "B", "--controller", "constant", "--t-end", "0.01"]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"partial trajectory written to {out}",
        "simulation failure: non-finite simulator output at t=0.002: "
        "slot 1 probe 'z_w' is _AddsOnly(), not a number",
    ]
    assert len(out.read_text().splitlines()) == 2  # the header and step 1


def test_cli_reproduce_unknown_table_exits_one(capsys):
    assert main(["reproduce", "T99"]) == 1
    err = capsys.readouterr().err
    assert "T3" in err and "PC-linear" in err


def test_cli_reproduce_flagship_table_passes(capsys):
    assert main(["reproduce", "T3"]) == 0
    out = capsys.readouterr().out
    assert "all checks passed" in out
    assert "ecco-2.8e-6" in out


def test_cli_sweep_divergence_exits_two(tmp_path):
    code = main([
        "sweep", "--dt", "4.9e-2..5.1e-2", "--points", "2",
        "--reticulation", "B", "--t-end", "60", "--out", str(tmp_path / "s.csv"),
    ])
    assert code == 2


def test_cli_sweep_writes_monotone_table(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--dt", "5e-4..2e-3", "--points", "3",
        "--t-end", "0.5", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "dt,mean_abs_dP,residual_estimate"
    assert len(lines) == 4
    errs = [float(line.split(",")[1]) for line in lines[1:]]
    assert errs == sorted(errs)


def test_default_sweep_step_sizes_match_geomspace():
    import numpy as np

    assert _log_spaced(1e-4, 1e-2, 9) == [float(x) for x in np.geomspace(1e-4, 1e-2, 9)]
    assert _log_spaced(1e-4, 1e-2, 1) == [1e-4]
    for lo, hi, n in ((1e-3, 5e-2, 7), (2e-4, 3e-3, 13)):
        dts = _log_spaced(lo, hi, n)
        assert (dts[0], dts[-1], len(dts)) == (lo, hi, n)
        assert dts == pytest.approx(list(np.geomspace(lo, hi, n)), rel=1e-15, abs=0)


def test_cli_sweep_bad_range_exits_one():
    assert main(["sweep", "--dt", "1e-2..1e-4"]) == 1
    assert main(["sweep", "--dt", "oops"]) == 1


@pytest.mark.parametrize("bounds", ["1e-3..inf", "1e-3..1e400"])
def test_cli_sweep_non_finite_bound_exits_one_before_any_run(bounds, monkeypatch, capsys):
    monkeypatch.setattr(bench, "run_experiment", _no_run)
    assert main(["sweep", "--dt", bounds]) == 1
    assert capsys.readouterr().err == f"error: bad --dt range {bounds!r}: need finite bounds\n"


def test_cli_scan_no_onset_exits_one():
    code = main([
        "scan", "--reticulation", "A", "--lo", "1e-3", "--hi", "2e-3",
        "--t-scan", "2.0",
    ])
    assert code == 1


def test_module_entry_point(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import eccosim

    # the child imports the package under test, installed or not
    paths = [str(Path(eccosim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    out = tmp_path / "m.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "eccosim", "run", "--t-end", "0.01", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == TRAJECTORY_HEADER
    assert len(lines) == 11


def test_package_runs_without_numpy(tmp_path):
    import os
    import subprocess
    import sys
    from pathlib import Path

    import eccosim

    # every module, then a run with its summary, in a fresh interpreter
    code = (
        "import importlib, pkgutil, sys, eccosim\n"
        "for m in pkgutil.iter_modules(eccosim.__path__):\n"
        "    if m.name != '__main__':\n"
        "        importlib.import_module('eccosim.' + m.name)\n"
        "from eccosim.cli import main\n"
        "assert main(['run', '--t-end', '0.05', '--out', sys.argv[1]]) == 0\n"
        "assert 'numpy' not in sys.modules and 'scipy' not in sys.modules, 'numpy or scipy imported'\n"
    )
    paths = [str(Path(eccosim.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "r.csv")], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
