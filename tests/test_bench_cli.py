"""Configuration parsing, CSV schemas, and CLI exit codes."""

import io
import math
import os
import tempfile
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
    summarize_experiment,
    write_summary_csv,
    write_trajectory_csv,
)
from eccosim import cli, master
from eccosim.cli import EXPECTED_TABLES, _log_spaced, main
from eccosim.control import NonFiniteIndicator
from eccosim.master import RunRecord, SimulatorFailure
from eccosim.quartercar import PRESETS, RETICULATIONS

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
    with pytest.raises(ConfigError, match="micro step ratios must be in 1..1000"):
        ExperimentConfig(micro_ratio_s2=1001)
    with pytest.raises(ConfigError):
        load_config(None, {"nonexistent": 1})
    for name in ("r", "e0", "tol", "rho", "alpha_s", "dt_min", "dt_max",
                 "theta_min", "theta_max", "t_end", "dt0"):
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig(**{name: float("nan")})
    with pytest.raises(ConfigError):
        ExperimentConfig(t_end=float("-inf"))


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
    for table in EXPECTED_TABLES.values():
        for row in table.rows:
            metrics = {c.metric for c in row.cells}
            assert metrics <= {"mean_dt_ms", "mean_P12", "mean_abs_dP", "total_residual"}


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
    ["run", "--micro-s1", "1001"],
])
def test_cli_bad_horizon_or_value_exits_one(argv, tmp_path, capsys):
    # each of these once hung or exited 0 or 2; now all are config errors
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert not (tmp_path / "x.csv").exists()
    flags = dict(zip(argv, argv[1:]))
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


#: Predictor/corrector steps of 1e-20 s that stop advancing the clock at t = 0.000225.
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
    assert err.startswith("error: policy 'predictor_corrector' step size 1e-20 at t=0.000225")
    assert "does not advance the clock" in err
    assert "Traceback" not in err
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


def test_cli_unwritable_output_exits_one(tmp_path, capsys):
    out = tmp_path / "missing" / "x.csv"
    for argv in (
        ["run", "--t-end", "0.01"],
        ["sweep", "--dt", "1e-3..2e-3", "--points", "2", "--t-end", "0.2"],
        ["scan", "--reticulation", "B", "--resolution", "0.02"],
    ):
        assert main([*argv, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error:")


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
    def fail(cfg):
        raise SimulatorFailure("slot 1 output 0", RunRecord(complete=False))

    monkeypatch.setattr(cli, "run_experiment", fail)
    assert main(["run", "--out", str(tmp_path / "missing" / "p.csv")]) == 2
    err = capsys.readouterr().err
    assert "error: [Errno" in err and "simulation failure: slot 1 output 0" in err
    assert "Traceback" not in err


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
