"""The experiment schema: config-file keys, ``run`` flags, and their agreement."""

import re
from pathlib import Path

import pytest

from eccosim.bench import SETTINGS, ConfigError, ExperimentConfig, load_config, parse_config_text
from eccosim.cli import main

# The external contract, spelled out once more on purpose: a change to any of
# these strings breaks existing config files or scripts.
RUN_FLAGS = {
    "--preset", "--reticulation", "--controller", "--r", "--e0", "--tol", "--rho",
    "--alpha-s", "--dt-min", "--dt-max", "--theta-min", "--theta-max", "--t-end",
    "--dt0", "--micro-s1", "--micro-s2", "--out", "--summary-out", "--config", "--check",
}
CONFIG_KEYS = {
    "model.preset", "model.reticulation", "model.micro_ratio_s1", "model.micro_ratio_s2",
    "controller.type", "controller.r", "controller.E0", "controller.TOL", "controller.rho",
    "controller.alpha_s", "controller.dt_min", "controller.dt_max", "controller.theta_min",
    "controller.theta_max", "sim.t_end", "sim.dt0", "output.path", "output.summary_path",
}

# a valid, non-default value for every field, as it is written in a file or on the command line
NON_DEFAULT = {
    "preset": "nonlinear", "reticulation": "B", "micro_ratio_s1": "3", "micro_ratio_s2": "4",
    "controller": "predictor_corrector", "r": "2e-06", "e0": "500.0", "tol": "0.5",
    "rho": "0.0002", "alpha_s": "0.7", "dt_min": "0.0002", "dt_max": "0.02",
    "theta_min": "0.3", "theta_max": "1.4", "t_end": "1.5", "dt0": "0.0003",
    "out_path": "a.csv", "summary_path": "b.csv",
}


def test_run_flags_are_the_contract(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    flags = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", capsys.readouterr().out))
    assert flags - {"--help"} == RUN_FLAGS


def test_config_keys_are_the_contract():
    attrs = {key: set(parse_config_text(f"{key} = 1")) for key in CONFIG_KEYS}
    assert all(len(names) == 1 for names in attrs.values())
    assert set().union(*attrs.values()) == {s.name for s in SETTINGS}
    for wrong_case in ("controller.e0", "controller.tol", "controller.Type"):
        with pytest.raises(ConfigError):
            parse_config_text(f"{wrong_case} = 1")


def test_every_field_round_trips_through_file_and_flag(tmp_path):
    from eccosim.cli import _config_from_args, build_parser

    assert set(NON_DEFAULT) == {s.name for s in SETTINGS}
    path = tmp_path / "all.cfg"
    path.write_text("".join(f"{s.key} = {NON_DEFAULT[s.name]}\n" for s in SETTINGS))
    from_file = load_config(str(path))
    argv = ["run"] + [arg for s in SETTINGS for arg in (s.flag, NON_DEFAULT[s.name])]
    from_flags = _config_from_args(build_parser().parse_args(argv))
    assert from_file == from_flags
    for s in SETTINGS:
        value = getattr(from_file, s.name)
        assert value != s.default
        assert str(value) == NON_DEFAULT[s.name]


@pytest.mark.parametrize("argv", [[], ["run"], ["reproduce"], ["sweep"], ["scan"]])
def test_help_exits_zero(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == 0
    assert "usage: eccosim" in capsys.readouterr().out


def readme_block(language: str) -> str:
    """The README's first code block in ``language``."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def test_readme_config_block_lists_every_key():
    block = readme_block("ini")
    keys = {line.split("=", 1)[0].strip() for line in block.splitlines() if "=" in line}
    assert keys == {s.key for s in SETTINGS}
    ExperimentConfig(**parse_config_text(block))  # the example itself is valid


def test_readme_quick_start_runs(capsys):
    exec(compile(readme_block("python"), "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("ErrorSummary(")
