"""Benchmark harness: experiment configuration and deterministic CSV output.

Experiments are described by a flat ``section.key = value`` config file (or
equivalent CLI flags) selecting the model preset, the reticulation, the step
controller and its parameters, and the horizon.  The same configuration
object drives the library directly in tests and through the CLI.

CSV serialization uses the shortest round-trip decimal representation, so a
written file parses back bit-exactly and identical runs produce identical
bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from math import isfinite
from typing import IO, Mapping

from .control import (
    ConstantStep,
    OutputExtrapolationIndicator,
    PIConfig,
    PIController,
    ResidualEnergyIndicator,
    StepPolicy,
)
from .master import RunRecord, run_cosimulation
from .quartercar import build_reticulation, preset_params
from .reference import (
    DEFAULT_H_REF,
    ErrorSummary,
    ReferenceTrajectory,
    reference_solve,
    summarize,
)

#: Default horizons per preset.  The nonlinear model settles fast and is run
#: to 2 s; the linear benchmarks use 4 s.
DEFAULT_T_END = {"linear": 4.0, "nonlinear": 2.0}

CONTROLLERS = ("constant", "ecco", "predictor_corrector")

TRAJECTORY_HEADER = "t,dt,eps,P12,P_port1,P_port2,dP_res,dE_res,E_res_accum,z_c,v_c,z_w,v_w"
SUMMARY_HEADER = "preset,reticulation,controller,tolerance,mean_dt,steps,mean_P12,mean_abs_dP,total_residual"


class ConfigError(ValueError):
    """A configuration file or override could not be parsed or validated."""


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark run: model, controller, horizon, output paths."""

    preset: str = "linear"
    reticulation: str = "A"
    micro_ratio_s1: int = 10
    micro_ratio_s2: int = 10
    controller: str = "constant"
    r: float = 1e-5  # residual-energy relative tolerance
    e0: float = 750.0  # residual-energy scale [J]
    tol: float = 1.0  # predictor/corrector tolerance
    rho: float = 1e-4  # predictor/corrector relative-error weight
    alpha_s: float = 0.8
    dt_min: float = 1e-4
    dt_max: float = 1e-2
    theta_min: float = 0.2
    theta_max: float = 1.5
    t_end: float | None = None  # None: preset default
    dt0: float | None = None  # None: 1 ms constant, dt_min for adaptive
    out_path: str = "run.csv"
    summary_path: str | None = None  # None: out_path with .summary.csv suffix

    def __post_init__(self):
        if self.preset not in DEFAULT_T_END:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.reticulation not in ("A", "B"):
            raise ConfigError(f"unknown reticulation {self.reticulation!r}")
        if self.controller not in CONTROLLERS:
            raise ConfigError(f"unknown controller {self.controller!r}")
        if self.micro_ratio_s1 < 1 or self.micro_ratio_s2 < 1:
            raise ConfigError("micro step ratios must be >= 1")
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value}")

    @property
    def resolved_t_end(self) -> float:
        return DEFAULT_T_END[self.preset] if self.t_end is None else self.t_end

    @property
    def resolved_dt0(self) -> float:
        if self.dt0 is not None:
            return self.dt0
        return 1e-3 if self.controller == "constant" else self.dt_min

    @property
    def tolerance_label(self) -> str:
        """Controller tolerance for summary rows; empty for constant stepping."""
        if self.controller == "ecco":
            return format_number(self.r)
        if self.controller == "predictor_corrector":
            return format_number(self.tol)
        return ""

    @property
    def resolved_summary_path(self) -> str:
        if self.summary_path is not None:
            return self.summary_path
        base = self.out_path
        if base.endswith(".csv"):
            base = base[: -len(".csv")]
        return base + ".summary.csv"


# config-file key -> (attribute, parser)
_CONFIG_KEYS = {
    "model.preset": ("preset", str),
    "model.reticulation": ("reticulation", str),
    "model.micro_ratio_s1": ("micro_ratio_s1", int),
    "model.micro_ratio_s2": ("micro_ratio_s2", int),
    "controller.type": ("controller", str),
    "controller.r": ("r", float),
    "controller.E0": ("e0", float),
    "controller.TOL": ("tol", float),
    "controller.rho": ("rho", float),
    "controller.alpha_s": ("alpha_s", float),
    "controller.dt_min": ("dt_min", float),
    "controller.dt_max": ("dt_max", float),
    "controller.theta_min": ("theta_min", float),
    "controller.theta_max": ("theta_max", float),
    "sim.t_end": ("t_end", float),
    "sim.dt0": ("dt0", float),
    "output.path": ("out_path", str),
    "output.summary_path": ("summary_path", str),
}


def parse_config_text(text: str) -> dict[str, object]:
    """Parse ``section.key = value`` lines into config attributes.

    Blank lines and ``#`` comments (full-line or trailing) are ignored.
    """
    overrides: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'section.key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        attr, parse = _CONFIG_KEYS[key]
        try:
            overrides[attr] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return overrides


def load_config(path: str, overrides: Mapping[str, object] | None = None) -> ExperimentConfig:
    """Build a config from a file (optional) plus overrides; overrides win."""
    attrs: dict[str, object] = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            attrs.update(parse_config_text(fh.read()))
    if overrides:
        valid = {f.name for f in fields(ExperimentConfig)}
        for key, value in overrides.items():
            if key not in valid:
                raise ConfigError(f"unknown config attribute {key!r}")
            if value is not None:
                attrs[key] = value
    try:
        return ExperimentConfig(**attrs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def build_policy(cfg: ExperimentConfig) -> StepPolicy:
    if cfg.controller == "constant":
        return ConstantStep(cfg.resolved_dt0)
    if cfg.controller == "ecco":
        indicator = ResidualEnergyIndicator(rel_tol=cfg.r, energy_scale=cfg.e0)
    else:
        indicator = OutputExtrapolationIndicator(tol=cfg.tol, rho=cfg.rho)
    return PIController(
        indicator,
        PIConfig(
            alpha_s=cfg.alpha_s,
            dt_min=cfg.dt_min,
            dt_max=cfg.dt_max,
            theta_min=cfg.theta_min,
            theta_max=cfg.theta_max,
        ),
    )


def run_experiment(cfg: ExperimentConfig) -> RunRecord:
    """Build the configured model and controller and run the master loop."""
    slots, graph = build_reticulation(
        cfg.reticulation,
        preset_params(cfg.preset),
        micro_s1=cfg.micro_ratio_s1,
        micro_s2=cfg.micro_ratio_s2,
    )
    policy = build_policy(cfg)
    return run_cosimulation(slots, graph, policy, cfg.resolved_t_end, dt0=cfg.resolved_dt0)


def experiment_reference(cfg: ExperimentConfig, h_ref: float = DEFAULT_H_REF) -> ReferenceTrajectory:
    return reference_solve(
        preset_params(cfg.preset), cfg.resolved_t_end, h_ref, cfg.reticulation
    )


def summarize_experiment(cfg: ExperimentConfig, record: RunRecord) -> ErrorSummary:
    """Error summary against the matching reference; degenerate runs are all-zero."""
    if record.step_count == 0:
        return ErrorSummary(0.0, 0.0, 0.0, 0.0, 0)
    return summarize(record, experiment_reference(cfg))


def format_number(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


_PROBE_COLUMNS = ("z_c", "v_c", "z_w", "v_w")


def write_trajectory_csv(record: RunRecord, fh: IO[str]) -> None:
    """One row per accepted macro step; absent probes serialize as empty fields."""
    if record.bond_count > 1:
        raise ValueError("trajectory schema covers single-bond runs")
    fh.write(TRAJECTORY_HEADER + "\n")
    for row in record.rows:
        if row.bonds:
            b = row.bonds[0]
            bond_fields = [
                format_number(b.P_12),
                format_number(b.P_port1),
                format_number(b.P_port2),
                format_number(b.dP_res),
                format_number(b.dE_res),
                format_number(b.E_res_accum),
            ]
        else:
            bond_fields = [""] * 6
        probe_fields = [
            format_number(row.probes[name]) if name in row.probes else ""
            for name in _PROBE_COLUMNS
        ]
        fh.write(
            ",".join(
                [format_number(row.t), format_number(row.dt), format_number(row.eps)]
                + bond_fields
                + probe_fields
            )
            + "\n"
        )


def write_summary_csv(cfg: ExperimentConfig, summary: ErrorSummary, fh: IO[str]) -> None:
    fh.write(SUMMARY_HEADER + "\n")
    fh.write(
        ",".join(
            [
                cfg.preset,
                cfg.reticulation,
                cfg.controller,
                cfg.tolerance_label,
                format_number(summary.mean_dt),
                str(summary.step_count),
                format_number(summary.mean_P12),
                format_number(summary.mean_abs_dP),
                format_number(summary.total_residual),
            ]
        )
        + "\n"
    )


def save_experiment_output(
    cfg: ExperimentConfig, record: RunRecord, summary: ErrorSummary
) -> tuple[str, str]:
    """Write the trajectory and summary CSVs; returns their paths."""
    with open(cfg.out_path, "w", encoding="utf-8", newline="") as fh:
        write_trajectory_csv(record, fh)
    with open(cfg.resolved_summary_path, "w", encoding="utf-8", newline="") as fh:
        write_summary_csv(cfg, summary, fh)
    return cfg.out_path, cfg.resolved_summary_path
