"""Benchmark harness: experiment configuration, the one experiment runner,
the constant-step sweep and stability scan, and deterministic CSV output.

Experiments are described by a flat ``section.key = value`` config file (or
equivalent CLI flags) selecting the model preset, the reticulation, the step
controller and its parameters, and the horizon.  The same configuration
object drives the library directly in tests and through the CLI, and
``run_experiment`` is the only place one is built and run: the sweep and the
scan run copies of a config with constant steps of each trial size.

CSV serialization uses the shortest round-trip decimal representation, so a
written file parses back bit-exactly and identical runs produce identical
bytes.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import reduce
from itertools import repeat
from math import ceil, isfinite, log2, ulp
from operator import add
from typing import IO, Callable, Iterable, Mapping, Sequence

from .control import (
    ConstantStep,
    OutputExtrapolationIndicator,
    PIConfig,
    PIController,
    ResidualEnergyIndicator,
    StepPolicy,
)
from .energy import BOND_FIELDS
from .master import STEP_FIELDS, RunRecord, SimulatorFailure, run_cosimulation
from .master import check_plan, micro_step_plan
from .model import Frozen
from .quartercar import PRESETS, RETICULATIONS, build_reticulation, preset_params
from .reference import ErrorSummary, reference_solve, summarize

#: Default horizons per preset.  The nonlinear model settles fast and is run
#: to 2 s; the linear benchmarks use 4 s.
DEFAULT_T_END = {"linear": 4.0, "nonlinear": 2.0}

CONTROLLERS = ("constant", "ecco", "predictor_corrector")

TRAJECTORY_HEADER = "t,dt,eps,P12,P_port1,P_port2,dP_res,dE_res,E_res_accum,z_c,v_c,z_w,v_w"
SUMMARY_HEADER = "preset,reticulation,controller,tolerance,mean_dt,steps,mean_P12,mean_abs_dP,total_residual"


class ConfigError(ValueError):
    """A configuration file or override could not be parsed or validated."""


class NoOnsetInRange(ValueError):
    """The scanned step-size range does not bracket a stability onset."""


class Setting(
    namedtuple("Setting", "name default key flag parse help choices", defaults=(None,))
):
    """An ExperimentConfig field: name, default, config-file key, ``run`` flag,
    value parser, help text and, for an enumeration, the valid values."""

    __slots__ = ()


_PI, _ECCO, _PC = PIConfig(), ResidualEnergyIndicator(), OutputExtrapolationIndicator()

#: The one declaration of each ExperimentConfig field, in field order, with the library's
#: controller defaults; the config-file parser and the CLI flags are derived from it.
SETTINGS = (
    Setting("preset", "linear", "model.preset", "--preset", str, "damping law", tuple(PRESETS)),
    Setting("reticulation", "A", "model.reticulation", "--reticulation", str, "splitting",
            RETICULATIONS),
    Setting("micro_ratio_s1", 10, "model.micro_ratio_s1", "--micro-s1", int,
            "micro steps per macro step in S1; A ignores it, its chassis is solved exactly"),
    Setting("micro_ratio_s2", 10, "model.micro_ratio_s2", "--micro-s2", int,
            "micro steps per macro step in S2"),
    Setting("controller", "constant", "controller.type", "--controller", str, "step policy",
            CONTROLLERS),
    Setting("r", _ECCO.rel_tol, "controller.r", "--r", float,
            "residual-energy relative tolerance"),
    Setting("e0", _ECCO.energy_scale, "controller.E0", "--e0", float,
            "residual-energy scale [J]"),
    Setting("tol", _PC.tol, "controller.TOL", "--tol", float, "predictor/corrector tolerance"),
    Setting("rho", _PC.rho, "controller.rho", "--rho", float,
            "predictor/corrector relative-error weight"),
    Setting("alpha_s", _PI.alpha_s, "controller.alpha_s", "--alpha-s", float, "safety factor"),
    Setting("dt_min", _PI.dt_min, "controller.dt_min", "--dt-min", float, "min step [s]"),
    Setting("dt_max", _PI.dt_max, "controller.dt_max", "--dt-max", float, "max step [s]"),
    Setting("theta_min", _PI.theta_min, "controller.theta_min", "--theta-min", float,
            "min step ratio"),
    Setting("theta_max", _PI.theta_max, "controller.theta_max", "--theta-max", float,
            "max step ratio"),
    Setting("t_end", None, "sim.t_end", "--t-end", float, "horizon [s] (default: the preset's)"),
    Setting("dt0", None, "sim.dt0", "--dt0", float,
            "first step [s] (default: 1 ms constant, dt_min adaptive)"),
    Setting("out_path", "run.csv", "output.path", "--out", str,
            "trajectory CSV path (default run.csv)"),
    Setting("summary_path", None, "output.summary_path", "--summary-out", str,
            "summary CSV path (default: the trajectory path with .summary.csv)"),
)


class ExperimentConfig(Frozen):
    """One benchmark run: model, controller, horizon, output paths.

    Its fields and defaults are those of :data:`SETTINGS`; every instance is validated.
    """

    _field_defaults = {s.name: s.default for s in SETTINGS}
    __slots__ = tuple(_field_defaults)

    def __init__(self, **values):
        super().__init__(**values)
        for s in SETTINGS:
            value = getattr(self, s.name)
            if s.choices is not None and value not in s.choices:
                raise ConfigError(f"unknown {s.name} {value!r}, expected one of {s.choices}")
            if isinstance(value, float) and not isfinite(value):
                raise ConfigError(f"{s.name} must be finite, got {value}")
            if value == "":
                raise ConfigError(f"{s.name} must not be empty")
        if not all(n >= 1 for n in (self.micro_ratio_s1, self.micro_ratio_s2)):
            raise ConfigError("micro step ratios must be at least 1")
        if self.t_end is not None and not self.t_end > 0.0:
            raise ConfigError(f"t_end must be finite and positive, got {self.t_end}")
        if os.path.abspath(self.resolved_summary_path) == os.path.abspath(self.out_path):
            raise ConfigError(f"summary path {self.resolved_summary_path!r} is the trajectory path")

    @property
    def resolved_t_end(self) -> float:
        return DEFAULT_T_END[self.preset] if self.t_end is None else self.t_end

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


_SETTINGS_BY_KEY = {s.key: s for s in SETTINGS}


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
        if key not in _SETTINGS_BY_KEY:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        setting = _SETTINGS_BY_KEY[key]
        try:
            overrides[setting.name] = setting.parse(value)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key}: {exc}") from None
    return overrides


def load_config(path: str, overrides: Mapping[str, object] | None = None) -> ExperimentConfig:
    """Build a config from a file (optional) plus overrides; overrides win."""
    attrs: dict[str, object] = {}
    if path:
        with open(path, encoding="utf-8") as fh:
            attrs.update(parse_config_text(fh.read()))
    attrs.update((k, v) for k, v in (overrides or {}).items() if v is not None)
    try:
        return ExperimentConfig(**attrs)
    except TypeError as exc:
        raise ConfigError(str(exc)) from None


def build_policy(cfg: ExperimentConfig) -> StepPolicy:
    """The configured step policy; a constant step without ``dt0`` is 1 ms."""
    if cfg.controller == "constant":
        return ConstantStep(1e-3 if cfg.dt0 is None else cfg.dt0)
    if cfg.controller == "ecco":
        indicator = ResidualEnergyIndicator(rel_tol=cfg.r, energy_scale=cfg.e0)
    else:
        indicator = OutputExtrapolationIndicator(tol=cfg.tol, rho=cfg.rho)
    bounds = PIConfig(**{name: getattr(cfg, name) for name in PIConfig._field_defaults})
    return PIController(indicator, bounds, cfg.dt0)


def run_experiment(
    cfg: ExperimentConfig, stop: Callable[[RunRecord], bool] | None = None
) -> RunRecord:
    """Build the configured model and controller and run the master loop.

    ``stop`` is passed on to :func:`run_cosimulation`, which calls it with the
    record after each step and ends the run at the first step it returns
    true for, and which raises ``ValueError`` for a horizon too short for one
    macro step or a run over the micro-step budget.
    """
    slots, bonds = build_reticulation(
        cfg.reticulation,
        preset_params(cfg.preset),
        micro_s1=cfg.micro_ratio_s1,
        micro_s2=cfg.micro_ratio_s2,
    )
    policy = build_policy(cfg)
    return run_cosimulation(slots, bonds, policy, cfg.resolved_t_end, stop=stop)


#: Micro steps a sweep or scan charges each run on top of its plan, for building, starting
#: and summarizing it: about 65 us, the time of 100 to 200 micro steps.
RUN_CHARGE = 200


def constant_step_plan(cfg: ExperimentConfig, dt_values: Iterable[float]) -> int:
    """Micro steps constant-step runs of ``cfg`` at ``dt_values`` plan together, each with
    ``RUN_CHARGE``; see :func:`~eccosim.master.micro_step_plan`."""
    slots, _ = build_reticulation(
        cfg.reticulation, preset_params(cfg.preset), cfg.micro_ratio_s1, cfg.micro_ratio_s2
    )
    return sum(micro_step_plan(slots, dt, cfg.resolved_t_end) + RUN_CHARGE for dt in dt_values)


def summarize_experiment(cfg: ExperimentConfig, record: RunRecord) -> ErrorSummary:
    """Error summary against the matching reference."""
    ref = reference_solve(preset_params(cfg.preset), cfg.resolved_t_end, cfg.reticulation)
    return summarize(record, ref)


class SweepPoint(namedtuple("SweepPoint", "dt mean_abs_dP residual_estimate")):
    """One constant-step run: true mean power error vs the residual estimate,
    half the time-averaged |residual energy|."""

    __slots__ = ()


def _sweep_point(run: ExperimentConfig) -> SweepPoint:
    record = run_experiment(run)
    abs_res = reduce(add, map(abs, record.column("dE_res")), 0.0)
    return SweepPoint(
        dt=run.dt0,
        mean_abs_dP=summarize_experiment(run, record).mean_abs_dP,
        residual_estimate=0.5 * abs_res / record.duration,
    )


def step_size_sweep(cfg: ExperimentConfig, dt_values: Sequence[float]) -> list[SweepPoint]:
    """Constant-step runs of ``cfg`` over ``dt_values``, recording both error curves.

    Each run is summarized as soon as it ends, so the sweep holds one run's
    record at a time.  A step size that diverges fails the sweep when its run
    does, after the earlier points have paid for the reference solution.
    Their plans must add up to at most the budget before the first run starts.
    """
    check_plan(constant_step_plan(cfg, dt_values), f"a sweep of {len(dt_values)} runs")
    return [_sweep_point(cfg.replace(controller="constant", dt0=dt)) for dt in dt_values]


#: Rows a scan run checks against its threshold at once, as each block completes.
_SCAN_BLOCK = 64


def _beyond(record: RunRecord, start: int, stop: int, threshold: float) -> bool:
    """Whether a probe value of steps ``start`` to ``stop`` exceeds ``threshold`` in magnitude."""
    for name in record.probe_names:
        column = record.column(name, 0, start, stop)
        if column and (max(column) > threshold or min(column) < -threshold):
            return True
    return False


def _block_stops(threshold: float):
    """The scan's ``stop`` hook as a generator, sent each record once its row is
    appended: at the end of every block of :data:`_SCAN_BLOCK` rows it answers
    whether the block holds a probe value beyond ``threshold``, and False in
    between.  Per row, a generator's ``send`` costs less than a function call."""
    record = yield
    while True:
        for _ in range(_SCAN_BLOCK - 1):
            record = yield False
        n = record.step_count
        record = yield _beyond(record, n - _SCAN_BLOCK, n, threshold)


def _diverges(cfg: ExperimentConfig, dt: float, threshold: float) -> bool:
    """Whether a constant-step run of ``cfg`` at ``dt`` fails or has a probe
    value beyond ``threshold`` in magnitude.

    The rows are checked a block of :data:`_SCAN_BLOCK` at a time as each block
    completes, and the run stops at the first block with a row beyond; after
    a complete run its last, partial block is checked too.  The verdict is that
    of a check after every row: the rows run past the first one beyond end with
    its block, and all they can add is a :class:`SimulatorFailure`, which is a
    divergence too (the quarter-car slots and a constant step raise nothing
    else: a value that overflows fails the master's check).
    """
    stops = _block_stops(threshold)
    next(stops)
    try:
        record = run_experiment(cfg.replace(controller="constant", dt0=dt), stop=stops.send)
    except SimulatorFailure:
        return True
    n = record.step_count
    return not record.complete or _beyond(record, n - n % _SCAN_BLOCK, n, threshold)


def stability_scan(
    cfg: ExperimentConfig,
    dt_lo: float,
    dt_hi: float,
    threshold: float = 1e6,
    resolution: float = 1e-4,
) -> float:
    """Smallest constant macro step of ``cfg`` that diverges, bisected to ``resolution``.

    A run diverges when it fails or any probed state exceeds ``threshold``
    before the config's horizon.  Each run checks its rows in blocks as they
    complete and stops at the first block beyond the threshold (see
    :func:`_diverges`), so the scan pays one check per block instead of one
    per step, for the same verdicts.  The initial range must bracket the
    onset: ``dt_lo`` stable, ``dt_hi`` divergent and finite.  The bisection
    also ends when the two ends are adjacent floats, so any positive
    ``resolution`` terminates.  Before the first run, its runs must fit the
    budget: the bracket runs and the bisection's, each planned at ``dt_lo``.
    """
    if not 0.0 < dt_lo < dt_hi:
        raise ValueError("require 0 < dt_lo < dt_hi")
    if not isfinite(dt_hi):
        raise ValueError(f"upper bound dt_hi must be finite, got {dt_hi}")
    if not resolution > 0.0:
        raise ValueError("resolution must be positive")
    if not (isfinite(threshold) and threshold > 0.0):
        raise ValueError(f"threshold must be finite and positive, got {threshold}")
    # Bisect to resolution or to adjacent floats, at least ulp(dt_lo) apart; one run of slack.
    runs = 3 + ceil(max(0.0, log2(dt_hi - dt_lo) - log2(max(resolution, ulp(dt_lo)))))
    check_plan(constant_step_plan(cfg, [dt_lo] * runs), f"a scan of up to {runs} runs")

    if _diverges(cfg, dt_lo, threshold):
        raise NoOnsetInRange(f"lower bound {dt_lo} already diverges")
    if not _diverges(cfg, dt_hi, threshold):
        raise NoOnsetInRange(f"upper bound {dt_hi} does not diverge")
    lo, hi = dt_lo, dt_hi
    while hi - lo > resolution:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # the bracket is one ulp wide: nothing lies between
            break
        if _diverges(cfg, mid, threshold):
            hi = mid
        else:
            lo = mid
    return hi


def format_number(x: float) -> str:
    """Shortest decimal that round-trips to the same float."""
    return repr(float(x))


#: The record column of each ``TRAJECTORY_HEADER`` field.
_CSV_COLUMNS = tuple(TRAJECTORY_HEADER.replace("P12", "P_12").split(","))


def write_trajectory_csv(record: RunRecord, fh: IO[str]) -> None:
    """One row per accepted macro step; absent bond or probe columns serialize as empty fields."""
    if record.bond_count > 1:
        raise ValueError("trajectory schema covers single-bond runs")
    fh.write(TRAJECTORY_HEADER + "\n")
    present = STEP_FIELDS + (BOND_FIELDS if record.bond_count else ()) + record.probe_names
    # Columns hold floats, whose format_number is their repr, copied 1024 steps at a time.
    for i in range(0, record.step_count, 1024):
        columns = [
            map(repr, record.column(name, 0, i, i + 1024)) if name in present else repeat("")
            for name in _CSV_COLUMNS
        ]
        for fields in zip(*columns):  # the t column ends it
            fh.write(",".join(fields) + "\n")


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
