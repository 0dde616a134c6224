"""Command-line front end: run experiments, reproduce the recorded benchmark
tables, sweep the step size, and scan for stability onsets.

Exit codes: 0 success, 1 configuration/usage error, 2 simulation failure (a refused
slot value, or non-finite states), 3 measured results outside the expected tolerances.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import namedtuple
from math import inf, log10

from .bench import (
    SETTINGS,
    ConfigError,
    ExperimentConfig,
    constant_step_plan,
    format_number,
    load_config,
    run_experiment,
    save_experiment_output,
    stability_scan,
    step_size_sweep,
    summarize_experiment,
    write_trajectory_csv,
)
from .control import NonFiniteIndicator
from .master import SimulatorFailure, check_plan
from .quartercar import RETICULATIONS


#: The quantities of each table row, in the paper's column order: mean step [ms], mean
#: bond power, mean absolute power error and residual energy, printed as a magnitude.
METRICS = ("mean_dt_ms", "mean_P12", "mean_abs_dP", "total_residual")


class Row(namedtuple("Row", "label config expected bands")):
    """One table row: its label, the experiment it runs, and per :data:`METRICS` its
    expected value and relative tolerance band; a band of None marks a display-only cell."""

    __slots__ = ()


class Table(namedtuple("Table", "title rows residual_reduction_min", defaults=(None,))):
    """A reproduced table; ``residual_reduction_min`` is the constant -> adaptive
    row claim on the total residual, if the table makes one."""

    __slots__ = ()


def _row(label, preset, reticulation, controller, expected, bands, **kw) -> Row:
    cfg = ExperimentConfig(preset=preset, reticulation=reticulation, controller=controller, **kw)
    return Row(label, cfg, expected, bands)


def _pc_row(label, preset, reticulation, tol, expected) -> Row:
    """A predictor/corrector row: the tables band only its power error and residual."""
    return _row(label, preset, reticulation, "predictor_corrector", expected,
                (None, None, 0.35, 0.35), tol=tol, rho=1e-4)


_T3_ROWS = (
    _row("constant", "linear", "A", "constant",
         (1.0, 0.4, 1.3, 6.4), (None, 0.30, 0.30, 0.15), dt0=1e-3),
    _row("ecco-2.8e-6", "linear", "A", "ecco",
         (1.0, 0.0, 0.4, 1.6), (0.20, None, 0.30, 0.25), r=2.8e-6),
    _row("ecco-3.1e-5", "linear", "A", "ecco",
         (2.9, 0.1, 1.3, 5.0), (0.20, None, None, 0.25), r=3.1e-5),
)

_T7_ROWS = (
    _row("constant", "nonlinear", "A", "constant",
         (1.0, 1.0, 4.0, 5.0), (None, None, 0.30, 0.30), dt0=1e-3),
    _row("ecco-7.5e-6", "nonlinear", "A", "ecco",
         (1.0, 0.0, 1.1, 1.6), (None, None, 0.30, 0.30), r=7.5e-6),
    _row("ecco-1.0e-4", "nonlinear", "A", "ecco",
         (3.1, 0.0, 4.0, 6.0), (0.30, None, None, None), r=1.0e-4),
)

_T8_ROWS = (
    _row("constant", "linear", "B", "constant",
         (1.0, -192.0, 12.0, 23.0), (None, 0.20, 0.20, 0.20), dt0=1e-3),
    _row("ecco-9.1e-7", "linear", "B", "ecco",
         (1.0, -187.9, 1.3, 1.6), (None, 0.20, 0.20, 0.20), r=9.1e-7),
)

_T9_ROWS = (
    _row("constant", "nonlinear", "B", "constant",
         (1.0, -390.0, 30.0, 50.0), (None, 0.30, 0.30, 0.30), dt0=1e-3),
    _row("ecco-2.4e-5", "nonlinear", "B", "ecco",
         (1.0, -377.0, 5.0, 5.0), (None, 0.30, 0.30, 0.30), r=2.4e-5),
)


EXPECTED_TABLES: dict[str, Table] = {
    "T3": Table("linear quarter car, reticulation A", _T3_ROWS),
    "T7": Table("nonlinear quarter car, reticulation A", _T7_ROWS),
    "T8": Table("linear quarter car, reticulation B", _T8_ROWS),
    "T9": Table("nonlinear quarter car, reticulation B", _T9_ROWS),
    "T10": Table(
        "linear quarter car, reticulation B, single micro step in S2",
        (
            _row("constant", "linear", "B", "constant",
                 (1.0, -220.0, 40.0, 30.0), (None, 0.30, 0.30, 0.30), dt0=1e-3, micro_ratio_s2=1),
            _row("ecco-1.0e-6", "linear", "B", "ecco",
                 (1.0, -190.0, 4.0, 2.0), (None, 0.30, 0.30, 0.30), r=1.0e-6, micro_ratio_s2=1),
        ),
        residual_reduction_min=0.85,
    ),
    "PC-linear": Table(
        "linear quarter car, reticulation A, controller comparison",
        (_T3_ROWS[0], _pc_row("pc-6.7e-1", "linear", "A", 6.7e-1, (1.0, 0.3, 0.7, 2.9)),
         _T3_ROWS[1]),
    ),
    "PC-nonlinear": Table(
        "nonlinear quarter car, reticulation A, controller comparison",
        (_T7_ROWS[0], _pc_row("pc-2.1", "nonlinear", "A", 2.1, (1.0, 0.4, 1.9, 3.1)),
         _T7_ROWS[1]),
    ),
    "PC-altA": Table(
        "linear quarter car, reticulation B, controller comparison",
        (_T8_ROWS[0], _pc_row("pc-6.0e-1", "linear", "B", 6.0e-1, (1.0, -187.7, 1.3, 1.7)),
         _T8_ROWS[1]),
    ),
    "PC-altB": Table(
        "nonlinear quarter car, reticulation B, controller comparison",
        (_T9_ROWS[0], _pc_row("pc-6.5", "nonlinear", "B", 6.5, (1.0, -392.0, 18.0, 21.0)),
         _T9_ROWS[1]),
    ),
}


def check_row(row: Row, summary) -> int:
    """Print each cell of ``row`` against ``summary``; return how many failed.

    Display-only cells never fail.
    """
    measured = (
        summary.mean_dt * 1e3, summary.mean_P12, summary.mean_abs_dP, abs(summary.total_residual)
    )
    failures = 0
    for metric, value, expected, rel_tol in zip(METRICS, measured, row.expected, row.bands):
        if rel_tol is None:
            status, band = "info", ""
        else:
            ok = abs(value - expected) <= rel_tol * abs(expected)
            status = "ok" if ok else "FAIL"
            band = f"+/-{rel_tol:.0%}"
            failures += not ok
        print(
            f"  {row.label:<14} {metric:<16} measured {value:>12.5g}"
            f"  expected {expected:>10g} {band:<8} {status}"
        )
    return failures


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


_SETTINGS = {s.name: s for s in SETTINGS}


def _add_field_flag(parser: argparse.ArgumentParser, name: str, **kw) -> None:
    """Add the ``run`` flag declared by an ExperimentConfig field; ``kw`` overrides."""
    setting = _SETTINGS[name]
    options = {"type": setting.parse, "choices": setting.choices, "help": setting.help}
    parser.add_argument(setting.flag, dest=name, **{**options, **kw})


def _add_experiment_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key-value config file; flags win")
    for name in _SETTINGS:
        _add_field_flag(parser, name)


def _config_from_args(args) -> ExperimentConfig:
    return load_config(args.config, {name: getattr(args, name) for name in _SETTINGS})


def _print_summary(cfg: ExperimentConfig, summary) -> None:
    tol = cfg.tolerance_label or "-"
    print(
        f"preset={cfg.preset} reticulation={cfg.reticulation} "
        f"controller={cfg.controller} tolerance={tol}"
    )
    print(
        f"steps={summary.step_count} mean_dt={summary.mean_dt * 1e3:.4g} ms "
        f"mean_P12={summary.mean_P12:.4g} W mean_|dP|={summary.mean_abs_dP:.4g} W "
        f"total_residual={summary.total_residual:.4g} J"
    )


def _find_table(table_id: str) -> Table:
    table = EXPECTED_TABLES.get(table_id)
    if table is None:
        raise ConfigError(
            f"unknown table {table_id!r}; valid: {', '.join(sorted(EXPECTED_TABLES))}"
        )
    return table


def _find_row(key: str) -> Row:
    table_id, _, label = key.partition(":")
    table = _find_table(table_id)
    for row in table.rows:
        if row.label == label:
            return row
    labels = ", ".join(r.label for r in table.rows)
    raise ConfigError(f"unknown row {label!r} in {table_id}; valid: {labels}")


def _refuse_unwritable(*paths: str | None) -> None:
    """Refuse, before any run, an output path that is a directory or whose directory
    does not exist: the run would be lost when its output is written."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise ConfigError(f"output path {path!r} is a directory")
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise ConfigError(f"directory of output path {path!r} does not exist")


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    row = _find_row(args.check) if args.check else None
    _refuse_unwritable(cfg.out_path, cfg.resolved_summary_path)
    try:
        record = run_experiment(cfg)
    except SimulatorFailure as exc:
        if exc.record is not None:
            # The run's own failure decides the exit code, not this write's.
            try:
                with open(cfg.out_path, "w", encoding="utf-8", newline="") as fh:
                    write_trajectory_csv(exc.record, fh)
                print(f"partial trajectory written to {cfg.out_path}", file=sys.stderr)
            except OSError as err:
                print(f"error: {err}", file=sys.stderr)
        raise
    summary = summarize_experiment(cfg, record)
    paths = save_experiment_output(cfg, record, summary)
    _print_summary(cfg, summary)
    print(f"wrote {paths[0]} and {paths[1]}")
    if row is not None and check_row(row, summary):
        return 3
    return 0


def cmd_reproduce(args) -> int:
    table = _find_table(args.table)
    print(f"{args.table}: {table.title}")
    failures = 0
    residuals: dict[str, float] = {}
    for row in table.rows:
        record = run_experiment(row.config)
        summary = summarize_experiment(row.config, record)
        residuals[row.label] = abs(summary.total_residual)
        failures += check_row(row, summary)
    if table.residual_reduction_min is not None:
        base = residuals.get("constant", 0.0)
        adaptive = min(v for k, v in residuals.items() if k != "constant")
        reduction = 1.0 - adaptive / base if base else 0.0
        ok = reduction >= table.residual_reduction_min
        if not ok:
            failures += 1
        print(
            f"  residual reduction {reduction:.1%} "
            f"(required >= {table.residual_reduction_min:.0%}) {'ok' if ok else 'FAIL'}"
        )
    if failures:
        print(f"{failures} check(s) failed", file=sys.stderr)
        return 3
    print("all checks passed")
    return 0


def _write_out(path: str, text: str) -> None:
    """Write a command's ``--out`` file and say so."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    print(f"wrote {path}")


def _log_spaced(lo: float, hi: float, count: int) -> list[float]:
    """``count`` log-spaced values from ``lo`` to ``hi``, both ends exact.

    The exponents are spaced as ``np.geomspace`` spaces them; its ``power`` and
    ``log10`` may round an inner value one ulp apart from ``**`` and ``log10``.
    """
    if count == 1:
        return [lo]
    start = log10(lo)
    step = (log10(hi) - start) / (count - 1)
    return [lo] + [10.0 ** (i * step + start) for i in range(1, count - 1)] + [hi]


def cmd_sweep(args) -> int:
    try:
        lo_str, _, hi_str = args.dt.partition("..")
        lo, hi = float(lo_str), float(hi_str)
        if not 0 < lo < hi < inf:
            raise ValueError("need finite bounds" if hi == inf else "need 0 < low < high")
    except ValueError as exc:
        raise ConfigError(f"bad --dt range {args.dt!r}: {exc}") from None
    if not args.points >= 1:
        raise ConfigError(f"--points must be at least 1, got {args.points}")
    _refuse_unwritable(args.out_path)
    cfg = load_config(
        None, {"preset": args.preset, "reticulation": args.reticulation, "t_end": args.t_end}
    )
    # No run plans less than the one at ``hi``: refuse before listing the step sizes.
    check_plan(args.points * constant_step_plan(cfg, [hi]), f"a sweep of {args.points} runs")
    points = step_size_sweep(cfg, _log_spaced(lo, hi, args.points))
    lines = ["dt,mean_abs_dP,residual_estimate"]
    for p in points:
        lines.append(
            f"{format_number(p.dt)},{format_number(p.mean_abs_dP)},"
            f"{format_number(p.residual_estimate)}"
        )
    text = "\n".join(lines) + "\n"
    if args.out_path:
        _write_out(args.out_path, text)
    else:
        print(text, end="")
    return 0


#: (stable, divergent) bracket ends [s], in ``RETICULATIONS`` order
_SCAN_RANGES = dict(zip(RETICULATIONS, ((0.040, 0.080), (0.005, 0.020))))
_SCAN_THRESHOLD, _SCAN_RESOLUTION = stability_scan.__defaults__


def cmd_scan(args) -> int:
    lo, hi = _SCAN_RANGES[args.reticulation]
    lo = args.lo if args.lo is not None else lo
    hi = args.hi if args.hi is not None else hi
    _refuse_unwritable(args.out_path)
    cfg = load_config(
        None, {"preset": args.preset, "reticulation": args.reticulation, "t_end": args.t_scan}
    )
    onset = stability_scan(cfg, lo, hi, threshold=args.threshold, resolution=args.resolution)
    print(f"reticulation {args.reticulation}: instability onset at dt = {onset * 1e3:.2f} ms")
    if args.out_path:
        text = f"reticulation,onset_dt\n{args.reticulation},{format_number(onset)}\n"
        _write_out(args.out_path, text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="eccosim",
        description=(
            "Co-simulation benchmarks with residual-energy and "
            "predictor/corrector step size control."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment and write CSVs")
    _add_experiment_flags(p_run)
    p_run.add_argument(
        "--check", metavar="TABLE:ROW", help="compare against an expected row, e.g. T3:constant"
    )
    p_run.set_defaults(func=cmd_run)

    p_rep = sub.add_parser("reproduce", help="re-run a recorded benchmark table")
    p_rep.add_argument("table", help=f"one of {', '.join(sorted(EXPECTED_TABLES))}")
    p_rep.set_defaults(func=cmd_reproduce)

    p_sweep = sub.add_parser("sweep", help="constant-step error sweep (two curves)")
    p_sweep.add_argument("--dt", default="1e-4..1e-2", help="range low..high [s]")
    p_sweep.add_argument("--points", type=int, default=9)
    _add_field_flag(p_sweep, "preset")
    _add_field_flag(p_sweep, "reticulation")
    _add_field_flag(p_sweep, "t_end")
    _add_field_flag(p_sweep, "out_path", help="output CSV path (default: print)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_scan = sub.add_parser("scan", help="bisect the constant-step stability onset")
    _add_field_flag(p_scan, "reticulation", required=True)
    _add_field_flag(p_scan, "preset")
    p_scan.add_argument("--lo", type=float, help="stable bracket end [s]")
    p_scan.add_argument("--hi", type=float, help="divergent bracket end [s]")
    p_scan.add_argument("--t-scan", type=float, dest="t_scan", default=100.0)
    p_scan.add_argument("--threshold", type=float, default=_SCAN_THRESHOLD)
    p_scan.add_argument("--resolution", type=float, default=_SCAN_RESOLUTION)
    _add_field_flag(p_scan, "out_path", help="optional CSV output path")
    p_scan.set_defaults(func=cmd_scan)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place an exception becomes exit code 1 or 2."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SimulatorFailure, NonFiniteIndicator) as exc:
        print(f"simulation failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
