"""Command-line front end: run experiments, reproduce the recorded benchmark
tables, sweep the step size, and scan for stability onsets.

Exit codes: 0 success, 1 configuration/usage error, 2 simulation failure
(non-finite states), 3 measured results outside the expected tolerances.
"""

from __future__ import annotations

import argparse
import sys
from math import log10
from typing import NamedTuple

from .bench import (
    SETTINGS,
    ConfigError,
    ExperimentConfig,
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
from .master import SimulatorFailure
from .quartercar import RETICULATIONS


class Cell(NamedTuple):
    """One expected table cell: metric name, expected value, tolerance band.

    ``rel_tol`` of None marks a display-only cell.  ``total_residual`` cells
    compare |measured| against the expected value: the tables print the
    residual energy as a magnitude.
    """

    metric: str
    expected: float
    rel_tol: float | None = None


class Row(NamedTuple):
    label: str
    config: ExperimentConfig
    cells: tuple[Cell, ...]


class Table(NamedTuple):
    title: str
    rows: tuple[Row, ...]
    residual_reduction_min: float | None = None  # constant -> adaptive row claim


def _cfg(preset, reticulation, controller, **kw) -> ExperimentConfig:
    return ExperimentConfig(preset=preset, reticulation=reticulation, controller=controller, **kw)


_T3_ROWS = (
    Row(
        "constant",
        _cfg("linear", "A", "constant", dt0=1e-3),
        (
            Cell("mean_dt_ms", 1.0),
            Cell("mean_P12", 0.4, 0.30),
            Cell("mean_abs_dP", 1.3, 0.30),
            Cell("total_residual", 6.4, 0.15),
        ),
    ),
    Row(
        "ecco-2.8e-6",
        _cfg("linear", "A", "ecco", r=2.8e-6),
        (
            Cell("mean_dt_ms", 1.0, 0.20),
            Cell("mean_P12", 0.0),
            Cell("mean_abs_dP", 0.4, 0.30),
            Cell("total_residual", 1.6, 0.25),
        ),
    ),
    Row(
        "ecco-3.1e-5",
        _cfg("linear", "A", "ecco", r=3.1e-5),
        (
            Cell("mean_dt_ms", 2.9, 0.20),
            Cell("mean_P12", 0.1),
            Cell("mean_abs_dP", 1.3),
            Cell("total_residual", 5.0, 0.25),
        ),
    ),
)


_T7_ROWS = (
    Row(
        "constant",
        _cfg("nonlinear", "A", "constant", dt0=1e-3),
        (
            Cell("mean_dt_ms", 1.0),
            Cell("mean_P12", 1.0),
            Cell("mean_abs_dP", 4.0, 0.30),
            Cell("total_residual", 5.0, 0.30),
        ),
    ),
    Row(
        "ecco-7.5e-6",
        _cfg("nonlinear", "A", "ecco", r=7.5e-6),
        (
            Cell("mean_dt_ms", 1.0),
            Cell("mean_P12", 0.0),
            Cell("mean_abs_dP", 1.1, 0.30),
            Cell("total_residual", 1.6, 0.30),
        ),
    ),
    Row(
        "ecco-1.0e-4",
        _cfg("nonlinear", "A", "ecco", r=1.0e-4),
        (
            Cell("mean_dt_ms", 3.1, 0.30),
            Cell("mean_P12", 0.0),
            Cell("mean_abs_dP", 4.0),
            Cell("total_residual", 6.0),
        ),
    ),
)


_T8_ROWS = (
    Row(
        "constant",
        _cfg("linear", "B", "constant", dt0=1e-3),
        (
            Cell("mean_dt_ms", 1.0),
            Cell("mean_P12", -192.0, 0.20),
            Cell("mean_abs_dP", 12.0, 0.20),
            Cell("total_residual", 23.0, 0.20),
        ),
    ),
    Row(
        "ecco-9.1e-7",
        _cfg("linear", "B", "ecco", r=9.1e-7),
        (
            Cell("mean_dt_ms", 1.0),
            Cell("mean_P12", -187.9, 0.20),
            Cell("mean_abs_dP", 1.3, 0.20),
            Cell("total_residual", 1.6, 0.20),
        ),
    ),
)


_T9_ROWS = (
    Row(
        "constant",
        _cfg("nonlinear", "B", "constant", dt0=1e-3),
        (
            Cell("mean_dt_ms", 1.0),
            Cell("mean_P12", -390.0, 0.30),
            Cell("mean_abs_dP", 30.0, 0.30),
            Cell("total_residual", 50.0, 0.30),
        ),
    ),
    Row(
        "ecco-2.4e-5",
        _cfg("nonlinear", "B", "ecco", r=2.4e-5),
        (
            Cell("mean_dt_ms", 1.0),
            Cell("mean_P12", -377.0, 0.30),
            Cell("mean_abs_dP", 5.0, 0.30),
            Cell("total_residual", 5.0, 0.30),
        ),
    ),
)


def _pc_row(label, preset, reticulation, tol, cells) -> Row:
    return Row(label, _cfg(preset, reticulation, "predictor_corrector", tol=tol, rho=1e-4), cells)


EXPECTED_TABLES: dict[str, Table] = {
    "T3": Table("linear quarter car, reticulation A", _T3_ROWS),
    "T7": Table("nonlinear quarter car, reticulation A", _T7_ROWS),
    "T8": Table("linear quarter car, reticulation B", _T8_ROWS),
    "T9": Table("nonlinear quarter car, reticulation B", _T9_ROWS),
    "T10": Table(
        "linear quarter car, reticulation B, single micro step in S2",
        (
            Row(
                "constant",
                _cfg("linear", "B", "constant", dt0=1e-3, micro_ratio_s2=1),
                (
                    Cell("mean_dt_ms", 1.0),
                    Cell("mean_P12", -220.0, 0.30),
                    Cell("mean_abs_dP", 40.0, 0.30),
                    Cell("total_residual", 30.0, 0.30),
                ),
            ),
            Row(
                "ecco-1.0e-6",
                _cfg("linear", "B", "ecco", r=1.0e-6, micro_ratio_s2=1),
                (
                    Cell("mean_dt_ms", 1.0),
                    Cell("mean_P12", -190.0, 0.30),
                    Cell("mean_abs_dP", 4.0, 0.30),
                    Cell("total_residual", 2.0, 0.30),
                ),
            ),
        ),
        residual_reduction_min=0.85,
    ),
    "PC-linear": Table(
        "linear quarter car, reticulation A, controller comparison",
        (
            _T3_ROWS[0],
            _pc_row("pc-6.7e-1", "linear", "A", 6.7e-1, (
                Cell("mean_dt_ms", 1.0),
                Cell("mean_P12", 0.3),
                Cell("mean_abs_dP", 0.7, 0.35),
                Cell("total_residual", 2.9, 0.35),
            )),
            _T3_ROWS[1],
        ),
    ),
    "PC-nonlinear": Table(
        "nonlinear quarter car, reticulation A, controller comparison",
        (
            _T7_ROWS[0],
            _pc_row("pc-2.1", "nonlinear", "A", 2.1, (
                Cell("mean_dt_ms", 1.0),
                Cell("mean_P12", 0.4),
                Cell("mean_abs_dP", 1.9, 0.35),
                Cell("total_residual", 3.1, 0.35),
            )),
            _T7_ROWS[1],
        ),
    ),
    "PC-altA": Table(
        "linear quarter car, reticulation B, controller comparison",
        (
            _T8_ROWS[0],
            _pc_row("pc-6.0e-1", "linear", "B", 6.0e-1, (
                Cell("mean_dt_ms", 1.0),
                Cell("mean_P12", -187.7),
                Cell("mean_abs_dP", 1.3, 0.35),
                Cell("total_residual", 1.7, 0.35),
            )),
            _T8_ROWS[1],
        ),
    ),
    "PC-altB": Table(
        "nonlinear quarter car, reticulation B, controller comparison",
        (
            _T9_ROWS[0],
            _pc_row("pc-6.5", "nonlinear", "B", 6.5, (
                Cell("mean_dt_ms", 1.0),
                Cell("mean_P12", -392.0),
                Cell("mean_abs_dP", 18.0, 0.35),
                Cell("total_residual", 21.0, 0.35),
            )),
            _T9_ROWS[1],
        ),
    ),
}


def check_row(row: Row, summary) -> int:
    """Print each cell of ``row`` against ``summary``; return how many failed.

    Display-only cells never fail.
    """
    metrics = {
        "mean_dt_ms": summary.mean_dt * 1e3,
        "mean_P12": summary.mean_P12,
        "mean_abs_dP": summary.mean_abs_dP,
        "total_residual": summary.total_residual,
    }
    failures = 0
    for cell in row.cells:
        value = metrics[cell.metric]
        if cell.metric == "total_residual":
            value = abs(value)
        if cell.rel_tol is None:
            status, band = "info", ""
        else:
            ok = abs(value - cell.expected) <= cell.rel_tol * abs(cell.expected)
            status = "ok" if ok else "FAIL"
            band = f"+/-{cell.rel_tol:.0%}"
            failures += not ok
        print(
            f"  {row.label:<14} {cell.metric:<16} measured {value:>12.5g}"
            f"  expected {cell.expected:>10g} {band:<8} {status}"
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


def cmd_run(args) -> int:
    cfg = _config_from_args(args)
    row = _find_row(args.check) if args.check else None
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


#: Most ``sweep --points``; each point is a full run, and the list is built first.
MAX_SWEEP_POINTS = 1000


def cmd_sweep(args) -> int:
    try:
        lo_str, _, hi_str = args.dt.partition("..")
        lo, hi = float(lo_str), float(hi_str)
        if not 0 < lo < hi:
            raise ValueError("need 0 < low < high")
    except ValueError as exc:
        raise ConfigError(f"bad --dt range {args.dt!r}: {exc}") from None
    if not 1 <= args.points <= MAX_SWEEP_POINTS:
        raise ConfigError(f"--points must be in 1..{MAX_SWEEP_POINTS}, got {args.points}")
    cfg = ExperimentConfig(preset=args.preset, reticulation=args.reticulation, t_end=args.t_end)
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


def cmd_scan(args) -> int:
    lo, hi = _SCAN_RANGES[args.reticulation]
    lo = args.lo if args.lo is not None else lo
    hi = args.hi if args.hi is not None else hi
    cfg = ExperimentConfig(preset=args.preset, reticulation=args.reticulation, t_end=args.t_scan)
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
    _add_field_flag(p_sweep, "preset", default="linear")
    _add_field_flag(p_sweep, "reticulation", default="A")
    _add_field_flag(p_sweep, "t_end")
    _add_field_flag(p_sweep, "out_path", help="output CSV path (default: print)")
    p_sweep.set_defaults(func=cmd_sweep)

    p_scan = sub.add_parser("scan", help="bisect the constant-step stability onset")
    _add_field_flag(p_scan, "reticulation", required=True)
    _add_field_flag(p_scan, "preset", default="linear")
    p_scan.add_argument("--lo", type=float, help="stable bracket end [s]")
    p_scan.add_argument("--hi", type=float, help="divergent bracket end [s]")
    p_scan.add_argument("--t-scan", type=float, dest="t_scan", default=100.0)
    p_scan.add_argument("--threshold", type=float, default=1e6)
    p_scan.add_argument("--resolution", type=float, default=1e-4)
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
