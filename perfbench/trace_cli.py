"""Run one ``eccosim`` command in-process with timers around each layer.

Usage::

    python perfbench/trace_cli.py TRACE_JSON <eccosim arguments...>

The shim wraps the public calls into each module, runs ``eccosim.cli.main``
and writes the per-layer seconds and counts to ``TRACE_JSON``.  It exits
with the CLI's own exit code.

Wrapping follows interfaces rather than class names, so that merging or
renaming implementations keeps the trace working:

* simulator slots are found through ``SimulatorSlot`` subclasses;
* step policies through ``StepPolicy`` subclasses, keyed by ``policy.name``;
* module functions are patched at every alias the caller looks them up
  through (``bench.run_cosimulation``, ``reference.run_cosimulation``,
  ``master.apply_connections`` ...).  Patching only the defining module
  would silently record zero calls.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter


class Tally:
    """Seconds and call counts per layer key, filled by the wrappers."""

    def __init__(self):
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def add(self, key: str, t0: float) -> None:
        self.seconds[key] += perf_counter() - t0
        self.counts[key] += 1


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _timed(tally: Tally, key: str, fn, unit=None):
    """Wrap ``fn`` so each call adds its time and one call to ``key``.

    ``unit(args, result)`` may return work units, counted under
    ``key + ".units"``.
    """

    def wrapper(*args, **kwargs):
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            tally.add(key, t0)
        if unit is not None:
            tally.counts[key + ".units"] += unit(args, result)
        return result

    return wrapper


def _patch_method(tally: Tally, cls, method: str, key: str, unit=None) -> None:
    if method in cls.__dict__:
        setattr(cls, method, _timed(tally, key, cls.__dict__[method], unit))


def _patch_policy(tally: Tally, cls) -> None:
    """Time ``next_step`` per policy, keyed by the instance's ``name``."""
    if "next_step" not in cls.__dict__:
        return
    real = cls.__dict__["next_step"]

    def next_step(self, *args, **kwargs):
        t0 = perf_counter()
        try:
            return real(self, *args, **kwargs)
        finally:
            tally.add(f"control.{self.name}", t0)

    cls.next_step = next_step


def _patch_master(tally: Tally, modules, failure_type) -> None:
    """Time ``run_cosimulation`` at each alias; count macro steps and bonds.

    A run that raises still counts the steps of its partial record.
    """
    real = modules[0].run_cosimulation

    def note(record, failed: bool) -> None:
        if record is None:
            return
        tally.counts["master.macro_steps"] += record.step_count
        tally.counts["master.bond_steps"] += record.step_count * record.bond_count
        tally.counts["master.failed_bonds"] += record.bond_count if failed else 0

    def run_cosimulation(*args, **kwargs):
        t0 = perf_counter()
        try:
            record = real(*args, **kwargs)
        except failure_type as exc:
            note(exc.record, True)
            raise
        else:
            note(record, False)
            return record
        finally:
            tally.add("master.run", t0)

    for module in modules:
        module.run_cosimulation = run_cosimulation


def _patch_scan(tally: Tally, cli) -> None:
    """Count the master runs the stability scan's bisection makes."""
    real = cli.stability_scan

    def stability_scan(*args, **kwargs):
        before = tally.counts["master.run"]
        try:
            return real(*args, **kwargs)
        finally:
            tally.counts["reference.scan_runs"] += tally.counts["master.run"] - before

    cli.stability_scan = stability_scan


def _patch_csv(tally: Tally, bench, cli) -> None:
    """Time trajectory serialisation; count data rows and bytes written."""
    real = bench.write_trajectory_csv

    def write_trajectory_csv(record, fh):
        start = fh.tell()
        t0 = perf_counter()
        try:
            return real(record, fh)
        finally:
            tally.seconds["bench.csv"] += perf_counter() - t0
            tally.counts["bench.csv_rows"] += record.step_count
            tally.counts["bench.csv_bytes"] += fh.tell() - start

    bench.write_trajectory_csv = write_trajectory_csv
    cli.write_trajectory_csv = write_trajectory_csv


def install(tally: Tally):
    """Patch every layer; returns the CLI module whose ``main`` to run."""
    from eccosim import bench, cli, control, energy, master, model, reference

    for cls in _subclasses(model.SimulatorSlot):
        _patch_method(
            tally, cls, "do_step", "quartercar.do_step", lambda a, r: a[0].micro_step_ratio
        )
        for method in ("set_inputs", "get_outputs", "probes"):
            _patch_method(tally, cls, method, "quartercar.io")
    for cls in _subclasses(control.StepPolicy):
        _patch_policy(tally, cls)
    _patch_method(tally, energy.BondLedger, "record", "energy.record")
    master.apply_connections = _timed(tally, "model.apply_connections", master.apply_connections)

    solved = set()

    def new_samples(args, trajectory) -> int:
        """Samples of a trajectory not returned before; cache hits add none."""
        if args in solved:
            return 0
        solved.add(args)
        return len(trajectory.t)

    solve = _timed(tally, "reference.solve", reference.reference_solve, new_samples)
    bench.reference_solve = reference.reference_solve = solve
    summarize = _timed(
        tally, "reference.summarize", reference.summarize, lambda a, r: a[0].step_count
    )
    bench.summarize = reference.summarize = summarize

    _patch_master(tally, (bench, reference), master.SimulatorFailure)
    _patch_scan(tally, cli)
    _patch_csv(tally, bench, cli)
    return cli


def main() -> int:
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tally = Tally()
    cli = install(tally)
    t0 = perf_counter()
    try:
        code = cli.main(argv)
    finally:
        tally.add("cli.main", t0)
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"seconds": tally.seconds, "counts": tally.counts}, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
