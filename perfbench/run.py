"""eccosim benchmark: the paper's three CLI products, timed as a user runs them.

Usage::

    python3 perfbench/run.py --workload tables|onsets|export|all \
        --seed N --seconds S --trace 0|1

Every command is a fresh ``python -m eccosim ...`` child process, run one at
a time in its own temporary working directory with the caller's environment
(plus ``src`` on ``PYTHONPATH``).  Rounds of the workload's commands, each in
an order shuffled by ``--seed``, repeat for ``--seconds``.  A metric is given
for one *pass*, which runs every command once: the sum over commands of each
command's median.  Every output is checked against the seed outputs in
``expected.json``.

``--trace 0`` reports the end-to-end metrics of untraced runs, with times
scaled to a nominal machine speed (see ``CALIBRATION_CODE``).
``--trace 1`` also runs each command under ``trace_cli.py``, right after its
untraced run, and reports the per-layer metrics plus the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.  ``NOTES.md`` says why each workload
and metric is here.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
EXPECTED_PATH = HERE / "expected.json"
SPEC_PATH = ROOT / "BENCHMARK.json"
TRACE_SHIM = HERE / "trace_cli.py"

#: A run stops launching commands this long after it started, and kills a
#: command still running then, so that a run ends within three minutes.
HARD_LIMIT_S = 170.0
#: ``setup_s`` times a fresh interpreter importing the CLI, once before the
#: first round of an untraced run and once after each round, and at least this
#: many times in all.
SETUP_CODE = "import eccosim.cli"
SETUP_MIN_SAMPLES = 5
#: The shared machine's speed swings by a third within minutes, more than the
#: largest bound a metric may have.  So in an untraced run every command is
#: followed by a fresh interpreter running CALIBRATION_CODE, and the command's
#: wall and CPU times are each divided by that calibration's CPU time and
#: multiplied by CALIBRATION_NOMINAL_S; ``setup_s`` is divided by the run's
#: median calibration.  The calibration does not import eccosim, so no program
#: change moves it.  NOTES.md gives the measurements behind this choice.
CALIBRATION_CODE = "import numpy"
CALIBRATION_NOMINAL_S = 0.25
#: mean_abs_dP of the constant-step export runs depends on the oracle, so it
#: is compared with the seed's RK4 value within a relative tolerance per run.
#: linear-A: RK4 at h_ref = 1e-5 agrees with ``linear_exact_states`` to
#: 1.7e-12 and with RK4 at h_ref / 2 to 8e-12.  nonlinear-B: the damping law is
#: not smooth at dv = 0, and RK4 at h_ref / 2 and h_ref / 4 moves the seed value
#: by 1.4e-5 and 1.9e-5 (at 2 h_ref by 7e-5), so the seed value itself is off
#: by about 2e-5; 1e-4 admits any oracle at least as accurate as RK4 at 2 h_ref.
EXPORT_DP_REL_TOL = {"linear-A": 1e-9, "nonlinear-B": 1e-4}

TABLE_IDS = ("T3", "T7", "T8", "T9", "T10", "PC-linear", "PC-nonlinear", "PC-altA", "PC-altB")
EXPORT_FLAGS = ("run", "--controller", "constant", "--dt0", "1e-4")


@dataclass(frozen=True)
class Command:
    key: str  # entry in expected.json
    kind: str  # "table", "scan" or "export": selects the output check
    args: tuple[str, ...]
    out: str | None = None  # CSV the command writes, relative to its directory


@dataclass(frozen=True)
class Workload:
    commands: tuple[Command, ...]
    oracle: bool  # whether the commands solve the reference oracle


def _scan(ret: str) -> Command:
    out = f"onset_{ret}.csv"
    return Command(f"scan-{ret}", "scan", ("scan", "--reticulation", ret, "--out", out), out)


def _export(preset: str, ret: str) -> Command:
    out = f"{preset}_{ret}.csv"
    args = EXPORT_FLAGS + ("--preset", preset, "--reticulation", ret, "--out", out)
    return Command(f"{preset}-{ret}", "export", args, out)


WORKLOADS = {
    "tables": Workload(tuple(Command(t, "table", ("reproduce", t)) for t in TABLE_IDS), True),
    "onsets": Workload((_scan("A"), _scan("B")), False),
    "export": Workload((_export("linear", "A"), _export("nonlinear", "B")), True),
}
#: ``--smoke`` keeps the cheapest command of each workload.
SMOKE_KEYS = {"T9", "scan-A", "nonlinear-B"}

SPEC = json.loads(SPEC_PATH.read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
#: Timed calls the master loop makes; the rest of its time is its own.
MASTER_CHILDREN = ("quartercar.do_step", "quartercar.io", "energy.record", "model.apply_connections")


@dataclass
class Outcome:
    """One finished command: resources used and the problems its checks found."""

    key: str
    wall: float
    cpu: float
    rss_mb: float
    problems: list[str]
    trace: dict | None = None
    csv_rows: int = 0
    calibration_cpu: float | None = None  # CPU s of CALIBRATION_CODE right after


# ---------------------------------------------------------------- processes


def child_env() -> dict[str, str]:
    """The caller's environment with the checkout's ``src`` importable."""
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def spawn(argv: list[str], cwd: Path, env: dict[str, str], timeout: float):
    """Run ``argv`` to completion; returns (wall s, exit code, rusage).

    ``os.wait4`` reaps the child, so its rusage is the child's alone.  A
    watchdog kills a child that outlives ``timeout``.
    """
    with open(cwd / "stdout.txt", "wb") as out, open(cwd / "stderr.txt", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(timeout, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage


# ------------------------------------------------------------------- checks


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


_DP_LINE = re.compile(r"^(.* mean_abs_dP +measured) +(\S+)( +expected +)(\S+) (.*?) *(ok|info|FAIL)$")


def check_table(cmd: Command, workdir: Path, want: dict) -> list[str]:
    """Every line equals the seed's, except that ``mean_abs_dP`` stays in band."""
    got = (workdir / "stdout.txt").read_text(encoding="utf-8").splitlines()
    seed = want["stdout"]
    if len(got) != len(seed):
        return [f"{cmd.key}: {len(got)} output lines, seed printed {len(seed)}"]
    problems = []
    for line, ref in zip(got, seed):
        m, r = _DP_LINE.match(line), _DP_LINE.match(ref)
        if r is None:
            if line != ref:
                problems.append(f"{cmd.key}: {line.strip()!r} != seed {ref.strip()!r}")
            continue
        if m is None or m[1] != r[1] or m.group(3, 4, 5) != r.group(3, 4, 5):
            problems.append(f"{cmd.key}: {line.strip()!r} does not match seed {ref.strip()!r}")
            continue
        value, expected, band = float(m[2]), float(r[4]), r[5].strip()
        in_band = True
        if band:
            in_band = abs(value - expected) <= float(band.strip("+/-%")) / 100 * abs(expected)
        if not (math.isfinite(value) and in_band) or m[6] == "FAIL":
            problems.append(f"{cmd.key}: mean_abs_dP {value} outside {expected} {band}")
    return problems


def check_scan(cmd: Command, workdir: Path, want: dict) -> list[str]:
    digest = sha256(workdir / cmd.out)
    return [] if digest == want["sha256"] else [f"{cmd.key}: {cmd.out} sha256 {digest} != seed"]


def read_summary(path: Path) -> dict[str, str]:
    header, values = path.read_text(encoding="utf-8").splitlines()
    return dict(zip(header.split(","), values.split(",")))


def summary_path(cmd: Command) -> str:
    return cmd.out[: -len(".csv")] + ".summary.csv"


def check_export(cmd: Command, workdir: Path, want: dict) -> list[str]:
    """Trajectory bytes and summary fields equal the seed's; mean_abs_dP within tolerance."""
    problems = []
    digest = sha256(workdir / cmd.out)
    if digest != want["sha256"]:
        problems.append(f"{cmd.key}: {cmd.out} sha256 {digest} != seed")
    got = read_summary(workdir / summary_path(cmd))
    seed = want["summary"]
    if got.keys() != seed.keys():
        return problems + [f"{cmd.key}: summary columns {list(got)} != seed {list(seed)}"]
    for name, ref in seed.items():
        if name == "mean_abs_dP":
            value, expected = float(got[name]), float(ref)
            if not abs(value - expected) <= EXPORT_DP_REL_TOL[cmd.key] * abs(expected):
                problems.append(f"{cmd.key}: mean_abs_dP {value} vs seed {expected}")
        elif got[name] != ref:
            problems.append(f"{cmd.key}: summary {name} {got[name]} != seed {ref}")
    return problems


CHECKS = {"table": check_table, "scan": check_scan, "export": check_export}


def data_rows(path: Path) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh) - 1


# ------------------------------------------------------------------ running


class Runner:
    """Runs commands in fresh directories under one temporary run directory."""

    def __init__(self, tmp: Path, expected: dict):
        self.tmp = tmp
        self.expected = expected
        self.started = time.perf_counter()  # reset at the start of each run
        self.env = child_env()

    def timeout(self) -> float:
        return max(1.0, HARD_LIMIT_S - (time.perf_counter() - self.started))

    def run(self, cmd: Command, traced: bool) -> Outcome:
        if traced:
            argv = [sys.executable, str(TRACE_SHIM), "trace.json", *cmd.args]
        else:
            argv = [sys.executable, "-m", "eccosim", *cmd.args]
        with tempfile.TemporaryDirectory(dir=self.tmp) as tmp:
            workdir = Path(tmp)
            wall, code, usage = spawn(argv, workdir, self.env, self.timeout())
            cpu = usage.ru_utime + usage.ru_stime
            outcome = Outcome(cmd.key, wall, cpu, usage.ru_maxrss / 1024.0, [])
            if code != 0:
                err = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace").strip()
                outcome.problems.append(f"{cmd.key}: exit code {code}: {err[-300:]}")
                return outcome
            try:
                outcome.problems += CHECKS[cmd.kind](cmd, workdir, self.expected[cmd.key])
                if cmd.kind == "export":
                    outcome.csv_rows = data_rows(workdir / cmd.out)
                if traced:
                    outcome.trace = json.loads((workdir / "trace.json").read_text(encoding="utf-8"))
            except (OSError, ValueError, KeyError) as exc:
                outcome.problems.append(f"{cmd.key}: output unreadable: {exc!r}")
            return outcome

    def time_code(self, code: str) -> tuple[float, float]:
        """Wall and CPU time of a fresh interpreter running ``code``."""
        with tempfile.TemporaryDirectory(dir=self.tmp) as tmp:
            wall, status, usage = spawn([sys.executable, "-c", code], Path(tmp), self.env, self.timeout())
        if status != 0:
            raise RuntimeError(f"python -c {code!r} exited with {status}")
        return wall, usage.ru_utime + usage.ru_stime


def run_rounds(
    runner: Runner, commands, rng: random.Random, seconds: float, modes, after_round=None, calibrate=False
):
    """Run rounds of the workload's commands until ``seconds`` is up.

    A round runs every command once in each of ``modes`` (untraced, traced),
    back to back, in an order shuffled by ``rng``, and then calls
    ``after_round()``.  With ``calibrate`` each command is followed by a run
    of ``CALIBRATION_CODE``, whose time is part of the command's own share of
    the window.  The first round always completes; after it a command starts
    only if its previous run would still end within the window.  Returns
    {mode: {command key: [Outcome, ...]}}.
    """
    samples = {mode: {c.key: [] for c in commands} for mode in modes}
    last: dict[tuple[str, bool], float] = {}
    start = time.perf_counter()
    first = True
    while True:
        order = list(commands)
        rng.shuffle(order)
        for cmd in order:
            for mode in modes:
                now = time.perf_counter()
                if not first and now - start + last[cmd.key, mode] > seconds:
                    return samples
                if now - runner.started > HARD_LIMIT_S:
                    return samples
                outcome = runner.run(cmd, mode)
                if calibrate:
                    outcome.calibration_cpu = runner.time_code(CALIBRATION_CODE)[1]
                samples[mode][cmd.key].append(outcome)
                last[cmd.key, mode] = time.perf_counter() - now
        if after_round is not None:
            after_round()
        first = False


# ------------------------------------------------------------------ metrics


def at_nominal_speed(seconds: float, calibration_cpu: float) -> float:
    """``seconds`` on a machine where ``CALIBRATION_CODE`` takes the nominal CPU time."""
    return seconds * CALIBRATION_NOMINAL_S / calibration_cpu


def typical_pass(samples: dict, value) -> float:
    """One pass over the commands: each command's median ``value``, summed.

    Per-command medians keep a slow spell during one command from spoiling a
    whole pass, and use every command run even when the last round is cut.
    """
    return sum(statistics.median(value(o) for o in runs) for runs in samples.values() if runs)


def combined_trace(samples: dict) -> tuple[dict, dict]:
    """Per-layer seconds (median per command) and counts, summed over commands."""
    seconds: dict[str, float] = {}
    counts: dict[str, int] = {}
    for runs in samples.values():
        traces = [o.trace for o in runs if o.trace is not None]
        if not traces:  # every run failed; its problems say why
            continue
        for key in set().union(*(t["seconds"] for t in traces)):
            value = statistics.median(t["seconds"].get(key, 0.0) for t in traces)
            seconds[key] = seconds.get(key, 0.0) + value
        for key, value in traces[0]["counts"].items():
            counts[key] = counts.get(key, 0) + value
    return seconds, counts


def layer_metrics(sec: dict, cnt: dict) -> dict[str, float]:
    """Per-layer values of one pass from its combined trace."""
    s = lambda key: sec.get(key, 0.0)  # noqa: E731
    n = lambda key: cnt.get(key, 0)  # noqa: E731

    def us_per(seconds: float, units: int) -> float:
        return seconds * 1e6 / units if units else 0.0

    policies = [key for key in sec if key.startswith("control.")]
    steps = n("master.macro_steps")
    children = sum(s(key) for key in MASTER_CHILDREN + tuple(policies))
    return {
        "reference.solve_s": s("reference.solve"),
        "reference.solve_calls": n("reference.solve"),
        "reference.solve_us_per_sample": us_per(s("reference.solve"), n("reference.solve.units")),
        "reference.summarize_s": s("reference.summarize"),
        "reference.summarize_us_per_row": us_per(
            s("reference.summarize"), n("reference.summarize.units")
        ),
        "reference.scan_runs": n("reference.scan_runs"),
        "master.run_s": s("master.run"),
        "master.runs": n("master.run"),
        "master.macro_steps": steps,
        "master.self_us_per_step": us_per(s("master.run") - children, steps),
        "quartercar.do_step_s": s("quartercar.do_step"),
        "quartercar.micro_steps": n("quartercar.do_step.units"),
        "quartercar.us_per_micro_step": us_per(s("quartercar.do_step"), n("quartercar.do_step.units")),
        "quartercar.io_us_per_step": us_per(s("quartercar.io"), n("quartercar.do_step")),
        "energy.record_s": s("energy.record"),
        "energy.record_us_per_call": us_per(s("energy.record"), n("energy.record")),
        "control.next_step_s": sum(s(key) for key in policies),
        "control.constant_us_per_call": us_per(s("control.constant"), n("control.constant")),
        "control.ecco_us_per_call": us_per(s("control.ecco"), n("control.ecco")),
        "control.predictor_corrector_us_per_call": us_per(
            s("control.predictor_corrector"), n("control.predictor_corrector")
        ),
        "model.apply_connections_us_per_call": us_per(
            s("model.apply_connections"), n("model.apply_connections")
        ),
        "bench.csv_s": s("bench.csv"),
        "bench.csv_rows": n("bench.csv_rows"),
        "bench.csv_bytes": n("bench.csv_bytes"),
        "bench.csv_us_per_row": us_per(s("bench.csv"), n("bench.csv_rows")),
        "cli.main_s": s("cli.main"),
    }


def cross_checks(workload: Workload, samples: dict) -> list[str]:
    """Counts that must agree if every wrapper saw the calls it should."""
    problems = []
    for key, runs in samples.items():
        traced = [o for o in runs if o.trace is not None]
        for o in traced:
            cnt = o.trace["counts"]
            n = lambda k: cnt.get(k, 0)  # noqa: E731
            steps, bond_steps = n("master.macro_steps"), n("master.bond_steps")
            records, rows = n("energy.record"), n("bench.csv_rows")
            policy_calls = sum(v for k, v in cnt.items() if k.startswith("control."))
            # A run stopped by the bond-power check has recorded its last step, too.
            if not bond_steps <= records <= bond_steps + n("master.failed_bonds"):
                problems.append(f"{key}: {records} energy records != macro steps x bonds {bond_steps}")
            if policy_calls != steps:
                problems.append(f"{key}: policy calls {policy_calls} != macro steps {steps}")
            if steps == 0:
                problems.append(f"{key}: no macro steps traced")
            if rows != o.csv_rows:
                problems.append(f"{key}: bench.csv_rows {rows} != trajectory data rows {o.csv_rows}")
        if any(o.trace["counts"] != traced[0].trace["counts"] for o in traced):
            problems.append(f"{key}: traced counts differ between runs of a deterministic command")
    solves = combined_trace(samples)[1].get("reference.solve", 0)
    if (solves > 0) != workload.oracle:
        problems.append(f"reference.solve_calls {solves} but oracle use is {workload.oracle}")
    return problems


# ------------------------------------------------------------------ reports


def manifest(env: dict[str, str], load: tuple[float, float, float]) -> dict:
    """Where the numbers come from: versions, CPUs, load and thread settings."""
    probe = (
        "import json, platform, numpy, scipy\n"
        "blas = numpy.show_config(mode='dicts')['Build Dependencies']['blas']\n"
        "print(json.dumps({'python': platform.python_version(), 'numpy': numpy.__version__,\n"
        "    'scipy': scipy.__version__,\n"
        "    'openblas': blas.get('name', '?') + ' ' + blas.get('version', '?')}))"
    )
    try:
        out = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        versions = json.loads(out.stdout)
    except (subprocess.TimeoutExpired, ValueError) as exc:
        versions = {"versions": f"unavailable: {exc!r}"}
    commit = "unknown: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            git = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = git.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired) as exc:
            commit = f"unknown: {exc!r}"
    return {
        "commit": commit,
        **versions,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": load,
        "num_threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
        "isolation": "shared sandbox: no CPU pinning or frequency control, so timings carry noise",
    }


def measure(name: str, seed: int, seconds: float, traced: bool, smoke: bool, runner: Runner) -> dict:
    """One run: end-to-end metrics untraced, or per-layer metrics traced."""
    runner.started = time.perf_counter()
    workload = WORKLOADS[name]
    commands = [c for c in workload.commands if not smoke or c.key in SMOKE_KEYS]
    rng = random.Random(f"{name}:{seed}")
    result = {"workload": name, "seed": seed, "trace": int(traced)}
    if traced:
        samples = run_rounds(runner, commands, rng, seconds, (False, True))
        metrics = layer_metrics(*combined_trace(samples[True]))
        traced_wall, plain_wall = (typical_pass(samples[m], lambda o: o.wall) for m in (True, False))
        metrics["trace.overhead_ratio"] = traced_wall / plain_wall - 1.0
        result["cross_check_problems"] = sorted(set(cross_checks(workload, samples[True])))
    else:
        setup = []

        def time_setup():
            setup.append(runner.time_code(SETUP_CODE)[0])

        time_setup()
        samples = run_rounds(runner, commands, rng, seconds, (False,), time_setup, calibrate=True)
        while len(setup) < SETUP_MIN_SAMPLES:
            time_setup()
        runs = samples[False]
        calibration = statistics.median(o.calibration_cpu for r in runs.values() for o in r)
        unscaled = {
            "wall_s": typical_pass(runs, lambda o: o.wall),
            "cpu_s": typical_pass(runs, lambda o: o.cpu),
            "setup_s": statistics.median(setup),
        }
        metrics = {
            "wall_s": typical_pass(runs, lambda o: at_nominal_speed(o.wall, o.calibration_cpu)),
            "cpu_s": typical_pass(runs, lambda o: at_nominal_speed(o.cpu, o.calibration_cpu)),
            "setup_s": at_nominal_speed(unscaled["setup_s"], calibration),
            "peak_rss_mb": max(statistics.median(o.rss_mb for o in r) for r in runs.values() if r),
        }
        result["cross_check_problems"] = []
        result["unscaled"] = unscaled
        result["calibration_cpu_s"] = calibration
        result["setup_samples_s"] = setup
    units = PER_LAYER if traced else END_TO_END
    result["metrics"] = {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()}
    result["commands"] = {
        ("traced " if mode else "") + key: [
            {"wall_s": o.wall, "cpu_s": o.cpu, "rss_mb": o.rss_mb, "ok": not o.problems} for o in runs
        ]
        for mode, by_key in samples.items()
        for key, runs in by_key.items()
    }
    outcomes = [o for by_key in samples.values() for runs in by_key.values() for o in runs]
    failed = [o for o in outcomes if o.problems]
    result["attempted"] = len(outcomes)
    result["failed"] = len(failed)
    result["fail_ratio"] = len(failed) / len(outcomes)
    result["problems"] = sorted({p for o in failed for p in o.problems})
    result["problems"] += [
        f"{key}: not run within {HARD_LIMIT_S} s" for key, runs in samples[False].items() if not runs
    ]
    return result


def report(result: dict) -> None:
    mode = "traced, per layer" if result["trace"] else "untraced, end to end"
    print(f"== {result['workload']} (seed {result['seed']}, {mode})")
    for key, metric in result["metrics"].items():
        print(f"  {key:<42} {metric['value']:>14.6g} {metric['unit']}")
    counts = f"({result['failed']}/{result['attempted']} commands)"
    print(f"  {'fail_ratio':<42} {result['fail_ratio']:>14.6g} ratio   {counts}")
    if "unscaled" in result:
        unscaled = ", ".join(f"{key} {value:.6g}" for key, value in result["unscaled"].items())
        print(f"  unscaled: {unscaled}")
        print(
            f"  machine speed: {CALIBRATION_CODE!r} took {result['calibration_cpu_s']:.4g} s CPU"
            f" (median; nominal {CALIBRATION_NOMINAL_S} s)"
        )
        setup = result["setup_samples_s"]
        print(f"  setup_s samples: n={len(setup)}, max {max(setup):.4g} s")
    # Too few runs per command for a tail percentile with ten samples beyond it.
    for key, runs in result["commands"].items():
        walls = [r["wall_s"] for r in runs]
        if walls:
            median, worst = statistics.median(walls), max(walls)
            print(f"  command {key:<28} n={len(walls):<3} wall median {median:8.4f} s, max {worst:8.4f} s")
    for problem in result["problems"] + result["cross_check_problems"]:
        print(f"  FAILED: {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=0, help="shuffles the command order of each round")
    parser.add_argument("--seconds", type=float, default=40.0, help="measurement window per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), help="0: end to end, 1: per layer")
    parser.add_argument("--smoke", action="store_true", help="one cheap command per workload")
    parser.add_argument("--save", help="also write the full results and manifest to this file")
    args = parser.parse_args()

    if not (SRC / "eccosim" / "__main__.py").is_file():
        print(f"error: no eccosim sources under {SRC}", file=sys.stderr)
        return 2
    load = os.getloadavg()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp), json.loads(EXPECTED_PATH.read_text(encoding="utf-8")))
        names = list(WORKLOADS) if args.workload == "all" else [args.workload]
        modes = [bool(args.trace)] if args.trace is not None else [False, True]
        results = []
        for name in names:
            for traced in modes:
                result = measure(name, args.seed, args.seconds, traced, args.smoke, runner)
                report(result)
                results.append(result)
    info = manifest(runner.env, load)
    print("manifest: " + json.dumps(info, sort_keys=True))
    if args.save:
        saved = {"manifest": info, "results": results}
        Path(args.save).write_text(json.dumps(saved, indent=1) + "\n", encoding="utf-8")

    prefix = len(results) > 1  # "all": one metric per workload and name
    metrics = {
        (f"{r['workload']}.{key}" if prefix else key): metric
        for r in results
        for key, metric in r["metrics"].items()
    }
    print(
        json.dumps(
            {
                "correct": all(not r["problems"] and not r["cross_check_problems"] for r in results),
                "attempted": sum(r["attempted"] for r in results),
                "failed": sum(r["failed"] for r in results),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
