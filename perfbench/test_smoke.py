"""Smoke test of the benchmark harness: result schema and metric names only.

Runs the harness with ``--smoke`` (one cheap command per workload, 1 s runs)
and makes no timing assertions.  Run with::

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _harness(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--smoke", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stdout
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["failed"] == 0
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
    return result


def test_every_workload_reports_every_metric():
    before = set(ROOT.glob(".perfbench-*"))
    proc = _harness("--seed", "1")
    result = _result(proc)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert set(result["metrics"]) == {f"{w}.{n}" for w in WORKLOADS for n in names}
    for spec in SPEC["end_to_end"] + SPEC["per_layer"]:
        for w in WORKLOADS:
            assert result["metrics"][f"{w}.{spec['name']}"]["unit"] == spec["unit"]
    assert "manifest: " in proc.stdout
    assert set(ROOT.glob(".perfbench-*")) <= before  # working files removed


def test_single_workload_uses_plain_names():
    plain = _result(_harness("--workload", "onsets", "--trace", "0"))
    assert set(plain["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    traced = _result(_harness("--workload", "onsets", "--trace", "1"))
    assert set(traced["metrics"]) == {m["name"] for m in SPEC["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _harness("--workload", "tables", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
