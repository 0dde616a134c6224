"""Stability scan: the block divergence check gives the verdict of a check after every row,
and the scan runs its lower bracket end only when no bisection step was stable."""

import pytest

from eccosim import bench
from eccosim.bench import ExperimentConfig, NoOnsetInRange, _diverges, stability_scan
from eccosim.cli import _SCAN_RANGES
from eccosim.control import ConstantStep
from eccosim.master import SimulatorFailure, run_cosimulation
from eccosim.model import SimulatorSlot

THRESHOLD = 1e6


def _diverges_row_by_row(cfg, dt, threshold=THRESHOLD):
    """The verdict of a check after every row, which stops at the first row beyond."""

    def beyond(record):
        last = record.step_count - 1
        values = (record.column(name, start=last)[0] for name in record.probe_names)
        return any(abs(v) > threshold for v in values)

    try:
        record = bench.run_experiment(cfg.replace(controller="constant", dt0=dt), stop=beyond)
    except SimulatorFailure:
        return True
    return not record.complete


@pytest.mark.parametrize("kind, bracket", [("A", (0.040, 0.080)), ("B", (0.005, 0.020))])
def test_block_check_matches_a_check_after_every_row_at_every_bisection_point(
    kind, bracket, monkeypatch
):
    verdicts = []

    def diverges(cfg, dt, threshold):
        verdicts.append((dt, _diverges(cfg, dt, threshold)))
        return verdicts[-1][1]

    monkeypatch.setattr(bench, "_diverges", diverges)
    cfg = ExperimentConfig(reticulation=kind, t_end=100.0)
    stability_scan(cfg, *bracket)
    assert len(verdicts) > 2 and {v for _, v in verdicts} == {True, False}
    for dt, verdict in verdicts:
        assert verdict == _diverges_row_by_row(cfg, dt), dt


class _Spike(SimulatorSlot):
    """No inputs or outputs; its one probe reads ``value`` after step ``at``, 0 after the others."""

    probe_names = ("x",)

    def __init__(self, at, value):
        self.at = at
        self.value = value
        self.steps = 0

    def set_inputs(self, u):
        pass

    def do_step(self, t, dt):
        self.steps += 1

    def get_outputs(self):
        return ()

    def probes(self):
        return (self.value if self.steps == self.at else 0.0,)


@pytest.mark.parametrize("value", [2.0, -2.0])
@pytest.mark.parametrize(
    "beyond, steps, rows_run",
    [
        (64, 200, 64),  # the last row of a block: the run stops there
        (65, 200, 128),  # the first row of the next block: that block stops the run
        (99, 100, 100),  # only in the final, partial block of a complete run
        (101, 100, 100),  # never: stable
    ],
)
def test_block_check_finds_a_single_row_beyond_wherever_it_falls(
    beyond, steps, rows_run, value, monkeypatch
):
    # row `beyond` alone probes +-2, beyond the threshold 1; every other row probes 0
    ran = []

    def spike_run(cfg, stop=None):
        record = run_cosimulation(
            [_Spike(beyond, value)], (), ConstantStep(cfg.dt0), cfg.t_end, stop=stop
        )
        ran.append(record.step_count)
        return record

    monkeypatch.setattr(bench, "run_experiment", spike_run)
    cfg = ExperimentConfig(t_end=steps * 0.5)
    verdict = beyond <= steps
    assert _diverges_row_by_row(cfg, 0.5, 1.0) is verdict
    assert _diverges(cfg, 0.5, 1.0) is verdict
    assert ran[-1] == rows_run


@pytest.mark.parametrize("kind", ["A", "B"])
def test_rows_past_the_first_beyond_can_only_add_a_failure(kind, monkeypatch):
    # at 1 s steps row 1 is beyond; the block check runs on until the bond power
    # overflows at row 19, before its first block ends, and fails: a divergence too
    outcomes = []
    real_run = bench.run_experiment

    def run(cfg, stop=None):
        try:
            record = real_run(cfg, stop=stop)
        except SimulatorFailure as failure:
            outcomes.append((failure.record.step_count, "failed"))
            raise
        outcomes.append((record.step_count, "complete" if record.complete else "stopped"))
        return record

    monkeypatch.setattr(bench, "run_experiment", run)
    cfg = ExperimentConfig(reticulation=kind, t_end=100.0)
    assert _diverges_row_by_row(cfg, 1.0) and _diverges(cfg, 1.0, THRESHOLD)
    assert outcomes == [(1, "stopped"), (19, "failed")]


def _spy(monkeypatch, verdict):
    """Replace the scan's ``_diverges`` with ``verdict(cfg, dt, threshold)``; returns the
    list of the steps run, in order."""
    ran = []

    def diverges(cfg, dt, threshold):
        ran.append(dt)
        return verdict(cfg, dt, threshold)

    monkeypatch.setattr(bench, "_diverges", diverges)
    return ran


@pytest.mark.parametrize("kind, runs, onset", [("A", 10, 0.05921875), ("B", 9, 0.011328125)])
def test_default_scan_does_not_run_its_lower_end(kind, runs, onset, monkeypatch):
    ran = _spy(monkeypatch, _diverges)
    lo, hi = _SCAN_RANGES[kind]
    assert stability_scan(ExperimentConfig(reticulation=kind, t_end=100.0), lo, hi) == onset
    assert len(ran) == runs and ran[0] == hi and lo not in ran


def test_divergent_lower_end_with_monotone_verdicts_is_refused(monkeypatch):
    # every step diverges: no bisection step is stable, so the lower end is run last
    ran = _spy(monkeypatch, lambda cfg, dt, threshold: True)
    with pytest.raises(NoOnsetInRange, match="^lower bound 0.04 already diverges$"):
        stability_scan(ExperimentConfig(), 0.04, 0.08)
    assert ran[0] == 0.08 and ran[-1] == 0.04 and ran.count(0.04) == 1 and len(ran) > 3


def test_stable_bisection_step_bounds_the_onset_whatever_the_lower_end(monkeypatch):
    # not monotone: the lower end diverges, and so does every step but the first midpoint;
    # the scan returns the divergent end of the bracket it ran, (stable, stable + resolution]
    stable = 0.5 * (0.04 + 0.08)
    ran = _spy(monkeypatch, lambda cfg, dt, threshold: dt != stable)
    onset = stability_scan(ExperimentConfig(), 0.04, 0.08, resolution=1e-4)
    assert ran[:2] == [0.08, stable] and 0.04 not in ran
    assert onset == ran[-1] and stable < onset <= stable + 1e-4


def test_upper_bound_is_refused_first_when_both_ends_are_wrong(monkeypatch):
    ran = _spy(monkeypatch, lambda cfg, dt, threshold: dt < 0.06)
    with pytest.raises(NoOnsetInRange, match="^upper bound 0.08 does not diverge$"):
        stability_scan(ExperimentConfig(), 0.04, 0.08)
    assert ran == [0.08]
