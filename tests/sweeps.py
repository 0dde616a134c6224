"""The default ``sweep``, run once per test session for every test that reads it."""

from functools import lru_cache

from eccosim.bench import ExperimentConfig, SweepPoint, step_size_sweep
from eccosim.cli import _log_spaced


@lru_cache(maxsize=None)
def default_sweep() -> tuple[SweepPoint, ...]:
    """``eccosim sweep`` at its defaults: linear preset, reticulation A, the
    preset's 4 s horizon, nine constant steps log-spaced from 0.1 to 10 ms."""
    return tuple(step_size_sweep(ExperimentConfig(), _log_spaced(1e-4, 1e-2, 9)))
