"""Self-checks of the speed sampler: python3 -m pytest bench"""
from __future__ import annotations

import time

from harness import pin_threads

pin_threads()

import speed  # noqa: E402  (imports numpy, so only after pin_threads)


def busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_sampler_samples_inside_the_op_and_reports_its_cost():
    sampler = speed.SpeedSampler(warmup=2)
    sampler.start()
    start = time.perf_counter()
    busy(0.1)
    wall = time.perf_counter() - start
    spent, rate = sampler.stop()
    # about ten samples of well under 1 ms each land inside a 0.1 s op
    assert 0 < spent < 0.5 * wall
    assert rate > 0


def test_sampler_disarms_its_timer():
    sampler = speed.SpeedSampler(warmup=0)
    sampler.start()
    sampler.stop()
    sampler._inside.clear()
    busy(0.05)
    assert sampler._inside == []
