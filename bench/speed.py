"""Machine speed, sampled while each op runs, to give op times at reference speed.

On a shared host, other tenants slow the cores down by up to 2x.  The speed
changes within a second and in spells of a minute or more, so a slow spell
can cover a whole run.  The operating system inside the machine does not see
it: CPU time grows with wall time.  So while an op runs, a timer signal
interrupts it every INTERVAL_S and times one run of a fixed unit of work.
The op's speed is the unit's reference time over the mean time of those runs
and of a few runs just before and after the op.  A time at reference speed
is the op's wall time, less the time spent sampling, times that speed: the
time the op takes on a core that runs the unit in its reference time.

A slow spell slows interpreter-bound work by a larger factor than a NumPy
loop, so each workload samples the unit that matches what its ops do: the
interpreter unit (dict and int work) for pure-Python ops, the mixed unit
(the same work and an einsum of the form success_probability_bounds uses)
for ops that also spend long in NumPy.  Each sample runs the unit twice and
times the second run: the first one refills the caches the op has just
evicted.  The units call nothing in ineqlab and touch none of its state, so
the program's outputs are the same with or without sampling, and a change to
the program never changes a unit.

Import this module only after harness.pin_threads(): it imports numpy.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.01    # wall time between two samples inside an op
EDGE_SAMPLES = 3     # samples taken just before and just after each op

_RNG = np.random.default_rng(0)
_BLOCK = _RNG.random((32, 8)) + 1j * _RNG.random((32, 8))
_BLOCK_CONJ = _BLOCK.conj()
_RHO = _RNG.random((32, 32)) + 1j * _RNG.random((32, 32))


def _dict_work() -> None:
    table: dict[int, int] = {}
    for i in range(400):
        table[i % 97] = table.get(i % 97, 0) + i * i


def interpreter_unit() -> float:
    """Wall seconds of one run of the interpreter unit: dict and int work."""
    start = time.perf_counter()
    _dict_work()
    return time.perf_counter() - start


def mixed_unit() -> float:
    """Wall seconds of one run of the mixed unit: the same work and an einsum."""
    start = time.perf_counter()
    _dict_work()
    np.einsum("ij,ik,kj->", _BLOCK_CONJ, _RHO, _BLOCK)
    return time.perf_counter() - start


# each unit with its reference time: about its 5th percentile over 3,000 warm
# runs on the 2-core Intel Xeon virtual machine the benchmark was written on
# (Python 3.11, NumPy 2.4), so that times at reference speed read close to
# wall times on its fast cores
UNITS = {"interpreter": (interpreter_unit, 57e-6), "mixed": (mixed_unit, 110e-6)}


def sample(unit) -> float:
    """unit's time with warm caches: run it once untimed, then time it."""
    unit()
    return unit()


def disarm() -> None:
    """Stop the sampling timer; safe to call when it is not running."""
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


class SpeedSampler:
    """Samples a unit around and inside one op at a time (SIGALRM, main thread only)."""

    def __init__(self, unit: str = "interpreter", warmup: int = 10):
        self._unit, self._unit_s = UNITS[unit]
        self._inside: list[float] = []
        self._edges: list[float] = []
        self._spent = 0.0
        for _ in range(warmup):   # the interpreter specialises the unit on its first runs
            sample(self._unit)

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self._inside.append(sample(self._unit))
        self._spent += time.perf_counter() - start

    def start(self) -> None:
        """Sample before the op, then arm the timer; call just before the op."""
        self._inside = []
        self._spent = 0.0
        self._edges = [sample(self._unit) for _ in range(EDGE_SAMPLES)]
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> tuple[float, float]:
        """Disarm the timer, sample after the op; call just after the op.

        Returns the seconds the samples inside the op took, and the op's speed
        relative to the reference speed (above 1 is faster).
        """
        disarm()
        spent = self._spent
        self._edges += [sample(self._unit) for _ in range(EDGE_SAMPLES)]
        return spent, self._unit_s / statistics.fmean(self._inside + self._edges)
