"""Yardsticks: fixed pieces of work whose time tells how fast the machine
runs at the moment, so that the benchmark's timings can be given at one
reference speed.

On a shared host the same code runs up to twice as long in one minute as in
the next, and such spells last longer than a run.  CPU time slows down with
the wall clock, so timing on it alone does not help.  The benchmark
therefore takes a reading of a yardstick between operations and scales each
operation's time by the yardstick's reference time over the mean of the
readings just before and just after it.  No yardstick touches sincbounds,
so a change to the program moves the scaled times exactly as it moves the
unscaled ones.

    COMPUTE   in process: interpreted scalar float code with calls and small
              objects, and numpy ufuncs on arrays; for operations that call
              the library in the measuring process.  Wall-clock time.
    ARRAYS    in process: numpy ufuncs on fresh 64 K-element arrays, and
              first writes to fresh anonymous memory, about half and half;
              for operations on large arrays, which spend about half their
              time in the kernel's page faults.  Wall-clock time.
    PROCESS   a fresh interpreter that imports numpy; for operations that
              start a process, and for set-up.  CPU time of the children:
              the time of a fresh interpreter on the wall clock moves by
              half from one minute to the next, with whether its helper
              threads find the other core free, while its CPU time and that
              of the operations keep in step.
"""

from __future__ import annotations

import math
import mmap
import resource
import subprocess
import sys
import time

import numpy as np

_X = np.linspace(0.0, 1.5, 16384)
_Y = np.empty_like(_X)
_X64 = np.linspace(0.0, 1.5, 65536)
_PAGE = mmap.PAGESIZE


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float):
        self.a, self.b = a, b


def _mean(p: _Pair) -> float:
    return (p.a - p.b) / (math.log(p.a) - math.log(p.b)) if p.a != p.b else p.a


def _compute() -> None:
    s = 0.0
    for i in range(1, 3500):
        p = _Pair(1.0 + i * 1e-3, 2.0 + math.sin(i))
        s += _mean(p) + math.cos(p.a) * math.sqrt(p.b)
    for _ in range(14):
        np.sin(_X, out=_Y)
        np.multiply(_Y, _X, out=_Y)
        s += float(np.sum(np.cosh(_X) - _Y))


def _arrays() -> None:
    s = 0.0
    for _ in range(3):
        y = np.sin(_X64) * _X64
        s += float(np.sum(np.cosh(_X64) - y))
    fresh = mmap.mmap(-1, 1024 * _PAGE)
    pages = np.frombuffer(fresh, dtype=np.uint8)
    pages[::_PAGE] = 1
    del pages
    fresh.close()


def _process() -> None:
    # no timeout: with one, Popen.wait polls, and its sleeps of up to 50 ms
    # would round the reading up
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdout=subprocess.DEVNULL)


def children_cpu_s() -> float:
    """CPU time, user and system, of the children that have ended."""
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


class Yardstick:
    """`clock` is what operations scaled by this yardstick are timed with.
    `reference_s` is a reading's time, in seconds, on a calm 2-core Xeon VM
    (Python 3.11, numpy 2.4): about the fastest of many readings.  Scaled
    timings are seconds at that speed."""

    def __init__(self, work, clock, reference_s: float):
        self.work, self.clock, self.reference_s = work, clock, reference_s

    def reading(self) -> float:
        """Seconds that one piece of the yardstick's work takes now."""
        start = self.clock()
        self.work()
        return self.clock() - start

    def scale(self, seconds: float, before: float, after: float) -> float:
        """`seconds`, taken between readings `before` and `after`, at the
        reference speed."""
        return seconds * self.reference_s * 2.0 / (before + after)


COMPUTE = Yardstick(_compute, time.perf_counter, 0.0045)
ARRAYS = Yardstick(_arrays, time.perf_counter, 0.0033)
PROCESS = Yardstick(_process, children_cpu_s, 0.180)
