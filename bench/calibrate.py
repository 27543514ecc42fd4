"""Fixed pure-Python reference work that gauges the host's speed.

The benchmark's hosts change speed by up to half within a second, back and
forth, and for minutes at a time (see ``README.md``).  Such a change slows
the library and a reference kernel alike: on a 2-vCPU host the ratio of a
block of library queries to the kernel stayed within 4% while both swung by
50%.  So the worker times the reference between queries and scales each
query's time by the reference's nominal time over its local time.  The
end-to-end times are thus reported at one fixed speed: that of a host on
which the reference takes its nominal time.

There are two references, because the host's vCPUs do not change speed
together:

* the kernel, run in the measuring process itself (``REFERENCE_S``), for
  queries that run in that process;
* a reference process, a fresh interpreter that runs the kernel
  (``REFERENCE_PROCESS_S``), for what runs in a process of its own: the
  ``cli`` queries and the set-up workers.  The kernel in the parent did not
  follow them (their ratio to it moved by 40% within 90 s), while their
  ratio to a fresh interpreter moved by at most 7%.

The kernel does what the library does most: it walks small tuple trees
with recursive calls and a memo dict, over every valuation of a few
variables.  It uses nothing from ``propctl``, so no change to the library
changes it.
"""

from __future__ import annotations

import bisect
import random
import statistics
import subprocess
import sys
from array import array
from pathlib import Path
from time import perf_counter

#: Kernel time on the reference host; in-process times are reported at this speed.
REFERENCE_S = 0.0005

#: Reference-process time on the reference host; the times of processes
#: are reported at this speed.
REFERENCE_PROCESS_S = 0.06

#: Longest time between two samples while queries run, per reference.
INTERVAL_S = 0.01
PROCESS_INTERVAL_S = 0.2

#: Samples on each side of a query that its local speed is taken from.
NEIGHBOURS = 3

#: Kernel runs in one reference process.
PROCESS_KERNELS = 10

VARIABLES = 8
VALUATIONS = 16


def _build(rng: random.Random, depth: int):
    if depth == 0 or rng.random() < 0.2:
        return ("var", rng.randrange(VARIABLES))
    op = rng.choice(("and", "or", "not", "iff"))
    if op == "not":
        return (op, _build(rng, depth - 1))
    return (op, _build(rng, depth - 1), _build(rng, depth - 1))


_rng = random.Random(7)
FORMULAS = [_build(_rng, 6) for _ in range(6)]


def _value(node, env, memo) -> bool:
    key = id(node)
    hit = memo.get(key)
    if hit is not None:
        return hit
    op = node[0]
    if op == "var":
        out = env[node[1]]
    elif op == "not":
        out = not _value(node[1], env, memo)
    elif op == "and":
        out = _value(node[1], env, memo) and _value(node[2], env, memo)
    elif op == "or":
        out = _value(node[1], env, memo) or _value(node[2], env, memo)
    else:
        out = _value(node[1], env, memo) == _value(node[2], env, memo)
    memo[key] = out
    return out


def kernel() -> int:
    out = 0
    for bits in range(VALUATIONS):
        env = tuple(bool(bits >> i & 1) for i in range(VARIABLES))
        for f in FORMULAS:
            out += _value(f, env, {})
    return out


def kernel_time() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0


_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import calibrate; " \
         f"[calibrate.kernel() for _ in range({PROCESS_KERNELS})]"


def process_time() -> float:
    """Time to start a fresh interpreter that runs the kernel, and end it."""
    argv = [sys.executable, "-c", _CHILD, str(Path(__file__).resolve().parent)]
    t0 = perf_counter()
    # No timeout: with one, ``wait`` polls with growing sleeps, which would
    # round the time up.  The kernel always ends.
    subprocess.run(argv, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return perf_counter() - t0


class Gauge:
    """Reference samples taken while queries run, and the speed they give.
    ``in_process`` picks the kernel, otherwise the reference process."""

    def __init__(self, in_process: bool = True):
        self.probe = kernel_time if in_process else process_time
        self.reference = REFERENCE_S if in_process else REFERENCE_PROCESS_S
        self.interval = INTERVAL_S if in_process else PROCESS_INTERVAL_S
        self.at = array("d")
        self.took = array("d")

    def sample(self) -> None:
        self.at.append(perf_counter())
        self.took.append(self.probe())

    def tick(self) -> None:
        """Sample the reference if the last sample is ``interval`` old."""
        if not self.at or perf_counter() - self.at[-1] >= self.interval:
            self.sample()

    def scale(self, when: float) -> float:
        """Factor that takes a time measured at ``when`` to the reference
        speed: the nominal time over the median of the nearest samples."""
        i = bisect.bisect(self.at, when)
        near = self.took[max(0, i - NEIGHBOURS):i + NEIGHBOURS]
        return self.reference / statistics.median(near)
