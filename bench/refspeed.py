"""Reference-speed clocks: timings scaled by a fixed reference timed around them.

On a shared host the speed of one CPU drifts between regimes that last from
a fraction of a second to minutes, and the raw median of a fixed job moves
by tens of percent between runs.  Each timed interval is therefore scaled
by ``R0 / R``, where ``R`` is the median time of a fixed reference timed in
the blocks just before and just after the interval.  A slow regime
stretches the interval and the reference alike, so the ratio stays put.

Two references, each chosen because its time follows host speed the way
the timed work does:

* ``kernel`` (in-process jobs): Python float math, small object and frozen
  dataclass allocation, a scalar Brent solve on a Python callback, string
  formatting, and small and medium numpy calls, the mix the simulator and
  map stacks run.
* ``stdlib_import`` (fresh-interpreter set-up): a new interpreter importing
  a fixed set of standard-library modules.  Process start, file reads and
  module execution respond to the host as the package import does; the
  in-process kernel follows them only about half as strongly.

Neither reference imports ``relaydde``, so no change to the program can
move them.
"""

from __future__ import annotations

import math
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

# Nominal reference times in seconds.  A timing "at reference speed" is the
# raw time multiplied by R0 / R; on a host where the reference takes R0 it
# equals the raw time.
KERNEL_R0 = 0.005
IMPORT_R0 = 0.080

REPEATS = 3

_STDLIB_MODULES = "json, decimal, email.parser, argparse, dataclasses, fractions, statistics"


class _Point:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


@dataclass(frozen=True)
class _State:
    x: float
    y: float


_GRID = np.linspace(0.0, 1.0, 64)
_BIG = np.linspace(0.0, 1.0, 200_000)


def _decayed_x(t, st, mu, w):
    d = math.exp(-mu * t)
    return d * (math.cos(w * t) * st.x - math.sin(w * t) / w * (mu * st.x + 2.0 * mu * (st.y - 1.0)))


def kernel() -> float:
    """Fixed in-process reference work; returns a value so none is skipped."""
    acc = 0.0
    pts = []
    x = 0.3
    for i in range(1000):
        e = math.exp(-0.01 * (i % 50))
        x = e * math.cos(x) - 0.5 * math.sin(1.7 * x) + 1e-3 * i
        p = _Point(x, e)
        pts.append((p.a, p.b))
        acc += p.a * p.b
    acc += float(np.asarray(pts).sum())
    for i in range(100):
        acc += float(np.dot(_GRID, np.sin(_GRID * (i % 7 + 1))))
    mu, w = 0.7, 3.1
    for i in range(30):
        st = _State(0.3 + 0.001 * i, 0.2)
        acc += brentq(_decayed_x, 0.0, math.pi / w, args=(st, mu, w), xtol=1e-14)
    text = ",".join(format(a, ".17g") for a, _ in pts[:400])
    big = np.sin(_BIG * 3.0) * 1.0001
    return acc + len(text) + float(big[::1000].sum())


def stdlib_import() -> None:
    """Fixed fresh-interpreter reference: start Python, import stdlib modules."""
    subprocess.run([sys.executable, "-c", f"import {_STDLIB_MODULES}"],
                   check=True, timeout=60, capture_output=True)


class RefClock:
    """Times intervals and scales each to reference speed.

    Reference blocks are shared: the block after one interval is the block
    before the next, so back-to-back intervals cost one block each.
    """

    def __init__(self, reference=kernel, r0=KERNEL_R0):
        self.reference = reference
        self.r0 = r0
        self.reference()  # warm its code paths and caches
        self.samples: list[float] = []
        self._before = self._block()

    def _block(self) -> list[float]:
        out = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            self.reference()
            out.append(time.perf_counter() - t)
        return out

    def measure(self, fn):
        """Run fn(); return (result, raw_s, ref_s, scale) with ref_s = raw_s * scale."""
        t = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - t
        after = self._block()
        scale = self.r0 / statistics.median(self._before + after)
        self.samples.extend(after)
        self._before = after
        return result, raw, raw * scale, scale

    def rebase(self):
        """Re-time the block before the next interval after untimed work."""
        self._before = self._block()
