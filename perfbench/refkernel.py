"""The fixed reference kernel and the normalised clock built on it.

The kernel never calls tensorgp.  It mixes the three kinds of work the
library spends its time on: small int64 numpy row operations (the F_p
elimination path), ``Fraction`` arithmetic (the Q path) and the creation
and hashing of small frozen objects (the map and module wrappers), over
pools large enough that it works out of the caches the way the library
does.  Its work is fixed, so any change in its measured cost is a change
in the speed of the machine, not of the code.

The machine's speed is not steady: the cost of one reference slice can
halve and double again within seconds, and passes of the same work in
two processes can differ by a quarter in CPU time.  So the kernel runs in
short slices interleaved with the workload: a profiling timer interrupts
the process every ``SAMPLE_INTERVAL_S`` of CPU time and runs one
reference slice, which lands inside long library calls too.  A timed
interval, with the slices inside it subtracted, is scaled by

    NOMINAL_S / (mean cost of the reference slices in and around it)

which turns CPU seconds into reference-normalised seconds: the time the
same work would take on a machine where one reference slice costs
exactly ``NOMINAL_S``.  The mean, not the median, is used, because it
weighs the machine's fast and slow states by the time spent in each.
"""

from __future__ import annotations

import atexit
import gc
import signal
import statistics
import time
from array import array
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Nominal cost of one reference slice, in seconds.  Close to its typical
# cost on a 2-core x86-64 machine under Python 3.11, so that normalised
# figures read about like CPU seconds there.
NOMINAL_S = 0.011
# CPU time between two reference slices, and the fewest slices an
# interval is normalised by (about one and a half seconds of CPU time)
SAMPLE_INTERVAL_S = 0.25
MIN_SAMPLES = 6
# units of work in one reference slice
_UNITS = 8

_P = 101
_POOL_MATRICES = 512
_POOL_CELLS = 40_000


@dataclass(frozen=True)
class _Cell:
    row: int
    col: int
    value: int


def _lcg_values(n: int, seed: int, modulus: int) -> list:
    state, out = seed, []
    for _ in range(n):
        state = (state * 6364136223846793005 + 1442695040888963407) & ((1 << 64) - 1)
        out.append((state >> 33) % modulus)
    return out


# Fixed pools, large enough that the kernel works out of the caches the
# way the library does: a few hundred small matrices, and a table of
# frozen objects walked in a scrambled order.
_MATRICES = np.array(_lcg_values(_POOL_MATRICES * 196, 7, _P), dtype=np.int64) \
    .reshape(_POOL_MATRICES, 14, 14)
_FRAC_N = 4
_FRAC_ROWS = [[Fraction(((3 * i + 5 * j) % 7) - 3, 1 + (i + j) % 3) for j in range(_FRAC_N)]
              for i in range(_FRAC_N)]
_CELLS = [_Cell(i % 251, i % 241, i) for i in range(_POOL_CELLS)]
_TABLE = {cell: i for i, cell in enumerate(_CELLS)}
_WALK = _lcg_values(400, 11, _POOL_CELLS)


def _numpy_rows(which: int) -> int:
    """Row reduction mod p of one pool matrix, one numpy row operation
    per pivot."""
    r_mat = _MATRICES[which].copy()
    m, n = r_mat.shape
    r = 0
    for c in range(n):
        nz = np.nonzero(r_mat[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            r_mat[[r, pr]] = r_mat[[pr, r]]
        inv = pow(int(r_mat[r, c]), _P - 2, _P)
        r_mat[r] = (r_mat[r] * inv) % _P
        col = r_mat[:, c].copy()
        col[r] = 0
        r_mat = (r_mat - np.outer(col, r_mat[r])) % _P
        r += 1
        if r == m:
            break
    return r


def _fraction_rows() -> int:
    """Gauss-Jordan elimination over Q on a fixed small matrix."""
    n = _FRAC_N
    rows = [list(row) for row in _FRAC_ROWS]
    rank = 0
    for c in range(n):
        pr = next((i for i in range(rank, n) if rows[i][c] != 0), None)
        if pr is None:
            continue
        rows[rank], rows[pr] = rows[pr], rows[rank]
        pv = rows[rank][c]
        rows[rank] = [v / pv for v in rows[rank]]
        for i in range(n):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _object_churn() -> int:
    """Walk the object table in a scrambled order: build a fresh frozen
    object equal to each visited one and look it up by hash."""
    total = 0
    for j in _WALK:
        cell = _CELLS[j]
        total += _TABLE[_Cell(cell.row, cell.col, cell.value)]
    return total


def reference_work() -> int:
    """One reference slice: a fixed mix of the three kinds of work."""
    out = 0
    for unit in range(_UNITS):
        out += _numpy_rows(37 * unit) + _fraction_rows() + _object_churn()
    return out


class Sampler:
    """Runs a reference slice every SAMPLE_INTERVAL_S of process CPU
    time from a profiling timer, and turns raw CPU seconds into
    normalised seconds.  Use from the main thread only.

    ``on_slice``, when set, is called with the CPU cost of every slice, so
    that a tracer can take the slice out of the span it interrupted."""

    def __init__(self):
        self.starts = array("d")   # thread CPU time at which each slice began
        self.costs = array("d")    # measured CPU cost of each slice
        self.on_slice = None
        self._expected = reference_work()
        self._previous = None

    def _on_timer(self, signum, frame):
        # the cyclic collector would scan the program's heap inside the
        # slice, a cost that grows with the program and not with the
        # machine's speed; the slice's own objects die by reference count
        collecting = gc.isenabled()
        gc.disable()
        t0 = time.thread_time()
        result = reference_work()
        t1 = time.thread_time()
        if collecting:
            gc.enable()
        if result != self._expected:
            raise RuntimeError("the reference kernel gave a different result")
        self.starts.append(t0)
        self.costs.append(t1 - t0)
        if self.on_slice is not None:
            self.on_slice(t1 - t0)

    def start(self):
        """Run one slice now, so that there is always one to scale by,
        and then one every interval."""
        self._on_timer(None, None)
        self._previous = signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        atexit.register(self.stop)

    def stop(self):
        if self._previous is None:
            return
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._previous = None
        atexit.unregister(self.stop)

    def mark(self) -> int:
        return len(self.costs)

    def spent(self, first: int, last: int, t0: float, t1: float) -> float:
        """CPU time of the slices among first..last-1 that ran between the
        thread CPU times t0 and t1."""
        return sum(self.costs[i] for i in range(first, last) if t0 <= self.starts[i] < t1)

    def scale(self, first: int, last: int) -> float:
        """Factor from raw to normalised seconds for an interval in which
        slices first..last-1 ran, widened on both sides to MIN_SAMPLES."""
        n = len(self.costs)
        pad = max(0, MIN_SAMPLES - (last - first) + 1) // 2
        lo, hi = max(0, first - pad), min(n, last + pad)
        if hi - lo < MIN_SAMPLES:
            lo, hi = max(0, hi - MIN_SAMPLES), min(n, lo + MIN_SAMPLES)
        return NOMINAL_S / statistics.fmean(self.costs[lo:hi])
