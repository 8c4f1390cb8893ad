"""Host-speed-corrected time.

The host this benchmark runs on drifts between fast and slow spells that
last from under a second to tens of seconds, which moves raw wall times
by tens of percent between identical runs. A fixed pure-Python kernel is
timed at checkpoints; every stretch of wall time between two checkpoints
is scaled by NOMINAL_S / (mean of the kernel times at its two ends). The
kernel's own time is left out: the corrected clock stands still while the
kernel runs.

The kernel is a frozen miniature of the simulator's hot path and imports
nothing from ocb: a depth-first walk over a fixed random graph of small
Python lists, a page lookup per visited node, an OrderedDict LRU of pages
and a short-lived list of (slot, target) pairs per node. A kernel of that
shape tracked the host's spells better than a cache-resident loop of dict
and OrderedDict operations (see README.md). Its graph is built once per
process (about 3 MB) and never grows.
"""
from __future__ import annotations

import bisect
import random
import signal
from collections import OrderedDict
from time import perf_counter

# Kernel time on the reference host (Python 3.11, 2 vCPU sandbox) in a
# fast spell. Corrected seconds are "seconds on that host"; the constant
# only fixes the unit, since two commits are compared with the same one.
NOMINAL_S = 0.009
KERNEL_STEPS = 4000
CHECKPOINT_EVERY_S = 0.2

_NODES = 16384
_LINKS = 4
_NODES_PER_PAGE = 20
_BUFFER_PAGES = 64
_graph: list[list[int]] = []


def _build_graph() -> None:
    rng = random.Random(20070705)
    _graph.extend([rng.randrange(_NODES) for _ in range(_LINKS)]
                  for _ in range(_NODES))


def kernel(steps: int = KERNEL_STEPS) -> int:
    """Fixed pure-Python work; returns the fault count so it is not skipped."""
    if not _graph:
        _build_graph()
    graph = _graph
    buffer: OrderedDict[int, None] = OrderedDict()
    todo = [0]
    node = 0
    faults = 0
    for _ in range(steps):
        node = todo.pop() if todo else (node * 7919 + 1) % _NODES
        page = node // _NODES_PER_PAGE
        if page in buffer:
            buffer.move_to_end(page)
        else:
            faults += 1
            buffer[page] = None
            if len(buffer) > _BUFFER_PAGES:
                buffer.popitem(last=False)
        links = [(slot, target) for slot, target in enumerate(graph[node])]
        if len(todo) < 40:
            todo.extend(target for _slot, target in links)
    return faults


class HostClock:
    """Checkpoint log and the corrected time axis it defines.

    `checkpoint()` runs the kernel and records its time and the interval
    the checkpoint took (kernel plus any check run on frozen time).
    Between the end of checkpoint j and the start of checkpoint j + 1 the
    corrected clock advances at rate NOMINAL_S / mean(k_j, k_j+1); during
    a checkpoint it stands still. Every timed interval must lie between
    two checkpoints, which `timed()` guarantees.
    """

    def __init__(self):
        if not _graph:
            _build_graph()  # outside any checkpoint: building is not kernel time
        self.marks: list[tuple[float, float, float]] = []  # start, end, kernel
        self._armed = False
        self._axis: tuple[list[float], list[float], list[float], list[float]] | None = None

    def checkpoint(self, then=None) -> None:
        """Time the kernel, then run `then()` (if given) on frozen time."""
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, 0)
        start = perf_counter()
        kernel()
        kernel_end = perf_counter()
        if then is not None:
            then()
        self.marks.append((start, perf_counter(), kernel_end - start))
        self._axis = None
        if self._armed:
            signal.setitimer(signal.ITIMER_REAL, CHECKPOINT_EVERY_S)

    def _on_alarm(self, _signum, _frame) -> None:
        self.checkpoint()

    def timed(self, fn, *args, **kwargs):
        """Call fn with checkpoints before, after and every CHECKPOINT_EVERY_S
        inside it; return (result, start, end).

        The checkpoints inside come from SIGALRM, whose handler runs between
        two bytecodes of the main thread, so a single long C call (such as
        json encoding a whole database) is not split.
        """
        self.checkpoint()
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self._armed = True
        signal.setitimer(signal.ITIMER_REAL, CHECKPOINT_EVERY_S)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
            self._armed = False
            signal.signal(signal.SIGALRM, previous)
        self.checkpoint()
        return result, start, end

    def _build_axis(self):
        starts, bases, rates, ends = [], [], [], []
        base = 0.0
        marks = self.marks
        for (_s0, e0, k0), (s1, _e1, k1) in zip(marks, marks[1:]):
            rate = NOMINAL_S / ((k0 + k1) / 2.0)
            starts.append(e0)
            ends.append(s1)
            bases.append(base)
            rates.append(rate)
            base += (s1 - e0) * rate
        self._axis = (starts, bases, rates, ends)

    def at(self, t: float) -> float:
        """Corrected time of wall instant t (after the first checkpoint)."""
        if self._axis is None:
            self._build_axis()
        starts, bases, rates, ends = self._axis
        j = bisect.bisect_right(starts, t) - 1
        if j < 0:
            raise ValueError("instant precedes the first checkpoint")
        if t > self.marks[-1][1]:
            raise ValueError("instant follows the last checkpoint")
        return bases[j] + (min(t, ends[j]) - starts[j]) * rates[j]

    def corrected(self, start: float, end: float) -> float:
        return self.at(end) - self.at(start)

    def durations(self, starts, ends) -> list[float]:
        """Corrected durations of intervals given in nondecreasing start order."""
        if self._axis is None:
            self._build_axis()
        seg_starts, _bases, rates, seg_ends = self._axis
        last = len(seg_starts) - 1
        j = 0
        out = []
        for start, end in zip(starts, ends):
            while j < last and seg_starts[j + 1] <= start:
                j += 1
            if start >= seg_starts[j] and end <= seg_ends[j]:
                out.append((end - start) * rates[j])
            else:
                out.append(self.at(end) - self.at(start))
        return out

    def raw_rate(self) -> float:
        """Mean kernel time over all checkpoints, as a share of NOMINAL_S."""
        times = [k for _s, _e, k in self.marks]
        return sum(times) / len(times) / NOMINAL_S
