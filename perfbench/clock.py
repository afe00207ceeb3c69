"""Wall time of units of work, also scaled to a reference machine speed.

Load on the host changes this machine's speed by up to 2x for tens of
seconds at a time, for every process alike, so plain wall times of the same
work spread by 20-40% between runs. A fixed pure-Python reference is timed
between short segments of the measured work, outside the timed intervals. A
segment's scaled time is its wall time times REF_S over the mean of the
reference times on either side of it: the time it would take on a machine
that runs the reference in REF_S. The reference calls nothing in the
program, so a change to the program moves the scaled time and the wall time
alike.
"""

from __future__ import annotations

import gc
import time

REF_S = 0.0055  # the reference's time inside a run on this 2-vCPU x86_64 machine when the host is quiet
REF_ROUNDS = 2_000
REF_READS = 10_000
REF_TABLE_ROWS = 20_000  # about 3 MB, more than the 2 MB L2 cache


class _Slot:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


class Reference:
    """Fixed work in the program's style. Half of it builds and reads small
    dicts, tuples, lists, sets and slotted objects. The other half reads a
    table larger than the L2 cache in a scattered order, so that, like the
    program, it also waits on memory: host load slows cache-resident and
    memory-bound code by different amounts."""

    def __init__(self):
        self.table = [(i, str(i)) for i in range(REF_TABLE_ROWS)]
        self.order = [(i * 7919) % REF_TABLE_ROWS for i in range(REF_READS)]

    def __call__(self) -> float:
        """Wall seconds of one pass over the fixed work."""
        start = time.perf_counter()
        acc = 0
        for i in range(REF_ROUNDS):
            d = {"x": i, "y": (i, i + 1), "z": [i, _Slot(i, i)]}
            s = {i % 13, i % 7}
            acc += len(d) + d["z"][1].a % 5 + len(s) + sum(d["y"]) + len(sorted([i % 5, 3, 1]))
        table = self.table
        for j in self.order:
            row = table[j]
            acc += row[0] % 3 + len(row[1])
        return time.perf_counter() - start


class Clock:
    """Times units of work; `raw` holds their wall seconds, leaving out the
    reference passes between their segments, and `scaled` the same scaled
    to the reference speed.

    A unit is cut into segments at each `mark()` and at its end, and the
    reference runs after each segment, outside the timed interval. The
    host's slow spells last seconds, longer than a segment but shorter than
    a campaign, so each segment is scaled by the references around it."""

    def __init__(self, reference=None):
        self.reference = reference or Reference()
        self.raw: list = []
        self.scaled: list = []
        self.references: list = []  # seconds of each reference pass
        self._before = self.reference()
        self._start = 0.0
        self._raw = self._scaled = 0.0

    def measure(self, fn):
        """Call `fn()` after a full garbage collection, time it, and return its result."""
        gc.collect()
        self._raw = self._scaled = 0.0
        self._start = time.perf_counter()
        result = fn()
        self._close_segment()
        self.raw.append(self._raw)
        self.scaled.append(self._scaled)
        return result

    def mark(self):
        """Cut the unit being measured at this point."""
        self._close_segment()
        self._start = time.perf_counter()

    def _close_segment(self):
        wall = time.perf_counter() - self._start
        after = self.reference()
        self.references.append(after)
        self._raw += wall
        self._scaled += wall * 2 * REF_S / (self._before + after)
        self._before = after
