"""A fixed pure-Python loop that gauges the host's current speed.

The shared hosts this benchmark runs on drift in speed by ±25 % over
minutes, far more than the changes the benchmark must resolve.  Timing
this loop between repeats and rescaling each repeat's host times by how
fast the loop ran next to it removes most of that drift.

The loop has two parts, because neighbours slow the simulator down both
through the core and through the shared cache and memory: a short burst of
calls and attribute and dict traffic on a small working set, then a longer
pointer chase through a 32 MB table.  On a 2-core VM, rescaling by the
chase cut the spread of 10-repeat medians of one scenario from about 0.14
of the median to about 0.05; by the core part alone, only to about 0.09.

Nothing here allocates garbage-collected objects while the program runs,
so the program's heap does not change the loop's cost, and the table is
built before the first repeat.  It is the benchmark's own code: a change
to ``src/`` cannot speed it up.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

#: Reference-loop time that defines one normalised second: a host on which
#: the loop takes this long reports normalised host times equal to wall
#: times.  (A 2.1 GHz Xeon VM core takes about this long.)
NOMINAL_S = 0.15

CPU_ROUNDS = 100_000
CHASE_SLOTS = 1 << 22   # 8-byte slots: 32 MB
CHASE_STEPS = 700_000


class _Slot:
    __slots__ = ("value", "next")


def _step(slot: _Slot, table: dict, key: int) -> _Slot:
    slot.value = table.get(key, 0) + 1
    table[key] = slot.value
    return slot.next


def cpu_loop(rounds: int = CPU_ROUNDS) -> int:
    slots = [_Slot() for _ in range(64)]
    for i, slot in enumerate(slots):
        slot.value = 0
        slot.next = slots[(7 * i + 1) % 64]
    table = dict.fromkeys(range(512), 0)
    ring = [0] * 32
    slot = slots[0]
    for i in range(rounds):
        slot = _step(slot, table, i & 511)
        ring[i & 31] += slot.value
    return sum(table.values()) + sum(ring)


class ReferenceLoop:
    """Owns the pointer-chase table; :meth:`seconds` times one loop."""

    def __init__(self) -> None:
        # a full-period LCG step (multiplier 1 mod 4, odd increment) visits
        # every slot once per cycle in a scattered order; built in chunks so
        # building does not raise the process's peak memory above the table
        self.successor = array("q")
        chunk = 1 << 16
        for low in range(0, CHASE_SLOTS, chunk):
            slots = np.arange(low, low + chunk, dtype=np.int64)
            step = (slots * 1_103_515_245 + 12_345) & (CHASE_SLOTS - 1)
            self.successor.frombytes(step.tobytes())

    def chase(self, steps: int = CHASE_STEPS) -> int:
        successor = self.successor
        slot = 0
        for _ in range(steps):
            slot = successor[slot]
        return slot

    def seconds(self) -> float:
        """Seconds one reference loop takes right now."""
        start = time.perf_counter()
        cpu_loop()
        self.chase()
        return time.perf_counter() - start
