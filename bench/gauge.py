"""A fixed pure-Python loop that gauges how fast the host runs right now.

On a shared virtual machine the same CPU-bound Python code runs 20-40%
faster or slower from one minute to the next, so wall times of one commit
differ between sets of runs by more than any useful bound.  The benchmark
therefore times this loop between operations, in the same process, and
reports each time scaled to the speed at which the loop takes REF_S:

    reported = wall time * REF_S / (mean loop time in the same round)

The loop has three parts, each a kind of work glcs does: dictionary inserts
with tuple keys, integer arithmetic through a function call, and set work
on a sparse graph (search, intersections, formatting).  It uses no glcs
code, so a change to glcs does not move it.  The collector is off while it
runs, so a large heap of the process around it adds no collection pauses.
The mean, not the median, of the samples is used: the host switches
between a fast and a slow state many times a minute, and the mean follows
the share of time spent in each, as the operations do.
"""

from __future__ import annotations

import gc
import time

# the loop's mean time on the reference host (nproc 2, Python 3.11.7);
# a constant, so reported figures keep the scale of seconds there
REF_S = 0.012
# a sample every quarter second costs about 5% of a run's time
EVERY_S = 0.25

_ADJ: list[set[int]] = []


def _graph() -> list[set[int]]:
    """A fixed sparse graph on 300 vertices, made by a linear congruence."""
    if not _ADJ:
        _ADJ.extend(set() for _ in range(300))
        x = 5
        for _ in range(900):
            x = (x * 1103515245 + 12345) % 2**31
            u, v = x % 300, (x >> 9) % 300
            if u != v:
                _ADJ[u].add(v)
                _ADJ[v].add(u)
    return _ADJ


def _mix(a: int, b: int) -> int:
    return (a * b + 3) % 1009


def _loop(adj: list[set[int]]):
    table = {}
    total = 0
    for i in range(10000):
        table[(i, i * 7 % 1013)] = i
        total += i * i % 7
    for key in table:
        total += table[key]
    for i in range(20000):
        total = _mix(total, i)
    for source in range(0, len(adj), 30):
        seen = {source}
        order = [source]
        for u in order:
            for w in adj[u]:
                if w not in seen:
                    seen.add(w)
                    order.append(w)
        for u in order[:100]:
            for w in adj[u]:
                total += len(adj[u] & adj[w])
    "".join(f"{i}-{len(adj[i])}\n" for i in range(len(adj)))
    return total


def run() -> float:
    """Wall time of one pass of the loop, in seconds."""
    adj = _graph()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop(adj)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class Sampler:
    """Takes a gauge sample whenever EVERY_S have passed since the last.

    `paused` is the time spent in samples, which the caller leaves out of
    its timed loop.
    """

    def __init__(self):
        self.samples = [run()]
        self.paused = 0.0
        self._next = time.perf_counter() + EVERY_S

    def maybe(self):
        now = time.perf_counter()
        if now >= self._next:
            self.samples.append(run())
            after = time.perf_counter()
            self.paused += after - now
            self._next = after + EVERY_S

    def finish(self) -> list[float]:
        self.samples.append(run())
        return self.samples
