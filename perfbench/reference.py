"""A fixed reference loop that measures how fast the host runs right now.

The benchmark shares a few cores of a busy host, and the speed those cores
give to Python code drifts by a third or more over minutes. Host times are
therefore also given in reference seconds: the time taken divided by the
time of this loop, run just before and just after, times ``REF_LOOP_S``.
The loop never calls qpusched, so a change to the simulator moves a time
in reference seconds exactly as much as it moves the time in seconds.

The loop does the kind of work the simulator does most: Dijkstra over a
16x16 grid with ``heapq``, dicts and sets, plus small numpy sorts.
"""

from __future__ import annotations

import gc
import heapq
import time

import numpy as np

# One reference second is the time of this many loops: a single loop takes
# about 2.5 ms on an idle 2.1 GHz Xeon core under CPython 3.11.
LOOPS_PER_REF_S = 400
REF_LOOP_S = 1.0 / LOOPS_PER_REF_S

_N = 16
_ADJ = [
    [r * _N + c - 1] * (c > 0) + [r * _N + c + 1] * (c < _N - 1)
    + [(r - 1) * _N + c] * (r > 0) + [(r + 1) * _N + c] * (r < _N - 1)
    for r in range(_N) for c in range(_N)
]
_W = np.random.default_rng(0).random(_N * _N)
_WL = _W.tolist()


def _loop() -> float:
    total = 0.0
    for src in range(0, _N * _N, 23):
        dist = {src: 0.0}
        heap = [(0.0, src)]
        seen = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in seen:
                continue
            seen.add(u)
            for v in _ADJ[u]:
                nd = d + _WL[v]
                if nd < dist.get(v, 1e18):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        a = np.fromiter(dist.values(), float, len(dist))
        total += float((a[np.argsort(a, kind="stable")[:32]] * _W[:32]).sum())
    return total


def reference_seconds() -> float:
    """Host seconds one reference loop takes now.

    The garbage collector is off during the loop, so that its time does not
    depend on how many objects the last simulation left alive.
    """
    gc.disable()
    try:
        t0 = time.perf_counter()
        _loop()
        return time.perf_counter() - t0
    finally:
        gc.enable()
