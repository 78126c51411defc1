"""The host's speed, from a fixed loop timed between popi commands.

The hosts this benchmark was built on switch between speeds up to 1.8x
apart, for seconds to minutes at a time.  A worker times the reference loop
around each command, and every time is reported as it would read at one
fixed speed of that loop (`scaled`).
"""

from __future__ import annotations

import time

# The reference loop: the closure of two partial maps of 6 points under
# composition, on slot tuples, written here and not in popi so that no change
# to popi moves it.  It does what popi's products do (build tuples, look them
# up in a set), so a host that runs popi slower runs it slower in step.
REFERENCE_GENS = ((2, 3, 4, 5, 6, 1), (0, 2, 3, 4, 5, 6))
# Its time on the host the benchmark was defined on, in that host's faster
# phases (Python 3.11, 2 cores).  Times are reported at this speed.
REFERENCE_LOOP_S = 0.8e-3
# Time the loop again once the tasks since the last timing took this long.
REFERENCE_EVERY_S = 0.05


def reference_loop() -> int:
    seen = set(REFERENCE_GENS)
    frontier = list(REFERENCE_GENS)
    while frontier:
        new = []
        for a in frontier:
            for b in REFERENCE_GENS:
                c = tuple(b[v - 1] if v else 0 for v in a)
                if c not in seen:
                    seen.add(c)
                    new.append(c)
        frontier = new
    return len(seen)


def reference_time() -> float:
    """Seconds the reference loop takes now: the median of five runs."""
    times = []
    for _ in range(5):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return sorted(times)[2]


def scaled(seconds: float, reference: float) -> float:
    """`seconds`, measured while the reference loop took `reference`, as
    they would read on a host that runs the loop in REFERENCE_LOOP_S."""
    return seconds * REFERENCE_LOOP_S / reference
