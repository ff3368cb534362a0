"""Reference kernel timed next to every op, to factor out machine speed.

On a shared host the speed of this machine swings by up to 2x within
minutes, so raw wall times of the same code spread far beyond any useful
bound. The kernel below runs the same kinds of work as the package
(interpreted integer loops with list and method traffic, and small numpy
butterfly passes) and calls nothing of it, so a change to the package
cannot move it. Its arrays stay small so that it adds little to the peak
RSS of the process it runs in. Reported times are scaled to a machine on
which this kernel takes NOMINAL_S:

    reported = measured * NOMINAL_S / kernel time measured alongside.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# A fixed constant: about the kernel's time on the 2-core Xeon VM the
# bounds were set on, where it ranged from 10 to 20 ms as the host's load
# changed.
NOMINAL_S = 0.0125


def kernel() -> int:
    x, rows, acc = 12345, [], 0
    for _ in range(3000):
        x = (x * 1103515245 + 12345) & 0xFFFFFFFF
        u = x & 0xFFF
        for r in rows:
            u = min(u, u ^ r)
        if u:
            rows.append(u)
            rows.sort(reverse=True)
        if len(rows) == 12:
            acc += len(rows)
            rows = []
    a = np.arange(1 << 15, dtype=np.float64)
    for _ in range(24):
        b = a.reshape(-1, 2, 64)
        a = np.stack([b[:, 0] + b[:, 1], b[:, 0] - b[:, 1]], axis=1).reshape(-1)
    return acc + int(a[0])


def timed() -> float:
    t0 = perf_counter()
    kernel()
    return perf_counter() - t0
