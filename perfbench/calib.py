"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose speed drifts by up to 2x over tens
of seconds, for every process alike.  A run therefore times a fixed kernel
between its ops and scales its op times by REF_KERNEL_S over the kernel's
median time in the same run: the result is the time the op would take on a
machine that runs the kernel in REF_KERNEL_S.  The kernel is standard-library
exact arithmetic of the same kind lieop does, and shares no code with lieop,
so a change to the program cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

REF_KERNEL_S = 0.002


def kernel():
    """Gauss-Jordan elimination of fixed 6x6 rational matrices."""
    for shift in range(2):
        m = [[Fraction((3 * i + 5 * j + shift) % 7 - 3 + 5 * (i == j)) for j in range(6)]
             for i in range(6)]
        for c in range(6):
            p = m[c][c]
            if not p:
                continue
            m[c] = [x / p for x in m[c]]
            for r in range(6):
                if r != c and m[r][c]:
                    f = m[r][c]
                    m[r] = [a - f * b for a, b in zip(m[r], m[c])]


def sample(out, n=3):
    """Append n kernel timings, in seconds, to out."""
    for _ in range(n):
        t0 = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - t0)
