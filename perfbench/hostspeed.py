"""Reference loop that tracks the speed of a shared host.

On a host shared with other tenants the speed of the core this process
runs on drifts by up to a factor of two over seconds, and decode
latency, which is bound by the interpreter and small numpy calls,
follows it.  A short fixed loop of the same kind of work, timed right
before and right after each window of decode calls, measures that
drift; each call's duration is scaled by NOMINAL_S over the mean of the
two reference times, which gives its duration at a fixed nominal host
speed.  The loop belongs to the benchmark and calls nothing in vframe,
so a change to vframe cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# The reference loop's time at the nominal host speed the scaled
# timings are expressed in: roughly its time on the 2-vCPU Xeon
# (2.1 GHz) the benchmark was sized on.
NOMINAL_S = 1.5e-3

# Decode calls are timed in windows of at least this much call time,
# with the reference loop run between windows.
WINDOW_S = 0.2

_rng = np.random.default_rng(0)
_COEFFS = np.arange(1, 65) * (1.0 + 0.5j)
_BLOCKS = _rng.standard_normal((64, 4, 8)) + 1j * _rng.standard_normal((64, 4, 8))


def _work() -> float:
    acc = 0.0
    for k in range(120):
        b = _COEFFS * (1.0 - 0.25j) - _COEFFS[::-1]
        acc += float(np.abs(b).max())
        acc += float(np.convolve(_COEFFS[:8], b[:8]).real.sum())
        acc += sum(j * k for j in range(16))
    s = np.linalg.svd(_BLOCKS, compute_uv=False)
    return acc + float(s.sum())


def reference_time() -> float:
    """Wall time of one pass of the reference loop."""
    t0 = time.perf_counter()
    _work()
    return time.perf_counter() - t0
