"""Machine-speed calibration for the end-to-end times.

On a shared machine the speed of the same single-threaded work drifts by
10-40% within minutes, far more than any bound worth enforcing.  The runner
therefore brackets every timed unit (a set-up, an iteration, the final
evaluation) with this fixed kernel, and reports each unit's wall time scaled
to a machine on which the kernel takes ``REFERENCE_S``:

    scaled = wall * REFERENCE_S / mean(kernel time before, kernel time after)

The kernel mixes tiny numpy calls with Python arithmetic, the mix of dtg's
per-sample hot path, so the drift it sees is the drift the workloads see.
The unscaled medians are printed and saved beside the scaled ones.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = 0.05

_FRAMES = np.random.default_rng(0).standard_normal((8, 16))
_QUEUE = np.random.default_rng(1).standard_normal((256, 16))


def kernel() -> float:
    acc = 0.0
    for i in range(2600):
        pooled = np.sort(_FRAMES, axis=0).mean(axis=0)
        logits = _QUEUE @ pooled
        acc += float(np.exp(logits - logits.max()).sum())
        for j in range(40):
            acc += (i ^ j) * 1e-9
    return acc


def measure() -> float:
    """Seconds the kernel takes now."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
