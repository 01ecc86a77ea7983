"""Time and peak memory of the eval metrics at growing corpus sizes.

For each N, builds N random 16-dimensional features (seed 0) over 10 equal
classes and runs knn_top1 (k = 5), class_overlap and linear_probe (a half
split and the default ProbeConfig, as perfbench's evaluation runs it; its
value is the held-out top-1) on them.  Prints the median wall time over
three runs, the tracemalloc peak of one further run and the metric's value
by ``repr``; tracemalloc counts numpy's array buffers, so the peak is what
the metric itself holds.  Values are printed in full so that
two checkouts' outputs can be diffed for bit-identical results.  The
reference corpus has 500 videos, so N = 5000 is 10x.
"""

import argparse
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dtg.evaluation import ProbeConfig, class_overlap, knn_top1, linear_probe

D = 16        # feature dimension, the reference student's embedding size
K = 5         # kNN neighbours, EvalConfig's default
SPLIT = 0.5   # linear_probe's train fraction
REPEATS = 3   # timed runs per metric; the median is printed
SEED = 0


def measure(metric, repeats: int) -> tuple[float, float, float]:
    """Median seconds over ``repeats`` calls, the traced peak in MB and the
    metric's value."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        metric()
        times.append(time.perf_counter() - t0)
    tracemalloc.start()
    try:
        value = metric()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return statistics.median(times), peak / 1e6, value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, nargs="+", default=[500, 2000, 5000],
                    help="feature rows (a multiple of 10)")
    args = ap.parse_args()

    for n in args.n:
        if n < 20 or n % 10:
            ap.error(f"--n {n}: need a multiple of 10, at least 20")
        rng = np.random.default_rng(SEED)
        feats = rng.standard_normal((n, D))
        labels = np.repeat(np.arange(10), n // 10)
        for name, metric in (
                ("knn_top1", lambda: knn_top1(feats, labels, K)),
                ("class_overlap", lambda: class_overlap(feats, labels)),
                ("linear_probe", lambda: linear_probe(feats, labels, SPLIT, ProbeConfig()).top1)):
            secs, peak_mb, value = measure(metric, REPEATS)
            print(f"N={n:>6}  {name:<13}  {secs:9.4f} s  peak {peak_mb:8.1f} MB"
                  f"  value {value!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
