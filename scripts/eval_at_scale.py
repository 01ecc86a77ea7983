"""Time and peak memory of the eval metrics at growing corpus sizes.

For each N, builds N random 16-dimensional features (seed 0) over 10 equal
classes and runs knn_top1 (k = 5), class_overlap and linear_probe (a half
split and the default ProbeConfig, as perfbench's evaluation runs it; its
value is the held-out top-1) on them.  The three metrics run round-robin,
eleven rounds, so that drift in the machine's speed reaches all of them
alike; each line prints a metric's median wall time with its quartiles,
the tracemalloc peak of one further run and the metric's value by
``repr``.  tracemalloc counts numpy's array buffers, so the peak is what
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
REPEATS = 11  # round-robin rounds of timed calls
SEED = 0


def traced(metric) -> tuple[float, float]:
    """The tracemalloc peak in MB of one call, and the metric's value."""
    tracemalloc.start()
    try:
        value = metric()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 1e6, value


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
        metrics = {
            "knn_top1": lambda: knn_top1(feats, labels, K),
            "class_overlap": lambda: class_overlap(feats, labels),
            "linear_probe": lambda: linear_probe(feats, labels, SPLIT, ProbeConfig()).top1,
        }
        times = {name: [] for name in metrics}
        for _ in range(REPEATS):
            for name, metric in metrics.items():
                t0 = time.perf_counter()
                metric()
                times[name].append(time.perf_counter() - t0)
        for name, metric in metrics.items():
            q1, med, q3 = statistics.quantiles(times[name], n=4)
            peak_mb, value = traced(metric)
            print(f"N={n:>6}  {name:<13}  {med:9.4f} s [{q1:.4f}, {q3:.4f}]"
                  f"  peak {peak_mb:8.1f} MB  value {value!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
