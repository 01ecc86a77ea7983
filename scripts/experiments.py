"""Run one of the reference studies over several seeds.

    python3 scripts/experiments.py ssl-vs-random --seeds 0 1 2 3 4
    python3 scripts/experiments.py weighting --out weighting.csv

Studies (each a table of arms in ``dtg.presets.STUDIES``):

  ssl-vs-random  linear-probe top-1 of the pretrained student vs the same
                 student at random init (0 epochs)
  weighting      the 4-teacher bank (alignments 0.9 to 0.1) under uniform,
                 offline, online1 and online2 fusion: probe top-1 and the
                 final-epoch mean weights, so the learned ordering is visible
  joint          the joint objective (alpha 0.1) vs plain cross-entropy on
                 the 20%-labeled wide-spread corpus: held-out class overlap
                 of the encoder features and held-out classifier top-1
  input-modes    one pretrain per pair-sampling mode under one shared
                 configuration, each probed

Prints one line per seed and arm, then each arm's mean +/- std over the
seeds: the sample std (ddof 1), 0.0 for a single seed, as ``dtg report``
writes it.  With --out it writes one CSV row per seed and arm: seed, arm,
then the study's columns; a column an arm lacks is an empty cell.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dtg import presets
from dtg.binio import write_csv
from dtg.numerics import mean_std


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("study", choices=presets.STUDIES)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2, 3, 4],
                    help="seeds to run (default 0-4)")
    ap.add_argument("--out", default=None, help="CSV destination")
    args = ap.parse_args(argv)

    rows = presets.study(args.study, args.seeds)
    for row in rows:
        cols = "  ".join(f"{k} {v:.4f}" for k, v in list(row.items())[2:])
        print(f"seed {row['seed']} {row['arm']:>16}: {cols}")
    for arm in presets.STUDIES[args.study].arms:
        mine = [r for r in rows if r["arm"] == arm]
        stats = {k: mean_std([r[k] for r in mine]) for k in list(mine[0])[2:]}
        print(f"{arm:>16}: " + "  ".join(f"{k} {mean:.4f} +/- {std:.4f}"
                                         for k, (mean, std) in stats.items()))
    if args.out:
        header = list(dict.fromkeys(k for row in rows for k in row))
        write_csv(args.out, [header, *([row.get(k) for k in header] for row in rows)])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
