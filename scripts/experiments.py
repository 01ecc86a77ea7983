"""Run one of the reference studies over several seeds.

    python3 scripts/experiments.py ssl-vs-random --seeds 0 1 2 3 4
    python3 scripts/experiments.py weighting --out weighting.csv

Studies (the per-seed work lives in ``dtg.presets``):

  ssl-vs-random  linear-probe top-1 of the pretrained student vs the same
                 student at random init
  weighting      the 4-teacher bank (alignments 0.9 to 0.1) under uniform,
                 offline, online1 and online2 fusion: probe top-1 and the
                 final-epoch mean weights, so the learned ordering is visible
  joint          the joint objective (alpha 0.1) vs plain cross-entropy on
                 the 20%-labeled wide-spread corpus: held-out class overlap
                 of the encoder features and held-out classifier top-1
  input-modes    one pretrain per pair-sampling mode under one shared
                 configuration, each probed

Each prints one line per seed (or per seed and arm) and a summary, and
writes the per-seed rows as a CSV when --out is given.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dtg import presets
from dtg.binio import write_csv
from dtg.losses import WeightScheme
from dtg.sampling import PairMode

SCHEMES = (WeightScheme.UNIFORM, WeightScheme.OFFLINE,
           WeightScheme.ONLINE1, WeightScheme.ONLINE2)


def ssl_vs_random(seeds):
    rows = []
    for seed in seeds:
        ssl, rnd = presets.ssl_vs_random(seed)
        rows.append((seed, ssl, rnd))
        print(f"seed {seed}: pretrained {ssl:.4f}  random {rnd:.4f}  gap {ssl - rnd:+.4f}")

    gaps = [ssl - rnd for _, ssl, rnd in rows]
    print(f"mean gap over {len(rows)} seeds: {np.mean(gaps):+.4f}")
    return ["seed", "pretrained_top1", "random_top1"], rows


def weighting(seeds):
    rows = []
    for seed in seeds:
        setup = presets.weighting_setup(seed)
        print(f"seed {seed}: teacher view accuracies {np.round(setup[2], 3)}")
        for scheme in SCHEMES:
            top1, weights = presets.weighting_arm(setup, scheme)
            rows.append((seed, scheme.value, top1, *weights))
            print(f"  {scheme.value:>8}: top1 {top1:.4f}  "
                  f"final weights {np.round(weights, 4)}")

    for scheme in SCHEMES:
        vals = [r[2] for r in rows if r[1] == scheme.value]
        print(f"{scheme.value:>8}: mean top1 {np.mean(vals):.4f} "
              f"+/- {np.std(vals):.4f}")
    return ["seed", "scheme", "top1", "w0", "w1", "w2", "w3"], rows


def joint(seeds):
    rows = []
    for seed in seeds:
        setup = presets.joint_experiment_setup(seed)
        ov_j, top_j = presets.joint_arm(setup, setup[3].alpha)
        ov_c, top_c = presets.joint_arm(setup, 0.0)
        rows.append((seed, ov_j, top_j, ov_c, top_c))
        print(f"seed {seed}: overlap joint {ov_j:.4f} ce {ov_c:.4f} "
              f"({ov_j - ov_c:+.4f}) | top1 joint {top_j:.4f} ce {top_c:.4f}")

    dov = [r[1] - r[3] for r in rows]
    dtop = [r[2] - r[4] for r in rows]
    print(f"mean overlap change {np.mean(dov):+.4f} "
          f"(negative = tighter classes), mean top1 change {np.mean(dtop):+.4f}")
    return ["seed", "overlap_joint", "top1_joint", "overlap_ce", "top1_ce"], rows


def input_modes(seeds):
    rows = []
    for seed in seeds:
        corpus = presets.reference_corpus(seed)
        bank = presets.reference_bank(corpus, seed)
        for mode in PairMode:
            cfg = presets.reference_train_config(seed, pair_mode=mode)
            top1, _ = presets.pretrain_and_probe(cfg, corpus, bank)
            rows.append((seed, mode.value, top1))
            print(f"seed {seed} {mode.value:>16}: top1 {top1:.4f}")

    for mode in PairMode:
        vals = [r[2] for r in rows if r[1] == mode.value]
        print(f"{mode.value:>16}: mean top1 {np.mean(vals):.4f} +/- {np.std(vals):.4f}")
    return ["seed", "pair_mode", "top1"], rows


# study name -> (runner, default seeds)
STUDIES = {
    "ssl-vs-random": (ssl_vs_random, [0, 1, 2, 3, 4]),
    "weighting": (weighting, [0, 1, 2, 3, 4]),
    "joint": (joint, [0, 1, 2, 3, 4]),
    "input-modes": (input_modes, [0, 1, 2]),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("study", choices=STUDIES)
    ap.add_argument("--seeds", type=int, nargs="+",
                    help="seeds to run (default 0-4, or 0-2 for input-modes)")
    ap.add_argument("--out", default=None, help="CSV destination")
    args = ap.parse_args(argv)

    run, default_seeds = STUDIES[args.study]
    header, rows = run(args.seeds or default_seeds)
    if args.out:
        write_csv(args.out, [header, *rows])
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
