"""One sha256 per training run over its checkpoint bytes and its report.

Runs a fixed matrix of short trainings on the reference corpus, per seed:
4 teachers under every weight scheme and fusion level with mask 0.25,
1 teacher under every pair mode, joint training on the few-label split, and
4 teachers under online1 with a batch of 7 (so batches straddle the queue
capacity).  Each line is ``<case> <sha256>``, the digest taken over the
``.dtgm`` checkpoint bytes followed by the sorted-key JSON of
``report_to_dict``.  Two checkouts that print the same lines train
byte-identically on every case:

    python3 scripts/artifact_digests.py > a.txt   # in each checkout
    diff a.txt b.txt
"""

import argparse
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dtg.losses import FusionLevel, WeightScheme
from dtg.model import save_student
from dtg.presets import (BANK_RHOS, four_teacher_bank, joint_experiment_setup,
                         reference_bank, reference_corpus, reference_train_config)
from dtg.sampling import PairMode
from dtg.trainer import pretrain, report_to_dict, train_joint

SHORT = dict(epochs=4, milestones=(2,))  # cold first steps, one decay, then warm epochs
MASK = 0.25


def digest(enc, head, report, scratch: Path) -> str:
    path = scratch / "checkpoint.dtgm"
    save_student(path, enc, head)
    h = hashlib.sha256(path.read_bytes())
    h.update(json.dumps(report_to_dict(report), sort_keys=True).encode())
    return h.hexdigest()


def runs(seed: int):
    """Train every case of one seed, yielding (case, encoder, head, report)."""
    corpus = reference_corpus(seed)
    one, four = reference_bank(corpus, seed), four_teacher_bank(corpus, seed)

    def pre(bank, **overrides):
        enc, report = pretrain(reference_train_config(seed, **SHORT, **overrides), corpus, bank)
        return enc, None, report

    for scheme in WeightScheme:
        for fusion in FusionLevel:
            acc = BANK_RHOS if scheme is WeightScheme.OFFLINE else None
            yield (f"4t-{scheme.value}-{fusion.value}",
                   *pre(four, weight_scheme=scheme, fusion_level=fusion,
                        mask_frac=MASK, offline_accuracies=acc))
    for mode in PairMode:
        yield f"1t-{mode.value}", *pre(one, pair_mode=mode)
    train, _, bank, cfg = joint_experiment_setup(seed)
    (enc, head), report = train_joint(dataclasses.replace(cfg, **SHORT), train, bank)
    yield "joint", enc, head, report
    yield "4t-online1-b7", *pre(four, weight_scheme=WeightScheme.ONLINE1, batch_size=7)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        for seed in args.seeds:
            for name, enc, head, report in runs(seed):
                print(f"seed{seed}-{name} {digest(enc, head, report, Path(tmp))}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
