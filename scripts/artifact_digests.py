"""One sha256 per training run and per CLI artifact, to compare checkouts.

Runs a fixed matrix of short trainings on the reference corpus, per seed:
4 teachers under every weight scheme and fusion level with mask 0.25,
1 teacher under every pair mode, joint training on the few-label split,
4 teachers under online1 with a batch of 7 (so batches straddle the window
of K negatives), and 1 teacher with a batch of 300 and K = 64 (a batch
larger than the window).  Each line is ``<case> <sha256>``, the digest taken over
the trained arrays (each parameter's name, shape and little-endian float64
bytes, the encoder's then the head's) followed by the sorted-key JSON of
``report_to_dict``.  These lines do not depend on the checkpoint format, so a
change to the file codecs leaves them as they are.

Then, per seed, it runs the CLI pipeline in a temporary directory on a
2,000-video reference corpus with the 4-teacher bank: ``gen-data``,
``pretrain`` (online2, feature fusion, mask 0.25), ``train-joint --init``
from that checkpoint (online1, loss fusion) and ``probe`` of the joint
checkpoint.  Each artifact gets one line, ``seed<s>-cli-<path> <sha256>``
over its bytes; in the JSON files the temporary directory's path is
replaced by a fixed token first, since configs embed their paths.

Two checkouts that print the same lines train and write byte-identically
on every case:

    python3 scripts/artifact_digests.py > a.txt   # in each checkout
    diff a.txt b.txt
"""

import argparse
import contextlib
import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from dtg.cli import main as dtg_main
from dtg.losses import FusionLevel, WeightScheme
from dtg.presets import (BANK_RHOS, four_teacher_bank, joint_experiment_setup,
                         reference_bank, reference_corpus, reference_corpus_spec,
                         reference_train_config)
from dtg.sampling import PairMode
from dtg.seeding import derive_seed
from dtg.trainer import pretrain, report_to_dict, train_joint

SHORT = dict(epochs=4, milestones=(2,))  # cold first steps, one decay, then warm epochs
MASK = 0.25


def digest(enc, head, report) -> str:
    h = hashlib.sha256()
    for name, p in enc.parameters() + (head.parameters() if head is not None else []):
        h.update(f"{name} {p.shape}\n".encode())
        h.update(np.ascontiguousarray(p, "<f8").tobytes())
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
    yield "1t-b300-k64", *pre(one, batch_size=300, K=64)


def cli_artifacts(seed: int, work: Path):
    """Run the CLI pipeline of one seed under ``work``, yielding (path, sha256)
    for every file it writes, in sorted path order."""
    spec = reference_corpus_spec(seed, videos_per_class=200)
    spec_doc = {k: v for k, v in dataclasses.asdict(spec).items() if k != "seed"}
    readout = derive_seed(seed, "teacher-readout")  # four_teacher_bank's shared readout
    teachers = [{"rho": r, "seed": readout, "name": f"rho{r:g}"} for r in BANK_RHOS]
    corpus = str(work / "data" / "corpus.dtgc")
    pre = {"epochs": 3, "milestones": [2], "mask_frac": MASK,
           "weight_scheme": "online2", "fusion_level": "feature"}
    joint = {"epochs": 2, "milestones": [1], "weight_scheme": "online1"}
    steps = (
        ("gen-data", {"corpus": spec_doc, "out_dir": str(work / "data")}, []),
        ("pretrain", {"corpus": corpus, "train": pre, "out_dir": str(work / "run")}, []),
        ("train-joint", {"corpus": corpus, "train": joint, "out_dir": str(work / "joint")},
         ["--init", str(work / "run" / "checkpoint.dtgm")]),
        ("probe", {"corpus": corpus, "train": joint, "out_dir": str(work / "probe")},
         ["--checkpoint", str(work / "joint" / "checkpoint.dtgm")]),
    )
    for command, doc, extra in steps:
        config = work / f"{command}.json"
        config.write_text(json.dumps({"seed": seed, "teachers": teachers,
                                      "eval": {"split_frac": 0.5}, **doc}))
        with contextlib.redirect_stdout(sys.stderr):
            code = dtg_main([command, "--config", str(config), "--quiet", *extra])
        if code != 0:
            raise SystemExit(f"dtg {command} exited {code} for seed {seed}")
    for path in sorted(p for p in work.rglob("*") if p.is_file() and p.parent != work):
        data = path.read_bytes()
        if path.suffix == ".json":
            data = data.replace(str(work).encode(), b"$WORK")
        yield path.relative_to(work).as_posix(), hashlib.sha256(data).hexdigest()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[0, 1, 2])
    args = ap.parse_args()
    for seed in args.seeds:
        for name, enc, head, report in runs(seed):
            print(f"seed{seed}-{name} {digest(enc, head, report)}", flush=True)
    for seed in args.seeds:
        with tempfile.TemporaryDirectory() as tmp:
            for name, sha in cli_artifacts(seed, Path(tmp)):
                print(f"seed{seed}-cli-{name} {sha}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
