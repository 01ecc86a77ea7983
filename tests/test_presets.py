import csv
import importlib.util
from pathlib import Path

import numpy as np

from dtg.presets import (BANK_RHOS, four_teacher_bank, joint_arm, joint_experiment_setup,
                         make_bank, reference_bank, reference_corpus_spec,
                         reference_train_config)
from dtg.corpus import generate_corpus

EXPERIMENTS = Path(__file__).resolve().parents[1] / "scripts" / "experiments.py"


def test_reference_spec_dimensions():
    spec = reference_corpus_spec(seed=4)
    assert (spec.num_classes, spec.videos_per_class) == (10, 50)
    assert (spec.frames_per_video, spec.frame_dim, spec.signal_dim) == (32, 16, 8)
    assert spec.seed == 4


def test_reference_train_defaults():
    cfg = reference_train_config(seed=2)
    assert cfg.epochs == 60 and cfg.K == 256 and cfg.tau == 0.07
    assert cfg.milestones == (30, 50)
    assert cfg.seed == 2
    assert reference_train_config(K=16).K == 16


def test_bank_shares_readout_across_alignments():
    corpus = generate_corpus(reference_corpus_spec(
        seed=0, num_classes=2, videos_per_class=3, frames_per_video=8))
    bank = make_bank(corpus, (0.9, 0.9, 0.3), embed_dim=8, seed=0)
    # equal rho under a shared readout means equal teachers
    assert np.array_equal(bank.teachers[0].weight, bank.teachers[1].weight)
    assert not np.array_equal(bank.teachers[0].weight, bank.teachers[2].weight)
    assert np.array_equal(bank.teachers[0].bias, bank.teachers[2].bias)


def test_four_teacher_bank_order_and_names():
    corpus = generate_corpus(reference_corpus_spec(
        seed=0, num_classes=2, videos_per_class=3, frames_per_video=8))
    bank = four_teacher_bank(corpus, seed=1, embed_dim=8)
    assert tuple(t.rho for t in bank.teachers) == BANK_RHOS
    assert [t.name for t in bank.teachers] == ["rho0.9", "rho0.7", "rho0.3", "rho0.1"]


def test_joint_setup_split_and_config():
    train, held, bank, cfg = joint_experiment_setup(seed=3)
    assert train.spec.video_spread == 2.0
    assert train.num_videos == 100 and held.num_videos == 400
    assert not np.intersect1d(train.ids(), held.ids()).size
    assert np.array_equal(np.bincount(train.labels()), [10] * 10)
    assert (cfg.alpha, cfg.beta, cfg.K) == (0.1, 1.0, 64)
    assert len(bank.teachers) == 1 and bank.teachers[0].rho == 0.9


def test_reference_bank_single_teacher():
    corpus = generate_corpus(reference_corpus_spec(
        seed=0, num_classes=2, videos_per_class=3, frames_per_video=8))
    bank = reference_bank(corpus, seed=0, embed_dim=8)
    assert len(bank.teachers) == 1
    assert bank.teachers[0].rho == 0.9


def test_experiments_driver_writes_the_presets_results(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("experiments", EXPERIMENTS)
    driver = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(driver)
    out = tmp_path / "joint.csv"
    assert driver.main(["joint", "--seeds", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")
    header, row = csv.reader(out.read_text().splitlines())
    assert header == ["seed", "overlap_joint", "top1_joint", "overlap_ce", "top1_ce"]
    setup = joint_experiment_setup(0)
    # csv writes repr(float), which reads back to the same double
    assert [float(v) for v in row] == [0, *joint_arm(setup, 0.1), *joint_arm(setup, 0.0)]
