import csv
import dataclasses

import numpy as np

from dtg.presets import (BANK_RHOS, STUDIES, Setup, Study, four_teacher_bank,
                         held_out_columns, joint_setup, make_bank, reference_bank,
                         reference_corpus_spec, reference_train_config, study)
from dtg.corpus import generate_corpus
from dtg.losses import WeightScheme
from dtg.sampling import PairMode

from conftest import script


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
    assert np.array_equal(bank.weight[0], bank.weight[1])
    assert not np.array_equal(bank.weight[0], bank.weight[2])
    assert np.array_equal(bank.bias[0], bank.bias[2])


def test_four_teacher_bank_order():
    corpus = generate_corpus(reference_corpus_spec(
        seed=0, num_classes=2, videos_per_class=3, frames_per_video=8))
    bank = four_teacher_bank(corpus, seed=1, embed_dim=8)
    assert len(bank) == len(BANK_RHOS) and bank.embed_dim == 8
    for i, rho in enumerate(BANK_RHOS):
        one = make_bank(corpus, (rho,), embed_dim=8, seed=1)
        assert np.array_equal(bank.weight[i], one.weight[0])
        assert np.array_equal(bank.bias[i], one.bias[0])


def test_joint_setup_split_and_config():
    setup = joint_setup(3)
    train, held, bank, cfg = setup.corpus, setup.held_out, setup.bank, setup.config
    assert train.spec.video_spread == 2.0
    assert train.num_videos == 100 and held.num_videos == 400
    assert not np.intersect1d(train.ids(), held.ids()).size
    assert np.array_equal(np.bincount(train.labels()), [10] * 10)
    assert (cfg.alpha, cfg.beta, cfg.K) == (0.1, 1.0, 64)
    assert len(bank) == 1
    assert np.array_equal(bank.weight, make_bank(train, (0.9,), embed_dim=cfg.d, seed=3).weight)


def test_reference_bank_single_teacher():
    corpus = generate_corpus(reference_corpus_spec(
        seed=0, num_classes=2, videos_per_class=3, frames_per_video=8))
    bank = reference_bank(corpus, seed=0, embed_dim=8)
    assert len(bank) == 1
    assert np.array_equal(bank.weight, make_bank(corpus, (0.9,), embed_dim=8, seed=0).weight)


def test_study_rows_are_seed_major_in_arm_order(monkeypatch):
    built, ran = [], []

    def setup(seed):
        built.append(seed)
        return Setup(None, None, reference_train_config(seed))

    def columns(s, cfg):
        ran.append((s.config.seed, cfg.seed))
        return {"K": cfg.K}

    monkeypatch.setitem(STUDIES, "toy", Study(setup, columns, {"small": {"K": 3}, "base": {}}))
    assert study("toy", [4, 1]) == [
        {"seed": 4, "arm": "small", "K": 3}, {"seed": 4, "arm": "base", "K": 256},
        {"seed": 1, "arm": "small", "K": 3}, {"seed": 1, "arm": "base", "K": 256}]
    assert built == [4, 1]  # one setup per seed, shared by its arms
    assert ran == [(4, 4), (4, 4), (1, 1), (1, 1)]


def test_studies_table():
    assert list(STUDIES) == ["ssl-vs-random", "weighting", "joint", "input-modes"]
    assert STUDIES["ssl-vs-random"].arms == {"pretrained": {}, "random": {"epochs": 0}}
    assert STUDIES["weighting"].arms == {s.value: {"weight_scheme": s} for s in WeightScheme}
    assert STUDIES["joint"].arms == {"joint": {}, "ce": {"alpha": 0.0}}
    assert STUDIES["input-modes"].arms == {m.value: {"pair_mode": m} for m in PairMode}


def test_experiments_driver_writes_the_presets_results(tmp_path, capsys):
    out = tmp_path / "joint.csv"
    assert script("experiments").main(["joint", "--seeds", "0", "--out", str(out)]) == 0
    assert capsys.readouterr().out.endswith(f"wrote {out}\n")
    header, *rows = csv.reader(out.read_text().splitlines())
    assert header == ["seed", "arm", "overlap", "top1"]
    assert [row[:2] for row in rows] == [["0", "joint"], ["0", "ce"]]
    setup = joint_setup(0)
    for (_, arm, *cells), overrides in zip(rows, STUDIES["joint"].arms.values()):
        cfg = dataclasses.replace(setup.config, **overrides)
        # csv writes repr(float), which reads back to the same double
        assert [float(v) for v in cells] == list(held_out_columns(setup, cfg).values()), arm


def test_experiments_driver_prints_the_sample_std(monkeypatch, capsys):
    # fixed rows in place of the study's training; the std is dtg report's:
    # ddof 1, and 0.0 for one seed, with no warning
    rows = [{"seed": seed, "arm": arm, "overlap": overlap, "top1": top1}
            for seed, arm, overlap, top1 in ((0, "joint", 0.25, 0.5), (0, "ce", 0.5, 0.5),
                                             (1, "joint", 0.75, 1.0), (1, "ce", 0.5, 0.25))]
    driver = script("experiments")
    monkeypatch.setattr(driver.presets, "study",
                        lambda name, seeds: [r for r in rows if r["seed"] in seeds])
    assert driver.main(["joint", "--seeds", "0", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "           joint: overlap 0.5000 +/- 0.3536  top1 0.7500 +/- 0.3536",
        "              ce: overlap 0.5000 +/- 0.0000  top1 0.3750 +/- 0.1768",
    ]
    assert driver.main(["joint", "--seeds", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "           joint: overlap 0.7500 +/- 0.0000  top1 1.0000 +/- 0.0000",
        "              ce: overlap 0.5000 +/- 0.0000  top1 0.2500 +/- 0.0000",
    ]


def test_experiments_driver_leaves_a_column_an_arm_lacks_empty(tmp_path):
    out = tmp_path / "ssl.csv"
    assert script("experiments").main(["ssl-vs-random", "--seeds", "0", "--out", str(out)]) == 0
    header, pretrained, random = csv.reader(out.read_text().splitlines())
    assert header == ["seed", "arm", "top1", "w0"]
    assert pretrained[3] == "1.0"  # one teacher takes all the weight
    assert (random[1], random[3]) == ("random", "")  # no epochs, no weights
