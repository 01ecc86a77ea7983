"""End-to-end acceptance checks.

Each test covers one headline guarantee and finishes by printing a single
PASS/FAIL line with the measured numbers (visible under ``pytest -s``; on
failure the line appears in the captured output).  Wall-clock budgets are
asserted where a guarantee includes one.  The directional studies (6, 7, 8)
retrain real encoders and dominate the runtime of this file.
"""

import json
import math
import time

import numpy as np
import pytest

from dtg.cli import main as cli_main
from dtg.corpus import CorpusSpec, generate_corpus
from dtg.losses import FusionLevel, WeightScheme, cross_entropy_batch, teacher_weights
from dtg.model import StudentEncoder, build_bank, build_student, forward_batch
from dtg.numerics import finite_diff_check
from dtg.presets import pretrain_and_probe, reference_bank, reference_train_config, study
from dtg.sampling import PairMode, draw_pairs
from dtg.seeding import substreams
from dtg.trainer import TrainConfig, pretrain

from conftest import backward, check_against_list_model, contrastive, record_windows, unit_rows

SEEDS = (0, 1, 2, 3, 4)


def _verdict(cid: str, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {cid}: {detail}"
    print(line)
    assert ok, line


UNIFORM = WeightScheme.UNIFORM


def _nce_instance(rng, d, k):
    """One anchor (1, d), its one teacher's positive (1, 1, d) and that
    teacher's queue (1, K, d)."""
    return unit_rows(rng, 1, d), unit_rows(rng, 1, d)[None], unit_rows(rng, k, d)[None]


def test_c01_gradient_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    checks = 0

    for d in (4, 8, 32):
        for k in (1, 8, 64):
            for _ in range(6):
                a, pos, negs = _nce_instance(rng, d, k)
                r = contrastive(a, pos, negs, 0.07, UNIFORM)
                rep = finite_diff_check(
                    lambda p: contrastive(p["a"], pos, negs, 0.07, UNIFORM).loss[0],
                    {"a": a}, {"a": r.grad_anchor})
                worst = max(worst, rep.max_rel_error)
                checks += 1

    for fusion in FusionLevel:
        for scheme in WeightScheme:
            per_combo = 0
            for d in (4, 8, 32):
                for k in (1, 8, 64):
                    for _ in range(6):
                        a = unit_rows(rng, 1, d)
                        pos = unit_rows(rng, 3, d)[:, None]
                        negs = np.stack([unit_rows(rng, k, d) for _ in range(3)])
                        acc = tuple(rng.uniform(0.1, 1.0, 3))
                        out = contrastive(a, pos, negs, 0.07, scheme, fusion, accuracies=acc)
                        rep = finite_diff_check(
                            lambda p: contrastive(
                                p["a"], pos, negs, 0.07, scheme, fusion,
                                accuracies=acc).loss[0],
                            {"a": a}, {"a": out.grad_anchor})
                        worst = max(worst, rep.max_rel_error)
                        per_combo += 1
            assert per_combo >= 50
            checks += per_combo

    for _ in range(50):
        c = int(rng.integers(2, 12))
        z = rng.standard_normal((1, c))
        label = np.array([rng.integers(c)])
        _, grad = cross_entropy_batch(z, label)
        rep = finite_diff_check(lambda p: cross_entropy_batch(p["z"], label)[0],
                                {"z": z}, {"z": grad})
        worst = max(worst, rep.max_rel_error)
        checks += 1

    fields = ("W1", "b1", "W2", "b2", "W3", "b3")
    for i in range(50):
        d_embed = (4, 8, 32)[i % 3]
        k = (1, 8, 64)[i % 3]
        enc = build_student(6, 8, d_embed, seed=int(rng.integers(2 ** 31)))
        pooled = rng.standard_normal((2, 6))
        pos = unit_rows(rng, 2, d_embed)[None]
        negs = unit_rows(rng, k, d_embed)[None]

        # one call per row scores each anchor alone, as the checks above do; a
        # (2, d) product can round a row apart from it in the last bit
        def row_losses(feats):
            return [contrastive(feats[j:j + 1], pos[:, j:j + 1], negs, 0.07, UNIFORM)
                    for j in range(2)]

        def loss_of(params):
            e = StudentEncoder(**params)
            feats, _ = forward_batch(e, pooled)
            return sum(out.loss[0] for out in row_losses(feats))

        params = {f: getattr(enc, f) for f in fields}
        feats, cache = forward_batch(enc, pooled)
        d_feats = np.concatenate([out.grad_anchor for out in row_losses(feats)])
        grads = backward(enc, cache, d_feats)
        rep = finite_diff_check(loss_of, params, grads)
        worst = max(worst, rep.max_rel_error)
        checks += 1

    elapsed = time.perf_counter() - start
    _verdict("criterion 1 (gradients)",
             worst <= 1e-5 and elapsed < 60,
             f"{checks} finite-difference checks, worst rel err {worst:.2e}, "
             f"{elapsed:.1f}s")


def test_c02_closed_form_loss_values():
    worst_uniform = 0.0
    for k in range(1, 65):
        v = np.ones((1, 3)) / np.sqrt(3)
        r = contrastive(v, v[None], np.tile(v, (1, k, 1)), 0.37, UNIFORM)
        worst_uniform = max(worst_uniform, abs(r.loss[0] - math.log(k + 1)))

    a = np.array([[1.0, 0.0]])
    err1 = abs(contrastive(a, a[None], np.array([[[0.0, 1.0]]]), 1.0, UNIFORM).loss[0]
               - 0.3132616875182228)
    a3 = np.array([[1.0, 0.0, 0.0]])
    pos = np.array([[[0.9, math.sqrt(1 - 0.81), 0.0]]])
    negs = np.array([[[0.1, 0.0, math.sqrt(0.99)],
                      [-0.2, 0.0, math.sqrt(0.96)],
                      [0.0, 0.0, 1.0]]])
    err2 = abs(contrastive(a3, pos, negs, 0.07, UNIFORM).loss[0]
               - 1.3637236044903298e-05)

    _verdict("criterion 2 (closed forms)",
             worst_uniform < 1e-12 and err1 < 1e-9 and err2 < 1e-9,
             f"ln(K+1) err {worst_uniform:.1e} (K=1..64), oracle errs "
             f"{err1:.1e}, {err2:.1e}")


def test_c03_weighting_contract():
    rng = np.random.default_rng(103)
    worst_sum = 0.0
    all_nonneg = True
    for _ in range(500):
        n = int(rng.integers(1, 7))
        scheme = rng.choice(list(WeightScheme))
        w = teacher_weights(scheme, n,
                            accuracies=rng.uniform(0.01, 1.0, n),
                            pos_sims=rng.uniform(-1, 1, n),
                            neg_sims=rng.uniform(-1, 1, (n, 6)))
        worst_sum = max(worst_sum, abs(w.sum() - 1.0))
        all_nonneg &= bool((w >= 0).all())

    off = teacher_weights(WeightScheme.OFFLINE, 4,
                          accuracies=(0.067, 3.0e-6, 0.51, 0.43))
    off_ok = np.allclose(off, np.array([0.067, 3.0e-6, 0.51, 0.43]) / 1.007003,
                         atol=1e-15) and abs(off.sum() - 1.0) < 1e-12
    on2 = teacher_weights(WeightScheme.ONLINE2, 2, pos_sims=(0.9, 0.4),
                          neg_sims=[[0.1, 0.2, 0.3, 0.0], [0.5, 0.6, 0.1, 0.0]])
    on2_ok = np.allclose(on2, (0.625, 0.375), atol=1e-15)

    _verdict("criterion 3 (weighting contract)",
             all_nonneg and worst_sum < 1e-12 and off_ok and on2_ok,
             f"500 random instances sum-to-1 within {worst_sum:.1e}; reference "
             f"vectors renormalize to {np.round(off, 4)} and {tuple(on2)}")


def test_c04_two_force_property():
    rng = np.random.default_rng(104)
    decreases = 0
    two_force = 0
    n_inst = 1000
    for i in range(n_inst):
        d = (4, 8, 32)[i % 3]
        k = int(rng.integers(1, 33))
        a, pos, negs = _nce_instance(rng, d, k)
        r = contrastive(a, pos, negs, 0.2, UNIFORM)
        probs = (r.shifted_exp / r.total)[0, 0]
        if probs[0] < 1.0 and (probs[1:] > 0.0).all():
            two_force += 1
        stepped = a - 1e-4 * r.grad_anchor
        if contrastive(stepped, pos, negs, 0.2, UNIFORM).loss[0] < r.loss[0]:
            decreases += 1
    _verdict("criterion 4 (two forces)",
             two_force == n_inst and decreases >= 999,
             f"attraction/repulsion signs {two_force}/1000, strict descent "
             f"{decreases}/1000 at step 1e-4")


def test_c05_queue_against_list_model(monkeypatch):
    """In real pretraining runs, every warm step's negatives are each
    teacher's last K guidance rows fed before the step, oldest first, and a
    step is warm exactly when at least K rows have been fed.  The list model
    is built from the epoch orders and guidance the trainer computed."""
    log = record_windows(monkeypatch)
    rng = np.random.default_rng(105)
    corpora, banks = {}, {}
    runs, warm = 1000, 0
    for run in range(runs):
        k, b = int(rng.integers(1, 9)), int(rng.integers(1, 11))
        n, epochs = int(rng.integers(1, 5)), int(rng.integers(2, 4))
        v = int(rng.integers(k + 1, k + 24))
        if b > 1 and v % b == 0:
            v += 1  # a short last batch every epoch
        if v not in corpora:
            corpora[v] = generate_corpus(CorpusSpec(1, v, 4, 3, 2, seed=v))
        if (v, n) not in banks:
            banks[v, n] = build_bank(corpora[v], (0.9, 0.6, 0.3, 0.1)[:n], 2, seeds=(n,) * n)
        for entries in log.values():
            entries.clear()
        pretrain(TrainConfig(epochs=epochs, batch_size=b, K=k, d=2, h=3, segments=2,
                             milestones=(), seed=run), corpora[v], banks[v, n])
        assert len(log["orders"]) == epochs and len(log["guidance"]) == epochs * n
        warm += check_against_list_model(log, b, k)
    _verdict("criterion 5 (queue list model)", warm >= 10_000,
             f"{warm} warm steps of {runs} pretrain runs match the reference model")


def _arms(name: str) -> dict:
    """The study's rows over SEEDS, keyed by (seed, arm)."""
    return {(row["seed"], row["arm"]): row for row in study(name, SEEDS)}


def test_c06_ssl_effectiveness():
    start = time.perf_counter()
    rows = _arms("ssl-vs-random")
    gaps = [rows[s, "pretrained"]["top1"] - rows[s, "random"]["top1"] for s in SEEDS]
    elapsed = time.perf_counter() - start
    gap = float(np.mean(gaps))
    _verdict("criterion 6 (pretraining beats random init)",
             gap >= 0.10 and elapsed < 600,
             f"mean probe gap {gap:+.3f} over {len(SEEDS)} seeds "
             f"(per seed {np.round(gaps, 3)}), {elapsed:.0f}s")


def test_c07_differentiated_weighting():
    rows = _arms("weighting")
    diffs = [rows[s, "offline"]["top1"] - rows[s, "uniform"]["top1"] for s in SEEDS]
    orderings = []
    for seed in SEEDS:
        w = [rows[seed, "online1"][f"w{i}"] for i in range(4)]
        orderings.append(all(a > b for a, b in zip(w, w[1:])))

    mean_diff = float(np.mean(diffs))
    _verdict("criterion 7 (differentiated weighting)",
             mean_diff >= 0.0 and all(orderings),
             f"offline-vs-uniform mean probe diff {mean_diff:+.4f} "
             f"(per seed {np.round(diffs, 3)}); learned weights ordered by "
             f"alignment on {sum(orderings)}/{len(SEEDS)} seeds")


def test_c08_joint_training():
    rows = _arms("joint")
    d_overlap = [rows[s, "joint"]["overlap"] - rows[s, "ce"]["overlap"] for s in SEEDS]
    tops_joint = [rows[s, "joint"]["top1"] for s in SEEDS]
    tops_ce = [rows[s, "ce"]["top1"] for s in SEEDS]

    mean_dov = float(np.mean(d_overlap))
    mean_dtop = float(np.mean(tops_joint) - np.mean(tops_ce))
    _verdict("criterion 8 (joint objective)",
             mean_dov < 0.0 and mean_dtop >= -0.01,
             f"held-out overlap change {mean_dov:+.4f} "
             f"(per seed {np.round(d_overlap, 4)}), top1 change {mean_dtop:+.4f}")


def test_c09_determinism(tmp_path):
    doc = {"seed": 0,
           "corpus": {"num_classes": 4, "videos_per_class": 10,
                      "frames_per_video": 16, "frame_dim": 12, "signal_dim": 6,
                      "video_spread": 1.0, "frame_noise": 0.5},
           "train": {"epochs": 3, "K": 8, "batch_size": 8, "d": 8, "h": 12,
                     "milestones": [], "weight_scheme": "online1"},
           "out_dir": str(tmp_path / "run")}
    cfg_path = tmp_path / "c.json"
    cfg_path.write_text(json.dumps(doc))
    artifacts = ("checkpoint.dtgm", "report.json", "epochs.csv", "probe.json",
                 "overlap.json", "projection.csv")

    def run_once() -> dict[str, bytes]:
        assert cli_main(["pretrain", "--config", str(cfg_path), "--quiet"]) == 0
        assert cli_main(["probe", "--config", str(cfg_path), "--checkpoint",
                         str(tmp_path / "run" / "checkpoint.dtgm"),
                         "--quiet"]) == 0
        return {n: (tmp_path / "run" / n).read_bytes() for n in artifacts}

    rerun_ok = run_once() == run_once()
    _verdict("criterion 9 (determinism)", rerun_ok,
             f"{len(artifacts)} artifacts byte-identical across reruns ({rerun_ok})")


def test_c10_input_mode_harness():
    spec = CorpusSpec(num_classes=4, videos_per_class=10, frames_per_video=16,
                      frame_dim=12, signal_dim=6, video_spread=1.0,
                      frame_noise=0.5, seed=0)
    corpus = generate_corpus(spec)
    bank = reference_bank(corpus, seed=0, embed_dim=8)
    scores = {}
    for mode in PairMode:
        cfg = reference_train_config(0, epochs=3, K=8, batch_size=8, d=8,
                                     h=12, milestones=(), pair_mode=mode)
        scores[mode.value], report = pretrain_and_probe(cfg, corpus, bank)
        assert len(report.records) == 3
    sweep_ok = all(0.0 <= v <= 1.0 for v in scores.values())

    # pair i comes from a video of lengths[i % 5] frames
    violations = 0
    lengths = (4, 5, 8, 9, 16)
    for j, length in enumerate(lengths):
        rows = range(j, 10_000, len(lengths))
        anchor, guidance = draw_pairs(length, PairMode.SEQ_SEQ_DISJOINT, 2,
                                      substreams(np.asarray(rows), "disjoint-check"))
        shared = anchor[:, :, None] == guidance[:, None, :]
        violations += int(shared.any(axis=(1, 2)).sum())
    _verdict("criterion 10 (input modes)",
             sweep_ok and violations == 0,
             f"probe top1 per mode {({k: round(v, 3) for k, v in scores.items()})}; "
             f"0 shared frames in 10000 disjoint pairs" if violations == 0 else
             f"{violations} disjoint violations")
