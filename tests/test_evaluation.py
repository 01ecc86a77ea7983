import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from dtg import evaluation
from dtg.corpus import CorpusSpec, generate_corpus
from dtg.evaluation import (ProbeConfig, class_overlap, knn_top1, linear_probe,
                            project_2d, stratified_split,
                            teacher_view_accuracies, video_features,
                            write_projection_csv)
from dtg.losses import cross_entropy_batch
from dtg.model import build_bank, build_student, forward_batch, teacher_features
from dtg.numerics import DegenerateInputError, FieldError

from conftest import whole_videos

EVAL_AT_SCALE = Path(__file__).resolve().parents[1] / "scripts" / "eval_at_scale.py"


def _one_hot_features(n_per_class, n_classes, dim=None):
    dim = dim or n_classes
    labels = np.repeat(np.arange(n_classes), n_per_class)
    feats = np.zeros((labels.size, dim))
    feats[np.arange(labels.size), labels] = 1.0
    return feats, labels


# --- stratified split ---

def test_split_partitions_and_keeps_every_class():
    labels = np.repeat(np.arange(3), 10)
    tr, te = stratified_split(labels, 0.8, seed=0)
    assert np.array_equal(np.sort(np.concatenate([tr, te])), np.arange(30))
    assert set(labels[tr]) == set(labels[te]) == {0, 1, 2}
    assert tr.size == 24 and te.size == 6


def test_split_deterministic_and_seed_sensitive():
    labels = np.repeat(np.arange(4), 8)
    assert np.array_equal(stratified_split(labels, 0.75, 3)[0],
                          stratified_split(labels, 0.75, 3)[0])
    alts = {tuple(stratified_split(labels, 0.75, s)[0]) for s in range(10)}
    assert len(alts) > 1


def test_split_rejects_singleton_class():
    with pytest.raises(ValueError):
        stratified_split(np.array([0, 0, 1]), 0.5, seed=0)


# --- linear probe ---

def test_probe_one_hot_is_perfect():
    feats, labels = _one_hot_features(10, 4)
    result = linear_probe(feats, labels)
    assert result.top1 == 1.0
    assert result.per_class == (1.0, 1.0, 1.0, 1.0)


def test_probe_noise_features_are_chance_level():
    rng = np.random.default_rng(0)
    labels = np.repeat(np.arange(10), 25)
    scores = [linear_probe(rng.standard_normal((250, 16)), labels,
                           config=ProbeConfig(seed=s)).top1 for s in range(3)]
    assert 0.1 - 0.05 <= np.mean(scores) <= 0.1 + 0.05


def test_probe_duplicated_columns_change_nothing():
    rng = np.random.default_rng(1)
    feats = rng.standard_normal((60, 6))
    labels = np.repeat(np.arange(3), 20)
    base = linear_probe(feats, labels).top1
    doubled = linear_probe(np.hstack([feats, feats]), labels).top1
    assert abs(base - doubled) < 1e-6


def test_probe_invariant_to_coordinate_permutation():
    rng = np.random.default_rng(2)
    feats = rng.standard_normal((60, 8))
    labels = np.repeat(np.arange(3), 20)
    perm = rng.permutation(8)
    assert linear_probe(feats, labels).top1 == linear_probe(feats[:, perm], labels).top1


def test_probe_top1_is_weighted_mean_of_per_class():
    rng = np.random.default_rng(3)
    feats = rng.standard_normal((40, 6))
    labels = np.repeat(np.arange(4), 10)
    result = linear_probe(feats, labels)
    _, te = stratified_split(labels, 0.8, result.split_seed)
    counts = np.bincount(labels[te])
    weighted = float(np.dot(result.per_class, counts) / counts.sum())
    assert result.top1 == pytest.approx(weighted, abs=1e-12)


def _reference_cross_entropy(z, y):
    """The gradient arithmetic of cross_entropy_batch before it shared one
    kernel with the probe, kept verbatim."""
    m = z.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(z - m).sum(axis=1, keepdims=True))
    rows = np.arange(z.shape[0])
    loss = float((lse[:, 0] - z[rows, y]).mean())
    grad = np.exp(z - lse)
    grad[rows, y] -= 1.0
    return loss, grad / z.shape[0]


def _reference_fit(xt, yt, n_cls, epochs, lr):
    """The probe's training loop before it was fused, kept verbatim."""
    w = np.zeros((n_cls, xt.shape[1]))
    b = np.zeros(n_cls)
    for _ in range(epochs):
        _, d_logits = _reference_cross_entropy(xt @ w.T + b, yt)
        w -= lr * (d_logits.T @ xt)
        b -= lr * d_logits.sum(axis=0)
    return w, b


def _layouts(x):
    """``x`` as a C-ordered, a Fortran-ordered and a strided array."""
    strided = np.repeat(x, 2, axis=1)[:, ::2]
    return {"C": x, "F": np.asfortranarray(x), "strided": strided}


# numpy's row sum adds fewer than 8 and 8 or more entries in different orders
@pytest.mark.parametrize("n_cls", [2, 7, 8, 9, 10, 17])
@pytest.mark.parametrize("absent", [False, True], ids=["all-ids", "absent-id"])
def test_probe_fit_equals_reference_loop_bit_for_bit(n_cls, absent):
    # with an absent id, n_cls classes are spread over ids 0, 2, ..., n_cls
    rng = np.random.default_rng(n_cls)
    ids = np.delete(np.arange(n_cls + 1), 1) if absent else np.arange(n_cls)
    size = int(ids.max()) + 1
    labels = rng.permutation(np.repeat(ids, 10))
    feats = rng.standard_normal((labels.size, 5)) * 2.0
    for frac in (0.2, 0.8):
        tr, te = stratified_split(labels, frac, seed=3)
        for name, xt in _layouts(feats[tr]).items():
            for epochs in (0, 1, 30):
                want = _reference_fit(xt, labels[tr], size, epochs, 0.5)
                got = evaluation._fit_probe(xt, labels[tr], size, epochs, 0.5)
                assert np.array_equal(got[0], want[0]), (frac, name, epochs)
                assert np.array_equal(got[1], want[1]), (frac, name, epochs)
        w, b = _reference_fit(feats[tr], labels[tr], size, 30, 0.5)
        top1 = float((np.argmax(feats[te] @ w.T + b, axis=1) == labels[te]).mean())
        assert linear_probe(feats, labels, frac, ProbeConfig(epochs=30, lr=0.5,
                                                             seed=3)).top1 == top1


def test_probe_rejects_label_ids_past_the_rows_before_allocating():
    # the classifier has a row per id up to the largest: {0, 2**40} would ask
    # for 2**40 rows of weights; ids below the row count stay classes
    feats = np.random.default_rng(0).standard_normal((40, 4))
    labels = np.repeat([0, 2 ** 40], 20)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"label id 1099511627776 is not below the "
                                             r"number of feature rows \(40\)"):
            linear_probe(feats, labels)
        assert tracemalloc.get_traced_memory()[1] < 2 ** 20
    finally:
        tracemalloc.stop()
    with pytest.raises(ValueError, match="label id 40 "):
        linear_probe(feats, np.repeat([0, 40], 20))
    assert 0 <= linear_probe(feats, np.repeat([0, 39], 20)).top1 <= 1


@pytest.mark.parametrize("n_cls", [1, 2, 7, 8, 9, 17, 130])
def test_cross_entropy_gradient_equals_reference_bit_for_bit(n_cls):
    rng = np.random.default_rng(n_cls)
    y = rng.integers(0, n_cls, 23)
    for name, z in _layouts(rng.standard_normal((23, n_cls)) * 4.0).items():
        want = _reference_cross_entropy(z, y)
        got = cross_entropy_batch(z, y)
        assert got[0] == want[0], name
        assert np.array_equal(got[1], want[1]), name


def test_probe_raises_on_non_finite_logits():
    feats, labels = _one_hot_features(10, 4)
    with pytest.raises(ValueError, match="logits contains a non-finite entry"):
        linear_probe(feats * 1e200, labels)
    xt = feats[:8]
    with pytest.raises(ValueError, match="logits contains a non-finite entry"):
        evaluation._fit_probe(xt, labels[:8], 4, 2, float("nan"))


@pytest.mark.parametrize("key,value", [
    ("epochs", -3), ("epochs", 2.5), ("epochs", True),
    ("lr", -0.5), ("lr", 0.0), ("lr", float("nan")), ("lr", float("inf")), ("lr", "0.1"),
    ("seed", -1), ("seed", 2 ** 64), ("seed", 1.0),
])
def test_probe_config_rejects_bad_fields(key, value):
    with pytest.raises(FieldError, match=rf"^{key} ") as err:
        ProbeConfig(**{key: value})
    assert err.value.key == key


def test_probe_config_takes_its_bounds():
    ProbeConfig(epochs=0, lr=1, seed=2 ** 64 - 1)


# --- kNN ---

def test_knn_perfect_on_collapsed_classes():
    spec = CorpusSpec(2, 6, 4, 10, 4, video_spread=0.0, frame_noise=0.0, seed=5)
    corpus = generate_corpus(spec)
    bank = build_bank(corpus, (1.0,), embed_dim=6, seeds=(0,))
    feats = teacher_features(bank, whole_videos(corpus.frames()))[0]
    labels = corpus.labels()
    assert knn_top1(feats, labels, k=5) == 1.0


def test_knn_duplicated_points_k1():
    rng = np.random.default_rng(6)
    feats = rng.standard_normal((20, 5))
    labels = np.arange(20) % 4
    doubled = np.concatenate([feats, feats])
    assert knn_top1(doubled, np.concatenate([labels, labels]), k=1) == 1.0


def test_knn_random_features_near_chance():
    rng = np.random.default_rng(7)
    feats = rng.standard_normal((300, 12))
    labels = np.repeat(np.arange(3), 100)
    acc = knn_top1(feats, labels, k=5)
    assert abs(acc - 1 / 3) < 0.1


def _knn_top1_stable_argsort(features, labels, k):
    """Reference: per-row votes over the first k of a stable argsort."""
    u = features / np.linalg.norm(features, axis=1, keepdims=True)
    sims = u @ u.T
    np.fill_diagonal(sims, -np.inf)
    neighbors = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    n_cls = int(labels.max()) + 1
    correct = 0
    for i in range(len(labels)):
        votes = np.bincount(labels[neighbors[i]], minlength=n_cls)
        correct += int(np.argmax(votes) == labels[i])
    return correct / len(labels)


def test_knn_matches_stable_argsort_reference_on_ties():
    # small integer coordinates and duplicated rows make many exactly equal
    # similarities, so neighbour selection and vote ties both decide results
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(3, 30))
        feats = rng.integers(-2, 3, (m, int(rng.integers(1, 4)))).astype(float)
        feats[~feats.any(axis=1)] = 1.0
        feats[rng.integers(0, m, m // 2)] = feats[rng.integers(0, m, m // 2)]
        labels = rng.integers(0, int(rng.integers(1, 5)), m)
        k = int(rng.integers(1, m))
        assert knn_top1(feats, labels, k) == _knn_top1_stable_argsort(feats, labels, k)


def test_knn_blocks_match_stable_argsort_reference_on_ties():
    # rows are +-1 on 1, 4 or 16 of 16 coordinates, so every cosine similarity
    # is a multiple of 1/16 that any summation order computes exactly: block
    # and full similarity matrices agree bit for bit, and whole rows and
    # columns of ties test neighbour selection across block boundaries
    rows = evaluation._KNN_ROWS
    rng = np.random.default_rng(13)
    sizes = [rows + 1, 2 * rows, 2 * rows + 1, 3 * rows]
    sizes += [int(v) for v in rng.integers(rows + 1, 3 * rows + 1, 6)]
    for m in sizes:
        nnz = rng.choice([1, 4, 16], m)
        on = rng.random((m, 16)).argsort(axis=1).argsort(axis=1) < nnz[:, None]
        feats = np.where(on, rng.choice([-1.0, 1.0], (m, 16)), 0.0)
        feats[rng.integers(0, m, m // 2)] = feats[rng.integers(0, m, m // 2)]
        labels = rng.integers(0, int(rng.integers(2, 6)), m)
        for k in (1, int(rng.integers(2, 40)), int(rng.integers(40, m))):
            assert knn_top1(feats, labels, k) == _knn_top1_stable_argsort(feats, labels, k)


def test_knn_writes_back_the_one_tied_row_of_a_block():
    # +-1 rows on 64 coordinates, so every cosine similarity is a multiple of
    # 1/64 that any summation order computes exactly.  Rows [0, R) and
    # [R, 2R) repeat the same R patterns, rows [2R, 3R) flip one bit of each
    # and a last row flips another bit of pattern R // 2: for k = 2 every
    # row of the second block has exactly k neighbours at or above its k-th
    # similarity except its middle row, which has three, one twin and two
    # one-bit flips tied at 62/64: the one row of its block whose neighbours
    # the lowest-index tie rule decides.  A pattern's three rows share a
    # label, so every clean row votes right; the tied row votes right only
    # if the lower-index flip alone is kept for it, and no other row can
    # make up for a wrong vote there
    rows, k = evaluation._KNN_ROWS, 2
    t = rows // 2
    rng = np.random.default_rng(16)
    patterns = np.where(rng.random((rows, 64)) < 0.5, -1.0, 1.0)
    flips = patterns.copy()
    flips[np.arange(rows), np.arange(rows) % 64] *= -1
    extra = patterns[t].copy()
    extra[(t + 1) % 64] *= -1
    feats = np.vstack([patterns, patterns, flips, extra])
    labels = np.append(np.tile(rng.integers(0, 3, rows), 3), 0)
    labels[[t, rows + t, 2 * rows + t]] = [2, 1, 1]
    u = feats / 8.0
    sims = u @ u.T
    np.fill_diagonal(sims, -np.inf)
    kth = np.sort(sims, axis=1)[:, [-k]]
    over = np.count_nonzero(sims >= kth, axis=1) > k
    assert np.flatnonzero(over[rows:2 * rows]).tolist() == [t]
    expected = _knn_top1_stable_argsort(feats, labels, k)
    assert knn_top1(feats, labels, k) == expected


def _sign_rows(rng, m, dim=16):
    """m rows of +-1 on 1, 4 or 16 of ``dim`` = 16 coordinates, or on all
    coordinates for ``dim`` a larger power of 4: every cosine similarity is
    a multiple of 1/16 (1/dim) that any summation order computes exactly, so
    knn_top1's block products and the reference's full product agree bit
    for bit.  The more coordinates, the fewer ties."""
    nnz = rng.choice([1, 4, 16], m) if dim == 16 else np.full(m, dim)
    on = rng.random((m, dim)).argsort(axis=1).argsort(axis=1) < nnz[:, None]
    return np.where(on, rng.choice([-1.0, 1.0], (m, dim)), 0.0)


@pytest.fixture
def knn_tables(monkeypatch):
    """One entry per row block of every knn_top1 call: True where the block
    picked its neighbours from the strip table, False where from its full
    rows."""
    tables = []
    inner = evaluation._strip_neighbours

    def spy(sims, k):
        cols = inner(sims, k)
        tables.append(cols is not None)
        return cols

    monkeypatch.setattr(evaluation, "_strip_neighbours", spy)
    return tables


def test_knn_on_either_side_of_the_table_width_matches_reference(knn_tables):
    # N = 8 * 128 leaves no ragged columns: a table is no wider than a strip
    # while 8 * (strong groups) <= 128.  Ties among the group maxima make
    # about twice k groups strong here, so every block of k <= 5 takes the
    # table, and from k = 17 on, N < 8k among them, every block its full rows
    rng = np.random.default_rng(18)
    m = evaluation._KNN_STRIPS * 128
    feats = _sign_rows(rng, m, dim=256)
    feats[rng.integers(0, m, m // 4)] = feats[rng.integers(0, m, m // 4)]
    labels = rng.integers(0, 4, m)
    for k in (1, 2, 5, 17, 128, 129, m - 1):
        knn_tables.clear()
        assert knn_top1(feats, labels, k) == _knn_top1_stable_argsort(feats, labels, k)
        assert knn_tables == [k <= 5] * 4


def test_knn_with_ragged_last_columns_matches_stable_argsort_reference(knn_tables):
    # N = 8 * width + 7: the last 7 columns lie in no strip, and the table
    # appends them.  They repeat the first rows, so they are some rows'
    # nearest neighbours
    rng = np.random.default_rng(19)
    for width in (100, 127):
        m = evaluation._KNN_STRIPS * width + 7
        feats = _sign_rows(rng, m, dim=256)
        feats[-7:] = feats[:7]
        labels = rng.integers(0, 5, m)
        for k in (1, 2, 17):
            knn_tables.clear()
            assert knn_top1(feats, labels, k) == _knn_top1_stable_argsort(feats, labels, k)
            assert knn_tables[0] == (k <= 2)


def test_knn_with_k_one_short_of_n_matches_stable_argsort_reference(knn_tables):
    rng = np.random.default_rng(20)
    for m in (7, evaluation._KNN_ROWS + 44):
        feats = _sign_rows(rng, m)
        labels = rng.integers(0, 3, m)
        assert knn_top1(feats, labels, m - 1) == _knn_top1_stable_argsort(feats, labels, m - 1)
    assert not any(knn_tables)


def test_knn_on_collapsed_rows_takes_the_full_rows_and_matches_reference(knn_tables):
    # every similarity is 1, so every group maximum ties and every row's
    # table would hold every column: each block takes its full rows, and the
    # neighbours are the k lowest-index other rows
    rng = np.random.default_rng(21)
    m = 2 * evaluation._KNN_ROWS + 77
    feats = np.ones((m, 16))
    for _ in range(3):
        labels = rng.integers(0, 4, m)
        for k in (1, 5, 40):
            assert knn_top1(feats, labels, k) == _knn_top1_stable_argsort(feats, labels, k)
    assert knn_tables and not any(knn_tables)


def test_knn_block_with_one_collapsed_tie_row_matches_stable_argsort_reference(knn_tables):
    # +-1 rows on 256 coordinates, and in the second block one hub row on a
    # single coordinate: its cosine with every other row is +-1/16, so about
    # half the rows tie at its top and nearly every group maximum reaches its
    # bound.  Its block takes the full rows; the other two take the table.
    # The hub's label is that of its k lowest-index tied rows and of no other
    # tied row, so only the lowest-index tie rule makes its vote right
    rows, k = evaluation._KNN_ROWS, 3
    rng = np.random.default_rng(22)
    m = 3 * rows
    feats = _sign_rows(rng, m, dim=256)
    hub = rows + 17
    feats[hub] = 0.0
    feats[hub, 0] = 1.0
    u = feats / np.linalg.norm(feats, axis=1, keepdims=True)
    top = u[hub] @ u.T
    tied = np.flatnonzero(top == np.delete(top, hub).max())
    assert tied.size > m // 4
    labels = rng.integers(1, 4, m)
    labels[tied[:k]] = 0
    labels[hub] = 0
    assert knn_top1(feats, labels, k) == _knn_top1_stable_argsort(feats, labels, k)
    assert knn_tables == [True, False, True]


def test_knn_full_rows_count_votes_as_the_stable_argsort_reference(knn_tables):
    # the full rows count their votes class by class over the mask of their
    # neighbours, on distinct and on all-tied similarities, with a few
    # classes and with many
    rng = np.random.default_rng(26)
    m = 2 * evaluation._KNN_ROWS + 37
    for feats in (_sign_rows(rng, m, dim=1024), np.ones((m, 16))):
        for n_cls in (3, 41):
            labels = rng.integers(0, n_cls, m)
            for k in (9, 40, m // 2, m - 1):
                knn_tables.clear()
                assert knn_top1(feats, labels, k) == _knn_top1_stable_argsort(feats, labels, k)
                assert knn_tables and not any(knn_tables)


@pytest.mark.parametrize("offset", [-1, 1])
def test_knn_around_one_block_matches_stable_argsort_reference(offset, knn_tables):
    # a strip is 31 or 32 columns wide, so only k <= 3 can take the table,
    # and here k = 1 takes it in every block
    rng = np.random.default_rng(23 + offset)
    m = evaluation._KNN_ROWS + offset
    feats = _sign_rows(rng, m, dim=1024)
    labels = rng.integers(0, 5, m)
    for k in (1, 2, 5, 31, 32, 33, m - 1):
        knn_tables.clear()
        assert knn_top1(feats, labels, k) == _knn_top1_stable_argsort(feats, labels, k)
        if k == 1:
            assert all(knn_tables)
        elif k >= 5:
            assert not any(knn_tables)


def test_knn_on_sparse_label_ids_equals_compact_ids():
    # votes are counted per present class, not per id up to the largest
    rng = np.random.default_rng(24)
    feats = rng.standard_normal((40, 4))
    labels = rng.integers(0, 2, 40)
    assert knn_top1(feats, labels * 2 ** 40, 5) == knn_top1(feats, labels, 5)


@pytest.mark.parametrize("metric", [
    lambda x, y: knn_top1(x, y, 5), linear_probe, class_overlap,
], ids=["knn_top1", "linear_probe", "class_overlap"])
def test_knn_rejects_labels_that_are_not_non_negative_integers(metric):
    rng = np.random.default_rng(17)
    feats = rng.standard_normal((2 * evaluation._KNN_ROWS + 3, 4))
    labels = np.arange(feats.shape[0]) % 3
    for bad in (labels - 1, labels + 0.0):
        with pytest.raises(ValueError, match="labels must be non-negative integers"):
            metric(feats, bad)
    with pytest.raises(ValueError, match="need one label per feature row"):
        metric(feats, labels[:-1])


def test_knn_validates_k():
    feats = np.eye(4)
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(ValueError):
        knn_top1(feats, labels, k=0)
    with pytest.raises(ValueError):
        knn_top1(feats, labels, k=4)


# --- class overlap ---

def test_overlap_zero_for_collapsed_classes():
    feats = np.array([[0.0, 0], [0, 0], [5, 5], [5, 5]])
    labels = np.array([0, 0, 1, 1])
    assert class_overlap(feats, labels) == 0.0


def test_overlap_near_one_under_label_shuffling():
    rng = np.random.default_rng(8)
    feats = rng.standard_normal((60, 4))
    labels = np.repeat(np.arange(3), 20)
    ratios = []
    for _ in range(30):
        ratios.append(class_overlap(feats, rng.permutation(labels)))
    assert abs(np.mean(ratios) - 1.0) < 0.05


def test_overlap_chunked_distances_equal_full_difference_tensor():
    rng = np.random.default_rng(12)
    n = 3 * evaluation._OVERLAP_ROWS + 17  # several chunks and a partial one
    feats = rng.standard_normal((n, 6))
    labels = rng.permutation(np.repeat(np.arange(4), [20, 41, 60, n - 121]))
    value = class_overlap(feats, labels)
    assert value == pytest.approx(_overlap_reference(feats, labels), rel=1e-13, abs=0)
    assert value == pytest.approx(_full_tensor_overlap(feats, labels), rel=1e-13, abs=0)


def _overlap_reference(feats, labels):
    """class_overlap's sums on a full (n, n) distance matrix whose squared
    coordinate differences are all added in coordinate order, the intra and
    inter sums grown block by block of _OVERLAP_ROWS rows: class_overlap's
    Gram-form distances land within 1e-13 relative of it."""
    n, d = feats.shape
    sq = np.zeros((n, n))
    for k in range(d):
        sq += (feats[:, None, k] - feats[None, :, k]) ** 2
    dist = np.sqrt(sq)
    same = labels[:, None] == labels[None, :]
    upper = np.triu(np.ones((n, n), dtype=bool), k=1)
    rows = evaluation._OVERLAP_ROWS
    intra = inter = 0.0
    for r0 in range(0, n, rows):
        block = slice(r0, r0 + rows)
        intra += dist[block][(same & upper)[block]].sum()
        inter += dist[block][(~same & upper)[block]].sum()
    return float((intra / (same & upper).sum()) / (inter / (~same & upper).sum()))


def _full_tensor_overlap(feats, labels):
    diff = feats[:, None, :] - feats[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=2))
    same = labels[:, None] == labels[None, :]
    upper = np.triu(np.ones_like(same), k=1).astype(bool)
    return float(dist[same & upper].mean() / dist[~same & upper].mean())


def test_overlap_blocks_equal_full_difference_tensor_at_d16():
    # sizes give one partial block, a partial last block and a last block of
    # one row.  A one-ulp change in some distances moves the ratio in only
    # about one draw in seven, hence ten draws per size
    rows = evaluation._OVERLAP_ROWS
    rng = np.random.default_rng(14)
    for n in np.repeat([rows - 5, 2 * rows + 23, 3 * rows + 1], 10):
        feats = rng.standard_normal((n, 16))
        labels = rng.permutation(np.repeat(np.arange(5), [2, 2, 2, 20, n - 26]))
        value = class_overlap(feats, labels)
        assert value == pytest.approx(_overlap_reference(feats, labels), rel=1e-13, abs=0)
        assert class_overlap(np.asfortranarray(feats), labels) == value
        assert value == pytest.approx(_full_tensor_overlap(feats, labels), rel=1e-13, abs=0)


@pytest.mark.parametrize("d", [1, 2, 7, 8, 9, 15, 17, 64, 128, 129, 200])
def test_overlap_equals_full_formula_across_dimensions(d):
    # numpy sums a contiguous axis of 8 or more in lanes; class_overlap adds
    # the coordinates in order, on either side of that length.  n leaves a
    # last block of one row
    rows = evaluation._OVERLAP_ROWS
    n = 2 * rows + 1
    rng = np.random.default_rng(d)
    feats = rng.standard_normal((n, d))
    for _ in range(3):
        labels = rng.permutation(np.arange(n) % 4)
        value = class_overlap(feats, labels)
        assert value == pytest.approx(_overlap_reference(feats, labels), rel=1e-13, abs=0)
        assert class_overlap(np.asfortranarray(feats), labels) == value
        assert value == pytest.approx(_full_tensor_overlap(feats, labels), rel=1e-13, abs=0)


def test_eval_metrics_hold_no_n_by_n_matrix():
    # at N = 2,000 an (N, N) float64 matrix alone is 32 MB.  With N distinct
    # labels, a one-hot of the classes would be one
    rng = np.random.default_rng(15)
    feats = rng.standard_normal((2000, 16))
    labels = np.repeat(np.arange(10), 200)
    for metric, limit_mb in ((lambda: knn_top1(feats, labels, 5), 16),
                             (lambda: knn_top1(feats, np.arange(2000), 5), 16),
                             (lambda: class_overlap(feats, labels), 40)):
        tracemalloc.start()
        try:
            metric()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < limit_mb * 1e6


def test_overlap_stays_within_memory_at_10x():
    # N = 5,000 is 10x the reference corpus; its N(N - 1)/2 distances alone
    # would be 100 MB
    rng = np.random.default_rng(16)
    feats = rng.standard_normal((5000, 16))
    labels = np.repeat(np.arange(10), 500)
    tracemalloc.start()
    try:
        class_overlap(feats, labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


def test_knn_stays_within_memory_at_10x():
    # one (256, N) similarity buffer is 10 MB at N = 5,000.  The peak is
    # 14.0 MB; partitioning each block's whole rows took it to 22.9 MB
    rng = np.random.default_rng(16)
    feats = rng.standard_normal((5000, 16))
    labels = np.repeat(np.arange(10), 500)
    tracemalloc.start()
    try:
        knn_top1(feats, labels, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 18e6


def test_eval_at_scale_script_prints_the_metrics_of_direct_calls():
    result = subprocess.run([sys.executable, str(EVAL_AT_SCALE), "--n", "20"],
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    feats = np.random.default_rng(0).standard_normal((20, 16))
    labels = np.repeat(np.arange(10), 2)
    expected = {
        "knn_top1": knn_top1(feats, labels, 5),
        "class_overlap": class_overlap(feats, labels),
        "linear_probe": linear_probe(feats, labels, 0.5, ProbeConfig()).top1,
    }
    assert len(lines) == 3
    for line, (name, value) in zip(lines, expected.items()):
        assert line.split()[:3] == ["N=", "20", name]
        assert line.endswith(f"value {value!r}")


def test_overlap_below_one_for_separated_gaussians():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((30, 3)) + np.array([10.0, 0, 0])
    b = rng.standard_normal((30, 3)) - np.array([10.0, 0, 0])
    feats = np.vstack([a, b])
    labels = np.repeat([0, 1], 30)
    assert class_overlap(feats, labels) < 1.0


def test_overlap_rotation_and_scale_invariant():
    rng = np.random.default_rng(10)
    feats = rng.standard_normal((24, 5))
    labels = np.repeat(np.arange(2), 12)
    base = class_overlap(feats, labels)
    q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    assert abs(class_overlap(feats @ q * 3.7, labels) - base) < 1e-10


def test_overlap_identical_points_degenerate():
    feats = np.ones((6, 3))
    labels = np.repeat([0, 1], 3)
    with pytest.raises(DegenerateInputError):
        class_overlap(feats, labels)


# the Gram form |a|² + |b|² − 2·a·b cancels for near pairs, which class_overlap
# recomputes in coordinate order; non-dyadic coordinates make the cancellation
# leave rounding noise where the distance is 0 or tiny

def test_overlap_exactly_zero_for_collapsed_non_dyadic_classes():
    feats = np.repeat([[0.1, 0.3], [5.0, 5.7]], 3, axis=0)
    labels = np.repeat([0, 1], 3)
    assert class_overlap(feats, labels) == 0.0


def test_overlap_identical_non_dyadic_points_degenerate():
    feats = np.tile([0.1, 0.3, 0.7, 1.9], (6, 1))
    labels = np.repeat([0, 1], 3)
    with pytest.raises(DegenerateInputError):
        class_overlap(feats, labels)


def test_overlap_of_clusters_far_from_the_origin_equals_reference():
    rng = np.random.default_rng(18)
    centers = 100.0 + rng.standard_normal((3, 8))
    labels = np.repeat(np.arange(3), 30)
    feats = centers[labels] + 1e-3 * rng.standard_normal((90, 8))
    assert class_overlap(feats, labels) == pytest.approx(
        _overlap_reference(feats, labels), rel=1e-13, abs=0)


def test_overlap_with_duplicated_rows_equals_reference():
    rng = np.random.default_rng(19)
    n = 2 * evaluation._OVERLAP_ROWS + 9
    feats = rng.standard_normal((n, 16))
    feats[rng.integers(0, n, n // 2)] = feats[rng.integers(0, n, n // 2)]
    labels = rng.integers(0, 3, n)
    assert class_overlap(feats, labels) == pytest.approx(
        _overlap_reference(feats, labels), rel=1e-13, abs=0)


# squared coordinates overflow at 1e160 and lose bits to the subnormal range
# at 1e-160 (to 0 at 1e-170), unless the metrics first rescale the features

@pytest.mark.parametrize("scale", [1e160, 1e-160])
def test_overlap_scale_invariant_far_from_unit_scale(scale):
    rng = np.random.default_rng(20)
    feats = rng.standard_normal((40, 16))
    labels = np.arange(40) % 2
    assert class_overlap(feats * scale, labels) == pytest.approx(
        class_overlap(feats, labels), rel=1e-13, abs=0)


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_knn_scale_invariant_far_from_unit_scale(scale):
    rng = np.random.default_rng(20)
    feats = rng.standard_normal((40, 16))
    labels = np.arange(40) % 2
    assert knn_top1(feats * scale, labels, 5) == knn_top1(feats, labels, 5)


@pytest.mark.parametrize("scale", [1.0, 1e3, 1e154, 1e155, 1e160])
def test_probe_far_from_unit_scale_fits_or_raises_degenerate(scale):
    # the fixed-step fit is not scale invariant: up to 1e154 it gives the
    # scale-1 answer, beyond that its logits overflow
    rng = np.random.default_rng(20)
    feats = rng.standard_normal((40, 16))
    labels = np.repeat([0, 1], 20)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if scale < 1e155:
            assert linear_probe(feats * scale, labels).top1 == 0.625
        else:
            with pytest.raises(DegenerateInputError, match="largest magnitude") as err:
                linear_probe(feats * scale, labels)
            named = float(str(err.value).rsplit(" ", 1)[1].rstrip(")"))
            assert scale < named < 10 * scale


# --- 2D projection ---

def test_project_2d_preserves_planar_data():
    rng = np.random.default_rng(11)
    feats = rng.standard_normal((40, 2))
    coords = project_2d(feats)
    # distances are preserved: the projection is a rotation of centered data
    d_orig = np.linalg.norm(feats[:, None] - feats[None], axis=2)
    d_proj = np.linalg.norm(coords[:, None] - coords[None], axis=2)
    assert np.abs(d_orig - d_proj).max() < 1e-10


def test_project_2d_rank_one_second_coordinate_zero():
    t = np.linspace(-3, 3, 25)
    direction = np.array([1.0, 2.0, -0.5])
    feats = t[:, None] * direction[None]
    coords = project_2d(feats)
    assert np.abs(coords[:, 1]).max() < 1e-10


def test_project_2d_isotropic_variances_match():
    rng = np.random.default_rng(12)
    feats = rng.standard_normal((4000, 3))
    coords = project_2d(feats)
    v = coords.var(axis=0)
    assert v[0] >= v[1]
    assert v[0] / v[1] < 1.1


def test_project_2d_sign_convention_stable():
    rng = np.random.default_rng(13)
    feats = rng.standard_normal((30, 6))
    assert np.array_equal(project_2d(feats), project_2d(feats))


def test_project_2d_minimal_reconstruction_error():
    rng = np.random.default_rng(14)
    feats = rng.standard_normal((25, 4)) @ np.diag([3.0, 2.0, 1.0, 0.5])
    centered = feats - feats.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    pca_err = ((centered - centered @ vt[:2].T @ vt[:2]) ** 2).sum()
    for _ in range(50):
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)))
        err = ((centered - centered @ q @ q.T) ** 2).sum()
        assert pca_err <= err + 1e-9


def test_project_2d_rank_zero_degenerate():
    with pytest.raises(DegenerateInputError):
        project_2d(np.ones((5, 3)))


# --- teacher view accuracies ---

def test_view_accuracies_order_teachers_by_alignment():
    spec = CorpusSpec(4, 10, 8, 16, 8, video_spread=1.0, frame_noise=0.2, seed=15)
    corpus = generate_corpus(spec)
    bank = build_bank(corpus, (1.0, 0.0), embed_dim=8, seeds=(1, 1))
    accs = teacher_view_accuracies(corpus, bank, seed=0)
    assert len(accs) == 2
    assert all(0.0 <= a <= 1.0 for a in accs)
    assert accs[0] > accs[1]
    assert accs == teacher_view_accuracies(corpus, bank, seed=0)


# --- student feature export ---

def test_video_features_unit_rows(tiny_corpus):
    enc = build_student(tiny_corpus.spec.frame_dim, 8, 5, seed=0)
    feats = video_features(enc, tiny_corpus)
    assert feats.shape == (tiny_corpus.num_videos, 5)
    assert np.abs(np.linalg.norm(feats, axis=1) - 1.0).max() < 1e-10


def test_video_features_embed_each_video_pooled_in_order(tiny_corpus):
    enc = build_student(tiny_corpus.spec.frame_dim, 8, 5, seed=0)
    frames = tiny_corpus.frames()
    total = frames[:, 0].copy()
    for t in range(1, frames.shape[1]):
        total += frames[:, t]
    assert np.array_equal(video_features(enc, tiny_corpus),
                          forward_batch(enc, total / frames.shape[1])[0])


# --- artifact writers ---

def test_projection_csv_layout(tmp_path):
    # a "\n" comment line, then rows ending in "\r\n"; floats by repr
    path = tmp_path / "projection.csv"
    ids = np.array([7, 2 ** 63 - 1], dtype=np.uint64)
    write_projection_csv(path, ids, np.array([0, 1]), np.array([[1.0, -0.1], [1 / 3, 4e-20]]),
                         seed=5)
    assert path.read_bytes() == (
        b"# seed=5; full run configuration in config.json\n"
        b"video_id,label,x,y\r\n"
        b"7,0,1.0,-0.1\r\n"
        b"9223372036854775807,1,0.3333333333333333,4e-20\r\n"
    )


def test_projection_csv_writes_uint64_ids_unwrapped(tmp_path):
    path = tmp_path / "projection.csv"
    ids = np.array([3, 2 ** 63 + 5, 2 ** 64 - 1], dtype=np.uint64)
    write_projection_csv(path, ids, np.array([0, 1, 2]), np.zeros((3, 2)))
    rows = path.read_text().splitlines()[2:]
    assert [row.split(",")[0] for row in rows] == [str(v) for v in (3, 2 ** 63 + 5, 2 ** 64 - 1)]
