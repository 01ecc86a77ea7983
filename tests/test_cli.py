import json
import struct
import warnings

import numpy as np
import pytest

import dtg.cli
from dtg.binio import CHECKSUM_SIZE, checksum
from dtg.cli import main
from dtg.corpus import CORPUS_HEADER
from dtg.model import StudentEncoder, build_bank, build_student, save_student
from dtg.trainer import NumericAbortError

from conftest import (BAD_SCHEDULE_FIELDS, NON_FINITE_FIELDS, NON_INTEGER_FIELDS,
                      NON_NUMBER_FIELDS, checkpoint_record, crafted)


def _config_doc(out_dir, **train_overrides):
    train = {"epochs": 2, "K": 4, "batch_size": 4, "d": 6, "h": 8,
             "milestones": []}
    train.update(train_overrides)
    return {"seed": 0,
            "corpus": {"num_classes": 2, "videos_per_class": 3,
                       "frames_per_video": 8, "frame_dim": 8, "signal_dim": 4,
                       "video_spread": 1.0, "frame_noise": 0.3},
            "train": train,
            "out_dir": str(out_dir)}


def _write_config(tmp_path, doc, name="c.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_missing_config_exits_2(tmp_path, capsys):
    assert main(["pretrain", "--config", str(tmp_path / "no.json")]) == 2
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "no.json").exists()


_DEEP = "[" * 200_000 + "]" * 200_000  # too deep for the JSON parser
_NESTED = "[" * 600 + "]" * 600  # parses, but deep enough to exhaust a recursive check


@pytest.mark.parametrize("text", ["{broken", _DEEP, '{"train": {"seed": %s}}' % _NESTED,
                                  '{"train": {"offline_accuracies": %s}}' % _NESTED],
                         ids=["broken", "too-deep-to-parse", "nested-seed",
                              "nested-offline_accuracies"])
def test_malformed_config_exits_2(tmp_path, capsys, text):
    path = tmp_path / "c.json"
    path.write_text(text)
    assert main(["pretrain", "--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_unknown_config_key_exits_2(tmp_path):
    doc = _config_doc(tmp_path / "run")
    doc["mystery"] = 1
    assert main(["pretrain", "--config", _write_config(tmp_path, doc)]) == 2


@pytest.mark.parametrize("section", [
    {"train": 5},
    {"eval": 5},
    {"teachers": [5]},
    {"train": {"milestones": 5}},
    {"teachers": [{"rho": "a"}]},
])
def test_config_section_of_wrong_type_exits_2(tmp_path, capsys, section):
    doc = {**_config_doc(tmp_path / "run"), **section}
    assert main(["probe", "--config", _write_config(tmp_path, doc), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("section,key,value",
                         NON_INTEGER_FIELDS + [("train", "milestones", [1.5])]
                         + NON_NUMBER_FIELDS + NON_FINITE_FIELDS)
def test_non_integer_count_exits_2_before_training(tmp_path, capsys, section, key, value):
    doc = _config_doc(tmp_path / "run")
    doc[section] = {**doc.get(section, {}), key: value}
    assert main(["pretrain", "--config", _write_config(tmp_path, doc), "--quiet"]) == 2
    assert f"{section}.{key} must be" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key,value", BAD_SCHEDULE_FIELDS)
def test_bad_schedule_or_optimizer_value_exits_2_before_training(tmp_path, capsys,
                                                                 key, value):
    doc = _config_doc(tmp_path / "run", **{key: value})
    assert main(["pretrain", "--config", _write_config(tmp_path, doc), "--quiet"]) == 2
    assert f"{key} must" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_retired_jitter_key_exits_2_before_training(tmp_path, capsys):
    doc = _config_doc(tmp_path / "run", jitter=0.2)
    assert main(["pretrain", "--config", _write_config(tmp_path, doc), "--quiet"]) == 2
    assert "unknown key(s) in train: jitter" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("teacher", [
    {"rho": 0.5, "seed": -1},
    {"rho": 0.5, "seed": 2 ** 64},
    {"rho": 0.5, "seed": 1.5},
    {"rho": 0.5, "seed": True},
    {"rho": 0.5, "name": 5},
])
def test_bad_teacher_seed_or_name_exits_2_before_training(tmp_path, capsys, teacher):
    doc = {**_config_doc(tmp_path / "run"), "teachers": [teacher]}
    assert main(["pretrain", "--config", _write_config(tmp_path, doc), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("weight", ["x", -1, float("nan"), True])
def test_bad_offline_weight_exits_2_before_training(tmp_path, capsys, weight):
    doc = {**_config_doc(tmp_path / "run", weight_scheme="offline"),
           "teachers": [{"rho": 0.9, "weight": 0.7}, {"rho": 0.1, "weight": weight}]}
    assert main(["pretrain", "--config", _write_config(tmp_path, doc), "--quiet"]) == 2
    assert "teachers[1].weight" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("train, corpus, keys", [
    ({"K": 6}, {}, ["train.K", "smaller than the number of training videos (6)"]),
    ({"segments": 9}, {}, ["train.segments", "corpus.frames_per_video"]),
    ({}, {"frames_per_video": 3}, ["train.segments", "corpus.frames_per_video"]),
    ({"pair_mode": "seq-seq-disjoint", "segments": 5}, {},
     ["train.segments", "corpus.frames_per_video", "seq-seq-disjoint"]),
    ({"pair_mode": "img-img", "segments": 1}, {"frames_per_video": 1},
     ["train.pair_mode", "corpus.frames_per_video", "img-img"]),
], ids=["K", "segments", "frames_per_video", "disjoint-segments", "img-img-one-frame"])
def test_corpus_dependent_rule_exits_2_naming_its_key(tmp_path, capsys, train, corpus, keys):
    doc = _config_doc(tmp_path / "run", **train)
    doc["corpus"].update(corpus)
    assert main(["pretrain", "--config", _write_config(tmp_path, doc), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {keys[0]} ") and all(k in err for k in keys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("eval_, corpus, keys", [
    ({"knn_k": 6}, {}, ["eval.knn_k", "number of videos (6)", "got 6"]),
    ({"knn_k": 1}, {"videos_per_class": 1}, ["corpus.videos_per_class", "stratified split"]),
    ({}, {"num_classes": 1, "videos_per_class": 40}, ["corpus.num_classes", "got 1"]),
], ids=["knn_k", "videos_per_class", "num_classes"])
def test_corpus_dependent_eval_rule_exits_2_before_features(tmp_path, capsys, monkeypatch,
                                                            eval_, corpus, keys):
    def no_features(*args):
        raise AssertionError("features computed before the eval rules were checked")
    monkeypatch.setattr(dtg.cli, "video_features", no_features)
    doc = {**_config_doc(tmp_path / "run"), "eval": eval_}
    doc["corpus"].update(corpus)
    assert main(["probe", "--config", _write_config(tmp_path, doc), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {keys[0]} ") and all(k in err for k in keys)
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, section, key, value", [
    ("gen-data", "corpus", "frame_dim", 10 ** 7),  # a 728 TiB Haar basis
    ("pretrain", "train", "h", 10 ** 13),          # 582 TiB of first-layer weights
], ids=["gen-data-frame_dim", "pretrain-h"])
def test_config_too_large_to_allocate_exits_2(tmp_path, capsys, command, section, key, value):
    # each array is larger than a 48-bit address space (256 TiB): no process
    # can map it, so numpy's allocation fails before any memory is touched,
    # whatever the overcommit setting
    doc = _config_doc(tmp_path / "run")
    doc[section][key] = value
    assert main([command, "--config", _write_config(tmp_path, doc), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and "TiB" in err and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("key, train, teachers, extra_dim", [
    ("train.d", {}, [{"rho": 0.9}], 1),
    ("train.offline_accuracies", {"weight_scheme": "offline"},
     [{"rho": 0.9, "weight": 0.7}, {"rho": 0.1, "weight": 0.3}], 0),
])
def test_teacher_dependent_rule_exits_2_naming_its_key(tmp_path, capsys, monkeypatch, key,
                                                       train, teachers, extra_dim):
    # the CLI builds one teacher per config entry, at train.d; a one-teacher
    # bank of another dimension or count reaches the run's own check
    def other_bank(cfg, corpus):
        return build_bank(corpus, (0.9,), cfg.train.d + extra_dim, seeds=(0,))
    monkeypatch.setattr(dtg.cli, "_build_bank", other_bank)
    doc = {**_config_doc(tmp_path / "run", **train), "teachers": teachers}
    assert main(["pretrain", "--config", _write_config(tmp_path, doc), "--quiet"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} ")
    assert not (tmp_path / "run").exists()


def test_missing_corpus_file_exits_3(tmp_path):
    doc = _config_doc(tmp_path / "run")
    doc["corpus"] = str(tmp_path / "absent.dtgc")
    assert main(["pretrain", "--config", _write_config(tmp_path, doc),
                 "--quiet"]) == 3
    assert not (tmp_path / "run").exists()


def test_corrupt_checkpoint_probe_exits_3_without_out_dir(tmp_path, capsys):
    ckpt = tmp_path / "bad.dtgm"
    ckpt.write_bytes(b"DTGM v3\n" + bytes(40))
    cfg = _write_config(tmp_path, _config_doc(tmp_path / "run"))
    assert main(["probe", "--config", cfg, "--checkpoint", str(ckpt), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "run").exists()


def test_probe_checkpoint_of_another_frame_dim_exits_2(tmp_path, capsys):
    pre = _config_doc(tmp_path / "pre")
    pre["corpus"]["frame_dim"] = 6
    assert main(["pretrain", "--config", _write_config(tmp_path, pre, "pre.json"),
                 "--quiet"]) == 0
    doc = _config_doc(tmp_path / "run")
    doc["corpus"]["frame_dim"] = 5
    assert main(["probe", "--config", _write_config(tmp_path, doc), "--checkpoint",
                 str(tmp_path / "pre" / "checkpoint.dtgm"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "frame_dim 6" in err and "D = 5" in err
    assert not (tmp_path / "run").exists()


def test_corrupted_corpus_exits_3(tmp_path):
    doc = _config_doc(tmp_path / "gen")
    cfg = _write_config(tmp_path, doc)
    assert main(["gen-data", "--config", cfg, "--quiet"]) == 0
    corpus_file = tmp_path / "gen" / "corpus.dtgc"
    blob = bytearray(corpus_file.read_bytes())
    blob[50] ^= 0xFF
    corpus_file.write_bytes(bytes(blob))
    doc2 = _config_doc(tmp_path / "run")
    doc2["corpus"] = str(corpus_file)
    assert main(["pretrain", "--config", _write_config(tmp_path, doc2, "c2.json"),
                 "--quiet"]) == 3


def _generated_corpus_bytes(tmp_path) -> bytes:
    cfg = _write_config(tmp_path, _config_doc(tmp_path / "gen"))
    assert main(["gen-data", "--config", cfg, "--quiet"]) == 0
    return (tmp_path / "gen" / "corpus.dtgc").read_bytes()


def _probe_exit(tmp_path, corpus_blob) -> int:
    corpus_file = tmp_path / "crafted.dtgc"
    corpus_file.write_bytes(corpus_blob)
    doc = _config_doc(tmp_path / "probe")
    doc["corpus"] = str(corpus_file)
    return main(["probe", "--config", _write_config(tmp_path, doc, "probe.json"), "--quiet"])


@pytest.mark.parametrize("values, message", [
    ({"signal_dim": 9}, "signal_dim must not exceed frame_dim"),
    ({"num_videos": 2 ** 64 - 1}, "record truncated"),
    # the probe would size its classifier by the class count
    ({"num_classes": 2 ** 32 - 1}, "fewer than the 4294967295 classes"),
])
def test_checksum_valid_bad_header_exits_3(tmp_path, capsys, values, message):
    blob = crafted(_generated_corpus_bytes(tmp_path), **values)
    assert _probe_exit(tmp_path, blob) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["pretrain", "probe"])
@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_checksum_valid_non_finite_frame_exits_3(tmp_path, capsys, command, value):
    # the frames are the last array: overwrite the last value, then re-checksum
    body = _generated_corpus_bytes(tmp_path)[:-CHECKSUM_SIZE - 8] + struct.pack("<d", value)
    corpus_file = tmp_path / "non-finite.dtgc"
    corpus_file.write_bytes(body + checksum(body))
    doc = _config_doc(tmp_path / "run")
    doc["corpus"] = str(corpus_file)
    assert main([command, "--config", _write_config(tmp_path, doc, "run.json"), "--quiet"]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flag", [("probe", "--checkpoint"), ("train-joint", "--init")])
@pytest.mark.parametrize("value", [float("nan"), float("-inf")])
def test_checksum_valid_non_finite_checkpoint_exits_3(tmp_path, capsys, command, flag, value):
    # b3 is the last array of a head-less checkpoint, before its head flag byte:
    # overwrite its last value, then re-checksum
    ckpt = tmp_path / "student.dtgm"
    save_student(ckpt, build_student(8, 8, 6, seed=0))
    blob = ckpt.read_bytes()[:-CHECKSUM_SIZE]
    body = blob[:-9] + struct.pack("<d", value) + blob[-1:]
    ckpt.write_bytes(body + checksum(body))
    cfg = _write_config(tmp_path, _config_doc(tmp_path / "run"))
    assert main([command, "--config", cfg, flag, str(ckpt), "--quiet"]) == 3
    assert "non-finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flag", [("probe", "--checkpoint"), ("train-joint", "--init")])
@pytest.mark.parametrize("dims, classes", [((0, 8, 6), None), ((8, 0, 6), None),
                                           ((8, 8, 0), None), ((8, 8, 6), 0)])
def test_checkpoint_with_a_zero_dimension_exits_3(tmp_path, capsys, command, flag, dims,
                                                  classes):
    ckpt = tmp_path / "student.dtgm"
    ckpt.write_bytes(checkpoint_record(dims, classes))
    cfg = _write_config(tmp_path, _config_doc(tmp_path / "run"))
    assert main([command, "--config", cfg, flag, str(ckpt), "--quiet"]) == 3
    assert "zero dimension" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_v2_corpus_exits_3_unsupported_version(tmp_path, capsys):
    blob = _generated_corpus_bytes(tmp_path).replace(CORPUS_HEADER.encode(), b"DTGC v2", 1)
    assert _probe_exit(tmp_path, blob) == 3
    assert "unsupported version 'DTGC v2'" in capsys.readouterr().err


def test_numeric_abort_exits_4(tmp_path, monkeypatch):
    def boom(config, corpus, bank):
        raise NumericAbortError("non-finite loss at epoch 0, batch 1")
    monkeypatch.setattr(dtg.cli, "pretrain", boom)
    cfg = _write_config(tmp_path, _config_doc(tmp_path / "run"))
    assert main(["pretrain", "--config", cfg, "--quiet"]) == 4


def test_overflowing_corpus_scale_exits_4_naming_the_keys(tmp_path, capsys):
    doc = _config_doc(tmp_path / "run")
    doc["corpus"]["video_spread"] = 1e308
    assert main(["pretrain", "--config", _write_config(tmp_path, doc), "--quiet"]) == 4
    err = capsys.readouterr().err
    assert all(key in err for key in ("corpus.video_spread", "frame_noise", "drift"))
    assert not (tmp_path / "run").exists()


def test_overflowing_corpus_scale_in_gen_data_exits_4_writing_nothing(tmp_path, capsys):
    doc = _config_doc(tmp_path / "gen")
    doc["corpus"]["video_spread"] = 1e308
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["gen-data", "--config", _write_config(tmp_path, doc), "--quiet"]) == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert err.startswith("error: numeric abort: corpus frames overflow")
    assert "corpus.video_spread" in err
    assert not (tmp_path / "gen").exists()


def test_frame_noise_whose_norms_overflow_exits_4(tmp_path, capsys):
    # the frames are finite, but the squares in their norms are not
    doc = _config_doc(tmp_path / "run")
    doc["corpus"]["frame_noise"] = 1e200
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["pretrain", "--config", _write_config(tmp_path, doc), "--quiet"]) == 4
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "non-finite norm" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("seed", ["-1", str(2 ** 64)])
def test_seed_override_out_of_range_exits_2_with_a_corpus_file(tmp_path, capsys, seed):
    cfg = _write_config(tmp_path, _config_doc(tmp_path / "gen"))
    assert main(["gen-data", "--config", cfg, "--quiet"]) == 0
    doc = _config_doc(tmp_path / "run")
    doc["corpus"] = str(tmp_path / "gen" / "corpus.dtgc")
    cfg = _write_config(tmp_path, doc, "run.json")
    assert main(["pretrain", "--config", cfg, "--seed", seed, "--quiet"]) == 2
    assert f"seed must be an integer >= 0 and < {2 ** 64}, got {seed}" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_degenerate_features_exit_4(tmp_path):
    # a checkpoint that maps every video to one point: overlap is undefined
    zeros = lambda *s: np.zeros(s)
    enc = StudentEncoder(W1=zeros(8, 8), b1=zeros(8), W2=zeros(8, 8),
                         b2=zeros(8), W3=zeros(6, 8), b3=np.ones(6))
    ckpt = tmp_path / "flat.dtgm"
    save_student(ckpt, enc)
    cfg = _write_config(tmp_path, _config_doc(tmp_path / "run"))
    assert main(["probe", "--config", cfg, "--checkpoint", str(ckpt),
                 "--quiet"]) == 4


def test_gen_data_writes_corpus_and_config(tmp_path):
    out = tmp_path / "gen"
    cfg = _write_config(tmp_path, _config_doc(out))
    assert main(["gen-data", "--config", cfg, "--quiet"]) == 0
    assert (out / "corpus.dtgc").is_file()
    doc = json.loads((out / "config.json").read_text())
    assert doc["seed"] == 0
    assert doc["corpus"]["num_classes"] == 2


def test_pretrain_artifacts_and_seed_override(tmp_path):
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, _config_doc(out))
    assert main(["pretrain", "--config", cfg, "--seed", "9", "--quiet"]) == 0
    for name in ("checkpoint.dtgm", "report.json", "epochs.csv", "config.json"):
        assert (out / name).is_file(), name
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 9  # the override, not the config value
    assert report["config"]["seed"] == 9
    assert json.loads((out / "config.json").read_text())["seed"] == 9


@pytest.mark.parametrize("command", ["pretrain", "train-joint"])
def test_training_resolves_the_config_once_for_both_files(tmp_path, monkeypatch, command):
    calls = []

    def counted(cfg):
        calls.append(cfg)
        return real(cfg)

    real = dtg.cli.to_dict
    monkeypatch.setattr(dtg.cli, "to_dict", counted)
    out = tmp_path / "run"
    assert main([command, "--config", _write_config(tmp_path, _config_doc(out)), "--quiet"]) == 0
    assert len(calls) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["config"] == json.loads((out / "config.json").read_text())


def _run_files(out) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def _command_args(tmp_path, command) -> list[str]:
    """The extra arguments of ``command``: probe evaluates a pretrained checkpoint."""
    if command != "probe":
        return []
    pre = tmp_path / "pre"
    assert main(["pretrain", "--config", _write_config(tmp_path, _config_doc(pre), "pre.json"),
                 "--quiet"]) == 0
    return ["--checkpoint", str(pre / "checkpoint.dtgm")]


@pytest.mark.parametrize("command", ["gen-data", "pretrain", "train-joint", "probe"])
def test_pretrain_reruns_byte_identical(tmp_path, command):
    extra = _command_args(tmp_path, command)
    out = tmp_path / "run"
    cfg = _write_config(tmp_path, _config_doc(out))
    assert main([command, "--config", cfg, "--seed", "1", "--quiet", *extra]) == 0
    first = _run_files(out)
    assert "config.json" in first and len(first) > 1
    assert main([command, "--config", cfg, "--seed", "1", "--quiet", *extra]) == 0
    assert _run_files(out) == first
    # the written config.json is itself a config that reproduces the run
    written = tmp_path / "written.json"
    written.write_bytes(first["config.json"])
    assert main([command, "--config", str(written), "--quiet", *extra]) == 0
    assert _run_files(out) == first


@pytest.mark.parametrize("teachers,train,key,value", [
    ([{"rho": 0.9}], {}, "seed", 2),
    ([{"rho": 0.9}], {}, "offline_accuracies", [0.5]),
    ([{"rho": 0.9, "weight": 0.7}, {"rho": 0.2, "weight": 0.3}],
     {"weight_scheme": "offline"}, "seed", 0),
    ([{"rho": 0.9, "weight": 0.7}, {"rho": 0.2, "weight": 0.3}],
     {"weight_scheme": "offline"}, "offline_accuracies", [0.3, 0.7]),
    ([{"rho": 0.9, "weight": 0.7}, {"rho": 0.2, "weight": 0.3}],
     {"weight_scheme": "offline"}, "offline_accuracies", None),
], ids=["seed", "accuracies-without-offline", "seed-offline", "accuracies-reordered",
        "accuracies-null-under-offline"])
def test_written_config_with_a_disagreeing_derived_key_exits_2(tmp_path, capsys, teachers,
                                                              train, key, value):
    out = tmp_path / "run"
    doc = {**_config_doc(out, **train), "teachers": teachers, "seed": 1}
    assert main(["pretrain", "--config", _write_config(tmp_path, doc), "--quiet"]) == 0
    written = json.loads((out / "config.json").read_text())
    assert main(["pretrain", "--config", _write_config(tmp_path, written, "same.json"),
                 "--out", str(tmp_path / "same"), "--quiet"]) == 0
    written["train"][key] = value
    capsys.readouterr()
    assert main(["pretrain", "--config", _write_config(tmp_path, written, "edited.json"),
                 "--out", str(tmp_path / "edited"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: train.{key} ") and "derived" in err, err
    assert not (tmp_path / "edited").exists()




def test_blocked_artifact_exits_3_without_temporary_files(tmp_path, capsys):
    run = tmp_path / "run"
    (run / "epochs.csv").mkdir(parents=True)
    assert main(["pretrain", "--config", _write_config(tmp_path, _config_doc(run)),
                 "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("error: ")
    # the files written before epochs.csv stay; no temporary file is left
    assert sorted(p.name for p in run.iterdir()) == ["checkpoint.dtgm", "epochs.csv",
                                                     "report.json"]
    assert (run / "epochs.csv").is_dir()


def test_probe_artifacts_self_describing(tmp_path):
    run = tmp_path / "run"
    cfg = _write_config(tmp_path, _config_doc(run))
    assert main(["pretrain", "--config", cfg, "--quiet"]) == 0
    probe_out = tmp_path / "probe"
    assert main(["probe", "--config", cfg, "--checkpoint",
                 str(run / "checkpoint.dtgm"), "--out", str(probe_out),
                 "--quiet"]) == 0
    config = json.loads((probe_out / "config.json").read_text())
    probe = json.loads((probe_out / "probe.json").read_text())
    assert 0.0 <= probe["top1"] <= 1.0
    assert probe["seed"] == probe["split_seed"] == 0
    assert probe["config"] == config and config["train"]["epochs"] == 2
    assert 0.0 <= probe["knn_top1"] <= 1.0
    assert len(probe["per_class"]) == 2
    overlap = json.loads((probe_out / "overlap.json").read_text())
    assert isinstance(overlap["class_overlap"], float) and overlap["class_overlap"] > 0.0
    assert overlap["seed"] == 0
    assert overlap["config"] == config
    proj = (probe_out / "projection.csv").read_text().splitlines()
    assert proj[0].startswith("# seed=0")
    assert len(proj) == 2 + 6  # comment, header, one row per video


def test_train_joint_resumes_from_checkpoint(tmp_path):
    pre = tmp_path / "pre"
    cfg_pre = _write_config(tmp_path, _config_doc(pre), "pre.json")
    assert main(["pretrain", "--config", cfg_pre, "--quiet"]) == 0
    joint = tmp_path / "joint"
    cfg_joint = _write_config(tmp_path, _config_doc(joint), "joint.json")
    assert main(["train-joint", "--config", cfg_joint, "--init",
                 str(pre / "checkpoint.dtgm"), "--quiet"]) == 0
    report = json.loads((joint / "report.json").read_text())
    assert report["epochs"][-1]["ce_loss"] is not None


@pytest.mark.parametrize("pre_corpus,pre_train,command", [
    ({"num_classes": 3}, {}, "train-joint"),  # 3-class head, 2-class corpus
    ({}, {"d": 3}, "pretrain"),               # d = 3 encoder, d = 6 run
], ids=["three-class-head", "d3-encoder"])
def test_train_joint_init_that_does_not_fit_exits_2(tmp_path, capsys, pre_corpus,
                                                     pre_train, command):
    pre = tmp_path / "pre"
    doc = _config_doc(pre, **pre_train)
    doc["corpus"].update(pre_corpus)
    assert main([command, "--config", _write_config(tmp_path, doc, "pre.json"),
                 "--quiet"]) == 0
    joint = _write_config(tmp_path, _config_doc(tmp_path / "joint"), "joint.json")
    assert main(["train-joint", "--config", joint, "--init",
                 str(pre / "checkpoint.dtgm"), "--quiet"]) == 2
    assert "error: init " in capsys.readouterr().err
    assert not (tmp_path / "joint").exists()


def test_report_aggregates_runs(tmp_path):
    for seed in ("1", "2"):
        run = tmp_path / f"run{seed}"
        cfg = _write_config(tmp_path, _config_doc(run), f"c{seed}.json")
        assert main(["pretrain", "--config", cfg, "--seed", seed, "--quiet"]) == 0
        assert main(["probe", "--config", cfg, "--seed", seed, "--checkpoint",
                     str(run / "checkpoint.dtgm"), "--out", str(run),
                     "--quiet"]) == 0
    out = tmp_path / "summary"
    assert main(["report", "--runs", str(tmp_path / "run1"),
                 str(tmp_path / "run2"), "--out", str(out), "--quiet"]) == 0
    lines = (out / "summary.csv").read_text().splitlines()
    assert lines[0].startswith("# runs=")
    assert lines[1] == "metric,mean,std,n"
    rows = {r.split(",")[0]: r.split(",")[1:] for r in lines[2:]}
    assert set(rows) >= {"top1", "knn_top1", "class_overlap",
                         "final_contrastive_loss"}
    tops = [json.loads((tmp_path / f"run{s}" / "probe.json").read_text())["top1"]
            for s in ("1", "2")]
    assert float(rows["top1"][0]) == pytest.approx(np.mean(tops), abs=1e-12)
    assert float(rows["top1"][1]) == pytest.approx(np.std(tops, ddof=1), abs=1e-12)
    assert rows["top1"][2] == "2"


def test_report_summary_csv_bytes(tmp_path):
    docs = {
        "run1": {"probe.json": {"top1": 0.25, "knn_top1": 0.5},
                 "overlap.json": {"class_overlap": 0.75},
                 "report.json": {"epochs": [{"contrastive_loss": 1.5, "ce_loss": None}]}},
        "run2": {"probe.json": {"top1": 0.75, "knn_top1": 0.625},
                 "report.json": {"epochs": [{"contrastive_loss": 2.5, "ce_loss": 0.5}]}},
    }
    for run, files in docs.items():
        (tmp_path / run).mkdir()
        for name, doc in files.items():
            (tmp_path / run / name).write_text(json.dumps(doc))
    runs = [str(tmp_path / "run1"), str(tmp_path / "run2")]
    assert main(["report", "--runs", *runs, "--out", str(tmp_path / "out"), "--quiet"]) == 0
    assert (tmp_path / "out" / "summary.csv").read_bytes().decode() == (
        f"# runs={runs[0]};{runs[1]}\n"
        "metric,mean,std,n\r\n"
        "class_overlap,0.75,0.0,1\r\n"
        "final_ce_loss,0.5,0.0,1\r\n"
        "final_contrastive_loss,2.0,0.7071067811865476,2\r\n"
        "knn_top1,0.5625,0.08838834764831845,2\r\n"
        "top1,0.5,0.3535533905932738,2\r\n"
    )


def test_report_missing_run_dir_exits_3(tmp_path):
    assert main(["report", "--runs", str(tmp_path / "ghost"), "--quiet"]) == 3


@pytest.mark.parametrize("fname, text", [
    ("probe.json", '{"top1": 0.5, "knn'),
    ("probe.json", '{"top1": "abc"}'),
    ("probe.json", "[]"),
    ("report.json", '{"epochs": 3}'),
    pytest.param("probe.json", _DEEP, id="probe.json-too-deep"),
    pytest.param("report.json", _DEEP, id="report.json-too-deep"),
])
def test_report_corrupt_run_file_exits_3(tmp_path, capsys, fname, text):
    run = tmp_path / "run"
    run.mkdir()
    (run / fname).write_text(text)
    assert main(["report", "--runs", str(run), "--out", str(tmp_path), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


# JSON tokens Python's json reads as numbers that no mean can take: NaN,
# the infinities, and an integer beyond the float range
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "huge-int"])
@pytest.mark.parametrize("fname, key, text", [
    ("probe.json", "top1", '{"knn_top1": 0.5, "top1": %s}'),
    ("report.json", "contrastive_loss",
     '{"epochs": [{"contrastive_loss": 1.0}, {"contrastive_loss": %s, "ce_loss": null}]}'),
], ids=["probe", "report-last-epoch"])
def test_report_rejects_a_metric_that_is_not_a_finite_float(tmp_path, capsys, fname, key,
                                                             text, token):
    run = tmp_path / "run"
    run.mkdir()
    (run / fname).write_text(text % token)
    assert main(["report", "--runs", str(run), "--out", str(tmp_path), "--quiet"]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: {run / fname}: {key} must be a finite number, got ")
    assert not (tmp_path / "summary.csv").exists()
