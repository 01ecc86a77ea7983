import json

import pytest

from dtg.config import (ConfigError, config_from_dict, load_config, resolve,
                        to_dict)
from dtg.losses import FusionLevel, WeightScheme
from dtg.sampling import PairMode

from conftest import (BAD_SCHEDULE_FIELDS, NON_FINITE_FIELDS, NON_INTEGER_FIELDS,
                      NON_NUMBER_FIELDS)


def _minimal(**extra):
    doc = {"seed": 5,
           "corpus": {"num_classes": 2, "videos_per_class": 3,
                      "frames_per_video": 8, "frame_dim": 8, "signal_dim": 4},
           "train": {"epochs": 2, "K": 4, "milestones": []}}
    doc.update(extra)
    return doc


def test_minimal_document_parses():
    cfg = config_from_dict(_minimal())
    assert cfg.seed == 5
    assert cfg.corpus.num_classes == 2
    assert cfg.corpus.seed == 5  # corpus inherits the top-level seed
    assert cfg.train.epochs == 2
    assert cfg.teachers[0].rho == 0.9  # default single teacher


def test_enum_fields_parse_from_config_names():
    cfg = config_from_dict(_minimal(train={
        "epochs": 2, "K": 4, "milestones": [],
        "pair_mode": "seq-seq-disjoint", "weight_scheme": "online2",
        "fusion_level": "feature"}))
    assert cfg.train.pair_mode is PairMode.SEQ_SEQ_DISJOINT
    assert cfg.train.weight_scheme is WeightScheme.ONLINE2
    assert cfg.train.fusion_level is FusionLevel.FEATURE


def test_bad_enum_value_is_config_error():
    with pytest.raises(ConfigError, match="pair_mode"):
        config_from_dict(_minimal(train={"epochs": 2, "K": 4, "milestones": [],
                                         "pair_mode": "imgimg"}))


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict(_minimal(typo=1))
    with pytest.raises(ConfigError, match="unknown key"):
        config_from_dict(_minimal(train={"epochs": 2, "K": 4, "milestones": [],
                                         "lr": 0.1}))


def test_train_seed_is_reserved():
    with pytest.raises(ConfigError, match="derived"):
        config_from_dict(_minimal(train={"epochs": 2, "K": 4, "milestones": [],
                                         "seed": 7}))


@pytest.mark.parametrize("train,teachers", [
    ({"seed": 5, "offline_accuracies": None}, [{"rho": 0.9}]),
    ({"seed": 5, "weight_scheme": "offline", "offline_accuracies": [0.7, 0.3]},
     [{"rho": 0.9, "weight": 0.7}, {"rho": 0.1, "weight": 0.3}]),
], ids=["uniform", "offline"])
def test_derived_train_keys_may_state_the_derived_value(train, teachers):
    doc = _minimal(train={"epochs": 2, "K": 4, "milestones": [], **train}, teachers=teachers)
    stated = {k: v for k, v in train.items() if k not in ("seed", "offline_accuracies")}
    without = _minimal(train={"epochs": 2, "K": 4, "milestones": [], **stated},
                       teachers=teachers)
    assert config_from_dict(doc) == config_from_dict(without)


@pytest.mark.parametrize("corpus", [None, "data/corpus.dtgc", _minimal()["corpus"]],
                         ids=["none", "path", "spec"])
@pytest.mark.parametrize("train,teachers", [
    ({}, [{"rho": 0.9}, {"rho": 0.2, "seed": 3}]),
    ({"weight_scheme": "offline", "pair_mode": "img-seq", "milestones": [1]},
     [{"rho": 0.9, "weight": 0.7}, {"rho": 0.1, "weight": 0.3, "name": "weak"}]),
], ids=["uniform", "offline"])
def test_to_dict_reads_back_as_the_same_config(corpus, train, teachers):
    doc = _minimal(corpus=corpus, teachers=teachers, out_dir="runs/x",
                   train={"epochs": 2, "K": 4, "milestones": [], **train})
    cfg = resolve(config_from_dict(doc), seed_override=9)
    assert config_from_dict(json.loads(json.dumps(to_dict(cfg)))) == cfg


def test_offline_scheme_requires_teacher_weights():
    doc = _minimal(train={"epochs": 2, "K": 4, "milestones": [],
                          "weight_scheme": "offline"},
                   teachers=[{"rho": 0.9}, {"rho": 0.1}])
    with pytest.raises(ConfigError, match="weight"):
        config_from_dict(doc)
    doc["teachers"] = [{"rho": 0.9, "weight": 0.7}, {"rho": 0.1, "weight": 0.3}]
    cfg = config_from_dict(doc)
    assert cfg.train.offline_accuracies == (0.7, 0.3)


def test_teacher_weights_forbidden_elsewhere():
    doc = _minimal(teachers=[{"rho": 0.9, "weight": 0.7}])
    with pytest.raises(ConfigError, match="offline"):
        config_from_dict(doc)


def test_rho_range_checked():
    with pytest.raises(ConfigError, match="rho"):
        config_from_dict(_minimal(teachers=[{"rho": 1.5}]))


@pytest.mark.parametrize("teacher", [
    {"rho": 0.5, "seed": -1},
    {"rho": 0.5, "seed": 2 ** 64},
    {"rho": 0.5, "seed": 1.5},
    {"rho": 0.5, "seed": True},
    {"rho": 0.5, "seed": "7"},
    {"rho": 0.5, "name": 5},
    {"rho": 0.5, "name": ["a"]},
])
def test_teacher_seed_and_name_checked(teacher):
    with pytest.raises(ConfigError, match=r"teachers\[1\]\.(seed|name)"):
        config_from_dict(_minimal(teachers=[{"rho": 0.9}, teacher]))


def test_teacher_seed_range_ends_accepted():
    cfg = config_from_dict(_minimal(teachers=[{"rho": 0.9, "seed": 0, "name": "a"},
                                              {"rho": 0.1, "seed": 2 ** 64 - 1}]))
    assert [t.seed for t in cfg.teachers] == [0, 2 ** 64 - 1]


def test_bool_top_level_seed_rejected():
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(_minimal(seed=True))


def test_invalid_train_values_are_config_errors():
    with pytest.raises(ConfigError):
        config_from_dict(_minimal(train={"epochs": 2, "K": 0, "milestones": []}))
    with pytest.raises(ConfigError):
        config_from_dict(_minimal(seed=-3))
    # feature jitter and the coordinate mask are retired: any value is an unknown key
    for key in ("jitter", "mask_frac"):
        for value in (0.0, 0.2, -1.0):
            with pytest.raises(ConfigError, match=f"unknown key.*{key}"):
                config_from_dict(_minimal(train={"epochs": 2, "K": 4, "milestones": [],
                                                 key: value}))


@pytest.mark.parametrize("section,key,value",
                         NON_INTEGER_FIELDS + [("corpus", "seed", "3")] + NON_NUMBER_FIELDS
                         + NON_FINITE_FIELDS)
def test_integer_fields_reject_floats_bools_and_strings(section, key, value):
    # float fields take any finite number (ints included) but no bool or string
    if (section, key, value) in NON_NUMBER_FIELDS + NON_FINITE_FIELDS:
        kind = "a finite number"
    else:
        kind = "an integer"
    doc = _minimal()
    doc[section] = {**doc.get(section, {}), key: value}
    with pytest.raises(ConfigError, match=rf"{section}\.{key} must be {kind}"):
        config_from_dict(doc)


SCHEDULE_RULES = {"decay": "a finite number > 0 and <= 1",
                  "momentum": "a finite number >= 0 and < 1",
                  "weight_decay": "a finite number >= 0",
                  "milestones": "a list of integers >= 0"}


@pytest.mark.parametrize("key,value", BAD_SCHEDULE_FIELDS)
def test_schedule_and_optimizer_ranges_checked_at_load(key, value):
    doc = _minimal(train={"epochs": 4, "K": 4, "milestones": [1], key: value})
    with pytest.raises(ConfigError, match=rf"train\.{key} must be {SCHEDULE_RULES[key]}, got"):
        config_from_dict(doc)


def test_schedule_and_optimizer_range_ends_accepted():
    train = config_from_dict(_minimal(train={"epochs": 4, "K": 4, "milestones": [0],
                                             "decay": 1, "momentum": 0,
                                             "weight_decay": 0})).train
    assert (train.decay, train.momentum, train.weight_decay, train.milestones) == (1, 0, 0, (0,))


def test_float_fields_take_integers():
    cfg = config_from_dict(_minimal(train={"epochs": 2, "K": 4, "milestones": [], "lr0": 1},
                                    eval={"probe_lr": 1}))
    assert cfg.train.lr0 == 1 and cfg.eval.probe_lr == 1


@pytest.mark.parametrize("teacher,message", [
    ({"rho": True}, r"teachers\[1\]\.rho must be a finite number >= 0 and <= 1"),
    ({"rho": 0.1, "weight": "x"}, r"teachers\[1\]\.weight must be a finite number >= 0"),
    ({"rho": 0.1, "weight": True}, r"teachers\[1\]\.weight must be a finite number >= 0"),
    ({"rho": 0.1, "weight": -1}, r"teachers\[1\]\.weight must be a finite number >= 0"),
    ({"rho": 0.1, "weight": float("nan")}, r"teachers\[1\]\.weight must be a finite"),
    ({"rho": 0.1, "weight": float("inf")}, r"teachers\[1\]\.weight must be a finite"),
    ({"rho": 0.1, "weight": 10 ** 400}, r"teachers\[1\]\.weight must be a finite"),
], ids=["rho-bool", "weight-string", "weight-bool", "weight-negative",
        "weight-nan", "weight-inf", "weight-huge-int"])
def test_teacher_numbers_checked_at_load(teacher, message):
    doc = _minimal(train={"epochs": 2, "K": 4, "milestones": [], "weight_scheme": "offline"},
                   teachers=[{"rho": 0.9, "weight": 0.7}, teacher])
    with pytest.raises(ConfigError, match=message):
        config_from_dict(doc)


def test_offline_weights_need_a_positive_total():
    doc = _minimal(train={"epochs": 2, "K": 4, "milestones": [], "weight_scheme": "offline"},
                   teachers=[{"rho": 0.9, "weight": 0}, {"rho": 0.1, "weight": 0.0}])
    rule = r"teachers\[i\]\.weight must be given for offline weighting and sum to a finite number > 0"
    with pytest.raises(ConfigError, match=rule):
        config_from_dict(doc)
    doc["teachers"][1]["weight"] = 1e-300
    assert config_from_dict(doc).train.offline_accuracies == (0, 1e-300)
    # each weight is finite, but their sum overflows
    doc["teachers"] = [{"rho": 0.9, "weight": 1e308}, {"rho": 0.1, "weight": 1e308}]
    with pytest.raises(ConfigError, match=rule):
        config_from_dict(doc)


@pytest.mark.parametrize("milestones", [[1.5], [True], [1, "1"], [None]])
def test_milestone_elements_must_be_integers(milestones):
    doc = _minimal(train={"epochs": 4, "K": 4, "milestones": milestones})
    with pytest.raises(ConfigError, match=r"train\.milestones must be a list of integers"):
        config_from_dict(doc)


def test_corpus_may_be_a_file_path():
    cfg = config_from_dict(_minimal(corpus="data/corpus.dtgc"))
    assert cfg.corpus == "data/corpus.dtgc"


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "nope.json")


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "c.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(p)


def test_resolve_fills_teacher_seeds_and_override():
    cfg = config_from_dict(_minimal(teachers=[{"rho": 0.9}, {"rho": 0.2}]))
    res = resolve(cfg, seed_override=11)
    assert res.seed == 11
    assert res.train.seed == 11
    assert res.corpus.seed == 11
    assert all(t.seed is not None for t in res.teachers)
    assert res.teachers[0].seed != res.teachers[1].seed
    assert res.teachers[0].name == "teacher0"


def test_resolve_preserves_explicit_teacher_seed():
    cfg = config_from_dict(_minimal(teachers=[{"rho": 0.9, "seed": 77, "name": "x"}]))
    res = resolve(cfg)
    assert res.teachers[0].seed == 77 and res.teachers[0].name == "x"


def test_to_dict_round_trips_through_json():
    cfg = resolve(config_from_dict(_minimal()))
    doc = to_dict(cfg)
    json.dumps(doc)  # fully serializable
    assert doc["seed"] == 5
    assert doc["train"]["pair_mode"] == "seq-seq-overlap"
    assert doc["train"]["weight_scheme"] == "uniform"
    assert doc["corpus"]["num_classes"] == 2
