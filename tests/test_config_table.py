"""The config table, fuzzed one field at a time.

The cases come from the field declarations themselves (``numerics.declared``
on ``ExperimentConfig``, ``CorpusSpec``, ``TeacherSpec``, ``TrainConfig`` and
``EvalConfig``), so a field added later is drawn without a change here.  Each
case sets one key of a small valid document to a value: inside the declared
range, at each end and just past it, of a wrong type, NaN or +-Infinity, or
huge.  ``config_from_dict`` must accept the document exactly when the
declaration allows the value, and ``dtg pretrain`` must exit 0, 2 or 4,
leave no run directory on failure, and name ``<section>.<key>`` when it
rejects the value.

``RULES`` is the documented rule of every field, as the error message states
it; a declaration that changes a rule fails here until ``RULES`` changes too.
"""

import contextlib
import dataclasses
import io
import json
import math
import sys
import tempfile
from enum import Enum
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from dtg.cli import main
from dtg.config import ConfigError, EvalConfig, ExperimentConfig, TeacherSpec, config_from_dict
from dtg.corpus import CorpusSpec
from dtg.trainer import TrainConfig

RULES = {
    "seed": f"an integer >= 0 and < {2 ** 64}",
    "out_dir": "a string",
    "corpus.num_classes": "an integer >= 1",
    "corpus.videos_per_class": "an integer >= 1",
    "corpus.frames_per_video": "an integer >= 1",
    "corpus.frame_dim": "an integer >= 1",
    "corpus.signal_dim": "an integer >= 1",
    "corpus.video_spread": "a finite number >= 0",
    "corpus.frame_noise": "a finite number >= 0",
    "corpus.drift": "a finite number >= 0",
    "corpus.seed": f"an integer >= 0 and < {2 ** 64}",
    "teachers[1].rho": "a finite number >= 0 and <= 1",
    "teachers[1].seed": f"an integer >= 0 and < {2 ** 64}",
    "teachers[1].name": "a string",
    "teachers[1].weight": "a finite number >= 0",
    "train.epochs": "an integer >= 0",
    "train.batch_size": "an integer >= 1",
    "train.lr0": "a finite number > 0",
    "train.momentum": "a finite number >= 0 and < 1",
    "train.weight_decay": "a finite number >= 0",
    "train.milestones": "a list of integers >= 0",
    "train.decay": "a finite number > 0 and <= 1",
    "train.tau": "a finite number > 0",
    "train.K": "an integer >= 1",
    "train.alpha": "a finite number >= 0",
    "train.beta": "a finite number >= 0",
    "train.pair_mode": "one of 'img-img', 'img-seq', 'seq-seq-overlap', 'seq-seq-disjoint'",
    "train.weight_scheme": "one of 'uniform', 'offline', 'online1', 'online2'",
    "train.fusion_level": "one of 'loss', 'feature'",
    "train.d": "an integer >= 1",
    "train.h": "an integer >= 1",
    "train.segments": "an integer >= 1",
    "train.mask_frac": "a finite number >= 0 and < 1",
    "eval.split_frac": "a finite number > 0 and < 1",
    "eval.probe_epochs": "an integer >= 0",
    "eval.probe_lr": "a finite number > 0",
    "eval.knn_k": "an integer >= 1",
}

# Drawn from about -2 to 16 and never huge: a valid huge size is a long or
# large run, not a config error.
SIZES = {"epochs", "batch_size", "K", "d", "h", "segments", "num_classes", "videos_per_class",
         "frames_per_video", "frame_dim", "signal_dim", "probe_epochs"}

EPOCHS = 2
# 12 videos; signal_dim 1 keeps every drawn frame_dim and signal_dim within
# their cross-field rule (signal_dim <= frame_dim), and the empty milestone
# list every drawn epochs
BASE = {"seed": 0,
        "corpus": {"num_classes": 3, "videos_per_class": 4, "frames_per_video": 8,
                   "frame_dim": 16, "signal_dim": 1, "video_spread": 1.0, "frame_noise": 0.3},
        "teachers": [{"rho": 0.9}, {"rho": 0.5}],
        "train": {"epochs": EPOCHS, "K": 4, "batch_size": 4, "d": 6, "h": 8, "milestones": []}}

SECTIONS = (("", ExperimentConfig), ("corpus", CorpusSpec), ("teachers[1]", TeacherSpec),
            ("train", TrainConfig), ("eval", EvalConfig))
DERIVED = {"train.seed"}  # the top-level seed; no document sets it
FIELDS = [(f"{section}.{f.name}".lstrip("."), f) for section, cls in SECTIONS
          for f in dataclasses.fields(cls) if "kind" in f.metadata
          and f"{section}.{f.name}" not in DERIVED]

_OPS = {"ge": lambda v, b: v >= b, "gt": lambda v, b: v > b,
        "le": lambda v, b: v <= b, "lt": lambda v, b: v < b}


def _finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # an integer beyond the float range
        return False


def _allowed(field, value) -> bool:
    """What the declaration of ``field`` says of a JSON ``value``."""
    return value is None and field.default is None or _conforms(field.metadata, value)


def _conforms(rule, value) -> bool:
    kind = rule["kind"]
    if isinstance(value, bool):
        return False
    if kind is tuple:
        return isinstance(value, list) and all(_conforms({**rule, "kind": int}, v) for v in value)
    if isinstance(kind, type) and issubclass(kind, Enum):
        return value in [e.value for e in kind]
    if kind is float:
        if not (isinstance(value, (int, float)) and _finite(value)):
            return False
    elif not isinstance(value, kind):
        return False
    return all(_OPS[b](value, rule[b]) for b in _OPS if b in rule)


def _numbers(field) -> list:
    """Each end of a numeric field's range and the next value past it on
    either side, a value inside, and (for fields that are not sizes) the
    huge ones."""
    rule, kind = field.metadata, field.metadata["kind"]
    if kind is int:
        step = lambda v, up: v + 1 if up else v - 1
    else:
        step = lambda v, up: math.nextafter(v, math.inf if up else -math.inf)
    values = []
    for b in _OPS:
        if b in rule:
            values += [step(rule[b], False), rule[b], step(rule[b], True)]
    values.append(rule.get("ge", rule.get("gt", 0)) + (1 if kind is int else 0.5))
    if field.name in SIZES:
        return [v for v in values if -2 <= v <= 16] + [1.5]
    values += [2 ** 64, 10 ** 400]
    return values + ([1.5] if kind is int else [sys.float_info.max])


def _cases(field) -> list:
    """The listed values of one field: its numbers, enum values or strings,
    then wrong types and non-finite numbers."""
    kind = field.metadata["kind"]
    if kind is tuple:
        values = [[], [0], [-1], [EPOCHS - 1], [EPOCHS], [0, 0], [1.5], [True], ["1"], [None], 5]
    elif kind is str:
        values = ["run", "", 5]
    elif issubclass(kind, Enum):
        values = [e.value for e in kind] + ["x", 5]
    else:
        values = _numbers(field) + ["1"]
    values += [True, False, [1], {}, math.nan, math.inf, -math.inf]
    if field.default is not None:  # on an optional field, null is the default
        values.append(None)
    return values


def _drawn(field):
    """Values inside and around the range: sizes from -2 to 16."""
    rule, kind = field.metadata, field.metadata["kind"]
    lo = rule.get("ge", rule.get("gt", 0))
    if kind is int:
        hi = 16 if field.name in SIZES else rule.get("lt", lo + 100) + 1
        return st.integers(lo - 2, hi)
    if kind is float:
        hi = rule.get("le", rule.get("lt", lo + 16))
        return st.floats(lo - 1, hi + 1)
    if kind is tuple:
        return st.lists(st.integers(-2, EPOCHS), max_size=2)
    if kind is str:
        return st.text(max_size=6)
    return st.sampled_from(_cases(field))


def _expected(path, field, value) -> bool:
    if path == "train.milestones" and _allowed(field, value):
        # milestones are also strictly increasing and below the epochs
        return all(m < EPOCHS for m in value) and all(b > a for a, b in zip(value, value[1:]))
    return _allowed(field, value)


def _document(path, value) -> dict:
    doc = json.loads(json.dumps(BASE))
    *section, key = path.split(".")
    if not section:
        doc[key] = value
    elif section[0] == "teachers[1]":
        doc["teachers"][1][key] = value
    else:
        doc.setdefault(section[0], {})[key] = value
    # offline weighting reads the teacher weights: a case that sets either
    # one sets both
    if key == "weight" or (path == "train.weight_scheme" and value == "offline"):
        doc["train"]["weight_scheme"] = "offline"
        for t in doc["teachers"]:
            t.setdefault("weight", 1.0)
    return doc


def _check_config(path, field, value) -> None:
    doc = _document(path, value)
    if _expected(path, field, value):
        config_from_dict(doc)
        return
    with pytest.raises(ConfigError) as err:
        config_from_dict(doc)
    if not _allowed(field, value):  # the declaration itself rejects it
        assert str(err.value).startswith(f"{path} must be {RULES[path]}, got "), str(err.value)
    else:
        assert str(err.value).startswith(f"{path} must be "), str(err.value)


def test_every_json_field_is_declared_and_documented():
    assert sorted(path for path, _ in FIELDS) == sorted(RULES)


@pytest.mark.parametrize("path,field", FIELDS, ids=[path for path, _ in FIELDS])
def test_listed_values_are_accepted_exactly_when_declared(path, field):
    for value in _cases(field):
        _check_config(path, field, value)


_FIELD_AND_VALUE = st.sampled_from(FIELDS).flatmap(
    lambda pf: st.tuples(st.just(pf), st.one_of(st.sampled_from(_cases(pf[1])), _drawn(pf[1]))))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(case=_FIELD_AND_VALUE)
def test_pretrain_on_one_changed_field_exits_0_2_or_4(case):
    (path, field), value = case
    _check_config(path, field, value)
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "c.json"
        config.write_text(json.dumps(_document(path, value)))
        out, err = Path(tmp) / "run", io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["pretrain", "--config", str(config), "--out", str(out), "--quiet"])
        assert code in (0, 2, 4), err.getvalue()
        assert code == 0 or not out.exists()
        if not _expected(path, field, value):
            assert code == 2 and f"error: {path} must be " in err.getvalue(), err.getvalue()
