"""JSON experiment configuration.

One document drives a whole run: corpus (inline spec or path to a generated
file), teacher list, training hyperparameters, and eval settings.  A single
top-level seed feeds every stage; ``resolve`` fills the derived seeds in so
the config embedded in run artifacts is fully explicit.

Schema (all keys optional unless noted):

    {
      "seed": 0,
      "corpus": { ...CorpusSpec fields... } | "path/to/corpus.dtgc",
      "teachers": [{"rho": 0.9, "seed": ..., "name": ..., "weight": ...}, ...],
      "train":  { ...TrainConfig fields except seed/offline_accuracies... },
      "eval":   {"split_frac", "probe_epochs", "probe_lr", "knn_k"},
      "out_dir": "runs/exp1"
    }

Teacher "weight" entries are the offline per-teacher accuracies; they must be
present on every teacher when train.weight_scheme is "offline" and absent
otherwise.  Each is a finite nonnegative number, and at least one is
positive.  Fields typed float take any finite JSON number but not
true/false, NaN or +-Infinity.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path

from .corpus import CorpusSpec
from .losses import FusionLevel, WeightScheme
from .sampling import PairMode
from .seeding import derive_seed
from .trainer import TrainConfig


class ConfigError(ValueError):
    """The experiment document is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class TeacherSpec:
    rho: float
    seed: int | None = None
    name: str | None = None
    weight: float | None = None  # offline accuracy; only with the offline scheme


@dataclass(frozen=True)
class EvalConfig:
    split_frac: float = 0.8
    probe_epochs: int = 100
    probe_lr: float = 0.01
    knn_k: int = 5

    def __post_init__(self):
        # a value of the wrong type makes these comparisons raise TypeError,
        # which _build reports as a ConfigError
        if not 0 < self.split_frac < 1:
            raise ValueError("split_frac must lie strictly between 0 and 1")
        if self.probe_epochs < 0 or not self.probe_lr > 0 or self.knn_k < 1:
            raise ValueError("need probe_epochs >= 0, probe_lr > 0 and knn_k >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    corpus: CorpusSpec | None = None
    corpus_path: str | None = None
    teachers: tuple[TeacherSpec, ...] = (TeacherSpec(rho=0.9),)
    train: TrainConfig = TrainConfig()
    eval: EvalConfig = EvalConfig()
    out_dir: str | None = None


_ENUM_FIELDS = {
    "pair_mode": PairMode,
    "weight_scheme": WeightScheme,
    "fusion_level": FusionLevel,
}


def _check_keys(doc: dict, allowed, where: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _build(cls, doc: dict, where: str):
    fields = {f.name: f for f in dataclasses.fields(cls)}
    _check_keys(_object(doc, where), fields, where)
    kwargs = {}
    for key, value in doc.items():
        if key in _ENUM_FIELDS:
            enum_cls = _ENUM_FIELDS[key]
            try:
                value = enum_cls(value)
            except ValueError:
                valid = ", ".join(repr(e.value) for e in enum_cls)
                raise ConfigError(f"{where}.{key}: {value!r} is not one of {valid}") from None
        elif key == "milestones":
            if not isinstance(value, list) or not all(map(_is_int, value)):
                raise ConfigError(f"{where}.milestones must be a list of integers")
            value = tuple(value)
        elif fields[key].type in _SCALAR_CHECKS:
            is_valid, kind = _SCALAR_CHECKS[fields[key].type]
            if not is_valid(value):
                raise ConfigError(f"{where}.{key} must be {kind}, got {value!r}")
            if kind == "a number" and value is not None and not _is_finite(value):
                raise ConfigError(f"{where}.{key} must be a finite number")
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {where}: {exc}") from exc


def _is_int(value) -> bool:
    # JSON true/false arrive as bool, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _is_finite(number) -> bool:
    try:
        return math.isfinite(number)
    except OverflowError:  # a JSON integer beyond the float range
        return False


def _is_seed(value) -> bool:
    return _is_int(value) and 0 <= value < 2 ** 64


# Annotation (a string under postponed evaluation) -> (check, what it needs).
# A float field takes any JSON number but not true/false or a string;
# _build then rejects NaN, +-Infinity and integers beyond the float range.
_SCALAR_CHECKS = {
    "int": (_is_int, "an integer"),
    "float": (_is_number, "a number"),
    "float | None": (lambda v: v is None or _is_number(v), "a number"),
}


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("experiment config must be a JSON object")
    _check_keys(doc, ("seed", "corpus", "teachers", "train", "eval", "out_dir"),
                "config")
    seed = doc.get("seed", 0)
    if not _is_seed(seed):
        raise ConfigError("seed must be an integer in [0, 2^64)")

    corpus = corpus_path = None
    raw_corpus = doc.get("corpus")
    if isinstance(raw_corpus, str):
        corpus_path = raw_corpus
    elif isinstance(raw_corpus, dict):
        corpus = _build(CorpusSpec, {"seed": seed, **raw_corpus}, "corpus")
    elif raw_corpus is not None:
        raise ConfigError("corpus must be an object (spec) or a string (path)")

    raw_teachers = doc.get("teachers", [{"rho": 0.9}])
    if not isinstance(raw_teachers, list) or not raw_teachers:
        raise ConfigError("teachers must be a nonempty list")
    teachers = tuple(_build(TeacherSpec, t, f"teachers[{i}]")
                     for i, t in enumerate(raw_teachers))
    for i, t in enumerate(teachers):
        if not 0 <= t.rho <= 1:
            raise ConfigError(f"teachers[{i}].rho must be a number in [0, 1]")
        if t.weight is not None and not t.weight >= 0:
            raise ConfigError(f"teachers[{i}].weight must be a finite nonnegative number, "
                              f"got {t.weight!r}")
        if t.seed is not None and not _is_seed(t.seed):
            raise ConfigError(f"teachers[{i}].seed must be an integer in [0, 2^64)")
        if t.name is not None and not isinstance(t.name, str):
            raise ConfigError(f"teachers[{i}].name must be a string")

    raw_train = dict(_object(doc.get("train", {}), "train"))
    for reserved in ("seed", "offline_accuracies"):
        if reserved in raw_train:
            raise ConfigError(
                f"train.{reserved} is derived (seed from the top level, offline "
                "accuracies from the teacher weights); remove it"
            )
    train_doc = {**raw_train, "seed": seed}
    weights = [t.weight for t in teachers]
    if raw_train.get("weight_scheme") == WeightScheme.OFFLINE.value:
        if any(w is None for w in weights):
            raise ConfigError("offline weighting requires a weight on every teacher")
        if sum(weights) <= 0:
            raise ConfigError("every teachers[i].weight is zero; offline weighting "
                              "needs at least one positive weight")
        train_doc["offline_accuracies"] = tuple(weights)
    elif any(w is not None for w in weights):
        raise ConfigError("teacher weights are only meaningful with the offline scheme")
    train = _build(TrainConfig, train_doc, "train")

    eval_cfg = _build(EvalConfig, doc.get("eval", {}), "eval")

    out_dir = doc.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError("out_dir must be a string")

    return ExperimentConfig(seed=seed, corpus=corpus, corpus_path=corpus_path,
                            teachers=teachers, train=train, eval=eval_cfg,
                            out_dir=out_dir)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = json.loads(p.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return config_from_dict(doc)


def resolve(cfg: ExperimentConfig, seed_override: int | None = None,
            out_override: str | None = None) -> ExperimentConfig:
    """Fill every derived field so the config is self-contained: apply the
    seed override, reseed the corpus spec and train config, and give each
    unseeded teacher its own derived seed."""
    seed = cfg.seed if seed_override is None else seed_override
    corpus = cfg.corpus
    if corpus is not None and seed_override is not None:
        corpus = dataclasses.replace(corpus, seed=seed)
    teachers = tuple(
        t if t.seed is not None else dataclasses.replace(
            t, seed=derive_seed(seed, "teacher", k),
            name=t.name or f"teacher{k}")
        for k, t in enumerate(cfg.teachers)
    )
    return dataclasses.replace(
        cfg, seed=seed, corpus=corpus, teachers=teachers,
        train=dataclasses.replace(cfg.train, seed=seed),
        out_dir=out_override or cfg.out_dir,
    )


def to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready view, embedded verbatim in every artifact."""
    def clean(obj):
        if dataclasses.is_dataclass(obj):
            return clean(dataclasses.asdict(obj))
        if isinstance(obj, dict):
            return {k: clean(v) for k, v in obj.items()}
        if isinstance(obj, (PairMode, WeightScheme, FusionLevel)):
            return obj.value
        if isinstance(obj, (list, tuple)):
            return [clean(v) for v in obj]
        return obj
    doc = {
        "seed": cfg.seed,
        "corpus": clean(cfg.corpus) if cfg.corpus is not None else cfg.corpus_path,
        "teachers": [clean(t) for t in cfg.teachers],
        "train": clean(cfg.train),
        "eval": clean(cfg.eval),
        "out_dir": cfg.out_dir,
    }
    return doc
