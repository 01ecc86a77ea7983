"""JSON experiment configuration.

One document drives a whole run: corpus (inline spec or path to a generated
file), teacher list, training hyperparameters, and eval settings.  A single
top-level seed feeds every stage; ``resolve`` fills the derived seeds in so
the config embedded in run artifacts is fully explicit.

The document is ``ExperimentConfig``, field for field (``to_dict`` writes
it, ``config_from_dict`` reads it), so the ``config.json`` a run writes is
itself a config that reproduces the run.  Schema (all keys optional unless
noted):

    {
      "seed": 0,
      "corpus": { ...CorpusSpec fields... } | "path/to/corpus.dtgc",
      "teachers": [{"rho": 0.9, "seed": ..., "name": ..., "weight": ...}, ...],
      "train":  { ...TrainConfig fields... },
      "eval":   {"split_frac", "probe_epochs", "probe_lr", "knn_k"},
      "out_dir": "runs/exp1"
    }

``corpus`` is one field, a spec or a path.  The train section may state
its derived fields only with the values dtg derives: ``seed``, the
top-level seed, and ``offline_accuracies``, the teacher weights under the
offline scheme, else null.

Each field's kind and range are declared once, beside the field, with
``numerics.declared``: see ``CorpusSpec``, ``TeacherSpec``, ``TrainConfig``,
``EvalConfig`` and ``ExperimentConfig``.  A value that breaks its
declaration or a cross-field rule raises ``ConfigError`` naming
``<section>.<key>``.  Teacher "weight" entries are the offline per-teacher
accuracies (``TrainConfig.offline_accuracies``): every teacher has one when
train.weight_scheme is "offline", and none has one otherwise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .binio import FormatError, read_json
from .corpus import CorpusSpec
from .losses import WeightScheme
from .numerics import FieldError, check_fields, declared
from .seeding import derive_seed
from .trainer import TrainConfig


class ConfigError(ValueError):
    """The experiment document is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class TeacherSpec:
    rho: float = declared(float, ge=0, le=1)
    seed: int | None = declared(int, None, ge=0, lt=2 ** 64)
    name: str | None = declared(str, None)
    # offline accuracy; only with the offline scheme
    weight: float | None = declared(float, None, ge=0)

    __post_init__ = check_fields


@dataclass(frozen=True)
class EvalConfig:
    split_frac: float = declared(float, 0.8, gt=0, lt=1)
    probe_epochs: int = declared(int, 100, ge=0)
    probe_lr: float = declared(float, 0.01, gt=0)
    knn_k: int = declared(int, 5, ge=1)

    __post_init__ = check_fields


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = declared(int, 0, ge=0, lt=2 ** 64)
    corpus: CorpusSpec | str | None = None  # an inline spec or a corpus file's path
    teachers: tuple[TeacherSpec, ...] = (TeacherSpec(rho=0.9),)
    train: TrainConfig = TrainConfig()
    eval: EvalConfig = EvalConfig()
    out_dir: str | None = declared(str, None)

    __post_init__ = check_fields


def _check_keys(doc: dict, allowed, where: str) -> None:
    unknown = set(doc) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{where} must be an object, got {type(value).__name__}")
    return value


def _build(cls, doc: dict, where: str, names: dict | None = None):
    """``cls`` from the JSON object ``doc``.  Lists become tuples and enum
    values members where the field declares that kind, and ``cls``'s own
    ``__post_init__`` checks every value against its declaration.  A broken
    rule raises ``ConfigError`` naming ``<where>.<key>`` (just ``<key>`` at
    the top level), or ``names[key]`` if given."""
    fields = {f.name: f for f in dataclasses.fields(cls)}
    _check_keys(_object(doc, where), fields, where)
    kwargs = {}
    for key, value in doc.items():
        kind = fields[key].metadata.get("kind")
        if kind is tuple and isinstance(value, list):
            value = tuple(value)
        elif isinstance(kind, type) and issubclass(kind, Enum) and value in [e.value for e in kind]:
            value = kind(value)
        kwargs[key] = value
    try:
        return cls(**kwargs)
    except FieldError as exc:
        key = (names or {}).get(exc.key, f"{where}.{exc.key}".lstrip("."))
        raise ConfigError(f"{key} {exc.rule}") from exc
    except TypeError as exc:  # a required key is missing
        raise ConfigError(f"invalid {where}: {exc}") from exc


def config_from_dict(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("experiment config must be a JSON object")
    fields = dataclasses.fields(ExperimentConfig)
    _check_keys(doc, [f.name for f in fields], "config")
    top = _build(ExperimentConfig, {f.name: doc[f.name] for f in fields
                                    if "kind" in f.metadata and f.name in doc}, "")
    seed = top.seed

    corpus = doc.get("corpus")
    if isinstance(corpus, dict):
        corpus = _build(CorpusSpec, {"seed": seed, **corpus}, "corpus")
    elif not isinstance(corpus, (str, type(None))):
        raise ConfigError("corpus must be an object (spec) or a string (path)")

    raw_teachers = doc.get("teachers", [{"rho": 0.9}])
    if not isinstance(raw_teachers, list) or not raw_teachers:
        raise ConfigError("teachers must be a nonempty list")
    teachers = tuple(_build(TeacherSpec, t, f"teachers[{i}]")
                     for i, t in enumerate(raw_teachers))

    raw_train = _object(doc.get("train", {}), "train")
    weights = [t.weight for t in teachers]
    offline = raw_train.get("weight_scheme") == WeightScheme.OFFLINE.value
    if not offline and any(w is not None for w in weights):
        raise ConfigError("teacher weights are only meaningful with the offline scheme")
    derived = {"seed": seed,
               "offline_accuracies": tuple(weights) if offline and None not in weights else None}
    for key, value in derived.items():
        if key in raw_train and raw_train[key] != _plain(value):
            raise ConfigError(f"train.{key} is derived (seed from the top level, offline "
                              "accuracies from the teacher weights): it may only be "
                              f"{_plain(value)!r}, got {raw_train[key]!r}")
    train = _build(TrainConfig, {**raw_train, **derived}, "train",
                   {"offline_accuracies": "teachers[i].weight"})

    return dataclasses.replace(top, corpus=corpus, teachers=teachers, train=train,
                               eval=_build(EvalConfig, doc.get("eval", {}), "eval"))


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    try:
        doc = read_json(p)
    except (OSError, FormatError) as exc:
        raise ConfigError(f"cannot read config {p}: {exc}") from exc
    return config_from_dict(doc)


def resolve(cfg: ExperimentConfig, seed_override: int | None = None,
            out_override: str | None = None) -> ExperimentConfig:
    """Fill every derived field so the config is self-contained: apply the
    seed override, reseed the corpus spec and train config, and give each
    unseeded teacher its own derived seed."""
    seed = cfg.seed if seed_override is None else seed_override
    corpus = cfg.corpus
    if isinstance(corpus, CorpusSpec) and seed_override is not None:
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


def _plain(obj):
    """The JSON view of ``obj``: a dataclass as an object of its fields, an
    enum as its value, a tuple as a list."""
    if dataclasses.is_dataclass(obj):
        return {f.name: _plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


def to_dict(cfg: ExperimentConfig) -> dict:
    """JSON-ready view, embedded verbatim in every artifact; ``config_from_dict``
    reads it back as ``cfg``."""
    return _plain(cfg)
