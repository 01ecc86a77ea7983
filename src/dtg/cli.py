"""Command-line experiment runner.

Subcommands:
    gen-data     generate a corpus file from the inline spec
    pretrain     self-supervised training, writes checkpoint + report
    train-joint  supervised joint training, writes checkpoint + report
    probe        evaluate a checkpoint: linear probe, kNN, overlap, 2D map
    report       aggregate several run directories into mean/std rows

Exit codes: 0 success, 2 bad or missing config or one too large to
allocate, 3 I/O or file-format failure, 4 numeric abort.  Every artifact
embeds the resolved config and seed.  A command creates its output
directory only once its inputs have loaded and its training or evaluation
has finished, so a run that fails before then leaves no directory behind.

Every file is written through ``binio.write_file``, to a temporary name
and then moved into place, so each file is either whole or untouched.  A
command stopped between two files may leave new files next to old ones.
Nothing is fsynced, and a symlink at an artifact's path is replaced by
the new file, not written through.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .binio import FormatError, read_json, write_csv, write_json
from .config import ConfigError, ExperimentConfig, load_config, resolve, to_dict
from .corpus import CorpusSpec, generate_corpus, load_corpus, save_corpus
from .evaluation import (
    ProbeConfig,
    class_overlap,
    knn_top1,
    linear_probe,
    project_2d,
    video_features,
    write_projection_csv,
)
from .model import TeacherBank, build_bank, build_student, load_student, save_student
from .numerics import DegenerateInputError, FieldError, check_value, mean_std
from .trainer import NumericAbortError, pretrain, train_joint, write_report


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def _prepare(args) -> ExperimentConfig:
    cfg = resolve(load_config(args.config), args.seed, args.out)
    if cfg.out_dir is None:
        raise ConfigError("no output directory: set out_dir in the config or pass --out")
    return cfg


def _load_corpus(cfg: ExperimentConfig):
    if isinstance(cfg.corpus, str):
        return load_corpus(cfg.corpus)
    if cfg.corpus is None:
        raise ConfigError("config needs a corpus spec or a corpus path")
    return generate_corpus(cfg.corpus)


def _build_bank(cfg: ExperimentConfig, corpus) -> TeacherBank:
    return build_bank(corpus, [t.rho for t in cfg.teachers], cfg.train.d,
                      [t.seed for t in cfg.teachers])


def _say(args, message: str) -> None:
    if not args.quiet:
        print(message)


def cmd_gen_data(args) -> int:
    cfg = _prepare(args)
    if not isinstance(cfg.corpus, CorpusSpec):
        raise ConfigError("gen-data needs an inline corpus spec, not a corpus path")
    corpus = generate_corpus(cfg.corpus)
    out = Path(cfg.out_dir)
    save_corpus(corpus, out / "corpus.dtgc")
    write_json(out / "config.json", to_dict(cfg))
    _say(args, f"wrote {out / 'corpus.dtgc'} ({corpus.num_videos} videos)")
    return 0


def _finish_training(args, cfg, label: str, report, enc, head=None) -> int:
    out = Path(cfg.out_dir)
    save_student(out / "checkpoint.dtgm", enc, head)
    report = dataclasses.replace(report, checkpoint_path="checkpoint.dtgm")
    resolved = to_dict(cfg)
    write_report(report, out, resolved)
    write_json(out / "config.json", resolved)
    last = report.records[-1] if report.records else None
    if last is not None:
        if last.contrastive_loss is None:
            tail = "final epoch all cold-queue skips"
        else:
            tail = f"final contrastive loss {last.contrastive_loss:.4f}"
        if last.ce_loss is not None:
            tail += f", ce loss {last.ce_loss:.4f}"
        _say(args, f"{label} done in {report.wall_time_s:.1f}s; {tail}")
    else:
        _say(args, f"{label} done (0 epochs)")
    return 0


def cmd_pretrain(args) -> int:
    cfg = _prepare(args)
    corpus = _load_corpus(cfg)
    bank = _build_bank(cfg, corpus)
    enc, report = pretrain(cfg.train, corpus, bank)
    return _finish_training(args, cfg, "pretrain", report, enc)


def cmd_train_joint(args) -> int:
    cfg = _prepare(args)
    corpus = _load_corpus(cfg)
    bank = _build_bank(cfg, corpus)
    init = None if args.init is None else load_student(args.init)
    (enc, head), report = train_joint(cfg.train, corpus, bank, init)
    return _finish_training(args, cfg, "train-joint", report, enc, head)


def _validate_probe(cfg: ExperimentConfig, corpus) -> None:
    """The eval rules that depend on the corpus, each message led by its key."""
    if cfg.eval.knn_k >= corpus.num_videos:
        raise FieldError("eval.knn_k", f"must be smaller than the number of videos "
                                       f"({corpus.num_videos}), got {cfg.eval.knn_k}")
    counts = np.unique(corpus.labels(), return_counts=True)[1]
    if counts.size < 2:
        raise FieldError("corpus.num_classes",
                         f"must be at least 2 for the class overlap, got {counts.size}")
    fewest = counts.min()
    if fewest < 2:
        raise FieldError("corpus.videos_per_class", f"must be at least 2 for the probe's "
                                                    f"stratified split, got a class of {fewest}")


def cmd_probe(args) -> int:
    cfg = _prepare(args)
    corpus = _load_corpus(cfg)
    _validate_probe(cfg, corpus)
    if args.checkpoint is not None:
        enc, _ = load_student(args.checkpoint)
    else:
        enc = build_student(corpus.spec.frame_dim, cfg.train.h, cfg.train.d, cfg.train.seed)
        _say(args, "no --checkpoint given; probing a freshly initialized encoder")
    feats = video_features(enc, corpus)
    labels = corpus.labels()
    probe_cfg = ProbeConfig(epochs=cfg.eval.probe_epochs, lr=cfg.eval.probe_lr, seed=cfg.seed)
    result = linear_probe(feats, labels, cfg.eval.split_frac, probe_cfg)
    knn = knn_top1(feats, labels, cfg.eval.knn_k)
    overlap = class_overlap(feats, labels)
    out = Path(cfg.out_dir)
    doc = to_dict(cfg)
    write_json(out / "probe.json", {**dataclasses.asdict(result), "knn_top1": knn,
                                    "seed": cfg.seed, "config": doc})
    write_json(out / "overlap.json", {"class_overlap": overlap, "seed": cfg.seed,
                                      "config": doc})
    write_projection_csv(out / "projection.csv", corpus.ids(), labels, project_2d(feats),
                         seed=cfg.seed)
    write_json(out / "config.json", doc)
    _say(args, f"top1 {result.top1:.4f}, knn {knn:.4f}, overlap {overlap:.4f}")
    return 0


_METRIC_SOURCES = (
    ("probe.json", "top1", "top1"),
    ("probe.json", "knn_top1", "knn_top1"),
    ("overlap.json", "class_overlap", "class_overlap"),
)


def _json_object(path: Path) -> dict:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _number(value, path: Path, key: str) -> float:
    try:
        check_value(key, value, {"kind": float})  # a finite number that fits a float
    except FieldError as exc:
        raise FormatError(f"{path}: {exc}") from None
    return float(value)


def _run_metrics(run_dir: Path) -> dict[str, float]:
    found = {}
    for fname, key, metric in _METRIC_SOURCES:
        path = run_dir / fname
        if path.is_file():
            value = _json_object(path).get(key)
            if value is not None:
                found[metric] = _number(value, path, key)
    report = run_dir / "report.json"
    if report.is_file():
        epochs = _json_object(report).get("epochs", [])
        if not isinstance(epochs, list) or not all(isinstance(e, dict) for e in epochs):
            raise FormatError(f"{report}: epochs must be a list of objects")
        if epochs:
            for key in ("contrastive_loss", "ce_loss"):
                if epochs[-1].get(key) is not None:
                    found[f"final_{key}"] = _number(epochs[-1][key], report, key)
    return found


def cmd_report(args) -> int:
    rows = []
    per_metric: dict[str, list[float]] = {}
    for run in args.runs:
        run_dir = Path(run)
        if not run_dir.is_dir():
            raise FileNotFoundError(f"run directory not found: {run_dir}")
        for metric, value in _run_metrics(run_dir).items():
            per_metric.setdefault(metric, []).append(value)
    if not per_metric:
        return _fail("no metrics found in the given run directories", 3)
    for metric in sorted(per_metric):
        values = per_metric[metric]
        rows.append((metric, *mean_std(values), len(values)))
    write_csv(Path(args.out or ".") / "summary.csv", [("metric", "mean", "std", "n"), *rows],
              comment="runs=" + ";".join(str(Path(r)) for r in args.runs))
    for metric, mean, std, n in rows:
        _say(args, f"{metric}: {mean:.4f} +/- {std:.4f} (n={n})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dtg",
        description="teacher-guided contrastive training on synthetic video corpora",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="experiment JSON")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("gen-data", help="generate and save a corpus")
    common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("pretrain", help="self-supervised training")
    common(p)
    p.set_defaults(func=cmd_pretrain)

    p = sub.add_parser("train-joint", help="joint contrastive + supervised training")
    common(p)
    p.add_argument("--init", default=None, help="checkpoint to start from")
    p.set_defaults(func=cmd_train_joint)

    p = sub.add_parser("probe", help="evaluate a checkpoint")
    common(p)
    p.add_argument("--checkpoint", default=None, help="student checkpoint to evaluate")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("report", help="aggregate run directories")
    p.add_argument("--runs", nargs="+", required=True, help="run directories")
    p.add_argument("--out", default=None,
                   help="directory to write summary.csv into (default: cwd)")
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NumericAbortError, DegenerateInputError) as exc:
        return _fail(f"numeric abort: {exc}", 4)
    except (FormatError, OSError) as exc:
        return _fail(str(exc), 3)
    except ValueError as exc:  # a ConfigError or FieldError too
        return _fail(str(exc), 2)
    except MemoryError as exc:  # numpy refused an array the config sized
        return _fail(f"out of memory: {exc}", 2)


if __name__ == "__main__":
    sys.exit(main())
