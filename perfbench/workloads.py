"""The benchmark's workloads.

A workload builds its inputs from the seed (``setup``), then the runner
repeats an iteration made of the workload's timed ``steps`` and checks each
iteration's outputs (``check``).  After the timed region the runner repeats
``evaluate``, which scores the trained encoder and must give the same values
every time, and calls ``finish`` once for the remaining checks.  Phase times come back as
dicts keyed by the end-to-end metric they feed (``gen_data_s``,
``pretrain_s``, ``probe_s``), as are the steps; the runner reports the
median of each.

Every dtg call goes through a module attribute (``trainer.pretrain``, not a
name imported from it), so the functions the tracer patches are the ones
called.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from dtg import cli, evaluation, model, presets, seeding, trainer
from dtg import config as config_mod
from dtg import corpus as corpus_mod
from dtg.losses import FusionLevel, WeightScheme

clock = time.perf_counter


@dataclass(frozen=True)
class Scale:
    corpus: dict       # reference corpus spec overrides, pretrain workloads
    train: dict        # reference train config overrides, pretrain workloads
    cli_corpus: dict   # reference corpus spec overrides, cli-pipeline
    cli_train: dict    # "train" section of the cli-pipeline config
    setups: int        # set-ups per run; setup_s reports their median
    evals: int         # evaluations after the timed region; probe_s is their median
    probe_splits: int  # probe_top1 is the mean over this many half splits


REFERENCE = Scale(
    corpus={},
    train={"epochs": 10, "milestones": ()},
    cli_corpus={"videos_per_class": 200},
    cli_train={"epochs": 3, "milestones": [], "weight_scheme": "online2",
               "fusion_level": "feature"},
    setups=9, evals=9, probe_splits=5,
)

TINY = Scale(
    corpus={"num_classes": 4, "videos_per_class": 8, "frames_per_video": 8},
    train={"epochs": 2, "milestones": (), "K": 8, "batch_size": 8},
    cli_corpus={"num_classes": 4, "videos_per_class": 10, "frames_per_video": 8},
    cli_train={"epochs": 1, "milestones": [], "K": 8, "batch_size": 8,
               "weight_scheme": "online2", "fusion_level": "feature"},
    setups=2, evals=2, probe_splits=2,
)


def trained_videos(workload, state) -> int:
    return state["config"].epochs * workload.videos(state)


def batches(workload, state) -> int:
    """Training steps one ``pretrain`` call takes: ceil(V / B) per epoch."""
    cfg = state["config"]
    return cfg.epochs * -(-workload.videos(state) // cfg.batch_size)


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


def _file_size(counter: str, index: int):
    def count(args, kwargs, result):
        return {counter: os.path.getsize(_arg(args, kwargs, index, "path"))}
    return count


def _rows(args, kwargs, result):
    feats = _arg(args, kwargs, 1, "feats")
    return {"queues.rows_enqueued": np.atleast_2d(feats).shape[0] if np.size(feats) else 0}


def _overlap_bytes(args, kwargs, result):
    # bytes of the (N, N, D) float64 difference tensor class_overlap builds;
    # computed from the input shape, not measured
    n, d = np.shape(_arg(args, kwargs, 0, "features"))
    return {"evaluation.overlap_bytes": n * n * d * 8}


# Span name -> counts taken from the call's arguments once it has returned.
COUNTERS = {
    "queues.enqueue_batch": _rows,
    "corpus.save_corpus": _file_size("binio.bytes_written", 1),
    "model.save_student": _file_size("binio.bytes_written", 0),
    "corpus.load_corpus": _file_size("binio.bytes_read", 0),
    "model.load_student": _file_size("binio.bytes_read", 0),
    "evaluation.class_overlap": _overlap_bytes,
}


class Ledger:
    """Attempted and failed operations.  An operation is one call into dtg
    that the benchmark times, or one output check."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _finite_losses(records) -> bool:
    losses = [r.contrastive_loss for r in records if r.contrastive_loss is not None]
    return bool(losses) and all(math.isfinite(x) for x in losses)


def _same_corpus(a, b) -> bool:
    if a.spec != b.spec or a.num_videos != b.num_videos:
        return False
    arrays = [(a.signal_basis, b.signal_basis), (a.nuisance_basis, b.nuisance_basis)]
    arrays += [(va.frames, vb.frames) for va, vb in zip(a.videos, b.videos)]
    ids = all(va.video_id == vb.video_id and va.label == vb.label
              for va, vb in zip(a.videos, b.videos))
    return ids and all(x.shape == y.shape and (x == y).all() for x, y in arrays)


class Rerun:
    """Same-seed iterations must write byte-identical artifacts."""

    def __init__(self, directory: Path, names):
        self.directory = directory
        self.names = tuple(names)
        self.first: dict[str, bytes] | None = None

    def check(self, ledger: Ledger, label: str) -> None:
        found = {}
        for name in self.names:
            path = self.directory / name
            found[name] = path.read_bytes() if path.is_file() else None
        if self.first is None:
            self.first = found
            ledger.check(all(v is not None for v in found.values()),
                         f"{label}: artifacts missing")
            return
        for name in self.names:
            ledger.check(found[name] is not None and found[name] == self.first[name],
                         f"{label}: {name} differs from the first same-seed run")


class Pretrain:
    """``trainer.pretrain`` on the reference preset through the library API."""

    def __init__(self, name: str, bank: str, scheme: WeightScheme):
        self.name = name
        self.bank = bank  # name of the presets function, looked up per call
        self.scheme = scheme

    def setup(self, scale: Scale, seed: int, workdir: Path):
        start = clock()
        corpus = presets.reference_corpus(seed, **scale.corpus)
        generate_s = clock() - start
        bank = getattr(presets, self.bank)(corpus, seed=seed)
        config = presets.reference_train_config(
            seed, weight_scheme=self.scheme, fusion_level=FusionLevel.LOSS, **scale.train)
        state = {"scale": scale, "seed": seed, "workdir": workdir, "corpus": corpus,
                 "bank": bank, "config": config, "encoder": None,
                 "rerun": Rerun(workdir / "run", ("report.json", "checkpoint.dtgm"))}
        return state, {"gen_data_s": generate_s}

    def videos(self, state) -> int:
        return state["corpus"].num_videos

    def steps(self, state):
        return (("pretrain_s", lambda: trainer.pretrain(state["config"], state["corpus"],
                                                        state["bank"])),)

    def check(self, state, outputs, ledger: Ledger, label: str) -> None:
        encoder, report = outputs["pretrain_s"]
        ledger.check(_finite_losses(report.records), f"{label}: non-finite or missing loss")
        out = state["workdir"] / "run"
        trainer.write_report(report, out)
        model.save_student(out / "checkpoint.dtgm", encoder)
        state["rerun"].check(ledger, label)
        state["encoder"] = encoder

    def evaluate(self, state):
        """The eval metrics on the last trained encoder; probe_top1 is the
        mean held-out top-1 of the linear probe over several half splits."""
        corpus, scale = state["corpus"], state["scale"]
        start = clock()
        feats = evaluation.video_features(state["encoder"], corpus)
        labels = corpus.labels()
        top1 = [evaluation.linear_probe(feats, labels, 0.5,
                                        evaluation.ProbeConfig(seed=state["seed"] + j)).top1
                for j in range(scale.probe_splits)]
        knn = evaluation.knn_top1(feats, labels, 5)
        overlap = evaluation.class_overlap(feats, labels)
        return {"probe_s": clock() - start}, {"probe_top1": sum(top1) / len(top1),
                                              "knn_top1": knn, "class_overlap": overlap}

    def finish(self, state, ledger: Ledger) -> None:
        corpus, path = state["corpus"], state["workdir"] / "corpus.dtgc"
        corpus_mod.save_corpus(corpus, path)
        ledger.check(_same_corpus(corpus_mod.load_corpus(path), corpus),
                     ".dtgc round trip differs from the generated corpus")


class CliPipeline:
    """``dtg gen-data``, ``dtg pretrain`` and ``dtg probe --checkpoint``
    through ``dtg.cli.main`` in-process, with the corpus passed by file."""

    name = "cli-pipeline"
    teachers = presets.BANK_RHOS

    def setup(self, scale: Scale, seed: int, workdir: Path):
        spec = presets.reference_corpus_spec(seed, **scale.cli_corpus)
        spec_doc = {k: v for k, v in dataclasses.asdict(spec).items() if k != "seed"}
        data, run, probe = workdir / "data", workdir / "run", workdir / "probe"
        # one readout seed for every teacher: the bank presets.four_teacher_bank builds
        readout = seeding.derive_seed(seed, "teacher-readout")
        teachers = [{"rho": r, "seed": readout, "name": f"rho{r:g}"} for r in self.teachers]
        base = {"seed": seed, "teachers": teachers,
                "train": scale.cli_train, "eval": {"split_frac": 0.5}}
        docs = {
            "gen": {**base, "corpus": spec_doc, "out_dir": str(data)},
            "train": {**base, "corpus": str(data / "corpus.dtgc"), "out_dir": str(run)},
            "probe": {**base, "corpus": str(data / "corpus.dtgc"), "out_dir": str(probe)},
        }
        configs = workdir / "configs"
        configs.mkdir(parents=True, exist_ok=True)
        paths = {}
        for key, doc in docs.items():
            paths[key] = configs / f"{key}.json"
            paths[key].write_text(json.dumps(doc, indent=2))
        state = {"seed": seed, "spec": spec, "paths": paths, "workdir": workdir,
                 "config": config_mod.load_config(paths["train"]).train,
                 "rerun": Rerun(workdir, ("data/corpus.dtgc", "run/report.json",
                                          "run/checkpoint.dtgm", "run/epochs.csv",
                                          "probe/probe.json", "probe/overlap.json"))}
        return state, {}

    def videos(self, state) -> int:
        return state["spec"].num_classes * state["spec"].videos_per_class

    def commands(self, state):
        paths, checkpoint = state["paths"], state["workdir"] / "run" / "checkpoint.dtgm"
        return (
            ("gen_data_s", ["gen-data", "--config", str(paths["gen"]), "--quiet"]),
            ("pretrain_s", ["pretrain", "--config", str(paths["train"]), "--quiet"]),
            ("probe_s", ["probe", "--config", str(paths["probe"]), "--quiet",
                         "--checkpoint", str(checkpoint)]),
        )

    def steps(self, state):
        return tuple((phase, lambda argv=argv: cli.main(argv))
                     for phase, argv in self.commands(state))

    def check(self, state, codes, ledger: Ledger, label: str) -> None:
        for phase, argv in self.commands(state):
            ledger.check(codes[phase] == 0, f"{label}: dtg {argv[0]} exited {codes[phase]}")
        report = state["workdir"] / "run" / "report.json"
        epochs = json.loads(report.read_text())["epochs"] if report.is_file() else []
        losses = [e["contrastive_loss"] for e in epochs if e["contrastive_loss"] is not None]
        ledger.check(bool(losses) and all(math.isfinite(x) for x in losses),
                     f"{label}: non-finite or missing loss in report.json")
        state["rerun"].check(ledger, label)

    def evaluate(self, state):
        """The probe command already ran in the iteration; read its answer."""
        probe = json.loads((state["workdir"] / "probe" / "probe.json").read_text())
        return {}, {"probe_top1": probe["top1"], "knn_top1": probe["knn_top1"]}

    def finish(self, state, ledger: Ledger) -> None:
        path = state["workdir"] / "data" / "corpus.dtgc"
        ledger.check(path.is_file() and _same_corpus(corpus_mod.load_corpus(path),
                                                     corpus_mod.generate_corpus(state["spec"])),
                     ".dtgc written by gen-data differs from the generated corpus")


WORKLOADS = {
    w.name: w for w in (
        Pretrain("pretrain-1t", "reference_bank", WeightScheme.UNIFORM),
        Pretrain("pretrain-4t-online1", "four_teacher_bank", WeightScheme.ONLINE1),
        CliPipeline(),
    )
}
