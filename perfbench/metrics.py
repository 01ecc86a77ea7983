"""Every metric the benchmark reports, with its unit and direction.

BENCHMARK.json mirrors the names, units, directions and bounds declared here
(the benchmark's tests check that).  ``moves`` on a per-layer metric is the
prediction made before any optimisation: the end-to-end metric, and the
workload, that a change to this layer should move.  Performance changes cite
this table.
"""

from __future__ import annotations

from dataclasses import dataclass

WORKLOADS = {
    "pretrain-1t": "reference pretrain with 1 teacher and loss fusion: per-sample "
                   "seeding, sampling and pooling dominate, codecs and eval idle",
    "pretrain-4t-online1": "same corpus and sampler with 4 teachers under online1 loss "
                           "fusion: 4 InfoNCE terms plus the chain term and 4 queues dominate",
    "cli-pipeline": "in-process gen-data, pretrain, probe on a 2,000-video corpus file: "
                    "codec writes and reads, eval at scale, feature fusion with online2",
}

# The dtg modules whose self time and entry calls are reported.
MODULES = ("numerics", "seeding", "binio", "corpus", "sampling", "model", "queues",
           "losses", "trainer", "evaluation", "config", "presets", "cli")


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    bound: float | None = None  # end-to-end metrics only
    moves: str = ""             # per-layer metrics only


# Every workload emits every end-to-end metric.  Times are medians over the
# run's samples, each scaled to the reference machine speed (calibration.py);
# the unscaled medians are printed beside them.
#   setup_s             import, corpus generation, bank and config construction
#                       (cli-pipeline: import and writing the three configs)
#   run_s               one iteration: the pretrain call, or the three commands
#   train_videos_per_s  epochs x videos / pretrain_s
#   gen_data_s          corpus generation in set-up; cli-pipeline: dtg gen-data
#   pretrain_s          the pretrain call; cli-pipeline: dtg pretrain, which
#                       also loads the corpus file and writes its artifacts
#   probe_s             video features, 5 probes, kNN and overlap on the trained
#                       encoder after the timed region; cli-pipeline: dtg probe
#   peak_rss_mb         peak resident set of the process
#   probe_top1          held-out linear-probe top-1, mean over 5 half splits;
#                       cli-pipeline: the top1 dtg probe wrote
# Failures are not a metric (a metric must never be 0): they are the
# ``attempted`` and ``failed`` fields of the result, printed as failed_ratio.
#
# The timing bounds are the largest allowed: even scaled, the medians of one
# workload spread by up to about 0.1 across seeds on a shared 2-vCPU machine.
# probe_top1 is exact for a seed, but across seeds it spreads by about 0.15:
# that is the difficulty of each seed's corpus, not noise.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("run_s", "s", "lower", 0.25),
    Metric("train_videos_per_s", "1/s", "higher", 0.25),
    Metric("gen_data_s", "s", "lower", 0.25),
    Metric("pretrain_s", "s", "lower", 0.25),
    Metric("probe_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("probe_top1", "fraction", "higher", 0.25),
)

_SAMPLING = ("train_videos_per_s on pretrain-1t, a smaller share on pretrain-4t-online1; "
             "on cli-pipeline only pretrain_s")
_LOSSES = "train_videos_per_s on pretrain-4t-online1; pretrain_s on cli-pipeline"
_QUEUES = "train_videos_per_s on pretrain-4t-online1"
_DENSE = ("train_videos_per_s on both pretrain workloads, predicted within its bound "
          "(dense math is under 5% of the run)")
_WRITES = "gen_data_s on cli-pipeline; no pretrain workload"
_READS = "pretrain_s and probe_s on cli-pipeline; no pretrain workload"
_CODECS = ("gen_data_s (writes), pretrain_s and probe_s (reads) on cli-pipeline; "
           "no pretrain workload")
_EVAL = "probe_s and peak_rss_mb on cli-pipeline"

_NAMED = (
    Metric("seeding.calls", "count", "lower", moves=_SAMPLING),
    Metric("seeding.self_s", "s", "lower", moves=_SAMPLING),
    Metric("sampling.calls", "count", "lower", moves=_SAMPLING),
    Metric("sampling.self_s", "s", "lower", moves=_SAMPLING),
    Metric("model.pool_s", "s", "lower", moves=_SAMPLING),
    Metric("losses.calls", "count", "lower", moves=_LOSSES),
    Metric("losses.self_s", "s", "lower", moves=_LOSSES),
    Metric("queues.enqueue_s", "s", "lower", moves=_QUEUES),
    Metric("queues.negatives_s", "s", "lower", moves=_QUEUES),
    Metric("queues.rows_enqueued", "count", "lower", moves=_QUEUES),
    Metric("model.teacher_s", "s", "lower", moves=_DENSE),
    Metric("model.forward_s", "s", "lower", moves=_DENSE),
    Metric("model.backward_s", "s", "lower", moves=_DENSE),
    Metric("trainer.sgd_s", "s", "lower", moves=_DENSE),
    Metric("trainer.self_s", "s", "lower", moves=_DENSE),
    Metric("trainer.warm_steps", "count", "higher", moves=_DENSE),
    Metric("trainer.cold_steps", "count", "lower", moves=_DENSE),
    Metric("trainer.warm_ratio", "ratio", "higher", moves=_DENSE),
    Metric("binio.self_s", "s", "lower", moves=_CODECS),
    Metric("corpus.save_s", "s", "lower", moves=_WRITES),
    Metric("corpus.load_s", "s", "lower", moves=_READS),
    Metric("model.ckpt_save_s", "s", "lower", moves=_WRITES),
    Metric("model.ckpt_load_s", "s", "lower", moves=_READS),
    Metric("binio.bytes_written", "bytes", "lower", moves=_WRITES),
    Metric("binio.bytes_read", "bytes", "lower", moves=_READS),
    Metric("corpus.generate_s", "s", "lower",
           moves="setup_s on the pretrain workloads; gen_data_s on cli-pipeline"),
    Metric("evaluation.features_s", "s", "lower", moves=_EVAL),
    Metric("evaluation.probe_s", "s", "lower", moves=_EVAL),
    Metric("evaluation.knn_s", "s", "lower", moves=_EVAL),
    Metric("evaluation.overlap_s", "s", "lower", moves=_EVAL),
    Metric("evaluation.overlap_bytes", "bytes_computed", "lower", moves=_EVAL),
    Metric("cli.self_s", "s", "lower", moves="run_s on cli-pipeline"),
)

_TRACE = (
    Metric("trace.wall_s", "s", "lower", moves="wall time of the traced set-up and iteration"),
    Metric("trace.coverage", "ratio", "higher",
           moves="share of trace.wall_s that the dtg modules' self times account for"),
    Metric("trace.overhead", "ratio", "lower",
           moves="traced run_s over the median untraced run_s of the same process"),
    Metric("trace.spans", "count", "lower", moves="spans recorded in the traced region"),
)


def _module_metrics():
    named = {m.name for m in _NAMED}
    out = []
    for mod in MODULES:
        for suffix, unit in (("self_s", "s"), ("calls", "count")):
            name = f"{mod}.{suffix}"
            if name not in named:
                out.append(Metric(name, unit, "lower",
                                  moves="no prediction; reported so every module's "
                                        "self time and entry calls are visible"))
    return tuple(out)


PER_LAYER = _NAMED + _module_metrics() + _TRACE

# Inclusive time of one dtg function, summed over its calls.
FUNCTION_TIMES = {
    "model.pool_s": "model.pool_frames",
    "model.teacher_s": "model.teacher_features",
    "model.forward_s": "model.forward_batch",
    "model.backward_s": "model.backward_batch",
    "trainer.sgd_s": "trainer.sgd_step",
    "queues.enqueue_s": "queues.enqueue_batch",
    "queues.negatives_s": "queues.negatives",
    "corpus.save_s": "corpus.save_corpus",
    "corpus.load_s": "corpus.load_corpus",
    "corpus.generate_s": "corpus.generate_corpus",
    "model.ckpt_save_s": "model.save_student",
    "model.ckpt_load_s": "model.load_student",
    "evaluation.features_s": "evaluation.video_features",
    "evaluation.probe_s": "evaluation.linear_probe",
    "evaluation.knn_s": "evaluation.knn_top1",
    "evaluation.overlap_s": "evaluation.class_overlap",
}
