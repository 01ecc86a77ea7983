"""Run one dtg benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pretrain-1t --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

The workloads and every metric, with the prediction of what each per-layer
metric should move, are listed in ``perfbench/metrics.py``.

A run sets up its inputs from ``--seed``, then repeats the workload's
iteration until ``--seconds`` have passed (at least twice, so same-seed
reruns can be compared), then checks the remaining outputs once.

* ``--trace 0`` reports the end-to-end metrics, with tracing off.
* ``--trace 1`` traces one set-up and one iteration, between untraced
  iterations, and reports the per-layer metrics; the spans are written to
  ``<out>/<workload>.spans.jsonl`` when the run ends.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the provenance and each metric with its unit.  The exit code is 0 only
if every output check passed.  Each workload runs in this one process on a
single Python thread: ``DTG_THREADS`` is removed from the environment and
the BLAS libraries are limited to one thread before numpy is imported.
``--tiny`` shrinks every workload so it runs in seconds, for the
benchmark's own tests.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import metrics
from tracer import Tracer, aggregate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
clock = time.perf_counter


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*metrics.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="how long the iterations are repeated")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for tests")
    parser.add_argument("--out", default=str(ROOT / "perfbench" / "out"),
                        help="directory for spans, results and scratch files")
    return parser.parse_args(argv)


def pin_environment() -> dict:
    """Single-threaded numerics: must run before numpy is imported.  Returns
    the settings found, for the provenance record."""
    found = {var: os.environ.get(var) for var in ("DTG_THREADS", *BLAS_THREAD_VARS)}
    os.environ.pop("DTG_THREADS", None)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    return found


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from ``.git`` directly; None outside git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(found_env: dict) -> dict:
    import numpy as np

    digest = hashlib.sha256()
    for path in sorted((SRC / "dtg").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "git_sha": git_sha(ROOT),
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "env_before_pinning": found_env,
        "dtg_threads": os.environ.get("DTG_THREADS"),
    }


def dtg_modules():
    return [sys.modules[name] for name in sorted(sys.modules)
            if name == "dtg" or name.startswith("dtg.")]


class Runner:
    def __init__(self, workloads_mod, calibration_mod, workload, scale, args):
        self.workloads = workloads_mod
        self.calibration = calibration_mod
        self.workload = workload
        self.scale = scale
        self.args = args
        self.ledger = workloads_mod.Ledger()
        self.workdir = Path(args.out) / workload.name
        self.tracer = (Tracer(dtg_modules(), workloads_mod.COUNTERS)
                       if args.trace else None)
        self.samples: dict[str, list[tuple[float, float]]] = {}  # (wall, speed)
        self.calibrations: list[float] = []
        self.traced_s = None

    def guarded(self, what: str, fn, *args):
        """Call into the workload; an exception is one failed operation."""
        try:
            return fn(*args)
        except Exception as exc:
            traceback.print_exc(file=sys.stderr)
            self.ledger.check(False, f"{what}: {type(exc).__name__}: {exc}")
            return None

    def calibrate(self) -> float:
        self.calibrations.append(self.calibration.measure())
        return self.calibrations[-1]

    def timed(self, what: str, fn, *args, region: str | None = None):
        """One unit between two calibrations: its result, wall time, and the
        factor that scales the wall time to the reference machine speed."""
        before = self.calibrations[-1]
        start = clock()
        if region is None:
            found = self.guarded(what, fn, *args)
        else:
            with self.tracer.region(region):
                found = self.guarded(what, fn, *args)
        wall = clock() - start
        after = self.calibrate()
        return found, wall, 2 * self.calibration.REFERENCE_S / (before + after)

    def record(self, key: str, wall: float, speed: float) -> None:
        self.samples.setdefault(key, []).append((wall, speed))

    def iteration(self, state, label: str, traced: bool):
        """Run the workload's steps once; returns their outputs by phase, or
        None if one raised.  Untraced, each step is timed between two
        calibrations; traced, the whole iteration is one region."""
        steps = self.workload.steps(state)
        if traced:
            start = clock()
            with self.tracer.region(label.replace(" ", "")):
                outputs = self.guarded(label, lambda: {key: fn() for key, fn in steps})
            self.traced_s = clock() - start
            return outputs
        outputs, wall, scaled = {}, 0.0, 0.0
        for key, fn in steps:
            found, step_wall, speed = self.timed(f"{label} {key}", fn)
            if found is None:
                return None
            outputs[key] = found
            self.record(key, step_wall, speed)
            wall += step_wall
            scaled += step_wall * speed
        self.record("run_s", wall, scaled / wall)
        return outputs

    def run(self):
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        try:
            return self._run()
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)

    def _run(self):
        """Set up, repeat the iteration for ``--seconds``, evaluate, finish.
        Returns the workload state and the evaluation's values, or None if
        set-up failed."""
        w, scale, args = self.workload, self.scale, self.args
        self.calibrate()
        for _ in range(1 if args.trace else scale.setups):
            found, wall, speed = self.timed("setup", w.setup, scale, args.seed, self.workdir,
                                            region="setup" if args.trace else None)
            if found is None:
                return None
            state, phases = found
            self.record("setup_s", wall, speed)
            for key, value in phases.items():
                self.record(key, value, speed)

        deadline = clock() + args.seconds
        k = 0
        while True:
            k += 1
            label = f"iteration {k}"
            outputs = self.iteration(state, label, traced=bool(args.trace) and k == 2)
            if outputs is not None:
                self.ledger.check(True, label)
                self.guarded(f"{label} checks", w.check, state, outputs, self.ledger, label)
            if clock() >= deadline and k >= (3 if args.trace else 2):
                break

        scored = []
        for _ in range(scale.evals):
            found, _, speed = self.timed("evaluation", w.evaluate, state)
            if found is None:
                break
            for key, value in found[0].items():
                self.record(key, value, speed)
            scored.append(found[1])
        values = scored[0] if scored else {}
        self.ledger.check(len(scored) == scale.evals and all(v == values for v in scored),
                          "evaluation failed or differs between repeats")
        self.ledger.check(all(math.isfinite(v) for v in values.values()),
                          "non-finite evaluation result")
        self.guarded("finish", w.finish, state, self.ledger)
        return state, values

    def end_to_end(self, import_s: float, state, values: dict):
        """Metric values, the number of samples behind each median, and the
        unscaled medians."""
        out, n, unscaled = {}, {}, {}
        for key, found in self.samples.items():
            out[key] = statistics.median([wall * speed for wall, speed in found])
            unscaled[key] = statistics.median([wall for wall, _ in found])
            n[key] = len(found)
        if "setup_s" in out:
            # the one import is scaled by the set-ups' median speed factor
            speeds = [speed for _, speed in self.samples["setup_s"]]
            out["setup_s"] += import_s * statistics.median(speeds)
            unscaled["setup_s"] += import_s
        if "pretrain_s" in out:
            videos = self.workloads.trained_videos(self.workload, state)
            out["train_videos_per_s"] = videos / out["pretrain_s"]
            unscaled["train_videos_per_s"] = videos / unscaled["pretrain_s"]
            n["train_videos_per_s"] = n["pretrain_s"]
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out.update(values)
        return out, n, unscaled

    def per_layer(self, state) -> dict:
        agg = aggregate(self.tracer.spans)
        out = {}
        for mod in metrics.MODULES:
            out[f"{mod}.self_s"] = agg["module_self"].get(mod, 0.0)
            out[f"{mod}.calls"] = agg["module_calls"].get(mod, 0)
        for metric, func in metrics.FUNCTION_TIMES.items():
            out[metric] = agg["func_time"].get(func, 0.0)
        for counter in ("queues.rows_enqueued", "binio.bytes_written", "binio.bytes_read",
                        "evaluation.overlap_bytes"):
            out[counter] = self.tracer.counts.get(counter, 0)
        steps = self.workloads.batches(self.workload, state)
        warm = agg["func_calls"].get("trainer.sgd_step", 0)
        out["trainer.warm_steps"] = warm
        out["trainer.cold_steps"] = steps - warm
        out["trainer.warm_ratio"] = warm / steps
        wall = sum(end - start for _, _, start, end, parent, _ in self.tracer.spans
                   if parent < 0)
        out["trace.wall_s"] = wall
        out["trace.coverage"] = sum(agg["module_self"].get(m, 0.0)
                                    for m in metrics.MODULES) / wall
        if self.traced_s is not None and "run_s" in self.samples:
            out["trace.overhead"] = self.traced_s / statistics.median(
                [wall for wall, _ in self.samples["run_s"]])
        out["trace.spans"] = len(self.tracer.spans)
        return out


def report(name: str, args, prov: dict, values: dict, counts: dict, unscaled: dict,
           samples: dict, ledger) -> int:
    declared = metrics.PER_LAYER if args.trace else metrics.END_TO_END
    missing = [m.name for m in declared if m.name not in values]
    if missing:
        ledger.check(False, f"metrics not measured: {', '.join(missing)}")
    correct = ledger.failed == 0
    print(f"# dtg benchmark: workload {name}, seed {args.seed}, trace {args.trace}"
          f"{', tiny' if args.tiny else ''}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    result_metrics = {}
    for m in declared:
        if m.name in values:
            result_metrics[m.name] = {"value": values[m.name], "unit": m.unit}
            note = ""
            if m.name in counts:
                note = (f"  (median of {counts[m.name]}; unscaled "
                        f"{unscaled[m.name]:.6f} {m.unit})")
            print(f"{m.name:<26} {values[m.name]:>16.6f} {m.unit}{note}")
    ratio = ledger.failed / max(ledger.attempted, 1)
    print(f"{'failed_ratio':<26} {ratio:>16.6f} ({ledger.failed} of {ledger.attempted})")
    for failure in ledger.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    result = {"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
              "metrics": result_metrics}
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{name}.trace{args.trace}.json").write_text(json.dumps(
        {**result, "provenance": prov, "failures": ledger.failures, "unscaled": unscaled,
         "samples": samples, "seed": args.seed, "tiny": args.tiny},
        indent=2, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if correct else 1


def run_one(args) -> int:
    found_env = pin_environment()
    if not (SRC / "dtg" / "__init__.py").is_file():
        print(f"error: dtg sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = clock()
    import calibration
    import dtg
    import workloads
    import_s = clock() - start
    if Path(dtg.__file__).resolve().parent != SRC / "dtg":
        print(f"error: imported dtg from {dtg.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload]
    scale = workloads.TINY if args.tiny else workloads.REFERENCE
    runner = Runner(workloads, calibration, workload, scale, args)
    found = runner.run()
    values, counts, unscaled = {}, {}, {}
    if found is not None:
        state, finished = found
        if args.trace:
            values = runner.per_layer(state)
            runner.tracer.write(Path(args.out) / f"{workload.name}.spans.jsonl",
                                {"workload": workload.name, "seed": args.seed,
                                 "tiny": args.tiny, "clock": "time.perf_counter, seconds"})
        else:
            values, counts, unscaled = runner.end_to_end(import_s, state, finished)
    samples = {"calibration_s": runner.calibrations, "wall_and_speed": runner.samples,
               "traced_run_s": runner.traced_s}
    return report(workload.name, args, provenance(found_env), values, counts, unscaled,
                  samples, runner.ledger)


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results, ok = {}, True
    for name in metrics.WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--out", args.out]
        if args.tiny:
            argv.append("--tiny")
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, timeout=900)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            results[name] = json.loads(lines[-1]) if lines else None
        except json.JSONDecodeError:
            results[name] = None
        ok = ok and proc.returncode == 0 and results[name] is not None
    done = [r for r in results.values() if r is not None]
    print(json.dumps({
        "correct": ok,
        "attempted": sum(r["attempted"] for r in done),
        "failed": sum(r["failed"] for r in done),
        "metrics": {f"{name}.{metric}": value for name, r in results.items() if r
                    for metric, value in r["metrics"].items()},
    }))
    return 0 if ok else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
