"""Tests of the benchmark itself, on tiny inputs.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import metrics
from tracer import Tracer, aggregate, self_times

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "perfbench" / "run.py"
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
# On the pretrain workloads the dtg modules' self times must account for the
# traced wall time to within this share; the rest is the benchmark's own code.
COVERAGE_TOLERANCE = 0.05
PRETRAIN = ("pretrain-1t", "pretrain-4t-online1")


def run_bench(out: Path, workload: str, trace: int, root: Path = ROOT, seed: int = 3):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny",
         "--out", str(out)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300, cwd=root)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """Every workload once untraced and twice traced, each in its own directory."""
    found = {}
    for workload in metrics.WORKLOADS:
        for trace, repeat in ((0, 0), (1, 0), (1, 1)):
            out = tmp_path_factory.mktemp(f"{workload}-{trace}-{repeat}")
            proc, result = run_bench(out, workload, trace)
            assert proc.returncode == 0, proc.stderr[-3000:]
            found[workload, trace, repeat] = (result, out)
    return found


def test_benchmark_json_mirrors_the_metric_tables():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                        "per_layer"}
    assert doc["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in doc["workloads"]} == metrics.WORKLOADS
    assert doc["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END]
    assert doc["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER]
    names = [m.name for m in metrics.END_TO_END + metrics.PER_LAYER]
    assert len(names) == len(set(names))
    for m in metrics.END_TO_END + metrics.PER_LAYER:
        assert NAME.match(m.name) and UNIT.match(m.unit) and m.better in ("lower", "higher")
    assert all(m.moves for m in metrics.PER_LAYER)
    assert max(m.bound for m in metrics.END_TO_END) == metrics.END_TO_END[0].bound <= 0.25


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_declared_metric_is_emitted_with_its_unit(runs, workload, trace):
    result, _ = runs[workload, trace, 0]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert list(result["metrics"]) == [m.name for m in declared]
    for m in declared:
        got = result["metrics"][m.name]
        assert got["unit"] == m.unit
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
    if not trace:
        assert all(got["value"] > 0 for got in result["metrics"].values())


def _spans(out: Path, workload: str):
    lines = (out / f"{workload}.spans.jsonl").read_text().splitlines()
    header = json.loads(lines[0])
    assert header["fields"] == ["id", "name", "start", "end", "parent", "run"]
    return [tuple(json.loads(line)) for line in lines[1:]]


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_spans_nest_inside_their_parents(runs, workload):
    result, out = runs[workload, 1, 0]
    spans = _spans(out, workload)
    assert len(spans) == result["metrics"]["trace.spans"]["value"]
    by_id = {s[0]: s for s in spans}
    roots = {s[5] for s in spans if s[4] < 0}
    assert roots == {"setup", "iteration2"}
    for sid, name, start, end, parent, run in spans:
        assert start <= end
        if parent >= 0:
            p = by_id[parent]
            assert p[2] <= start and end <= p[3], (name, p[1])
            assert p[5] == run
    assert min(self_times(spans).values()) >= -1e-9


@pytest.mark.parametrize("workload", PRETRAIN)
def test_module_self_times_account_for_the_traced_wall_time(runs, workload):
    result, out = runs[workload, 1, 0]
    got = {k: v["value"] for k, v in result["metrics"].items()}
    wall = got["trace.wall_s"]
    dtg_self = sum(got[f"{m}.self_s"] for m in metrics.MODULES)
    assert abs(dtg_self / wall - 1) <= COVERAGE_TOLERANCE
    assert got["trace.coverage"] == pytest.approx(dtg_self / wall)
    everything = sum(aggregate(_spans(out, workload))["module_self"].values())
    assert everything == pytest.approx(wall, rel=1e-9)


@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_counts_repeat_exactly_across_traced_runs(runs, workload):
    first, _ = runs[workload, 1, 0]
    second, _ = runs[workload, 1, 1]
    counted = [m.name for m in metrics.PER_LAYER
               if m.unit in ("count", "bytes", "bytes_computed") or m.name.endswith("_ratio")]
    assert {n: first["metrics"][n] for n in counted} == \
           {n: second["metrics"][n] for n in counted}


def test_layer_counts_match_the_workload_shapes(runs):
    one = {k: v["value"] for k, v in runs["pretrain-1t", 1, 0][0]["metrics"].items()}
    four = {k: v["value"] for k, v in runs["pretrain-4t-online1", 1, 0][0]["metrics"].items()}
    cli = {k: v["value"] for k, v in runs["cli-pipeline", 1, 0][0]["metrics"].items()}
    # same corpus and sampler, four times the queue traffic
    assert one["sampling.calls"] == four["sampling.calls"]
    assert four["queues.rows_enqueued"] == 4 * one["queues.rows_enqueued"]
    assert one["losses.calls"] == four["losses.calls"]  # one per warm anchor
    for metric in ("binio.bytes_written", "binio.bytes_read", "evaluation.overlap_bytes"):
        assert one[metric] == four[metric] == 0 < cli[metric]
    assert cli["cli.calls"] == 3


def test_one_command_runs_every_workload(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", "all", "--seed", "1", "--seconds", "0",
         "--tiny", "--out", str(tmp_path)],
        stdout=subprocess.PIPE, text=True, timeout=600, cwd=ROOT)
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for workload in metrics.WORKLOADS:
        for m in metrics.END_TO_END:
            assert f"{workload}.{m.name}" in result["metrics"]
            assert re.search(rf"^{re.escape(m.name)} +[0-9.]+ {re.escape(m.unit)}\b",
                             proc.stdout, re.M)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, result = run_bench(tmp_path / "out", "pretrain-1t", 0, root=tmp_path)
    assert proc.returncode != 0 and result is None


def test_wrong_outputs_fail_the_run(tmp_path):
    """A trainer whose report changes between same-seed runs, and a probe
    command that exits nonzero, are counted as failures."""
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    trainer = tmp_path / "src" / "dtg" / "trainer.py"
    text = trainer.read_text()
    text = text.replace("import csv\n",
                        "import csv\nimport itertools\n_RUNS = itertools.count()\n", 1)
    text = text.replace('"seed": report.seed,', '"seed": report.seed, "run": next(_RUNS),', 1)
    trainer.write_text(text)
    cli = tmp_path / "src" / "dtg" / "cli.py"
    done = '    _say(args, f"top1 {result.top1:.4f}'
    cli.write_text(cli.read_text().replace(done, "    return 5\n" + done, 1))
    for workload in ("pretrain-1t", "cli-pipeline"):
        proc, result = run_bench(tmp_path / "out", workload, 0, root=tmp_path)
        assert proc.returncode == 1
        assert result["correct"] is False and result["failed"] >= 1
        assert "differs from the first same-seed run" in proc.stderr
    assert "dtg probe exited 5" in proc.stderr


def _fake_package():
    inner = types.ModuleType("dtg.inner")
    exec("def leaf(x):\n    return x + 1\n", inner.__dict__)
    outer = types.ModuleType("dtg.outer")
    outer.leaf = inner.leaf
    exec("def mid(x):\n    return leaf(x) + leaf(x)\n", outer.__dict__)
    return inner, outer


def test_tracer_patches_importers_and_restores_them():
    inner, outer = _fake_package()
    original = inner.leaf
    tracer = Tracer([inner, outer], counters={"inner.leaf": lambda a, k, r: {"n": a[0]}})
    with tracer.region("r"):
        assert outer.mid(1) == 4
        assert inner.leaf is not original and outer.leaf is inner.leaf
    assert inner.leaf is original and outer.leaf is original
    names = [s[1] for s in sorted(tracer.spans)]
    assert names == ["bench.r", "outer.mid", "inner.leaf", "inner.leaf"]
    assert tracer.counts == {"n": 2}
    agg = aggregate(tracer.spans)
    assert agg["module_calls"] == {"bench": 1, "outer": 1, "inner": 2}
    assert agg["func_calls"]["inner.leaf"] == 2


def test_self_time_subtracts_direct_children_only():
    spans = [(0, "bench.r", 0.0, 10.0, -1, "r"), (1, "a.f", 1.0, 9.0, 0, "r"),
             (2, "b.g", 2.0, 5.0, 1, "r"), (3, "a.h", 3.0, 4.0, 2, "r"),
             (4, "b.g", 6.0, 7.0, 1, "r")]
    assert self_times(spans) == {0: 2.0, 1: 4.0, 2: 2.0, 3: 1.0, 4: 1.0}
    agg = aggregate(spans)
    assert agg["module_self"] == {"bench": 2.0, "a": 5.0, "b": 3.0}
    # a.h is entered from b, so it is a second entry call into a
    assert agg["module_calls"] == {"bench": 1, "a": 2, "b": 2}
