"""The benchmark's own tests: run them with ``python3 -m pytest perfbench/tests``."""

import importlib.util
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from citerec import cli
from perfbench.gen import growing_citation_graph
from perfbench.replay import ReplayState, replay_evaluate
from perfbench.spans import Tracer

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
# Layers each workload's traced run must write spans for.
LAYERS = {
    "evaluate-cocit": {"cli", "graph", "sampling", "embedding", "ranking",
                       "baselines", "evaluation"},
    "rank-all-methods": {"ranking", "baselines", "evaluation"},
    "cli-pipeline": {"cli", "graph", "sampling", "embedding", "ranking",
                     "baselines"},
}


def _suite_generator():
    spec = importlib.util.spec_from_file_location(
        "citerec_suite_conftest", ROOT / "tests" / "conftest.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.make_synthetic_citation_corpus_graph


@pytest.mark.parametrize("kwargs", [
    {},
    dict(n_papers=600, n_communities=8, year_lo=1995, year_hi=2010,
         refs_lo=5, refs_hi=25, mix=0.15, seed=3),
])
def test_generator_matches_test_suite(kwargs):
    a = growing_citation_graph(**kwargs)
    b = _suite_generator()(**kwargs)
    assert a.ids == b.ids
    for attr in ("years", "ref_indptr", "ref_indices"):
        assert np.array_equal(getattr(a, attr), getattr(b, attr))


def test_self_time_excludes_children():
    tr = Tracer()
    with tr.span("outer", request="r1"):
        with tr.span("inner"):
            time.sleep(0.01)
    outer, inner = tr.spans
    assert inner.parent == outer.id and inner.request == "r1"
    self_outer, self_inner = tr.self_times()
    assert self_inner == inner.duration
    assert self_outer == pytest.approx(outer.duration - inner.duration)
    assert self_outer < inner.duration


def test_traced_replay_of_evaluate_matches_cli(tmp_path):
    g = growing_citation_graph(n_papers=250, n_communities=3, year_lo=2002,
                               year_hi=2010, refs_lo=3, refs_hi=10, seed=5)
    cache = tmp_path / "graph.npz"
    g.save_cache(cache)
    argv = ["evaluate", "--graph", str(cache), "--ratios", "0.1,0.9",
            "--queries", "15", "--min-refs", "3", "--min-year", "2010",
            "--max-year", "2010", "--methods", "citmod,cf,paperrank",
            "--strategy", "cocit", "--n", "1", "--dim", "8", "--epochs", "1",
            "--mode", "neg", "--seed", "4"]
    assert cli.main(argv + ["--output", str(tmp_path / "cli.csv")]) == 0
    tr = Tracer()
    args = cli.build_parser().parse_args(
        argv + ["--output", str(tmp_path / "replay.csv")])
    replay_evaluate(args, tr, ReplayState())
    cli_report = (tmp_path / "cli.csv").read_bytes()
    assert cli_report.count(b"\n") > 1
    assert (tmp_path / "replay.csv").read_bytes() == cli_report
    layers = {sp.name.split(".")[0] for sp in tr.spans}
    assert layers == LAYERS["evaluate-cocit"] - {"cli"}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(LAYERS))
def test_smoke_run_prints_every_metric_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if trace:
        assert result["metrics"]["trace.outputs_identical"]["value"] == 1
        spans = json.loads((ROOT / ".perfbench" / "results" /
                            f"{workload}-seed3.trace.json").read_text())
        layers = {sp["name"].split(".")[0] for sp in spans["spans"]}
        assert layers == LAYERS[workload]


def test_missing_sources_fail_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in (ROOT / "perfbench").glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-pipeline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
