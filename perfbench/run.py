"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload evaluate-cocit --seed 1 --seconds 20 --trace 0

Run from the root of a citerec checkout; citerec is imported from its
``src/`` directory, and every file the run writes goes under
``.perfbench/`` there.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics of the traced
replay with ``--trace 1``.  The exit code is 0 when every correctness check
passed, 1 when one failed, and 2 when the run could not start.
"""

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

# Single-process numbers: pin BLAS to one thread before numpy is imported.
BLAS_THREADS = 1
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
# Set-up is repeated at least SETUP_MIN_REPS times, and until
# SETUP_MIN_SECONDS have passed (at most SETUP_MAX_REPS times); setup_s is
# the median.
SETUP_MIN_REPS, SETUP_MAX_REPS, SETUP_MIN_SECONDS = 3, 15, 2.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "queries_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["evaluate-cocit", "rank-all-methods",
                             "cli-pipeline"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True,
                    help="length of the measured phase")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's own tests")
    return ap.parse_args(argv)


def git_commit():
    """HEAD's commit id, read without running git; 'unknown' outside a
    git checkout."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed):
    import numpy as np
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": BLAS_THREADS,
            "git_commit": git_commit(), "seed": seed}


def snapshot(paths):
    return {p: Path(p).read_bytes() for p in paths}


def differences(reference, outputs):
    from perfbench.checks import same_file
    return "; ".join(r for r in (same_file(p, reference[p], outputs[p])
                                 for p in reference) if r) or None


def percentile_ms(durations, q):
    import numpy as np
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if "_ms_p" in name:
        return "ms"
    if "us_per_" in name:
        return "us"
    if name.startswith("evaluation.recall"):
        return "fraction"
    return "count"


def per_layer_metrics(tr, recall, untraced_wall, replay_wall, identical):
    """Per-layer metrics from the traced replay's spans; a layer the
    workload does not reach reads 0."""
    from perfbench.replay import method_span
    m = {}
    for name in ("graph.load_graph", "graph.save_cache", "graph.load_cache",
                 "graph.time_slice", "sampling.cocit", "sampling.uniform",
                 "sampling.biased", "sampling.corpus_save",
                 "sampling.corpus_load", "embedding.train",
                 "embedding.save_model", "embedding.load_model",
                 "evaluation.build_queries", "evaluation.run_experiment"):
        m[name + "_s"] = tr.total(name)
    slices = tr.by_name("graph.time_slice")
    m["graph.nodes"] = slices[-1].attrs["nodes"] if slices else 0
    m["graph.edges"] = slices[-1].attrs["edges"] if slices else 0
    m["sampling.cocit_tokens"] = tr.count("sampling.cocit", "tokens")
    for walk in ("uniform", "biased"):
        steps = tr.count(f"sampling.{walk}", "steps")
        m[f"sampling.{walk}_steps"] = steps
        m[f"sampling.{walk}_us_per_step"] = (
            m[f"sampling.{walk}_s"] / steps * 1e6 if steps else 0.0)
    windows = tr.count("embedding.train", "windows")
    m["embedding.windows"] = windows
    m["embedding.us_per_window"] = (
        m["embedding.train_s"] / windows * 1e6 if windows else 0.0)
    for method in ("simavg", "simwgd", "simref", "citmod", "paperrank", "cf"):
        name = method_span(method)
        durations = [sp.duration for sp in tr.by_name(name)]
        m[f"{name}_ms_p50"] = percentile_ms(durations, 50)
        m[f"{name}_ms_p95"] = percentile_ms(durations, 95)
    m["evaluation.queries_built"] = tr.count("evaluation.build_queries",
                                             "queries")
    m["evaluation.queries_skipped"] = tr.count("evaluation.run_experiment",
                                               "queries_skipped")
    m["evaluation.recall_at_50"] = recall
    m["trace.overhead_s"] = replay_wall - untraced_wall
    m["trace.spans"] = len(tr.spans)
    m["trace.outputs_identical"] = int(identical)
    return m


def run(args, workdir, results):
    from perfbench.checks import Ops
    from perfbench.spans import Tracer
    from perfbench.workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed, args.smoke)
    ops = Ops()
    setup_times = []
    while (len(setup_times) < SETUP_MIN_REPS
           or (sum(setup_times) < SETUP_MIN_SECONDS
               and len(setup_times) < SETUP_MAX_REPS)):
        d = workdir / f"setup{len(setup_times)}"
        d.mkdir()
        t0 = time.perf_counter()
        wl.setup(d)
        setup_times.append(time.perf_counter() - t0)

    # Measured phase: repeat the whole job until --seconds have passed.
    walls = []
    reference = None
    begin = time.perf_counter()
    while not walls or time.perf_counter() - begin < args.seconds:
        t0 = time.perf_counter()
        wl.job(ops)
        walls.append(time.perf_counter() - t0)
        outputs = snapshot(wl.outputs())
        if reference is None:
            reference = outputs
        else:
            ops.record(differences(reference, outputs),
                       "job repeated on the same inputs")
    wall = statistics.median(walls)
    n_queries = wl.n_queries()
    recall = wl.recall_at_50()

    # The replay runs on every run: untraced it is the correctness pass,
    # traced it also gives the per-layer numbers.
    tr = Tracer(enabled=bool(args.trace))
    t0 = time.perf_counter()
    state = wl.replay(tr)
    replay_wall = time.perf_counter() - t0
    mismatch = differences(reference, snapshot(reference))
    ops.record(mismatch, "replay outputs identical to the untraced run")
    wl.check(ops, state)

    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "wall_s": wall,
        "queries_per_s": n_queries / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed),
              "setup_s_all": setup_times, "wall_s_all": walls,
              "queries": n_queries, "recall_at_50": recall,
              "attempted": ops.attempted,
              "failed": ops.failed, "failed_share": ops.failed / ops.attempted,
              "failures": ops.reasons, "end_to_end": end_to_end}
    if args.trace:
        detail["per_layer"] = per_layer_metrics(
            tr, recall, wall, replay_wall, mismatch is None)
        detail["self_s_by_name"] = tr.self_time_by_name()
        tr.write(results / f"{args.workload}-seed{args.seed}.trace.json",
                 {k: detail[k] for k in ("workload", "seed", "env")})
    return detail


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (ROOT / "src" / "citerec" / "__init__.py").is_file():
        print(f"error: no citerec sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    base = ROOT / ".perfbench"
    results = base / "results"
    results.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=base))
    try:
        detail = run(args, workdir, results)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results / name, "w", encoding="utf-8") as f:
        json.dump(detail, f, indent=1)

    metrics = detail["per_layer"] if args.trace else detail["end_to_end"]
    units = ({k: per_layer_unit(k) for k in metrics} if args.trace
             else END_TO_END_UNITS)
    print(f"env: {json.dumps(detail['env'])}")
    print(f"failed_share: {detail['failed_share']} "
          f"({detail['failed']} of {detail['attempted']} operations)")
    for key, val in metrics.items():
        print(f"{key}: {val} {units[key]}")
    print(json.dumps({
        "correct": detail["failed"] == 0,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 0 if detail["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
