"""The benchmark's three workloads.

Every workload builds its inputs in ``setup`` from the benchmark seed,
runs the user's job untraced in ``job`` (the timed region), replays the
job through the layer functions in ``replay``, and checks the results in
``check``.  Why each workload exists is in README.md.
"""

import contextlib
import io
from pathlib import Path

from citerec import cli
from citerec.embedding import (TrainParams, init_model, load_model, train)
from citerec.evaluation import (ExperimentConfig, ALL_METHODS, build_queries,
                                run_experiment, write_report)
from citerec.graph import CitationGraph
from citerec.ranking import EMBEDDING_METHODS
from citerec.sampling import WalkCorpus, cocitation_corpus

from . import checks
from .gen import growing_citation_graph
from .replay import REPLAY, ReplayState, replay_experiment

# The 5k-paper growing-community graph of the test suite's criterion 6.
GRAPH_5K = dict(n_papers=5000, n_communities=8, year_lo=1995, year_hi=2010,
                refs_lo=5, refs_hi=25, mix=0.15)
GRAPH_SMOKE = dict(n_papers=300, n_communities=4, year_lo=2000, year_hi=2010,
                   refs_lo=3, refs_hi=12, mix=0.1)
# cli-pipeline runs on a smaller graph than the other two workloads so that
# the whole chain, repeated, fits in one run; the walk passes are sized so
# that sampling is the chain's largest share.
GRAPH_PIPELINE = dict(GRAPH_5K, n_papers=600)
PIPELINE_WALK = ["--n", "2", "--t", "40"]
PIPELINE_SEED_SETS = 4
# Queries per hidden ratio in one rank-all-methods run_experiment call.
RANK_QUERIES = 15


def read_report_recall(path, k=50):
    """Mean of the report's recall@k over its (method, ratio) cells."""
    with open(path, encoding="utf-8") as f:
        header = f.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in f]
    vals = [float(r["mean_recall"]) for r in rows if int(r["k"]) == k]
    return sum(vals) / len(vals)


def check_ranked(ops, state):
    for ranked, seeds, ids, k in state.ranked:
        ops.record(checks.ranked_list(ranked, seeds, ids, k), "ranked list")
    ops.record(checks.recalls_in_range(state.records), "recall range")
    for _ in range(state.skipped):
        ops.record("every seed missing from the slice", "query skipped")


class CliWorkload:
    """A chain of ``citerec`` subcommands run through ``citerec.cli.main``."""

    def __init__(self, seed, smoke):
        self.seed = seed
        self.smoke = smoke
        self.argvs = []

    def job(self, ops):
        for argv in self.argvs:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(argv)
            ops.record(None if rc == 0 else f"exit code {rc}",
                       f"citerec {argv[0]}")

    def outputs(self):
        """Every file the chain writes."""
        paths = []
        for argv in self.argvs:
            for flag in ("--output", "--queries-out"):
                if flag in argv:
                    paths.append(argv[argv.index(flag) + 1])
            if argv[0] == "train":
                paths.append(paths[-1] + ".out")
        return paths

    def replay(self, tr):
        state = ReplayState()
        parser = cli.build_parser()
        for i, argv in enumerate(self.argvs):
            args = parser.parse_args(argv)
            with tr.span(f"cli.{args.command}", request=f"cli{i}"):
                REPLAY[args.command](args, tr, state)
        return state


class EvaluateCocit(CliWorkload):
    name = "evaluate-cocit"

    def setup(self, d):
        self.graph = growing_citation_graph(
            **(GRAPH_SMOKE if self.smoke else GRAPH_5K), seed=self.seed)
        self.cache = str(d / "graph.npz")
        self.graph.save_cache(self.cache)
        self.report = str(d / "report.csv")
        self.queries_file = str(d / "queries.tsv")
        self.argvs = [[
            "evaluate", "--graph", self.cache, "--ratios", "0.1,0.9",
            "--queries", "20" if self.smoke else "200",
            "--min-refs", "5", "--min-year", "2010", "--max-year", "2010",
            "--methods", "citmod,cf", "--strategy", "cocit", "--n", "1",
            "--dim", "16" if self.smoke else "32", "--epochs", "1",
            "--mode", "neg", "--seed", str(self.seed),
            "--output", self.report, "--queries-out", self.queries_file]]

    def n_queries(self):
        with open(self.queries_file, encoding="utf-8") as f:
            return sum(1 for line in f if not line.startswith("#"))

    def recall_at_50(self):
        return read_report_recall(self.report)

    def check(self, ops, state):
        ops.record(checks.same_graph(CitationGraph.load_cache(self.cache),
                                     self.graph), "graph cache reload")
        for graphs, models, queries in state.evaluations:
            ops.record(checks.no_time_leakage(graphs, self.graph, queries),
                       "slice time leakage")
            ops.record(checks.no_time_leakage(models, self.graph, queries),
                       "model time leakage")
            for m in models.values():
                ops.record(checks.model_finite(m), "trained model")
        check_ranked(ops, state)


class CliPipeline(CliWorkload):
    name = "cli-pipeline"

    def setup(self, d):
        self.graph = growing_citation_graph(
            **(GRAPH_SMOKE if self.smoke else GRAPH_PIPELINE), seed=self.seed)
        edges, nodes = str(d / "edges.tsv"), str(d / "nodes.tsv")
        self.graph.save_edges(edges, nodes)
        year = 2009
        cfg = ExperimentConfig(hidden_ratios=(0.5,),
                               n_queries=PIPELINE_SEED_SETS,
                               ref_range=(5, 200), year_range=(year + 1, year + 1),
                               seed=self.seed)
        self.queries = build_queries(self.graph, cfg, 0.5)
        f = {name: str(d / name) for name in (
            "graph.npz", "slice.npz", "uniform.txt", "biased.txt",
            "cocit.txt", "model.txt")}
        walk = ["--n", "1", "--t", "10"] if self.smoke else PIPELINE_WALK
        seed = ["--seed", str(self.seed)]
        self.argvs = [
            ["ingest", "--edges", edges, "--nodes", nodes,
             "--output", f["graph.npz"]],
            ["slice", "--graph", f["graph.npz"], "--year", str(year),
             "--output", f["slice.npz"]],
            ["sample", "--graph", f["slice.npz"], "--strategy", "uniform",
             *walk, *seed, "--output", f["uniform.txt"]],
            ["sample", "--graph", f["slice.npz"], "--strategy", "biased",
             *walk, "--p", "0.5", "--q", "2", *seed,
             "--output", f["biased.txt"]],
            ["sample", "--graph", f["slice.npz"], "--strategy", "cocit",
             "--n", "1", *seed, "--output", f["cocit.txt"]],
            ["train", "--graph", f["slice.npz"], "--corpus", f["cocit.txt"],
             "--dim", "16" if self.smoke else "128", "--epochs", "1",
             "--mode", "neg", *seed, "--output", f["model.txt"]],
        ]
        self.recommend_runs = []
        for qi, q in enumerate(self.queries):
            for method in ALL_METHODS:
                out = str(d / f"rec-{qi}-{method}.csv")
                argv = ["recommend", "--method", method,
                        "--seeds", ",".join(q.seeds), "--k", "50"]
                if method in EMBEDDING_METHODS:
                    argv += ["--model", f["model.txt"]]
                if method in ("simwgd", "paperrank", "cf"):
                    argv += ["--graph", f["slice.npz"]]
                self.argvs.append(argv + ["--output", out])
                self.recommend_runs.append((out, q.hidden))
        self.files = f
        self.year = year

    def n_queries(self):
        return len(self.queries)

    def recall_at_50(self):
        total = 0.0
        for out, hidden in self.recommend_runs:
            with open(out, encoding="utf-8") as fh:
                fh.readline()
                top = {line.split(",")[1] for line in fh}
            total += len(top & set(hidden)) / len(hidden)
        return total / len(self.recommend_runs)

    def check(self, ops, state):
        f = self.files
        for path, g in state.graphs.items():
            ops.record(checks.same_graph(CitationGraph.load_cache(path), g),
                       f"reload {Path(path).name}")
        sl = state.graphs[f["slice.npz"]]
        for path, corpus in state.corpora.items():
            ops.record(checks.same_corpus(WalkCorpus.load(path, sl), corpus),
                       f"reload {Path(path).name}")
        model = state.models[f["model.txt"]]
        ops.record(checks.same_model(load_model(f["model.txt"]), model),
                   "reload model.txt")
        ops.record(checks.model_finite(model), "trained model")
        full = state.graphs[f["graph.npz"]]
        ops.record(checks.no_time_leakage({self.year: sl}, full, self.queries),
                   "slice time leakage")
        ops.record(checks.no_time_leakage({self.year: model}, full,
                                          self.queries), "model time leakage")
        check_ranked(ops, state)


class RankAllMethods:
    name = "rank-all-methods"

    def __init__(self, seed, smoke):
        self.seed = seed
        self.smoke = smoke

    def setup(self, d):
        g = growing_citation_graph(
            **(GRAPH_SMOKE if self.smoke else GRAPH_5K), seed=self.seed)
        year = 2009
        self.cfg = ExperimentConfig(
            hidden_ratios=(0.1, 0.9), n_queries=5 if self.smoke else RANK_QUERIES,
            ref_range=(5, 200), year_range=(year + 1, year + 1),
            methods=ALL_METHODS, seed=self.seed)
        self.queries_by_ratio = {r: build_queries(g, self.cfg, r)
                                 for r in self.cfg.hidden_ratios}
        sl = g.time_slice(year)
        tparams = TrainParams(dim=16 if self.smoke else 32, epochs=1,
                              mode="neg", seed=self.seed)
        model = train(init_model(sl, tparams),
                      cocitation_corpus(sl, 1, seed=self.seed), tparams)
        self.graph = g
        self.graphs, self.models = {year: sl}, {year: model}
        self.report = str(d / "report.csv")

    def job(self, ops):
        _, aggregates = run_experiment(
            self.graph, self.cfg, self.graphs, self.models,
            queries_by_ratio=self.queries_by_ratio)
        write_report(self.report, aggregates)
        ops.record(None, "run_experiment")

    def outputs(self):
        return [self.report]

    def n_queries(self):
        return sum(len(qs) for qs in self.queries_by_ratio.values())

    def recall_at_50(self):
        return read_report_recall(self.report)

    def replay(self, tr):
        state = ReplayState()
        aggregates = replay_experiment(self.cfg, self.graphs, self.models,
                                       self.queries_by_ratio, tr, state)
        write_report(self.report, aggregates)
        return state

    def check(self, ops, state):
        queries = [q for qs in self.queries_by_ratio.values() for q in qs]
        ops.record(checks.no_time_leakage(self.graphs, self.graph, queries),
                   "slice time leakage")
        ops.record(checks.no_time_leakage(self.models, self.graph, queries),
                   "model time leakage")
        for m in self.models.values():
            ops.record(checks.model_finite(m), "trained model")
        check_ranked(ops, state)


WORKLOADS = {w.name: w for w in (EvaluateCocit, RankAllMethods, CliPipeline)}
