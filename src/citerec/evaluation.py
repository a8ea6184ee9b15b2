"""Random-hide evaluation: hide a fraction of a query paper's references,
rank candidates from the rest, and measure recall@k.

Queries published in year y are always served by the graph slice and
embedding for year y-1, so no model input postdates the query.
``evaluate`` runs the whole experiment, slicing and training included.
"""

from __future__ import annotations

import math
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .embedding import TrainParams, init_model, train
from .graph import CitationGraph, YEAR_UNKNOWN, text_lines
from .ranking import ALL_METHODS, EMBEDDING_METHODS, METHODS, recommend
from .sampling import sample_corpus

log = logging.getLogger(__name__)

# The one method run_experiment ranks on worker threads.  A PaperRank solve
# is ~25 rounds of long gathers and sums that release the GIL; every other
# ranker is a short call that holds it, and runs faster inline.
POOLED_METHOD = "paperrank"


@dataclass
class Query:
    query_id: str
    year: int
    seeds: list
    hidden: list
    hidden_ratio: float

    def __post_init__(self):
        if set(self.seeds) & set(self.hidden):
            raise ValueError("seed and hidden sets overlap")
        if not self.seeds or not self.hidden:
            raise ValueError("need at least one seed and one hidden paper")
        if "" in self.seeds or "" in self.hidden:
            raise ValueError("empty paper id in the seed or hidden list")
        if not 0 < self.hidden_ratio < 1:
            raise ValueError(f"hidden ratio {self.hidden_ratio!r} outside "
                             "(0, 1)")


@dataclass(frozen=True)
class ExperimentConfig:
    hidden_ratios: tuple = (0.1,)
    n_queries: int = 2500
    ref_range: tuple = (20, 200)
    year_range: tuple = (2005, 2010)
    k_values: tuple = (10, 25, 50, 100)
    methods: tuple = ALL_METHODS
    seed: int = 0

    def __post_init__(self):
        for r in self.hidden_ratios:
            if not 0 < r < 1:
                raise ValueError("hidden ratios must lie in (0, 1)")
        if self.ref_range[0] > self.ref_range[1] or self.year_range[0] > self.year_range[1]:
            raise ValueError("empty range")
        if self.n_queries < 1:
            raise ValueError("n_queries must be >= 1")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown ranking method: {m!r}")
        if not self.k_values or min(self.k_values) < 1:
            raise ValueError("k values must be >= 1")
        # a repeated method or k would be written as two report rows, and a
        # repeated ratio merged into one; ratios compare as the report and
        # the queries file print them (:g), so no two rows share a label
        for name, values, keys in (
                ("hidden ratio", self.hidden_ratios,
                 [f"{r:g}" for r in self.hidden_ratios]),
                ("k value", self.k_values, list(self.k_values)),
                ("ranking method", self.methods, list(self.methods))):
            for i, v in enumerate(values):
                if keys[i] in keys[:i]:
                    first = values[keys.index(keys[i])]
                    if first == v:
                        raise ValueError(f"repeated {name}: {v!r}")
                    raise ValueError(f"{name}s {first!r} and {v!r} both "
                                     f"print as {keys[i]}")
        # build_queries seeds each ratio's stream with its thousandths
        streams = [int(round(r * 1000)) for r in self.hidden_ratios]
        for i, s in enumerate(streams):
            if s in streams[:i]:
                first = self.hidden_ratios[streams.index(s)]
                raise ValueError(
                    f"hidden ratios {first!r} and {self.hidden_ratios[i]!r} "
                    f"both round to {s / 1000:g} and would draw the same "
                    "queries")


def hidden_count(n_refs, ratio):
    """ceil(ratio * n_refs), clamped so both sides stay non-empty."""
    return min(max(math.ceil(ratio * n_refs), 1), n_refs - 1)


def build_queries(g: CitationGraph, cfg: ExperimentConfig, ratio, rng=None):
    """Sample eligible query papers and split their surviving references.

    Eligible papers have a known year inside cfg.year_range and a reference
    count inside cfg.ref_range.  References are restricted to the slice at
    year-1 before the hide; papers with fewer than 2 surviving references
    are skipped.
    """
    if rng is None:
        rng = np.random.default_rng([cfg.seed, int(round(ratio * 1000))])
    if not g.has_years:
        raise ValueError("query building requires year metadata")
    y_lo, y_hi = cfg.year_range
    r_lo, r_hi = cfg.ref_range
    ref_counts = np.diff(g.ref_indptr)
    eligible = np.flatnonzero(
        (g.years != YEAR_UNKNOWN)
        & (g.years >= y_lo) & (g.years <= y_hi)
        & (ref_counts >= r_lo) & (ref_counts <= r_hi))
    order = rng.permutation(eligible)

    queries = []
    for v in order:
        if len(queries) == cfg.n_queries:
            break
        v = int(v)
        year = int(g.years[v])
        rows = g.refs(v)
        ref_years = g.years[rows]
        alive = (ref_years != YEAR_UNKNOWN) & (ref_years <= year - 1)
        refs = [g.ids[r] for r in rows[alive]]
        if len(refs) < 2:
            continue
        n_hide = hidden_count(len(refs), ratio)
        hide_pos = rng.choice(len(refs), size=n_hide, replace=False)
        hide_set = set(int(i) for i in hide_pos)
        queries.append(Query(
            query_id=g.ids[v],
            year=year,
            seeds=[r for i, r in enumerate(refs) if i not in hide_set],
            hidden=[refs[i] for i in sorted(hide_set)],
            hidden_ratio=ratio,
        ))
    if len(queries) < cfg.n_queries:
        log.warning("only %d eligible queries (requested %d)",
                    len(queries), cfg.n_queries)
    return queries


def recall_at_k(ranked, hidden, k):
    """Fraction of hidden papers appearing in the top k of ``ranked``."""
    if k < 1:
        raise ValueError("k must be >= 1")
    hidden = set(hidden)
    if not hidden:
        raise ValueError("hidden set must be non-empty")
    top = {tok for tok, _ in ranked[:k]}
    return len(top & hidden) / len(hidden)


def check_no_time_leakage(models_or_graphs, full_graph: CitationGraph, queries):
    """Every node available to the model serving a query must predate the
    query year.  Raises on violation, naming the first query in list order
    that a leaking node serves."""
    first_query = {}
    for q in queries:
        first_query.setdefault(q.year - 1, q)
    for year, q in first_query.items():
        ids = models_or_graphs[year].ids
        years = full_graph.years[[full_graph.index_of(t) for t in ids]]
        bad = np.flatnonzero((years == YEAR_UNKNOWN) | (years > year))
        if bad.size:
            tok = ids[bad[0]]
            raise ValueError(
                f"time leakage: {tok!r} (year {full_graph.year_of(tok)}) "
                f"serves query {q.query_id!r} of year {q.year}")


def _usable_cpus():
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity call on this platform
        return os.cpu_count() or 1


def run_experiment(g: CitationGraph, cfg: ExperimentConfig, graphs, models,
                   queries_by_ratio=None):
    """Evaluate every configured method on random-hide queries.

    ``graphs`` maps slice year -> CitationGraph, ``models`` maps slice year
    -> EmbeddingModel; queries of year y use the entries for y-1.  Returns
    (per-query records, aggregate rows); aggregates are one row per
    (method, hidden_ratio, k).

    Every query's PaperRank is solved on a pool of worker threads, one per
    usable CPU, while the other methods rank inline; records and aggregates
    are those of the serial loop.  Logs the queries ranked and skipped, the
    methods, the worker count and the seconds at INFO level.
    """
    needed = set()
    if queries_by_ratio is None:
        queries_by_ratio = {
            r: build_queries(g, cfg, r) for r in cfg.hidden_ratios}
    for qs in queries_by_ratio.values():
        needed.update(q.year - 1 for q in qs)
    missing = sorted(y for y in needed if y not in graphs)
    if any(m in EMBEDDING_METHODS for m in cfg.methods):
        missing = sorted(set(missing) | {y for y in needed if y not in models})
    if missing:
        raise ValueError(f"missing sliced graph/model for years: {missing}")

    t0 = time.perf_counter()
    max_k = max(cfg.k_values)
    tasks = []      # (ratio, index in its ratio's list, query, live seeds)
    skipped = 0
    for ratio, queries in sorted(queries_by_ratio.items()):
        for qi, q in enumerate(queries):
            seeds = [s for s in q.seeds if s in graphs[q.year - 1]]
            if not seeds:
                skipped += 1
                continue
            tasks.append((ratio, qi, q, seeds))

    workers = _usable_cpus() if POOLED_METHOD in cfg.methods else 0
    # Threads start only on submit: with no PaperRank the pool stays empty.
    pool = ThreadPoolExecutor(max(workers, 1), thread_name_prefix="paperrank")
    records = []
    try:
        # Each solve is independent and deterministic, so taking the lists
        # in submission order gives the serial loop's records.
        pooled = [pool.submit(recommend, POOLED_METHOD, seeds, max_k,
                              graph=graphs[q.year - 1])
                  for _, _, q, seeds in tasks] if workers else None
        for ti, (ratio, qi, q, seeds) in enumerate(tasks):
            sl = graphs[q.year - 1]
            model = models.get(q.year - 1)
            for method in cfg.methods:
                if method == POOLED_METHOD:
                    ranked = pooled[ti].result()
                else:
                    rng = (np.random.default_rng([cfg.seed, 0x72616E64, qi])
                           if "rng" in METHODS[method].needs else None)
                    ranked = recommend(method, seeds, max_k, model=model,
                                       graph=sl, rng=rng)
                rec = {"method": method, "hidden_ratio": ratio,
                       "query_id": q.query_id, "year": q.year}
                for k in cfg.k_values:
                    rec[f"recall@{k}"] = recall_at_k(ranked, q.hidden, k)
                records.append(rec)
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    if skipped:
        log.warning("%d of %d queries skipped: no seed is in their slice",
                    skipped, sum(map(len, queries_by_ratio.values())))
    log.info("run_experiment: %d queries ranked, %d skipped, methods %s, "
             "%d PaperRank workers, %.3f s", len(tasks), skipped,
             ",".join(cfg.methods), workers, time.perf_counter() - t0)

    aggregates = []
    for ratio in sorted(queries_by_ratio):
        for method in cfg.methods:
            rows = [r for r in records
                    if r["method"] == method and r["hidden_ratio"] == ratio]
            for k in cfg.k_values:
                mean = (sum(r[f"recall@{k}"] for r in rows) / len(rows)
                        if rows else float("nan"))
                aggregates.append({
                    "method": method, "hidden_ratio": ratio, "k": k,
                    "mean_recall": mean, "n_queries": len(rows)})
    return records, aggregates


def evaluate(g: CitationGraph, cfg: ExperimentConfig, tparams: TrainParams,
             strategy, n, **walk):
    """The whole random-hide experiment: every ratio's queries, the slice at
    y-1 for each query year y and, only if a configured method needs one, a
    model per slice trained on its ``strategy`` corpus (n passes, walk
    parameters t, p, q), both seeded by ``tparams.seed``.  Returns
    (queries by ratio, records, aggregates), as :func:`run_experiment`."""
    queries_by_ratio = {r: build_queries(g, cfg, r)
                        for r in cfg.hidden_ratios}
    years = sorted({q.year - 1 for qs in queries_by_ratio.values()
                    for q in qs})
    graphs = {y: g.time_slice(y) for y in years}
    models = {}
    if any(m in EMBEDDING_METHODS for m in cfg.methods):
        for y, sl in graphs.items():
            corpus = sample_corpus(sl, strategy, n, tparams.seed, **walk)
            models[y] = train(init_model(sl, tparams), corpus, tparams)
    records, aggregates = run_experiment(
        g, cfg, graphs, models, queries_by_ratio=queries_by_ratio)
    return queries_by_ratio, records, aggregates


def write_report(path, aggregates):
    """Aggregate CSV: method,hidden_ratio,k,mean_recall,n_queries."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("method,hidden_ratio,k,mean_recall,n_queries\n")
        for row in aggregates:
            f.write(f"{row['method']},{row['hidden_ratio']:g},{row['k']},"
                    f"{row['mean_recall']:.6f},{row['n_queries']}\n")


def write_queries(path, queries):
    """One record per line: query_id, year, seeds, hidden (tab-separated;
    id lists comma-separated)."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("# query_id\tyear\thidden_ratio\tseeds\thidden\n")
        for q in queries:
            f.write(f"{q.query_id}\t{q.year}\t{q.hidden_ratio:g}\t"
                    f"{','.join(q.seeds)}\t{','.join(q.hidden)}\n")


def read_queries(path):
    queries = []
    for lineno, line in text_lines(path):
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 5:
            raise ValueError(f"{path}:{lineno}: expected 5 fields")
        try:
            queries.append(Query(
                query_id=parts[0], year=int(parts[1]),
                hidden_ratio=float(parts[2]),
                seeds=parts[3].split(","), hidden=parts[4].split(",")))
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return queries
