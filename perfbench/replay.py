"""Traced replay of citerec's CLI subcommands and of ``run_experiment``.

Each ``replay_<command>`` takes the namespace that ``citerec.cli``'s own
parser produced for a subcommand and makes the same layer calls, in the
same order and with the same arguments, as the matching ``cmd_<command>``
in ``citerec/cli.py``, with one span around each call.  The replay must
write byte-identical files; the benchmark checks that on every run.
"""

import numpy as np

from citerec.baselines import PageRankParams
from citerec.cli import params_hash
from citerec.embedding import (TrainParams, init_model, load_model,
                               save_model, train)
from citerec.evaluation import (ExperimentConfig, build_queries, recall_at_k,
                                write_queries, write_report)
from citerec.graph import CitationGraph, load_graph
from citerec.ranking import EMBEDDING_METHODS, recommend, write_ranked_csv
from citerec.sampling import (SamplingParams, WalkCorpus, cocitation_corpus,
                              generate_walk_corpus)


class ReplayState:
    """Objects the replay built, kept for the correctness checks."""

    def __init__(self):
        self.graphs = {}    # output path -> CitationGraph written there
        self.corpora = {}   # output path -> WalkCorpus written there
        self.models = {}    # output path -> EmbeddingModel written there
        self.ranked = []    # (ranked list, seeds, candidate ids, k)
        self.records = []   # per-query recall records
        self.skipped = 0    # queries run_experiment would drop
        self.evaluations = []  # (graphs, models, queries) per evaluate run


def method_span(method):
    """Span name for one ``recommend`` call: the layer that scores it."""
    layer = "ranking" if method in EMBEDDING_METHODS else "baselines"
    return f"{layer}.{method}"


def n_windows(corpus, epochs):
    """Training steps ``train`` takes: one per position of every sequence
    of length >= 2, per epoch."""
    return epochs * sum(len(s) for s in corpus.sequences if len(s) >= 2)


def _load_any_graph(tr, path, nodes=None):
    if str(path).endswith(".npz"):
        with tr.span("graph.load_cache"):
            return CitationGraph.load_cache(path)
    with tr.span("graph.load_graph"):
        return load_graph(path, nodes)


def _time_slice(tr, g, year):
    with tr.span("graph.time_slice") as sp:
        sl = g.time_slice(year)
    sp.attrs.update(nodes=sl.n, edges=sl.m)
    return sl


def _cocit(tr, g, n, seed):
    with tr.span("sampling.cocit") as sp:
        corpus = cocitation_corpus(g, n, seed=seed)
    sp.attrs["tokens"] = sum(len(s) for s in corpus.sequences)
    return corpus


def _walks(tr, g, params, strategy):
    with tr.span(f"sampling.{strategy}") as sp:
        corpus = generate_walk_corpus(g, params, strategy=strategy)
    sp.attrs["steps"] = sum(len(s) - 1 for s in corpus.sequences)
    return corpus


def _train(tr, g, corpus, params):
    with tr.span("embedding.train") as sp:
        model = train(init_model(g, params), corpus, params)
    sp.attrs["windows"] = n_windows(corpus, params.epochs)
    return model


def replay_ingest(args, tr, state):
    with tr.span("graph.load_graph"):
        g = load_graph(args.edges, args.nodes)
    with tr.span("graph.save_cache"):
        g.save_cache(args.output)
    state.graphs[args.output] = g


def replay_slice(args, tr, state):
    g = _load_any_graph(tr, args.graph, args.nodes)
    sl = _time_slice(tr, g, args.year)
    with tr.span("graph.save_cache"):
        sl.save_cache(args.output)
    state.graphs[args.output] = sl


def replay_sample(args, tr, state):
    g = _load_any_graph(tr, args.graph, args.nodes)
    if args.strategy == "cocit":
        corpus = _cocit(tr, g, args.n, args.seed)
    else:
        params = SamplingParams(n=args.n, t=args.t, p=args.p, q=args.q,
                                seed=args.seed)
        corpus = _walks(tr, g, params, args.strategy)
    corpus.params["params_hash"] = params_hash(corpus.params)
    with tr.span("sampling.corpus_save"):
        corpus.save(args.output, g)
    state.corpora[args.output] = corpus


def replay_train(args, tr, state):
    g = _load_any_graph(tr, args.graph, args.nodes)
    with tr.span("sampling.corpus_load"):
        corpus = WalkCorpus.load(args.corpus, g)
    params = TrainParams(dim=args.dim, window=args.window, epochs=args.epochs,
                         lr=args.lr, lr_min=args.lr_min, mode=args.mode,
                         negatives=args.negatives, seed=args.seed)
    model = _train(tr, g, corpus, params)
    with tr.span("embedding.save_model"):
        save_model(model, args.output)
    state.models[args.output] = model


def replay_recommend(args, tr, state):
    seeds = [s for s in args.seeds.split(",") if s]
    model = None
    if args.model:
        with tr.span("embedding.load_model"):
            model = load_model(args.model)
    graph = _load_any_graph(tr, args.graph, args.nodes) if args.graph else None
    with tr.span(method_span(args.method)):
        ranked = recommend(args.method, seeds, args.k, model=model,
                           graph=graph,
                           pr_params=PageRankParams(damping=args.damping))
    with tr.span("ranking.write_csv"):
        write_ranked_csv(args.output, ranked)
    ids = model.ids if args.method in EMBEDDING_METHODS else graph.ids
    state.ranked.append((ranked, seeds, ids, args.k))


def replay_evaluate(args, tr, state):
    g = _load_any_graph(tr, args.graph, args.nodes)
    ratios = tuple(float(r) for r in args.ratios.split(","))
    ks = tuple(int(k) for k in args.k_values.split(","))
    methods = tuple(args.methods.split(","))
    cfg = ExperimentConfig(
        hidden_ratios=ratios, n_queries=args.queries,
        ref_range=(args.min_refs, args.max_refs),
        year_range=(args.min_year, args.max_year),
        k_values=ks, methods=methods, seed=args.seed)

    queries_by_ratio = {}
    for r in ratios:
        with tr.span("evaluation.build_queries") as sp:
            queries_by_ratio[r] = build_queries(g, cfg, r)
        sp.attrs["queries"] = len(queries_by_ratio[r])
    years = sorted({q.year - 1 for qs in queries_by_ratio.values() for q in qs})
    graphs, models = {}, {}
    sparams = SamplingParams(n=args.n, t=args.t, seed=args.seed)
    tparams = TrainParams(dim=args.dim, window=args.window, epochs=args.epochs,
                          mode=args.mode, seed=args.seed)
    embedding_needed = any(m in EMBEDDING_METHODS for m in methods)
    for y in years:
        graphs[y] = _time_slice(tr, g, y)
        if embedding_needed:
            if args.strategy == "cocit":
                corpus = _cocit(tr, graphs[y], args.n, args.seed)
            else:
                corpus = _walks(tr, graphs[y], sparams, args.strategy)
            models[y] = _train(tr, graphs[y], corpus, tparams)
    aggregates = replay_experiment(cfg, graphs, models, queries_by_ratio,
                                   tr, state)
    with tr.span("evaluation.write_report"):
        write_report(args.output, aggregates)
    all_queries = [q for r in sorted(queries_by_ratio)
                   for q in queries_by_ratio[r]]
    if args.queries_out:
        with tr.span("evaluation.write_queries"):
            write_queries(args.queries_out, all_queries)
    state.evaluations.append((graphs, models, all_queries))


REPLAY = {"ingest": replay_ingest, "slice": replay_slice,
          "sample": replay_sample, "train": replay_train,
          "recommend": replay_recommend, "evaluate": replay_evaluate}


def replay_experiment(cfg, graphs, models, queries_by_ratio, tr, state):
    """``run_experiment``'s loop as one ``recommend`` and one recall call per
    (query, method); returns the same aggregate rows.  The spans of one
    query share its request id."""
    max_k = max(cfg.k_values)
    records = []
    with tr.span("evaluation.run_experiment") as run_sp:
        for ratio, queries in sorted(queries_by_ratio.items()):
            for qi, q in enumerate(queries):
                with tr.span("evaluation.query",
                             request=f"{ratio:g}/{q.query_id}"):
                    sl = graphs[q.year - 1]
                    model = models.get(q.year - 1)
                    seeds = [s for s in q.seeds if s in sl]
                    if not seeds:
                        state.skipped += 1
                        continue
                    for method in cfg.methods:
                        rng = (np.random.default_rng([cfg.seed, 0x72616E64, qi])
                               if method == "random" else None)
                        with tr.span(method_span(method)):
                            ranked = recommend(method, seeds, max_k,
                                               model=model, graph=sl,
                                               pr_params=None, rng=rng)
                        rec = {"method": method, "hidden_ratio": ratio,
                               "query_id": q.query_id, "year": q.year}
                        with tr.span("evaluation.recall_at_k"):
                            for k in cfg.k_values:
                                rec[f"recall@{k}"] = recall_at_k(
                                    ranked, q.hidden, k)
                        records.append(rec)
                        ids = (model.ids if method in EMBEDDING_METHODS
                               else sl.ids)
                        state.ranked.append((ranked, seeds, ids, max_k))
    run_sp.attrs["queries_skipped"] = state.skipped
    state.records.extend(records)

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
    return aggregates
