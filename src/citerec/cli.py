"""Command-line entry point: ingest -> slice -> sample -> train ->
recommend -> evaluate, plus plot-data emission.

All randomness flows from a single --seed flag; every subcommand is
deterministic given identical inputs and seed.  The training, walk and
PageRank flags are the fields of ``TrainParams``, ``SamplingParams`` and
``PageRankParams`` that carry help metadata, with those fields' defaults.
A config file in ``key = value`` format supplies defaults that flags
override.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import sys

from . import __version__
from .graph import CitationGraph, load_graph, text_lines
from .sampling import STRATEGIES, SamplingParams, WalkCorpus, sample_corpus
from .embedding import (TrainParams, TrainingError, init_model, train,
                        save_model, load_model, load_vectors)
from .ranking import ALL_METHODS, METHODS, recommend, write_ranked_csv
from .baselines import PageRankParams
from .evaluation import ExperimentConfig, evaluate, write_report, write_queries


def params_hash(params: dict) -> str:
    blob = ";".join(f"{k}={params[k]}" for k in sorted(params))
    return hashlib.sha1(blob.encode()).hexdigest()[:12]


def read_config(path):
    """The ``(line_number, key, value)`` of each ``key = value`` line of
    ``path``; ``#`` starts a comment."""
    cfg = []
    for lineno, line in text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        k, v = (s.strip() for s in line.split("=", 1))
        cfg.append((lineno, k, v))
    return cfg


def _load_any_graph(path, nodes=None):
    if str(path).endswith(".npz"):
        if nodes is not None:
            raise ValueError(f"--nodes {nodes}: the graph cache {path} "
                             "holds its own years")
        return CitationGraph.load_cache(path)
    return load_graph(path, nodes)


def cmd_ingest(args):
    g = load_graph(args.edges, args.nodes)
    g.save_cache(args.output)
    print(f"ingest: {g.n} nodes, {g.m} edges "
          f"({g.self_loops_dropped} self-loops, "
          f"{g.duplicate_edges_dropped} duplicates dropped) -> {args.output}")
    return 0


def cmd_slice(args):
    g = _load_any_graph(args.graph, args.nodes)
    sl = g.time_slice(args.year)
    sl.save_cache(args.output)
    print(f"slice: year<={args.year}: {sl.n} nodes, {sl.m} edges -> {args.output}")
    return 0


def cmd_sample(args):
    g = _load_any_graph(args.graph, args.nodes)
    corpus = sample_corpus(g, args.strategy,
                           **params_args(SamplingParams, args))
    corpus.params["params_hash"] = params_hash(corpus.params)
    corpus.save(args.output, g)
    print(f"sample: strategy={args.strategy} {len(corpus)} sequences -> {args.output}")
    return 0


def cmd_train(args):
    g = _load_any_graph(args.graph, args.nodes)
    corpus = WalkCorpus.load(args.corpus, g)
    params = TrainParams(**params_args(TrainParams, args))
    model = train(init_model(g, params), corpus, params)
    save_model(model, args.output)
    print(f"train: mode={params.mode} d={params.dim} epochs={params.epochs} "
          f"-> {args.output} (+.out)")
    return 0


def recommend_inputs(method, model=None, graph=None, nodes=None):
    """The ``recommend`` inputs that ``method`` reads, as keyword
    arguments, loaded from the files given: the vectors of the model file
    ``model`` for a method that needs only them, the whole model pair for
    one that needs the model, and the graph ``graph`` for one that needs a
    graph.  A file the method does not read is never opened; an input it
    needs but was not given is left for ``recommend`` to name."""
    needs = METHODS[method].needs
    inputs = {}
    if model:
        if "model" in needs:
            inputs["model"] = load_model(model)
        elif "vectors" in needs:
            inputs["model"] = load_vectors(model)
    if graph and "graph" in needs:
        inputs["graph"] = _load_any_graph(graph, nodes)
    return inputs


def cmd_recommend(args):
    seeds = [s for s in args.seeds.split(",") if s]
    inputs = recommend_inputs(args.method, args.model, args.graph, args.nodes)
    ranked = recommend(args.method, seeds, args.k, **inputs,
                       pr_params=PageRankParams(
                           **params_args(PageRankParams, args)))
    write_ranked_csv(args.output, ranked)
    print(f"recommend: method={args.method} |S|={len(set(seeds))} "
          f"top-{len(ranked)} -> {args.output}")
    return 0


def cmd_evaluate(args):
    g = _load_any_graph(args.graph, args.nodes)
    cfg = ExperimentConfig(
        hidden_ratios=tuple(float(r) for r in args.ratios.split(",")),
        n_queries=args.queries,
        ref_range=(args.min_refs, args.max_refs),
        year_range=(args.min_year, args.max_year),
        k_values=tuple(int(k) for k in args.k_values.split(",")),
        methods=tuple(args.methods.split(",")), seed=args.seed)
    tparams = TrainParams(**params_args(TrainParams, args))
    walk = params_args(SamplingParams, args)
    del walk["seed"]    # evaluate seeds each corpus with the training seed
    queries_by_ratio, _, aggregates = evaluate(g, cfg, tparams, args.strategy,
                                               **walk)
    write_report(args.output, aggregates)
    if args.queries_out:
        write_queries(args.queries_out, [q for r in sorted(queries_by_ratio)
                                         for q in queries_by_ratio[r]])
    nq = sum(len(v) for v in queries_by_ratio.values())
    print(f"evaluate: {nq} queries, {len(cfg.methods)} methods, "
          f"{len(cfg.hidden_ratios)} ratios -> {args.output}")
    return 0


def _write_series(path, header, lines, methods, cells):
    """One CSV line per (label, k, ratio) with a column per method, read
    from ``cells[(method, k, ratio)]``; absent cells are left empty."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(header + "," + ",".join(methods) + "\n")
        for label, k, ratio in lines:
            vals = [cells.get((m, k, ratio), "") for m in methods]
            f.write(label + "," + ",".join(vals) + "\n")


def cmd_plotdata(args):
    lines = text_lines(args.report)
    header = next(lines, (1, ""))[1].strip().split(",")
    missing = [c for c in ("method", "hidden_ratio", "k", "mean_recall")
               if c not in header]
    if missing:
        raise ValueError(f"{args.report}: missing report column(s): "
                         f"{', '.join(missing)}")
    cells = {}
    for lineno, line in lines:
        fields = line.strip().split(",")
        if len(fields) != len(header):
            raise ValueError(f"{args.report}:{lineno}: "
                             f"expected {len(header)} fields")
        r = dict(zip(header, fields))
        try:
            key = (r["method"], int(r["k"]), float(r["hidden_ratio"]))
        except ValueError as exc:
            raise ValueError(f"{args.report}:{lineno}: {exc}") from None
        if key in cells:
            raise ValueError(f"{args.report}:{lineno}: repeated cell "
                             f"{key[0]}, k={key[1]}, ratio {key[2]:g}")
        cells[key] = r["mean_recall"]
    methods = sorted({m for m, _, _ in cells})
    ks = sorted({k for _, k, _ in cells})
    ratios = sorted({r for _, _, r in cells})

    # recall vs k at each hidden ratio, and vs hidden ratio at each k
    _write_series(args.prefix + "_recall_vs_k.csv", "hidden_ratio,k",
                  [(f"{r:g},{k}", k, r) for r in ratios for k in ks],
                  methods, cells)
    _write_series(args.prefix + "_recall_vs_ratio.csv", "k,hidden_ratio",
                  [(f"{k},{r:g}", k, r) for k in ks for r in ratios],
                  methods, cells)
    print(f"plotdata: {len(cells)} report rows -> "
          f"{args.prefix}_recall_vs_k.csv, {args.prefix}_recall_vs_ratio.csv")
    return 0


def _add_graph_args(p):
    p.add_argument("--graph", required=True,
                   help="edge file or .npz graph cache")
    p.add_argument("--nodes", default=None, help="node-year file")


def _flag_fields(cls):
    """The fields of the params dataclass ``cls`` that are flags: those with
    a ``help`` in their metadata."""
    return [f for f in dataclasses.fields(cls) if "help" in f.metadata]


def _add_params_args(p, *classes):
    """One flag per flag field of the params dataclasses ``classes``, in a
    help group named after its class: the field name with ``_`` read as
    ``-``, the field's default, the type of that default (under ``from
    __future__ import annotations`` a field's ``type`` is a string), and the
    ``help`` and ``choices`` of its metadata.  A field that two classes
    share, ``seed``, is one flag, in the first class's group."""
    added = set()
    for cls in classes:
        # a group's add_argument also skips the help formatter that argparse
        # builds per flag on a parser, which reads the terminal size
        group = p.add_argument_group(cls.__name__)
        for f in _flag_fields(cls):
            if f.name not in added:
                added.add(f.name)
                group.add_argument("--" + f.name.replace("_", "-"),
                                   type=type(f.default), default=f.default,
                                   choices=f.metadata.get("choices"),
                                   help=f.metadata["help"])


def params_args(cls, args):
    """The keyword arguments of ``cls`` that the parsed flags ``args``
    give: one per flag field."""
    return {f.name: getattr(args, f.name) for f in _flag_fields(cls)}


def build_parser():
    ap = argparse.ArgumentParser(
        prog="citerec",
        description="Citation recommendation from citation-graph embeddings")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest", help="parse edge/node files into a binary cache")
    p.add_argument("--edges", required=True, help="tab-separated edge file")
    p.add_argument("--nodes", default=None, help="tab-separated node-year file")
    p.add_argument("--output", required=True, help="output .npz cache")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("slice", help="remove papers published after a year")
    _add_graph_args(p)
    p.add_argument("--year", type=int, required=True)
    p.add_argument("--output", required=True, help="output .npz cache")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("sample", help="generate a walk / co-citation corpus")
    _add_graph_args(p)
    p.add_argument("--strategy", choices=STRATEGIES, default="uniform")
    _add_params_args(p, SamplingParams)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("train", help="train an embedding model on a corpus")
    _add_graph_args(p)
    p.add_argument("--corpus", required=True)
    _add_params_args(p, TrainParams)
    p.add_argument("--output", required=True,
                   help="model file (companion .out written alongside)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("recommend", help="rank candidates for a seed set")
    p.add_argument("--method", required=True, choices=ALL_METHODS)
    p.add_argument("--seeds", required=True, help="comma-separated paper ids")
    p.add_argument("--k", type=int, default=10)
    p.add_argument("--model", default=None, help="embedding model file")
    p.add_argument("--graph", default=None, help="edge file or .npz cache")
    p.add_argument("--nodes", default=None)
    _add_params_args(p, PageRankParams)
    p.add_argument("--output", required=True, help="ranked CSV")
    p.set_defaults(func=cmd_recommend)

    p = sub.add_parser("evaluate", help="run the random-hide experiment")
    _add_graph_args(p)
    p.add_argument("--ratios", default="0.1", help="comma-separated hidden ratios")
    p.add_argument("--queries", type=int, default=2500)
    p.add_argument("--min-refs", type=int, default=20)
    p.add_argument("--max-refs", type=int, default=200)
    p.add_argument("--min-year", type=int, default=2005)
    p.add_argument("--max-year", type=int, default=2010)
    p.add_argument("--k-values", default="10,25,50,100")
    p.add_argument("--methods", default=",".join(ALL_METHODS))
    p.add_argument("--strategy", choices=STRATEGIES, default="cocit")
    _add_params_args(p, SamplingParams, TrainParams)
    p.add_argument("--output", required=True, help="aggregate report CSV")
    p.add_argument("--queries-out", default=None,
                   help="also write the sampled queries")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plotdata",
                       help="convert a report CSV into plot series")
    p.add_argument("--report", required=True)
    p.add_argument("--prefix", required=True, help="output file prefix")
    p.set_defaults(func=cmd_plotdata)
    return ap


def apply_config_defaults(argv, parser):
    """--config FILE supplies defaults; explicit flags still win.  Each key
    must name a flag of the subcommand ``parser``, with ``_`` read as
    ``-``."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    if i + 1 == len(argv):
        raise ValueError("--config needs a file argument")
    path = argv[i + 1]
    argv = argv[:i] + argv[i + 2:]
    flags = {f for a in parser._actions if a.dest != "help"
             for f in a.option_strings}
    extra = []
    for lineno, k, v in read_config(path):
        flag = "--" + k.replace("_", "-")
        if flag not in flags:
            raise ValueError(f"{path}:{lineno}: unknown key {k!r}")
        extra += [flag, v]
    # injected defaults go before user flags, and argparse keeps the last
    return extra + argv


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    ap = build_parser()
    commands = ap._subparsers._group_actions[0].choices
    try:
        if len(argv) > 1 and argv[0] in commands:
            argv = [argv[0]] + apply_config_defaults(argv[1:],
                                                     commands[argv[0]])
        args = ap.parse_args(argv)
        return args.func(args)
    except (ValueError, OSError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
