import re
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citerec import evaluation, ranking
from citerec.graph import YEAR_UNKNOWN, CitationGraph
from citerec.embedding import EmbeddingModel, TrainParams, init_model
from citerec.evaluation import (ExperimentConfig, Query, build_queries,
                                check_no_time_leakage, hidden_count,
                                read_queries, recall_at_k, run_experiment,
                                write_queries, write_report)
from citerec.ranking import recommend
from .conftest import make_synthetic_citation_corpus_graph


def test_hidden_count_arithmetic():
    assert hidden_count(20, 0.10) == 2
    assert hidden_count(20, 0.95) == 19
    assert hidden_count(3, 0.01) == 1          # floor of one hidden
    assert hidden_count(2, 0.99) == 1          # at least one seed remains


def test_query_validation():
    with pytest.raises(ValueError):
        Query("q", 2005, seeds=["a"], hidden=["a"], hidden_ratio=0.1)
    with pytest.raises(ValueError):
        Query("q", 2005, seeds=[], hidden=["a"], hidden_ratio=0.1)


def eval_graph():
    return make_synthetic_citation_corpus_graph(
        n_papers=800, year_lo=1998, year_hi=2010, refs_lo=4, refs_hi=20,
        seed=21)


def eval_config(**kw):
    defaults = dict(hidden_ratios=(0.1,), n_queries=40, ref_range=(4, 20),
                    year_range=(2005, 2010), k_values=(10, 50),
                    methods=("simavg", "paperrank"), seed=5)
    defaults.update(kw)
    return ExperimentConfig(**defaults)


def test_build_queries_contract():
    g = eval_graph()
    cfg = eval_config()
    queries = build_queries(g, cfg, 0.1)
    assert 0 < len(queries) <= cfg.n_queries
    for q in queries:
        assert not set(q.seeds) & set(q.hidden)
        assert len(q.hidden) >= 1 and len(q.seeds) >= 1
        year = g.year_of(q.query_id)
        assert cfg.year_range[0] <= year <= cfg.year_range[1]
        refs = set(g.neighbors(q.query_id, "refs"))
        assert set(q.seeds) | set(q.hidden) <= refs
        # every used reference survives the slice at year-1
        for tok in q.seeds + q.hidden:
            assert g.year_of(tok) is not None and g.year_of(tok) <= year - 1
        assert len(q.hidden) == hidden_count(len(q.seeds) + len(q.hidden), 0.1)


def reference_build_queries(g, cfg, ratio, rng):
    """Query building with the references of a year-y query restricted to
    the ids of the full time slice at y-1."""
    y_lo, y_hi = cfg.year_range
    r_lo, r_hi = cfg.ref_range
    ref_counts = np.diff(g.ref_indptr)
    eligible = np.flatnonzero(
        (g.years != YEAR_UNKNOWN)
        & (g.years >= y_lo) & (g.years <= y_hi)
        & (ref_counts >= r_lo) & (ref_counts <= r_hi))
    slices = {}
    queries = []
    for v in rng.permutation(eligible):
        if len(queries) == cfg.n_queries:
            break
        year = int(g.years[v])
        if year - 1 not in slices:
            slices[year - 1] = set(g.time_slice(year - 1).ids)
        refs = [g.ids[r] for r in g.refs(v) if g.ids[r] in slices[year - 1]]
        if len(refs) < 2:
            continue
        n_hide = hidden_count(len(refs), ratio)
        hide_set = set(int(i) for i in rng.choice(len(refs), size=n_hide,
                                                  replace=False))
        queries.append(Query(
            query_id=g.ids[v], year=year,
            seeds=[r for i, r in enumerate(refs) if i not in hide_set],
            hidden=[refs[i] for i in sorted(hide_set)], hidden_ratio=ratio))
    return queries


def test_build_queries_matches_time_slice_reference():
    full = eval_graph()
    edges = [(full.ids[v], full.ids[r])
             for v in range(full.n) for r in full.refs(v)]
    # every fifth paper loses its year, so some references are unknown-year
    years = {t: full.year_of(t) for i, t in enumerate(full.ids) if i % 5}
    g = CitationGraph.from_edges(edges, years)
    assert (g.years == YEAR_UNKNOWN).any()
    for ratio in (0.1, 0.5, 0.9):
        cfg = eval_config(n_queries=60, year_range=(2001, 2010))
        rng_a, rng_b = np.random.default_rng(3), np.random.default_rng(3)
        got = build_queries(g, cfg, ratio, rng=rng_a)
        want = reference_build_queries(g, cfg, ratio, rng_b)
        assert len(got) > 10
        assert got == want
        assert rng_a.random() == rng_b.random()     # same draws consumed


def test_build_queries_deterministic():
    g = eval_graph()
    cfg = eval_config()
    q1 = build_queries(g, cfg, 0.1)
    q2 = build_queries(g, cfg, 0.1)
    assert [(q.query_id, q.seeds, q.hidden) for q in q1] == \
           [(q.query_id, q.seeds, q.hidden) for q in q2]


def test_build_queries_warns_when_pool_small(caplog):
    g = eval_graph()
    cfg = eval_config(n_queries=100000)
    with caplog.at_level("WARNING"):
        queries = build_queries(g, cfg, 0.1)
    assert len(queries) < 100000
    assert any("eligible queries" in r.message for r in caplog.records)


def test_recall_at_k():
    ranked = [(f"p{i}", 1.0 - i / 100) for i in range(100)]
    assert recall_at_k(ranked, {"p3", "nothere"}, 10) == 0.5
    assert recall_at_k(ranked, {"p0", "p1"}, 10) == 1.0
    with pytest.raises(ValueError):
        recall_at_k(ranked, set(), 10)


def test_recall_monotone_in_k():
    rng = np.random.default_rng(0)
    for _ in range(200):
        order = rng.permutation(50)
        ranked = [(f"p{i}", 0.0) for i in order]
        hidden = {f"p{int(i)}" for i in rng.choice(50, size=5, replace=False)}
        recalls = [recall_at_k(ranked, hidden, k) for k in (1, 5, 10, 25, 50)]
        assert all(a <= b for a, b in zip(recalls, recalls[1:]))


def _slices_and_models(g, cfg, ratios=(0.1,), dim=8):
    queries_by_ratio = {r: build_queries(g, cfg, r) for r in ratios}
    years = {q.year - 1 for qs in queries_by_ratio.values() for q in qs}
    graphs = {y: g.time_slice(y) for y in years}
    tparams = TrainParams(dim=dim, seed=1)
    models = {y: init_model(graphs[y], tparams) for y in years}
    return queries_by_ratio, graphs, models


def test_run_experiment_shapes_and_consistency():
    g = eval_graph()
    cfg = eval_config(methods=("simavg", "simref"), n_queries=15)
    queries_by_ratio, graphs, models = _slices_and_models(g, cfg)
    records, aggregates = run_experiment(g, cfg, graphs, models,
                                         queries_by_ratio=queries_by_ratio)
    assert len(aggregates) == 2 * 2  # methods x k grid, one ratio
    for row in aggregates:
        assert 0.0 <= row["mean_recall"] <= 1.0


def test_run_experiment_identical_methods_agree():
    # with a single seed, simavg and simref produce identical rankings
    g = eval_graph()
    cfg = eval_config(methods=("simavg", "simref"), n_queries=10)
    queries_by_ratio, graphs, models = _slices_and_models(g, cfg)
    single_seeded = {}
    for r, qs in queries_by_ratio.items():
        single_seeded[r] = [
            Query(q.query_id, q.year, [q.seeds[0]], q.hidden, q.hidden_ratio)
            for q in qs]
    _, aggregates = run_experiment(g, cfg, graphs, models,
                                   queries_by_ratio=single_seeded)
    by_method = {}
    for row in aggregates:
        by_method.setdefault(row["method"], []).append(row["mean_recall"])
    assert by_method["simavg"] == by_method["simref"]


def test_run_experiment_missing_year_errors():
    g = eval_graph()
    cfg = eval_config(n_queries=10)
    queries_by_ratio, graphs, models = _slices_and_models(g, cfg)
    victim = next(iter(graphs))
    del graphs[victim]
    with pytest.raises(ValueError, match=str(victim)):
        run_experiment(g, cfg, graphs, models,
                       queries_by_ratio=queries_by_ratio)


def test_random_control_matches_hypergeometric_expectation():
    g = eval_graph()
    cfg = eval_config(methods=("random",), n_queries=40, k_values=(10,))
    queries_by_ratio, graphs, models = _slices_and_models(g, cfg)
    records, aggregates = run_experiment(g, cfg, graphs, models,
                                         queries_by_ratio=queries_by_ratio)
    # E[recall@k] per query = k / (N_slice - |S|); averaged over queries
    expected, var_sum = 0.0, 0.0
    queries = queries_by_ratio[0.1]
    k = 10
    for q in queries:
        n_cand = graphs[q.year - 1].n - len(q.seeds)
        p = k / n_cand
        expected += p
        var_sum += p * (1 - p) / len(q.hidden)   # binomial upper bound
    nq = len(queries)
    expected /= nq
    sigma = np.sqrt(var_sum) / nq
    observed = [r["mean_recall"] for r in aggregates if r["k"] == 10][0]
    assert abs(observed - expected) <= 3 * sigma + 1e-12, (observed, expected)


def test_run_experiment_bit_reproducible(tmp_path):
    g = eval_graph()
    cfg = eval_config(n_queries=10, methods=("simavg", "cf"))
    for name in ("a.csv", "b.csv"):
        queries_by_ratio, graphs, models = _slices_and_models(g, cfg)
        _, aggregates = run_experiment(g, cfg, graphs, models,
                                       queries_by_ratio=queries_by_ratio)
        write_report(tmp_path / name, aggregates)
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_run_experiment_counts_skipped_queries(caplog):
    g = eval_graph()
    cfg = eval_config(methods=("cf",), n_queries=20)
    queries_by_ratio, graphs, models = _slices_and_models(g, cfg)
    queries = queries_by_ratio[0.1]
    year = queries[0].year - 1
    victims = [q for q in queries if q.year - 1 == year]
    # the slice for `year` loses every seed of the queries it serves
    seeds = {s for q in victims for s in q.seeds}
    graphs[year] = CitationGraph.from_edges([], years={
        t: g.year_of(t) for t in graphs[year].ids if t not in seeds})
    with caplog.at_level("WARNING", logger="citerec.evaluation"):
        records, _ = run_experiment(g, cfg, graphs, models,
                                    queries_by_ratio=queries_by_ratio)
    assert len(records) == len(queries) - len(victims)
    assert [r.message for r in caplog.records] == [
        f"{len(victims)} of {len(queries)} queries skipped: "
        "no seed is in their slice"]


def reference_run_experiment(cfg, graphs, models, queries_by_ratio):
    """run_experiment's ranking as one serial loop: every method of every
    query in walk order, on the calling thread."""
    max_k = max(cfg.k_values)
    records = []
    for ratio, queries in sorted(queries_by_ratio.items()):
        for qi, q in enumerate(queries):
            sl = graphs[q.year - 1]
            model = models.get(q.year - 1)
            seeds = [s for s in q.seeds if s in sl]
            if not seeds:
                continue
            for method in cfg.methods:
                rng = (np.random.default_rng([cfg.seed, 0x72616E64, qi])
                       if method == "random" else None)
                ranked = recommend(method, seeds, max_k, model=model,
                                   graph=sl, rng=rng)
                rec = {"method": method, "hidden_ratio": ratio,
                       "query_id": q.query_id, "year": q.year}
                for k in cfg.k_values:
                    rec[f"recall@{k}"] = recall_at_k(ranked, q.hidden, k)
                records.append(rec)
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


# paperrank in the middle, so inline rankers run before and after it
POOL_METHODS = ("simavg", "simwgd", "simref", "paperrank", "citmod", "cf",
                "random")


def pool_inputs():
    """Queries at two ratios on slices that each gain one isolated paper.
    Every ratio also gets a query no slice paper seeds (skipped), one
    seeded only by its slice's isolated paper and one seeded by it and
    linked papers; models have random output rows so CitMod ranks."""
    g = eval_graph()
    cfg = eval_config(hidden_ratios=(0.1, 0.5), n_queries=8,
                      k_values=(5, 10, 50), methods=POOL_METHODS)
    queries_by_ratio, graphs, _ = _slices_and_models(g, cfg, (0.1, 0.5))
    rng = np.random.default_rng(3)
    models = {}
    for y, sl in graphs.items():
        graphs[y] = CitationGraph(sl.ids + [f"iso{y}"], np.append(sl.years, y),
                                  *sl.edge_list())
        m = init_model(graphs[y], TrainParams(dim=8, seed=1))
        models[y] = EmbeddingModel(m.ids, m.w_in,
                                   rng.normal(size=m.w_out.shape))
    for r, qs in queries_by_ratio.items():
        a, b = qs[1], qs[4]
        iso_a, iso_b = f"iso{a.year - 1}", f"iso{b.year - 1}"
        qs[2:2] = [Query("gone", a.year, ["absent"], a.hidden, r),
                   Query("lone", a.year, [iso_a], a.hidden, r)]
        qs.append(Query("mixed", b.year, [iso_b, *b.seeds], b.hidden, r))
    return g, cfg, graphs, models, queries_by_ratio


@pytest.mark.parametrize("cpus", [1, 4])
def test_run_experiment_pool_matches_serial_reference(tmp_path, monkeypatch,
                                                      cpus):
    g, cfg, graphs, models, queries_by_ratio = pool_inputs()
    want_records, want_aggregates = reference_run_experiment(
        cfg, graphs, models, queries_by_ratio)
    assert len(want_records) == len(POOL_METHODS) * 2 * 10  # 2 skipped
    threads = []
    paperrank = ranking.paperrank

    def traced(*args):
        threads.append(threading.current_thread().name)
        return paperrank(*args)

    monkeypatch.setattr(ranking, "paperrank", traced)
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: cpus)
    records, aggregates = run_experiment(g, cfg, graphs, models,
                                         queries_by_ratio=queries_by_ratio)
    assert records == want_records
    write_report(tmp_path / "want.csv", want_aggregates)
    write_report(tmp_path / "got.csv", aggregates)
    assert (tmp_path / "got.csv").read_bytes() == \
        (tmp_path / "want.csv").read_bytes()
    assert len(threads) == 20
    assert all(t.startswith("paperrank") for t in threads)


@pytest.mark.parametrize("method", ["paperrank", "cf"])
def test_run_experiment_pool_propagates_ranker_error(monkeypatch, method):
    g, cfg, graphs, models, queries_by_ratio = pool_inputs()
    victim = queries_by_ratio[0.5][5]
    score = ranking.METHODS[method].score

    def failing(m, sl, seeds, pr, rng):
        if seeds == list(dict.fromkeys(victim.seeds)):
            raise ValueError(f"{method} failed on {victim.query_id}")
        return score(m, sl, seeds, pr, rng)

    monkeypatch.setitem(ranking.METHODS, method,
                        ranking.Method(ranking.METHODS[method].needs, failing))
    with pytest.raises(ValueError) as want:
        reference_run_experiment(cfg, graphs, models, queries_by_ratio)
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 4)
    before = set(threading.enumerate())
    with pytest.raises(ValueError) as got:
        run_experiment(g, cfg, graphs, models,
                       queries_by_ratio=queries_by_ratio)
    assert str(got.value) == str(want.value) == \
        f"{method} failed on {victim.query_id}"
    assert set(threading.enumerate()) == before
    assert not [t for t in threading.enumerate()
                if t.name.startswith("paperrank")]


@pytest.mark.parametrize("methods,workers", [
    (POOL_METHODS, 4), (("simavg", "cf"), 0)])
def test_run_experiment_logs_summary(caplog, monkeypatch, methods, workers):
    g, cfg, graphs, models, queries_by_ratio = pool_inputs()
    cfg = eval_config(hidden_ratios=cfg.hidden_ratios,
                      k_values=cfg.k_values, methods=methods)
    monkeypatch.setattr(evaluation, "_usable_cpus", lambda: 4)
    with caplog.at_level("INFO", logger="citerec.evaluation"):
        run_experiment(g, cfg, graphs, models,
                       queries_by_ratio=queries_by_ratio)
    assert [r.levelname for r in caplog.records] == ["WARNING", "INFO"]
    assert caplog.records[0].message == \
        "2 of 22 queries skipped: no seed is in their slice"
    assert re.fullmatch(
        rf"run_experiment: 20 queries ranked, 2 skipped, methods "
        rf"{','.join(methods)}, {workers} PaperRank workers, \d+\.\d{{3}} s",
        caplog.records[1].message)


def test_no_time_leakage_check():
    g = eval_graph()
    cfg = eval_config(n_queries=10)
    queries_by_ratio, graphs, models = _slices_and_models(g, cfg)
    queries = queries_by_ratio[0.1]
    check_no_time_leakage(graphs, g, queries)     # must not raise
    # poison one slice with a future paper
    year = queries[0].year - 1
    g2 = CitationGraph.from_edges([], years={**{t: g.year_of(t) for t in graphs[year].ids},
                                             "future": year + 5})
    with pytest.raises(ValueError, match="time leakage"):
        check_no_time_leakage({year: g2, **{y: v for y, v in graphs.items()
                                            if y != year}}, g2, queries[:1])


def test_time_leakage_names_first_query_of_poisoned_year():
    g = eval_graph()
    cfg = eval_config(n_queries=40)
    queries_by_ratio, graphs, _ = _slices_and_models(g, cfg)
    queries = queries_by_ratio[0.1]
    early, late = sorted({q.year for q in queries})[-2:]
    a = [q for q in queries if q.year == early][:2]
    b = [q for q in queries if q.year == late][:2]
    assert len(a) == len(b) == 2
    # the later year's slice gains a paper from after its query year; it
    # also holds every id of the earlier slice, so it serves as full graph
    poisoned = CitationGraph.from_edges([], years={
        **{t: g.year_of(t) for t in graphs[late - 1].ids}, "future": late + 3})
    serving = {**graphs, late - 1: poisoned}
    check_no_time_leakage(serving, poisoned, a)     # must not raise
    with pytest.raises(ValueError) as err:
        check_no_time_leakage(serving, poisoned, [a[0], b[0], a[1], b[1]])
    assert str(err.value) == (
        f"time leakage: 'future' (year {late + 3}) serves query "
        f"{b[0].query_id!r} of year {late}")


def test_query_file_roundtrip(tmp_path):
    queries = [Query("q1", 2006, ["a", "b"], ["c"], 0.1),
               Query("q2", 2007, ["d"], ["e", "f"], 0.5)]
    write_queries(tmp_path / "q.tsv", queries)
    loaded = read_queries(tmp_path / "q.tsv")
    assert [(q.query_id, q.year, q.seeds, q.hidden, q.hidden_ratio)
            for q in loaded] == \
           [(q.query_id, q.year, q.seeds, q.hidden, q.hidden_ratio)
            for q in queries]


def test_read_queries_skips_whitespace_only_lines(tmp_path):
    path = tmp_path / "q.tsv"
    path.write_text("q1\t2006\t0.1\ta\tb\n \t \n\nq2\t2007\t0.5\tc\td\n")
    assert [q.query_id for q in read_queries(path)] == ["q1", "q2"]


@pytest.mark.parametrize("line,message", [
    ("q2\t20x7\t0.1\ta\tb", "invalid literal for int() with base 10: '20x7'"),
    ("q2\t2007\tten\ta\tb", "could not convert string to float: 'ten'"),
    ("q2\t2007\t0.1\ta,b\tb", "seed and hidden sets overlap"),
    ("q2\t2007\t0.1\t\tb", "empty paper id in the seed or hidden list"),
    ("q2\t2007\t0.1\ta,,c\tb", "empty paper id in the seed or hidden list"),
    ("q2\t2007\tnan\ta\tb", "hidden ratio nan outside (0, 1)"),
])
def test_read_queries_names_bad_line(tmp_path, line, message):
    path = tmp_path / "q.tsv"
    path.write_text(f"# query_id\tyear\thidden_ratio\tseeds\thidden\n"
                    f"q1\t2006\t0.1\ta\tb\n{line}\n")
    with pytest.raises(ValueError) as err:
        read_queries(path)
    assert str(err.value) == f"{path}:3: {message}"


# query files separate fields by tabs and ids by commas; '#' opens a comment
query_ids = st.text(st.characters(exclude_categories=("C",),
                                  exclude_characters=","), max_size=5)
# a paper id is never empty
paper_ids = query_ids.filter(len)


@st.composite
def query_lists(draw):
    queries = []
    for _ in range(draw(st.integers(0, 5))):
        ids = draw(st.lists(paper_ids, min_size=2, max_size=6, unique=True))
        n_seeds = draw(st.integers(1, len(ids) - 1))
        queries.append(Query(
            query_id=draw(query_ids.filter(lambda t: not t.startswith("#"))),
            year=draw(st.integers(-10**6, 10**6)),
            seeds=ids[:n_seeds], hidden=ids[n_seeds:],
            hidden_ratio=draw(st.integers(1, 999)) / 1000))
    return queries


@settings(max_examples=100, deadline=None)
@given(query_lists())
def test_query_file_roundtrip_property(queries):
    with tempfile.TemporaryDirectory() as d:
        write_queries(Path(d) / "q.tsv", queries)
        assert read_queries(Path(d) / "q.tsv") == queries


def test_report_format(tmp_path):
    write_report(tmp_path / "r.csv", [
        {"method": "simavg", "hidden_ratio": 0.1, "k": 10,
         "mean_recall": 0.25, "n_queries": 100}])
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == "method,hidden_ratio,k,mean_recall,n_queries"
    assert lines[1] == "simavg,0.1,10,0.250000,100"


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(hidden_ratios=(1.5,))
    with pytest.raises(ValueError):
        ExperimentConfig(ref_range=(10, 5))
    for methods in [("citmod", "bogus"), ("citmod", "")]:
        with pytest.raises(ValueError, match="unknown ranking method"):
            ExperimentConfig(methods=methods)
    for ks in [(), (0, 10), (10, -1)]:
        with pytest.raises(ValueError, match="k values"):
            ExperimentConfig(k_values=ks)
    for n in (0, -5):
        with pytest.raises(ValueError, match="n_queries must be >= 1"):
            ExperimentConfig(n_queries=n)
    # each names the first entry equal to an earlier one; ratios are equal
    # when they print alike (:g), as the report and queries file write them,
    # and are rejected, too, when they would seed one query stream
    for field, values, message in [
            ("methods", ("cf", "citmod", "cf"),
             "repeated ranking method: 'cf'"),
            ("k_values", (10, 50, 50, 10), "repeated k value: 50"),
            ("hidden_ratios", (0.1, 0.9, 0.1), "repeated hidden ratio: 0.1"),
            ("hidden_ratios", (0.5, 0.1, 0.1000001),
             "hidden ratios 0.1 and 0.1000001 both print as 0.1"),
            ("hidden_ratios", (0.5, 0.1, 0.1004),
             "hidden ratios 0.1 and 0.1004 both round to 0.1 and would "
             "draw the same queries")]:
        with pytest.raises(ValueError) as err:
            ExperimentConfig(**{field: values})
        assert str(err.value) == message
    ExperimentConfig(methods=("random",), k_values=(1,), n_queries=1,
                     hidden_ratios=(0.1, 0.101))


def test_evaluate_without_embedding_methods_samples_and_trains_nothing(
        monkeypatch):
    g = eval_graph()
    cfg = eval_config(n_queries=10, methods=("paperrank", "cf"))
    tparams = TrainParams(dim=8, epochs=1, seed=1)
    expected = evaluation.evaluate(g, cfg, tparams, "cocit", 2)

    def forbidden(*args, **kwargs):
        raise AssertionError("no configured method needs a model")
    monkeypatch.setattr(evaluation, "train", forbidden)
    monkeypatch.setattr(evaluation, "sample_corpus", forbidden)
    assert evaluation.evaluate(g, cfg, tparams, "cocit", 2)[2] == expected[2]
