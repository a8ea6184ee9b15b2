import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citerec.graph import CitationGraph
from citerec.baselines import PageRankParams, cf_scores, paperrank
from citerec.ranking import rank_scores


def reference_paperrank(g, seeds, params=None):
    """The former power iteration: each spread is a difference of a
    cumulative sum over the gathered neighbour contributions."""
    if params is None:
        params = PageRankParams()
    seed_rows = np.array(sorted({g.index_of(s) for s in seeds}), dtype=np.int64)
    lam = params.damping
    restart = np.zeros(g.n)
    restart[seed_rows] = 1.0 / seed_rows.size
    deg = g.degrees.astype(np.float64)
    dangling = deg == 0
    safe_deg = np.where(dangling, 1.0, deg)

    x = restart.copy()
    for _ in range(params.max_iter):
        contrib = x / safe_deg
        csum = np.concatenate(([0.0], np.cumsum(contrib[g.adj_indices])))
        spread = csum[g.adj_indptr[1:]] - csum[g.adj_indptr[:-1]]
        dangling_mass = x[dangling].sum()
        x_new = lam * (spread + dangling_mass * restart) + (1 - lam) * restart
        if np.abs(x_new - x).sum() < params.tol:
            x = x_new
            break
        x = x_new
    return x


def dense_paperrank_oracle(g, seeds, params, x0=None):
    """Independent dense power iteration on the explicit transition matrix."""
    n = g.n
    rows = {g.index_of(s) for s in seeds}
    restart = np.zeros(n)
    for r in rows:
        restart[r] = 1.0 / len(rows)
    P = np.zeros((n, n))
    for u in range(n):
        nbrs = g.adj(u)
        if nbrs.size:
            P[nbrs, u] = 1.0 / nbrs.size
        else:
            P[:, u] = restart
    x = restart.copy() if x0 is None else np.asarray(x0, dtype=float)
    lam = params.damping
    for _ in range(params.max_iter):
        x_new = lam * (P @ x) + (1 - lam) * restart
        if np.abs(x_new - x).sum() < params.tol:
            return x_new
        x = x_new
    return x


def two_triangle_graph():
    # triangles A-B-C and D-E-F bridged by C-D
    return CitationGraph.from_edges(
        [("A", "B"), ("B", "C"), ("C", "A"),
         ("D", "E"), ("E", "F"), ("F", "D"), ("C", "D")])


def test_paperrank_single_node():
    g = CitationGraph.from_edges([], years={"A": 2000})
    scores = paperrank(g, ["A"])
    assert abs(scores[0] - 1.0) < 1e-12


def test_paperrank_is_stochastic():
    g = two_triangle_graph()
    assert abs(paperrank(g, ["A", "E"]).sum() - 1.0) < 1e-9


def test_paperrank_matches_dense_oracle_on_bridged_triangles():
    g = two_triangle_graph()
    params = PageRankParams()
    ours = paperrank(g, ["A", "B", "C"], params)
    oracle = dense_paperrank_oracle(g, ["A", "B", "C"], params)
    assert np.abs(ours - oracle).max() < 1e-8
    # seed triangle holds most of the mass
    seed_mass = sum(ours[g.index_of(t)] for t in "ABC")
    assert seed_mass > 0.5


def test_paperrank_random_graphs_vs_oracle():
    rng = np.random.default_rng(9)
    for n in (10, 25, 50):
        pairs = {(int(u), int(w)) for u, w in rng.integers(0, n, size=(3 * n, 2))
                 if u != w}
        g = CitationGraph.from_edges(
            [(f"v{u}", f"v{w}") for u, w in pairs],
            years={f"v{i}": 2000 for i in range(n)})
        seeds = [f"v{int(i)}" for i in rng.choice(n, size=3, replace=False)]
        params = PageRankParams()
        assert np.abs(paperrank(g, seeds, params)
                      - dense_paperrank_oracle(g, seeds, params)).max() < 1e-8


def test_paperrank_independent_of_start():
    g = two_triangle_graph()
    params = PageRankParams()
    rng = np.random.default_rng(1)
    x0 = rng.random(g.n)
    x0 /= x0.sum()
    a = dense_paperrank_oracle(g, ["A"], params)
    b = dense_paperrank_oracle(g, ["A"], params, x0=x0)
    assert np.abs(a - b).max() < 1e-8
    assert np.abs(paperrank(g, ["A"], params) - a).max() < 1e-8


def index_graph(n, pairs):
    """Graph over ids v0..v{n-1} in index order, edges given by index."""
    u = [a for a, _ in pairs]
    w = [b for _, b in pairs]
    return CitationGraph([f"v{i}" for i in range(n)], [2000] * n, u, w)


def check_against_reference(g, seeds):
    params = PageRankParams()
    ours = paperrank(g, seeds, params)
    np.testing.assert_allclose(ours, reference_paperrank(g, seeds, params),
                               rtol=0, atol=1e-12)
    assert abs(ours.sum() - 1.0) < 1e-9
    assert np.abs(ours - dense_paperrank_oracle(g, seeds, params)).max() < 1e-8


@pytest.mark.parametrize("n,pairs,seeds", [
    (1, [], [0]),                             # edge-free single node
    (4, [], [1, 3]),                          # edge-free graph
    (4, [(1, 2), (2, 3), (3, 1)], [1]),       # isolated first node
    (4, [(0, 1), (1, 2), (0, 2)], [0, 3]),    # isolated last node, as a seed
    (5, [(0, 1), (3, 4), (1, 3)], [2]),       # isolated middle node as seed
    (6, [(1, 2), (4, 2)], [2, 5]),            # isolated at 0, 3 and 5
])
def test_paperrank_isolated_rows(n, pairs, seeds):
    g = index_graph(n, pairs)
    check_against_reference(g, [f"v{i}" for i in seeds])


@st.composite
def graphs_and_seeds(draw):
    n = draw(st.integers(1, 24))
    # Optionally keep the first, a middle and the last node isolated.
    isolated = {i for i, flag in zip((0, n // 2, n - 1),
                                     draw(st.lists(st.booleans(),
                                                   min_size=3, max_size=3)))
                if flag}
    linked = [i for i in range(n) if i not in isolated]
    pairs = []
    if len(linked) > 1:
        node = st.sampled_from(linked)
        pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                              max_size=3 * n))
    seeds = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4))
    return index_graph(n, pairs), [f"v{i}" for i in seeds]


@settings(max_examples=200, deadline=None)
@given(graphs_and_seeds())
def test_paperrank_matches_reference_property(case):
    check_against_reference(*case)


def test_paperrank_twin_leaves_tie_exactly():
    # Two papers citing only the same hub must score bit-equal and rank
    # by ascending index; a cumulative-sum difference splits them.
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(8, 40))
        a, b, hub = (int(i) for i in rng.choice(n, size=3, replace=False))
        others = [i for i in range(n) if i not in (a, b)]
        pairs = {(int(u), int(w)) for u, w in rng.choice(others, size=(2 * n, 2))
                 if u != w}
        g = index_graph(n, sorted(pairs) + [(a, hub), (b, hub)])
        seeds = [f"v{int(i)}" for i in rng.choice(others, size=3, replace=False)]
        scores = paperrank(g, seeds)
        assert scores[a] == scores[b]
        order = [t for t, _ in rank_scores(g.ids, scores, seeds)]
        lo, hi = sorted((a, b))
        assert order.index(f"v{lo}") < order.index(f"v{hi}")


def test_paperrank_warns_at_max_iter(caplog):
    g = two_triangle_graph()
    params = PageRankParams(max_iter=2)
    residual = np.abs(paperrank(g, ["A"], params)
                      - paperrank(g, ["A"], PageRankParams(max_iter=1))).sum()
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="citerec.baselines"):
        paperrank(g, ["A"], params)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and warnings[0].name == "citerec.baselines"
    assert warnings[0].getMessage() == (
        f"paperrank stopped at max_iter=2 with L1 residual {residual:.3g} "
        f"above tol=1e-10")
    debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert debug == [f"paperrank: 2 iterations, L1 residual {residual:.3g}"]


def test_paperrank_converged_logs_no_warning(caplog):
    with caplog.at_level(logging.DEBUG, logger="citerec.baselines"):
        paperrank(two_triangle_graph(), ["A", "E"])
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    (debug,) = [r.getMessage() for r in caplog.records]
    iters, residual = debug.removeprefix("paperrank: ").split(" iterations, L1 residual ")
    assert 0 < int(iters) < PageRankParams().max_iter
    assert float(residual) < PageRankParams().tol


def test_paperrank_empty_seeds_errors():
    g = two_triangle_graph()
    with pytest.raises(ValueError):
        paperrank(g, [])


def cf_bruteforce_oracle(g, seeds):
    """Materialize the full citing-by-cited incidence and use cosine."""
    n = g.n
    inc = np.zeros((n, n))
    for u in range(n):
        inc[u, g.refs(u)] = 1.0
    scores = np.zeros(n)
    for s in seeds:
        cs = inc[:, g.index_of(s)]
        for d in range(n):
            cd = inc[:, d]
            denom = np.linalg.norm(cs) * np.linalg.norm(cd)
            if denom > 0:
                scores[d] += (cs @ cd) / denom
    return scores


def reference_cf_scores(g, seeds):
    """The former per-seed, per-citer loop, which adds every cited item's
    term (0 for one sharing no citer) seed by seed."""
    seed_rows = sorted({g.index_of(s) for s in seeds})
    cit_counts = np.diff(g.cit_indptr).astype(np.float64)
    norms = np.sqrt(cit_counts)
    cited = cit_counts > 0
    scores = np.zeros(g.n)
    for s in seed_rows:
        citers = g.cits(s)
        if citers.size == 0:
            continue
        co = np.zeros(g.n)
        for u in citers:
            co[g.refs(int(u))] += 1.0
        scores[cited] += co[cited] / (norms[cited] * norms[s])
    return scores


@st.composite
def cf_graphs_and_seeds(draw):
    n = draw(st.integers(1, 30))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node), max_size=4 * n))
    # v{n} cites a few papers and nobody cites it
    pairs += [(n, w) for w in draw(st.lists(node, max_size=3))]
    seeds = draw(st.lists(st.integers(0, n), min_size=1, max_size=8))
    seeds += draw(st.lists(st.sampled_from(seeds), max_size=3))  # repeats
    return index_graph(n + 1, pairs), [f"v{i}" for i in seeds]


@settings(max_examples=300, deadline=None)
@given(cf_graphs_and_seeds())
def test_cf_matches_reference_loop_bit_for_bit(case):
    g, seeds = case
    ours = cf_scores(g, seeds)
    ref = reference_cf_scores(g, seeds)
    assert ours.dtype == np.float64
    assert np.array_equal(ours.view(np.int64), ref.view(np.int64))


def incidence_fixture():
    # 5 citers u0..u4, 4 items i0..i3 with overlapping reference lists
    edges = [("u0", "i0"), ("u0", "i1"),
             ("u1", "i0"), ("u1", "i1"), ("u1", "i2"),
             ("u2", "i1"), ("u2", "i2"),
             ("u3", "i2"), ("u3", "i3"),
             ("u4", "i0"), ("u4", "i3")]
    return CitationGraph.from_edges(edges)


def test_cf_identical_columns_score_one():
    edges = [(f"u{i}", "s") for i in range(5)] + [(f"u{i}", "d") for i in range(5)]
    g = CitationGraph.from_edges(edges)
    scores = cf_scores(g, ["s"])
    assert abs(scores[g.index_of("d")] - 1.0) < 1e-12


def test_cf_no_common_citer_scores_zero():
    g = CitationGraph.from_edges([("u0", "s"), ("u1", "d")])
    assert cf_scores(g, ["s"])[g.index_of("d")] == 0.0


def test_cf_matches_bruteforce_oracle_exactly():
    g = incidence_fixture()
    for seeds in (["i0"], ["i1", "i3"], ["i0", "i1", "i2"]):
        ours = cf_scores(g, seeds)
        oracle = cf_bruteforce_oracle(g, seeds)
        assert np.array_equal(ours, oracle)


def test_cf_kernel_symmetry():
    g = incidence_fixture()
    for a, b in (("i0", "i1"), ("i1", "i2"), ("i2", "i3")):
        sa = cf_scores(g, [a])[g.index_of(b)]
        sb = cf_scores(g, [b])[g.index_of(a)]
        assert abs(sa - sb) < 1e-12


def test_cf_uncited_items_score_zero():
    g = CitationGraph.from_edges([("u0", "s"), ("lonely", "other")],
                                 years={"x": 2000})
    scores = cf_scores(g, ["s"])
    assert scores[g.index_of("u0")] == 0.0
    assert scores[g.index_of("x")] == 0.0


def test_cf_empty_seeds_errors():
    with pytest.raises(ValueError):
        cf_scores(incidence_fixture(), [])


def test_pagerank_params_validation():
    with pytest.raises(ValueError):
        PageRankParams(damping=1.0)
    with pytest.raises(ValueError):
        PageRankParams(tol=0)
