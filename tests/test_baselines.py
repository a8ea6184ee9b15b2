import logging

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citerec.graph import CitationGraph
from citerec.baselines import PageRankParams, cf_scores, paperrank
from citerec.ranking import rank_scores
from .conftest import run_under_blas_threads


def dense_transition(g, seeds):
    """The explicit column-stochastic transition matrix, an isolated node's
    column being the restart vector, and that restart vector."""
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
    return P, restart


def exact_paperrank(g, seeds, params):
    """The fixed point by a dense direct solve of (I - λP) x = (1 - λ) r."""
    P, restart = dense_transition(g, seeds)
    lam = params.damping
    return np.linalg.solve(np.eye(g.n) - lam * P, (1 - lam) * restart)


def dense_paperrank_oracle(g, seeds, params, x0=None):
    """Independent dense power iteration on the explicit transition matrix."""
    P, restart = dense_transition(g, seeds)
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
    scores = paperrank(g, g.seed_rows(["A"]))
    assert abs(scores[0] - 1.0) < 1e-12


def test_paperrank_is_stochastic():
    g = two_triangle_graph()
    assert abs(paperrank(g, g.seed_rows(["A", "E"])).sum() - 1.0) < 1e-9


def test_paperrank_matches_dense_oracle_on_bridged_triangles():
    g = two_triangle_graph()
    params = PageRankParams()
    ours = paperrank(g, g.seed_rows(["A", "B", "C"]), params)
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
        assert np.abs(paperrank(g, g.seed_rows(seeds), params)
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
    assert np.abs(paperrank(g, g.seed_rows(["A"]), params) - a).max() < 1e-8


def index_graph(n, pairs):
    """Graph over ids v0..v{n-1} in index order, edges given by index."""
    u = [a for a, _ in pairs]
    w = [b for _, b in pairs]
    return CitationGraph([f"v{i}" for i in range(n)], [2000] * n, u, w)


def check_against_exact(g, seeds):
    params = PageRankParams()
    ours = paperrank(g, g.seed_rows(seeds), params)
    np.testing.assert_allclose(ours, exact_paperrank(g, seeds, params),
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
    check_against_exact(g, [f"v{i}" for i in seeds])


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
    check_against_exact(*case)


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
        scores = paperrank(g, g.seed_rows(seeds))
        assert scores[a] == scores[b]
        rows = g.seed_rows(seeds)
        order = [t for t, _ in rank_scores(g.ids, scores, rows, g.n)]
        lo, hi = sorted((a, b))
        assert order.index(f"v{lo}") < order.index(f"v{hi}")


def debug_lines(caplog, g, seeds):
    """paperrank's scores and the DEBUG lines it logged."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="citerec.baselines"):
        scores = paperrank(g, g.seed_rows(seeds))
    return scores, [r.getMessage() for r in caplog.records]


@pytest.mark.parametrize("n,pairs", [
    (200, [(i, i + 1) for i in range(199)]),                   # path
    (201, [(i, 0) for i in range(1, 201)]),                    # 200-leaf star
    (40, [(i, j) for i in range(20) for j in range(20, 40)]),  # K20,20
])
def test_paperrank_iterations_bounded_on_bipartite_graphs(caplog, n, pairs):
    # A power iteration contracts by only λ per step on a bipartite graph
    # and needs 146 iterations on each of these.
    g = index_graph(n, pairs)
    for seeds in (["v0"], ["v1"], ["v5", "v7"]):
        scores, (debug,) = debug_lines(caplog, g, seeds)
        assert int(debug.removeprefix("paperrank: ").split()[0]) <= 60
        # tol bounds the last step, not the error: on the path the solve
        # stops about 2e-11 from the fixed point.
        exact = exact_paperrank(g, seeds, PageRankParams())
        assert np.abs(scores - exact).max() < 1e-9


def test_paperrank_all_seeds_isolated_returns_restart(caplog):
    # Ten shares of 1/10 do not sum to exactly 1, so only skipping the
    # solve returns the restart vector bit for bit.
    g = index_graph(14, [(0, 1), (1, 2), (2, 3)])
    scores, debug = debug_lines(caplog, g, [f"v{i}" for i in range(4, 14)])
    restart = np.zeros(14)
    restart[4:] = 1 / 10
    assert np.array_equal(scores, restart)
    assert debug == ["paperrank: 0 iterations, L1 residual 0"]


def test_paperrank_warns_at_max_iter(caplog):
    g = two_triangle_graph()
    params = PageRankParams(max_iter=2)
    rows = g.seed_rows(["A"])
    residual = np.abs(paperrank(g, rows, params)
                      - paperrank(g, rows, PageRankParams(max_iter=1))).sum()
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="citerec.baselines"):
        paperrank(g, g.seed_rows(["A"]), params)
    warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
    assert len(warnings) == 1 and warnings[0].name == "citerec.baselines"
    assert warnings[0].getMessage() == (
        f"paperrank stopped at max_iter=2 with L1 residual {residual:.3g} "
        f"above tol=1e-10")
    debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert debug == [f"paperrank: 2 iterations, L1 residual {residual:.3g}"]


def test_paperrank_converged_logs_no_warning(caplog):
    g = two_triangle_graph()
    with caplog.at_level(logging.DEBUG, logger="citerec.baselines"):
        paperrank(g, g.seed_rows(["A", "E"]))
    assert not [r for r in caplog.records if r.levelno >= logging.WARNING]
    (debug,) = [r.getMessage() for r in caplog.records]
    iters, residual = debug.removeprefix("paperrank: ").split(" iterations, L1 residual ")
    assert 0 < int(iters) < PageRankParams().max_iter
    assert float(residual) < PageRankParams().tol


def test_paperrank_empty_seeds_errors():
    g = two_triangle_graph()
    with pytest.raises(ValueError):
        paperrank(g, g.seed_rows([]))


class _Lines(logging.Handler):
    def __init__(self):
        super().__init__(logging.DEBUG)
        self.lines = []

    def emit(self, record):
        self.lines.append(record.getMessage())


def logged_run(g, rows, cuts=()):
    """paperrank's scores with ``cuts`` to certify, and its DEBUG lines;
    a handler of its own, so that hypothesis may call it."""
    logger, handler = logging.getLogger("citerec.baselines"), _Lines()
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.DEBUG)
    try:
        scores = paperrank(g, rows, PageRankParams(certify=cuts))
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)
    return scores, handler.lines


def top_set(g, scores, rows, k):
    return {tok for tok, _ in rank_scores(g.ids, scores, rows, k)}


@st.composite
def graphs_seeds_cuts(draw):
    """Sparse random graphs large enough that CG runs past the first
    certification check, with 1-4 seeds and 1-3 cuts."""
    n = draw(st.integers(20, 60))
    node = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(node, node).filter(lambda p: p[0] != p[1]),
                          min_size=n // 2, max_size=2 * n))
    seeds = draw(st.lists(node, min_size=1, max_size=4, unique=True))
    cuts = draw(st.lists(st.integers(1, n), min_size=1, max_size=3))
    return index_graph(n, pairs), [f"v{i}" for i in seeds], tuple(cuts)


@settings(max_examples=150, deadline=None)
@given(graphs_seeds_cuts())
def test_certified_cuts_match_the_dense_oracle(case):
    g, seeds, cuts = case
    rows = g.seed_rows(seeds)
    scores, lines = logged_run(g, rows, cuts)
    full = paperrank(g, rows)
    proofs = [line for line in lines if " proven at iteration " in line]
    if not proofs:
        # no proof, or no solve: the uncertified run, bit for bit
        assert np.array_equal(scores, full)
        return
    it = int(proofs[0].rsplit(" ", 1)[1])
    assert it >= 8 and it % 2 == 0
    exact = exact_paperrank(g, seeds, PageRankParams())
    for k in cuts:
        assert top_set(g, scores, rows, k) == top_set(g, exact, rows, k)


def test_certified_stop_comes_before_the_full_solve():
    rng = np.random.default_rng(4)
    n = 400
    pairs = {(int(u), int(w)) for u, w in rng.integers(0, n, size=(3 * n, 2))
             if u != w}
    g = index_graph(n, sorted(pairs))
    rows = g.seed_rows(["v3", "v50", "v77"])
    _, (full_line,) = logged_run(g, rows)
    scores, (line, cut_line) = logged_run(g, rows, (10, 50))
    full_iters = int(full_line.removeprefix("paperrank: ").split()[0])
    iters = int(line.removeprefix("paperrank: ").split()[0])
    assert cut_line == f"paperrank: cuts 10,50 proven at iteration {iters}"
    assert 8 <= iters < full_iters
    exact = exact_paperrank(g, [g.ids[r] for r in rows], PageRankParams())
    for k in (10, 50):
        assert top_set(g, scores, rows, k) == top_set(g, exact, rows, k)


def test_certified_tie_at_a_cut_runs_the_full_solve():
    # twin leaves a and b cite only the same hub, so every iterate scores
    # them alike; a cut between them can never be proven
    rng = np.random.default_rng(2)
    n = 60
    a, b, hub = 7, 31, 12
    others = [i for i in range(n) if i not in (a, b)]
    pairs = {(int(u), int(w)) for u, w in rng.choice(others, size=(2 * n, 2))
             if u != w}
    g = index_graph(n, sorted(pairs) + [(a, hub), (b, hub)])
    seeds = ["v3", "v40", "v55"]
    rows = g.seed_rows(seeds)
    full, full_lines = logged_run(g, rows)
    order = [t for t, _ in rank_scores(g.ids, full, rows, g.n)]
    k = order.index(f"v{a}") + 1      # a is in the top k, b just outside
    assert order[k] == f"v{b}"
    scores, lines = logged_run(g, rows, (k,))
    assert lines == full_lines + [f"paperrank: cuts {k} not proven"]
    assert np.array_equal(scores, full)
    assert (rank_scores(g.ids, scores, rows, g.n)
            == rank_scores(g.ids, full, rows, g.n))
    # the cuts just above and below the twins are proven early
    full_iters = int(full_lines[0].removeprefix("paperrank: ").split()[0])
    for other in (k - 1, k + 1):
        _, (line, cut_line) = logged_run(g, rows, (other,))
        iters = int(line.removeprefix("paperrank: ").split()[0])
        assert iters < full_iters
        assert cut_line == f"paperrank: cuts {other} proven at iteration {iters}"


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
    ours = cf_scores(g, g.seed_rows(seeds))
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
    scores = cf_scores(g, g.seed_rows(["s"]))
    assert abs(scores[g.index_of("d")] - 1.0) < 1e-12


def test_cf_no_common_citer_scores_zero():
    g = CitationGraph.from_edges([("u0", "s"), ("u1", "d")])
    assert cf_scores(g, g.seed_rows(["s"]))[g.index_of("d")] == 0.0


def test_cf_matches_bruteforce_oracle_exactly():
    g = incidence_fixture()
    for seeds in (["i0"], ["i1", "i3"], ["i0", "i1", "i2"]):
        ours = cf_scores(g, g.seed_rows(seeds))
        oracle = cf_bruteforce_oracle(g, seeds)
        assert np.array_equal(ours, oracle)


def test_cf_kernel_symmetry():
    g = incidence_fixture()
    for a, b in (("i0", "i1"), ("i1", "i2"), ("i2", "i3")):
        sa = cf_scores(g, g.seed_rows([a]))[g.index_of(b)]
        sb = cf_scores(g, g.seed_rows([b]))[g.index_of(a)]
        assert abs(sa - sb) < 1e-12


def test_cf_uncited_items_score_zero():
    g = CitationGraph.from_edges([("u0", "s"), ("lonely", "other")],
                                 years={"x": 2000})
    scores = cf_scores(g, g.seed_rows(["s"]))
    assert scores[g.index_of("u0")] == 0.0
    assert scores[g.index_of("x")] == 0.0


def test_cf_empty_seeds_errors():
    g = incidence_fixture()
    with pytest.raises(ValueError):
        cf_scores(g, g.seed_rows([]))


def test_pagerank_params_validation():
    with pytest.raises(ValueError):
        PageRankParams(damping=1.0)
    with pytest.raises(ValueError):
        PageRankParams(tol=0)
    with pytest.raises(ValueError):
        PageRankParams(tol=float("nan"))
    with pytest.raises(ValueError):
        PageRankParams(max_iter=0)
    for cuts in [(0,), (10, -1), (2.5,), ("10",), (True,), (None,)]:
        with pytest.raises(ValueError, match="certify cuts must be positive "
                                             "ints"):
            PageRankParams(certify=cuts)
    assert PageRankParams().certify == ()
    assert PageRankParams(certify=[10, np.int64(50)]).certify == (10, 50)


# Twelve PageRank solves, full and certified, on a 30,000-paper graph in
# which every paper is linked, so each of the solver's dot products runs
# over 30,000 elements: past the 18,714 from which OpenBLAS's ddot gives
# different bits under 1 and 2 threads.
PAPERRANK_30K = """
import sys
import numpy as np
from citerec.baselines import PageRankParams, paperrank
from citerec.graph import CitationGraph

n = 30_000
rng = np.random.default_rng(5)
# paper i cites five papers drawn from 0..i-1; repeats collapse
citing = np.repeat(np.arange(1, n), 5)
cited = (rng.random(citing.size) * citing).astype(np.int64)
g = CitationGraph([f"p{i}" for i in range(n)], np.full(n, 2000), citing,
                  cited)
scores = []
for params in (PageRankParams(), PageRankParams(certify=(10, 50))):
    for _ in range(6):
        rows = np.unique(rng.choice(n, size=20, replace=False))
        scores.append(paperrank(g, rows, params))
np.save(sys.argv[1] + "/scores.npy", np.stack(scores))
"""


def test_paperrank_bits_do_not_depend_on_blas_threads(tmp_path):
    one, two = (np.load(d / "scores.npy")
                for d in run_under_blas_threads(PAPERRANK_30K, tmp_path))
    assert one.shape == (12, 30_000) and (one > 0).all()
    assert np.array_equal(one.view(np.uint64), two.view(np.uint64))
