"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criterion 6 is a directional diagnostic on a synthetic desk-scale graph; it
reports values without gating on the stochastic direction.
"""

import time
from dataclasses import replace

import numpy as np

from citerec.graph import CitationGraph
from citerec.sampling import (cocitation_corpus, transition_probs,
                              _biased_steps, _edge_keys, _uniform_steps)
from citerec.embedding import (EmbeddingModel, TrainParams, forward,
                               init_model, train)
from citerec.ranking import rank_scores, recommend, sim_avg, sim_ref
from citerec.baselines import PageRankParams, paperrank, cf_scores
from citerec.evaluation import (ExperimentConfig, build_queries,
                                check_no_time_leakage, evaluate, recall_at_k,
                                write_queries, write_report)
from .conftest import (independent_pi, make_planted_graph,
                       make_synthetic_citation_corpus_graph)

from .test_baselines import (cf_bruteforce_oracle, dense_paperrank_oracle,
                            incidence_fixture, two_triangle_graph)
from .test_embedding import (exact_step_errors, gradient_check_model,
                             neg_step_errors)


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name}: {detail}"


# -- criterion 1: gradient correctness ----------------------------------------

def test_criterion_1_gradient_correctness():
    """One training step of each objective against finite differences of
    its loss, on a window that repeats a context row; the ``neg`` negatives
    hold the target and one row drawn twice."""
    t0 = time.time()
    ctx = [2, 6, 6, 11]
    exact = max(exact_step_errors(gradient_check_model(), [(1, ctx)],
                                  lr=0.1))
    loss_err, neg_in, neg_out = neg_step_errors(
        gradient_check_model(), [1, 4, 1, 9, 9, 3], ctx, lr=0.1)
    neg = max(neg_in, neg_out)
    elapsed = time.time() - t0
    report("criterion 1 (training steps vs finite differences)",
           exact < 1e-4 and neg < 1e-4 and loss_err < 1e-9 and elapsed < 10,
           f"max rel err exact {exact:.2e}, neg {neg:.2e} "
           f"(loss {loss_err:.1e}), {elapsed:.1f}s")


# -- criterion 2: walk-law fidelity -------------------------------------------

def fixed_20_node_graph():
    rng = np.random.default_rng(20)
    pairs = set()
    while len(pairs) < 45:
        u, w = (int(x) for x in rng.integers(0, 20, size=2))
        if u != w and (w, u) not in pairs:
            pairs.add((u, w))
    return CitationGraph.from_edges([(f"v{u}", f"v{w}") for u, w in pairs])


def test_criterion_2_walk_law_fidelity():
    t0 = time.time()
    g = fixed_20_node_graph()
    draws = 100_000
    worst = 0.0

    # uniform step: empirical first-step law from the highest-degree node,
    # drawn by the sampler's step function for a vector of walkers there
    v = int(np.argmax(g.degrees))
    steps = _uniform_steps(g, np.full(draws, v), np.random.default_rng(1))
    counts = np.bincount(steps, minlength=g.n)
    uni_err = np.abs(counts[g.adj(v)] / draws - 1 / len(g.adj(v))).max()
    worst = max(worst, uni_err)

    # biased step over the (p, q) grid: exact law vs independent oracle at
    # every state, empirical draws through the sampler at one state
    keys = _edge_keys(g)
    cur = v
    prev = int(g.adj(cur)[0])
    for p in (0.25, 1.0, 4.0):
        for q in (0.25, 1.0, 4.0):
            for c2 in range(g.n):
                for pv in g.adj(c2):
                    nbrs, probs = transition_probs(g, int(pv), c2, p, q)
                    _, pi = independent_pi(g, int(pv), c2, p, q)
                    assert np.abs(probs - pi).max() < 1e-12
            rng = np.random.default_rng([2, int(p * 100), int(q * 100)])
            steps = _biased_steps(g, keys, np.full(draws, prev),
                                  np.full(draws, cur), p, q, rng)
            counts = np.bincount(steps, minlength=g.n)
            _, pi = independent_pi(g, prev, cur, p, q)
            err = np.abs(counts[g.adj(cur)] / draws - pi).max()
            worst = max(worst, err)
            if p == 1.0 and q == 1.0:
                uni = 1 / len(g.adj(cur))
                worst = max(worst, np.abs(counts[g.adj(cur)] / draws - uni).max())
    elapsed = time.time() - t0
    report("criterion 2 (walk-law fidelity, p,q grid)",
           worst < 0.01 and elapsed < 30,
           f"max |freq - pi| {worst:.4f}, {elapsed:.1f}s")


# -- criterion 3: oracle equivalence ------------------------------------------

def test_criterion_3_oracle_equivalence():
    t0 = time.time()
    params = PageRankParams()
    worst = 0.0
    graphs = [two_triangle_graph()]
    rng = np.random.default_rng(33)
    for n in (10, 20, 35, 50):
        pairs = {(int(u), int(w))
                 for u, w in rng.integers(0, n, size=(3 * n, 2)) if u != w}
        graphs.append(CitationGraph.from_edges(
            [(f"v{u}", f"v{w}") for u, w in pairs],
            years={f"v{i}": 2000 for i in range(n)}))
    for g in graphs:
        seeds = [g.ids[i] for i in
                 rng.choice(g.n, size=min(3, g.n), replace=False)]
        worst = max(worst, float(np.abs(
            paperrank(g, g.seed_rows(seeds), params)
            - dense_paperrank_oracle(g, seeds, params)).max()))

    g = incidence_fixture()
    cf_exact = all(
        np.array_equal(cf_scores(g, g.seed_rows(s)),
                       cf_bruteforce_oracle(g, s))
        for s in (["i0"], ["i1", "i3"], ["i0", "i1", "i2"]))
    elapsed = time.time() - t0
    report("criterion 3 (paperrank/cf vs oracles)",
           worst < 1e-8 and cf_exact and elapsed < 10,
           f"max paperrank err {worst:.2e}, cf exact={cf_exact}, {elapsed:.1f}s")


# -- criterion 4: ranker algebra ----------------------------------------------

def test_criterion_4_ranker_algebra():
    t0 = time.time()
    rng = np.random.default_rng(44)
    ok = True
    for trial in range(100):
        n, d = int(rng.integers(8, 40)), int(rng.integers(2, 16))
        vecs = rng.normal(size=(n, d))
        vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
        ids = [f"n{i}" for i in range(n)]
        m = EmbeddingModel(ids, vecs, rng.normal(size=(n, d)))
        n_seeds = int(rng.integers(1, 5))
        seeds = [ids[i] for i in rng.choice(n, size=n_seeds, replace=False)]
        rows = m.seed_rows(seeds)

        a = sim_avg(m, rows)
        r = sim_ref(m, rows)
        rank_a = [t for t, _ in rank_scores(ids, a, rows, n)]
        rank_r = [t for t, _ in rank_scores(ids, r, rows, n)]
        ok &= rank_a == rank_r
        probs = forward(m, rows)
        ok &= abs(probs.sum() - 1.0) < 1e-9

        # positive rescaling of one non-seed candidate leaves cosine scores
        # unchanged (rescaling a seed may rotate the sim_ref reference vector)
        candidates = [i for i in range(n) if ids[i] not in seeds]
        victim = int(rng.choice(candidates))
        m.w_in[victim] *= float(rng.uniform(0.1, 50))
        ok &= np.allclose(sim_avg(m, rows), a, atol=1e-12)
        ok &= np.allclose(sim_ref(m, rows), r, atol=1e-12)
        if not ok:
            break
    elapsed = time.time() - t0
    report("criterion 4 (ranker algebra, 100 random models)",
           ok and elapsed < 10, f"{elapsed:.1f}s")


# -- criterion 5: end-to-end planted structure --------------------------------

def test_criterion_5_planted_structure():
    t0 = time.time()
    g, target_names = make_planted_graph(
        n_clusters=4, targets=150, citers=100, refs=10, seed=7)
    assert g.n == 1000
    corpus = cocitation_corpus(g, 10, seed=1)
    params = TrainParams(dim=32, window=10, epochs=5, mode="exact", seed=2)
    m = train(init_model(g, params), corpus, params)

    rng = np.random.default_rng(3)
    k = 10
    recalls, rand_exps = [], []
    for c in range(4):
        for j in rng.choice(100, size=12, replace=False):
            refs = g.neighbors(f"c{c}_{int(j)}", "refs")
            half = len(refs) // 2
            seeds, hidden = refs[:half], refs[half:]
            ranked = recommend("citmod", seeds, k, model=m)
            recalls.append(recall_at_k(ranked, hidden, k))
            rand_exps.append(k / (g.n - len(seeds)))
    mean = float(np.mean(recalls))
    rand_exp = float(np.mean(rand_exps))
    elapsed = time.time() - t0
    report("criterion 5 (planted-community pipeline)",
           mean >= 5 * rand_exp and elapsed < 300,
           f"mean recall@10 {mean:.4f} vs 5x random {5 * rand_exp:.4f}, "
           f"{elapsed:.0f}s")


# -- criterion 6: directional diagnostic (non-gating) -------------------------

def test_criterion_6_directional_diagnostic():
    t0 = time.time()
    g = make_synthetic_citation_corpus_graph(
        n_papers=5000, n_communities=8, year_lo=1995, year_hi=2010,
        refs_lo=5, refs_hi=25, mix=0.15, seed=61)
    cfg = ExperimentConfig(
        hidden_ratios=(0.1, 0.9), n_queries=100, ref_range=(5, 25),
        year_range=(2005, 2010), k_values=(50,), seed=6)
    tparams = TrainParams(dim=32, window=10, epochs=2, mode="neg", seed=6)
    results = {}
    for strategy, methods, n, walk in (
            ("cocit", ("citmod", "paperrank"), 5, {}),
            ("uniform", ("citmod",), 3, {"t": 20})):
        _, _, aggregates = evaluate(g, replace(cfg, methods=methods),
                                    tparams, strategy, n, **walk)
        for row in aggregates:
            results[(strategy, row["method"], row["hidden_ratio"])] = \
                row["mean_recall"]

    ccs_low = results[("cocit", "citmod", 0.1)]
    ccs_high = results[("cocit", "citmod", 0.9)]
    rw_low = results[("uniform", "citmod", 0.1)]
    pr_low = results[("cocit", "paperrank", 0.1)]
    pr_high = results[("cocit", "paperrank", 0.9)]
    drop = lambda lo, hi: (lo - hi) / lo if lo > 0 else float("nan")
    elapsed = time.time() - t0
    print(f"[INFO] criterion 6 diagnostic (synthetic desk-scale graph, "
          f"{g.n} nodes, {elapsed:.0f}s):")
    print(f"[INFO]   recall@50 ratio=0.1: CCS+CitMod {ccs_low:.4f}  "
          f"RW+CitMod {rw_low:.4f}  PaperRank {pr_low:.4f}")
    print(f"[INFO]   recall@50 ratio=0.9: CCS+CitMod {ccs_high:.4f}  "
          f"PaperRank {pr_high:.4f}")
    print(f"[INFO]   degradation 0.1->0.9: CCS+CitMod "
          f"{drop(ccs_low, ccs_high):.2%}  PaperRank "
          f"{drop(pr_low, pr_high):.2%}")
    print(f"[INFO]   directional checks (non-gating): "
          f"CCS>=RW at k=50: {ccs_low >= rw_low}; "
          f"CCS degrades less than PaperRank: "
          f"{drop(ccs_low, ccs_high) <= drop(pr_low, pr_high)}")
    report("criterion 6 (directional diagnostic ran)",
           all(0.0 <= v <= 1.0 for v in results.values()),
           f"{len(results)} aggregate cells")


# -- criterion 7: harness integrity -------------------------------------------

def test_criterion_7_harness_integrity(tmp_path):
    g = make_synthetic_citation_corpus_graph(
        n_papers=800, year_lo=1998, year_hi=2010, refs_lo=4, refs_hi=20,
        seed=21)
    cfg = ExperimentConfig(
        hidden_ratios=(0.1,), n_queries=25, ref_range=(4, 20),
        year_range=(2005, 2010), k_values=(10, 50),
        methods=("simavg", "cf"), seed=5)

    # (a) no time leakage
    queries = build_queries(g, cfg, 0.1)
    years = {q.year - 1 for q in queries}
    graphs = {y: g.time_slice(y) for y in years}
    check_no_time_leakage(graphs, g, queries)

    # (b) recall@k monotone in k over 1,000 random ranked lists
    rng = np.random.default_rng(7)
    mono = True
    for _ in range(1000):
        ranked = [(f"p{int(i)}", 0.0) for i in rng.permutation(60)]
        hidden = {f"p{int(i)}" for i in rng.choice(60, size=6, replace=False)}
        rs = [recall_at_k(ranked, hidden, k) for k in (1, 3, 10, 30, 60)]
        mono &= all(a <= b for a, b in zip(rs, rs[1:]))

    # (c) full evaluate run bit-reproducible for a fixed seed, query
    # building, slicing and training included
    tparams = TrainParams(dim=8, epochs=1, mode="neg", seed=1)
    for run in ("r1", "r2"):
        qbr, _, aggregates = evaluate(g, cfg, tparams, "cocit", 2)
        write_report(tmp_path / f"{run}.csv", aggregates)
        write_queries(tmp_path / f"{run}.tsv", qbr[0.1])
    reproducible = all((tmp_path / f"r1.{ext}").read_bytes()
                       == (tmp_path / f"r2.{ext}").read_bytes()
                       for ext in ("csv", "tsv"))

    report("criterion 7 (harness integrity)",
           mono and reproducible,
           f"monotone={mono}, bit-reproducible={reproducible}, "
           f"no leakage over {len(queries)} queries")
