import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from citerec.graph import CitationGraph
from citerec.sampling import WalkCorpus

ROOT = Path(__file__).resolve().parent.parent


def corpus_of(lines, strategy="", params=None):
    """The flat ``WalkCorpus`` of a list of node-index lines."""
    lengths = [len(line) for line in lines]
    tokens = np.array([i for line in lines for i in line], dtype=np.int64)
    offsets = np.cumsum([0, *lengths], dtype=np.int64)
    return WalkCorpus(tokens, offsets, strategy, dict(params or {}))


def independent_pi(g, prev, cur, p, q):
    """Transition law computed from the bias-case definition directly."""
    nbrs = g.adj(cur)
    prev_adj = set(int(x) for x in g.adj(prev))
    weights = []
    for x in nbrs:
        x = int(x)
        if x == prev:
            weights.append(1.0 / p)
        elif x in prev_adj:
            weights.append(1.0)
        else:
            weights.append(1.0 / q)
    w = np.array(weights)
    return nbrs, w / w.sum()


@pytest.fixture
def toy_graph():
    # A cites B and C; B cites C
    return CitationGraph.from_edges([("A", "B"), ("A", "C"), ("B", "C")])


def make_planted_graph(n_clusters=4, targets=150, citers=100, refs=10, seed=7):
    """Citation graph with planted co-citation communities.

    Each cluster has `targets` cited papers and `citers` citing papers;
    every citer references `refs` random targets of its own cluster.
    """
    rng = np.random.default_rng(seed)
    edges = []
    years = {}
    target_names = {}
    for c in range(n_clusters):
        names = [f"t{c}_{i}" for i in range(targets)]
        target_names[c] = names
        for t in names:
            years[t] = 2000
        for j in range(citers):
            u = f"c{c}_{j}"
            years[u] = 2005
            for t in rng.choice(targets, size=refs, replace=False):
                edges.append((u, names[int(t)]))
    return CitationGraph.from_edges(edges, years), target_names


def make_synthetic_citation_corpus_graph(n_papers=2000, n_communities=4,
                                         year_lo=1995, year_hi=2010,
                                         refs_lo=5, refs_hi=25,
                                         mix=0.1, seed=11):
    """Growing citation graph: each paper cites earlier papers, mostly from
    its own community, with a `mix` fraction of cross-community citations."""
    rng = np.random.default_rng(seed)
    years_arr = np.sort(rng.integers(year_lo, year_hi + 1, size=n_papers))
    comm = rng.integers(n_communities, size=n_papers)
    by_comm = {c: [] for c in range(n_communities)}
    edges = []
    years = {}
    for i in range(n_papers):
        tok = f"p{i}"
        years[tok] = int(years_arr[i])
        pool_own = by_comm[comm[i]]
        pool_all = i
        if pool_all > 0:
            want = int(rng.integers(refs_lo, refs_hi + 1))
            chosen = set()
            for _ in range(want):
                if pool_own and rng.random() > mix:
                    j = pool_own[int(rng.integers(len(pool_own)))]
                else:
                    j = int(rng.integers(pool_all))
                chosen.add(j)
            for j in chosen:
                edges.append((tok, f"p{j}"))
        by_comm[comm[i]].append(i)
    return CitationGraph.from_edges(edges, years)


def run_under_blas_threads(script, tmp_path):
    """Run ``script`` under 1 and 2 OpenBLAS threads; returns the two
    output directories it was given."""
    dirs = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        subprocess.run([sys.executable, "-c", script, str(tmp_path / threads)],
                       cwd=ROOT, env=env, check=True, timeout=600)
        dirs.append(tmp_path / threads)
    return dirs
