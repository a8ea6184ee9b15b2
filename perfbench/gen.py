"""Seeded synthetic inputs for the benchmark.

``growing_citation_graph`` is the same generator as the test suite's
``make_synthetic_citation_corpus_graph`` (perfbench/tests checks that the
two agree), kept here so the benchmark never imports the test suite.
"""

import numpy as np

from citerec.graph import CitationGraph


def growing_citation_graph(n_papers=2000, n_communities=4, year_lo=1995,
                           year_hi=2010, refs_lo=5, refs_hi=25, mix=0.1,
                           seed=11):
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
        if i > 0:
            want = int(rng.integers(refs_lo, refs_hi + 1))
            chosen = set()
            for _ in range(want):
                if pool_own and rng.random() > mix:
                    j = pool_own[int(rng.integers(len(pool_own)))]
                else:
                    j = int(rng.integers(i))
                chosen.add(j)
            for j in chosen:
                edges.append((tok, f"p{j}"))
        by_comm[comm[i]].append(i)
    return CitationGraph.from_edges(edges, years)
