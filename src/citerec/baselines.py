"""Classic comparators: seed-personalized PageRank over the undirected
citation graph, and item-based collaborative filtering on the citing-paper
by cited-paper incidence.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .graph import CitationGraph, sorted_unique

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class PageRankParams:
    damping: float = 0.85
    tol: float = 1e-10        # L1 convergence threshold
    max_iter: int = 200

    def __post_init__(self):
        if not 0 < self.damping < 1:
            raise ValueError("damping must be in (0, 1)")
        if self.tol <= 0:
            raise ValueError("tolerance must be positive")


def paperrank(g: CitationGraph, seeds, params: PageRankParams = None):
    """Random walk with restart to the seed set, on the undirected view.

    Dangling (zero-degree) probability mass is redistributed to the restart
    vector; the result is a probability distribution over all nodes.  Each
    iteration sums x/deg over every node's neighbourhood directly.  Stopping
    at ``max_iter`` before the L1 change drops below ``tol`` logs a warning.
    """
    if params is None:
        params = PageRankParams()
    seed_rows = np.array(sorted({g.index_of(s) for s in seeds}), dtype=np.int64)
    if seed_rows.size == 0:
        raise ValueError("seed set must be non-empty")
    lam = params.damping
    restart = np.zeros(g.n)
    restart[seed_rows] = 1.0 / seed_rows.size
    deg = g.degrees.astype(np.float64)
    dangling = deg == 0
    safe_deg = np.where(dangling, 1.0, deg)
    # reduceat rejects a start equal to len(values) and gives an empty row
    # the next row's first value, so only non-isolated rows get a start.
    linked = ~dangling
    starts = g.adj_indptr[:-1][linked]
    spread = np.zeros(g.n)

    x = restart.copy()
    residual = np.inf
    iters = 0
    for iters in range(1, params.max_iter + 1):
        contrib = x / safe_deg
        spread[linked] = np.add.reduceat(contrib[g.adj_indices], starts)
        dangling_mass = x[dangling].sum()
        x_new = lam * (spread + dangling_mass * restart) + (1 - lam) * restart
        residual = np.abs(x_new - x).sum()
        x = x_new
        if residual < params.tol:
            break
    else:
        log.warning("paperrank stopped at max_iter=%d with L1 residual %.3g "
                    "above tol=%g", params.max_iter, residual, params.tol)
    log.debug("paperrank: %d iterations, L1 residual %.3g", iters, residual)
    return x


def cf_scores(g: CitationGraph, seeds):
    """Item-based CF: citing papers act as users, cited papers as items.

    score(d) = sum over seeds s of |Cit(s) ∩ Cit(d)| / (sqrt|Cit(s)| *
    sqrt|Cit(d)|); items nobody cites score 0.  One gather takes every
    (seed, paper a citer of that seed cites) pair, and each pair's count is
    added seed by seed in ascending index order, in memory proportional to
    the pairs, not to seeds x papers.
    """
    seed_rows = np.array(sorted({g.index_of(s) for s in seeds}), dtype=np.int64)
    if seed_rows.size == 0:
        raise ValueError("seed set must be non-empty")
    norms = np.sqrt(np.diff(g.cit_indptr).astype(np.float64))
    pos, citers = _gather(g.cit_indptr, g.cit_indices,
                          np.arange(seed_rows.size), seed_rows)
    pos, items = _gather(g.ref_indptr, g.ref_indices, pos, citers)
    keys, counts = sorted_unique(pos * np.int64(g.n) + items)
    pos, items = keys // g.n, keys % g.n
    scores = np.zeros(g.n)
    np.add.at(scores, items, counts / (norms[items] * norms[seed_rows[pos]]))
    return scores


def _gather(indptr, indices, tags, rows):
    """Every member of the CSR rows ``rows``, each with its row's tag:
    ``(tags repeated, indices)``, rows in the order given."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    starts = np.cumsum(counts) - counts
    flat = np.repeat(lo - starts, counts) + np.arange(counts.sum())
    return np.repeat(tags, counts), indices[flat]
