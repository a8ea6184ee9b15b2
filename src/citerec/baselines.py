"""Classic comparators: seed-personalized PageRank over the undirected
citation graph, and item-based collaborative filtering on the citing-paper
by cited-paper incidence.

PageRank is the solution of a linear system: isolated nodes in closed form,
the rest by conjugate gradients on the diagonally scaled, symmetric positive
definite form of that system (Gleich, SIAM Review 2015; Hestenes & Stiefel,
1952).  Its parameters, stopping rule and log lines are those of a power
iteration.  A caller that reads only which candidates make each top-k may
name those cuts, and the solve stops once a bound on its error proves them
(Fujiwara et al., PVLDB 2012, prune top-k random walk with restart by score
bounds the same way).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .graph import CitationGraph, csr_gather

log = logging.getLogger(__name__)

# A certified solve checks its cuts from this iteration on, every second one.
CERTIFY_FROM = 8
# Added to every residual norm a proof reads, times |b|: the rounding of the
# residual and of the scores, which the bound does not see.
CERTIFY_MARGIN = 1e-13


@dataclass(frozen=True)
class PageRankParams:
    """PageRank parameters; a field with ``help`` metadata is also a flag of
    ``citerec recommend``."""
    damping: float = field(default=0.85, metadata={
        "help": "probability of following a link rather than restarting"})
    tol: float = 1e-10        # L1 convergence threshold
    max_iter: int = 200
    # top-k cuts to prove; the solve may stop once every one is proven
    certify: tuple = ()

    def __post_init__(self):
        if not 0 < self.damping < 1:
            raise ValueError("damping must be in (0, 1)")
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        cuts = tuple(self.certify)
        if not all(isinstance(k, Integral) and not isinstance(k, bool)
                   and k >= 1 for k in cuts):
            raise ValueError("certify cuts must be positive ints")
        object.__setattr__(self, "certify", cuts)


def paperrank(g: CitationGraph, rows, params: PageRankParams = None):
    """Random walk with restart to the seed rows ``rows`` (ascending, unique),
    on the undirected view.

    The scores are the fixed point of ``x = λ(A D⁻¹ x + dm·r) + (1−λ) r``:
    adjacency ``A``, degrees ``D``, restart ``r`` uniform on the seeds, and
    ``dm`` the mass on isolated (dangling) nodes, which is redistributed to
    the restart vector; the result is a probability distribution over all
    nodes.

    Isolated nodes are solved in closed form.  With ``ρ`` the restart mass
    on them, ``dm = (1−λ)ρ / (1−λρ)``, each scores ``c·r_i`` with
    ``c = λ·dm + 1 − λ``, and the linked nodes solve ``(I − λ A D⁻¹) x =
    c·r``.  With ``x = D^½ y`` that system is ``(I − λS) y = c·D^-½ r`` for
    the symmetric ``S = D^-½ A D^-½``, whose eigenvalues lie in [−1, 1], so
    it is positive definite with condition number at most (1+λ)/(1−λ), and
    conjugate gradients solve it from ``y = 0``.  Each iteration is one sum
    over every node's neighbourhood.  When every seed is isolated the
    result is ``r`` and no iteration runs.

    The L1 residual is the L1 change of ``x`` over the last iteration, and
    the run stops when it drops below ``tol``.  The iteration count and the
    residual are logged at DEBUG; stopping at ``max_iter`` first logs a
    warning.

    With cuts in ``params.certify`` the run may stop sooner, once every cut
    k is proven: the top k of the non-seed rows under the returned scores
    are the top k of the exact solution.  The eigenvalues of ``I − λS`` are
    at least ``1 − λ``, so with residual ``r = b − (I − λS) y`` each score
    is within ``√δ_i·|r|₂ / (1 − λ)`` of the exact one (0 on isolated
    nodes).  A cut holds when the lowest lower bound inside the top k lies
    above the highest upper bound outside it (:func:`_proves`).  From
    iteration ``CERTIFY_FROM`` on, every second iteration screens the cuts
    on CG's recursive residual and confirms a pass on the true one.  The
    order inside a cut is the iterate's, so only a caller that reads which
    candidates make each cut may pass one.  If no iteration proves every
    cut, the run is the uncertified one, bit for bit.  The proven cuts, or
    their absence, are logged at DEBUG.
    """
    if params is None:
        params = PageRankParams()
    lam = params.damping
    restart = np.zeros(g.n)
    restart[rows] = 1.0 / rows.size
    deg = g.degrees.astype(np.float64)
    linked = deg > 0
    residual, iters = 0.0, 0
    if not linked[rows].any():
        log.debug("paperrank: %d iterations, L1 residual %.3g", iters, residual)
        return restart
    rho = restart[~linked].sum()
    dangling_mass = (1 - lam) * rho / (1 - lam * rho)
    c = lam * dangling_mass + 1 - lam
    sqrt_deg = np.sqrt(deg)
    # 1/sqrt(deg), and 0 on isolated nodes, so they stay out of the solve
    inv_sqrt = np.divide(1.0, sqrt_deg, out=np.zeros(g.n), where=linked)
    # reduceat rejects a start equal to len(values) and gives an empty row
    # the next row's first value, so only non-isolated rows get a start.
    starts = g.adj_indptr[:-1][linked]
    spread = np.zeros(g.n)

    def system(p):
        """``(I − λS) p``."""
        spread[linked] = np.add.reduceat((p * inv_sqrt)[g.adj_indices], starts)
        return p - lam * (spread * inv_sqrt)

    y = np.zeros(g.n)
    x = np.zeros(g.n)
    b = c * restart * inv_sqrt
    r = b.copy()
    p = r.copy()
    rr = _dot(r, r)
    if params.certify:
        cand = np.delete(np.arange(g.n), rows)
        # a cut past the last candidate holds whatever the scores
        kth = np.array(sorted({k - 1 for k in params.certify
                               if k < cand.size}), np.int64)
        # the error bound per unit of residual, on each candidate
        per_r = sqrt_deg[cand] / (1 - lam)
        margin = CERTIFY_MARGIN * np.sqrt(_dot(b, b))
    proven = False
    for iters in range(1, params.max_iter + 1):
        if rr == 0.0:              # solved exactly: this step moves nothing
            residual = 0.0
            break
        q = system(p)
        alpha = rr / _dot(p, q)
        y += alpha * p
        x_new = sqrt_deg * y
        residual = np.abs(x_new - x).sum()
        x = x_new
        if residual < params.tol:
            break
        r -= alpha * q
        rr_new = _dot(r, r)
        if (params.certify and iters >= CERTIFY_FROM and iters % 2 == 0
                and _proves(x[cand], per_r * (np.sqrt(rr_new) + margin),
                            kth)):
            # the recursive residual drifts from b − (I − λS) y in floating
            # point, so a pass is confirmed on the true one
            true_r = np.sqrt(((b - system(y)) ** 2).sum())
            if _proves(x[cand], per_r * (true_r + margin), kth):
                proven = True
                break
        p = r + (rr_new / rr) * p
        rr = rr_new
    else:
        log.warning("paperrank stopped at max_iter=%d with L1 residual %.3g "
                    "above tol=%g", params.max_iter, residual, params.tol)
    log.debug("paperrank: %d iterations, L1 residual %.3g", iters, residual)
    if params.certify:
        cuts = ",".join(map(str, params.certify))
        if proven:
            log.debug("paperrank: cuts %s proven at iteration %d", cuts, iters)
        else:
            log.debug("paperrank: cuts %s not proven", cuts)
    x[~linked] = c * restart[~linked]
    return x


def _dot(a, b):
    """``a · b``.  einsum's sum does not depend on the BLAS thread count, as
    ``ddot`` (``a @ b``) does from about 18,714 elements on."""
    return np.einsum("i,i->", a, b)


def _proves(x, err, kth):
    """Whether each cut ``k = kth + 1`` splits the scores ``x``, each
    within ``err`` of its exact value, between the same top k and the same
    rest as the exact values.  One partition places every cut; the cut
    holds when the lowest lower bound before it lies strictly above the
    highest upper bound after it."""
    if not kth.size:
        return True
    order = np.argpartition(-x, kth)
    low = np.minimum.accumulate((x - err)[order])
    high = np.maximum.accumulate((x + err)[order][::-1])[::-1]
    return bool((low[kth] > high[kth + 1]).all())


def cf_scores(g: CitationGraph, rows):
    """Item-based CF for the seed rows ``rows`` (ascending, unique): citing
    papers act as users, cited papers as items.

    score(d) = sum over seeds s of |Cit(s) ∩ Cit(d)| / (sqrt|Cit(s)| *
    sqrt|Cit(d)|); items nobody cites score 0.  One gather takes every
    (seed, paper a citer of that seed cites) pair, and each pair's count is
    added seed by seed in ascending index order, in memory proportional to
    the pairs, not to seeds x papers.
    """
    norms = np.sqrt(np.diff(g.cit_indptr).astype(np.float64))
    citers, counts = csr_gather(g.cit_indptr, g.cit_indices, rows)
    pos = np.repeat(np.arange(rows.size), counts)
    items, counts = csr_gather(g.ref_indptr, g.ref_indices, citers)
    pos = np.repeat(pos, counts)
    keys, counts = np.unique(pos * np.int64(g.n) + items, return_counts=True)
    pos, items = keys // g.n, keys % g.n
    scores = np.zeros(g.n)
    np.add.at(scores, items, counts / (norms[items] * norms[rows[pos]]))
    return scores
