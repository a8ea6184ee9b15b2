"""Score and rank candidate papers against a seed set.

Three embedding-based schemes (cosine against seeds, degree-weighted
cosine, cosine against the mean seed vector) and one model-based scheme
that runs the trained predictor with the seeds as context.  ``METHODS``
registers them with the baselines under the names every caller uses.
Every method reads its seeds as a set, through ``seed_rows``: a repeated
seed counts once.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .baselines import cf_scores, paperrank
from .embedding import EmbeddingModel, forward
from .graph import CitationGraph


def _cosines(m: EmbeddingModel, refs):
    """Cosine of every input-matrix row against each row of ``refs``, as an
    N x k array; zero vectors score 0.  Built k x N and returned transposed,
    so that a sum over the columns adds them in ``refs`` order."""
    denom = np.outer(np.linalg.norm(refs, axis=1),
                     np.linalg.norm(m.w_in, axis=1))
    out = np.zeros(denom.shape)
    np.divide(refs @ m.w_in.T, denom, out=out, where=denom > 0)
    return out.T


def sim_avg(m: EmbeddingModel, seeds):
    """Mean cosine similarity to the seed vectors, for every candidate."""
    return _cosines(m, m.w_in[m.seed_rows(seeds)]).mean(axis=1)


def sim_wgd(m: EmbeddingModel, g: CitationGraph, seeds):
    """Like sim_avg but each seed weighted by 1/degree in the training
    graph; isolated seeds contribute nothing.  Dividing by the degree, not
    multiplying by its inverse, rounds as a per-seed sum of cos/degree."""
    rows = m.seed_rows(seeds)
    delta = np.array([g.degree(g.index_of(m.ids[r])) for r in rows])
    live = delta > 0
    cos = _cosines(m, m.w_in[rows[live]])
    return (cos / delta[live]).sum(axis=1) / rows.size


def sim_ref(m: EmbeddingModel, seeds):
    """Cosine similarity to the mean of the seed vectors."""
    rows = m.seed_rows(seeds)
    return _cosines(m, m.w_in[rows].mean(axis=0, keepdims=True))[:, 0]


def cit_mod(m: EmbeddingModel, seeds):
    """Model prediction with the seeds as context: a probability
    distribution over every paper in the vocabulary."""
    return forward(m, m.seed_rows(seeds))


def rank_scores(ids, scores, exclude, k=None):
    """Descending-score order, ties broken by ascending internal index,
    NaN scores last, excluded ids removed, truncated to k.  ``ids`` are
    distinct.  With ``k`` set, only the ids scoring at least the
    ``(k + |exclude|)``-th best score are sorted: the first k kept ids lie
    among them, ties at the cut included."""
    scores = np.asarray(scores, dtype=np.float64)
    key = -scores  # partition and lexsort both put NaN last
    excluded = set(exclude)
    cand = np.arange(key.size)
    if k is not None and 0 < k < key.size - len(excluded):
        cut = np.partition(key, k + len(excluded) - 1)[k + len(excluded) - 1]
        if not np.isnan(cut):
            cand = np.flatnonzero(key <= cut)
    order = cand[np.lexsort((cand, key[cand]))]
    out = []
    for i, score in zip(order.tolist(), scores[order].tolist()):
        tok = ids[i]
        if tok in excluded:
            continue
        out.append((tok, score))
        if len(out) == k:
            break
    return out


_INPUTS = {"model": "an embedding model", "graph": "a graph", "rng": "an RNG"}


class Method(NamedTuple):
    needs: tuple       # the recommend() inputs it uses, keys of _INPUTS
    score: Callable    # score(model, graph, seeds, pr_params, rng) -> scores


METHODS = {
    "simavg": Method(("model",), lambda m, g, s, pr, rng: sim_avg(m, s)),
    "simwgd": Method(("model", "graph"),
                     lambda m, g, s, pr, rng: sim_wgd(m, g, s)),
    "simref": Method(("model",), lambda m, g, s, pr, rng: sim_ref(m, s)),
    "citmod": Method(("model",), lambda m, g, s, pr, rng: cit_mod(m, s)),
    "paperrank": Method(("graph",),
                        lambda m, g, s, pr, rng: paperrank(g, s, pr)),
    "cf": Method(("graph",), lambda m, g, s, pr, rng: cf_scores(g, s)),
    "random": Method(("graph", "rng"),
                     lambda m, g, s, pr, rng:
                     rng.permutation(g.n).astype(np.float64)),
}
EMBEDDING_METHODS = tuple(
    name for name, meth in METHODS.items() if "model" in meth.needs)
# the paper's six methods: all but the random control, the one RNG user
ALL_METHODS = tuple(
    name for name, meth in METHODS.items() if "rng" not in meth.needs)


def recommend(method, seeds, k, model: EmbeddingModel = None,
              graph: CitationGraph = None, pr_params=None, rng=None):
    """Ranked (paper_id, score) list for one method of ``METHODS``, over
    the model's papers if it needs a model, else the graph's.  Seeds are
    always excluded from the output."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if method not in METHODS:
        raise ValueError(f"unknown ranking method: {method!r}")
    meth = METHODS[method]
    given = {"model": model, "graph": graph, "rng": rng}
    for need in meth.needs:
        if given[need] is None:
            raise ValueError(f"method {method!r} requires {_INPUTS[need]}")
    scores = meth.score(model, graph, seeds, pr_params, rng)
    ids = model.ids if "model" in meth.needs else graph.ids
    return rank_scores(ids, scores, seeds, k)


def write_ranked_csv(path, ranked):
    """CSV ``rank,paper_id,score`` with 6-decimal scores."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("rank,paper_id,score\n")
        for rank, (tok, score) in enumerate(ranked, 1):
            f.write(f"{rank},{tok},{score:.6f}\n")
