"""Score and rank candidate papers against a seed set.

Three embedding-based schemes (cosine against seeds, degree-weighted
cosine, cosine against the mean seed vector) and one model-based scheme
that runs the trained predictor with the seeds as context.  ``METHODS``
registers them with the baselines under the names every caller uses, with
the inputs each one reads: the cosine schemes read the input vectors alone,
CitMod the whole model.
``recommend`` turns the seed list into rows once, through ``seed_rows``, so
every method reads its seeds as a set: a repeated seed counts once.  The
scorers and ``rank_scores`` take those rows.

A model stores float32 matrices.  The cosine schemes read them as float64,
so a cosine is exact wherever its inputs' products are.  CitMod takes its
logits as one float32 product and its softmax in float64 (``forward``).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .baselines import cf_scores, paperrank
from .embedding import EmbeddingModel, PaperVectors, forward
from .graph import CitationGraph, GraphError


def _cosines(w, refs):
    """Cosine of every row of the float64 input matrix ``w`` against each
    row of ``refs``, as an N x k array; zero vectors score 0.  Built k x N
    and returned transposed, so that a sum over the columns adds them in
    ``refs`` order."""
    denom = np.outer(np.linalg.norm(refs, axis=1), np.linalg.norm(w, axis=1))
    out = np.zeros(denom.shape)
    np.divide(refs @ w.T, denom, out=out, where=denom > 0)
    return out.T


def sim_avg(m: PaperVectors, rows):
    """Mean cosine similarity to the vectors of the seed rows ``rows``, for
    every candidate."""
    w = m.w_in.astype(np.float64)
    return _cosines(w, w[rows]).mean(axis=1)


def sim_wgd(m: PaperVectors, g: CitationGraph, rows):
    """Like sim_avg but each seed weighted by 1/degree in the training
    graph; isolated seeds contribute nothing.  Dividing by the degree, not
    multiplying by its inverse, rounds as a per-seed sum of cos/degree."""
    delta = np.array([g.degree(g.index_of(m.ids[r])) for r in rows])
    live = delta > 0
    w = m.w_in.astype(np.float64)
    cos = _cosines(w, w[rows[live]])
    return (cos / delta[live]).sum(axis=1) / rows.size


def sim_ref(m: PaperVectors, rows):
    """Cosine similarity to the mean vector of the seed rows ``rows``."""
    w = m.w_in.astype(np.float64)
    return _cosines(w, w[rows].mean(axis=0, keepdims=True))[:, 0]


def rank_scores(ids, scores, exclude_rows, k):
    """The first k (k >= 1) ``(id, score)`` pairs in descending-score order,
    ties broken by ascending row, NaN scores last, the rows ``exclude_rows``
    removed.  Only the rows scoring at least the k-th best kept score are
    sorted: the first k lie among them, ties at the cut included."""
    scores = np.asarray(scores, dtype=np.float64)
    key = -scores  # partition and lexsort both put NaN last
    cand = np.delete(np.arange(key.size), exclude_rows)
    if k < cand.size:
        cut = np.partition(key[cand], k - 1)[k - 1]
        if not np.isnan(cut):
            cand = cand[key[cand] <= cut]
    order = cand[np.lexsort((cand, key[cand]))][:k]
    return list(zip([ids[i] for i in order.tolist()], scores[order].tolist()))


# "vectors" is a model's input vectors (``PaperVectors``), "model" the whole
# ``EmbeddingModel``, which holds them too; recommend() takes either as its
# ``model`` and names the first need it lacks
_INPUTS = {"vectors": "embedding vectors", "model": "an embedding model",
           "graph": "a graph", "rng": "an RNG"}


class Method(NamedTuple):
    needs: tuple       # the recommend() inputs it reads, keys of _INPUTS
    score: Callable    # score(model, graph, rows, pr_params, rng) -> scores


METHODS = {
    "simavg": Method(("vectors",), lambda m, g, r, pr, rng: sim_avg(m, r)),
    "simwgd": Method(("vectors", "graph"),
                     lambda m, g, r, pr, rng: sim_wgd(m, g, r)),
    "simref": Method(("vectors",), lambda m, g, r, pr, rng: sim_ref(m, r)),
    "citmod": Method(("model", "vectors"),
                     lambda m, g, r, pr, rng: forward(m, r)),
    "paperrank": Method(("graph",),
                        lambda m, g, r, pr, rng: paperrank(g, r, pr)),
    "cf": Method(("graph",), lambda m, g, r, pr, rng: cf_scores(g, r)),
    "random": Method(("graph", "rng"),
                     lambda m, g, r, pr, rng:
                     rng.permutation(g.n).astype(np.float64)),
}
EMBEDDING_METHODS = tuple(
    name for name, meth in METHODS.items() if "vectors" in meth.needs)
# the paper's six methods: all but the random control, the one RNG user
ALL_METHODS = tuple(
    name for name, meth in METHODS.items() if "rng" not in meth.needs)


def recommend(method, seeds, k, model: PaperVectors = None,
              graph: CitationGraph = None, pr_params=None, rng=None):
    """Ranked (paper_id, score) list for one method of ``METHODS``, over
    the model's papers if it is an embedding method, else the graph's.
    ``model`` is a ``PaperVectors`` or an ``EmbeddingModel``; a method that
    needs the whole model rejects bare vectors.  The index turns the seed
    list into rows once; the scorer and the ranking share them.  Seeds are
    always excluded from the output."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if method not in METHODS:
        raise ValueError(f"unknown ranking method: {method!r}")
    meth = METHODS[method]
    given = {"vectors": model, "graph": graph, "rng": rng,
             "model": model if isinstance(model, EmbeddingModel) else None}
    for need in meth.needs:
        if given[need] is None:
            raise ValueError(f"method {method!r} requires {_INPUTS[need]}")
    index = model if "vectors" in meth.needs else graph
    rows = index.seed_rows(seeds)
    scores = meth.score(model, graph, rows, pr_params, rng)
    return rank_scores(index.ids, scores, rows, k)


def write_ranked_csv(path, ranked):
    """CSV ``rank,paper_id,score`` with 6-decimal scores.  An id holding
    ',' or a line break, which would not read back as one field, raises
    GraphError before anything is written."""
    for tok, _ in ranked:
        for c in ",\n\r":
            if c in tok:
                raise GraphError(f"paper id {tok!r} holds {c!r} and cannot "
                                 "be written to a ranked CSV")
    with open(path, "w", encoding="utf-8") as f:
        f.write("rank,paper_id,score\n")
        for rank, (tok, score) in enumerate(ranked, 1):
            f.write(f"{rank},{tok},{score:.6f}\n")
