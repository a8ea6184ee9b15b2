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

A model stores float32 matrices.  The cosine schemes read them as the
float64 unit rows ``unit_rows`` returns, and each scores every candidate by
one product of those rows with a reference vector (word2vec's
``distance.c`` normalizes its vectors once and ranks by dot product the
same way).  A caller that ranks many seed sets on one model computes the
unit rows once and passes them to ``recommend``.  CitMod takes its logits
as one float32 product and its softmax in float64 (``forward``).
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .baselines import cf_scores, paperrank
from .embedding import EmbeddingModel, PaperVectors, forward
from .graph import CitationGraph, GraphError


def unit_rows(m: PaperVectors):
    """The float64 unit rows ``û = w / |w|`` of the input matrix; a zero row
    stays zero.  Every cosine scheme is one product over them."""
    u = m.w_in.astype(np.float64)
    norms = np.linalg.norm(u, axis=1)[:, None]
    return np.divide(u, norms, out=u, where=norms > 0)


def _cosine_to(u, ref):
    """``û · ref`` for every row of the unit rows ``u``.  einsum's sum does
    not depend on the BLAS thread count, as a float64 matrix-vector ``@``
    does at this size."""
    return np.einsum("ij,j->i", u, ref)


def sim_avg(m: PaperVectors, rows, unit=None):
    """Mean cosine similarity to the vectors of the seed rows ``rows``, for
    every candidate: ``û · mean_s û_s``.  ``unit`` is ``unit_rows(m)``,
    computed here when not given."""
    u = unit_rows(m) if unit is None else unit
    return _cosine_to(u, u[rows].mean(axis=0))


def sim_wgd(m: PaperVectors, g: CitationGraph, rows, unit=None):
    """Like sim_avg but each seed weighted by 1/degree in the training
    graph: ``û · Σ_s (û_s / δ_s) / |S|``; isolated seeds contribute nothing
    and still count in ``|S|``.  A seed of the model that the graph lacks
    raises GraphError naming it."""
    u = unit_rows(m) if unit is None else unit
    at = g.rows_of([m.ids[r] for r in rows.tolist()])
    if (at < 0).any():
        tok = m.ids[rows[np.argmax(at < 0)]]
        raise GraphError(f"paper id {tok!r} is in the model but not in the "
                         "graph")
    delta = g.adj_indptr[at + 1] - g.adj_indptr[at]
    live = delta > 0
    ref = (u[rows[live]] / delta[live][:, None]).sum(axis=0) / rows.size
    return _cosine_to(u, ref)


def sim_ref(m: PaperVectors, rows, unit=None):
    """Cosine similarity to the mean vector ``m`` of the seed rows
    ``rows``: ``û · m / |m|``, and 0 everywhere when ``m`` is zero."""
    u = unit_rows(m) if unit is None else unit
    mean = m.w_in[rows].astype(np.float64).mean(axis=0)
    norm = np.linalg.norm(mean)
    if norm == 0:
        return np.zeros(m.n)
    return _cosine_to(u, mean / norm)


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
# ``model`` and names the first need it lacks.  "unit" is the vectors'
# ``unit_rows``, which recommend() takes as ``unit`` or computes from them.
_INPUTS = {"vectors": "embedding vectors", "model": "an embedding model",
           "graph": "a graph", "rng": "an RNG", "unit": "embedding vectors"}


class Method(NamedTuple):
    needs: tuple       # the recommend() inputs it reads, keys of _INPUTS
    # score(model, graph, rows, pr_params, rng) -> scores; a method that
    # needs "unit" also takes unit=
    score: Callable


METHODS = {
    "simavg": Method(("vectors", "unit"),
                     lambda m, g, r, pr, rng, unit: sim_avg(m, r, unit)),
    "simwgd": Method(("vectors", "unit", "graph"),
                     lambda m, g, r, pr, rng, unit: sim_wgd(m, g, r, unit)),
    "simref": Method(("vectors", "unit"),
                     lambda m, g, r, pr, rng, unit: sim_ref(m, r, unit)),
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
              graph: CitationGraph = None, pr_params=None, rng=None,
              unit=None):
    """Ranked (paper_id, score) list for one method of ``METHODS``, over
    the model's papers if it is an embedding method, else the graph's.
    ``model`` is a ``PaperVectors`` or an ``EmbeddingModel``; a method that
    needs the whole model rejects bare vectors.  ``unit``, if given, is
    ``unit_rows(model)``; a cosine method computes it when it is not, with
    the same bits.  The index turns the seed list into rows once; the scorer
    and the ranking share them.  Seeds are always excluded from the
    output."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if method not in METHODS:
        raise ValueError(f"unknown ranking method: {method!r}")
    meth = METHODS[method]
    given = {"vectors": model, "unit": model, "graph": graph, "rng": rng,
             "model": model if isinstance(model, EmbeddingModel) else None}
    for need in meth.needs:
        if given[need] is None:
            raise ValueError(f"method {method!r} requires {_INPUTS[need]}")
    index = model if "vectors" in meth.needs else graph
    rows = index.seed_rows(seeds)
    if "unit" in meth.needs:
        scores = meth.score(model, graph, rows, pr_params, rng,
                            unit=unit_rows(model) if unit is None else unit)
    else:
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
