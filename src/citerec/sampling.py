"""Neighborhood construction: uniform walks, second-order biased walks and
co-citation reference lists.  ``sample_corpus`` maps a name in
``STRATEGIES`` to its sampler.

The (p, q) step weight is defined once, in ``_step_weights``; the
rejection rounds of the walk sampler and ``transition_probs``, the
one-state law and the sampler's exact fallback, both call it.

Every corpus is a pure function of (graph, parameters, seed), and every
pass draws from one RNG stream derived from (seed, pass index).  A walk
pass steps all its walkers together, one array operation per step, so the
stream is consumed in a fixed order.  A co-citation pass draws one key per
reference and orders each reference list by its keys.  Each corpus logs its
strategy, passes, lines, tokens and seconds at INFO level.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field, asdict

import numpy as np

from .graph import CitationGraph, GraphError, csr_gather, is_token, text_lines

log = logging.getLogger(__name__)

STRATEGIES = ("uniform", "biased", "cocit")


@dataclass(frozen=True)
class SamplingParams:
    """Corpus parameters; a field with ``help`` metadata is also a flag of
    ``citerec sample`` and ``citerec evaluate``."""
    n: int = field(default=10, metadata={"help": "passes over the graph"})
    t: int = field(default=80, metadata={
        "help": "walk length in steps after the root"})
    p: float = field(default=1.0, metadata={"help": "return parameter"})
    q: float = field(default=1.0, metadata={"help": "in-out parameter"})
    seed: int = field(default=0, metadata={"help": "random seed"})

    def __post_init__(self):
        if self.n < 1 or self.t < 1:
            raise ValueError("n and t must be >= 1")
        # 1/p and 1/q must be finite too: they are the step weights
        if not all(0 < v < math.inf and 1 / v < math.inf
                   for v in (self.p, self.q)):
            raise ValueError("p and q must be > 0 and finite")


@dataclass
class WalkCorpus:
    """Node-index lines stored flat, as the graph's CSR rows are: line i is
    ``tokens[offsets[i]:offsets[i + 1]]``, both arrays int64.  Plus the
    provenance that produced it."""

    tokens: np.ndarray
    offsets: np.ndarray
    strategy: str = ""
    params: dict = field(default_factory=dict)

    def __len__(self):
        return self.offsets.size - 1

    @property
    def sequences(self):
        """Each line as a view into ``tokens``.  Nothing in the package reads
        it; the benchmark's replay and checks do."""
        bounds = self.offsets.tolist()
        return [self.tokens[a:b] for a, b in zip(bounds, bounds[1:])]

    def save(self, path, graph: CitationGraph):
        """Raises GraphError, before writing, for an id that would not read
        back: one holding whitespace, or one starting a line with '#'."""
        ids, tokens = graph.ids, self.tokens.tolist()
        bounds = self.offsets.tolist()
        spaced = {i for i, tok in enumerate(ids) if not is_token(tok)}
        hashed = {i for i, tok in enumerate(ids) if tok.startswith("#")}
        # only a graph with such ids needs the scan; the first bad line wins
        if spaced or hashed:
            for a, b in zip(bounds, bounds[1:]):
                if a < b and tokens[a] in hashed:
                    raise GraphError(f"paper id {ids[tokens[a]]!r} starts "
                                     "with '#' and cannot start a corpus line")
                bad = spaced.intersection(tokens[a:b])
                if bad:
                    raise GraphError(f"paper id {ids[min(bad)]!r} holds "
                                     "whitespace and cannot be written to a "
                                     "corpus file")
        names = [ids[i] for i in tokens]
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# strategy={self.strategy}")
            for k, v in self.params.items():
                f.write(f" {k}={v}")
            f.write("\n")
            f.writelines(" ".join(names[a:b]) + "\n"
                         for a, b in zip(bounds, bounds[1:]))

    @classmethod
    def load(cls, path, graph: CitationGraph):
        strategy, params, tokens, bounds = "", {}, [], [0]
        for lineno, line in text_lines(path):
            if line.startswith("#"):
                for tok in line[1:].split():
                    if "=" in tok:
                        k, v = tok.split("=", 1)
                        if k == "strategy":
                            strategy = v
                        else:
                            params[k] = v
                continue
            try:
                tokens.extend([graph.index_of(t) for t in line.split()])
            except GraphError as exc:
                raise GraphError(f"{path}:{lineno}: {exc}") from None
            bounds.append(len(tokens))
        return cls(np.array(tokens, dtype=np.int64),
                   np.array(bounds, dtype=np.int64), strategy, params)


def _logged(corpus, t0):
    log.info("%s corpus: %d passes, %d lines, %d tokens, %.3f s",
             corpus.strategy, corpus.params["n"], len(corpus),
             corpus.tokens.size, time.perf_counter() - t0)
    return corpus


def _step_weights(keys, n, prev, x, p, q):
    """Unnormalised (p, q) weight of stepping to x, arrived from prev: 1/p
    back to prev, 1 to a neighbour of prev, 1/q further out.  ``keys``
    holds u*n + w for edges (u, w), sorted, so adjacency is one
    searchsorted; it may be empty (an isolated prev)."""
    key = prev * n + x
    hit = (keys[np.minimum(keys.searchsorted(key), keys.size - 1)] == key
           if keys.size else False)
    return np.where(x == prev, 1 / p, np.where(hit, 1.0, 1 / q))


def transition_probs(g: CitationGraph, prev, cur, p, q):
    """Second-order next-step distribution over Adj(cur), arrived from prev.

    Returns (neighbor indices, probabilities).  This is the one-state law of
    a biased step; the walk sampler draws from it when rejection gives up.
    """
    indptr, indices = g.adj_indptr, g.adj_indices
    nbrs = indices[indptr[cur]:indptr[cur + 1]]
    if nbrs.size == 0:
        return nbrs, np.zeros(0)
    prev_keys = prev * g.n + indices[indptr[prev]:indptr[prev + 1]]
    w = _step_weights(prev_keys, g.n, prev, nbrs, p, q)
    return nbrs, w / w.sum()


# tags keep a pass's node-order stream apart from its step and key stream
_ORDER_TAG = 0x6F726465
_PASS_TAG = 0x77616C6B
# a biased step gives up rejection after this many rounds
_REJECTION_ROUNDS = 32


def _order_rng(seed, pass_idx):
    return np.random.default_rng([seed, _ORDER_TAG, pass_idx])


def _pass_rng(seed, pass_idx):
    return np.random.default_rng([seed, _PASS_TAG, pass_idx])


def _edge_keys(g: CitationGraph):
    """u*n + w for every w in Adj(u): sorted, as CSR rows are."""
    return np.repeat(np.arange(g.n, dtype=np.int64) * g.n,
                     g.degrees) + g.adj_indices


def _uniform_steps(g: CitationGraph, cur, rng):
    """One uniform step for each walker at cur (none isolated)."""
    start = g.adj_indptr[cur]
    return g.adj_indices[start + rng.integers(g.adj_indptr[cur + 1] - start)]


def _biased_steps(g: CitationGraph, keys, prev, cur, p, q, rng):
    """One (p, q)-biased step for each walker at (prev, cur), by rejection
    (KnightKing): propose x uniform over Adj(cur) and accept it with
    probability _step_weights / max(1/p, 1, 1/q); walkers that reject
    draw again.  A walker still rejecting after _REJECTION_ROUNDS rounds
    draws from :func:`transition_probs` itself, so an extreme p or q, whose
    acceptance rate at some states is tiny, costs a bounded number of
    rounds.  A draw accepted in any round already follows that law, so the
    mix stays exact.  ``keys`` is ``_edge_keys(g)``."""
    nxt = np.empty_like(cur)
    todo = np.arange(cur.size)
    bound = max(1 / p, 1.0, 1 / q)
    for _ in range(_REJECTION_ROUNDS):
        if not todo.size:
            return nxt
        x = _uniform_steps(g, cur[todo], rng)
        alpha = _step_weights(keys, g.n, prev[todo], x, p, q)
        ok = rng.random(todo.size) * bound < alpha
        nxt[todo[ok]] = x[ok]
        todo = todo[~ok]
    for i in todo.tolist():
        nbrs, probs = transition_probs(g, prev[i], cur[i], p, q)
        nxt[i] = nbrs[probs.cumsum().searchsorted(rng.random(), "right")]
    return nxt


def generate_walk_corpus(g: CitationGraph, params: SamplingParams,
                         strategy="uniform"):
    """n passes over the graph, one walk rooted at every node per pass.

    Node order is reshuffled each pass, and a pass's walks come out in that
    order; an isolated root gives a one-node walk.  ``strategy`` selects the
    uniform or the (p, q)-biased step law.  All walkers of a pass advance
    together; a biased step after the first is :func:`_biased_steps`.
    """
    if strategy not in ("uniform", "biased"):
        raise ValueError(f"unknown walk strategy: {strategy!r}")
    t0 = time.perf_counter()
    keys = _edge_keys(g) if strategy == "biased" else None
    orders = np.array([_order_rng(params.seed, it).permutation(g.n)
                       for it in range(params.n)])
    live = g.degrees[orders] > 0
    offsets = np.concatenate([[0], np.cumsum(np.where(live, params.t + 1, 1))])
    tokens = np.empty(offsets[-1], dtype=np.int64)
    starts = offsets[:-1].reshape(orders.shape)
    tokens[starts] = orders
    for it in range(params.n):
        rng = _pass_rng(params.seed, it)
        # the live walkers' current positions in tokens
        at = starts[it][live[it]]
        for step in range(1, params.t + 1):
            at += 1
            if strategy == "biased" and step >= 2:
                tokens[at] = _biased_steps(g, keys, tokens[at - 2],
                                           tokens[at - 1], params.p,
                                           params.q, rng)
            else:
                tokens[at] = _uniform_steps(g, tokens[at - 1], rng)
    return _logged(WalkCorpus(tokens, offsets, strategy, asdict(params)), t0)


def cocitation_corpus(g: CitationGraph, n, seed=0):
    """n passes over the graph; each pass emits every node's shuffled
    reference list as one corpus line.  Reference-free nodes emit nothing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    t0 = time.perf_counter()
    indptr, indices = g.ref_indptr, g.ref_indices
    counts = np.diff(indptr)
    row = np.repeat(np.arange(g.n), counts)
    tokens = np.empty((n, indices.size), dtype=np.int64)
    lines = []
    for it in range(n):
        order = _order_rng(seed, it).permutation(g.n)
        lines.append(order[counts[order] > 0])
        key = _pass_rng(seed, it).random(indices.size)
        shuffled = indices[np.lexsort((key, row))]
        tokens[it] = csr_gather(indptr, shuffled, lines[-1])[0]
    offsets = np.concatenate([[0], np.cumsum(counts[np.concatenate(lines)])])
    return _logged(WalkCorpus(tokens.ravel(), offsets, "cocit",
                              {"n": n, "seed": seed}), t0)


def sample_corpus(g: CitationGraph, strategy, n, seed, **walk):
    """The ``strategy`` corpus of ``g``, for a strategy in STRATEGIES;
    cocit ignores the walk parameters (t, p, q)."""
    if strategy == "cocit":
        return cocitation_corpus(g, n, seed=seed)
    return generate_walk_corpus(g, SamplingParams(n=n, seed=seed, **walk),
                                strategy)
