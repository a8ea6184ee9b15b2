"""Neighborhood construction: uniform walks, second-order biased walks and
co-citation reference lists.

Every corpus is a pure function of (graph, parameters, seed).  The RNG for
each individual walk is derived from (seed, pass index, root index), so the
same corpus comes out regardless of how the work is scheduled.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict

import numpy as np

from .graph import CitationGraph, GraphError


@dataclass(frozen=True)
class SamplingParams:
    n: int = 10        # walks per node
    t: int = 80        # walk length (steps after the root)
    p: float = 1.0     # return parameter
    q: float = 1.0     # in-out parameter
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.t < 1:
            raise ValueError("n and t must be >= 1")
        if self.p <= 0 or self.q <= 0:
            raise ValueError("p and q must be > 0")


@dataclass
class WalkCorpus:
    """A list of node-index sequences plus the provenance that produced it."""

    sequences: list = field(default_factory=list)
    strategy: str = ""
    params: dict = field(default_factory=dict)

    def __len__(self):
        return len(self.sequences)

    def save(self, path, graph: CitationGraph):
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"# strategy={self.strategy}")
            for k, v in self.params.items():
                f.write(f" {k}={v}")
            f.write("\n")
            for seq in self.sequences:
                f.write(" ".join(graph.ids[i] for i in seq))
                f.write("\n")

    @classmethod
    def load(cls, path, graph: CitationGraph):
        corpus = cls()
        with open(path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, 1):
                line = line.rstrip("\n")
                if not line:
                    continue
                if line.startswith("#"):
                    for tok in line[1:].split():
                        if "=" in tok:
                            k, v = tok.split("=", 1)
                            if k == "strategy":
                                corpus.strategy = v
                            else:
                                corpus.params[k] = v
                    continue
                try:
                    seq = [graph.index_of(t) for t in line.split()]
                except GraphError as exc:
                    raise GraphError(f"{path}:{lineno}: {exc}") from None
                corpus.sequences.append(np.array(seq, dtype=np.int64))
        return corpus


def transition_probs(g: CitationGraph, prev, cur, p, q):
    """Second-order next-step distribution over Adj(cur), arrived from prev.

    Returns (neighbor indices, probabilities).  Distances from prev are
    resolved locally: 0 iff the candidate is prev itself, 1 iff it is
    adjacent to prev, else 2.
    """
    nbrs = g.adj(cur)
    if nbrs.size == 0:
        return nbrs, np.zeros(0)
    w = np.full(nbrs.size, 1.0 / q)
    prev_adj = g.adj(prev)
    pos = np.searchsorted(prev_adj, nbrs)
    pos[pos == prev_adj.size] = max(prev_adj.size - 1, 0)
    if prev_adj.size:
        w[prev_adj[pos] == nbrs] = 1.0
    w[nbrs == prev] = 1.0 / p
    return nbrs, w / w.sum()


def _draw(rng, probs):
    return int(np.searchsorted(np.cumsum(probs), rng.random(), side="right"))


def random_walk(g: CitationGraph, v, t, rng):
    """Uniform walk of up to t steps rooted at node index v.

    Stops early at a node with no neighbors.
    """
    walk = np.empty(t + 1, dtype=np.int64)
    walk[0] = v
    cur = v
    for step in range(1, t + 1):
        nbrs = g.adj(cur)
        if nbrs.size == 0:
            return walk[:step]
        cur = int(nbrs[rng.integers(nbrs.size)])
        walk[step] = cur
    return walk


def biased_walk(g: CitationGraph, v, params: SamplingParams, rng):
    """Second-order (p, q)-biased walk rooted at node index v.

    The first step is uniform over Adj(v); later steps follow the
    transition law of :func:`transition_probs`.
    """
    walk = np.empty(params.t + 1, dtype=np.int64)
    walk[0] = v
    nbrs = g.adj(v)
    if nbrs.size == 0:
        return walk[:1]
    walk[1] = nbrs[rng.integers(nbrs.size)]
    for step in range(2, params.t + 1):
        nbrs, probs = transition_probs(g, walk[step - 2], walk[step - 1],
                                       params.p, params.q)
        if nbrs.size == 0:
            return walk[:step]
        walk[step] = nbrs[_draw(rng, probs)]
    return walk


def _walk_rng(seed, pass_idx, root):
    return np.random.default_rng([seed, pass_idx, root])


_ORDER_TAG = 0x6F726465  # keeps the per-pass shuffle stream apart from walk streams


def _order_rng(seed, pass_idx):
    return np.random.default_rng([seed, _ORDER_TAG, pass_idx])


def generate_walk_corpus(g: CitationGraph, params: SamplingParams,
                         strategy="uniform"):
    """n passes over the graph, one walk rooted at every node per pass.

    Node order is reshuffled each pass.  ``strategy`` selects the uniform or
    the (p, q)-biased step law.
    """
    if strategy not in ("uniform", "biased"):
        raise ValueError(f"unknown walk strategy: {strategy!r}")
    corpus = WalkCorpus(strategy=strategy, params=asdict(params))
    for it in range(params.n):
        order = _order_rng(params.seed, it).permutation(g.n)
        for root in order:
            rng = _walk_rng(params.seed, it, int(root))
            if strategy == "uniform":
                walk = random_walk(g, int(root), params.t, rng)
            else:
                walk = biased_walk(g, int(root), params, rng)
            corpus.sequences.append(walk)
    return corpus


def cocitation_corpus(g: CitationGraph, n, seed=0):
    """n passes over the graph; each pass emits every node's shuffled
    reference list as one corpus line.  Reference-free nodes emit nothing.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    corpus = WalkCorpus(strategy="cocit", params={"n": n, "seed": seed})
    for it in range(n):
        order = _order_rng(seed, it).permutation(g.n)
        for v in order:
            refs = g.refs(int(v))
            if refs.size == 0:
                continue
            rng = _walk_rng(seed, it, int(v))
            corpus.sequences.append(rng.permutation(refs))
    return corpus
