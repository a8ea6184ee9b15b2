"""CBOW-style embedding trainer: predict a target paper from the mean of
its context papers' vectors.

Two objectives are supported.  Exact softmax optimizes -log Pr(target |
context) with a full softmax over the vocabulary; it is the reference mode
and is gradient-checked in the test suite.  Negative sampling optimizes the
usual sampled surrogate (k negatives drawn from a unigram^0.75 noise
distribution over corpus frequencies) and scales to large graphs.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass

import numpy as np

from .graph import CitationGraph, GraphError, is_token, text_lines
from .sampling import WalkCorpus


log = logging.getLogger(__name__)

# Steps whose negatives, learning rates and losses are handled together.
TRAIN_BLOCK_STEPS = 1024
# Context tokens gathered at a time when building the flat windows.
WINDOW_CHUNK_TOKENS = 1 << 16


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainParams:
    dim: int = 128
    window: int = 10
    epochs: int = 5
    lr: float = 0.025
    lr_min: float = 0.0001
    mode: str = "exact"      # "exact" | "neg"
    negatives: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.dim < 1 or self.window < 1 or self.epochs < 0:
            raise ValueError("dim, window must be >= 1 and epochs >= 0")
        if not self.lr > self.lr_min >= 0:
            raise ValueError("need lr > lr_min >= 0")
        if self.mode not in ("exact", "neg"):
            raise ValueError(f"unknown objective mode: {self.mode!r}")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")


class EmbeddingModel:
    """Input matrix (row v = embedding of paper v), output matrix (row i
    produces the logit of paper i) and the paper-id vocabulary."""

    def __init__(self, ids, w_in, w_out):
        self.ids = list(ids)
        self.w_in = np.asarray(w_in, dtype=np.float64)
        self.w_out = np.asarray(w_out, dtype=np.float64)
        if self.w_in.shape != self.w_out.shape or self.w_in.shape[0] != len(self.ids):
            raise ValueError("matrix shapes disagree with vocabulary size")
        self._index = {tok: i for i, tok in enumerate(self.ids)}

    @property
    def n(self):
        return self.w_in.shape[0]

    @property
    def dim(self):
        return self.w_in.shape[1]

    def __contains__(self, token):
        return token in self._index

    def index_of(self, token):
        try:
            return self._index[token]
        except KeyError:
            raise KeyError(f"paper id not in vocabulary: {token!r}") from None

    def vector(self, token):
        return self.w_in[self.index_of(token)]


def init_model(g: CitationGraph, params: TrainParams):
    """W_in ~ U(-0.5/d, 0.5/d) from the seeded RNG, W_out all zeros."""
    if g.n == 0:
        raise ValueError("cannot initialize a model on an empty graph")
    rng = np.random.default_rng(params.seed)
    scale = 0.5 / params.dim
    w_in = rng.uniform(-scale, scale, size=(g.n, params.dim))
    w_out = np.zeros((g.n, params.dim))
    return EmbeddingModel(g.ids, w_in, w_out)


def extract_windows(sequences, w):
    """Yield (target, context array) for every position of every sequence.

    Context is the symmetric window of half-width w around the target,
    target excluded, duplicates kept.  Positions with an empty context are
    skipped.  This is the reference for ``context_windows``, which returns
    the same windows as flat arrays and is what ``train`` uses.
    """
    if w < 1:
        raise ValueError("window must be >= 1")
    for seq in sequences:
        seq = np.asarray(seq)
        ln = len(seq)
        if ln < 2:
            continue
        for i in range(ln):
            lo = max(0, i - w)
            ctx = np.concatenate([seq[lo:i], seq[i + 1:i + w + 1]])
            if ctx.size:
                yield int(seq[i]), ctx


def context_windows(sequences, w):
    """The windows of ``extract_windows(sequences, w)``, in the same order,
    as flat arrays ``(targets, context, offsets)``.

    Window i predicts ``targets[i]`` from ``context[offsets[i]:offsets[i + 1]]``.
    ``targets`` and ``context`` are int32, ``offsets`` int64.  The context is
    gathered ``WINDOW_CHUNK_TOKENS`` tokens at a time, which bounds the
    temporaries.
    """
    if w < 1:
        raise ValueError("window must be >= 1")
    seqs = [s for s in map(np.asarray, sequences) if len(s) >= 2]
    if not seqs:
        return (np.zeros(0, np.int32), np.zeros(0, np.int32),
                np.zeros(1, np.int64))
    # every position of a sequence of length >= 2 has a non-empty context
    targets = np.concatenate(seqs).astype(np.int32)
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    pos = np.arange(targets.size) - np.repeat(np.cumsum(lengths) - lengths,
                                              lengths)
    left = np.minimum(pos, w)
    counts = left + np.minimum(np.repeat(lengths, lengths) - 1 - pos, w)
    offsets = np.zeros(targets.size + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    context = np.empty(offsets[-1], dtype=np.int32)
    per_chunk = max(1, WINDOW_CHUNK_TOKENS // (2 * w))
    for a in range(0, targets.size, per_chunk):
        b = min(a + per_chunk, targets.size)
        c = counts[a:b]
        centre = np.repeat(np.arange(a, b), c)
        # the k-th context token of window i is token i - left[i] + k,
        # moved one place on once it reaches the target itself
        k = (np.arange(offsets[b] - offsets[a])
             - np.repeat(offsets[a:b] - offsets[a], c))
        src = centre - np.repeat(left[a:b], c) + k
        src += src >= centre
        context[offsets[a]:offsets[b]] = targets[src]
    return targets, context, offsets


def softmax(logits):
    z = logits - logits.max()
    e = np.exp(z)
    return e / e.sum()


def forward(m: EmbeddingModel, context):
    """Probability of every paper given a context (indices or tokens)."""
    rows = np.array([m.index_of(c) if isinstance(c, str) else int(c)
                     for c in np.atleast_1d(np.asarray(context, dtype=object))])
    if rows.size == 0:
        raise ValueError("context must be non-empty")
    if rows.min() < 0 or rows.max() >= m.n:
        raise KeyError("context index out of vocabulary range")
    h = m.w_in[rows].mean(axis=0)
    return softmax(m.w_out @ h)


def exact_loss(m: EmbeddingModel, target, ctx):
    return -float(np.log(forward(m, ctx)[target]))


def exact_gradients(m: EmbeddingModel, target, ctx):
    """Analytic gradients of -log Pr(target | ctx), exact-softmax mode.

    Returns (loss, dW_in, dW_out) as dense matrices; the test suite checks
    them against central finite differences.
    """
    rows = np.asarray(ctx, dtype=np.int64)
    h = m.w_in[rows].mean(axis=0)
    probs = softmax(m.w_out @ h)
    loss = -float(np.log(probs[target]))
    dlogits = probs.copy()
    dlogits[target] -= 1.0
    d_w_out = np.outer(dlogits, h)
    dh = m.w_out.T @ dlogits
    d_w_in = np.zeros_like(m.w_in)
    np.add.at(d_w_in, rows, dh / rows.size)
    return loss, d_w_in, d_w_out


def _noise_distribution(sequences, n):
    freq = np.zeros(n)
    for seq in sequences:
        np.add.at(freq, np.asarray(seq, dtype=np.int64), 1.0)
    noise = freq ** 0.75
    total = noise.sum()
    if total == 0:
        raise TrainingError("empty corpus: no noise distribution")
    return noise / total


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def train(m: EmbeddingModel, corpus: WalkCorpus, params: TrainParams):
    """SGD over shuffled context windows; returns the updated model.

    Learning rate decays linearly from lr to lr_min over all steps.
    Deterministic for a fixed seed: one RNG stream draws each epoch's window
    order and then, in ``neg`` mode, that epoch's negatives, a block of
    ``TRAIN_BLOCK_STEPS`` steps at a time.  A block draw takes the same
    numbers from the stream as one draw per step, and every update is
    applied in step order with unchanged arithmetic, so models are
    byte-identical to those of the one-draw-per-step trainer.  Each epoch's
    mean loss, window count and windows/s are logged at INFO level.
    """
    targets, context, offsets = context_windows(corpus.sequences, params.window)
    n_windows = targets.size
    if n_windows == 0 and params.epochs > 0:
        raise TrainingError("corpus produced no context windows")
    rng = np.random.default_rng([params.seed, 0x7472])
    w_in, w_out = m.w_in, m.w_out
    neg = params.mode == "neg"
    if neg:
        noise = _noise_distribution(corpus.sequences, m.n)
        noise_cdf = np.cumsum(noise)
        labels = np.zeros(params.negatives + 1)
        labels[0] = 1.0

    total = max(params.epochs * n_windows, 1)
    step = 0
    for epoch in range(params.epochs):
        t0 = time.perf_counter()
        loss_sum = 0.0
        order = rng.permutation(n_windows)
        for b0 in range(0, n_windows, TRAIN_BLOCK_STEPS):
            block = order[b0:b0 + TRAIN_BLOCK_STEPS]
            nb = block.size
            lrs = params.lr - (params.lr - params.lr_min) * (
                np.arange(step, step + nb) / total)
            tgts = targets[block]
            if neg:
                negs = np.searchsorted(noise_cdf,
                                       rng.random((nb, params.negatives)))
                out_rows = np.column_stack((tgts, negs))
                scores = np.empty(out_rows.shape)
            else:
                losses = np.empty(nb)
            steps = zip(lrs.tolist(), tgts.tolist(), offsets[block].tolist(),
                        offsets[block + 1].tolist())
            for j, (lr, target, lo, hi) in enumerate(steps):
                rows = context[lo:hi]
                # the sum divided by the count is bit for bit what mean() returns
                h = w_in.take(rows, axis=0).sum(axis=0) / (hi - lo)
                if neg:
                    o = out_rows[j]
                    wo = w_out.take(o, axis=0)
                    scores[j] = s = _sigmoid(wo @ h)
                    derr = s - labels
                    dh = derr @ wo
                    # w_out[o] -= lr * outer(derr, h): the same products, and
                    # for a repeated row the last write wins, as in -=
                    wo -= lr * (derr[:, None] * h)
                    w_out[o] = wo
                else:
                    probs = softmax(w_out @ h)
                    losses[j] = -np.log(probs[target])
                    dlogits = probs
                    dlogits[target] -= 1.0
                    dh = w_out.T @ dlogits
                    w_out -= lr * np.outer(dlogits, h)
                np.add.at(w_in, rows, -lr * dh / (hi - lo))
            if neg:
                losses = -np.log(np.abs(1.0 - labels - scores) + 1e-12).sum(axis=1)
            bad = np.flatnonzero(~np.isfinite(losses))
            if bad.size:
                j = bad[0]
                raise TrainingError(
                    f"non-finite loss at step {step + j} (lr={lrs[j]:.6g})")
            loss_sum += losses.sum()
            step += nb
        elapsed = time.perf_counter() - t0
        log.info("epoch %d/%d: mean loss %.6g over %d windows, %.0f windows/s",
                 epoch + 1, params.epochs, loss_sum / n_windows, n_windows,
                 n_windows / elapsed)
    if not (np.isfinite(w_in).all() and np.isfinite(w_out).all()):
        raise TrainingError("non-finite parameters after training")
    return m


def save_model(m: EmbeddingModel, path_in):
    """Text format: header ``N d`` then one ``<paper_id> <f_1> ... <f_d>``
    row per node; W_out goes to ``<path_in>.out`` in the same layout.  An
    id holding whitespace raises GraphError before anything is written."""
    for tok in m.ids:
        if not is_token(tok):
            raise GraphError(f"paper id {tok!r} holds whitespace and cannot "
                             "be written to a model file")
    fmt = " ".join(["%.9g"] * m.dim)
    for path, mat in ((path_in, m.w_in), (f"{path_in}.out", m.w_out)):
        with open(path, "w", encoding="utf-8") as f:
            f.write(f"{m.n} {m.dim}\n")
            for tok, row in zip(m.ids, mat):
                f.write(tok + " " + fmt % tuple(row.tolist()) + "\n")


def _load_matrix(path):
    lines = text_lines(path)
    lineno, header = next(lines, (1, ""))
    try:
        n, d = (int(x) for x in header.split())
    except ValueError:
        raise ValueError(f"{path}:{lineno}: expected header '<N> <d>'") from None
    ids, rows, seen = [], [], set()
    for lineno, line in lines:
        parts = line.split()
        if len(parts) != d + 1:
            raise ValueError(
                f"{path}:{lineno}: expected {d + 1} fields, found {len(parts)}")
        if parts[0] in seen:
            raise ValueError(f"{path}:{lineno}: repeated paper id {parts[0]!r}")
        seen.add(parts[0])
        ids.append(parts[0])
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(ids) != n:
        raise ValueError(
            f"{path}: header declares {n} rows, found {len(ids)}")
    return ids, np.array(rows, dtype=np.float64).reshape(len(ids), d)


def load_model(path_in):
    ids, w_in = _load_matrix(path_in)
    ids_out, w_out = _load_matrix(f"{path_in}.out")
    if ids != ids_out:
        raise ValueError("input/output matrix files disagree on vocabulary")
    return EmbeddingModel(ids, w_in, w_out)
