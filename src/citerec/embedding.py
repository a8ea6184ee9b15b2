"""CBOW-style embedding trainer: predict a target paper from the mean of
its context papers' vectors.

Two objectives are supported.  Exact softmax optimizes -log Pr(target |
context) with a full softmax over the vocabulary; it is the reference mode.
Negative sampling optimizes the usual sampled surrogate (k negatives drawn
from a unigram^0.75 noise distribution over corpus frequencies) and scales
to large graphs; as in word2vec's CBOW, every context row gets the whole
context error rather than its share of the mean's gradient.  Both take each
block of windows as one set of array operations on the parameters as they
were at the block's start, and both cut each window's context from the
corpus tokens when its chunk of windows is trained.  The test suite checks
the steps of each objective against central finite differences of its loss.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from .graph import CitationGraph, GraphError, PaperIds, is_token, text_lines
from .sampling import WalkCorpus


log = logging.getLogger(__name__)

# Context-vector floats one training block gathers; a block holds about
# TRAIN_BLOCK_FLOATS // (2 * window * dim) windows, so a larger model trains
# in shorter blocks and a block's temporaries keep one size.
TRAIN_BLOCK_FLOATS = 1 << 17
# Training blocks whose context rows are gathered, and whose negatives
# ``neg`` mode draws, in one call each: that work does not depend on the
# parameters, and one call per 32 blocks costs less than 32 calls, while a
# chunk's index arrays stay near 1 MB at dim 32 (they scale as 1 / dim).
CHUNK_BLOCKS = 32
# Buckets of the table that inverts the noise CDF: enough that no bucket
# holds two rows of positive weight on a 5k-paper co-citation corpus, so a
# draw there takes one halving step.
NOISE_BUCKETS = 1 << 16
# Most (windows x rows) floats in one exact-softmax block, whose logits
# become its probabilities in place: 8 MiB on any graph.  It binds only past
# 5,140 rows at dim 32, window 10; on a 46,812-row graph an exact block is
# 22 windows, not 204 (76 MB of probabilities).
EXACT_BLOCK_FLOATS = 1 << 20


# The training objectives: exact softmax and negative sampling.
MODES = ("exact", "neg")


class TrainingError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainParams:
    """Training parameters; a field with ``help`` metadata is also a flag of
    ``citerec train`` and ``citerec evaluate``."""
    dim: int = field(default=128, metadata={"help": "embedding dimension"})
    window: int = field(default=10, metadata={
        "help": "context papers on each side of the target"})
    epochs: int = field(default=5, metadata={"help": "passes over the corpus"})
    lr: float = field(default=0.025, metadata={
        "help": "learning rate at the first window"})
    lr_min: float = field(default=0.0001, metadata={
        "help": "learning rate at the last window"})
    mode: str = field(default="neg", metadata={
        "help": "objective: exact softmax or negative sampling",
        "choices": MODES})
    negatives: int = field(default=5, metadata={
        "help": "negatives per window in neg mode"})
    seed: int = field(default=0, metadata={"help": "random seed"})

    def __post_init__(self):
        if self.dim < 1 or self.window < 1 or self.epochs < 0:
            raise ValueError("dim, window must be >= 1 and epochs >= 0")
        if not self.lr > self.lr_min >= 0:
            raise ValueError("need lr > lr_min >= 0")
        if self.mode not in MODES:
            raise ValueError(f"unknown objective mode: {self.mode!r}")
        if self.negatives < 1:
            raise ValueError("negatives must be >= 1")


class PaperVectors(PaperIds):
    """The paper-id vocabulary and the input matrix (row v = embedding of
    paper v), the half of a model that the cosine rankers read.  The matrix
    is float32, as word2vec keeps it; a finite value that float32 cannot
    hold raises ValueError."""

    def __init__(self, ids, w_in):
        super().__init__(ids)
        # contiguous, so that training can update the flat matrix in place
        self.w_in = _float32_matrix(w_in)
        if self.w_in.ndim != 2 or self.w_in.shape[0] != len(self.ids):
            raise ValueError("matrix shapes disagree with vocabulary size")

    @property
    def n(self):
        return self.w_in.shape[0]

    @property
    def dim(self):
        return self.w_in.shape[1]


class EmbeddingModel(PaperVectors):
    """Input vectors plus the output matrix (row i produces the logit of
    paper i), float32 like them: what training and CitMod read."""

    def __init__(self, ids, w_in, w_out):
        super().__init__(ids, w_in)
        self.w_out = _float32_matrix(w_out)
        if self.w_out.shape != self.w_in.shape:
            raise ValueError("matrix shapes disagree with vocabulary size")


def _float32_matrix(w):
    """``w`` as a C-contiguous float32 array; a finite value past float32's
    range raises ValueError rather than becoming inf."""
    w = np.asarray(w)
    with np.errstate(over="ignore"):
        w32 = np.ascontiguousarray(w, dtype=np.float32)
    if w.dtype != np.float32 and (np.isinf(w32) & np.isfinite(w)).any():
        raise ValueError("model value out of float32 range")
    return w32


def init_model(g: CitationGraph, params: TrainParams):
    """W_in ~ U(-0.5/d, 0.5/d) from the seeded RNG, W_out all zeros.  The
    draws are float64, rounded to float32 once."""
    if g.n == 0:
        raise ValueError("cannot initialize a model on an empty graph")
    rng = np.random.default_rng(params.seed)
    scale = 0.5 / params.dim
    w_in = rng.uniform(-scale, scale, size=(g.n, params.dim))
    w_out = np.zeros((g.n, params.dim), dtype=np.float32)
    return EmbeddingModel(g.ids, w_in, w_out)


def context_windows(tokens, offsets, w):
    """Every context window of a flat corpus, whose line i is
    ``tokens[offsets[i]:offsets[i + 1]]``, as a table ``(at, left, right)``.

    Each position of a line of two or more tokens is one window, in corpus
    order.  Window i predicts ``tokens[at[i]]`` from the symmetric window of
    half-width w around it, target excluded, duplicates kept: the
    ``left[i]`` tokens before the target and the ``right[i]`` after it.
    ``window_context`` gathers those tokens.
    """
    if w < 1:
        raise ValueError("window must be >= 1")
    lengths = np.diff(offsets)
    # every position of a line of length >= 2 has a non-empty context
    at = np.flatnonzero(np.repeat(lengths >= 2, lengths))
    lengths = lengths[lengths >= 2]
    pos = np.arange(at.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    left = np.minimum(pos, w)
    right = np.minimum(np.repeat(lengths, lengths) - 1 - pos, w)
    return at, left, right


def window_context(tokens, at, left, right, windows):
    """The context rows of ``windows``, rows of ``context_windows``'s table,
    in the order given, as ``(rows, bounds)``: window j's context is
    ``rows[bounds[j]:bounds[j + 1]]``, ``intp``; ``bounds`` is int64."""
    at, left = at[windows], left[windows]
    counts = left + right[windows]
    bounds = np.zeros(windows.size + 1, dtype=np.int64)
    np.cumsum(counts, out=bounds[1:])
    # the k-th context token of a window, k counted from its bound, is token
    # at - left + k, moved one place on once it reaches the target itself
    src = np.arange(bounds[-1]) + np.repeat(at - left - bounds[:-1], counts)
    src += src >= np.repeat(at, counts)
    return tokens[src].astype(np.intp, copy=False), bounds


def softmax(logits):
    """Softmax along the last axis, in place; each row of a 2-D array is
    one distribution, with the same bits as the softmax of that row alone."""
    logits -= logits.max(axis=-1, keepdims=True)
    np.exp(logits, out=logits)
    logits /= logits.sum(axis=-1, keepdims=True)
    return logits


def forward(m: EmbeddingModel, context):
    """Probability of every paper given a context of model rows.  The
    logits are one float32 product, as the model stores them; the softmax
    runs in float64, so the probabilities sum to 1 within 1e-9."""
    rows = np.atleast_1d(np.asarray(context, dtype=np.int64))
    if rows.size == 0:
        raise ValueError("context must be non-empty")
    if rows.min() < 0 or rows.max() >= m.n:
        raise ValueError("context index out of vocabulary range")
    h = m.w_in[rows].mean(axis=0)
    return softmax((m.w_out @ h).astype(np.float64))


def _noise_distribution(tokens, n):
    freq = np.bincount(tokens, minlength=n).astype(np.float64)
    noise = freq ** 0.75
    total = noise.sum()
    if total == 0:
        raise TrainingError("empty corpus: no noise distribution")
    return noise / total


def _noise_sampler(noise):
    """The function that takes uniform draws ``u`` in [0, 1) to rows of the
    distribution ``noise``: ``np.searchsorted(np.cumsum(noise), u)``, except
    that a draw past the CDF's last entry, which rounding can leave below 1,
    goes to the last row of positive weight.

    Only row 0 and the rows of positive weight can be returned: a row of
    zero weight repeats the CDF entry before it, so it is never the first
    to reach ``u > 0``.  The search runs over those rows' CDF entries, the
    keys.  A table splits [0, 1] into ``NOISE_BUCKETS`` equal buckets, and
    ``lo[b]`` is the key index that bucket b's lower edge searches to, so a
    draw in bucket b searches to an index from ``lo[b]`` to ``lo[b + 1]``.
    A few vectorised halving steps then find it exactly.
    """
    cdf = np.cumsum(noise)
    keep = noise > 0
    keep[0] = True
    rows = np.flatnonzero(keep)
    keys = cdf[rows]
    edges = np.arange(NOISE_BUCKETS + 1) / NOISE_BUCKETS
    lo = np.minimum(np.searchsorted(keys, edges), keys.size - 1)
    steps = int(np.diff(lo).max()).bit_length()

    def draw(u):
        b = (u * NOISE_BUCKETS).astype(np.intp)
        left, right = lo[b], lo[b + 1]
        for _ in range(steps):
            mid = (left + right) >> 1
            # mid == right only once left == right, where nothing moves
            up = (keys[mid] < u) & (mid < right)
            left = np.where(up, mid + 1, left)
            right = np.where(up, right, mid)
        return rows[left]

    return draw


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _block_windows(params: TrainParams, n):
    """Windows per training block on a model of n rows, so that a block
    gathers at most about ``TRAIN_BLOCK_FLOATS`` floats of context vectors,
    whatever the window and dim, and an exact block holds at most
    ``EXACT_BLOCK_FLOATS`` probabilities."""
    block = max(1, TRAIN_BLOCK_FLOATS // (2 * params.window * params.dim))
    if params.mode == "exact":
        block = max(1, min(block, EXACT_BLOCK_FLOATS // n))
    return block


def _context_mean(w_in, rows, bounds):
    """``(rows, counts, h)`` of a block whose window j has the context rows
    ``rows[bounds[j]:bounds[j + 1]]``: the block's context rows, each
    window's context size (an integer) and each window's mean context
    vector, in ``w_in``'s dtype."""
    rows = rows[bounds[0]:bounds[-1]]
    counts = np.diff(bounds)
    # take() copies the same rows as indexing, in half the time
    h = (np.add.reduceat(w_in.take(rows, axis=0), bounds[:-1] - bounds[0],
                         axis=0) / counts[:, None].astype(w_in.dtype))
    return rows, counts, h


def _scatter_add(w, rows, values):
    """``w[rows] += values``, adding every value of a repeated row, in order.

    ``np.add.at`` on the flat matrix is about 2.5x faster than on its rows,
    with the same additions in the same order.  At an even dim it runs on
    the matrices' complex view (``complex64`` for float32), which halves its
    index and its work: a complex add is two float adds, each in the same
    order as before.  An odd dim keeps the real view.  ``w`` is
    C-contiguous, as ``EmbeddingModel`` keeps it, so both views share its
    memory; ``values`` has ``w``'s dtype.
    """
    if w.shape[1] % 2 == 0:
        pair = np.promote_types(w.dtype, np.complex64)
        w, values = w.view(pair), values.view(pair)
    d = w.shape[1]
    flat = (rows[:, None] * d + np.arange(d)).ravel()
    np.add.at(w.reshape(-1), flat, values.reshape(-1))


def _exact_block(m, targets, rows, bounds, lrs):
    """Exact-softmax steps for one block as one set of array operations:
    window j predicts ``targets[j]`` from ``rows[bounds[j]:bounds[j + 1]]``.

    As in ``_neg_block``, every read comes from the parameters as they were
    at the start of the block, and every update is then added.  Each
    context row gets its share ``dh / |ctx|`` of the context error, the
    gradient through the mean, so the step is -lr times the true gradient of
    the summed block loss.  The three products run as ``np.einsum``, numpy's
    own loops rather than BLAS, so the bits do not depend on the BLAS thread
    count.  Every temporary has the parameters' dtype.  Returns each step's
    loss.
    """
    w_in, w_out = m.w_in, m.w_out
    dtype = w_in.dtype
    rows, counts, h = _context_mean(w_in, rows, bounds)
    dlogits = softmax(np.einsum("bd,nd->bn", h, w_out))
    hit = np.arange(targets.size), targets
    losses = -np.log(dlogits[hit])
    dlogits[hit] -= 1.0
    dh = np.einsum("bn,nd->bd", dlogits, w_out)
    # -(a * b) == (-a) * b bit for bit, so the small factor is negated
    neg_lr = -lrs.astype(dtype)[:, None]
    dlogits *= neg_lr
    w_out += np.einsum("bn,bd->nd", dlogits, h)
    _scatter_add(w_in, rows, np.repeat(
        neg_lr * dh / counts[:, None].astype(dtype), counts, axis=0))
    return losses


def _neg_block(m, out_rows, rows, bounds, lrs):
    """Negative-sampling steps for one block as one set of array operations:
    window j predicts ``out_rows[j]`` from ``rows[bounds[j]:bounds[j + 1]]``.

    Every read comes from the parameters as they were at the start of the
    block, and every update is then added, so a row that appears twice (a
    target drawn as its own negative, a context paper in two windows) gets
    both updates.  Each context row gets the whole context error ``dh``,
    undivided by the context size, as word2vec's CBOW applies ``neu1e``;
    the exact gradient of the mean divides it, as ``_exact_block`` does.
    Every temporary has the parameters' dtype.  Returns each step's loss.
    """
    w_in, w_out = m.w_in, m.w_out
    dtype = w_in.dtype
    labels = np.zeros(out_rows.shape[1], dtype=dtype)
    labels[0] = 1.0
    rows, counts, h = _context_mean(w_in, rows, bounds)
    wo = w_out.take(out_rows, axis=0)
    scores = _sigmoid(np.einsum("bkd,bd->bk", wo, h))
    derr = scores - labels
    dh = np.einsum("bk,bkd->bd", derr, wo)
    # -(a * b) == (-a) * b bit for bit, so the small factor is negated
    neg_lr = -lrs.astype(dtype)[:, None]
    _scatter_add(w_out, out_rows.ravel(),
                 (neg_lr * derr)[:, :, None] * h[:, None, :])
    _scatter_add(w_in, rows, np.repeat(neg_lr * dh, counts, axis=0))
    return -np.log(np.abs(1.0 - labels - scores) + 1e-12).sum(axis=1)


def train(m: EmbeddingModel, corpus: WalkCorpus, params: TrainParams):
    """SGD over shuffled context windows; returns the updated model.

    Each epoch visits the windows in an order drawn from one RNG stream, in
    blocks of ``_block_windows(params, m.n)`` windows.  Learning rate decays
    linearly from lr to lr_min over all steps, one value per window.  Both
    objectives gather the context rows of ``CHUNK_BLOCKS`` blocks at a time
    straight from the corpus tokens (``window_context``), so no array holds
    every window's context, and take each block as one step on the
    parameters as they were at its start (``_exact_block``, ``_neg_block``).
    ``neg`` mode draws a chunk's negatives from the same stream, after the
    epoch's order and in window order.  A fixed seed gives the same model,
    bit for bit, whatever the BLAS thread count.  Each epoch's mean loss,
    window count and windows/s are logged at INFO level; a non-finite loss
    raises ``TrainingError`` naming its step.
    """
    tokens = corpus.tokens
    at, left, right = context_windows(tokens, corpus.offsets, params.window)
    n_windows = at.size
    if n_windows == 0 and params.epochs > 0:
        raise TrainingError("corpus produced no context windows")
    rng = np.random.default_rng([params.seed, 0x7472])
    neg = params.mode == "neg"
    if neg:
        draw_noise = _noise_sampler(_noise_distribution(tokens, m.n))
    block_step = _neg_block if neg else _exact_block
    block = _block_windows(params, m.n)
    chunk = block * CHUNK_BLOCKS
    total = max(params.epochs * n_windows, 1)
    step = 0
    for epoch in range(params.epochs):
        t0 = time.perf_counter()
        loss_sum = 0.0
        order = rng.permutation(n_windows)
        for c0 in range(0, n_windows, chunk):
            windows = order[c0:c0 + chunk]
            # output rows: each window's target, then in neg mode negatives
            out = tokens[at[windows]]
            rows, bounds = window_context(tokens, at, left, right, windows)
            if neg:
                # one call reads the stream as one call per block would
                out = np.column_stack((out, draw_noise(
                    rng.random((windows.size, params.negatives)))))
            for b0 in range(0, windows.size, block):
                b1 = min(b0 + block, windows.size)
                lrs = params.lr - (params.lr - params.lr_min) * (
                    np.arange(step, step + b1 - b0) / total)
                losses = block_step(m, out[b0:b1], rows, bounds[b0:b1 + 1],
                                    lrs)
                bad = np.flatnonzero(~np.isfinite(losses))
                if bad.size:
                    j = bad[0]
                    raise TrainingError(
                        f"non-finite loss at step {step + j} "
                        f"(lr={lrs[j]:.6g})")
                loss_sum += float(losses.sum(dtype=np.float64))
                step += b1 - b0
        elapsed = time.perf_counter() - t0
        log.info("epoch %d/%d: mean loss %.6g over %d windows, %.0f windows/s",
                 epoch + 1, params.epochs, loss_sum / n_windows, n_windows,
                 n_windows / elapsed)
    if not (np.isfinite(m.w_in).all() and np.isfinite(m.w_out).all()):
        raise TrainingError("non-finite parameters after training")
    return m


def save_model(m: EmbeddingModel, path_in):
    """Text format: header ``N d`` then one ``<paper_id> <f_1> ... <f_d>``
    row per node; W_out goes to ``<path_in>.out`` in the same layout.  Each
    value is written ``%.9g``, which reads back as the same float32.  An
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
    """The ids and the ``N x d`` float32 matrix of one model file.

    The value block is parsed by one ``np.loadtxt`` call, which splits on
    the same whitespace as ``str.split``, and rounded to float32 once.  It
    reads fewer spellings than ``float()`` (no ``1_0``, no non-ASCII
    digits), so when it fails, or its result is not a finite ``(N, d)``
    block of unique ids, ``_parse_rows`` parses the file line by line: it
    raises the first bad line's ``path:line`` error or returns what
    ``float()`` reads, rounded to float32.  ``save_model``'s ``%.9g`` reads
    back as the float32 it wrote.
    """
    lines = text_lines(path)
    lineno, header = next(lines, (1, ""))
    try:
        n, d = (int(x) for x in header.split())
    except ValueError:
        raise ValueError(f"{path}:{lineno}: expected header '<N> <d>'") from None
    if n < 0 or d < 0:
        raise ValueError(f"{path}:{lineno}: negative count in header '<N> <d>'")
    body = list(lines)
    # loadtxt warns on a block of no data, so an empty one is left to
    # _parse_rows
    if len(body) == n > 0 and d > 0:
        pairs = [line.split(None, 1) for _, line in body]
        ids = [pair[0] for pair in pairs]
        if all(len(pair) == 2 for pair in pairs) and len(set(ids)) == n:
            try:
                mat = np.loadtxt([pair[1] for pair in pairs],
                                 dtype=np.float64, ndmin=2, comments=None)
            except ValueError:
                pass
            else:
                with np.errstate(over="ignore"):
                    mat = mat.astype(np.float32)
                if mat.shape == (n, d) and np.isfinite(mat).all():
                    return ids, mat
    return _parse_rows(path, body, n, d)


def _parse_rows(path, body, n, d):
    """``_load_matrix``'s per-line parse of the ``(line_number, line)``
    pairs after the header: one ``float()`` per value, rounded to float32.
    A value float32 cannot hold is an error, as a non-finite one is."""
    ids, rows, linenos, seen = [], [], [], set()
    for lineno, line in body:
        parts = line.split()
        if len(parts) != d + 1:
            raise ValueError(
                f"{path}:{lineno}: expected {d + 1} fields, found {len(parts)}")
        if parts[0] in seen:
            raise ValueError(f"{path}:{lineno}: repeated paper id {parts[0]!r}")
        seen.add(parts[0])
        ids.append(parts[0])
        linenos.append(lineno)
        try:
            rows.append([float(x) for x in parts[1:]])
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    if len(ids) != n:
        raise ValueError(
            f"{path}: header declares {n} rows, found {len(ids)}")
    mat = np.array(rows, dtype=np.float64).reshape(len(ids), d)
    with np.errstate(over="ignore"):
        mat32 = mat.astype(np.float32)
    bad = np.flatnonzero(~np.isfinite(mat32).all(axis=1))
    if bad.size:
        i = bad[0]
        what = ("non-finite value" if not np.isfinite(mat[i]).all()
                else "value out of float32 range")
        raise ValueError(f"{path}:{linenos[i]}: {what}")
    return ids, mat32


def load_vectors(path):
    """The ids and input vectors of one model file, without its ``.out``
    companion; logs its path, shape and seconds at INFO level."""
    t0 = time.perf_counter()
    v = PaperVectors(*_load_matrix(path))
    log.info("vectors %s: %d rows x %d dims, %.3f s", path, v.n, v.dim,
             time.perf_counter() - t0)
    return v


def load_model(path_in):
    """The model pair written by ``save_model``: ``load_vectors``'s file and
    its ``.out`` output matrix, whose ids and shape must match it; logs its
    path, shape and seconds at INFO level."""
    t0 = time.perf_counter()
    ids, w_in = _load_matrix(path_in)
    path_out = f"{path_in}.out"
    ids_out, w_out = _load_matrix(path_out)
    if w_out.shape != w_in.shape:
        raise ValueError(f"{path_out}: {w_out.shape[0]} x {w_out.shape[1]} "
                         f"matrix, {path_in} is {w_in.shape[0]} x "
                         f"{w_in.shape[1]}")
    if ids_out != ids:
        i = next(i for i, (a, b) in enumerate(zip(ids, ids_out)) if a != b)
        # row i's (line number, line), read again only on this error path;
        # the header is the first line text_lines yields
        row = next(islice(text_lines(path_out), i + 1, None), None)
        where = f"{path_out}:{row[0]}" if row else path_out
        raise ValueError(f"{where}: paper id {ids_out[i]!r}, {path_in} has "
                         f"{ids[i]!r}")
    m = EmbeddingModel(ids, w_in, w_out)
    log.info("model %s: %d rows x %d dims, %.3f s", path_in, m.n, m.dim,
             time.perf_counter() - t0)
    return m
