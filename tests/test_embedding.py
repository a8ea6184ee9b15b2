import logging
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from citerec import embedding
from citerec.graph import CitationGraph, GraphError, text_lines
from citerec.ranking import ALL_METHODS
from citerec.sampling import (SamplingParams, cocitation_corpus,
                              generate_walk_corpus)
from citerec.embedding import (EmbeddingModel, TrainParams, TrainingError,
                               _block_windows, _exact_block, _load_matrix,
                               _neg_block, _noise_distribution, _noise_sampler,
                               _sigmoid, context_windows, forward, init_model,
                               load_model, save_model, softmax, train,
                               window_context)
from .conftest import corpus_of, make_planted_graph


def chain_graph(n):
    return CitationGraph.from_edges([(f"n{i}", f"n{i+1}") for i in range(n - 1)])


def extract_windows(sequences, w):
    """Yield (target, context array) for every position of every sequence.

    Context is the symmetric window of half-width w around the target,
    target excluded, duplicates kept.  Positions with an empty context are
    skipped.  This is the reference for ``context_windows`` and
    ``window_context``, which give the same windows from the flat corpus and
    are what ``train`` uses.
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


def corpus_windows(corpus, w):
    return context_windows(corpus.tokens, corpus.offsets, w)


def test_extract_windows_basic():
    wins = list(extract_windows([[0, 1, 2]], 1))
    assert wins[0][0] == 0 and list(wins[0][1]) == [1]
    assert wins[1][0] == 1 and list(wins[1][1]) == [0, 2]
    assert wins[2][0] == 2 and list(wins[2][1]) == [1]


def test_extract_windows_skips_singletons():
    assert list(extract_windows([[0]], 5)) == []


def test_extract_windows_keeps_duplicates():
    wins = list(extract_windows([[0, 1, 0]], 2))
    target, ctx = wins[1]
    assert target == 1 and list(ctx) == [0, 0]


def gathered_windows(corpus, w, windows=None):
    """``(target, context)`` of ``windows``, all by default, in that order,
    through ``window_context``, whose output's types it checks."""
    tokens = corpus.tokens
    at, left, right = corpus_windows(corpus, w)
    if windows is None:
        windows = np.arange(at.size)
    rows, bounds = window_context(tokens, at, left, right, windows)
    assert rows.dtype == np.intp and bounds.dtype == np.int64
    assert bounds[0] == 0 and bounds.size == windows.size + 1
    assert bounds[-1] == rows.size
    return [(int(tokens[at[i]]), rows[bounds[j]:bounds[j + 1]].tolist())
            for j, i in enumerate(windows)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), max_size=12), max_size=8),
       st.integers(1, 14))
def test_context_windows_match_extract_windows(sequences, w):
    expected = [(t, ctx.tolist()) for t, ctx in extract_windows(sequences, w)]
    assert gathered_windows(corpus_of(sequences), w) == expected


def test_window_context_gathers_shuffled_subset():
    # train gathers a chunk of an epoch's shuffled order: a subset of the
    # windows, out of corpus order, here from lines of every short length
    # and with a window wider than every line
    rng = np.random.default_rng(0)
    seqs = [[], [3], [4, 4], [1, 2],
            *(rng.integers(0, 50, size=rng.integers(0, 30))
              for _ in range(200)), [], [9]]
    expected = [(t, ctx.tolist()) for t, ctx in extract_windows(seqs, 40)]
    order = rng.permutation(len(expected))[:len(expected) // 3]
    assert (gathered_windows(corpus_of(seqs), 40, order)
            == [expected[i] for i in order])


def test_forward_uniform_for_zero_output_matrix():
    m = EmbeddingModel(["a", "b", "c"], np.ones((3, 4)), np.zeros((3, 4)))
    probs = forward(m, [0, 1])
    assert np.allclose(probs, 1 / 3)


def test_forward_closed_form_softmax():
    # context vector [1], output rows produce logits (ln 3, ln 1)
    m = EmbeddingModel(["a", "b"],
                       np.array([[1.0], [0.0]]),
                       np.array([[math.log(3)], [0.0]]))
    probs = forward(m, [0])
    assert np.allclose(probs, [0.75, 0.25], atol=1e-12)


def test_forward_normalization_and_shift_invariance():
    rng = np.random.default_rng(1)
    m = EmbeddingModel([f"n{i}" for i in range(8)],
                       rng.normal(size=(8, 5)), rng.normal(size=(8, 5)))
    probs = forward(m, [2, 5, 7])
    assert abs(probs.sum() - 1.0) < 1e-9
    assert (probs > 0).all()
    shifted = EmbeddingModel(m.ids, m.w_in, m.w_out.copy())
    h = m.w_in[[2, 5, 7]].mean(axis=0)
    # add a constant to all logits by shifting W_out along h
    shifted.w_out += h / (h @ h) * 3.7
    assert np.allclose(forward(shifted, [2, 5, 7]), probs, atol=1e-9)


def test_softmax_rows_match_one_row_softmax():
    rng = np.random.default_rng(4)
    logits = rng.normal(scale=30.0, size=(7, 50))
    probs = logits.copy()
    assert softmax(probs) is probs          # the logits become probabilities
    for row, got in zip(logits, probs):
        assert np.array_equal(softmax(row.copy()).view(np.uint64),
                              got.view(np.uint64))
    assert np.allclose(probs.sum(axis=1), 1.0)


def test_forward_unknown_id_errors():
    m = EmbeddingModel(["a"], np.ones((1, 2)), np.zeros((1, 2)))
    for rows in ([1], [-1], [0, 1]):
        with pytest.raises(ValueError):
            forward(m, rows)


def test_model_rejects_duplicate_ids():
    with pytest.raises(GraphError, match="^duplicate paper ids$"):
        EmbeddingModel(["a", "a", "b"], np.ones((3, 2)), np.zeros((3, 2)))


def test_graph_and_model_reject_id_that_does_not_encode_as_utf8():
    message = r"^paper id 'c\\udcff' does not encode as UTF-8$"
    with pytest.raises(GraphError, match=message):
        CitationGraph.from_edges([("a", "é"), ("c\udcff", "a")])
    with pytest.raises(GraphError, match=message):
        EmbeddingModel(["é", "c\udcff"], np.ones((2, 2)), np.zeros((2, 2)))


def test_model_rejects_value_past_float32_range():
    big = np.array([[1.0, 0.0], [0.0, 2.0 ** 128]])
    for w_in, w_out in ((big, np.zeros((2, 2))), (np.ones((2, 2)), -big)):
        with pytest.raises(ValueError, match="^model value out of float32 "
                                             "range$"):
            EmbeddingModel(["a", "b"], w_in, w_out)
    # float32's largest value is kept; non-finite values pass through
    top = float(np.finfo(np.float32).max)
    m = EmbeddingModel(["a", "b"], [[top, np.inf], [np.nan, 0.0]],
                       np.zeros((2, 2)))
    assert m.w_in.dtype == m.w_out.dtype == np.float32
    assert m.w_in[0, 0] == top and np.isinf(m.w_in[0, 1])


def test_model_and_graph_raise_one_unknown_id_error():
    g = CitationGraph.from_edges([("a", "b")])
    m = EmbeddingModel(g.ids, np.ones((2, 2)), np.zeros((2, 2)))
    errors = []
    for ids in (g, m):
        with pytest.raises(ValueError) as err:
            ids.index_of("ZZ")
        errors.append((type(err.value), str(err.value)))
    assert errors == [(GraphError, "unknown paper id: 'ZZ'")] * 2


def test_init_model_contract():
    g = chain_graph(10)
    params = TrainParams(dim=16, seed=5)
    m = init_model(g, params)
    assert m.w_in.shape == (10, 16) and m.w_out.shape == (10, 16)
    assert np.all(m.w_out == 0)
    assert np.abs(m.w_in).max() <= 0.5 / 16
    m2 = init_model(g, params)
    assert np.array_equal(m.w_in, m2.w_in)


def test_init_model_empty_graph_errors():
    with pytest.raises(ValueError):
        init_model(CitationGraph.from_edges([]), TrainParams())


def exact_window_loss(w_in, w_out, target, ctx):
    """-log softmax(w_out h)[target], h the mean of the context rows."""
    z = w_out @ w_in[ctx].mean(axis=0)
    return np.log(np.exp(z - z.max()).sum()) + z.max() - z[target]


def neg_window_loss(w_in, w_out, out_rows, ctx):
    """-log sigma(w_out[t] h) - sum_j log sigma(-w_out[n_j] h) for
    ``out_rows = [t, n_1, ...]``, h the mean of the context rows."""
    s = w_out[out_rows] @ w_in[ctx].mean(axis=0)
    return (-np.log(1 / (1 + np.exp(-s[0])))
            - np.log(1 / (1 + np.exp(s[1:]))).sum())


def central_differences(loss, mats, eps=1e-5):
    """The gradient of ``loss()`` with respect to each of ``mats``, which
    it reads, by central differences; each entry is restored after use."""
    grads = []
    for mat in mats:
        grad = np.zeros_like(mat)
        for idx in np.ndindex(mat.shape):
            orig = mat[idx]
            mat[idx] = orig + eps
            up = loss()
            mat[idx] = orig - eps
            dn = loss()
            mat[idx] = orig
            grad[idx] = (up - dn) / (2 * eps)
        grads.append(grad)
    return grads


def max_rel_err(got, want):
    return float((np.abs(got - want)
                  / np.maximum(np.maximum(np.abs(got), np.abs(want)), 1e-8)
                  ).max())


def gradient_check_model(seed=11):
    """The parameters of the finite-difference checks, in float64.  The
    block steps read only ``w_in`` and ``w_out`` and follow their dtype; a
    float32 step's rounding would swamp differences at ``eps=1e-5``."""
    rng = np.random.default_rng(seed)
    n, d = 12, 8
    return SimpleNamespace(w_in=rng.normal(scale=0.3, size=(n, d)),
                           w_out=rng.normal(scale=0.3, size=(n, d)))


def exact_step_errors(m, windows, lr):
    """Max relative errors ``(w_in, w_out)`` of one ``_exact_block`` step on
    a block of ``(target, context)`` windows against -lr times the
    finite-difference gradient of the windows' summed ``exact_window_loss``
    at the parameters before the step."""
    targets = np.array([t for t, _ in windows])
    contexts = [np.asarray(ctx) for _, ctx in windows]
    d_in, d_out = central_differences(
        lambda: sum(exact_window_loss(m.w_in, m.w_out, t, ctx)
                    for t, ctx in zip(targets, contexts)),
        (m.w_in, m.w_out))
    w_in0, w_out0 = m.w_in.copy(), m.w_out.copy()
    bounds = np.cumsum([0] + [ctx.size for ctx in contexts])
    _exact_block(m, targets, np.concatenate(contexts), bounds,
                 np.full(targets.size, lr))
    return (max_rel_err(m.w_in - w_in0, -lr * d_in),
            max_rel_err(m.w_out - w_out0, -lr * d_out))


def neg_step_errors(m, out_rows, ctx, lr):
    """Relative errors ``(loss, w_in, w_out)`` of one ``_neg_block`` step on
    one window, predicting ``out_rows = [t, n_1, ...]``, against
    ``neg_window_loss`` at the parameters before the step and -lr times its
    finite-difference gradient."""
    ctx = np.asarray(ctx)

    def loss():
        return neg_window_loss(m.w_in, m.w_out, out_rows, ctx)
    want = loss()
    d_in, d_out = central_differences(loss, (m.w_in, m.w_out))
    w_in0, w_out0 = m.w_in.copy(), m.w_out.copy()
    got, = _neg_block(m, np.array([out_rows]), ctx, np.array([0, ctx.size]),
                      np.array([lr]))
    # word2vec adds the undivided context error neu1e = dL/dh to a context
    # row once for each time the row appears in the context; through the
    # mean, each occurrence gives that row dL/dh / |ctx| of dL/dw_in, so the
    # step moves w_in by -lr * |ctx| * dL/dw_in
    return (float(abs(got - want) / want),
            max_rel_err(m.w_in - w_in0, -lr * ctx.size * d_in),
            max_rel_err(m.w_out - w_out0, -lr * d_out))


# one window, one window that repeats a context row, and a block whose
# first two windows share target 1 and whose context row 6 is in two
# windows, so the step adds two updates to one w_out row and one w_in row
@pytest.mark.parametrize("windows", [
    [(1, [5])], [(1, [2, 6, 6, 11])],
    [(1, [2, 6]), (1, [6, 11, 3]), (4, [5])]])
def test_exact_step_matches_finite_differences(windows):
    err_in, err_out = exact_step_errors(gradient_check_model(seed=2), windows,
                                        lr=0.1)
    assert err_in < 1e-4 and err_out < 1e-4, (err_in, err_out)


def test_neg_step_matches_finite_differences():
    # a repeated context row, a negative equal to the target and a
    # repeated negative
    err_loss, err_in, err_out = neg_step_errors(
        gradient_check_model(seed=2), [1, 4, 1, 9, 9, 3], [2, 6, 6, 11],
        lr=0.1)
    # the step adds 1e-12 inside each log
    assert err_loss < 1e-9, err_loss
    assert err_in < 1e-4 and err_out < 1e-4, (err_in, err_out)


def test_zero_epochs_is_identity():
    g = chain_graph(6)
    params = TrainParams(dim=4, window=2, epochs=0, seed=3)
    m = init_model(g, params)
    w_in0, w_out0 = m.w_in.copy(), m.w_out.copy()
    train(m, corpus_of([[0, 1, 2, 3]]), params)
    assert np.array_equal(m.w_in, w_in0)
    assert np.array_equal(m.w_out, w_out0)


def test_neg_empty_corpus_is_training_error():
    g = chain_graph(6)
    params = TrainParams(dim=4, window=2, epochs=0, mode="neg", seed=3)
    for sequences in ([], [[]]):
        with pytest.raises(TrainingError, match="empty corpus"):
            train(init_model(g, params), corpus_of(sequences), params)


def test_noise_distribution_counts_every_token():
    seqs = [[0, 3, 3], [3, 1], [], [4]]
    freq = np.zeros(6)
    for seq in seqs:
        np.add.at(freq, np.asarray(seq, dtype=np.int64), 1.0)
    want = freq ** 0.75 / (freq ** 0.75).sum()
    got = _noise_distribution(corpus_of(seqs).tokens, 6)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def reference_train(m, corpus, params):
    """The trainer that ``train`` must reproduce bit for bit, one window at
    a time, in float32 as the model stores its matrices; returns each
    epoch's mean loss.  Every value it mixes with the parameters (learning
    rates, context sizes, labels) is made float32 by hand, so no promotion
    rule decides a dtype.

    Both modes take each block of windows as one step: every window reads
    the parameters as they were at the start of its block, then every update
    is applied in step order, each repeated row included.  ``exact`` mode
    computes the block's softmax and its two gradient products with the
    same ``np.einsum`` calls as ``train``, since their bits depend on how a
    product is taken, and each context row gets its share of the context
    error.  ``neg`` mode gives each context row the undivided context
    error.  Each block draws its own negatives by ``np.searchsorted`` on the
    noise CDF; a draw past the CDF's end goes to the last row of positive
    weight.
    """
    windows = list(extract_windows(corpus.sequences, params.window))
    rng = np.random.default_rng([params.seed, 0x7472])
    w_in, w_out = m.w_in, m.w_out
    block = _block_windows(params, m.n)
    if params.mode == "neg":
        noise = _noise_distribution(corpus.tokens, m.n)
        noise_cdf = np.cumsum(noise)
        last = np.flatnonzero(noise)[-1]
        labels = np.zeros(params.negatives + 1, dtype=np.float32)
        labels[0] = 1.0
    total = max(params.epochs * len(windows), 1)
    step = 0
    epoch_losses = []
    for _ in range(params.epochs):
        loss_sum = 0.0
        order = rng.permutation(len(windows))
        for b0 in range(0, len(windows), block):
            blk = order[b0:b0 + block]
            if params.mode == "neg":
                negs = np.minimum(np.searchsorted(
                    noise_cdf, rng.random((blk.size, params.negatives))), last)
                in0, out0 = w_in.copy(), w_out.copy()
            else:
                lrs = np.array([params.lr - (params.lr - params.lr_min)
                                * ((step + j) / total)
                                for j in range(blk.size)], dtype=np.float32)
                # a one-segment reduceat adds in train's order
                hs = np.array([np.add.reduceat(w_in[windows[wi][1]], [0])[0]
                               / np.float32(windows[wi][1].size)
                               for wi in blk])
                probs = softmax(np.einsum("bd,nd->bn", hs, w_out))
                dlogits = probs - np.eye(m.n, dtype=np.float32)[
                    [windows[wi][0] for wi in blk]]
                dhs = np.einsum("bn,nd->bd", dlogits, w_out)
                w_out += np.einsum("bn,bd->nd", -lrs[:, None] * dlogits, hs)
            for j, wi in enumerate(blk):
                target, rows = windows[wi]
                lr = np.float32(params.lr - (params.lr - params.lr_min)
                                * (step / total))
                size = np.float32(rows.size)
                if params.mode == "exact":
                    loss = -np.log(probs[j, target])
                    for c in rows:
                        w_in[c] += -lr * dhs[j] / size
                else:
                    out_rows = [target, *negs[j]]
                    # a one-segment reduceat adds in train's order, which
                    # differs from sum()'s in the last bit
                    h = np.add.reduceat(in0[rows], [0])[0] / size
                    wo = out0[out_rows]
                    scores = _sigmoid(np.einsum("kd,d->k", wo, h))
                    loss = -np.log(np.abs(1.0 - labels - scores) + 1e-12).sum()
                    derr = scores - labels
                    dh = np.einsum("k,kd->d", derr, wo)
                    for r, e in zip(out_rows, derr):
                        w_out[r] -= (lr * e) * h
                    for c in rows:
                        w_in[c] -= lr * dh
                loss_sum += float(loss)
                step += 1
        epoch_losses.append(loss_sum / len(windows))
    return epoch_losses


def reference_corpora():
    g, _ = make_planted_graph(targets=20, citers=15, refs=8, seed=5)
    cocit = cocitation_corpus(g, 3, seed=1)
    walks = generate_walk_corpus(
        g, SamplingParams(n=1, t=10, p=0.25, q=4.0, seed=3), strategy="biased")
    # short lines: one without a window, and two shorter than the window
    short = [[4], [7, 9], [3, 5, 3]]
    return g, {kind: corpus_of([*c.sequences, *short], c.strategy, c.params)
               for kind, c in (("cocit", cocit), ("biased", walks))}


def reference_cases():
    """``(kind, mode, dim, chunked)`` for every corpus, mode, dim and chunk
    size; the dim-16 cases at the module's block and chunk sizes keep the
    ids ``kind-mode``."""
    for dim, chunked in ((16, False), (5, False), (1, False),
                         (16, True), (5, True), (1, True)):
        tail = ("" if dim == 16 else f"-d{dim}") + ("-chunked" if chunked
                                                    else "")
        for kind in ("cocit", "biased"):
            for mode in ("exact", "neg"):
                yield pytest.param(kind, mode, dim, chunked,
                                   id=f"{kind}-{mode}{tail}")


@pytest.mark.parametrize("kind,mode,dim,chunked", reference_cases())
def test_train_byte_identical_to_reference(kind, mode, dim, chunked,
                                           monkeypatch):
    g, corpora = reference_corpora()
    corpus = corpora[kind]
    # an odd dim scatters float32 values, an even one complex64 pairs
    params = TrainParams(dim=dim, window=5, epochs=3, mode=mode, seed=4)
    n_windows = corpus_windows(corpus, params.window)[0].size
    if chunked:
        # 350-window blocks, two to a chunk: three chunks, of which the
        # last holds one short block
        monkeypatch.setattr(embedding, "TRAIN_BLOCK_FLOATS",
                            2 * params.window * dim * 350)
        monkeypatch.setattr(embedding, "CHUNK_BLOCKS", 2)
        block = _block_windows(params, g.n)
        n_blocks = -(-n_windows // block)
        assert n_blocks > embedding.CHUNK_BLOCKS
        assert n_blocks % embedding.CHUNK_BLOCKS and n_windows % block
    elif dim == 16:
        # about two blocks in each epoch
        assert n_windows > _block_windows(params, g.n)
    if kind == "biased":
        assert any(len(np.unique(s)) < len(s) for s in corpus.sequences)
    m = train(init_model(g, params), corpus, params)
    ref = init_model(g, params)
    reference_train(ref, corpus, params)
    assert np.array_equal(m.w_in.view(np.uint32), ref.w_in.view(np.uint32))
    assert np.array_equal(m.w_out.view(np.uint32), ref.w_out.view(np.uint32))


@pytest.mark.parametrize("mode", ["exact", "neg"])
def test_float32_model_trains_in_float32(mode, monkeypatch):
    g, corpora = reference_corpora()
    params = TrainParams(dim=6, window=5, epochs=1, mode=mode, seed=4)
    scattered = []
    scatter_add = embedding._scatter_add

    def recording(w, rows, values):
        scattered.append((w.dtype, values.dtype))
        scatter_add(w, rows, values)
    monkeypatch.setattr(embedding, "_scatter_add", recording)
    m = init_model(g, params)
    assert m.w_in.dtype == m.w_out.dtype == np.float32
    m = train(m, corpora["cocit"], params)
    assert m.w_in.dtype == m.w_out.dtype == np.float32
    assert scattered
    assert set(scattered) == {(np.dtype(np.float32), np.dtype(np.float32))}


def test_exact_block_cap(monkeypatch):
    params = TrainParams(dim=32, window=10, mode="exact")
    # criterion 5's graph and the 5k benchmark graph's 2009 slice train in
    # uncapped blocks; a 46,812-row graph does not
    assert _block_windows(params, 1000) == _block_windows(params, 4669) == 204
    assert _block_windows(params, 46812) == 22
    assert _block_windows(params, 10 ** 7) == 1
    assert _block_windows(TrainParams(dim=32, window=10, mode="neg"),
                          46812) == 204
    # a cap that binds keeps train and the reference on the same blocks
    g, corpora = reference_corpora()
    params = TrainParams(dim=6, window=5, epochs=2, mode="exact", seed=4)
    monkeypatch.setattr(embedding, "EXACT_BLOCK_FLOATS", 7 * g.n + 3)
    assert _block_windows(params, g.n) == 7
    m = train(init_model(g, params), corpora["biased"], params)
    ref = init_model(g, params)
    reference_train(ref, corpora["biased"], params)
    assert np.array_equal(m.w_in.view(np.uint32), ref.w_in.view(np.uint32))
    assert np.array_equal(m.w_out.view(np.uint32), ref.w_out.view(np.uint32))


ROOT = Path(__file__).resolve().parent.parent

# one epoch of each objective on criterion 5's graph, whose exact blocks
# are 204 x 1000 products, well past the size where OpenBLAS starts threads
TRAIN_BOTH_MODES = """
import sys
import numpy as np
from citerec.embedding import TrainParams, init_model, train
from citerec.sampling import cocitation_corpus
from tests.conftest import make_planted_graph

g, _ = make_planted_graph(n_clusters=4, targets=150, citers=100, refs=10,
                          seed=7)
corpus = cocitation_corpus(g, 10, seed=1)
for mode in ("exact", "neg"):
    params = TrainParams(dim=32, window=10, epochs=1, mode=mode, seed=2)
    m = train(init_model(g, params), corpus, params)
    np.save(f"{sys.argv[1]}/{mode}.npy", np.stack([m.w_in, m.w_out]))
"""


def test_train_bits_do_not_depend_on_blas_threads(tmp_path):
    dirs = run_under_blas_threads(TRAIN_BOTH_MODES, tmp_path)
    for mode in ("exact", "neg"):
        one, two = (np.load(d / f"{mode}.npy") for d in dirs)
        assert np.array_equal(one.view(np.uint32), two.view(np.uint32)), mode


# evaluate with all six methods on a 1,500-paper graph over two slice years
# of about 1,300 rows each: every query runs one float32 CitMod product
# (sgemv, 1,300 x 32) and float64 cosine products over up to 20 seeds.
# Every ranked list, scores included, is kept with the per-query records.
EVALUATE_ALL_METHODS = """
import pickle
import sys
from citerec import evaluation
from citerec.embedding import TrainParams
from citerec.ranking import ALL_METHODS
from tests.conftest import make_synthetic_citation_corpus_graph

ranked = []
recommend = evaluation.recommend


def recording(method, seeds, k, **kwargs):
    out = recommend(method, seeds, k, **kwargs)
    ranked.append((method, tuple(seeds), out))
    return out


evaluation.recommend = recording
g = make_synthetic_citation_corpus_graph(n_papers=1500, year_lo=2000,
                                         year_hi=2010, seed=3)
cfg = evaluation.ExperimentConfig(
    hidden_ratios=(0.1, 0.9), n_queries=10, ref_range=(5, 25),
    year_range=(2009, 2010), k_values=(10, 50), methods=ALL_METHODS, seed=2)
tparams = TrainParams(dim=32, window=10, epochs=1, mode="neg", seed=2)
_, records, _ = evaluation.evaluate(g, cfg, tparams, "cocit", 1)
with open(sys.argv[1] + "/evaluate.pkl", "wb") as f:
    # PaperRank ranks in a thread pool, so its calls come in any order
    pickle.dump((records, sorted(ranked)), f)
"""


def run_under_blas_threads(script, tmp_path):
    """Run ``script`` under 1 and 2 OpenBLAS threads; returns the two
    output directories it was given."""
    dirs = []
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
        subprocess.run([sys.executable, "-c", script, str(tmp_path / threads)],
                       cwd=ROOT, env=env, check=True, timeout=600)
        dirs.append(tmp_path / threads)
    return dirs


def test_evaluate_bits_do_not_depend_on_blas_threads(tmp_path):
    one, two = run_under_blas_threads(EVALUATE_ALL_METHODS, tmp_path)
    records, ranked = pickle.loads((one / "evaluate.pkl").read_bytes())
    assert {rec["method"] for rec in records} == set(ALL_METHODS)
    assert len(ranked) == len(records)
    assert (one / "evaluate.pkl").read_bytes() == \
        (two / "evaluate.pkl").read_bytes()


# token counts (1, 5, 5): the noise CDF ends 2.2e-16 below 1
SHORT_CDF_TOKENS = np.array([0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 2])


def test_noise_draw_past_cdf_end_goes_to_last_row(monkeypatch):
    noise = _noise_distribution(SHORT_CDF_TOKENS, 3)
    top = np.nextafter(1.0, 0.0)
    assert np.cumsum(noise)[-1] == 1.0 - 2.0 ** -52 < top
    assert np.searchsorted(np.cumsum(noise), top) == 3
    assert _noise_sampler(noise)(np.array([top])).tolist() == [2]

    # a generator whose uniform draws are all that largest double below 1
    real_rng = np.random.default_rng

    class TopDraws:
        def __init__(self, seed):
            self.rng = real_rng(seed)

        def permutation(self, n):
            return self.rng.permutation(n)

        def random(self, size):
            return np.full(size, top)

    g = chain_graph(3)
    corpus = corpus_of([[0, 1, 2, 1, 2, 1], [2, 1, 2, 1, 2]])
    assert np.bincount(corpus.tokens).tolist() == [1, 5, 5]
    params = TrainParams(dim=4, window=2, epochs=2, mode="neg", seed=3)
    m, ref = init_model(g, params), init_model(g, params)
    monkeypatch.setattr(np.random, "default_rng", TopDraws)
    train(m, corpus, params)
    reference_train(ref, corpus, params)
    assert np.array_equal(m.w_in, ref.w_in)
    assert np.array_equal(m.w_out, ref.w_out)


@st.composite
def noise_and_draws(draw):
    """A noise distribution from token counts, with zero counts and
    sometimes one dominant row, and draws in [0, 1) that include 0, the
    bucket edges, the doubles just below them, the CDF's own entries and
    their neighbours."""
    counts = draw(st.lists(st.sampled_from([0, 0, 1, 2, 3, 5, 40]),
                           min_size=1, max_size=60))
    if draw(st.booleans()):
        counts[draw(st.integers(0, len(counts) - 1))] = 10 ** 9
    if not any(counts):
        counts[-1] = 1
    # _noise_distribution's formula, without a billion tokens to count
    noise = np.array(counts, dtype=np.float64) ** 0.75
    noise /= noise.sum()
    cdf = np.cumsum(noise)
    buckets = embedding.NOISE_BUCKETS
    edge = st.integers(0, buckets - 1).map(lambda b: b / buckets)
    below_edge = st.integers(1, buckets).map(
        lambda b: np.nextafter(b / buckets, 0.0))
    key = st.sampled_from(cdf.tolist()).flatmap(lambda c: st.sampled_from(
        [np.nextafter(c, 0.0), c, np.nextafter(c, 1.0)]))
    u = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True),
                  edge, below_edge, key.filter(lambda x: x < 1.0))
    return noise, np.array(draw(st.lists(u, min_size=1, max_size=40)))


@settings(max_examples=300, deadline=None)
@example((_noise_distribution(SHORT_CDF_TOKENS, 3),
          np.array([0.0, np.nextafter(1.0, 0.0), 0.5])))
@given(noise_and_draws())
def test_noise_sampler_matches_searchsorted(case):
    noise, u = case
    last = np.flatnonzero(noise)[-1]
    want = np.minimum(np.searchsorted(np.cumsum(noise), u), last)
    got = _noise_sampler(noise)(u)
    assert got.tolist() == want.tolist()
    # a chunk's draws come as one (windows, negatives) array
    assert _noise_sampler(noise)(u.reshape(-1, 1)).ravel().tolist() == \
        want.tolist()


def test_train_neg_applies_target_drawn_as_own_negative():
    # two papers: a window's target is often among its own negatives
    g = chain_graph(2)
    params = TrainParams(dim=4, window=1, epochs=1, lr=0.1, mode="neg",
                         negatives=5, seed=3)
    m = init_model(g, params)
    w_in0 = m.w_in.copy()
    train(m, corpus_of([[0, 1]]), params)
    # both windows fall in one block and read w_out = 0, so every score is
    # 1/2 and every output slot adds -lr * (1/2 - label) * h
    rng = np.random.default_rng([params.seed, 0x7472])
    order = rng.permutation(2)
    negs = np.searchsorted(np.cumsum(_noise_distribution(np.array([0, 1]), 2)),
                           rng.random((2, params.negatives)))
    assert any(int(w) in negs[j] for j, w in enumerate(order))
    want = np.zeros_like(m.w_out)
    for step, (target, neg_rows) in enumerate(zip(order, negs)):
        lr = params.lr - (params.lr - params.lr_min) * step / 2
        h = w_in0[1 - target]
        want[target] -= lr * (0.5 - 1.0) * h
        for r in neg_rows:
            want[r] -= lr * 0.5 * h
    np.testing.assert_allclose(m.w_out, want, rtol=1e-12, atol=0)


def test_train_neg_same_seed_same_bytes():
    g, corpora = reference_corpora()
    corpus = corpora["biased"]

    def trained(seed):
        params = TrainParams(dim=8, window=5, epochs=2, mode="neg", seed=seed)
        m = train(init_model(g, params), corpus, params)
        return m.w_in.tobytes() + m.w_out.tobytes()

    assert trained(4) == trained(4)
    assert trained(4) != trained(5)


@pytest.mark.parametrize("mode", ["exact", "neg"])
def test_train_logs_epoch_loss(mode, caplog):
    g, corpora = reference_corpora()
    corpus = corpora["cocit"]
    params = TrainParams(dim=8, window=5, epochs=2, mode=mode, seed=4)
    n_windows = corpus_windows(corpus, params.window)[0].size
    ref_losses = reference_train(init_model(g, params), corpus, params)
    with caplog.at_level(logging.INFO, logger="citerec.embedding"):
        train(init_model(g, params), corpus, params)
    records = [r for r in caplog.records if r.name == "citerec.embedding"]
    assert len(records) == params.epochs
    for epoch, (rec, ref_loss) in enumerate(zip(records, ref_losses), 1):
        msg = rec.getMessage()
        assert msg.startswith(f"epoch {epoch}/{params.epochs}:")
        assert f"over {n_windows} windows" in msg
        assert "windows/s" in msg
        logged = float(re.search(r"mean loss (\S+)", msg).group(1))
        assert logged == pytest.approx(ref_loss, rel=1e-5)


def test_train_non_finite_loss_names_first_step():
    g, corpora = reference_corpora()
    params = TrainParams(dim=8, window=5, epochs=1, mode="neg", seed=4)
    m = init_model(g, params)
    m.w_out[:, 0] = np.nan
    with pytest.raises(TrainingError,
                       match=r"non-finite loss at step 0 \(lr=0\.025\)"):
        train(m, corpora["cocit"], params)


def test_loss_decreases_on_toy_corpus():
    g = chain_graph(10)
    lines = [[i % 10, (i + 1) % 10, (i + 2) % 10] for i in range(10)]
    corpus = corpus_of(lines)
    windows = list(extract_windows(corpus.sequences, 2))

    def mean_loss(m):
        return float(np.mean([exact_window_loss(m.w_in, m.w_out, t, c)
                              for t, c in windows]))

    params = TrainParams(dim=8, window=2, epochs=1, seed=1)
    m = init_model(g, params)
    losses = [mean_loss(m)]
    for _ in range(5):
        train(m, corpus, params)
        losses.append(mean_loss(m))
    assert all(b < a for a, b in zip(losses, losses[1:])), losses


@pytest.mark.parametrize("mode", ["exact", "neg"])
def test_planted_clusters_nearest_neighbors(mode):
    g, target_names = make_planted_graph(targets=20, citers=15, refs=8, seed=5)
    corpus = cocitation_corpus(g, 10, seed=1)
    params = TrainParams(dim=16, window=10, epochs=10, mode=mode, seed=2)
    m = train(init_model(g, params), corpus, params)

    cluster_of = {tok: c for c, names in target_names.items() for tok in names}
    rows = np.array([m.index_of(t) for c in target_names
                     for t in target_names[c]])
    vecs = m.w_in[rows]
    vecs = vecs / np.linalg.norm(vecs, axis=1, keepdims=True)
    sims = vecs @ vecs.T
    np.fill_diagonal(sims, -np.inf)
    toks = [m.ids[r] for r in rows]
    in_cluster = []
    for i, tok in enumerate(toks):
        top5 = np.argsort(-sims[i])[:5]
        same = sum(cluster_of[toks[j]] == cluster_of[tok] for j in top5)
        in_cluster.append(same / 5)
    assert np.mean(in_cluster) >= 0.9, (mode, np.mean(in_cluster))


def test_model_save_load_roundtrip(tmp_path):
    rng = np.random.default_rng(4)
    m = EmbeddingModel([f"n{i}" for i in range(7)],
                       rng.normal(size=(7, 5)), rng.normal(size=(7, 5)))
    save_model(m, tmp_path / "model.txt")
    m2 = load_model(tmp_path / "model.txt")
    assert m2.ids == m.ids
    assert np.abs(m2.w_in - m.w_in).max() <= 1e-6
    assert np.abs(m2.w_out - m.w_out).max() <= 1e-6


def test_model_file_bytes(tmp_path):
    # each value in 9 significant digits, as f"{x:.9g}" writes it; float32
    # values, the smallest subnormal and the largest finite one among them
    f32 = np.finfo(np.float32)
    w_in = np.array([[0.1, -0.0, f32.smallest_subnormal],
                     [123456789012.0, -2.5, 7.0]], dtype=np.float32)
    w_out = np.array([[1 / 3, f32.smallest_normal, -f32.max],
                      [0.0, 2.0**-40, 1e16]], dtype=np.float32)
    save_model(EmbeddingModel(["a", "b"], w_in, w_out), tmp_path / "m.txt")
    for path, mat in ((tmp_path / "m.txt", w_in),
                      (tmp_path / "m.txt.out", w_out)):
        want = "2 3\n" + "".join(
            tok + " " + " ".join(f"{x:.9g}" for x in row.tolist()) + "\n"
            for tok, row in zip("ab", mat))
        assert path.read_text() == want


def test_model_load_truncated_errors(tmp_path):
    (tmp_path / "m.txt").write_text("3 2\na 0.1 0.2\n")
    (tmp_path / "m.txt.out").write_text("3 2\na 0 0\n")
    with pytest.raises(ValueError, match="declares 3 rows, found 1"):
        load_model(tmp_path / "m.txt")


def test_model_load_hand_written_fixture(tmp_path):
    (tmp_path / "m.txt").write_text("2 2\na 1 2\nb 3 4\n")
    (tmp_path / "m.txt.out").write_text("2 2\na 0 0\nb 0 0\n")
    m = load_model(tmp_path / "m.txt")
    assert np.array_equal(m.w_in, [[1, 2], [3, 4]])
    assert np.array_equal(m.w_out, np.zeros((2, 2)))


def test_model_load_skips_whitespace_only_lines(tmp_path):
    # the header is the first line holding more than whitespace
    (tmp_path / "m.txt").write_text("\n \n2 2\na 1 2\n\t\nb 3 4")
    (tmp_path / "m.txt.out").write_text("2 2\na 0 0\n\nb 0 0\n \n")
    m = load_model(tmp_path / "m.txt")
    assert m.ids == ["a", "b"]
    assert np.array_equal(m.w_in, [[1, 2], [3, 4]])


@pytest.mark.parametrize("text,message", [
    ("2 2\na 1 2\nb 3 x\n", ":3: could not convert string to float: 'x'"),
    ("2 2\na 1 2\na 3 4\n", ":3: repeated paper id 'a'"),
    ("2 two\na 1 2\nb 3 4\n", ":1: expected header '<N> <d>'"),
    ("", ":1: expected header '<N> <d>'"),
    ("\n \n2 x\na 1 2\nb 3 4\n", ":3: expected header '<N> <d>'"),
    ("2 2\na 1 2\nb nan 4\n", ":3: non-finite value"),
    # finite as a double, inf as a float32
    ("2 2\na 1 2\nb 4 -1e39\n", ":3: value out of float32 range"),
    # a pair of texts for m.txt and m.txt.out: the two files disagree
    (("2 2\na 1 2\nb 3 4\n", "2 3\na 0 0 0\nb 0 0 0\n"),
     ".out: 2 x 3 matrix, {m} is 2 x 2"),
    (("2 2\na 1 2\nb 3 4\n", "1 2\na 0 0\n"),
     ".out: 1 x 2 matrix, {m} is 2 x 2"),
    (("2 2\na 1 2\nb 3 4\n", "2 2\na 0 0\n\nc 0 0\n"),
     ".out:4: paper id 'c', {m} has 'b'"),
])
def test_model_load_names_bad_line(tmp_path, text, message):
    m = tmp_path / "m.txt"
    text, out = (text if isinstance(text, tuple)
                 else (text, "2 2\na 0 0\nb 0 0\n"))
    m.write_text(text)
    (tmp_path / "m.txt.out").write_text(out)
    with pytest.raises(ValueError) as err:
        load_model(m)
    assert str(err.value) == f"{m}{message.format(m=m)}"


# model ids are whitespace-separated tokens
model_tokens = st.text(st.characters(exclude_categories=("Z", "C")),
                       min_size=1, max_size=6)


def reference_load_matrix(path):
    """One model file parsed line by line, one ``float()`` per value,
    rounded to float32.  This is the reference for ``_load_matrix``, which
    parses the value block in one ``np.loadtxt`` call and must accept the
    same files, return the same bits and raise the same errors."""
    lines = text_lines(path)
    lineno, header = next(lines, (1, ""))
    try:
        n, d = (int(x) for x in header.split())
    except ValueError:
        raise ValueError(f"{path}:{lineno}: expected header '<N> <d>'") from None
    ids, rows, linenos, seen = [], [], [], set()
    for lineno, line in lines:
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
    for lineno, row in zip(linenos, mat):
        if not np.isfinite(row).all():
            raise ValueError(f"{path}:{lineno}: non-finite value")
        # float32's largest value is 2**128 - 2**104; from halfway to the
        # next power of two on, a value rounds to inf
        if (np.abs(row) >= 2.0 ** 128 - 2.0 ** 103).any():
            raise ValueError(f"{path}:{lineno}: value out of float32 range")
    return ids, mat.astype(np.float32)


def read_both(path):
    """``(ids, matrix)`` or the ``ValueError`` text, from ``_load_matrix``
    and from the reference, with every warning an error."""
    out = []
    for read in (_load_matrix, reference_load_matrix):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                out.append(read(path))
            except ValueError as exc:
                out.append(str(exc))
    return out


def assert_same_read(got, want):
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    assert got[0] == want[0]
    assert got[1].dtype == want[1].dtype == np.float32
    assert got[1].shape == want[1].shape
    # bit for bit: -0.0 and 0.0 differ here
    assert np.array_equal(got[1].view(np.uint32), want[1].view(np.uint32))


# Python's whitespace, every one of which str.split separates on
SEPARATORS = [" ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
              "\x85", "\xa0", "\u2003"]
# float() reads each of these; some are not finite, some loadtxt rejects
ODD_VALUES = ["-0", "5e-324", "1e400", "-1e400", "nan", "1_0", "+1.5", ".5",
              "\u0661\u0662.\u0665", "1e-400", "Infinity", "1__0", "0x1"]
SPELLINGS = [repr, "%.9g".__mod__, "%.17g".__mod__]


def spelled(floats):
    return st.builds(lambda spell, x: spell(x), st.sampled_from(SPELLINGS),
                     floats)


@st.composite
def model_files(draw):
    """The text of a model file: mostly what ``save_model`` could write,
    with odd separators and value spellings, and sometimes damaged."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    ids = draw(st.lists(model_tokens, min_size=n, max_size=n, unique=True))
    ascii_only = draw(st.booleans())
    sep = st.text(st.sampled_from(SEPARATORS[:3] if ascii_only
                                  else SEPARATORS), min_size=1, max_size=3)
    value = spelled(st.floats(allow_nan=False, allow_infinity=False))
    if draw(st.booleans()):
        value = st.one_of(value, st.sampled_from(ODD_VALUES),
                          spelled(st.floats()))
    damage = draw(st.sampled_from(["none", "ragged", "duplicate", "count"]))
    widths = [d] * n
    if damage == "ragged":
        widths[draw(st.integers(0, n - 1))] += draw(st.sampled_from([-1, 1]))
    if damage == "duplicate" and n > 1:
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2,
                             unique=True))
        ids[j] = ids[i]
    header = f"{n + draw(st.sampled_from([-1, 1])) if damage == 'count' else n} {d}"
    lines = [header]
    for tok, width in zip(ids, widths):
        fields = [tok] + draw(st.lists(value, min_size=width, max_size=width))
        row = fields[0]
        for f in fields[1:]:
            row += draw(sep) + f
        lines.append(draw(st.sampled_from(["", draw(sep)])) + row
                     + draw(st.sampled_from(["", draw(sep)])))
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(st.sampled_from(["", draw(sep)])))
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@settings(max_examples=300, deadline=None)
@given(model_files())
def test_load_matrix_matches_per_line_reference(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "m.txt"
        path.write_bytes(text.encode("utf-8"))
        got, want = read_both(path)
    assert_same_read(got, want)


@pytest.mark.parametrize("text,shape", [
    ("0 4\n", (0, 4)), ("2 0\na\nb\n", (2, 0)),
    # no rows after a header that declares some: an error, not a warning
    ("2 3\n", None), ("0 3\na 1 2 3\n", None)])
def test_load_matrix_empty_block_matches_reference(tmp_path, text, shape):
    (tmp_path / "m.txt").write_text(text)
    got, want = read_both(tmp_path / "m.txt")
    assert_same_read(got, want)
    if shape is None:
        assert "header declares" in got
    else:
        assert got[1].shape == shape


def test_load_matrix_parses_save_model_file_in_one_block(tmp_path,
                                                        monkeypatch):
    rng = np.random.default_rng(5)
    m = EmbeddingModel([f"n{i}" for i in range(9)], rng.normal(size=(9, 6)),
                       rng.normal(size=(9, 6)))
    save_model(m, tmp_path / "m.txt")
    want = reference_load_matrix(tmp_path / "m.txt")

    def no_fallback(*args):
        raise AssertionError("per-line parse of a save_model file")
    monkeypatch.setattr(embedding, "_parse_rows", no_fallback)
    assert_same_read(_load_matrix(tmp_path / "m.txt"), want)
    # a spelling loadtxt does not read takes the per-line parse
    (tmp_path / "m.txt").write_text("1 2\na 1_0 2\n")
    with pytest.raises(AssertionError, match="per-line parse"):
        _load_matrix(tmp_path / "m.txt")


def test_load_model_logs_path_shape_seconds(tmp_path, caplog):
    save_model(EmbeddingModel(["a", "b", "c"], np.ones((3, 2)),
                              np.zeros((3, 2))), tmp_path / "m.txt")
    with caplog.at_level(logging.INFO, logger="citerec.embedding"):
        load_model(tmp_path / "m.txt")
    msgs = [r.getMessage() for r in caplog.records
            if r.name == "citerec.embedding"]
    assert len(msgs) == 1
    assert re.fullmatch(re.escape(f"model {tmp_path / 'm.txt'}: 3 rows x 2 "
                                  "dims, ") + r"\d+\.\d{3} s", msgs[0]), msgs


@settings(max_examples=100, deadline=None)
@given(st.lists(model_tokens, min_size=1, max_size=6, unique=True),
       st.integers(1, 4), st.data())
def test_model_roundtrip_property(ids, dim, data):
    values = st.floats(width=32, allow_nan=False, allow_infinity=False)
    shape = (len(ids), dim)
    w_in, w_out = (np.array(data.draw(st.lists(values, min_size=shape[0] * dim,
                                               max_size=shape[0] * dim)),
                            dtype=np.float32).reshape(shape)
                   for _ in range(2))
    with tempfile.TemporaryDirectory() as d:
        save_model(EmbeddingModel(ids, w_in, w_out), Path(d) / "m.txt")
        m = load_model(Path(d) / "m.txt")
    assert m.ids == ids
    # 9 significant digits read back as the same float32, -0.0 included
    assert np.array_equal(m.w_in.view(np.uint32), w_in.view(np.uint32))
    assert np.array_equal(m.w_out.view(np.uint32), w_out.view(np.uint32))


def test_train_params_validation():
    with pytest.raises(ValueError):
        TrainParams(mode="softmax")
    with pytest.raises(ValueError):
        TrainParams(lr=0.0001, lr_min=0.01)
    for negatives in (0, -1):
        with pytest.raises(ValueError, match="negatives must be >= 1"):
            TrainParams(mode="neg", negatives=negatives)
    assert TrainParams(mode="neg", negatives=1).negatives == 1
