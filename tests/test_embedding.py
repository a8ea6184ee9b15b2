import logging
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citerec.graph import CitationGraph
from citerec.sampling import (SamplingParams, WalkCorpus, cocitation_corpus,
                              generate_walk_corpus)
from citerec.embedding import (EmbeddingModel, TrainParams, TrainingError,
                               _block_windows, _noise_distribution, _sigmoid,
                               context_windows, exact_gradients, exact_loss,
                               extract_windows, forward, init_model,
                               load_model, save_model, softmax, train)
from .conftest import make_planted_graph


def chain_graph(n):
    return CitationGraph.from_edges([(f"n{i}", f"n{i+1}") for i in range(n - 1)])


def corpus_of(lines):
    return WalkCorpus(sequences=[np.array(l, dtype=np.int64) for l in lines])


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 6), max_size=12), max_size=8),
       st.integers(1, 14))
def test_context_windows_match_extract_windows(sequences, w):
    targets, context, offsets = context_windows(sequences, w)
    expected = list(extract_windows(sequences, w))
    assert targets.dtype == context.dtype == np.int32
    assert offsets.dtype == np.int64
    assert offsets[0] == 0 and offsets.size == targets.size + 1
    assert offsets[-1] == context.size
    assert [int(t) for t in targets] == [t for t, _ in expected]
    for i, (_, ctx) in enumerate(expected):
        assert context[offsets[i]:offsets[i + 1]].tolist() == ctx.tolist()


def test_context_windows_span_chunks():
    # more windows than one chunk holds at w=3, with ragged sequences
    rng = np.random.default_rng(0)
    seqs = [rng.integers(0, 50, size=rng.integers(0, 30)) for _ in range(2000)]
    targets, context, offsets = context_windows(seqs, 3)
    expected = list(extract_windows(seqs, 3))
    assert targets.tolist() == [t for t, _ in expected]
    assert context.tolist() == np.concatenate([c for _, c in expected]).tolist()


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


def test_forward_unknown_id_errors():
    m = EmbeddingModel(["a"], np.ones((1, 2)), np.zeros((1, 2)))
    with pytest.raises(KeyError):
        forward(m, ["z"])


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


@pytest.mark.parametrize("ctx", [[3], [1, 4, 7, 9]])
def test_gradients_match_finite_differences(ctx):
    rng = np.random.default_rng(2)
    n, d = 12, 8
    m = EmbeddingModel([f"n{i}" for i in range(n)],
                       rng.normal(scale=0.3, size=(n, d)),
                       rng.normal(scale=0.3, size=(n, d)))
    target = 0
    loss, d_in, d_out = exact_gradients(m, target, np.array(ctx))
    eps = 1e-4
    for mat, grad in ((m.w_in, d_in), (m.w_out, d_out)):
        for i in range(n):
            for j in range(d):
                orig = mat[i, j]
                mat[i, j] = orig + eps
                up = exact_loss(m, target, ctx)
                mat[i, j] = orig - eps
                dn = exact_loss(m, target, ctx)
                mat[i, j] = orig
                fd = (up - dn) / (2 * eps)
                if abs(fd) < 1e-10 and abs(grad[i, j]) < 1e-10:
                    continue
                rel = abs(fd - grad[i, j]) / max(abs(fd), abs(grad[i, j]))
                assert rel < 1e-4, (i, j, fd, grad[i, j])


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
    seqs = [[0, 3, 3], np.array([3, 1], dtype=np.int32), [], [4]]
    freq = np.zeros(6)
    for seq in seqs:
        np.add.at(freq, np.asarray(seq, dtype=np.int64), 1.0)
    want = freq ** 0.75 / (freq ** 0.75).sum()
    got = _noise_distribution(seqs, 6)
    assert got.dtype == np.float64
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


def test_train_step_matches_analytic_gradient():
    g = chain_graph(5)
    params = TrainParams(dim=4, window=1, epochs=1, lr=0.1, lr_min=0.0,
                         seed=7)
    corpus = corpus_of([[0, 1, 2]])
    m = init_model(g, params)
    ref_in, ref_out = m.w_in.copy(), m.w_out.copy()

    # replay the exact update sequence with the oracle gradients
    windows = list(extract_windows(corpus.sequences, params.window))
    order = np.random.default_rng([params.seed, 0x7472]).permutation(len(windows))
    total = len(windows)
    for step, wi in enumerate(order):
        target, ctx = windows[wi]
        ref = EmbeddingModel(m.ids, ref_in, ref_out)
        _, d_in, d_out = exact_gradients(ref, target, ctx)
        lr = params.lr - (params.lr - params.lr_min) * step / total
        ref_in = ref_in - lr * d_in
        ref_out = ref_out - lr * d_out

    train(m, corpus, params)
    assert np.allclose(m.w_in, ref_in, atol=1e-12)
    assert np.allclose(m.w_out, ref_out, atol=1e-12)


def reference_train(m, corpus, params):
    """The trainer that ``train`` must reproduce bit for bit, one window at
    a time; returns each epoch's mean loss.

    ``exact`` mode steps through the windows in order.  ``neg`` mode takes
    each block of windows as one step: every window reads the parameters as
    they were at the start of its block, then every update is applied in
    step order, each repeated row included, and each context row gets the
    undivided context error.
    """
    windows = list(extract_windows(corpus.sequences, params.window))
    rng = np.random.default_rng([params.seed, 0x7472])
    w_in, w_out = m.w_in, m.w_out
    block = _block_windows(params)
    if params.mode == "neg":
        noise_cdf = np.cumsum(_noise_distribution(corpus.sequences, m.n))
        labels = np.zeros(params.negatives + 1)
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
                negs = np.searchsorted(noise_cdf,
                                       rng.random((blk.size, params.negatives)))
                in0, out0 = w_in.copy(), w_out.copy()
            for j, wi in enumerate(blk):
                target, rows = windows[wi]
                lr = params.lr - (params.lr - params.lr_min) * (step / total)
                if params.mode == "exact":
                    h = w_in[rows].mean(axis=0)
                    probs = softmax(w_out @ h)
                    loss = -np.log(probs[target])
                    dlogits = probs
                    dlogits[target] -= 1.0
                    dh = w_out.T @ dlogits
                    w_out -= lr * np.outer(dlogits, h)
                    np.add.at(w_in, rows, -lr * dh / rows.size)
                else:
                    out_rows = [target, *negs[j]]
                    # a one-segment reduceat adds in train's order, which
                    # differs from sum()'s in the last bit
                    h = np.add.reduceat(in0[rows], [0])[0] / rows.size
                    wo = out0[out_rows]
                    scores = _sigmoid(np.einsum("kd,d->k", wo, h))
                    loss = -np.log(np.abs(1.0 - labels - scores) + 1e-12).sum()
                    derr = scores - labels
                    dh = np.einsum("k,kd->d", derr, wo)
                    for r, e in zip(out_rows, derr):
                        w_out[r] -= (lr * e) * h
                    for c in rows:
                        w_in[c] -= lr * dh
                loss_sum += loss
                step += 1
        epoch_losses.append(loss_sum / len(windows))
    return epoch_losses


def reference_corpora():
    g, _ = make_planted_graph(targets=20, citers=15, refs=8, seed=5)
    cocit = cocitation_corpus(g, 3, seed=1)
    walks = generate_walk_corpus(
        g, SamplingParams(n=1, t=10, p=0.25, q=4.0, seed=3), strategy="biased")
    # short lines: one without a window, and two shorter than the window
    short = [np.array(s, dtype=np.int64) for s in ([4], [7, 9], [3, 5, 3])]
    cocit.sequences += short
    walks.sequences += short
    return g, {"cocit": cocit, "biased": walks}


@pytest.mark.parametrize("mode", ["exact", "neg"])
@pytest.mark.parametrize("kind", ["cocit", "biased"])
def test_train_byte_identical_to_reference(mode, kind):
    g, corpora = reference_corpora()
    corpus = corpora[kind]
    # dim 16 puts about two blocks in each epoch
    params = TrainParams(dim=16, window=5, epochs=3, mode=mode, seed=4)
    n_windows = context_windows(corpus.sequences, params.window)[0].size
    assert n_windows > _block_windows(params)
    if kind == "biased":
        assert any(len(np.unique(s)) < len(s) for s in corpus.sequences)
    m = train(init_model(g, params), corpus, params)
    ref = init_model(g, params)
    reference_train(ref, corpus, params)
    assert np.array_equal(m.w_in, ref.w_in)
    assert np.array_equal(m.w_out, ref.w_out)


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
    negs = np.searchsorted(np.cumsum(_noise_distribution([[0, 1]], 2)),
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
    n_windows = context_windows(corpus.sequences, params.window)[0].size
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
        return float(np.mean([exact_loss(m, t, c) for t, c in windows]))

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
    # each value in 9 significant digits, as f"{x:.9g}" writes it
    w_in = np.array([[0.1, -0.0, 1e-300], [123456789012.0, -2.5, 7.0]])
    w_out = np.array([[1 / 3, 5e-324, -1e22], [0.0, 2.0**-40, 1e16]])
    save_model(EmbeddingModel(["a", "b"], w_in, w_out), tmp_path / "m.txt")
    for path, mat in ((tmp_path / "m.txt", w_in),
                      (tmp_path / "m.txt.out", w_out)):
        want = "2 3\n" + "".join(
            tok + " " + " ".join(f"{x:.9g}" for x in row) + "\n"
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
])
def test_model_load_names_bad_line(tmp_path, text, message):
    (tmp_path / "m.txt").write_text(text)
    (tmp_path / "m.txt.out").write_text("2 2\na 0 0\nb 0 0\n")
    with pytest.raises(ValueError) as err:
        load_model(tmp_path / "m.txt")
    assert str(err.value) == f"{tmp_path / 'm.txt'}{message}"


# model ids are whitespace-separated tokens
model_tokens = st.text(st.characters(exclude_categories=("Z", "C")),
                       min_size=1, max_size=6)


@settings(max_examples=100, deadline=None)
@given(st.lists(model_tokens, min_size=1, max_size=6, unique=True),
       st.integers(1, 4), st.data())
def test_model_roundtrip_property(ids, dim, data):
    values = st.floats(allow_nan=False, allow_infinity=False)
    shape = (len(ids), dim)
    w_in, w_out = (np.array(data.draw(st.lists(values, min_size=shape[0] * dim,
                                               max_size=shape[0] * dim)),
                            dtype=np.float64).reshape(shape)
                   for _ in range(2))
    with tempfile.TemporaryDirectory() as d:
        save_model(EmbeddingModel(ids, w_in, w_out), Path(d) / "m.txt")
        m = load_model(Path(d) / "m.txt")
    assert m.ids == ids
    # the text format keeps 9 significant digits
    np.testing.assert_allclose(m.w_in, w_in, rtol=1e-8, atol=0)
    np.testing.assert_allclose(m.w_out, w_out, rtol=1e-8, atol=0)


def test_train_params_validation():
    with pytest.raises(ValueError):
        TrainParams(mode="softmax")
    with pytest.raises(ValueError):
        TrainParams(lr=0.0001, lr_min=0.01)
    for negatives in (0, -1):
        with pytest.raises(ValueError, match="negatives must be >= 1"):
            TrainParams(mode="neg", negatives=negatives)
    assert TrainParams(mode="neg", negatives=1).negatives == 1
