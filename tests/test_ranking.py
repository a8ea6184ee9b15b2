import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from .conftest import make_planted_graph

from citerec.cli import build_parser, recommend_inputs
from citerec.graph import CitationGraph, PaperIds
from citerec.embedding import (EmbeddingModel, PaperVectors, TrainParams,
                               forward, init_model, load_model, save_model,
                               train)
from citerec.sampling import cocitation_corpus
from citerec.ranking import (ALL_METHODS, EMBEDDING_METHODS, METHODS,
                             rank_scores, recommend, sim_avg, sim_ref, sim_wgd,
                             unit_rows, write_ranked_csv)


def model_from(vectors, w_out=None):
    ids = [f"n{i}" for i in range(len(vectors))]
    w_in = np.array(vectors, dtype=np.float64)
    if w_out is None:
        w_out = np.zeros_like(w_in)
    return EmbeddingModel(ids, w_in, w_out)


def test_sim_avg_scale_invariance():
    m = model_from([[1.0, 1.0], [2.0, 2.0]])
    assert abs(sim_avg(m, m.seed_rows(["n0"]))[1] - 1.0) < 1e-12


def test_sim_avg_average_of_orthogonal_and_parallel():
    m = model_from([[1, 0], [0, 1], [0, 1]])
    # seeds n0 (perpendicular to n2) and n1 (equal to n2)
    assert abs(sim_avg(m, m.seed_rows(["n0", "n1"]))[2] - 0.5) < 1e-12


def test_sim_avg_zero_vector_scores_zero():
    m = model_from([[1, 0], [0, 0]])
    assert sim_avg(m, m.seed_rows(["n0"]))[1] == 0.0


def test_sim_wgd_unit_degree_equals_sim_avg():
    g = CitationGraph.from_edges([("n0", "n1")])
    m = model_from(np.random.default_rng(0).normal(size=(2, 3)))
    rows = m.seed_rows(["n0"])
    assert np.allclose(sim_wgd(m, g, rows), sim_avg(m, rows))


def test_sim_wgd_degree_weighting_arithmetic():
    # n0 has degree 1, n1 degree 4; both at cosine 4/5 to candidate n6,
    # from 3-4-5 vectors that a float32 model holds exactly
    edges = [("n0", "n5"),
             ("n1", "n5"), ("n1", "n6"), ("n1", "n7"), ("n1", "n8")]
    g = CitationGraph.from_edges(edges)
    vecs = np.zeros((g.n, 2))
    vecs[g.index_of("n6")] = [1.0, 0.0]
    vecs[g.index_of("n0")] = [4.0, 3.0]
    vecs[g.index_of("n1")] = [4.0, -3.0]
    m = EmbeddingModel(g.ids, vecs, np.zeros_like(vecs))
    score = sim_wgd(m, g, m.seed_rows(["n0", "n1"]))[m.index_of("n6")]
    assert abs(score - (0.8 + 0.2) / 2) < 1e-12


def test_sim_wgd_all_isolated_seeds():
    g = CitationGraph.from_edges([], years={"n0": 2000, "n1": 2000})
    m = model_from([[1, 0], [1, 0]])
    assert np.all(sim_wgd(m, g, m.seed_rows(["n0"])) == 0)


def test_sim_ref_single_seed_collapses_to_sim_avg():
    m = model_from(np.random.default_rng(1).normal(size=(6, 4)))
    rows = m.seed_rows(["n2"])
    assert np.allclose(sim_ref(m, rows), sim_avg(m, rows))


def test_sim_ref_cancellation():
    m = model_from([[1, 1], [-1, -1], [0.5, 0.3]])
    assert np.all(sim_ref(m, m.seed_rows(["n0", "n1"])) == 0)


def test_sim_ref_equals_sim_avg_ranking_when_normalized():
    rng = np.random.default_rng(2)
    vecs = rng.normal(size=(20, 6))
    vecs /= np.linalg.norm(vecs, axis=1, keepdims=True)
    m = model_from(vecs)
    seeds = m.seed_rows(["n1", "n4", "n9"])
    a, r = sim_avg(m, seeds), sim_ref(m, seeds)
    assert np.array_equal(np.argsort(-a, kind="stable"),
                          np.argsort(-r, kind="stable"))
    # scores differ by the positive factor |S| / ||sum of seed vectors||
    factor = 3 / np.linalg.norm(vecs[[1, 4, 9]].sum(axis=0))
    assert np.allclose(r, a * factor)


def test_cit_mod_uniform_and_normalized():
    m = model_from(np.random.default_rng(3).normal(size=(5, 4)))
    probs = forward(m, m.seed_rows(["n0", "n3"]))
    assert np.allclose(probs, 0.2)
    m2 = model_from(np.random.default_rng(4).normal(size=(5, 4)),
                    w_out=np.random.default_rng(5).normal(size=(5, 4)))
    probs = forward(m2, m2.seed_rows(["n0", "n3"]))
    assert abs(probs.sum() - 1.0) < 1e-9
    assert np.allclose(probs, forward(m2, m2.seed_rows(["n3", "n0"])))


def test_positive_rescaling_invariance():
    rng = np.random.default_rng(6)
    m = model_from(rng.normal(size=(10, 4)))
    seeds = m.seed_rows(["n0", "n1"])
    before = {f: f(m, seeds) for f in (sim_avg, sim_ref)}
    wgd_g = CitationGraph.from_edges([("n0", "n1")] +
                                     [(f"n{i}", "n0") for i in range(2, 10)])
    before_wgd = sim_wgd(m, wgd_g, seeds)
    m.w_in[7] *= 13.5
    for f, prev in before.items():
        assert np.allclose(f(m, seeds), prev)
    assert np.allclose(sim_wgd(m, wgd_g, seeds), before_wgd)


def test_recommend_truncation_and_exclusion():
    m = model_from(np.random.default_rng(7).normal(size=(6, 3)))
    ranked = recommend("simavg", ["n0", "n1"], 100, model=m)
    assert len(ranked) == 4
    assert not {"n0", "n1"} & {tok for tok, _ in ranked}
    top2 = recommend("simavg", ["n0", "n1"], 2, model=m)
    assert top2 == ranked[:2]


def test_rank_tie_break_by_internal_index():
    ranked = rank_scores(["a", "b", "c", "d"], [0.5, 0.7, 0.5, 0.7],
                         np.array([], np.int64), 4)
    assert [tok for tok, _ in ranked] == ["b", "d", "a", "c"]


def test_recommend_method_input_mismatch():
    with pytest.raises(ValueError):
        recommend("cf", ["n0"], 5)
    with pytest.raises(ValueError):
        recommend("simavg", ["n0"], 5)
    with pytest.raises(ValueError):
        recommend("bogus", ["n0"], 5, model=model_from([[1.0]]))


def test_ranked_csv_format(tmp_path):
    write_ranked_csv(tmp_path / "r.csv", [("a", 0.123456789), ("b", 0.5)])
    lines = (tmp_path / "r.csv").read_text().splitlines()
    assert lines[0] == "rank,paper_id,score"
    assert lines[1] == "1,a,0.123457"
    assert lines[2] == "2,b,0.500000"


# Reference scorers: one full cosine pass per seed, straight from the
# definitions.  The cosine core must agree with them.

def _w64(m: EmbeddingModel):
    """The model's stored float32 input matrix, read as float64."""
    return m.w_in.astype(np.float64)


def _cosine_to_all(m: EmbeddingModel, vec):
    """Cosine of every input-matrix row against vec; zero vectors score 0."""
    w = _w64(m)
    norms = np.linalg.norm(w, axis=1)
    vnorm = np.linalg.norm(vec)
    if vnorm == 0:
        return np.zeros(m.n)
    denom = norms * vnorm
    out = np.zeros(m.n)
    nz = denom > 0
    out[nz] = (w[nz] @ vec) / denom[nz]
    return out


def _reference_rows(m, seeds):
    """The rows of the seed set: a repeated seed counts once."""
    return np.array(sorted({m.index_of(s) for s in seeds}), dtype=np.int64)


def reference_sim_avg(m, seeds):
    rows = _reference_rows(m, seeds)
    scores = np.zeros(m.n)
    for r in rows:
        scores += _cosine_to_all(m, _w64(m)[r])
    return scores / rows.size


def reference_sim_wgd(m, g, seeds):
    rows = _reference_rows(m, seeds)
    scores = np.zeros(m.n)
    for r, tok in zip(rows, (m.ids[r] for r in rows)):
        delta = g.degree(g.index_of(tok))
        if delta == 0:
            continue
        scores += _cosine_to_all(m, _w64(m)[r]) / delta
    return scores / rows.size


def reference_sim_ref(m, seeds):
    rows = _reference_rows(m, seeds)
    return _cosine_to_all(m, _w64(m)[rows].mean(axis=0))


@st.composite
def models_seeds_graphs(draw, integral):
    """A model with zero rows, a seed list with repeats, and a training
    graph in which some seeds are isolated."""
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 5))
    if integral:
        vecs = np.array(draw(st.lists(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d),
            min_size=n, max_size=n)), dtype=np.float64)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        vecs = rng.normal(size=(n, d))
    for i in draw(st.sets(st.integers(0, n - 1), max_size=n // 2)):
        vecs[i] = 0.0
    m = model_from(vecs)
    seeds = [f"n{i}" for i in draw(
        st.lists(st.integers(0, n - 1), min_size=1, max_size=8))]
    edges = [(f"n{a}", f"n{b}") for a, b in draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
        max_size=2 * n)) if a != b]
    g = CitationGraph.from_edges(edges, years={t: 2000 for t in m.ids})
    return m, seeds, g


def _scorer_pairs(m, seeds, g):
    # With integer vectors every dot product is exact whatever its order;
    # a power-of-two count of distinct seeds also keeps the mean seed vector
    # exact.  Their repeats stay in the list.
    distinct = list(dict.fromkeys(seeds))
    kept = set(distinct[:1 << (len(distinct).bit_length() - 1)])
    ref_seeds = [s for s in seeds if s in kept]
    rows, ref_rows = m.seed_rows(seeds), m.seed_rows(ref_seeds)
    return [(sim_avg(m, rows), reference_sim_avg(m, seeds), rows),
            (sim_wgd(m, g, rows), reference_sim_wgd(m, g, seeds), rows),
            (sim_ref(m, ref_rows), reference_sim_ref(m, ref_seeds),
             ref_rows)]


# One-product references: the unit rows built row by row, each reference
# vector summed seed by seed in ascending row order, then one einsum, as
# the cosine core computes them.

def _reference_unit_rows(m):
    w = _w64(m)
    u = np.zeros_like(w)
    for i, row in enumerate(w):
        norm = np.sqrt(row @ row)
        if norm > 0:
            u[i] = row / norm
    return u


def _product(u, ref):
    return np.einsum("ij,j->i", u, ref)


def product_sim_avg(m, seeds):
    u, rows = _reference_unit_rows(m), _reference_rows(m, seeds)
    acc = u[rows[0]]
    for r in rows[1:]:
        acc = acc + u[r]
    return _product(u, acc / rows.size)


def product_sim_wgd(m, g, seeds):
    u, rows = _reference_unit_rows(m), _reference_rows(m, seeds)
    acc = np.zeros(m.dim)
    for r in rows:
        delta = g.degree(g.index_of(m.ids[r]))
        if delta:
            acc = acc + u[r] / delta
    return _product(u, acc / rows.size)


def product_sim_ref(m, seeds):
    u, rows = _reference_unit_rows(m), _reference_rows(m, seeds)
    acc = _w64(m)[rows[0]]
    for r in rows[1:]:
        acc = acc + _w64(m)[r]
    mean = acc / rows.size
    norm = np.sqrt(mean @ mean)
    return _product(u, mean / norm) if norm > 0 else np.zeros(m.n)


@settings(max_examples=200, deadline=None)
@given(models_seeds_graphs(integral=True))
def test_cosine_core_matches_per_seed_reference(case):
    # Each scorer is one product over unit rows, so its bits are those of a
    # reference that computes the same products in the same order; the
    # per-seed cosines agree to rounding, and on integer vectors an
    # orthogonal pair's cosine may read 2.2e-17, not 0, which reorders ties.
    m, seeds, g = case
    for new, ref, used in _scorer_pairs(m, seeds, g):
        np.testing.assert_allclose(new, ref, rtol=0, atol=1e-12)
    rows = m.seed_rows(seeds)
    for new, ref in [(sim_avg(m, rows), product_sim_avg(m, seeds)),
                     (sim_wgd(m, g, rows), product_sim_wgd(m, g, seeds)),
                     (sim_ref(m, rows), product_sim_ref(m, seeds))]:
        assert np.array_equal(new, ref)
        assert (rank_scores(m.ids, new, rows, m.n)
                == rank_scores(m.ids, ref, rows, m.n))


@settings(max_examples=100, deadline=None)
@given(models_seeds_graphs(integral=False))
def test_cosine_core_close_to_reference_on_real_vectors(case):
    # real-valued products round in BLAS order, so only closeness holds;
    # both read the model's stored float32 values as float64
    m, seeds, g = case
    for new, ref, _ in _scorer_pairs(m, seeds, g):
        np.testing.assert_allclose(new, ref, rtol=0, atol=1e-12)


def test_registry_runs_every_method_and_feeds_the_cli():
    assert EMBEDDING_METHODS == ("simavg", "simwgd", "simref", "citmod")
    assert ALL_METHODS == EMBEDDING_METHODS + ("paperrank", "cf")
    assert list(METHODS) == list(ALL_METHODS) + ["random"]
    g = CitationGraph.from_edges([("n0", "n1"), ("n1", "n2"), ("n3", "n0")])
    rng = np.random.default_rng(8)
    m = EmbeddingModel(g.ids, rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
    for method in METHODS:
        ranked = recommend(method, ["n0", "n0"], 5, model=m, graph=g,
                           rng=np.random.default_rng(0))
        assert sorted(tok for tok, _ in ranked) == ["n1", "n2", "n3"]
    with pytest.raises(ValueError, match="requires an RNG"):
        recommend("random", ["n0"], 5, graph=g)
    with pytest.raises(ValueError, match="requires a graph"):
        recommend("simwgd", ["n0"], 5, model=m)
    # the cosine methods read the input vectors alone; CitMod needs w_out
    vectors = PaperVectors(m.ids, m.w_in)
    for method in ("simavg", "simref"):
        assert recommend(method, ["n0"], 5, model=vectors) == recommend(
            method, ["n0"], 5, model=m)
    for model in (vectors, None):
        with pytest.raises(ValueError, match="^method 'citmod' requires an "
                                             "embedding model$"):
            recommend("citmod", ["n0"], 5, model=model)

    sub = build_parser()._subparsers._group_actions[0].choices
    method_arg, = [a for a in sub["recommend"]._actions if a.dest == "method"]
    assert list(method_arg.choices) == list(ALL_METHODS)
    assert sub["evaluate"].get_default("methods") == ",".join(ALL_METHODS)


@pytest.mark.parametrize("method", list(METHODS))
def test_recommend_resolves_the_seeds_once(method, monkeypatch):
    g = CitationGraph.from_edges([("n0", "n1"), ("n1", "n2"), ("n3", "n0")])
    rng = np.random.default_rng(8)
    m = EmbeddingModel(g.ids, rng.normal(size=(4, 3)), rng.normal(size=(4, 3)))
    calls = []
    seed_rows = PaperIds.seed_rows

    def counted(self, seeds):
        calls.append(seeds)
        return seed_rows(self, seeds)

    monkeypatch.setattr(PaperIds, "seed_rows", counted)
    recommend(method, ["n0", "n3", "n0"], 2, model=m, graph=g,
              rng=np.random.default_rng(0))
    assert calls == [["n0", "n3", "n0"]]


def test_random_rejects_unknown_and_empty_seeds():
    g = CitationGraph.from_edges([("n0", "n1"), ("n1", "n2")])
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="unknown paper id: 'ZZ'"):
        recommend("random", ["n0", "ZZ"], 2, graph=g, rng=rng)
    with pytest.raises(ValueError, match="seed set must be non-empty"):
        recommend("random", [], 2, graph=g, rng=rng)


def reference_rank_scores(ids, scores, exclude_rows, k=None):
    """The full-sort ranking: lexsort every id, then walk the order."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    order = np.lexsort((np.arange(n), -scores))
    excluded = set(exclude_rows)
    out = []
    for i in order:
        if i in excluded:
            continue
        out.append((ids[i], float(scores[i])))
        if k is not None and len(out) == k:
            break
    return out


def _bits(ranked):
    # NaN != NaN, so compare scores by their bytes (which also tells -0.0
    # from 0.0)
    return [(tok, np.float64(s).tobytes()) for tok, s in ranked]


@st.composite
def scores_exclusions_ks(draw):
    n = draw(st.integers(1, 30))
    special = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan])
    value = draw(st.sampled_from(["integer", "special", "float"]))
    if value == "integer":  # few distinct values: heavy ties at the cut
        elem = st.integers(-3, 3).map(float)
    elif value == "special":
        elem = st.one_of(special, st.integers(-2, 2).map(float))
    else:
        elem = st.one_of(special, st.floats(-1e3, 1e3))
    scores = draw(st.lists(elem, min_size=n, max_size=n))
    ids = [f"p{i}" for i in range(n)]
    # repeats, in any order
    exclude = draw(st.lists(st.integers(0, n - 1), max_size=n + 2))
    n_excl = len(set(exclude))
    ks = [1, n - n_excl, n - n_excl + 1, n, n + 5, draw(st.integers(1, n))]
    return ids, scores, exclude, ks


_NAN_CUT = [0.1, np.nan, 0.3, np.nan, 0.2, -0.0, 0.0, np.inf]


@settings(max_examples=400, deadline=None)
@given(scores_exclusions_ks())
# NaN ranks last, where np.partition would take it for the largest score
@example((list("abcdefgh"), _NAN_CUT, [], [3]))
@example((list("abcdefgh"), _NAN_CUT, [7], [5]))
def test_rank_scores_matches_full_sort_reference(case):
    ids, scores, exclude, ks = case
    for k in ks:
        assert _bits(rank_scores(ids, scores, exclude, k)) == _bits(
            reference_rank_scores(ids, scores, exclude, k)), k


def test_unit_rows_are_unit_keep_zero_rows_and_copy():
    m = model_from([[3, 4], [0, 0], [-1, 0], [1e-20, 0]])
    u = unit_rows(m)
    assert u.dtype == np.float64
    assert u.tolist() == [[0.6, 0.8], [0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]
    assert not np.shares_memory(u, m.w_in)


@pytest.mark.parametrize("method", ["simavg", "simwgd", "simref"])
def test_prepared_unit_rows_rank_with_the_bits_of_a_bare_model(method):
    # run_experiment passes unit rows prepared once per model; recommend
    # computes them per call, so an in-place edit of w_in is never stale
    g = CitationGraph.from_edges([(f"n{i}", f"n{(3 * i) % 11}")
                                  for i in range(11) if i != (3 * i) % 11])
    rng = np.random.default_rng(12)
    m = EmbeddingModel(g.ids, rng.normal(size=(g.n, 5)),
                       rng.normal(size=(g.n, 5)))
    seeds = ["n1", "n4", "n9", "n4"]
    bare = _bits(recommend(method, seeds, g.n, model=m, graph=g))
    assert _bits(recommend(method, seeds, g.n, model=m, graph=g,
                           unit=unit_rows(m))) == bare
    m.w_in[2] = -m.w_in[2]
    assert _bits(recommend(method, seeds, g.n, model=m, graph=g)) != bare


@pytest.mark.parametrize("method", EMBEDDING_METHODS)
def test_model_file_ranks_with_the_bits_of_the_model_in_memory(method,
                                                              tmp_path):
    # evaluate ranks a trained model in memory; recommend ranks its file,
    # read as the command line reads it for that method
    g, _ = make_planted_graph(targets=20, citers=15, refs=8, seed=5)
    params = TrainParams(dim=8, window=5, epochs=2, mode="neg", seed=4)
    m = train(init_model(g, params), cocitation_corpus(g, 3, seed=1), params)
    save_model(m, tmp_path / "m.txt")
    loaded = load_model(tmp_path / "m.txt")
    read = recommend_inputs(method, tmp_path / "m.txt")["model"]
    assert isinstance(read, EmbeddingModel) == (
        "model" in METHODS[method].needs)
    seeds = [g.ids[i] for i in (0, 3, 7, 3)]
    ranked = [_bits(recommend(method, seeds, g.n, model=model, graph=g))
              for model in (m, loaded, read)]
    assert len(ranked[0]) == g.n - 3
    assert ranked[0] == ranked[1] == ranked[2]
