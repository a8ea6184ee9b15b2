import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citerec.graph import YEAR_UNKNOWN, CitationGraph, GraphError
from citerec.sampling import (SamplingParams, WalkCorpus, biased_walk,
                              cocitation_corpus, generate_walk_corpus,
                              random_walk, transition_probs, _draw)


def star_graph(leaves=4):
    return CitationGraph.from_edges([("C", f"L{i}") for i in range(leaves)])


def test_sampling_params_validation():
    with pytest.raises(ValueError):
        SamplingParams(n=0)
    with pytest.raises(ValueError):
        SamplingParams(p=0)
    with pytest.raises(ValueError):
        SamplingParams(q=-1)


def test_walk_on_single_edge_alternates():
    g = CitationGraph.from_edges([("A", "B")])
    walk = random_walk(g, g.index_of("A"), 3, np.random.default_rng(0))
    assert [g.ids[i] for i in walk] == ["A", "B", "A", "B"]


def test_walk_stops_at_isolated_node():
    g = CitationGraph.from_edges([("A", "B")], years={"D": 2000})
    walk = random_walk(g, g.index_of("D"), 5, np.random.default_rng(0))
    assert [g.ids[i] for i in walk] == ["D"]


def test_uniform_first_step_frequencies():
    g = star_graph(4)
    c = g.index_of("C")
    rng = np.random.default_rng(42)
    counts = np.zeros(g.n)
    draws = 30_000
    for _ in range(draws):
        counts[random_walk(g, c, 1, rng)[1]] += 1
    for leaf in range(4):
        freq = counts[g.index_of(f"L{leaf}")] / draws
        assert abs(freq - 0.25) < 0.015


def triangle_with_pendant():
    # triangle A-B-C (undirected via citations) plus pendant D on B
    return CitationGraph.from_edges(
        [("A", "B"), ("B", "C"), ("C", "A"), ("B", "D")])


def test_transition_probs_triangle_pendant():
    g = triangle_with_pendant()
    a, b = g.index_of("A"), g.index_of("B")
    nbrs, probs = transition_probs(g, a, b, p=1, q=1)
    assert np.allclose(probs, 1 / 3)
    nbrs, probs = transition_probs(g, a, b, p=1e6, q=1)
    law = dict(zip((g.ids[i] for i in nbrs), probs))
    assert law["A"] < 1e-5
    assert abs(law["C"] - 0.5) < 1e-5
    assert abs(law["D"] - 0.5) < 1e-5


def test_transition_probs_path():
    g = CitationGraph.from_edges([("A", "B"), ("B", "C")])
    a, b = g.index_of("A"), g.index_of("B")
    nbrs, probs = transition_probs(g, a, b, p=1, q=0.25)
    law = dict(zip((g.ids[i] for i in nbrs), probs))
    assert abs(law["A"] - 0.2) < 1e-12
    assert abs(law["C"] - 0.8) < 1e-12


def test_p1_q1_matches_uniform_law():
    g = triangle_with_pendant()
    for cur in range(g.n):
        for prev in g.adj(cur):
            nbrs, probs = transition_probs(g, int(prev), cur, 1, 1)
            assert np.allclose(probs, 1 / len(nbrs))


def test_biased_walk_shape_and_adjacency():
    g = triangle_with_pendant()
    params = SamplingParams(n=1, t=20, p=0.5, q=2.0, seed=1)
    walk = biased_walk(g, g.index_of("A"), params, np.random.default_rng(5))
    assert walk[0] == g.index_of("A")
    for u, w in zip(walk, walk[1:]):
        assert int(w) in g.adj(int(u))


def test_corpus_counts_and_roots():
    g = triangle_with_pendant()
    params = SamplingParams(n=3, t=5, seed=9)
    corpus = generate_walk_corpus(g, params)
    assert len(corpus) == 3 * g.n
    assert all(len(seq) <= params.t + 1 for seq in corpus.sequences)
    # each pass roots one walk at every node
    for it in range(3):
        roots = sorted(seq[0] for seq in corpus.sequences[it * g.n:(it + 1) * g.n])
        assert roots == list(range(g.n))


def test_corpus_deterministic_files(tmp_path):
    g = triangle_with_pendant()
    params = SamplingParams(n=2, t=6, seed=13)
    for name in ("a", "b"):
        generate_walk_corpus(g, params, "biased").save(tmp_path / name, g)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


def test_empty_graph_corpus():
    g = CitationGraph.from_edges([])
    corpus = generate_walk_corpus(g, SamplingParams(n=2, t=3))
    assert len(corpus) == 0


def test_cocitation_line_is_permutation_of_refs():
    g = CitationGraph.from_edges([("A", "B"), ("A", "C"), ("A", "D")])
    corpus = cocitation_corpus(g, 1, seed=2)
    assert len(corpus) == 1
    assert sorted(g.ids[i] for i in corpus.sequences[0]) == ["B", "C", "D"]


def test_cocitation_empty_when_no_references():
    g = CitationGraph.from_edges([], years={"A": 2000, "B": 2000})
    assert len(cocitation_corpus(g, 5)) == 0


def test_cocitation_count_contract():
    g = CitationGraph.from_edges([("A", f"R{i}") for i in range(5)])
    corpus = cocitation_corpus(g, 10, seed=3)
    assert len(corpus) == 10
    ref_set = sorted(g.refs(g.index_of("A")))
    union = sorted(int(i) for seq in corpus.sequences for i in seq)
    assert union == sorted(ref_set * 10)
    assert all(len(seq) == 5 for seq in corpus.sequences)


def test_cocitation_every_line_is_some_reference_list():
    g = CitationGraph.from_edges(
        [("A", "B"), ("A", "C"), ("D", "C"), ("D", "E"), ("D", "F")])
    corpus = cocitation_corpus(g, 4, seed=8)
    ref_lists = {tuple(sorted(g.refs(v))) for v in range(g.n) if len(g.refs(v))}
    for seq in corpus.sequences:
        assert tuple(sorted(int(i) for i in seq)) in ref_lists
    n_with_refs = sum(1 for v in range(g.n) if len(g.refs(v)))
    assert len(corpus) == 4 * n_with_refs


def test_corpus_save_load_roundtrip(tmp_path):
    g = triangle_with_pendant()
    corpus = cocitation_corpus(g, 2, seed=4)
    corpus.save(tmp_path / "c.txt", g)
    text = (tmp_path / "c.txt").read_text()
    assert text.startswith("# strategy=cocit n=2 seed=4")
    loaded = WalkCorpus.load(tmp_path / "c.txt", g)
    assert loaded.strategy == "cocit"
    assert len(loaded) == len(corpus)
    for a, b in zip(loaded.sequences, corpus.sequences):
        assert np.array_equal(a, b)


def test_corpus_load_names_line_of_unknown_id(tmp_path):
    g = triangle_with_pendant()
    path = tmp_path / "c.txt"
    path.write_text(f"# strategy=cocit n=1\n{g.ids[0]} {g.ids[1]}\n\n"
                    f"{g.ids[1]} QQ\n")
    with pytest.raises(GraphError) as err:
        WalkCorpus.load(path, g)
    assert str(err.value) == f"{path}:4: unknown paper id: 'QQ'"


# corpus tokens are whitespace-separated, and a line opening with '#' is
# the provenance header
corpus_tokens = st.text(st.characters(exclude_categories=("Z", "C")),
                        min_size=1, max_size=6).filter(lambda t: t[0] != "#")


@settings(max_examples=100, deadline=None)
@given(st.lists(corpus_tokens, min_size=1, max_size=10, unique=True),
       st.data())
def test_corpus_roundtrip_property(ids, data):
    g = CitationGraph(ids, [YEAR_UNKNOWN] * len(ids), [], [])
    seqs = data.draw(st.lists(
        st.lists(st.integers(0, len(ids) - 1), min_size=1, max_size=8),
        max_size=6))
    params = data.draw(st.dictionaries(
        st.sampled_from(["n", "t", "p", "q", "seed"]), st.integers(0, 99)))
    corpus = WalkCorpus([np.array(s, dtype=np.int64) for s in seqs],
                        data.draw(st.sampled_from(["uniform", "biased", "cocit"])),
                        params)
    with tempfile.TemporaryDirectory() as d:
        corpus.save(Path(d) / "c.txt", g)
        loaded = WalkCorpus.load(Path(d) / "c.txt", g)
    assert loaded.strategy == corpus.strategy
    # header values come back as text
    assert loaded.params == {k: str(v) for k, v in params.items()}
    assert [s.tolist() for s in loaded.sequences] == seqs
    assert all(s.dtype == np.int64 for s in loaded.sequences)


def test_draw_respects_distribution():
    rng = np.random.default_rng(0)
    probs = np.array([0.1, 0.6, 0.3])
    counts = np.bincount([_draw(rng, probs) for _ in range(20000)], minlength=3)
    assert np.allclose(counts / 20000, probs, atol=0.02)
