import itertools
import logging
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from citerec.graph import YEAR_UNKNOWN, CitationGraph, GraphError, is_token
from citerec.sampling import (SamplingParams, WalkCorpus, cocitation_corpus,
                              generate_walk_corpus, transition_probs,
                              _order_rng)
from .conftest import corpus_of, independent_pi


def assert_flat(corpus):
    """The flat form's invariants, and the per-line views that
    ``sequences`` gives."""
    tokens, offsets = corpus.tokens, corpus.offsets
    assert tokens.dtype == offsets.dtype == np.int64
    assert offsets[0] == 0 and offsets[-1] == tokens.size
    assert (np.diff(offsets) >= 0).all()
    bounds = offsets.tolist()
    assert [s.tolist() for s in corpus.sequences] == [
        tokens[a:b].tolist() for a, b in zip(bounds, bounds[1:])]


def assert_roundtrip(corpus, g, path):
    corpus.save(path, g)
    loaded = WalkCorpus.load(path, g)
    assert_flat(loaded)
    assert np.array_equal(loaded.tokens, corpus.tokens)
    assert np.array_equal(loaded.offsets, corpus.offsets)
    return loaded


def test_sampling_params_validation():
    with pytest.raises(ValueError):
        SamplingParams(n=0)
    with pytest.raises(ValueError):
        SamplingParams(p=0)
    with pytest.raises(ValueError):
        SamplingParams(q=-1)
    # 1/p and 1/q are step weights, so they must be finite too
    for bad in (float("inf"), float("nan"), 5e-324):
        with pytest.raises(ValueError):
            SamplingParams(p=bad)
        with pytest.raises(ValueError):
            SamplingParams(q=bad)


def test_walk_on_single_edge_alternates():
    g = CitationGraph.from_edges([("A", "B")])
    for strategy in ("uniform", "biased"):
        corpus = generate_walk_corpus(g, SamplingParams(n=3, t=3, p=0.5),
                                      strategy)
        assert len(corpus) == 6
        for walk in corpus.sequences:
            names = [g.ids[i] for i in walk]
            other = "B" if names[0] == "A" else "A"
            assert names == [names[0], other] * 2, (strategy, names)


def test_walk_stops_at_isolated_node():
    g = CitationGraph.from_edges([("A", "B")], years={"D": 2000})
    d = g.index_of("D")
    for strategy in ("uniform", "biased"):
        corpus = generate_walk_corpus(g, SamplingParams(n=2, t=5), strategy)
        walks = [w.tolist() for w in corpus.sequences if w[0] == d]
        assert walks == [[d], [d]]


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
    g = CitationGraph.from_edges(
        [("A", "B"), ("B", "C"), ("C", "A"), ("B", "D")], years={"Z": 2000})
    params = SamplingParams(n=3, t=20, p=0.5, q=2.0, seed=1)
    for strategy in ("uniform", "biased"):
        corpus = generate_walk_corpus(g, params, strategy)
        assert len(corpus) == 3 * g.n
        for walk in corpus.sequences:
            isolated = g.degree(int(walk[0])) == 0
            assert len(walk) == (1 if isolated else params.t + 1)
            for u, w in zip(walk, walk[1:]):
                assert int(w) in g.adj(int(u))


def kite_graph():
    """Triangles ABC and DEF joined by B-D and C-E, a pendant G on A and an
    isolated Z: states with return, adjacent and far candidates."""
    return CitationGraph.from_edges(
        [("A", "B"), ("B", "C"), ("C", "A"), ("B", "D"), ("D", "E"),
         ("E", "F"), ("F", "D"), ("C", "E"), ("G", "A")], years={"Z": 2000})


# p = 1e6 makes the pendant G accept its only step (back to A) once in 1e6
# proposals, and q = 1e-3 makes steps inside a triangle rare: both need the
# exact fallback that ends the rejection rounds
@pytest.mark.parametrize("p,q", [(1.0, 1.0), (0.25, 4.0), (4.0, 0.25),
                                 (0.5, 2.0), (1e6, 1.0), (4.0, 1e-3)])
def test_lockstep_walk_law_matches_transition_probs(p, q):
    g = kite_graph()
    corpus = generate_walk_corpus(
        g, SamplingParams(n=1500, t=4, p=p, q=q, seed=5), "biased")
    first = np.zeros((g.n, g.n))
    after = {}
    for walk in corpus.sequences:
        walk = walk.tolist()
        if len(walk) > 1:
            first[walk[0], walk[1]] += 1
        for prev, cur, nxt in zip(walk, walk[1:], walk[2:]):
            after.setdefault((prev, cur), np.zeros(g.n))[nxt] += 1
    laws = [(first[v], g.adj(v), np.full(g.degree(v), 1 / g.degree(v)))
            for v in range(g.n) if g.degree(v)]
    laws += [(counts, *independent_pi(g, prev, cur, p, q))
             for (prev, cur), counts in after.items()]
    # every (prev, cur) state the walks can reach was visited
    assert len(after) == g.degrees.sum()
    worst = 0.0
    for counts, nbrs, pi in laws:
        total = counts.sum()
        assert counts[nbrs].sum() == total   # steps stay on Adj(cur)
        inner = (pi > 0) & (pi < 1)
        z = (counts[nbrs] - total * pi)[inner] / np.sqrt(
            total * pi * (1 - pi))[inner]
        worst = max(worst, np.abs(z).max(initial=0.0))
    assert worst < 4.5, worst


def test_corpus_counts_and_roots():
    g = triangle_with_pendant()
    params = SamplingParams(n=3, t=5, seed=9)
    corpus = generate_walk_corpus(g, params)
    assert len(corpus) == 3 * g.n
    assert all(len(seq) <= params.t + 1 for seq in corpus.sequences)
    # each pass roots one walk at every node, in that pass's shuffled order
    for it in range(3):
        roots = [int(seq[0]) for seq in corpus.sequences[it * g.n:(it + 1) * g.n]]
        assert roots == _order_rng(params.seed, it).permutation(g.n).tolist()
        assert sorted(roots) == list(range(g.n))


def test_corpus_deterministic_files(tmp_path):
    g = triangle_with_pendant()
    params = SamplingParams(n=2, t=6, seed=13)
    for name in ("a", "b"):
        generate_walk_corpus(g, params, "biased").save(tmp_path / name, g)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize("strategy", ["uniform", "biased"])
def test_walk_corpus_identical_across_calls(strategy, tmp_path):
    g = kite_graph()
    params = SamplingParams(n=3, t=15, p=0.5, q=2.0, seed=21)
    a = generate_walk_corpus(g, params, strategy)
    b = generate_walk_corpus(g, params, strategy)
    assert [s.tolist() for s in a.sequences] == [s.tolist() for s in b.sequences]
    assert all(s.dtype == np.int64 for s in a.sequences)
    assert_flat(a)
    assert np.array_equal(a.offsets, b.offsets)
    assert_roundtrip(a, g, tmp_path / "c.txt")
    c = generate_walk_corpus(g, SamplingParams(n=3, t=15, p=0.5, q=2.0,
                                               seed=22), strategy)
    assert [s.tolist() for s in a.sequences] != [s.tolist() for s in c.sequences]


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


def test_cocitation_shuffle_law():
    # each of a reference list's 3! orders is equally likely, and the two
    # lists of one pass are shuffled independently
    g = CitationGraph.from_edges([("A", r) for r in "BCD"]
                                 + [("E", r) for r in "FGH"])
    passes = 3000
    corpus = cocitation_corpus(g, passes, seed=11)
    assert len(corpus) == 2 * passes
    a_refs, e_refs = (g.refs(g.index_of(p)).tolist() for p in "AE")
    perms = list(itertools.permutations(range(3)))
    joint = np.zeros((6, 6))
    seqs = [s.tolist() for s in corpus.sequences]
    for x, y in zip(seqs[::2], seqs[1::2]):
        if sorted(x) != a_refs:
            x, y = y, x
        assert sorted(x) == a_refs and sorted(y) == e_refs
        joint[perms.index(tuple(a_refs.index(i) for i in x)),
              perms.index(tuple(e_refs.index(i) for i in y))] += 1

    def worst_z(counts, p):
        return np.abs((counts - passes * p)
                      / np.sqrt(passes * p * (1 - p))).max()

    for counts, p in ((joint.sum(axis=1), 1 / 6), (joint.sum(axis=0), 1 / 6),
                      (joint.ravel(), 1 / 36)):
        assert worst_z(counts, p) < 4.5, counts


def test_corpus_logs_strategy_passes_lines_tokens_seconds(caplog):
    # A cites two papers and D one; Z is isolated, so 4 of 5 roots are live
    g = CitationGraph.from_edges([("A", "B"), ("A", "C"), ("D", "C")],
                                 years={"Z": 2000})
    with caplog.at_level(logging.INFO, logger="citerec.sampling"):
        cocitation_corpus(g, 2, seed=1)
        generate_walk_corpus(g, SamplingParams(n=3, t=4), "biased")
    msgs = [r.getMessage() for r in caplog.records
            if r.name == "citerec.sampling"]
    assert len(msgs) == 2
    assert re.fullmatch(r"cocit corpus: 2 passes, 4 lines, 6 tokens, "
                        r"\d+\.\d{3} s", msgs[0]), msgs[0]
    assert re.fullmatch(r"biased corpus: 3 passes, 15 lines, 63 tokens, "
                        r"\d+\.\d{3} s", msgs[1]), msgs[1]


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


def test_corpus_load_skips_whitespace_only_lines(tmp_path):
    g = triangle_with_pendant()
    path = tmp_path / "c.txt"
    path.write_text(f"# strategy=cocit\n{g.ids[0]} {g.ids[1]}\n \n\t\n"
                    f"{g.ids[2]}\n")
    assert [s.tolist() for s in WalkCorpus.load(path, g).sequences] == [
        [0, 1], [2]]


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
    corpus = corpus_of(
        seqs, data.draw(st.sampled_from(["uniform", "biased", "cocit"])), params)
    assert_flat(corpus)
    with tempfile.TemporaryDirectory() as d:
        loaded = assert_roundtrip(corpus, g, Path(d) / "c.txt")
    assert loaded.strategy == corpus.strategy
    # header values come back as text
    assert loaded.params == {k: str(v) for k, v in params.items()}
    assert [s.tolist() for s in loaded.sequences] == seqs
    assert all(s.dtype == np.int64 for s in loaded.sequences)


def reference_save(corpus, path, graph):
    """``WalkCorpus.save`` written line by line over ``sequences``: the
    reference for the flat-array writer, which must write the same bytes
    and raise the same error."""
    spaced = {i for i, tok in enumerate(graph.ids) if not is_token(tok)}
    hashed = {i for i, tok in enumerate(graph.ids) if tok.startswith("#")}
    for seq in corpus.sequences if spaced or hashed else ():
        seq = np.asarray(seq).tolist()
        if seq and seq[0] in hashed:
            raise GraphError(f"paper id {graph.ids[seq[0]]!r} starts with "
                             "'#' and cannot start a corpus line")
        bad = spaced.intersection(seq)
        if bad:
            raise GraphError(f"paper id {graph.ids[min(bad)]!r} holds "
                             "whitespace and cannot be written to a "
                             "corpus file")
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"# strategy={corpus.strategy}")
        for k, v in corpus.params.items():
            f.write(f" {k}={v}")
        f.write("\n")
        for seq in corpus.sequences:
            f.write(" ".join(graph.ids[i] for i in seq))
            f.write("\n")


def saved(save, corpus, path, g):
    """The bytes ``save`` writes, or its ``GraphError`` text."""
    try:
        save(corpus, path, g)
    except GraphError as exc:
        assert not path.exists()
        return str(exc)
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(corpus_tokens, st.sampled_from(
           ["#a", "a b", "# c", " ", "d\te", "#"])),
                min_size=1, max_size=8, unique=True),
       st.data())
def test_corpus_save_matches_per_line_reference(ids, data):
    g = CitationGraph(ids, [YEAR_UNKNOWN] * len(ids), [], [])
    lines = data.draw(st.lists(
        st.lists(st.integers(0, len(ids) - 1), max_size=6), max_size=6))
    corpus = corpus_of(lines, "biased", {"n": 1, "p": 0.5})
    with tempfile.TemporaryDirectory() as d:
        got = saved(WalkCorpus.save, corpus, Path(d) / "a.txt", g)
        want = saved(reference_save, corpus, Path(d) / "b.txt", g)
    assert got == want
