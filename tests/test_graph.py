import tempfile
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from citerec.graph import (CitationGraph, GraphError, GraphFormatError,
                           YEAR_UNKNOWN, load_graph, text_lines)


def test_basic_construction(toy_graph):
    g = toy_graph
    assert g.n == 3 and g.m == 3
    assert g.neighbors("A", "refs") == ["B", "C"]
    assert g.neighbors("C", "cits") == ["A", "B"]
    assert g.degree(g.index_of("C")) == 2


def test_duplicate_edges_deduplicated():
    g = CitationGraph.from_edges([("A", "B"), ("A", "B")])
    assert g.m == 1
    assert g.duplicate_edges_dropped == 1


def test_self_loops_dropped():
    g = CitationGraph.from_edges([("A", "A")])
    assert g.m == 0
    assert g.self_loops_dropped == 1


def test_neighbor_modes():
    g = CitationGraph.from_edges([("A", "B"), ("C", "A")], years={"D": 2000})
    assert g.neighbors("A", "refs") == ["B"]
    assert g.neighbors("A", "cits") == ["C"]
    assert g.neighbors("A", "adj") == ["B", "C"]
    for mode in ("refs", "cits", "adj"):
        assert g.neighbors("D", mode) == []


def test_mutual_citation_no_duplicate_in_adj():
    g = CitationGraph.from_edges([("A", "B"), ("B", "A")])
    assert g.m == 2
    assert g.neighbors("A", "adj") == ["B"]


def test_unknown_node_errors(toy_graph):
    with pytest.raises(GraphError):
        toy_graph.neighbors("Z")
    with pytest.raises(GraphError):
        toy_graph.index_of("Z")


def test_seed_rows_are_the_seed_set(toy_graph):
    g = toy_graph
    rows = g.seed_rows(["C", "A", "C", "A"])
    assert rows.dtype == np.int64
    assert rows.tolist() == sorted([g.index_of("A"), g.index_of("C")])
    with pytest.raises(ValueError, match="^seed set must be non-empty$"):
        g.seed_rows([])
    with pytest.raises(GraphError, match="^unknown paper id: 'Z'$"):
        g.seed_rows(["A", "Z"])


def test_time_slice():
    g = CitationGraph.from_edges(
        [("C", "A"), ("B", "A")],
        years={"A": 2004, "B": 2006, "C": 2007})
    sl = g.time_slice(2006)
    assert sorted(sl.ids) == ["A", "B"]
    assert sl.m == 1
    assert sl.neighbors("B", "refs") == ["A"]


def test_time_slice_identity_and_empty():
    g = CitationGraph.from_edges(
        [("B", "A")], years={"A": 2000, "B": 2001})
    assert g.time_slice(2001).m == g.m
    assert g.time_slice(2001).n == g.n
    empty = g.time_slice(1999)
    assert empty.n == 0 and empty.m == 0
    again = empty.time_slice(1999)
    assert again.n == 0 and again.m == 0


def test_time_slice_idempotent():
    g = CitationGraph.from_edges(
        [("C", "A"), ("B", "A"), ("C", "B")],
        years={"A": 2004, "B": 2006, "C": 2007})
    once = g.time_slice(2006)
    twice = once.time_slice(2006)
    assert once.ids == twice.ids
    assert np.array_equal(once.ref_indices, twice.ref_indices)


def test_time_slice_removes_unknown_year_nodes():
    g = CitationGraph.from_edges([("A", "B")], years={"A": 2000})
    sl = g.time_slice(2005)
    assert sl.ids == ["A"]


def test_time_slice_requires_years():
    g = CitationGraph.from_edges([("A", "B")])
    with pytest.raises(GraphError, match="requires years"):
        g.time_slice(2000)


def test_edge_consistency_invariant():
    rng = np.random.default_rng(3)
    pairs = {(int(u), int(w)) for u, w in rng.integers(0, 40, size=(300, 2))
             if u != w}
    g = CitationGraph.from_edges([(f"n{u}", f"n{w}") for u, w in pairs])
    for i in range(g.n):
        for j in g.refs(i):
            assert i in g.cits(int(j))
        assert g.degree(i) == len(g.adj(i))
    assert sum(len(g.refs(i)) for i in range(g.n)) == g.m


@st.composite
def years_and_edges(draw):
    """Node count, per-node years (some unknown) and index edges that may
    repeat, loop or run both ways."""
    n = draw(st.integers(0, 12))
    years = draw(st.lists(st.one_of(st.just(YEAR_UNKNOWN), st.integers(2000, 2006)),
                          min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=40)) if n else []
    return n, years, edges


def graph_of(n, years, edges):
    return CitationGraph([f"n{i}" for i in range(n)], years,
                         [u for u, _ in edges], [w for _, w in edges])


@settings(max_examples=100, deadline=None)
@given(years_and_edges())
def test_csr_invariants_property(data):
    n, years, edges = data
    g = graph_of(n, years, edges)
    want = {(u, w) for u, w in edges if u != w}
    assert g.m == len(want)
    loops = sum(u == w for u, w in edges)
    assert g.self_loops_dropped == loops
    assert g.duplicate_edges_dropped == len(edges) - loops - len(want)
    for indptr, indices in ((g.ref_indptr, g.ref_indices),
                            (g.cit_indptr, g.cit_indices),
                            (g.adj_indptr, g.adj_indices)):
        assert indptr.dtype == np.int64 and indices.dtype == np.int64
        assert indptr.shape == (n + 1,) and indptr[0] == 0
        assert indptr[-1] == indices.size and np.all(np.diff(indptr) >= 0)
    for v in range(n):
        refs = {w for u, w in want if u == v}
        cits = {u for u, w in want if w == v}
        # each row is sorted without repeats: Ref, Cit and Adj = Ref ∪ Cit
        assert g.refs(v).tolist() == sorted(refs)
        assert g.cits(v).tolist() == sorted(cits)
        assert g.adj(v).tolist() == sorted(refs | cits)


@settings(max_examples=100, deadline=None)
@given(years_and_edges(), st.integers(1999, 2007))
def test_time_slice_idempotent_property(data, year):
    g = graph_of(*data)
    assume(g.has_years)
    once = g.time_slice(year)
    assert once.ids == [tok for tok, y in zip(g.ids, g.years)
                        if y != YEAR_UNKNOWN and y <= year]
    twice = once.time_slice(year)
    assert twice.ids == once.ids and twice.m == once.m
    for attr in ("years", "ref_indptr", "ref_indices", "cit_indptr",
                 "cit_indices", "adj_indptr", "adj_indices"):
        assert np.array_equal(getattr(twice, attr), getattr(once, attr)), attr


def test_file_load_and_parse_errors(tmp_path):
    edges = tmp_path / "edges.tsv"
    nodes = tmp_path / "nodes.tsv"
    edges.write_text("A\tB\nB\tC\n")
    nodes.write_text("A\t2000\nB\t2001\nC\t2002\n")
    g = load_graph(edges, nodes)
    assert g.n == 3 and g.m == 2
    assert g.year_of("B") == 2001

    edges.write_text("A\tB\nbroken-line\n")
    with pytest.raises(GraphFormatError, match=":2"):
        load_graph(edges)

    nodes.write_text("A\ttwenty\n")
    (tmp_path / "e2.tsv").write_text("A\tB\n")
    with pytest.raises(GraphFormatError, match="not an integer"):
        load_graph(tmp_path / "e2.tsv", nodes)

    # int64 holds the years
    nodes.write_text("B\t2001\nA\t99999999999999999999\n")
    with pytest.raises(GraphFormatError) as err:
        load_graph(tmp_path / "e2.tsv", nodes)
    assert str(err.value) == (
        f"{nodes}:2: year out of range: '99999999999999999999'")
    nodes.write_text(f"A\t{-2**63}\nB\t{2**63 - 1}\n")
    assert load_graph(tmp_path / "e2.tsv", nodes).years.tolist() == [
        -2**63, 2**63 - 1]


def test_node_file_repeat_must_keep_its_year(tmp_path):
    edges = tmp_path / "edges.tsv"
    nodes = tmp_path / "nodes.tsv"
    edges.write_text("A\tB\n")
    nodes.write_text("A\t2001\nB\t2000\nA\t2001\n")
    assert load_graph(edges, nodes).year_of("A") == 2001
    nodes.write_text("A\t2001\n\nA\t1999\n")
    with pytest.raises(GraphFormatError) as err:
        load_graph(edges, nodes)
    assert str(err.value) == f"{nodes}:3: paper id 'A' already has year 2001"


def test_text_lines_skips_blank_and_whitespace_lines(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("a b\n\n \t\n\u3000\nc\td \n\nlast", encoding="utf-8")
    assert list(text_lines(path)) == [(1, "a b"), (5, "c\td "), (7, "last")]


def test_text_lines_reads_crlf(tmp_path):
    path = tmp_path / "f.txt"
    path.write_bytes(b"a\tb\r\n\xc3\xa9\r\n")
    assert list(text_lines(path)) == [(1, "a\tb"), (2, "\u00e9")]


def test_whitespace_only_lines_are_skipped_in_graph_files(tmp_path):
    (tmp_path / "e.tsv").write_text("A\tB\n \n\t\nB\tC\n")
    (tmp_path / "n.tsv").write_text("A\t2000\n  \nC\t2002\n")
    g = load_graph(tmp_path / "e.tsv", tmp_path / "n.tsv")
    assert g.ids == ["A", "B", "C"] and g.m == 2
    assert g.year_of("C") == 2002


def test_nodes_only_in_edges_have_unknown_year():
    g = CitationGraph.from_edges([("A", "B")], years={"A": 2001})
    assert g.year_of("B") is None
    assert g.years[g.index_of("B")] == YEAR_UNKNOWN


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF")),
                max_size=12),
       st.dictionaries(st.sampled_from("ABCDEFGH"), st.integers(1900, 2030),
                       max_size=8))
def test_from_edges_matches_reference(pairs, years):
    # rows in order of first appearance, citing before cited, then the
    # tokens that appear only in years
    ids = []
    for tok in [t for pair in pairs for t in pair] + list(years):
        if tok not in ids:
            ids.append(tok)
    g = CitationGraph.from_edges(pairs, years)
    assert g.ids == ids
    assert g.years.tolist() == [years.get(t, YEAR_UNKNOWN) for t in ids]
    u, w = g.edge_list()
    assert list(zip(u.tolist(), w.tolist())) == sorted(
        {(ids.index(a), ids.index(b)) for a, b in pairs if a != b})


def test_cache_roundtrip(tmp_path):
    g = CitationGraph.from_edges(
        [("A", "B"), ("C", "A"), ("C", "B")], years={"A": 2000, "C": 2003})
    path = tmp_path / "g.npz"
    g.save_cache(path)
    g2 = CitationGraph.load_cache(path)
    assert g2.ids == g.ids
    assert np.array_equal(g2.years, g.years)
    assert np.array_equal(g2.ref_indptr, g.ref_indptr)
    assert np.array_equal(g2.ref_indices, g.ref_indices)


@st.composite
def cache_graphs(draw):
    """Random ids (any text but a trailing NUL), years with some unknown,
    and edges that may repeat or loop."""
    ids = draw(st.lists(st.text(max_size=8).filter(lambda t: not t.endswith("\x00")),
                        unique=True, max_size=12))
    n = len(ids)
    years = draw(st.lists(st.one_of(st.just(YEAR_UNKNOWN), st.integers(1900, 2030)),
                          min_size=n, max_size=n))
    edges = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=30)) if n else []
    return CitationGraph(ids, years, [u for u, _ in edges], [w for _, w in edges])


@settings(max_examples=100, deadline=None)
@given(cache_graphs())
def test_cache_roundtrip_property(g):
    with tempfile.TemporaryDirectory() as d:
        g.save_cache(Path(d) / "g.npz")
        g2 = CitationGraph.load_cache(Path(d) / "g.npz")
    assert g2.ids == g.ids and all(type(t) is str for t in g2.ids)
    assert g2.m == g.m
    for attr in ("years", "ref_indptr", "ref_indices", "cit_indptr",
                 "cit_indices", "adj_indptr", "adj_indices"):
        assert np.array_equal(getattr(g2, attr), getattr(g, attr)), attr


def test_cache_rejects_id_ending_in_nul(tmp_path):
    # numpy unicode arrays drop trailing NULs, so 'a\x00' would load as 'a'
    g = CitationGraph.from_edges([("a\x00", "b"), ("a\x00b", "b")])
    with pytest.raises(GraphError, match="cannot be stored in a graph cache"):
        g.save_cache(tmp_path / "g.npz")
    assert not (tmp_path / "g.npz").exists()
    inner = CitationGraph.from_edges([("a\x00b", "b")])
    inner.save_cache(tmp_path / "inner.npz")
    assert CitationGraph.load_cache(tmp_path / "inner.npz").ids == ["a\x00b", "b"]


@pytest.mark.parametrize("size", [0, 2, 100])
def test_truncated_cache_is_graph_error(tmp_path, size):
    g = CitationGraph.from_edges([("A", "B")], years={"A": 2000, "B": 1999})
    g.save_cache(tmp_path / "g.npz")
    cut = tmp_path / "cut.npz"
    cut.write_bytes((tmp_path / "g.npz").read_bytes()[:size])
    with pytest.raises(GraphError) as err:
        CitationGraph.load_cache(cut)
    assert str(err.value) == f"{cut}: not a citerec graph cache"


def test_foreign_file_is_not_a_graph_cache(tmp_path):
    text = tmp_path / "edges.npz"
    text.write_text("A\tB\n")
    other = tmp_path / "other.npz"
    np.savez(other, x=np.arange(3))
    for path in (text, other):
        with pytest.raises(GraphError) as err:
            CitationGraph.load_cache(path)
        assert str(err.value) == f"{path}: not a citerec graph cache"
    with pytest.raises(FileNotFoundError):
        CitationGraph.load_cache(tmp_path / "missing.npz")


def test_cache_member_with_bad_crc_is_rejected(tmp_path):
    g = CitationGraph.from_edges([("A", "B")], years={"A": 2000, "B": 1999})
    path = tmp_path / "g.npz"
    g.save_cache(path)
    # a member the cache does not use is still read and checked
    with zipfile.ZipFile(path, "a") as zf:
        zf.writestr("extra.npy", b"0123456789" * 8)
    assert CitationGraph.load_cache(path).ids == ["A", "B"]
    data = bytearray(path.read_bytes())
    data[data.rindex(b"0123456789")] ^= 1
    path.write_bytes(data)
    with pytest.raises(GraphError) as err:
        CitationGraph.load_cache(path)
    assert str(err.value) == f"{path}: not a citerec graph cache"


def test_edge_file_roundtrip(tmp_path):
    g = CitationGraph.from_edges(
        [("A", "B"), ("C", "A")], years={"A": 2000, "B": 2001, "C": 2003})
    g.save_edges(tmp_path / "e.tsv", tmp_path / "n.tsv")
    g2 = load_graph(tmp_path / "e.tsv", tmp_path / "n.tsv")
    assert g2.ids == g.ids
    assert np.array_equal(g2.years, g.years)


@pytest.mark.parametrize("tok", ["", " ", "a\tx", "a\nx", "a\rx"])
def test_save_edges_rejects_id_that_cannot_read_back(tmp_path, tok):
    g = CitationGraph.from_edges([(tok, "b")], years={tok: 2000, "b": 2001})
    with pytest.raises(GraphError) as err:
        g.save_edges(tmp_path / "e.tsv", tmp_path / "n.tsv")
    assert str(err.value).startswith(f"paper id {tok!r} ")
    assert str(err.value).endswith(" cannot be written to an edge or node file")
    assert not (tmp_path / "e.tsv").exists()
    assert not (tmp_path / "n.tsv").exists()
