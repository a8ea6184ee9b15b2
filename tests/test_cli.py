import io
import re
import zipfile
from dataclasses import fields

import numpy as np
import pytest

from citerec import evaluation, sampling
from citerec.baselines import PageRankParams
from citerec.cli import (build_parser, main, params_args, params_hash,
                         read_config)
from citerec.embedding import TrainParams
from citerec.graph import CitationGraph
from citerec.sampling import SamplingParams, generate_walk_corpus
from .conftest import make_synthetic_citation_corpus_graph


@pytest.fixture
def dataset(tmp_path):
    g = make_synthetic_citation_corpus_graph(
        n_papers=300, year_lo=2000, year_hi=2010, refs_lo=3, refs_hi=12,
        seed=17)
    edges = tmp_path / "edges.tsv"
    nodes = tmp_path / "nodes.tsv"
    g.save_edges(edges, nodes)
    return g, edges, nodes, tmp_path


def test_ingest_slice(dataset, capsys):
    g, edges, nodes, d = dataset
    assert main(["ingest", "--edges", str(edges), "--nodes", str(nodes),
                 "--output", str(d / "g.npz")]) == 0
    out = capsys.readouterr().out
    assert f"{g.n} nodes" in out
    assert main(["slice", "--graph", str(d / "g.npz"), "--year", "2005",
                 "--output", str(d / "g2005.npz")]) == 0
    assert "slice: year<=2005" in capsys.readouterr().out


def test_sample_provenance_header(dataset):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--nodes", str(nodes),
          "--output", str(d / "g.npz")])
    assert main(["sample", "--graph", str(d / "g.npz"), "--strategy", "cocit",
                 "--n", "10", "--output", str(d / "corpus.txt")]) == 0
    first = (d / "corpus.txt").read_text().splitlines()[0]
    assert first.startswith("# strategy=cocit n=10")
    assert "params_hash=" in first


def test_sample_deterministic(dataset):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    for name in ("c1.txt", "c2.txt"):
        main(["sample", "--graph", str(d / "g.npz"), "--strategy", "biased",
              "--n", "2", "--t", "10", "--seed", "3",
              "--output", str(d / name)])
    assert (d / "c1.txt").read_bytes() == (d / "c2.txt").read_bytes()


def test_train_and_recommend(dataset, capsys):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--nodes", str(nodes),
          "--output", str(d / "g.npz")])
    main(["sample", "--graph", str(d / "g.npz"), "--strategy", "cocit",
          "--n", "3", "--output", str(d / "corpus.txt")])
    assert main(["train", "--graph", str(d / "g.npz"),
                 "--corpus", str(d / "corpus.txt"),
                 "--dim", "8", "--epochs", "1",
                 "--output", str(d / "model.txt")]) == 0
    assert (d / "model.txt").exists() and (d / "model.txt.out").exists()

    seeds = f"{g.ids[0]},{g.ids[1]}"
    assert main(["recommend", "--method", "simavg", "--seeds", seeds,
                 "--k", "10", "--model", str(d / "model.txt"),
                 "--output", str(d / "rec.csv")]) == 0
    lines = (d / "rec.csv").read_text().splitlines()
    assert lines[0] == "rank,paper_id,score"
    assert len(lines) == 11
    returned = {l.split(",")[1] for l in lines[1:]}
    assert not returned & {g.ids[0], g.ids[1]}


def test_unknown_seed_error_has_no_key_error_quotes(dataset, capsys):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    main(["sample", "--graph", str(d / "g.npz"), "--strategy", "cocit",
          "--n", "1", "--output", str(d / "corpus.txt")])
    main(["train", "--graph", str(d / "g.npz"), "--corpus", str(d / "corpus.txt"),
          "--dim", "4", "--epochs", "1", "--output", str(d / "model.txt")])
    capsys.readouterr()
    assert main(["recommend", "--method", "simavg", "--seeds", "ZZ",
                 "--model", str(d / "model.txt"),
                 "--output", str(d / "rec.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: unknown paper id: 'ZZ'\n")


def test_train_unknown_corpus_id_names_line(dataset, capsys):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    corpus = d / "corpus.txt"
    corpus.write_text(f"# strategy=cocit\n{g.ids[0]} {g.ids[1]}\n"
                      f"{g.ids[2]} QQ\n")
    capsys.readouterr()
    assert main(["train", "--graph", str(d / "g.npz"), "--corpus", str(corpus),
                 "--dim", "4", "--output", str(d / "model.txt")]) == 1
    assert capsys.readouterr().err == (
        f"error: {corpus}:3: unknown paper id: 'QQ'\n")


def test_truncated_graph_cache_is_clean_error(dataset, capsys):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--nodes", str(nodes),
          "--output", str(d / "g.npz")])
    cut = d / "cut.npz"
    cut.write_bytes((d / "g.npz").read_bytes()[:100])
    capsys.readouterr()
    assert main(["slice", "--graph", str(cut), "--year", "2005",
                 "--output", str(d / "s.npz")]) == 1
    assert capsys.readouterr().err == (
        f"error: {cut}: not a citerec graph cache\n")


def test_damaged_graph_cache_is_clean_error(tmp_path, capsys):
    g = make_synthetic_citation_corpus_graph(
        n_papers=120, n_communities=3, year_lo=2000, year_hi=2006,
        refs_lo=3, refs_hi=8, seed=3)
    g.save_cache(tmp_path / "g.npz")
    data = bytearray((tmp_path / "g.npz").read_bytes())
    data[60] ^= 0xFF  # inside the first member's deflate stream
    bad = tmp_path / "bad.npz"
    bad.write_bytes(data)
    assert main(["slice", "--graph", str(bad), "--year", "2003",
                 "--output", str(tmp_path / "s.npz")]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not a citerec graph cache\n")
    assert not (tmp_path / "s.npz").exists()


def test_graph_cache_with_damaged_directory_offset_is_clean_error(tmp_path,
                                                                   capsys):
    g = make_synthetic_citation_corpus_graph(
        n_papers=120, n_communities=3, year_lo=2000, year_hi=2006,
        refs_lo=3, refs_hi=8, seed=3)
    g.save_cache(tmp_path / "g.npz")
    data = bytearray((tmp_path / "g.npz").read_bytes())
    # the end-of-central-directory record's offset of the directory
    at = data.rfind(b"PK\x05\x06") + 16
    data[at:at + 4] = (0xFFFFFFF0).to_bytes(4, "little")
    bad = tmp_path / "bad.npz"
    bad.write_bytes(data)
    assert main(["slice", "--graph", str(bad), "--year", "2003",
                 "--output", str(tmp_path / "s.npz")]) == 1
    assert capsys.readouterr().err == (
        f"error: {bad}: not a citerec graph cache\n")


def ids_npy(old, new):
    """The bytes of ['a', 'b'] as an .npy member, with ``old`` in its
    header replaced by ``new`` of the same length."""
    buf = io.BytesIO()
    np.lib.format.write_array(buf, np.array(["a", "b"]))
    assert len(old) == len(new) and old in buf.getvalue()
    return buf.getvalue().replace(old, new)


@pytest.mark.parametrize("arrays", [
    dict(edges_w=[3]),  # read as the self-loop b->b
    dict(edges_u=[1], edges_w=[-1]),  # read as a->b
    dict(edges_u=[0.5], edges_w=[1.0]),  # read as a->b
    dict(edges_w=[5]),
    dict(years=np.array([2000, 2001], dtype=object)),
    dict(years=[2000]),
    dict(edges_u=[0, 1]),
    dict(ids=np.array("ab")),  # read as ['a', 'b']
    dict(ids=[1, 2]),
    dict(ids=np.array(["a", "b"], dtype=object)),  # loads only as a pickle
    dict(ids=ids_npy(b"{'descr': '<U1'", b"garbage        ")),
    dict(ids=ids_npy(b"(2,), } ", b"(-1,), }")),
    dict(ids=np.array(["a", "c\udcff"])),  # a lone surrogate
], ids=["past-n", "negative", "float", "far-past-n", "object-years",
        "short-years", "edge-lengths", "0-d-ids", "int-ids", "object-ids",
        "garbage-ids-header", "negative-ids-shape", "surrogate-id"])
def test_crafted_graph_cache_is_clean_error(tmp_path, capsys, arrays):
    path = tmp_path / "g.npz"
    members = {"ids": np.array(["a", "b"]), "years": [2000, 2001],
               "edges_u": [0], "edges_w": [1], **arrays}
    # an array is saved as numpy writes it; bytes are stored as the member
    np.savez_compressed(path, **{k: v for k, v in members.items()
                                 if not isinstance(v, bytes)})
    with zipfile.ZipFile(path, "a") as zf:
        for k, v in members.items():
            if isinstance(v, bytes):
                zf.writestr(f"{k}.npy", v)
    assert main(["slice", "--graph", str(path), "--year", "2001",
                 "--output", str(tmp_path / "s.npz")]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: not a citerec graph cache\n")
    assert not (tmp_path / "s.npz").exists()


@pytest.mark.parametrize("argv", [
    ["sample", "--strategy", "uniform", "--n", "1", "--t", "5"],
    ["recommend", "--method", "cf", "--seeds", "{seed}"],
    ["evaluate", "--queries", "8", "--min-refs", "3", "--max-refs", "12",
     "--methods", "cf", "--queries-out", "{out}.q"],
], ids=["sample", "recommend", "evaluate"])
def test_cache_with_id_that_cannot_be_written_writes_nothing(dataset, capsys,
                                                             argv):
    g, edges, nodes, d = dataset
    # each id ends in a lone surrogate, which no text writer can write
    ids = [tok + "\udcff" for tok in g.ids]
    path = d / "g.npz"
    u, w = g.edge_list()
    np.savez_compressed(path, ids=np.array(ids), years=g.years, edges_u=u,
                        edges_w=w)
    out = d / "out"
    argv = [a.format(seed=",".join(ids[:3]), out=out) for a in argv]
    assert main(argv + ["--graph", str(path), "--output", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}: not a citerec graph cache\n")
    assert not out.exists() and not (d / "out.q").exists()


def test_nodes_with_graph_cache_is_error(dataset, capsys):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--nodes", str(nodes),
          "--output", str(d / "g.npz")])
    capsys.readouterr()
    assert main(["slice", "--graph", str(d / "g.npz"), "--nodes", str(nodes),
                 "--year", "2005", "--output", str(d / "s.npz")]) == 1
    assert capsys.readouterr().err == (
        f"error: --nodes {nodes}: the graph cache {d / 'g.npz'} holds its "
        "own years\n")
    assert not (d / "s.npz").exists()


def test_edge_file_not_utf8_names_line(tmp_path, capsys):
    edges = tmp_path / "edges.tsv"
    edges.write_bytes(b"a\tb\nc\t\xffd\n")
    assert main(["ingest", "--edges", str(edges),
                 "--output", str(tmp_path / "g.npz")]) == 1
    assert capsys.readouterr().err == f"error: {edges}:2: not valid UTF-8\n"


def test_recommend_rejects_non_finite_model_value(tmp_path, capsys):
    model = tmp_path / "m.txt"
    model.write_text("2 2\na 1 0\nb inf 0\n")
    (tmp_path / "m.txt.out").write_text("2 2\na 0 0\nb 0 0\n")
    assert main(["recommend", "--method", "simavg", "--seeds", "a",
                 "--model", str(model),
                 "--output", str(tmp_path / "rec.csv")]) == 1
    assert capsys.readouterr().err == f"error: {model}:3: non-finite value\n"
    assert not (tmp_path / "rec.csv").exists()


def test_recommend_rejects_model_value_past_float32(tmp_path, capsys):
    # 1e39 is finite as a double and inf as a float32
    model = tmp_path / "m.txt"
    model.write_text("2 2\na 1 0\nb 1e39 0\n")
    (tmp_path / "m.txt.out").write_text("2 2\na 0 0\nb 0 0\n")
    assert main(["recommend", "--method", "simavg", "--seeds", "a",
                 "--model", str(model),
                 "--output", str(tmp_path / "rec.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {model}:3: value out of float32 range\n")
    assert not (tmp_path / "rec.csv").exists()


@pytest.mark.parametrize("text", ["0 -1\n", "2 -1\na 1 0\nb 0 1\n",
                                  "-1 3\n"])
def test_recommend_rejects_negative_model_header(tmp_path, capsys, text):
    model = tmp_path / "m.txt"
    model.write_text(text)
    (tmp_path / "m.txt.out").write_text(text)
    assert main(["recommend", "--method", "simavg", "--seeds", "a",
                 "--model", str(model),
                 "--output", str(tmp_path / "rec.csv")]) == 1
    assert capsys.readouterr().err == (
        f"error: {model}:1: negative count in header '<N> <d>'\n")
    assert not (tmp_path / "rec.csv").exists()


def ingest_edges(d, lines):
    (d / "edges.tsv").write_text("".join(f"{u}\t{w}\n" for u, w in lines))
    assert main(["ingest", "--edges", str(d / "edges.tsv"),
                 "--output", str(d / "g.npz")]) == 0


@pytest.mark.parametrize("edges,message", [
    ([("x", "a b"), ("x", "c")],
     "paper id 'a b' holds whitespace and cannot be written to a corpus file"),
    ([("x", "#e")],
     "paper id '#e' starts with '#' and cannot start a corpus line"),
])
def test_sample_rejects_id_that_cannot_round_trip(tmp_path, capsys, edges,
                                                  message):
    ingest_edges(tmp_path, edges)
    capsys.readouterr()
    assert main(["sample", "--graph", str(tmp_path / "g.npz"),
                 "--strategy", "cocit", "--n", "1",
                 "--output", str(tmp_path / "c.txt")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "c.txt").exists()


def test_train_rejects_model_id_with_whitespace(tmp_path, capsys):
    ingest_edges(tmp_path, [("x", "c"), ("x", "d"), ("a b", "c")])
    (tmp_path / "c.txt").write_text("# strategy=cocit\nc d\nd c\n")
    capsys.readouterr()
    assert main(["train", "--graph", str(tmp_path / "g.npz"),
                 "--corpus", str(tmp_path / "c.txt"), "--dim", "4",
                 "--epochs", "1", "--output", str(tmp_path / "m.txt")]) == 1
    assert capsys.readouterr().err == (
        "error: paper id 'a b' holds whitespace and cannot be written to a "
        "model file\n")
    assert not (tmp_path / "m.txt").exists()


@pytest.mark.parametrize("negatives", ["0", "-1"])
def test_train_rejects_negatives_below_one(dataset, capsys, negatives):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    main(["sample", "--graph", str(d / "g.npz"), "--strategy", "cocit",
          "--n", "1", "--output", str(d / "corpus.txt")])
    capsys.readouterr()
    assert main(["train", "--graph", str(d / "g.npz"),
                 "--corpus", str(d / "corpus.txt"), "--dim", "4",
                 "--epochs", "1", "--negatives", negatives,
                 "--output", str(d / "model.txt")]) == 1
    assert capsys.readouterr().err == "error: negatives must be >= 1\n"
    assert not (d / "model.txt").exists()


def test_sample_cocit_ignores_walk_length(dataset):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    assert main(["sample", "--graph", str(d / "g.npz"), "--strategy", "cocit",
                 "--n", "1", "--t", "0", "--output", str(d / "c.txt")]) == 0


def test_recommend_paperrank_without_model(dataset):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    assert main(["recommend", "--method", "paperrank",
                 "--seeds", g.ids[0], "--k", "5",
                 "--graph", str(d / "g.npz"),
                 "--output", str(d / "pr.csv")]) == 0
    assert len((d / "pr.csv").read_text().splitlines()) == 6


def test_recommend_prints_seed_set_size(dataset, capsys):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    capsys.readouterr()
    seeds = ",".join([g.ids[0], g.ids[1], g.ids[2], g.ids[0]])
    assert main(["recommend", "--method", "cf", "--seeds", seeds,
                 "--k", "5", "--graph", str(d / "g.npz"),
                 "--output", str(d / "cf.csv")]) == 0
    assert capsys.readouterr().out == (
        f"recommend: method=cf |S|=3 top-5 -> {d / 'cf.csv'}\n")


def train_small_model(dataset):
    g, edges, nodes, d = dataset
    for argv in (["ingest", "--edges", edges, "--output", d / "g.npz"],
                 ["sample", "--graph", d / "g.npz", "--strategy", "cocit",
                  "--n", "1", "--output", d / "corpus.txt"],
                 ["train", "--graph", d / "g.npz", "--corpus",
                  d / "corpus.txt", "--dim", "4", "--epochs", "1",
                  "--output", d / "model.txt"]):
        assert main([str(a) for a in argv]) == 0
    return g, d


def test_cosine_methods_read_no_output_matrix(dataset, capsys):
    g, d = train_small_model(dataset)

    def run(method, out):
        return main(["recommend", "--method", method,
                     "--seeds", ",".join(g.ids[:3]), "--k", "10",
                     "--model", str(d / "model.txt"),
                     "--graph", str(d / "g.npz"), "--output", str(out)])

    cosine = ("simavg", "simwgd", "simref")
    for method in cosine:
        assert run(method, d / f"{method}-pair.csv") == 0
    (d / "model.txt.out").unlink()
    for method in cosine:
        assert run(method, d / f"{method}.csv") == 0
        assert (d / f"{method}.csv").read_bytes() == (
            d / f"{method}-pair.csv").read_bytes()
    capsys.readouterr()
    assert run("citmod", d / "citmod.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(d / "model.txt.out") in err
    assert not (d / "citmod.csv").exists()


@pytest.mark.parametrize("method,flag", [("cf", "--model"),
                                         ("simavg", "--graph")])
def test_recommend_opens_no_file_its_method_does_not_read(dataset, method,
                                                          flag):
    g, d = train_small_model(dataset)
    argv = ["recommend", "--method", method, "--seeds", g.ids[0], "--k", "5"]
    argv += {"cf": ["--graph", str(d / "g.npz")],
             "simavg": ["--model", str(d / "model.txt")]}[method]
    assert main(argv + ["--output", str(d / "want.csv")]) == 0
    assert main(argv + [flag, str(d / "missing"),
                        "--output", str(d / "got.csv")]) == 0
    assert (d / "got.csv").read_bytes() == (d / "want.csv").read_bytes()


def test_recommend_rejects_id_that_breaks_a_csv_row(tmp_path, capsys):
    ingest_edges(tmp_path, [("a,b", "c"), ("d", "c"), ("d", "a,b")])
    capsys.readouterr()
    assert main(["recommend", "--method", "cf", "--seeds", "c",
                 "--graph", str(tmp_path / "g.npz"),
                 "--output", str(tmp_path / "rec.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: paper id 'a,b' holds ',' and cannot be written to a ranked "
        "CSV\n")
    assert not (tmp_path / "rec.csv").exists()


def test_recommend_simwgd_names_seed_the_graph_lacks(tmp_path, capsys):
    # the model holds a..e; the graph only a, b and c
    model = tmp_path / "m.txt"
    model.write_text("5 2\na 1 0\nb 0 1\nc 1 1\nd 1 2\ne 2 1\n")
    ingest_edges(tmp_path, [("a", "b"), ("b", "c")])
    capsys.readouterr()
    assert main(["recommend", "--method", "simwgd", "--seeds", "d,a",
                 "--model", str(model), "--graph", str(tmp_path / "g.npz"),
                 "--output", str(tmp_path / "rec.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: paper id 'd' is in the model but not in the graph\n")
    assert not (tmp_path / "rec.csv").exists()


def test_evaluate_and_plotdata(dataset):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--nodes", str(nodes),
          "--output", str(d / "g.npz")])
    assert main(["evaluate", "--graph", str(d / "g.npz"),
                 "--ratios", "0.1,0.9", "--queries", "8",
                 "--min-refs", "3", "--max-refs", "12",
                 "--min-year", "2005", "--max-year", "2008",
                 "--k-values", "5,10", "--methods", "simavg,paperrank",
                 "--strategy", "cocit", "--n", "2",
                 "--dim", "8", "--epochs", "1", "--mode", "neg",
                 "--output", str(d / "report.csv"),
                 "--queries-out", str(d / "queries.tsv")]) == 0
    lines = (d / "report.csv").read_text().splitlines()
    assert lines[0] == "method,hidden_ratio,k,mean_recall,n_queries"
    # one row per (method, ratio, k)
    assert len(lines) == 1 + 2 * 2 * 2
    assert (d / "queries.tsv").exists()

    assert main(["plotdata", "--report", str(d / "report.csv"),
                 "--prefix", str(d / "series")]) == 0
    assert (d / "series_recall_vs_k.csv").read_text() == (
        "hidden_ratio,k,paperrank,simavg\n"
        "0.1,5,0.125000,0.000000\n"
        "0.1,10,0.375000,0.000000\n"
        "0.9,5,0.168750,0.031250\n"
        "0.9,10,0.212500,0.062996\n")
    assert (d / "series_recall_vs_ratio.csv").read_text() == (
        "k,hidden_ratio,paperrank,simavg\n"
        "5,0.1,0.125000,0.000000\n"
        "5,0.9,0.168750,0.031250\n"
        "10,0.1,0.375000,0.000000\n"
        "10,0.9,0.212500,0.062996\n")


def test_evaluate_samples_with_walk_params(dataset, monkeypatch):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--nodes", str(nodes),
          "--output", str(d / "g.npz")])
    drawn = []

    def recording(graph, params, strategy="uniform"):
        drawn.append((strategy, params))
        return generate_walk_corpus(graph, params, strategy)
    monkeypatch.setattr(sampling, "generate_walk_corpus", recording)
    assert main(["evaluate", "--graph", str(d / "g.npz"), "--queries", "4",
                 "--min-refs", "3", "--max-refs", "12",
                 "--min-year", "2008", "--max-year", "2008",
                 "--methods", "simavg", "--strategy", "biased",
                 "--n", "1", "--t", "5", "--p", "0.5", "--q", "2",
                 "--dim", "4", "--epochs", "1", "--seed", "3",
                 "--output", str(d / "report.csv")]) == 0
    assert drawn == [("biased", SamplingParams(n=1, t=5, p=0.5, q=2.0,
                                               seed=3))]


@pytest.mark.parametrize("methods", ["paperrank,cf", "simavg,paperrank"])
def test_evaluate_rejects_a_slice_that_leaks(dataset, capsys, monkeypatch,
                                             methods):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--nodes", str(nodes),
          "--output", str(d / "g.npz")])
    capsys.readouterr()
    time_slice = CitationGraph.time_slice
    kept = []   # (slice year, the future paper it keeps)

    def leaky(self, year):
        """The slice at ``year`` plus the first paper published after it."""
        sl = time_slice(self, year)
        tok = next(t for t, y in zip(self.ids, self.years) if y > year)
        kept.append((year, tok))
        return CitationGraph(sl.ids + [tok],
                             np.append(sl.years, self.year_of(tok)),
                             *sl.edge_list())
    monkeypatch.setattr(CitationGraph, "time_slice", leaky)
    assert main(["evaluate", "--graph", str(d / "g.npz"), "--queries", "8",
                 "--min-refs", "3", "--max-refs", "12",
                 "--min-year", "2007", "--max-year", "2009",
                 "--methods", methods, "--dim", "8", "--epochs", "1",
                 "--output", str(d / "report.csv")]) == 1
    [(year, tok)] = kept    # the first slice year ends the run
    assert re.fullmatch(
        rf"error: time leakage: '{tok}' \(year {g.year_of(tok)}\) serves "
        rf"query '[^']+' of year {year + 1}\n", capsys.readouterr().err)
    assert not (d / "report.csv").exists()


@pytest.mark.parametrize("flag,value,message", [
    ("--methods", "citmod,bogus", "unknown ranking method: 'bogus'"),
    ("--methods", "citmod,", "unknown ranking method: ''"),
    ("--k-values", "0,10", "k values must be >= 1"),
    ("--methods", "cf,cf", "repeated ranking method: 'cf'"),
    ("--k-values", "10,10", "repeated k value: 10"),
    ("--ratios", "0.1,0.1", "repeated hidden ratio: 0.1"),
    ("--ratios", "0.1,0.1000001",
     "hidden ratios 0.1 and 0.1000001 both print as 0.1"),
    ("--ratios", "0.1,0.1004",
     "hidden ratios 0.1 and 0.1004 both round to 0.1 and would draw the "
     "same queries"),
    ("--queries", "0", "n_queries must be >= 1"),
    ("--queries", "-5", "n_queries must be >= 1"),
])
def test_evaluate_rejects_bad_config_before_training(dataset, capsys,
                                                     monkeypatch, flag,
                                                     value, message):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--nodes", str(nodes),
          "--output", str(d / "g.npz")])
    capsys.readouterr()

    def no_training(*args, **kwargs):
        raise AssertionError("train called before the config was checked")
    monkeypatch.setattr(evaluation, "train", no_training)
    rc = main(["evaluate", "--graph", str(d / "g.npz"), "--queries", "8",
               "--min-refs", "3", "--max-refs", "12", "--dim", "8",
               "--epochs", "1", flag, value,
               "--output", str(d / "report.csv")])
    assert rc == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (d / "report.csv").exists()


# the params dataclasses each subcommand builds from its flags
PARAMS_OF = {"sample": (SamplingParams,), "train": (TrainParams,),
             "recommend": (PageRankParams,),
             "evaluate": (SamplingParams, TrainParams)}
# the fields that are flags; the others are library-only
FLAG_FIELDS = {
    SamplingParams: ["n", "t", "p", "q", "seed"],
    TrainParams: ["dim", "window", "epochs", "lr", "lr_min", "mode",
                  "negatives", "seed"],
    PageRankParams: ["damping"],
}
# the least each subcommand needs besides its params flags
REQUIRED = {"sample": ["--graph", "g"],
            "train": ["--graph", "g", "--corpus", "c"],
            "recommend": ["--method", "paperrank", "--seeds", "a"],
            "evaluate": ["--graph", "g"]}


def subcommand_flags(command):
    sub = build_parser()._subparsers._group_actions[0].choices[command]
    return {flag: a for a in sub._actions for flag in a.option_strings}


@pytest.mark.parametrize("command", sorted(PARAMS_OF))
def test_params_flags_are_their_dataclass_fields(command):
    flags = subcommand_flags(command)
    args = build_parser().parse_args([command, *REQUIRED[command],
                                      "--output", "o"])
    for cls in PARAMS_OF[command]:
        assert [f.name for f in fields(cls) if "help" in f.metadata] == \
            FLAG_FIELDS[cls]
        for f in fields(cls):
            flag = "--" + f.name.replace("_", "-")
            if f.name not in FLAG_FIELDS[cls]:
                assert flag not in flags
                continue
            action = flags[flag]
            assert action.dest == f.name
            assert type(action.default) is type(f.default)
            assert action.default == f.default
            assert action.type is type(f.default)
            assert action.choices == f.metadata.get("choices")
        # no flag given: the dataclass's own defaults
        assert cls(**params_args(cls, args)) == cls()


def test_evaluate_trains_with_the_train_flags(dataset, monkeypatch):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--nodes", str(nodes),
          "--output", str(d / "g.npz")])
    trained = []
    train = evaluation.train

    def spy(model, corpus, params):
        trained.append(params)
        return train(model, corpus, params)
    monkeypatch.setattr(evaluation, "train", spy)
    assert main(["evaluate", "--graph", str(d / "g.npz"), "--ratios", "0.5",
                 "--queries", "4", "--min-refs", "3", "--max-refs", "12",
                 "--min-year", "2008", "--max-year", "2009",
                 "--k-values", "5,10", "--methods", "citmod",
                 "--strategy", "cocit", "--n", "1", "--dim", "4",
                 "--epochs", "1", "--seed", "3", "--lr", "0.1",
                 "--lr-min", "0.001", "--negatives", "3",
                 "--output", str(d / "cli.csv")]) == 0
    from_cli = list(trained)
    trained.clear()
    cfg = evaluation.ExperimentConfig(
        hidden_ratios=(0.5,), n_queries=4, ref_range=(3, 12),
        year_range=(2008, 2009), k_values=(5, 10), methods=("citmod",),
        seed=3)
    tparams = TrainParams(dim=4, epochs=1, lr=0.1, lr_min=0.001,
                          negatives=3, seed=3)
    _, _, aggregates = evaluation.evaluate(CitationGraph.load_cache(
        d / "g.npz"), cfg, tparams, "cocit", 1)
    evaluation.write_report(d / "library.csv", aggregates)
    assert from_cli == trained == [tparams] * 2
    assert (d / "cli.csv").read_bytes() == (d / "library.csv").read_bytes()


def test_evaluate_config_sets_a_train_flag(dataset, monkeypatch, tmp_path):
    g, edges, nodes, d = dataset
    cfg = tmp_path / "run.cfg"
    cfg.write_text("lr_min = 0.001\n")
    main(["ingest", "--edges", str(edges), "--nodes", str(nodes),
          "--output", str(d / "g.npz")])
    trained = []

    def spy(model, corpus, params):
        trained.append(params)
        return model
    monkeypatch.setattr(evaluation, "train", spy)
    assert main(["evaluate", "--config", str(cfg), "--graph", str(d / "g.npz"),
                 "--queries", "4", "--min-refs", "3", "--max-refs", "12",
                 "--min-year", "2008", "--max-year", "2008",
                 "--methods", "simavg", "--dim", "4", "--epochs", "1",
                 "--output", str(d / "report.csv")]) == 0
    assert [p.lr_min for p in trained] == [0.001]


def test_config_file_defaults(dataset, tmp_path):
    g, edges, nodes, d = dataset
    cfg = tmp_path / "run.cfg"
    cfg.write_text("strategy = cocit\nn = 4   # passes\n")
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    assert main(["sample", "--config", str(cfg),
                 "--graph", str(d / "g.npz"),
                 "--output", str(d / "c.txt")]) == 0
    header = (d / "c.txt").read_text().splitlines()[0]
    assert "strategy=cocit" in header and "n=4" in header


def test_flag_overrides_config(dataset, tmp_path):
    g, edges, nodes, d = dataset
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 4\n")
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    main(["sample", "--config", str(cfg), "--n", "2",
          "--graph", str(d / "g.npz"), "--strategy", "cocit",
          "--output", str(d / "c.txt")])
    assert "n=2" in (d / "c.txt").read_text().splitlines()[0]


@pytest.mark.parametrize("text,message", [
    ("n = 4\n = 5\n", "2: unknown key ''"),
    ("# passes\nfoo = 1\n", "2: unknown key 'foo'"),
    ("help = 1\n", "1: unknown key 'help'"),
])
def test_config_key_must_name_a_flag(dataset, tmp_path, capsys, text,
                                     message):
    g, edges, nodes, d = dataset
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    capsys.readouterr()
    assert main(["sample", "--config", str(cfg), "--graph", str(d / "g.npz"),
                 "--output", str(d / "c.txt")]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:{message}\n"
    assert not (d / "c.txt").exists()


def test_missing_file_is_clean_error(tmp_path, capsys):
    rc = main(["ingest", "--edges", str(tmp_path / "nope.tsv"),
               "--output", str(tmp_path / "g.npz")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_train_without_windows_is_clean_error(dataset, capsys):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    (d / "single.txt").write_text(f"{g.ids[0]}\n{g.ids[1]}\n")
    rc = main(["train", "--graph", str(d / "g.npz"),
               "--corpus", str(d / "single.txt"), "--dim", "4",
               "--output", str(d / "model.txt")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err == "error: corpus produced no context windows\n"


def test_config_flag_without_file_is_clean_error(dataset, capsys):
    g, edges, nodes, d = dataset
    main(["ingest", "--edges", str(edges), "--output", str(d / "g.npz")])
    capsys.readouterr()
    rc = main(["train", "--graph", str(d / "g.npz"), "--config"])
    assert rc == 1
    assert capsys.readouterr().err == "error: --config needs a file argument\n"


def test_params_hash_stable():
    h = params_hash({"a": 1, "b": "x"})
    assert h == params_hash({"b": "x", "a": 1})
    assert h != params_hash({"a": 2, "b": "x"})


def test_read_config_rejects_garbage(tmp_path):
    p = tmp_path / "bad.cfg"
    p.write_text("just words\n")
    with pytest.raises(ValueError, match="key = value"):
        read_config(p)


REPORT_HEADER = "method,hidden_ratio,k,mean_recall,n_queries\n"


def test_plotdata_skips_blank_lines(tmp_path):
    report = tmp_path / "report.csv"
    report.write_text(REPORT_HEADER + "cf,0.1,10,0.500000,4\n\n"
                      "cf,0.1,50,0.750000,4\n\n")
    assert main(["plotdata", "--report", str(report),
                 "--prefix", str(tmp_path / "series")]) == 0
    assert (tmp_path / "series_recall_vs_k.csv").read_text() == (
        "hidden_ratio,k,cf\n0.1,10,0.500000\n0.1,50,0.750000\n")


def test_plotdata_rejects_short_row(tmp_path, capsys):
    report = tmp_path / "report.csv"
    report.write_text(REPORT_HEADER + "cf,0.1,10,0.500000,4\ncf,0.1\n")
    assert main(["plotdata", "--report", str(report),
                 "--prefix", str(tmp_path / "series")]) == 1
    assert capsys.readouterr().err == f"error: {report}:3: expected 5 fields\n"
    assert not (tmp_path / "series_recall_vs_k.csv").exists()


@pytest.mark.parametrize("text,message", [
    ("hidden_ratio,k,mean_recall,n_queries\ncf,0.1,10,0.5,4\n",
     ": missing report column(s): method"),
    ("method,ratio,k,recall\ncf,0.1,10,0.5\n",
     ": missing report column(s): hidden_ratio, mean_recall"),
    ("", ": missing report column(s): method, hidden_ratio, k, mean_recall"),
    (REPORT_HEADER + "cf,0.1,10,0.5,4\n\ncf,0.1,ten,0.5,4\n",
     ":4: invalid literal for int() with base 10: 'ten'"),
    (REPORT_HEADER + "cf,0.1,10,0.5,4\ncf,x,10,0.5,4\n",
     ":3: could not convert string to float: 'x'"),
    (REPORT_HEADER + "cf,0.1,10,0.5,4\ncf,0.10,10,0.9,4\n",
     ":3: repeated cell cf, k=10, ratio 0.1"),
], ids=["no-method", "two-missing", "empty", "bad-k", "bad-ratio",
        "repeated-cell"])
def test_plotdata_names_bad_report(tmp_path, capsys, text, message):
    report = tmp_path / "report.csv"
    report.write_text(text)
    assert main(["plotdata", "--report", str(report),
                 "--prefix", str(tmp_path / "series")]) == 1
    assert capsys.readouterr().err == f"error: {report}{message}\n"
    assert not (tmp_path / "series_recall_vs_k.csv").exists()
