import numpy as np
import pytest

from citerec import evaluation, sampling
from citerec.cli import main, params_hash, read_config
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
        "error: paper id not in vocabulary: 'ZZ'\n")


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


def test_pickled_graph_cache_is_clean_error(tmp_path, capsys):
    old = tmp_path / "old.npz"
    np.savez_compressed(old, ids=np.array(["A", "B"], dtype=object),
                        years=np.array([2000, 2001]),
                        edges_u=np.array([1]), edges_w=np.array([0]))
    assert main(["slice", "--graph", str(old), "--year", "2000",
                 "--output", str(tmp_path / "s.npz")]) == 1
    assert capsys.readouterr().err == (
        f"error: {old}: graph cache holds pickled ids; re-run citerec ingest\n")


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
], ids=["no-method", "two-missing", "empty", "bad-k", "bad-ratio"])
def test_plotdata_names_bad_report(tmp_path, capsys, text, message):
    report = tmp_path / "report.csv"
    report.write_text(text)
    assert main(["plotdata", "--report", str(report),
                 "--prefix", str(tmp_path / "series")]) == 1
    assert capsys.readouterr().err == f"error: {report}{message}\n"
    assert not (tmp_path / "series_recall_vs_k.csv").exists()
