"""Damaged input files through ``citerec.cli.main``.

Every file the command line reads is mutated many times: a byte changed,
the file cut short, a line duplicated, or a line inserted with part of it
repeated.  Whatever the damage, a run must either succeed or fail with
exactly one ``error:`` line on stderr, never a traceback.
"""

import shutil

import numpy as np
import pytest

from citerec.cli import main
from conftest import make_synthetic_citation_corpus_graph

MUTATIONS_PER_KIND = 150
FUZZ_SEED = 20240607


@pytest.fixture(scope="module")
def valid_inputs(tmp_path_factory):
    """One valid file of each kind, all from one small graph."""
    d = tmp_path_factory.mktemp("valid")
    g = make_synthetic_citation_corpus_graph(
        n_papers=120, n_communities=3, year_lo=2000, year_hi=2006,
        refs_lo=3, refs_hi=8, seed=3)
    g.save_edges(d / "edges.tsv", d / "nodes.tsv")
    for argv in (
            ["ingest", "--edges", d / "edges.tsv", "--nodes", d / "nodes.tsv",
             "--output", d / "g.npz"],
            ["sample", "--graph", d / "g.npz", "--strategy", "cocit",
             "--n", "1", "--output", d / "corpus.txt"],
            ["train", "--graph", d / "g.npz", "--corpus", d / "corpus.txt",
             "--dim", "4", "--epochs", "1", "--output", d / "model.txt"],
            ["evaluate", "--graph", d / "g.npz", "--ratios", "0.1,0.5",
             "--queries", "4", "--min-refs", "3", "--max-refs", "8",
             "--min-year", "2004", "--max-year", "2006", "--k-values", "5,10",
             "--methods", "cf,paperrank", "--output", d / "report.csv"]):
        assert main([str(a) for a in argv]) == 0
    return g, d


def mutate(data, rng):
    """``data`` with one random edit, and a description of the edit."""
    op = int(rng.integers(4))
    if op == 0 and data:
        i = int(rng.integers(len(data)))
        b = int(rng.integers(256))
        return data[:i] + bytes([b]) + data[i + 1:], f"byte {i} := {b:#04x}"
    if op == 1:
        i = int(rng.integers(len(data) + 1))
        return data[:i], f"cut at byte {i}"
    lines = data.split(b"\n")
    src = lines[int(rng.integers(len(lines)))]
    at = int(rng.integers(len(lines) + 1))
    if op == 2:
        new, what = src, "duplicated"
    else:
        a, b = sorted(int(x) for x in rng.integers(len(src) + 1, size=2))
        reps = int(rng.integers(2, 33))
        new, what = src[:a] + src[a:b] * reps + src[b:], f"[{a}:{b}]x{reps}"
    return (b"\n".join(lines[:at] + [new] + lines[at:]),
            f"line {src!r} {what} inserted at line {at + 1}")


KINDS = ["edges", "nodes", "corpus", "model", "model.out", "report", "cache"]


def targets(g, d, work):
    """For each kind: the file damaged in ``work`` and the command reading
    it; every other input is the valid one."""
    recommend = ["recommend", "--seeds", ",".join(g.ids[:2]), "--k", "5",
                 "--model", work / "model.txt", "--output", work / "rec.csv"]
    return {
        "edges": ("edges.tsv", ["ingest", "--edges", work / "edges.tsv",
                                "--nodes", d / "nodes.tsv",
                                "--output", work / "g.npz"]),
        "nodes": ("nodes.tsv", ["ingest", "--edges", d / "edges.tsv",
                                "--nodes", work / "nodes.tsv",
                                "--output", work / "g.npz"]),
        "corpus": ("corpus.txt", ["train", "--graph", d / "g.npz",
                                  "--corpus", work / "corpus.txt",
                                  "--dim", "4", "--epochs", "1",
                                  "--output", work / "m.txt"]),
        "model": ("model.txt", recommend + ["--method", "simavg"]),
        "model.out": ("model.txt.out", recommend + ["--method", "citmod"]),
        "report": ("report.csv", ["plotdata", "--report", work / "report.csv",
                                  "--prefix", work / "series"]),
        "cache": ("g.npz", ["slice", "--graph", work / "g.npz",
                            "--year", "2003", "--output", work / "s.npz"]),
    }


@pytest.mark.parametrize("kind", KINDS)
def test_damaged_input_gives_one_error_line(valid_inputs, tmp_path, capsys,
                                            kind):
    g, d = valid_inputs
    name, argv = targets(g, d, tmp_path)[kind]
    argv = [str(a) for a in argv]
    for f in ("model.txt", "model.txt.out"):  # a model is read as a pair
        shutil.copy(d / f, tmp_path / f)
    data = (d / name).read_bytes()
    rng = np.random.default_rng([FUZZ_SEED, KINDS.index(kind)])
    for _ in range(MUTATIONS_PER_KIND):
        damaged, what = mutate(data, rng)
        (tmp_path / name).write_bytes(damaged)
        try:
            rc = main(argv)
        except Exception as exc:
            pytest.fail(f"{kind}, {what}: {type(exc).__name__}: {exc}")
        err = capsys.readouterr().err
        assert rc in (0, 1), (kind, what, rc)
        if rc == 1:
            assert err.startswith("error: ") and err.count("\n") == 1 \
                and err.endswith("\n"), (kind, what, err)
