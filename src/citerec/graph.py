"""Directed citation graph with CSR adjacency and per-node year metadata.

An edge (u, w) means paper u cites paper w.  Ref(v) is the set of papers v
cites (out-neighbors), Cit(v) the set of papers citing v (in-neighbors) and
Adj(v) their union.  All three neighborhoods are stored contiguously per
node (CSR layout) and sorted by internal index, so the graph stays compact
and membership tests are O(log degree).

Graphs are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import logging
import zipfile
import zlib

import numpy as np

log = logging.getLogger(__name__)

YEAR_UNKNOWN = -1
_YEAR_RANGE = np.iinfo(np.int64)


class GraphFormatError(ValueError):
    """Malformed edge or node record (carries the offending line number)."""


class GraphError(ValueError):
    """Invalid graph operation (unknown node, missing metadata, ...)."""


def is_token(tok):
    """True when ``tok`` reads back unchanged from a whitespace-separated
    text line, as the corpus and model files need: non-empty and free of
    whitespace."""
    return tok.split() == [tok]


def text_lines(path):
    """Yield ``(line_number, line)`` for each line of the UTF-8 text file
    ``path``, newline removed, skipping lines that are empty or hold only
    whitespace.  A line that is not UTF-8 raises ``ValueError`` naming
    ``path:line``.  Every text reader in the package reads through here."""
    with open(path, encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, 1):
            # an undecodable byte is read as a lone surrogate, which does not
            # encode back
            if not line.isascii():
                try:
                    line.encode("utf-8")
                except UnicodeEncodeError:
                    raise ValueError(
                        f"{path}:{lineno}: not valid UTF-8") from None
            if not line.isspace():
                yield lineno, line.rstrip("\n")


def sorted_unique(keys):
    """``np.unique(keys, return_counts=True)`` for an integer array, by one
    sort and an adjacent difference, which numpy 2's ``unique`` is many
    times slower than on int64 keys."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    return keys[starts], np.diff(starts, append=keys.size)


def _csr_from_keys(keys, n):
    """(indptr, indices) of the pairs ``(key // n, key % n)`` of the sorted
    int64 ``keys``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


class CitationGraph:
    """Immutable directed citation graph over dense node indices 0..N-1.

    External paper ids (opaque tokens) map bijectively to internal indices;
    the mapping is fixed at construction and preserved by the binary cache.
    """

    def __init__(self, ids, years, edges_u, edges_w):
        self.ids = list(ids)
        self.n = len(self.ids)
        self.years = np.asarray(years, dtype=np.int64)
        if self.years.shape != (self.n,):
            raise GraphError("years array must have one entry per node")
        self._index = {tok: i for i, tok in enumerate(self.ids)}
        if len(self._index) != self.n:
            raise GraphError("duplicate paper ids")

        u = np.asarray(edges_u, dtype=np.int64)
        w = np.asarray(edges_w, dtype=np.int64)
        keep = u != w
        self.self_loops_dropped = int((~keep).sum())
        if self.self_loops_dropped:
            log.warning("dropped %d self-loop edge(s)", self.self_loops_dropped)
            u, w = u[keep], w[keep]
        n = np.int64(self.n)
        keys, _ = sorted_unique(u * n + w)
        self.duplicate_edges_dropped = u.size - keys.size
        self.m = int(keys.size)

        # out-edges keyed citing*n + cited, in-edges cited*n + citing, and
        # their undirected union, deduplicated (mutual citations collapse)
        in_keys = np.sort(keys % n * n + keys // n)
        all_keys, _ = sorted_unique(np.concatenate([keys, in_keys]))
        self.ref_indptr, self.ref_indices = _csr_from_keys(keys, n)
        self.cit_indptr, self.cit_indices = _csr_from_keys(in_keys, n)
        self.adj_indptr, self.adj_indices = _csr_from_keys(all_keys, n)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_edges(cls, edge_pairs, years=None):
        """Build a graph from (citing_id, cited_id) token pairs.

        ``years`` maps token -> publication year; tokens present only in
        ``years`` become isolated nodes, tokens present only in edges get
        an unknown year.
        """
        index = {}
        ids = []

        def idx(tok):
            i = index.get(tok)
            if i is None:
                i = len(ids)
                index[tok] = i
                ids.append(tok)
            return i

        u, w = [], []
        for citing, cited in edge_pairs:
            u.append(idx(citing))
            w.append(idx(cited))
        if years:
            for tok in years:
                idx(tok)
        year_arr = np.full(len(ids), YEAR_UNKNOWN, dtype=np.int64)
        if years:
            for tok, y in years.items():
                year_arr[index[tok]] = y
        return cls(ids, year_arr, u, w)

    # -- accessors --------------------------------------------------------

    def __contains__(self, token):
        return token in self._index

    def index_of(self, token):
        try:
            return self._index[token]
        except KeyError:
            raise GraphError(f"unknown paper id: {token!r}") from None

    def refs(self, i):
        """Out-neighbors Ref(i) as a sorted index array."""
        return self.ref_indices[self.ref_indptr[i]:self.ref_indptr[i + 1]]

    def cits(self, i):
        """In-neighbors Cit(i) as a sorted index array."""
        return self.cit_indices[self.cit_indptr[i]:self.cit_indptr[i + 1]]

    def adj(self, i):
        """Undirected neighborhood Adj(i) = Ref(i) ∪ Cit(i), sorted."""
        return self.adj_indices[self.adj_indptr[i]:self.adj_indptr[i + 1]]

    def degree(self, i):
        """Undirected degree δ(i) = |Adj(i)|."""
        return int(self.adj_indptr[i + 1] - self.adj_indptr[i])

    @property
    def degrees(self):
        return np.diff(self.adj_indptr)

    def neighbors(self, token, mode="adj"):
        """Neighbor tokens of ``token`` in ascending internal-index order."""
        i = self.index_of(token)
        if mode == "refs":
            rows = self.refs(i)
        elif mode == "cits":
            rows = self.cits(i)
        elif mode == "adj":
            rows = self.adj(i)
        else:
            raise GraphError(f"unknown neighbor mode: {mode!r}")
        return [self.ids[j] for j in rows]

    @property
    def has_years(self):
        return bool(np.any(self.years != YEAR_UNKNOWN))

    def year_of(self, token):
        y = int(self.years[self.index_of(token)])
        return None if y == YEAR_UNKNOWN else y

    # -- time slicing -----------------------------------------------------

    def time_slice(self, year):
        """Subgraph of papers with a known publication year <= ``year``.

        Nodes with unknown year are removed along with all incident edges.
        """
        if self.n and not self.has_years:
            raise GraphError("time-slice requires years")
        keep = (self.years != YEAR_UNKNOWN) & (self.years <= year)
        new_of_old = np.full(self.n, -1, dtype=np.int64)
        new_of_old[keep] = np.arange(int(keep.sum()))
        ids = [tok for tok, k in zip(self.ids, keep) if k]
        u, w = self.edge_list()
        emask = keep[u] & keep[w]
        return CitationGraph(ids, self.years[keep], new_of_old[u[emask]],
                             new_of_old[w[emask]])

    # -- serialization ----------------------------------------------------

    def edge_list(self):
        """All directed edges as (citing_index, cited_index) arrays."""
        u = np.repeat(np.arange(self.n), np.diff(self.ref_indptr))
        return u, self.ref_indices.copy()

    def save_cache(self, path):
        """Pickle-free binary cache; round-trips ids, years and edges exactly.

        Ids are stored as a numpy unicode array, which drops trailing NULs,
        so an id that would not come back unchanged is rejected.
        """
        ids = np.array(self.ids, dtype=str)
        for tok, back in zip(self.ids, ids.tolist()):
            if tok != back:
                raise GraphError(
                    f"paper id {tok!r} cannot be stored in a graph cache")
        u, w = self.edge_list()
        np.savez_compressed(
            path,
            ids=ids,
            years=self.years,
            edges_u=u,
            edges_w=w,
        )

    @classmethod
    def load_cache(cls, path):
        with open(path, "rb") as f:  # a missing file stays an OSError
            if not zipfile.is_zipfile(f):  # truncated, or not an .npz at all
                raise GraphError(f"{path}: not a citerec graph cache")
        try:
            # every member's CRC is checked before numpy parses any of it
            with zipfile.ZipFile(path) as zf:
                if zf.testzip() is not None:
                    raise zipfile.BadZipFile
            with np.load(path) as z:
                try:
                    ids = z["ids"].tolist()
                except ValueError:  # an object array, which only pickle loads
                    raise GraphError(f"{path}: graph cache holds pickled ids; "
                                     "re-run citerec ingest") from None
                return cls(ids, z["years"], z["edges_u"], z["edges_w"])
        # a damaged archive or member, a member zipfile cannot read (an
        # unknown method or encryption: RuntimeError), a seek to a damaged
        # directory offset or a bad bzip2 stream (OSError), or an .npz
        # without the cache's arrays
        except (zipfile.BadZipFile, EOFError, KeyError, zlib.error,
                RuntimeError, OSError):
            raise GraphError(f"{path}: not a citerec graph cache") from None

    def save_edges(self, edges_path, nodes_path=None):
        """Write the tab-separated edge file (and optional node-year file)."""
        u, w = self.edge_list()
        with open(edges_path, "w", encoding="utf-8") as f:
            for a, b in zip(u, w):
                f.write(f"{self.ids[a]}\t{self.ids[b]}\n")
        if nodes_path is not None:
            with open(nodes_path, "w", encoding="utf-8") as f:
                for tok, y in zip(self.ids, self.years):
                    if y != YEAR_UNKNOWN:
                        f.write(f"{tok}\t{y}\n")


def load_graph(edges_path, nodes_path=None):
    """Load a graph from an edge file and an optional node-year file.

    Edge file: one ``<citing_id>\\t<cited_id>`` record per line.
    Node file: one ``<paper_id>\\t<year>`` record per line.
    """
    edges = []
    for lineno, line in text_lines(edges_path):
        parts = line.split("\t")
        if len(parts) != 2 or not parts[0] or not parts[1]:
            raise GraphFormatError(
                f"{edges_path}:{lineno}: expected <citing>\\t<cited>, got {line!r}")
        edges.append((parts[0], parts[1]))
    years = None
    if nodes_path is not None:
        years = {}
        for lineno, line in text_lines(nodes_path):
            parts = line.split("\t")
            if len(parts) != 2 or not parts[0]:
                raise GraphFormatError(
                    f"{nodes_path}:{lineno}: expected <paper_id>\\t<year>, got {line!r}")
            try:
                y = int(parts[1])
            except ValueError:
                raise GraphFormatError(
                    f"{nodes_path}:{lineno}: year is not an integer: {parts[1]!r}") from None
            if not _YEAR_RANGE.min <= y <= _YEAR_RANGE.max:
                raise GraphFormatError(
                    f"{nodes_path}:{lineno}: year out of range: {parts[1]!r}")
            years[parts[0]] = y
    return CitationGraph.from_edges(edges, years)
