"""Directed citation graph with CSR adjacency and per-node year metadata.

An edge (u, w) means paper u cites paper w.  Ref(v) is the set of papers v
cites (out-neighbors), Cit(v) the set of papers citing v (in-neighbors) and
Adj(v) their union.  All three neighborhoods are stored contiguously per
node (CSR layout) and sorted by internal index, so the graph stays compact
and membership tests are O(log degree).

Graphs are immutable after construction and safe to share across workers.
"""

from __future__ import annotations

import io
import logging
import tokenize
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


def csr_gather(indptr, indices, rows):
    """The members of the CSR rows ``rows``, concatenated in the order
    given, and each row's member count."""
    lo = indptr[rows]
    counts = indptr[rows + 1] - lo
    starts = np.cumsum(counts) - counts
    flat = np.repeat(lo - starts, counts) + np.arange(counts.sum())
    return indices[flat], counts


def _csr_from_keys(keys, n):
    """(indptr, indices) of the pairs ``(key // n, key % n)`` of the sorted
    int64 ``keys``."""
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
    return indptr, keys % n


class PaperIds:
    """Distinct paper ids (opaque tokens) and their rows: ``ids[i]`` is
    row i.  Graphs and models both map ids to rows through here.  Every id
    must encode as UTF-8, as every text writer writes it so."""

    def __init__(self, ids):
        self.ids = list(ids)
        # one C-level pass clears the common all-ASCII case
        if not "".join(self.ids).isascii():
            for tok in self.ids:
                try:
                    tok.encode("utf-8")
                except UnicodeEncodeError:  # a lone surrogate
                    raise GraphError(
                        f"paper id {tok!r} does not encode as UTF-8") from None
        self._rows = {tok: i for i, tok in enumerate(self.ids)}
        if len(self._rows) != len(self.ids):
            raise GraphError("duplicate paper ids")

    def __contains__(self, token):
        return token in self._rows

    def index_of(self, token):
        try:
            return self._rows[token]
        except KeyError:
            raise GraphError(f"unknown paper id: {token!r}") from None

    def rows_of(self, tokens):
        """The row of each id in ``tokens``, in order, as int64; -1 for an
        id not held here."""
        get = self._rows.get
        return np.array([get(t, -1) for t in tokens], np.int64)

    def seed_rows(self, seeds):
        """The rows of the seed set ``seeds``, ascending, unique, int64."""
        rows = np.array(sorted({self.index_of(s) for s in seeds}), np.int64)
        if rows.size == 0:
            raise ValueError("seed set must be non-empty")
        return rows


class CitationGraph(PaperIds):
    """Immutable directed citation graph over dense node indices 0..N-1.

    External paper ids map bijectively to internal indices; the mapping is
    fixed at construction and preserved by the binary cache.
    """

    def __init__(self, ids, years, edges_u, edges_w):
        super().__init__(ids)
        self.n = len(self.ids)
        years, u, w = (np.asarray(a) for a in (years, edges_u, edges_w))
        for a in (years, u, w):
            # an empty list reads as float64, so only a non-empty one is typed
            if a.ndim != 1 or a.size and not (a.dtype.kind in "iu" and
                                              np.can_cast(a.dtype, np.int64)):
                raise GraphError("years and edges must be 1-D integer arrays")
        if years.size != self.n:
            raise GraphError("years array must have one entry per node")
        if u.size != w.size:
            raise GraphError("edges_u and edges_w must have one length")
        if u.size and not (0 <= min(u.min(), w.min()) and
                           max(u.max(), w.max()) < self.n):
            raise GraphError(f"edge index out of range for {self.n} nodes")
        self.years = years.astype(np.int64, copy=False)
        u, w = u.astype(np.int64, copy=False), w.astype(np.int64, copy=False)
        keep = u != w
        self.self_loops_dropped = int((~keep).sum())
        if self.self_loops_dropped:
            log.warning("dropped %d self-loop edge(s)", self.self_loops_dropped)
            u, w = u[keep], w[keep]
        n = np.int64(self.n)
        # with return_counts, numpy 2.4's unique sorts; without, it hashes the
        # keys, about 15x slower on the 5k-paper benchmark graph
        keys, _ = np.unique(u * n + w, return_counts=True)
        self.duplicate_edges_dropped = u.size - keys.size
        self.m = int(keys.size)

        # out-edges keyed citing*n + cited, in-edges cited*n + citing, and
        # their undirected union, deduplicated (mutual citations collapse)
        in_keys = np.sort(keys % n * n + keys // n)
        all_keys, _ = np.unique(np.concatenate([keys, in_keys]),
                                return_counts=True)
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
        u, w = [], []
        for citing, cited in edge_pairs:
            u.append(index.setdefault(citing, len(index)))
            w.append(index.setdefault(cited, len(index)))
        years = years or {}
        rows = [index.setdefault(tok, len(index)) for tok in years]
        ids = list(index)
        year_arr = np.full(len(ids), YEAR_UNKNOWN, dtype=np.int64)
        year_arr[rows] = list(years.values())
        return cls(ids, year_arr, u, w)

    # -- accessors --------------------------------------------------------

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
        bad = f"{path}: not a citerec graph cache"
        with open(path, "rb") as f:  # a missing file stays an OSError
            try:
                # zipfile checks each member's CRC as it reads it to its end
                with zipfile.ZipFile(f) as zf:
                    members = {m.filename: zf.read(m) for m in zf.infolist()}
                ids, years, u, w = (members.pop(f"{k}.npy") for k in
                                    ("ids", "years", "edges_u", "edges_w"))
            # a truncated or damaged archive or member, a member zipfile
            # cannot read (an unknown method or encryption: RuntimeError), a
            # seek to a damaged directory offset or a bad bzip2 stream
            # (OSError), or an .npz without the cache's arrays
            except (zipfile.BadZipFile, EOFError, KeyError, zlib.error,
                    RuntimeError, OSError):
                raise GraphError(bad) from None
        try:
            # every array is parsed first, so no raw member is held while the
            # graph is built
            ids, years, u, w = (np.lib.format.read_array(io.BytesIO(a),
                                                         allow_pickle=False)
                                for a in (ids, years, u, w))
            if ids.ndim != 1 or ids.dtype.kind != "U":
                raise ValueError("ids are not a 1-D text array")
            return cls(ids.tolist(), years, u, w)
        # an array numpy cannot parse (a header with unbalanced brackets
        # raises TokenError; an object array would need pickle), or arrays
        # that form no graph
        except (ValueError, tokenize.TokenError):
            raise GraphError(bad) from None

    def save_edges(self, edges_path, nodes_path=None):
        """Write the tab-separated edge file (and optional node-year file).
        An id that would not read back, one that is empty, holds only
        whitespace (a line of two such ids is skipped as blank) or holds a
        tab or a line break, raises GraphError before anything is
        written."""
        for tok in self.ids:
            if not tok.strip():
                raise GraphError(f"paper id {tok!r} is blank and cannot be "
                                 "written to an edge or node file")
            for c in "\t\n\r":
                if c in tok:
                    raise GraphError(f"paper id {tok!r} holds {c!r} and cannot "
                                     "be written to an edge or node file")
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
            if years.setdefault(parts[0], y) != y:
                raise GraphFormatError(
                    f"{nodes_path}:{lineno}: paper id {parts[0]!r} already has "
                    f"year {years[parts[0]]}")
    return CitationGraph.from_edges(edges, years)
