"""Correctness checks run after the timed region of every benchmark run.

Each check returns None when it passes and a one-line reason when it
fails; ``Ops`` counts them with the workload's other operations.
"""

import io
import sys

import numpy as np

from citerec.evaluation import check_no_time_leakage


class Ops:
    """Attempted and failed operations of one run; failed / attempted is
    the run's failed share."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def record(self, reason, what=""):
        """Count one operation; ``reason`` is None when it succeeded."""
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{what}: {reason}" if what else reason)
                print(f"check failed: {self.reasons[-1]}", file=sys.stderr)


def ranked_list(ranked, seeds, ids, k):
    """min(k, N - |S|) distinct ids, no seed, descending score then
    ascending candidate index."""
    seeds = set(seeds)
    want = min(k, len(ids) - len(seeds))
    toks = [tok for tok, _ in ranked]
    if len(toks) != want:
        return f"{len(toks)} ids, expected {want}"
    if len(set(toks)) != len(toks):
        return "duplicate ids"
    if seeds & set(toks):
        return "a seed is recommended"
    index = {tok: i for i, tok in enumerate(ids)}
    for (ta, sa), (tb, sb) in zip(ranked, ranked[1:]):
        if not (sa > sb or (sa == sb and index[ta] < index[tb])):
            return f"{ta!r} ({sa!r}) is ranked above {tb!r} ({sb!r})"
    return None


def recalls_in_range(records):
    for rec in records:
        for key, val in rec.items():
            if key.startswith("recall@") and not 0.0 <= val <= 1.0:
                return f"{key}={val} for {rec['method']} on {rec['query_id']}"
    return None


def no_time_leakage(serving, full_graph, queries):
    try:
        check_no_time_leakage(serving, full_graph, queries)
    except (ValueError, KeyError) as exc:
        return str(exc)
    return None


def model_finite(model):
    if np.isfinite(model.w_in).all() and np.isfinite(model.w_out).all():
        return None
    return "non-finite model parameters"


def same_graph(a, b):
    if a.ids != b.ids:
        return "paper ids differ"
    for attr in ("years", "ref_indptr", "ref_indices"):
        if not np.array_equal(getattr(a, attr), getattr(b, attr)):
            return f"{attr} differ"
    return None


def same_corpus(a, b):
    if len(a.sequences) != len(b.sequences):
        return f"{len(a.sequences)} vs {len(b.sequences)} sequences"
    for i, (x, y) in enumerate(zip(a.sequences, b.sequences)):
        if not np.array_equal(x, y):
            return f"sequence {i} differs"
    return None


def same_model(a, b):
    """Equal up to the text format's 9 significant digits."""
    if a.ids != b.ids:
        return "vocabularies differ"
    for attr in ("w_in", "w_out"):
        if not np.allclose(getattr(a, attr), getattr(b, attr),
                           rtol=1e-8, atol=0.0):
            return f"{attr} differs beyond 9 significant digits"
    return None


def same_file(path, before, after):
    """Byte equality; npz archives compare by their arrays, because zip
    members carry the time they were written."""
    if before == after:
        return None
    if str(path).endswith(".npz"):
        with np.load(io.BytesIO(before), allow_pickle=True) as x, \
                np.load(io.BytesIO(after), allow_pickle=True) as y:
            if sorted(x.files) == sorted(y.files) and all(
                    np.array_equal(x[f], y[f]) for f in x.files):
                return None
    return f"{path} differs"
