"""Independent brute-force reimplementation of the feature extractor.

Used as a differential oracle: same contract as
``leaklab.features.extract_features`` but written from the documented
behavior with plain loops, integer arithmetic, and bisect-based
histogramming.  Any divergence on a fuzzed trace is a bug in one side.

``oracle_ngram_hash_matrix`` is ``leaklab.features.ngram_hash_matrix`` as
it was when it returned a scipy CSR matrix over all ``dim`` buckets; the
dense matrix must equal its nonzero columns.
"""

from bisect import bisect_right

import numpy as np
import scipy.sparse

from leaklab.trace import (
    CiphertextDiff,
    CodeFetch,
    DataAccess,
    Marker,
)


def _window(trace):
    has_marker = any(isinstance(e, Marker) for e in trace.events)
    if not has_marker:
        return list(trace.events)
    out, inside = [], False
    for e in trace.events:
        if isinstance(e, Marker):
            inside = e.kind == "START"
        elif inside:
            out.append(e)
    return out


def _order_stats(vals, n_bins):
    if len(vals) == 0:
        return [0.0] * (11 + n_bins)
    vals = sorted(float(v) for v in vals)
    n = len(vals)
    deciles = []
    for k in range(1, 10):
        idx = (k * n + 9) // 10 - 1  # integer ceil-division nearest rank
        deciles.append(vals[idx if idx >= 0 else 0])
    hi = vals[-1]
    hist = [0.0] * n_bins
    if hi == 0.0:
        hist[0] = float(n)
    else:
        edges = list(np.linspace(0.0, hi, n_bins + 1))
        for v in vals:
            b = bisect_right(edges, v) - 1
            if b >= n_bins:
                b = n_bins - 1
            hist[b] += 1.0
    return [vals[0], vals[-1]] + deciles + hist


def oracle_extract(trace, sets, n_bins=10, m_cf=64, m_da=64):
    """Feature values for ``sets``, concatenated in the given order."""
    ev = _window(trace)
    cfs = [e for e in ev if isinstance(e, CodeFetch)]
    das = [e for e in ev if isinstance(e, DataAccess)]
    cis = [e for e in ev if isinstance(e, CiphertextDiff)]

    out = []
    for name in sets:
        if name == "F1":
            out += [len(cfs), len({e.gpn for e in cfs}),
                    len(das), len({e.gpn for e in das})]
        elif name == "F2":
            pairs = {(e.gpn, ln) for e in das if e.lines for ln in e.lines}
            total = sum(len(e.lines) for e in das if e.lines)
            out += [total, len(pairs), len(cis),
                    len({(e.gpn, e.block) for e in cis})]
        elif name == "F3":
            lf = [0.0] * 64
            for e in das:
                for ln in (e.lines or ()):
                    lf[ln] += 1
            bf = [0.0] * 256
            for e in cis:
                bf[e.block] += 1
            out += lf + bf
        elif name == "F4":
            runs, cur = [], None
            lt, lu, bt, bu = {}, {}, {}, {}
            for e in ev:
                if isinstance(e, CodeFetch):
                    if cur is not None:
                        runs.append(cur)
                    cur = 0
                elif isinstance(e, DataAccess):
                    if cur is not None:
                        cur += 1
                    if e.lines:
                        lt[e.gpn] = lt.get(e.gpn, 0) + len(e.lines)
                        lu.setdefault(e.gpn, set()).update(e.lines)
                elif isinstance(e, CiphertextDiff):
                    bt[e.gpn] = bt.get(e.gpn, 0) + 1
                    bu.setdefault(e.gpn, set()).add(e.block)
            if cur is not None:
                runs.append(cur)
            for vals in (runs, list(lt.values()),
                         [len(s) for s in lu.values()],
                         list(bt.values()),
                         [len(s) for s in bu.values()]):
                out += _order_stats(vals, n_bins)
        elif name == "F5":
            cf_pages, da_pages = [], []
            cf_n, da_n = {}, {}
            for e in ev:
                if isinstance(e, CodeFetch):
                    if e.gpn not in cf_n:
                        cf_pages.append(e.gpn)
                    cf_n[e.gpn] = cf_n.get(e.gpn, 0) + 1
                elif isinstance(e, DataAccess):
                    if e.gpn not in da_n:
                        da_pages.append(e.gpn)
                    da_n[e.gpn] = da_n.get(e.gpn, 0) + 1
            row = [0.0] * (m_cf + m_da)
            for i, p in enumerate(cf_pages[:m_cf]):
                row[i] = float(cf_n[p])
            for j, p in enumerate(da_pages[:m_da]):
                row[m_cf + j] = float(da_n[p])
            out += row
        else:
            raise ValueError(name)
    return np.array(out, dtype=np.float64)


_FNV = np.uint64(1099511628211)


def oracle_ngram_hash_matrix(sequences, max_ngram: int = 3, dim: int = 2 ** 15):
    """Bag of hashed n-grams (n = 1..max_ngram) as a CSR count matrix."""
    if max_ngram < 1:
        raise ValueError("max_ngram must be >= 1")
    indptr = [0]
    indices: list[np.ndarray] = []
    data: list[np.ndarray] = []
    for seq in sequences:
        t = np.asarray(seq, dtype=np.uint64)
        buckets = []
        with np.errstate(over="ignore"):
            h = t.copy()
            for n in range(1, max_ngram + 1):
                if len(h):
                    # mix in n so unigram/bigram spaces do not alias
                    buckets.append(((h * _FNV + np.uint64(n)) % np.uint64(dim)).astype(np.int64))
                if n < max_ngram:
                    h = h[:-1] * _FNV + t[n:]
        if buckets:
            counts = np.bincount(np.concatenate(buckets), minlength=dim)
            nz = np.flatnonzero(counts)
            indices.append(nz)
            data.append(counts[nz].astype(np.float64))
            indptr.append(indptr[-1] + len(nz))
        else:
            indptr.append(indptr[-1])
    if not indices:
        return scipy.sparse.csr_matrix((len(indptr) - 1, dim))
    return scipy.sparse.csr_matrix(
        (np.concatenate(data), np.concatenate(indices), np.array(indptr)),
        shape=(len(indptr) - 1, dim),
    )
