"""Handcrafted trace features and the token abstraction for sequence models.

Five feature families summarize one trace:

* F1 - total/distinct code fetches and data accesses (4 values);
* F2 - total/distinct cache lines and ciphertext blocks (4 values);
* F3 - 64-bin cache-line histogram and 256-bin block-index histogram;
* F4 - order statistics (min, max, nine deciles, N-bin histogram) of five
  per-trace multisets: data accesses following each code fetch, and
  per-page total/unique cache lines and ciphertext blocks;
* F5 - per-page code-fetch and data-access frequencies for the first
  M_CF/M_DA pages in order of first appearance.

Counts are taken over the marker-windowed portion of the trace.
Features whose channel was not collected are zero-filled and flagged in
``FeatureVector.warnings``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .trace import (
    BLOCKS_PER_PAGE,
    LINES_PER_PAGE,
    CodeFetch,
    CiphertextDiff,
    CounterSnapshot,
    DataAccess,
    Marker,
    Trace,
    windowed_events,
)

__all__ = [
    "FeatureParams",
    "FeatureVector",
    "FEATURE_SET_NAMES",
    "extract_features",
    "TokenSequence",
    "tokenize",
    "ngram_hash_matrix",
]

FEATURE_SET_NAMES = ("F1", "F2", "F3", "F4", "F5")

#: channels each feature set draws on (page is the carrier for all)
_SET_CHANNELS = {
    "F1": {"page"},
    "F2": {"cache", "cipher"},
    "F3": {"cache", "cipher"},
    "F4": {"page", "cache", "cipher"},
    "F5": {"page"},
}


@dataclass(frozen=True)
class FeatureParams:
    """Knobs for F4/F5: histogram bin count and page-frequency widths."""

    n_bins: int = 10
    m_cf: int = 64
    m_da: int = 64

    def __post_init__(self):
        if self.n_bins < 1 or self.m_cf < 1 or self.m_da < 1:
            raise ValueError("feature params must be positive")


@dataclass
class FeatureVector:
    values: np.ndarray
    names: list[str]
    warnings: list[str] = field(default_factory=list)


def _dist_stats(values: list[int], n_bins: int, prefix: str):
    """min, max, deciles 1..9 (nearest rank), and an N-bin histogram.

    The histogram spans [0, max]; an empty multiset yields all zeros and
    a degenerate max of 0 puts all mass in bin 0.
    """
    names = ([f"{prefix}_min", f"{prefix}_max"]
             + [f"{prefix}_q{k}" for k in range(1, 10)]
             + [f"{prefix}_hist_{i}" for i in range(n_bins)])
    if not values:
        return np.zeros(11 + n_bins), names
    arr = np.sort(np.asarray(values, dtype=np.float64))
    n = len(arr)
    deciles = [arr[max(0, int(np.ceil(k * n / 10)) - 1)] for k in range(1, 10)]
    hi = float(arr[-1])
    if hi == 0.0:
        hist = np.zeros(n_bins)
        hist[0] = n
    else:
        hist, _ = np.histogram(arr, bins=n_bins, range=(0.0, hi))
    out = np.concatenate([[arr[0], arr[-1]], deciles, hist.astype(np.float64)])
    return out, names


class _TracePass:
    """Accumulators for all five sets, filled by one walk over the
    marker-windowed events.  Per-page dicts keep first-appearance order."""

    def __init__(self, trace: Trace):
        cf_count: dict[int, int] = {}      # code page -> fetches
        da_count: dict[int, int] = {}      # data page -> accesses
        lines_total: dict[int, int] = {}   # data page -> lines, with repeats
        lines_seen: dict[int, set] = {}    # data page -> distinct lines
        blocks_total: dict[int, int] = {}  # page -> block diffs
        blocks_seen: dict[int, set] = {}   # page -> distinct diffed blocks
        all_lines: list[int] = []
        all_blocks: list[int] = []
        da_after_cf: list[int] = []        # data accesses after each fetch
        run = None
        for ev in windowed_events(trace):
            kind = type(ev)
            if kind is CiphertextDiff:
                gpn = ev.gpn
                blocks_total[gpn] = blocks_total.get(gpn, 0) + 1
                blocks_seen.setdefault(gpn, set()).add(ev.block)
                all_blocks.append(ev.block)
            elif kind is CodeFetch:
                cf_count[ev.gpn] = cf_count.get(ev.gpn, 0) + 1
                if run is not None:
                    da_after_cf.append(run)
                run = 0
            elif kind is DataAccess:
                gpn = ev.gpn
                da_count[gpn] = da_count.get(gpn, 0) + 1
                if run is not None:
                    run += 1
                lines = ev.lines
                if lines:
                    lines_total[gpn] = lines_total.get(gpn, 0) + len(lines)
                    lines_seen.setdefault(gpn, set()).update(lines)
                    all_lines.extend(lines)
        if run is not None:
            da_after_cf.append(run)
        self.cf_count = cf_count
        self.da_count = da_count
        self.lines_total = lines_total
        self.lines_unique = [len(s) for s in lines_seen.values()]
        self.blocks_total = blocks_total
        self.blocks_unique = [len(s) for s in blocks_seen.values()]
        self.all_lines = all_lines
        self.all_blocks = all_blocks
        self.da_after_cf = da_after_cf


def _f1(acc: _TracePass, params: FeatureParams):
    vals = [sum(acc.cf_count.values()), len(acc.cf_count),
            sum(acc.da_count.values()), len(acc.da_count)]
    return (np.array(vals, dtype=np.float64),
            ["cf_total", "cf_unique", "da_total", "da_unique"])


def _f2(acc: _TracePass, params: FeatureParams):
    vals = [len(acc.all_lines), sum(acc.lines_unique),
            len(acc.all_blocks), sum(acc.blocks_unique)]
    return (np.array(vals, dtype=np.float64),
            ["cache_total", "cache_unique", "ci_total", "ci_unique"])


def _f3(acc: _TracePass, params: FeatureParams):
    line_freq = np.bincount(np.array(acc.all_lines, dtype=np.intp),
                            minlength=LINES_PER_PAGE)
    block_freq = np.bincount(np.array(acc.all_blocks, dtype=np.intp),
                             minlength=BLOCKS_PER_PAGE)
    names = ([f"line_freq_{i:02d}" for i in range(LINES_PER_PAGE)]
             + [f"block_freq_{i:03d}" for i in range(BLOCKS_PER_PAGE)])
    return np.concatenate([line_freq, block_freq]).astype(np.float64), names


def _f4(acc: _TracePass, params: FeatureParams):
    parts, names = [], []
    for vals, prefix in (
        (acc.da_after_cf, "da_after_cf"),
        (list(acc.lines_total.values()), "page_lines_total"),
        (acc.lines_unique, "page_lines_unique"),
        (list(acc.blocks_total.values()), "page_blocks_total"),
        (acc.blocks_unique, "page_blocks_unique"),
    ):
        v, nm = _dist_stats(vals, params.n_bins, prefix)
        parts.append(v)
        names.extend(nm)
    return np.concatenate(parts), names


def _f5(acc: _TracePass, params: FeatureParams):
    cf = np.zeros(params.m_cf)
    counts = list(acc.cf_count.values())[:params.m_cf]
    cf[:len(counts)] = counts
    da = np.zeros(params.m_da)
    counts = list(acc.da_count.values())[:params.m_da]
    da[:len(counts)] = counts
    names = ([f"cf_page_{i:03d}" for i in range(params.m_cf)]
             + [f"da_page_{i:03d}" for i in range(params.m_da)])
    return np.concatenate([cf, da]), names


_SET_BUILDERS = {"F1": _f1, "F2": _f2, "F3": _f3, "F4": _f4, "F5": _f5}


def extract_features(trace: Trace, sets, params: FeatureParams | None = None) -> FeatureVector:
    """Concatenated feature vector for the requested sets, in given order.

    One walk over the trace fills the counts behind all five sets; each
    requested set is then built from them.
    """
    params = params or FeatureParams()
    sets = list(sets)
    if not sets:
        raise ValueError("at least one feature set required")
    warnings = []
    for name in sets:
        if name not in FEATURE_SET_NAMES:
            raise ValueError(f"unknown feature set: {name!r}")
        missing = _SET_CHANNELS[name] - trace.channels
        if missing:
            warnings.append(
                f"{name}: channels {sorted(missing)} absent from trace; "
                "their features are zero-filled"
            )
    acc = _TracePass(trace)
    values, names = [], []
    for name in sets:
        v, nm = _SET_BUILDERS[name](acc, params)
        values.append(v)
        names.extend(f"{name}.{n}" for n in nm)
    return FeatureVector(values=np.concatenate(values), names=names,
                         warnings=warnings)


# ---------------------------------------------------------------------------
# token abstraction
# ---------------------------------------------------------------------------

#: fixed token ids; page tokens are indexed by first appearance so that
#: two traces identical up to a uniform page renumbering tokenize equally
TOKEN_OOV = 0
TOKEN_CHANGED = 1
TOKEN_MARK_START = 2
TOKEN_MARK_STOP = 3
_LINE_BASE = 4
_BLOCK_BASE = _LINE_BASE + LINES_PER_PAGE
_CODE_BASE = _BLOCK_BASE + BLOCKS_PER_PAGE

DEFAULT_VOCAB = 10_000
DEFAULT_MAX_TOKENS = 5_000


@dataclass
class TokenSequence:
    tokens: list[int]
    vocab_size: int


def tokenize(trace: Trace, vocab_size: int = DEFAULT_VOCAB,
             max_tokens: int = DEFAULT_MAX_TOKENS) -> TokenSequence:
    """Abstract a trace into a bounded-vocabulary token stream.

    Code and data pages become CODE_i/DATA_j indexed by first appearance,
    data accesses append LINE_k tokens in ascending order, ciphertext
    diffs become (BLOCK_b, CHANGED) pairs, markers map to dedicated
    tokens and counter snapshots are dropped.  Page indices beyond the
    vocabulary budget collapse to the out-of-vocabulary token.  Sequences
    longer than ``max_tokens`` keep their tail: recent context matters
    more than prologue.
    """
    budget = vocab_size - _CODE_BASE
    if budget < 2:
        raise ValueError("vocab_size too small for the fixed token layout")
    code_cap = budget // 2
    data_cap = budget - code_cap
    data_base = _CODE_BASE + code_cap

    code_idx: dict[int, int] = {}
    data_idx: dict[int, int] = {}
    toks: list[int] = []
    for ev in trace.events:
        if isinstance(ev, CodeFetch):
            i = code_idx.setdefault(ev.gpn, len(code_idx))
            toks.append(_CODE_BASE + i if i < code_cap else TOKEN_OOV)
        elif isinstance(ev, DataAccess):
            j = data_idx.setdefault(ev.gpn, len(data_idx))
            toks.append(data_base + j if j < data_cap else TOKEN_OOV)
            if ev.lines:
                toks.extend(_LINE_BASE + ln for ln in sorted(ev.lines))
        elif isinstance(ev, CiphertextDiff):
            toks.append(_BLOCK_BASE + ev.block)
            toks.append(TOKEN_CHANGED)
        elif isinstance(ev, Marker):
            toks.append(TOKEN_MARK_START if ev.kind == "START" else TOKEN_MARK_STOP)
        elif isinstance(ev, CounterSnapshot):
            continue
    if len(toks) > max_tokens:
        toks = toks[-max_tokens:]
    return TokenSequence(tokens=toks, vocab_size=vocab_size)


_FNV = np.uint64(1099511628211)


class _Counts(np.ndarray):
    """A count matrix with ``nnz``, its number of nonzero entries, which the
    benchmark's layer trace reads (``benchmarks/layers.py``)."""

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self))


def ngram_hash_matrix(sequences, max_ngram: int = 3, dim: int = 2 ** 15):
    """Bag of hashed n-grams (n = 1..max_ngram) as a dense float64 count
    matrix, one row per sequence.

    Bucketing uses a fixed polynomial hash into ``dim`` buckets, so the
    embedding is deterministic across runs and platforms.  Only the
    buckets that some sequence uses get a column, in bucket order, so
    sequences that are compared must be hashed in one call.
    """
    if max_ngram < 1:
        raise ValueError("max_ngram must be >= 1")
    rows = []  # (buckets used, their counts) per sequence
    for seq in sequences:
        t = np.asarray(seq, dtype=np.uint64)
        buckets = [np.empty(0, dtype=np.int64)]
        with np.errstate(over="ignore"):
            h = t.copy()
            for n in range(1, max_ngram + 1):
                if len(h):
                    # mix in n so unigram/bigram spaces do not alias
                    buckets.append(((h * _FNV + np.uint64(n)) % np.uint64(dim)).astype(np.int64))
                if n < max_ngram:
                    h = h[:-1] * _FNV + t[n:]
        counts = np.bincount(np.concatenate(buckets), minlength=dim)
        nz = np.flatnonzero(counts)
        rows.append((nz, counts[nz]))
    # the buckets some row uses, ascending (np.unique would load numpy.ma)
    used = np.flatnonzero(np.bincount(
        np.concatenate([nz for nz, _ in rows] or [np.empty(0, dtype=np.int64)]),
        minlength=dim))
    M = np.zeros((len(rows), len(used)))
    for i, (nz, counts) in enumerate(rows):
        M[i, np.searchsorted(used, nz)] = counts
    return M.view(_Counts)
