"""Feature extraction against an independent oracle, plus tokenizer."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracle_features import oracle_extract, oracle_ngram_hash_matrix
from conftest import random_trace
from leaklab.features import (
    FEATURE_SET_NAMES,
    FeatureParams,
    TOKEN_CHANGED,
    TOKEN_MARK_START,
    TOKEN_MARK_STOP,
    TOKEN_OOV,
    extract_features,
    ngram_hash_matrix,
    tokenize,
)
from leaklab.machine import CollectorPolicy, SimMachine, run_collect
from leaklab.trace import (
    CiphertextDiff,
    CodeFetch,
    CounterSnapshot,
    DataAccess,
    Marker,
    Trace,
)
from leaklab.workloads import SyntheticLoop


EXPECTED_DIMS = {"F1": 4, "F2": 4, "F3": 320, "F4": 105, "F5": 128}


def test_dims_and_names(rng):
    tr = random_trace(rng, max_events=80)
    for name in FEATURE_SET_NAMES:
        fv = extract_features(tr, [name])
        assert len(fv.values) == EXPECTED_DIMS[name]
        assert len(fv.names) == len(fv.values)
        assert all(n.startswith(name + ".") for n in fv.names)
    fv = extract_features(tr, FEATURE_SET_NAMES)
    assert len(fv.values) == sum(EXPECTED_DIMS.values())
    assert len(set(fv.names)) == len(fv.names)


def test_matches_oracle_on_fuzzed_traces(rng):
    for _ in range(200):
        tr = random_trace(rng, max_events=70)
        fv = extract_features(tr, FEATURE_SET_NAMES)
        ref = oracle_extract(tr, FEATURE_SET_NAMES)
        assert np.array_equal(fv.values, ref), tr.events


def test_matches_oracle_on_real_traces():
    m = SimMachine(cipher_seed=5, alloc_seed=6)
    wl = SyntheticLoop(extra=40, eps=0.5, delta=1e-6, seed=11)
    tr, _ = run_collect(m, wl, CollectorPolicy(channels=("page", "cache", "cipher", "pmc")), trace_seed=1)
    fv = extract_features(tr, FEATURE_SET_NAMES)
    assert np.array_equal(fv.values, oracle_extract(tr, FEATURE_SET_NAMES))


@given(st.integers(0, 2**32 - 1), st.integers(2, 9), st.integers(1, 20), st.integers(1, 20))
@settings(max_examples=60, deadline=None)
def test_matches_oracle_fuzzed_params(seed, n_bins, m_cf, m_da):
    tr = random_trace(np.random.default_rng(seed), max_events=50)
    p = FeatureParams(n_bins=n_bins, m_cf=m_cf, m_da=m_da)
    fv = extract_features(tr, ("F4", "F5"), p)
    ref = oracle_extract(tr, ("F4", "F5"), n_bins=n_bins, m_cf=m_cf, m_da=m_da)
    assert np.array_equal(fv.values, ref)


def test_set_order_respected(rng):
    tr = random_trace(rng)
    a = extract_features(tr, ("F1", "F2")).values
    b = extract_features(tr, ("F2", "F1")).values
    assert np.array_equal(a[:4], b[4:])
    assert np.array_equal(a[4:], b[:4])


def test_unknown_set_and_empty():
    tr = Trace(seed=0, channels=("page",), events=(CodeFetch(gpn=1),), num_code_pages=1)
    with pytest.raises(ValueError):
        extract_features(tr, ["F9"])
    with pytest.raises(ValueError):
        extract_features(tr, [])


def test_zero_fill_warnings():
    tr = Trace(seed=0, channels=("page",), events=(CodeFetch(gpn=1), DataAccess(gpn=2)),
               num_code_pages=1)
    fv = extract_features(tr, ("F1", "F2", "F3"))
    assert not any(w.startswith("F1") for w in fv.warnings)
    assert any(w.startswith("F2") for w in fv.warnings)
    assert any(w.startswith("F3") for w in fv.warnings)
    assert np.array_equal(fv.values[4:], np.zeros(4 + 320))
    assert np.array_equal(fv.values[:4], [1, 1, 1, 1])


def test_f4_hand_computed():
    # CF DA DA CF DA CF -> runs (2, 1, 0)
    evs = (CodeFetch(gpn=9), DataAccess(gpn=3, lines=frozenset({0, 5})),
           DataAccess(gpn=3, lines=frozenset({5})), CodeFetch(gpn=9),
           DataAccess(gpn=4), CodeFetch(gpn=8))
    tr = Trace(seed=0, channels=("page", "cache"), events=evs, num_code_pages=2)
    fv = extract_features(tr, ["F4"], FeatureParams(n_bins=2))
    d = dict(zip(fv.names, fv.values))
    assert d["F4.da_after_cf_min"] == 0
    assert d["F4.da_after_cf_max"] == 2
    assert d["F4.da_after_cf_q5"] == 1
    # histogram over [0, 2] in 2 bins: [0,1) holds the zero, [1,2] the rest
    assert d["F4.da_after_cf_hist_0"] == 1 and d["F4.da_after_cf_hist_1"] == 2
    # page 3: 3 lines total, 2 unique; page 4 contributes nothing
    assert d["F4.page_lines_total_max"] == 3
    assert d["F4.page_lines_unique_max"] == 2
    assert d["F4.page_blocks_total_max"] == 0  # no cipher events


def test_f4_degenerate_all_zero_runs():
    evs = (CodeFetch(gpn=1), CodeFetch(gpn=2), CodeFetch(gpn=3))
    tr = Trace(seed=0, channels=("page",), events=evs, num_code_pages=3)
    fv = extract_features(tr, ["F4"], FeatureParams(n_bins=4))
    d = dict(zip(fv.names, fv.values))
    assert d["F4.da_after_cf_max"] == 0
    assert d["F4.da_after_cf_hist_0"] == 3  # every CF closes a run, all zero
    assert d["F4.da_after_cf_hist_1"] == 0


def test_f5_first_appearance_and_truncation():
    evs = (CodeFetch(gpn=100), DataAccess(gpn=7), CodeFetch(gpn=50),
           CodeFetch(gpn=100), DataAccess(gpn=9), DataAccess(gpn=7))
    tr = Trace(seed=0, channels=("page",), events=evs, num_code_pages=2)
    fv = extract_features(tr, ["F5"], FeatureParams(m_cf=2, m_da=1))
    assert list(fv.values) == [2, 1, 2]  # cf: page100=2, page50=1; da: page7=2
    fv2 = extract_features(tr, ["F5"], FeatureParams(m_cf=1, m_da=4))
    assert list(fv2.values) == [2, 2, 1, 0, 0]


def test_windowing_applies():
    inside = (CodeFetch(gpn=1), DataAccess(gpn=2))
    evs = ((CodeFetch(gpn=3),) + (Marker(kind="START"),) + inside
           + (Marker(kind="STOP"), DataAccess(gpn=5)))
    tr = Trace(seed=0, channels=("page",), events=evs, num_code_pages=2)
    fv = extract_features(tr, ["F1"])
    assert list(fv.values) == [1, 1, 1, 1]


# ---------------------------------------------------------------------------
# tokenizer
# ---------------------------------------------------------------------------


def test_tokenize_event_mapping():
    evs = (Marker(kind="START"), CodeFetch(gpn=10),
           DataAccess(gpn=20, lines=frozenset({7, 3})),
           CiphertextDiff(gpn=20, block=100, before=b"a" * 16, after=b"b" * 16),
           CounterSnapshot(values=(1, 2, 3, 4, 5)),
           Marker(kind="STOP"))
    tr = Trace(seed=0, channels=("page", "cache", "cipher", "pmc"), events=evs,
               num_code_pages=1)
    ts = tokenize(tr)
    code0 = 4 + 64 + 256
    data0 = code0 + (10_000 - code0) // 2
    assert ts.tokens == [TOKEN_MARK_START, code0, data0, 4 + 3, 4 + 7,
                         4 + 64 + 100, TOKEN_CHANGED, TOKEN_MARK_STOP]
    assert ts.vocab_size == 10_000


def test_tokenize_page_relabel_invariance(rng):
    for _ in range(30):
        tr = random_trace(rng, max_events=60)
        remap = {}

        def mapped(g):
            return remap.setdefault(g, 0xBEEF000 + 16 * len(remap))

        evs = []
        for e in tr.events:
            if isinstance(e, CodeFetch):
                evs.append(CodeFetch(gpn=mapped(e.gpn)))
            elif isinstance(e, DataAccess):
                evs.append(DataAccess(gpn=mapped(e.gpn), lines=e.lines))
            elif isinstance(e, CiphertextDiff):
                evs.append(CiphertextDiff(gpn=mapped(e.gpn), block=e.block,
                                          before=e.before, after=e.after))
            else:
                evs.append(e)
        tr2 = Trace(seed=tr.seed, channels=tr.channels, events=tuple(evs),
                    num_code_pages=tr.num_code_pages)
        assert tokenize(tr).tokens == tokenize(tr2).tokens


def test_tokenize_oov_and_separate_budgets():
    evs = tuple(CodeFetch(gpn=i) for i in range(5))
    tr = Trace(seed=0, channels=("page",), events=evs, num_code_pages=5)
    ts = tokenize(tr, vocab_size=4 + 64 + 256 + 4)
    code0 = 4 + 64 + 256
    assert ts.tokens == [code0, code0 + 1, TOKEN_OOV, TOKEN_OOV, TOKEN_OOV]
    with pytest.raises(ValueError):
        tokenize(tr, vocab_size=4 + 64 + 256 + 1)


def test_tokenize_truncation_keeps_tail():
    evs = tuple(CodeFetch(gpn=i % 3) for i in range(50))
    tr = Trace(seed=0, channels=("page",), events=evs, num_code_pages=3)
    full = tokenize(tr).tokens
    cut = tokenize(tr, max_tokens=10).tokens
    assert len(cut) == 10
    assert cut == full[-10:]


def test_ngram_matrix_counts_and_determinism():
    seqs = [[1, 2, 3, 4], [7], []]
    M = ngram_hash_matrix(seqs, max_ngram=3, dim=64)
    # one column per bucket in use, each used by some row
    assert M.shape[0] == 3 and 0 < M.shape[1] <= 64
    assert M.dtype == np.float64 and M.any(axis=0).all()
    # 4 unigrams + 3 bigrams + 2 trigrams
    assert M[0].sum() == 9
    assert M[1].sum() == 1
    assert M[2].sum() == 0
    assert M.nnz == np.count_nonzero(M)
    M2 = ngram_hash_matrix(seqs, max_ngram=3, dim=64)
    assert np.array_equal(M, M2)
    with pytest.raises(ValueError):
        ngram_hash_matrix(seqs, max_ngram=0)


def test_ngram_matrix_distinguishes_order():
    # columns are the buckets one call uses, so both rows come from one call
    a, b = ngram_hash_matrix([[1, 2, 3], [3, 2, 1]], max_ngram=2, dim=2 ** 15)
    assert a.sum() == b.sum() == 5
    assert not np.array_equal(a, b)  # bigrams differ even if unigrams match


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(0, 40), max_size=30), max_size=6),
       st.integers(1, 3), st.sampled_from([1, 2, 7, 64, 2 ** 15]))
@example([], 3, 64)
@example([[], []], 1, 7)
def test_ngram_matrix_is_the_csr_matrix_without_empty_columns(seqs, max_ngram, dim):
    want = oracle_ngram_hash_matrix(seqs, max_ngram=max_ngram, dim=dim)
    want = want.toarray()[:, want.getnnz(axis=0) > 0]
    got = ngram_hash_matrix(seqs, max_ngram=max_ngram, dim=dim)
    assert got.dtype == want.dtype and np.array_equal(got, want)


# -- placement invariance ------------------------------------------------------
# The runs of one observation group share one observation placed on
# different machines, and analysis featurizes only the first of them.
# That is exact only if features and tokens cannot tell placements apart.

_INVARIANCE_PARAMS = [FeatureParams(), FeatureParams(n_bins=3, m_cf=2, m_da=3),
                      FeatureParams(n_bins=1, m_cf=1, m_da=1)]


def _placement_pairs(rng, n=120):
    """One fuzzed observation placed on two machines with other seeds."""
    from leaklab.machine import observe, place

    from test_machine import _fuzzed_run

    pairs = []
    for _ in range(n):
        workload, m, policy, noise_seed, seed = _fuzzed_run(rng)
        m.reset_tap()
        workload(m)
        obs = observe(m, m.tap, policy, noise_seed)
        a, b = (place(obs, SimMachine(cipher_seed=c, alloc_seed=s), seed)
                for c, s in rng.integers(0, 1 << 32, size=(2, 2)).tolist())
        pairs.append((a, b))
    return pairs


def _placement_variant(pairs, featurize) -> int:
    """How many pairs ``featurize`` tells apart."""
    return sum(not np.array_equal(featurize(a), featurize(b)) for a, b in pairs)


def test_features_and_tokens_are_placement_invariant(rng):
    pairs = _placement_pairs(rng)
    # the placements differ: page numbers and ciphertext bytes move
    assert sum(a != b for a, b in pairs) > len(pairs) // 2
    assert any(type(ev) is CiphertextDiff for a, _ in pairs for ev in a.events)
    for a, b in pairs:
        for params in _INVARIANCE_PARAMS:
            for sets in [[name] for name in FEATURE_SET_NAMES] + [list(FEATURE_SET_NAMES)]:
                fa, fb = (extract_features(t, sets, params) for t in (a, b))
                assert np.array_equal(fa.values, fb.values)
                assert fa.names == fb.names and fa.warnings == fb.warnings
        assert tokenize(a).tokens == tokenize(b).tokens


def test_placement_invariance_check_catches_mutants(rng, monkeypatch):
    import leaklab.features as features

    pairs = _placement_pairs(rng)

    def f5_by_page_value(acc, params):
        # keyed on the page number's value, not its first appearance
        cf = np.zeros(params.m_cf)
        counts = [n for _, n in sorted(acc.cf_count.items())][:params.m_cf]
        cf[:len(counts)] = counts
        return cf, [f"cf_page_{i:03d}" for i in range(params.m_cf)]

    monkeypatch.setitem(features._SET_BUILDERS, "F5", f5_by_page_value)
    assert _placement_variant(pairs, lambda t: extract_features(t, ["F5"]).values)
    monkeypatch.undo()

    def ci_byte(trace):
        return [sum(ev.after[0] for ev in trace.events if type(ev) is CiphertextDiff)]

    assert _placement_variant(pairs, ci_byte)
    assert not _placement_variant(pairs, lambda t: extract_features(t, ["F5"]).values)
