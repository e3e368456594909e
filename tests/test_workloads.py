"""Workload behavior: hashmap, aggregation service, retrieval, covert."""

import collections
import copy
import dataclasses
import struct

import numpy as np
import pytest

import leaklab.workloads.phh as phh_mod
from leaklab.machine import CollectorPolicy, SimMachine, collect, observe, run_collect
from leaklab.trace import (
    CiphertextDiff,
    CodeFetch,
    DataAccess,
    Trace,
    windowed_events,
)
from leaklab.workloads import (
    CovertDecodeError,
    CovertSender,
    HashMapPir,
    HeavyHitters,
    LinearScanPir,
    OramPir,
    PathOram,
    SecretMessage,
    SimHashMap,
    SyntheticLoop,
    build_workload,
    covert_decode,
    make_db_values,
    observation_reusable,
)

from oracle_collect import place

PAGE_POLICY = CollectorPolicy(channels=("page",), targeted=True)
FULL_POLICY = CollectorPolicy(channels=("page", "cache", "cipher", "pmc"), targeted=True)


# ---------------------------------------------------------------------------
# hash map
# ---------------------------------------------------------------------------


def test_hashmap_counts_match_counter(rng):
    m = SimMachine(alloc_seed=1)
    hm = SimHashMap(m)
    ref = collections.Counter()
    keys = [f"key{i}" for i in range(40)]
    for _ in range(500):
        k = keys[rng.integers(len(keys))]
        d = int(rng.integers(1, 5))
        fresh = hm.insert(k, d)
        assert fresh == (k not in ref)
        ref[k] += d
    assert hm.counts() == dict(ref)
    assert hm.size == len(ref)
    for k in keys:
        assert hm.lookup(k) == ref[k]
    assert hm.lookup("absent") is None


def test_hashmap_chain_structure(rng):
    m = SimMachine(alloc_seed=2)
    hm = SimHashMap(m, hash_seed=7)
    keys = {f"u{i}" for i in range(100)}
    for k in keys:
        hm.insert(k)
    expect = collections.Counter(hm.bucket_of(k) for k in keys)
    lengths = [len(chain) for chain in hm._chains]
    assert len(lengths) == hm.bucket_count
    assert sum(lengths) == len(keys)
    for b, ln in enumerate(lengths):
        assert ln == expect.get(b, 0)


def test_hashmap_rehash_ladder():
    m = SimMachine(alloc_seed=3)
    hm = SimHashMap(m)
    assert hm.bucket_count == 13
    for i in range(200):
        hm.insert(f"k{i}", i + 1)
    # 13 -> 29 -> 59 -> 127 -> 257 as size crosses each rung
    assert hm.bucket_count == 257
    assert hm.rehash_count == 4
    assert hm.size == 200
    for i in range(200):
        assert hm.lookup(f"k{i}") == i + 1


def test_hashmap_node_ref_is_stable_counter_location():
    m = SimMachine(alloc_seed=4)
    hm = SimHashMap(m)
    for i in range(30):
        hm.insert(f"n{i}", 2)
    page, off = hm.node_ref("n7")
    hm.insert("n7", 5)
    assert hm.node_ref("n7") == (page, off)  # survives later inserts
    for i in range(30, 140):
        hm.insert(f"n{i}")  # forces rehashes; nodes never move
    assert hm.node_ref("n7") == (page, off)
    raw = m.read(page, off + 8, 8)
    assert struct.unpack("<Q", raw)[0] == 7
    assert hm.counts()["n7"] == 7


def test_hashmap_hash_seed_changes_layout():
    m = SimMachine()
    a = SimHashMap(m, hash_seed=0)
    b = SimHashMap(m, hash_seed=1)
    keys = [f"s{i}" for i in range(50)]
    assert any(a.bucket_of(k) != b.bucket_of(k) for k in keys)
    # same seed is deterministic across instances and machines
    c = SimHashMap(SimMachine(alloc_seed=9), hash_seed=0)
    assert all(a.hash_of(k) == c.hash_of(k) for k in keys)


def test_hashmap_lookup_runs_distinct_code_pages():
    m = SimMachine(alloc_seed=5)
    box = {}

    def wl(mm):
        hm = SimHashMap(mm)
        box["hm"] = hm
        hm.insert("present")
        with mm.marked():
            hm.lookup("present")
            mm.step()
            hm.lookup("missing")
            mm.step()
        return hm

    trace, _ = run_collect(m, wl, PAGE_POLICY, trace_seed=0)
    cf = [e.gpn for e in trace.events if isinstance(e, CodeFetch)]
    assert box["hm"].code_hit in cf
    assert box["hm"].code_miss in cf


# ---------------------------------------------------------------------------
# heavy hitters service
# ---------------------------------------------------------------------------


def test_phh_unmitigated_shape():
    m = SimMachine(alloc_seed=6)
    wl = HeavyHitters(["k0"] * 30 + ["k1", "k2"], eps=5.0, delta=1e-6,
                      mitigated=False, seed=3)
    res = wl(m)
    assert res.dummy_count == 0
    assert res.nt_iterations == 3  # one vector slot per distinct key
    assert res.rehash_count == 0
    assert "k0" in res.survivors
    assert all(not k.startswith("dummy://") for k in res.survivors)
    assert all(not k.startswith("dummy://") for k in res.released)


def test_phh_mitigated_pads_vector():
    m = SimMachine(alloc_seed=7)
    wl = HeavyHitters(["k0"] * 50, eps=0.5, delta=0.01, mitigated=True, seed=4)
    res = wl(m)
    assert res.dummy_count >= 1
    assert res.nt_iterations == 1 + res.dummy_count
    assert set(res.survivors) <= {"k0"}


def test_aggregation_copy_is_independent():
    # copies of stage one's state resumed with more keys (new ones, with
    # and without a growth pass, and repeats) leave the original to go on
    # exactly like a run that never made them
    keys = [f"k{i:02d}.io" for i in range(40)]

    def run(forks):
        m = SimMachine(cipher_seed=2, alloc_seed=3)
        wl = HeavyHitters(keys, eps=1.0, delta=1e-6, marked_stage="aggregate")
        agg = wl.begin(m)
        for key in keys[:20]:
            agg.insert(key)
        for fork_keys in forks:
            fork = agg.copy()
            assert fork.m.tap == [] and fork.m.pages == m.pages
            for key in fork_keys:
                fork.insert(key)
        for key in keys[20:]:
            agg.insert(key)
        wl.end(agg)
        wl.release(agg)
        return m.tap

    new = [f"new{i:02d}.io" for i in range(40)]
    assert run([new[:5] + keys[:3], new]) == run([])


def test_phh_rejects_dummy_namespace_inputs():
    with pytest.raises(ValueError):
        HeavyHitters(["dummy://0-abc"], eps=1, delta=1e-6)
    with pytest.raises(ValueError):
        HeavyHitters(["a"], eps=1, delta=1e-6, marked_stage="bogus")


def test_phh_near_exact_release_at_huge_eps():
    m = SimMachine(alloc_seed=8)
    wl = HeavyHitters(["heavy"] * 40 + ["light1", "light2"], eps=1000.0,
                      delta=1e-9, mitigated=True, seed=5)
    res = wl(m)
    # threshold ~= 1.02; rounded noise is 0 essentially surely
    assert set(res.survivors) == {"heavy"}
    assert abs(res.survivors["heavy"] - 40) <= 1


def test_phh_marked_stage_selects_window():
    def window_code_pages(marked_stage):
        m = SimMachine(alloc_seed=9)
        wl = HeavyHitters(["a"] * 10 + ["b"], eps=1000.0, delta=1e-9,
                          mitigated=False, marked_stage=marked_stage, seed=6)
        trace, _ = run_collect(m, wl, FULL_POLICY, trace_seed=0)
        return {e.gpn for e in windowed_events(trace) if isinstance(e, CodeFetch)}

    agg = window_code_pages("aggregate")
    nt = window_code_pages("noise_threshold")
    # same alloc seed, so page numbers line up run to run; the stages
    # execute from disjoint code pages: insert/probe/hit/alloc vs
    # loop/noise/release
    assert agg.isdisjoint(nt)
    assert len(agg) == 4
    assert len(nt) == 3


def test_phh_stage_two_depends_only_on_entry_count(monkeypatch):
    """Worlds with equal padded vector length produce identical stage-two
    page/cache/pmc windows; the cipher channel still carries the noisy
    values themselves."""
    fills = iter([20, 19, 20, 19])
    monkeypatch.setattr(phh_mod, "sample_dummy_count",
                        lambda eps, delta, rng: next(fills))

    def run(inputs, channels):
        m = SimMachine(cipher_seed=11, alloc_seed=12)
        wl = HeavyHitters(inputs, eps=1000.0, delta=1e-9, mitigated=True,
                          marked_stage="noise_threshold", seed=7)
        policy = CollectorPolicy(channels=channels, targeted=True)
        trace, _ = run_collect(m, wl, policy, trace_seed=0)
        return trace

    w0 = ["url0"] * 100            # 1 distinct + 20 dummies = 21 slots
    w1 = ["url0"] * 99 + ["url1"]  # 2 distinct + 19 dummies = 21 slots

    t0 = run(w0, ("page", "cache", "pmc"))
    t1 = run(w1, ("page", "cache", "pmc"))
    assert t0.events == t1.events

    c0 = run(w0, ("page", "cache", "cipher"))
    c1 = run(w1, ("page", "cache", "cipher"))
    assert c0.events != c1.events


def test_synthetic_loop_two_fetches_per_iteration():
    m = SimMachine(alloc_seed=13)
    wl = SyntheticLoop(extra=5, eps=2.0, delta=1e-6, seed=8)
    trace, total = run_collect(m, wl, PAGE_POLICY, trace_seed=0)
    assert total >= 1
    cf = [e for e in trace.events if isinstance(e, CodeFetch)]
    assert len(cf) == 2 * total
    assert len({e.gpn for e in cf}) == 2


# ---------------------------------------------------------------------------
# retrieval workloads
# ---------------------------------------------------------------------------


def test_make_db_values_shape():
    db = make_db_values(10, zero_value_indices=[2, 5])
    assert all(len(v) == 64 for v in db)
    assert db[2] == b"\x00" * 64 and db[5] == b"\x00" * 64
    assert db[0] != b"\x00" * 64
    assert len({*db}) == 9  # the two zero records collide, others distinct


def test_linear_scan_responses():
    m = SimMachine(alloc_seed=14)
    db = make_db_values(100, zero_value_indices=[3])
    wl = LinearScanPir(db, [5, 3, 99, 5])
    _, out = run_collect(m, wl, PAGE_POLICY, trace_seed=0)
    assert out == [db[5], db[3], db[99], db[5]]
    with pytest.raises(ValueError):
        LinearScanPir(db, [100])
    with pytest.raises(ValueError):
        LinearScanPir([b"x"], [0])


def scan_trace(q, channels):
    m = SimMachine(cipher_seed=21, alloc_seed=22)
    wl = LinearScanPir(make_db_values(256), [q])
    policy = CollectorPolicy(channels=channels, targeted=True)
    trace, _ = run_collect(m, wl, policy, trace_seed=0)
    return trace


def test_linear_scan_page_trace_query_independent():
    a = scan_trace(17, ("page",))
    b = scan_trace(201, ("page",))
    assert a.events == b.events  # the page channel cannot see the query


def test_linear_scan_cipher_trace_tracks_query():
    a = scan_trace(17, ("page", "cache", "cipher"))
    b = scan_trace(201, ("page", "cache", "cipher"))
    assert a.events != b.events
    # accumulator diffs appear once the hit record lands in it
    da = [e for e in a.events if isinstance(e, CiphertextDiff)]
    assert da


def test_hashmap_pir_responses():
    m = SimMachine(alloc_seed=15)
    keys = [f"rec{i}" for i in range(10)]
    wl = HashMapPir(keys, ["rec3", "nope", "rec9"], seed=2)
    _, out = run_collect(m, wl, PAGE_POLICY, trace_seed=0)
    assert out == [4, None, 10]


# ---------------------------------------------------------------------------
# oblivious storage
# ---------------------------------------------------------------------------


def test_oram_read_after_write(rng):
    m = SimMachine(alloc_seed=16)
    oram = PathOram(m, 8, seed=3)
    vals = [bytes([i]) * 64 for i in range(8)]
    oram.load(vals)
    assert oram.access("read", 2) == vals[2]
    new = b"\xAB" * 64
    oram.access("write", 2, new)
    assert oram.access("read", 2) == new
    assert oram.access("read", 7) == vals[7]


def test_oram_many_accesses_stash_bounded(rng):
    m = SimMachine(alloc_seed=17)
    oram = PathOram(m, 64, seed=4)
    vals = [struct.pack("<Q", i) * 8 for i in range(64)]
    oram.load(vals)
    state = {i: vals[i] for i in range(64)}
    for _ in range(300):
        i = int(rng.integers(64))
        if rng.integers(2):
            v = bytes(rng.integers(0, 256, size=64, dtype=np.uint8))
            oram.access("write", i, v)
            state[i] = v
        else:
            assert oram.access("read", i) == state[i]
    assert oram.stash_peak < 64


def _seal_one_at_a_time(oram, rng, payloads):
    """The seal stream with one nonce draw per sealed slot."""
    sealed = []
    for payload in payloads:
        if oram.flaw and payload == bytes(64):
            sealed.append(payload + bytes(16))
            continue
        nonce = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
        if nonce == bytes(16):
            nonce = b"\x01" + nonce[1:]
        sealed.append(oram._xor_keystream(payload, nonce) + nonce)
    return sealed


@pytest.mark.parametrize("flaw", [False, True], ids=["flaw-off", "flaw-on"])
def test_oram_batched_nonces_match_single_draws(flaw):
    # one draw per write-out gives the bytes, and leaves the generator in
    # the state, of one draw per seal; access draws a leaf in between
    oram = PathOram(SimMachine(alloc_seed=19), 8, seed=6, zero_block_flaw=flaw)
    ref = copy.deepcopy(oram.rng)
    payloads = [bytes(64) if i % 3 == 0 else bytes([i]) * 64 for i in range(40)]
    for _ in range(3):
        assert oram._seal_all(payloads) == _seal_one_at_a_time(oram, ref, payloads)
        assert oram.rng.bit_generator.state == ref.bit_generator.state
        assert oram.rng.integers(oram.leaves) == ref.integers(oram.leaves)


def test_oram_validation():
    m = SimMachine(alloc_seed=18)
    oram = PathOram(m, 4, seed=5)
    oram.load([b"\x00" * 64] * 4)
    with pytest.raises(ValueError):
        oram.access("append", 0)
    with pytest.raises(IndexError):
        oram.access("read", 4)
    with pytest.raises(ValueError):
        oram.access("write", 0, b"short")
    with pytest.raises(ValueError):
        oram.load([b"\x00" * 64])
    with pytest.raises(ValueError):
        PathOram(m, 0)


def slot_bytes(machine, oram):
    out = []
    for bucket in range(1, oram.n_buckets + 1):
        page, off = oram._bucket_loc(bucket)
        for s in range(4):
            out.append(machine.read(page, off + s * 128, 80))
    return out


def test_oram_zero_flaw_stores_raw_zeros():
    m = SimMachine(alloc_seed=19)
    oram = PathOram(m, 4, zero_block_flaw=True, seed=6)
    oram.load([b"\x00" * 64] * 4)
    assert all(s == b"\x00" * 80 for s in slot_bytes(m, oram))

    m2 = SimMachine(alloc_seed=19)
    safe = PathOram(m2, 4, zero_block_flaw=False, seed=6)
    safe.load([b"\x00" * 64] * 4)
    sealed = slot_bytes(m2, safe)
    assert all(s[64:80] != b"\x00" * 16 for s in sealed)  # fresh nonce everywhere
    assert any(s[:64] != b"\x00" * 64 for s in sealed)


def test_oram_seal_is_bytewise_keystream_xor(rng):
    oram = PathOram(SimMachine(), 4, seed=8)
    payloads = [bytes(rng.integers(0, 256, size=64, dtype=np.uint8)) for _ in range(200)]
    for payload, sealed in zip(payloads, oram._seal_all(payloads)):
        ct, nonce = sealed[:64], sealed[64:]
        assert ct == bytes(a ^ b for a, b in zip(payload, oram._keystream(nonce)))
        assert oram._open(sealed) == payload


def test_oram_pir_responses():
    m = SimMachine(alloc_seed=20)
    db = make_db_values(16, zero_value_indices=[1])
    wl = OramPir(db, [0, 1, 15, 0], seed=7)
    _, out = run_collect(m, wl, FULL_POLICY, trace_seed=0)
    assert out == [db[0], db[1], db[15], db[0]]
    with pytest.raises(ValueError):
        OramPir(db, [16])


# ---------------------------------------------------------------------------
# covert channel
# ---------------------------------------------------------------------------


def covert_trace(payload, repetitions=1):
    m = SimMachine(cipher_seed=31, alloc_seed=32)
    msg = SecretMessage(payload=payload, repetitions=repetitions)
    trace, sent = run_collect(m, CovertSender(msg), FULL_POLICY, trace_seed=0)
    assert sent == len(msg.stream)
    return trace, msg


def test_covert_roundtrip():
    trace, msg = covert_trace(b"hello, world?! \x00\xff", repetitions=2)
    assert covert_decode(trace) == msg.stream


def test_covert_five_faults_per_byte():
    trace, msg = covert_trace(b"abc123")
    da = [e for e in windowed_events(trace) if isinstance(e, DataAccess)]
    assert len(da) == 5 * len(msg.stream)


def test_covert_missing_diff_raises_with_position():
    trace, msg = covert_trace(b"xyz")
    enc = next(e.gpn for e in windowed_events(trace) if isinstance(e, DataAccess))
    seen = 0
    events = []
    for e in trace.events:
        if isinstance(e, CiphertextDiff) and e.gpn == enc:
            if seen == 1:  # drop the second byte's diff
                seen += 1
                continue
            seen += 1
        events.append(e)
    broken = Trace(seed=trace.seed, channels=trace.channels,
                   events=tuple(events), num_code_pages=trace.num_code_pages)
    with pytest.raises(CovertDecodeError) as exc:
        covert_decode(broken)
    assert exc.value.position == 1
    assert "no diff" in exc.value.reason


def test_covert_double_diff_raises():
    trace, _ = covert_trace(b"qq")
    enc = next(e.gpn for e in windowed_events(trace) if isinstance(e, DataAccess))
    events = []
    doubled = False
    for e in trace.events:
        events.append(e)
        if not doubled and isinstance(e, CiphertextDiff) and e.gpn == enc:
            events.append(CiphertextDiff(gpn=e.gpn, block=(e.block + 1) % 256,
                                         before=e.before, after=e.after))
            doubled = True
    broken = Trace(seed=trace.seed, channels=trace.channels,
                   events=tuple(events), num_code_pages=trace.num_code_pages)
    with pytest.raises(CovertDecodeError) as exc:
        covert_decode(broken)
    assert exc.value.position == 0
    assert "2 diffs" in exc.value.reason


def test_covert_empty_window_raises():
    tr = Trace(seed=0, channels=("page", "cache", "cipher", "pmc"),
               events=(CodeFetch(gpn=1),), num_code_pages=1)
    with pytest.raises(CovertDecodeError) as exc:
        covert_decode(tr)
    assert exc.value.position == 0


def test_secret_message_validation():
    with pytest.raises(ValueError):
        SecretMessage(payload=b"")
    with pytest.raises(ValueError):
        SecretMessage(payload=b"x", repetitions=0)


# ---------------------------------------------------------------------------
# observation reuse
# ---------------------------------------------------------------------------

# eps small enough that the run seed shows wherever it reaches the trace
PHH = {"kind": "phh", "eps": 0.1, "delta": 1e-6}
PHH_AGG = {**PHH, "marked_stage": "aggregate"}
PHH_KEYS = ["a.io", "b.io", "a.io", "c.io"]
UNTARGETED = CollectorPolicy(channels=FULL_POLICY.channels, targeted=False)

REUSE_CASES = [
    ("phh", PHH, PHH_KEYS, FULL_POLICY, False),
    ("phh-noise_threshold", {**PHH, "marked_stage": "noise_threshold"},
     PHH_KEYS, FULL_POLICY, False),
    ("phh-aggregate", PHH_AGG, PHH_KEYS, FULL_POLICY, True),
    ("phh-aggregate-mitigated", {**PHH_AGG, "mitigated": True},
     PHH_KEYS, FULL_POLICY, True),
    ("phh-aggregate-untargeted", {**PHH_AGG, "mitigated": True},
     PHH_KEYS, UNTARGETED, False),
    ("synthetic_loop", {"kind": "synthetic_loop", "eps": 0.1, "delta": 1e-6}, [3],
     FULL_POLICY, False),
    ("pir_oram", {"kind": "pir_oram", "db_size": 16, "height": 4}, [2, 9], FULL_POLICY, False),
    ("pir_scan", {"kind": "pir_scan", "db_size": 150}, [0, 0, 77], FULL_POLICY, True),
    ("pir_hashmap", {"kind": "pir_hashmap", "db_size": 40}, ["record-00001", "missing"],
     FULL_POLICY, True),
]


@pytest.mark.parametrize("cfg,inputs,policy,reusable", [c[1:] for c in REUSE_CASES],
                         ids=[c[0] for c in REUSE_CASES])
def test_reuse_rule_holds(cfg, inputs, policy, reusable):
    assert observation_reusable(cfg, policy) is reusable
    noisy = dataclasses.replace(policy, drop_prob=0.1)
    assert not observation_reusable(cfg, noisy)
    # an observation made under run seed A and placed on run seed B's
    # machine is B's own trace exactly when the rule calls it reusable
    machines = {}
    for run_seed in (1, 2**62 + 7):
        m = machines[run_seed] = SimMachine(cipher_seed=run_seed, alloc_seed=run_seed)
        build_workload(cfg, inputs, run_seed)(m)
    a, b = machines.values()
    expected = collect(b, b.tap, policy, trace_seed=5)
    assert (place(observe(a, a.tap, policy), b, 5) == expected) is reusable
    assert len(expected.events) > 10
