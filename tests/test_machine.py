"""Machine tap and collector semantics."""

import dataclasses

import numpy as np
import pytest

from leaklab.machine import (
    PAGE_BYTES,
    CollectorPolicy,
    CollectorError,
    MachineFault,
    Observer,
    Placement,
    SimMachine,
    collect,
    observe,
    run_collect,
)
from leaklab.trace import (
    CiphertextDiff,
    CodeFetch,
    CounterSnapshot,
    DataAccess,
    Marker,
    parse_trace,
    write_trace,
)

from conftest import assert_same_text, assert_sound_records
from oracle_collect import ciphertext_of, oracle_collect, oracle_write, place


def only(events, cls):
    return [e for e in events if isinstance(e, cls)]


def test_alloc_is_seeded_and_collision_free():
    m1 = SimMachine(alloc_seed=42)
    m2 = SimMachine(alloc_seed=42)
    a = m1.alloc_pages(100)
    b = m2.alloc_pages(100)
    assert a == b
    assert len(set(a)) == 100
    m3 = SimMachine(alloc_seed=43)
    assert m3.alloc_pages(100) != a


def test_machine_faults():
    m = SimMachine()
    p = m.alloc_page()
    with pytest.raises(MachineFault):
        m.read(p + 1, 0, 8)
    with pytest.raises(MachineFault):
        m.read(p, 4090, 8)
    with pytest.raises(MachineFault):
        m.write(p, 0, b"")
    with pytest.raises(MachineFault):
        m.exec_page(p + 1)


_WRITE_CASES = ("random", "one_byte", "whole_page", "unaligned_ends", "same_bytes",
                "unallocated", "out_of_bounds", "empty")


def _fuzzed_write(rng, case: str, m: SimMachine, pages: list[int]):
    """``(gpn, offset, data)`` of one write of the given case on ``m``."""
    gpn = pages[int(rng.integers(0, len(pages)))]
    off = int(rng.integers(0, PAGE_BYTES))
    n = int(rng.integers(1, min(200, PAGE_BYTES - off) + 1))
    if case == "one_byte":
        n = 1
    elif case == "whole_page":
        off, n = 0, PAGE_BYTES
    elif case == "unaligned_ends":
        # neither end on a block boundary, two to twelve blocks touched
        first = int(rng.integers(0, 244))
        last = first + int(rng.integers(1, 12))
        off = 16 * first + int(rng.integers(1, 16))
        n = 16 * last + int(rng.integers(1, 16)) - off
    elif case == "unallocated":
        gpn = max(m.pages) + 1
    elif case == "out_of_bounds":
        if rng.random() < 0.5:
            off = -int(rng.integers(1, 32))
        else:
            off = PAGE_BYTES - n + int(rng.integers(1, 32))
    if case == "same_bytes":
        data = bytes(m.pages[gpn][off:off + n])
    elif case == "empty":
        data = b""
    else:
        # few distinct byte values, so some blocks keep their bytes
        data = bytes(rng.integers(0, 3, size=n, dtype=np.uint8))
    return gpn, off, data


def _outcome(write, *args):
    try:
        write(*args)
    except Exception as e:  # noqa: BLE001 - compared with the oracle's
        return type(e), str(e)
    return None


def test_write_matches_oracle_on_fuzzed_writes(rng):
    # one copy of the touched blocks before the write and one after give
    # the per-block oracle's tap, page bytes and faults
    seen = set()
    for _ in range(150):
        m = SimMachine(alloc_seed=int(rng.integers(0, 1 << 32)))
        pages = m.alloc_pages(2)
        for gpn in pages:
            m.pages[gpn][:] = bytes(rng.integers(0, 3, size=PAGE_BYTES, dtype=np.uint8))
        ref = m.copy()
        for _ in range(20):
            case = _WRITE_CASES[int(rng.integers(0, len(_WRITE_CASES)))]
            gpn, off, data = _fuzzed_write(rng, case, m, pages)
            got = _outcome(m.write, gpn, off, data)
            assert got == _outcome(oracle_write, ref, gpn, off, data), case
            seen.add((case, got is None))
        assert m.tap == ref.tap and m.pages == ref.pages
        assert all(type(ev[4]) is bytes and type(ev[5]) is bytes for ev in m.tap)
    faults = {"unallocated", "out_of_bounds", "empty"}
    assert seen == {(case, case not in faults) for case in _WRITE_CASES}


def test_ciphertext_is_deterministic_per_address():
    m = SimMachine(cipher_seed=9)
    c1 = ciphertext_of(m, 5, 7, b"A" * 16)
    assert c1 == ciphertext_of(m, 5, 7, b"A" * 16)
    assert c1 != ciphertext_of(m, 5, 8, b"A" * 16)
    assert c1 != ciphertext_of(m, 6, 7, b"A" * 16)
    assert c1 != ciphertext_of(m, 5, 7, b"B" * 16)
    assert c1 != ciphertext_of(SimMachine(cipher_seed=10), 5, 7, b"A" * 16)
    assert len(c1) == 16


def test_ciphertext_no_collisions_across_blocks():
    # 4096 blocks of equal plaintext on 16 pages must encrypt distinctly
    m = SimMachine(cipher_seed=3)
    seen = set()
    for gpn in range(16):
        for block in range(256):
            seen.add(ciphertext_of(m, gpn, block, b"\x00" * 16))
    assert len(seen) == 16 * 256


def workload_two_pages(m):
    code = m.alloc_page()
    d1 = m.alloc_page()
    d2 = m.alloc_page()
    m.exec_page(code)
    m.write(d1, 0, b"x" * 16)
    m.read(d2, 64, 8)
    m.step()
    return code, d1, d2


def test_basic_collection(full_policy):
    m = SimMachine()
    trace, (code, d1, d2) = run_collect(m, workload_two_pages, full_policy, 11)
    assert trace.seed == 11
    cf = only(trace.events, CodeFetch)
    da = only(trace.events, DataAccess)
    assert [e.gpn for e in cf] == [code]
    assert [e.gpn for e in da] == [d1, d2]
    assert da[0].lines == frozenset([0])
    assert da[1].lines == frozenset([1])
    ci = only(trace.events, CiphertextDiff)
    assert [(e.gpn, e.block) for e in ci] == [(d1, 0)]
    assert ci[0].before == ciphertext_of(m, d1, 0, b"\x00" * 16)
    assert ci[0].after == ciphertext_of(m, d1, 0, b"x" * 16)


def test_collector_is_pure(full_policy):
    m = SimMachine()
    m.reset_tap()
    workload_two_pages(m)
    tap = list(m.tap)
    t1 = collect(m, tap, full_policy, 1)
    t2 = collect(m, tap, full_policy, 1)
    assert t1 == t2


def test_channel_filtering_is_projection(rng, full_policy):
    # disabling channels must equal filtering the full trace, event for event
    from conftest import random_trace  # noqa: F401  (style anchor)

    m = SimMachine(alloc_seed=7)
    code = m.alloc_page()
    data = m.alloc_pages(9)
    m.reset_tap()
    for i in range(60):
        m.exec_page(code if i % 3 else data[0] if False else code)
        p = data[int(rng.integers(0, len(data)))]
        m.write(p, int(rng.integers(0, 255)) * 16, bytes([i % 256]) * 16)
        m.read(p, 0, 8)
        m.branch(taken=bool(i % 2), is_return=(i % 7 == 0))
        m.step()
    tap = list(m.tap)

    full = collect(m, tap, full_policy, 0)
    for chans in (["page"], ["page", "cache"], ["cipher"], ["pmc"],
                  ["page", "cipher", "pmc"]):
        sub = collect(m, tap, dataclasses.replace(
            full_policy, channels=frozenset(chans)), 0)
        expect = []
        for ev in full.events:
            if isinstance(ev, DataAccess):
                if "page" in chans:
                    expect.append(ev if "cache" in chans
                                  else DataAccess(ev.gpn, None))
            elif isinstance(ev, CodeFetch):
                if "page" in chans:
                    expect.append(ev)
            elif isinstance(ev, CiphertextDiff):
                if "cipher" in chans:
                    expect.append(ev)
            elif isinstance(ev, CounterSnapshot):
                if "pmc" in chans:
                    expect.append(ev)
            else:
                expect.append(ev)
        assert list(sub.events) == expect


def test_cache_requires_page_channel():
    with pytest.raises(CollectorError):
        CollectorPolicy(channels=frozenset(["cache"]))


def test_code_refetch_only_on_change(full_policy):
    m = SimMachine()
    c1, c2 = m.alloc_pages(2)
    m.reset_tap()
    for _ in range(3):
        m.exec_page(c1)
    m.exec_page(c2)
    m.exec_page(c1)
    tr = collect(m, m.tap, full_policy)
    assert [e.gpn for e in only(tr.events, CodeFetch)] == [c1, c2, c1]
    assert tr.num_code_pages == 2


def test_fifo_queue_eviction_order(full_policy):
    m = SimMachine()
    pages = m.alloc_pages(6)
    m.reset_tap()
    for p in pages:
        m.read(p, 0, 8)
        m.step()
    # queue len 4: reading 6 pages evicts pages[0], pages[1]
    m.read(pages[0], 64, 8)  # faults again
    m.step()
    tr = collect(m, m.tap, full_policy)
    gpns = [e.gpn for e in only(tr.events, DataAccess)]
    assert gpns == pages + [pages[0]]


def test_queue_grows_within_step_and_shrinks_after(full_policy):
    # one step touches 6 pages: none of them may be evicted mid-step
    m = SimMachine()
    pages = m.alloc_pages(6)
    extra = m.alloc_page()
    m.reset_tap()
    for p in pages:
        m.write(p, 0, b"y" * 16)
    m.step()
    m.read(extra, 0, 8)
    m.step()
    tr = collect(m, m.tap, full_policy)
    da = only(tr.events, DataAccess)
    assert [e.gpn for e in da] == pages + [extra]
    # after the step boundary the queue shrank to 4, so the two oldest
    # got finalized (their lines attached) before the extra fault
    ci = only(tr.events, CiphertextDiff)
    assert {e.gpn for e in ci} == set(pages)
    first_ci_pos = tr.events.index(ci[0])
    assert first_ci_pos < tr.events.index(da[-1])


def test_line_set_accumulates_until_eviction(full_policy):
    m = SimMachine()
    p = m.alloc_page()
    others = m.alloc_pages(4)
    m.reset_tap()
    m.read(p, 0, 8)
    m.step()
    m.read(p, 640, 8)  # still mapped: line 10 joins the same window
    m.step()
    for q in others:  # push p out
        m.read(q, 0, 8)
        m.step()
    tr = collect(m, m.tap, full_policy)
    da = only(tr.events, DataAccess)
    assert da[0].gpn == p
    assert da[0].lines == frozenset([0, 10])


def test_identical_write_produces_no_diff(full_policy):
    m = SimMachine()
    p = m.alloc_page()
    m.reset_tap()
    m.write(p, 0, b"\x00" * 16)  # rewrites the zero content
    m.step()
    tr = collect(m, m.tap, full_policy)
    assert only(tr.events, CiphertextDiff) == []


def test_write_then_revert_produces_no_diff(full_policy):
    m = SimMachine()
    p = m.alloc_page()
    m.reset_tap()
    m.write(p, 0, b"z" * 16)
    m.write(p, 0, b"\x00" * 16)
    m.step()
    tr = collect(m, m.tap, full_policy)
    # diff is taken between fault-time baseline and eviction, not per write
    assert only(tr.events, CiphertextDiff) == []


def test_diff_baseline_is_fault_time_not_alloc_time(full_policy):
    m = SimMachine()
    p = m.alloc_page()
    filler = m.alloc_pages(4)
    m.reset_tap()
    m.write(p, 0, b"a" * 16)
    m.step()
    for q in filler:
        m.read(q, 0, 8)
        m.step()
    # p evicted: one diff zero->a. Second window: baseline is now "a".
    m.write(p, 0, b"b" * 16)
    m.step()
    tr = collect(m, m.tap, full_policy)
    ci = [e for e in only(tr.events, CiphertextDiff) if e.gpn == p]
    assert len(ci) == 2
    assert ci[0].before == ciphertext_of(m, p, 0, b"\x00" * 16)
    assert ci[0].after == ciphertext_of(m, p, 0, b"a" * 16)
    assert ci[1].before == ciphertext_of(m, p, 0, b"a" * 16)
    assert ci[1].after == ciphertext_of(m, p, 0, b"b" * 16)


def test_diffs_emitted_at_eviction_position(full_policy):
    m = SimMachine()
    p = m.alloc_page()
    filler = m.alloc_pages(4)
    m.reset_tap()
    m.write(p, 0, b"q" * 16)
    m.step()
    for q in filler:
        m.read(q, 0, 8)
        m.step()
    tr = collect(m, m.tap, full_policy)
    kinds = [type(e).__name__ for e in tr.events
             if not isinstance(e, CounterSnapshot)]
    # p faults, fillers fault, and p's diff appears when the 4th filler
    # pushes it out: before that filler's own MA
    ci_idx = kinds.index("CiphertextDiff")
    assert kinds[ci_idx + 1] == "DataAccess"
    da = only(tr.events, DataAccess)
    assert da[-1].gpn == filler[-1]


def test_marker_flush_and_targeted_filter(targeted_policy, full_policy):
    m = SimMachine()
    p_out = m.alloc_page()
    p_in = m.alloc_page()
    code = m.alloc_page()
    m.reset_tap()
    m.write(p_out, 0, b"n" * 16)
    m.exec_page(code)
    m.step()
    with m.marked():
        m.exec_page(code)  # refetch: marker reset code mapping too
        m.write(p_in, 0, b"m" * 16)
        m.step()
    m.read(p_out, 0, 8)
    tr_full = collect(m, m.tap, full_policy)
    # outside diff must be finalized by the flush at marker start,
    # so it lands before the START marker
    evs = list(tr_full.events)
    start = next(i for i, e in enumerate(evs) if isinstance(e, Marker))
    ci_out = next(i for i, e in enumerate(evs)
                  if isinstance(e, CiphertextDiff) and e.gpn == p_out)
    assert ci_out < start
    tr = collect(m, m.tap, targeted_policy)
    kept = [e for e in tr.events if not isinstance(e, Marker)]
    assert {e.gpn for e in kept if isinstance(e, (DataAccess, CiphertextDiff))} == {p_in}
    assert [e.gpn for e in kept if isinstance(e, CodeFetch)] == [code]


def test_counter_semantics(full_policy):
    m = SimMachine()
    code = m.alloc_page()
    p = m.alloc_page()
    m.reset_tap()
    m.branch(taken=True)
    m.branch(taken=False, is_return=True)
    m.exec_page(code)     # emits CF + snapshot: 2 branches + 1 exec
    m.read(p, 0, 8)       # emits MA + snapshot: 1 read
    m.step()
    tr = collect(m, m.tap, full_policy)
    pn = only(tr.events, CounterSnapshot)
    assert pn[0].values == (3, 3, 2, 1, 1)  # 2 branches + 1 exec, 1 uop each
    assert pn[1].values == (1, 2, 0, 0, 0)  # the read: 1 instruction, 2 uops

    # disabling pmc removes snapshots but changes nothing else
    no_pmc = dataclasses.replace(full_policy,
                                 channels=frozenset(["page", "cache", "cipher"]))
    tr2 = collect(m, m.tap, no_pmc)
    assert only(tr2.events, CounterSnapshot) == []
    assert [e for e in tr2.events if not isinstance(e, CounterSnapshot)] == \
           [e for e in tr.events if not isinstance(e, CounterSnapshot)]


def test_cache_noise_drop_and_flip():
    m = SimMachine()
    p = m.alloc_page()
    m.reset_tap()
    for ln in range(32):
        m.read(p, ln * 64, 8)
    m.step()
    drop_all = CollectorPolicy(channels=frozenset(["page", "cache"]), drop_prob=1.0)
    tr = collect(m, m.tap, drop_all, trace_seed=5)
    assert only(tr.events, DataAccess)[0].lines == frozenset()
    flip = CollectorPolicy(channels=frozenset(["page", "cache"]), flip_prob=1.0)
    tr2 = collect(m, m.tap, flip, trace_seed=5)
    lines = only(tr2.events, DataAccess)[0].lines
    assert lines and lines != frozenset(range(32))
    # same seed, same result
    tr3 = collect(m, m.tap, flip, trace_seed=5)
    assert only(tr3.events, DataAccess)[0].lines == lines


def test_policy_from_json(full_policy):
    pol = CollectorPolicy.from_json({
        "channels": ["pmc", "page", "cache", "cipher"], "data_queue_len": 3,
        "targeted": False, "cache_noise": {"drop_prob": 0.25, "flip_prob": 0.5}})
    assert pol == dataclasses.replace(full_policy, data_queue_len=3,
                                      drop_prob=0.25, flip_prob=0.5)


def test_unbalanced_workload_markers_rejected(full_policy):
    m = SimMachine()
    m.reset_tap()
    m.marker_start()
    with pytest.raises(CollectorError):
        collect(m, m.tap, full_policy)


def _fuzzed_run(rng):
    """A random workload, machine seeds, collector policy, noise seed and trace seed.

    The workload replays a pre-drawn list of guest actions, so it makes
    the same tap, up to page numbering, on any machine.
    """
    ops = []
    inside = False
    for _ in range(int(rng.integers(0, 120))):
        op = int(rng.integers(0, 7))
        if op == 0:
            ops.append(("exec", int(rng.integers(0, 4))))
        elif op in (1, 2):
            page = int(rng.integers(0, 10))
            off = int(rng.integers(0, 4000))
            n = int(rng.integers(1, 96))
            if op == 1:
                ops.append(("read", page, off, n))
            else:
                # few distinct byte values, so some writes change nothing
                ops.append(("write", page, off,
                            bytes(rng.integers(0, 2, size=n, dtype=np.uint8))))
        elif op == 3:
            ops.append(("branch", bool(rng.integers(0, 2)), bool(rng.integers(0, 2))))
        elif op in (4, 5):
            ops.append(("step",))
        elif rng.random() < 0.3:
            ops.append(("stop" if inside else "start",))
            inside = not inside
    if inside:
        ops.append(("stop",))

    def workload(m):
        code = m.alloc_pages(4)
        data = m.alloc_pages(10)
        for op, *args in ops:
            if op == "exec":
                m.exec_page(code[args[0]])
            elif op == "read":
                m.read(data[args[0]], args[1], args[2])
            elif op == "write":
                m.write(data[args[0]], args[1], args[2])
            elif op == "branch":
                m.branch(taken=args[0], is_return=args[1])
            elif op == "step":
                m.step()
            else:
                m.marker_start() if op == "start" else m.marker_stop()

    channels = [c for c in ("page", "cache", "cipher", "pmc") if rng.random() < 0.7]
    if "cache" in channels and "page" not in channels:
        channels.remove("cache")
    policy = CollectorPolicy(
        channels=frozenset(channels or ["pmc"]),
        data_queue_len=int(rng.integers(1, 5)),
        targeted=bool(rng.integers(0, 2)),
        drop_prob=float(rng.choice([0.0, 0.3, 1.0])),
        flip_prob=float(rng.choice([0.0, 0.3])),
    )
    noise_seed = int(rng.integers(0, 1000))
    machine = SimMachine(cipher_seed=int(rng.integers(0, 1 << 32)),
                         alloc_seed=int(rng.integers(0, 1 << 32)))
    return workload, machine, policy, noise_seed, int(rng.integers(0, 1 << 32))


def test_collected_events_are_valid_by_construction(rng):
    # the collector skips event validation: its events must still be
    # exactly what the validating constructors build, and survive a
    # text round trip through the (validating) parser
    kinds = set()
    empty_sets = 0
    for _ in range(150):
        workload, m, policy, _, seed = _fuzzed_run(rng)
        tr, _ = run_collect(m, workload, policy, seed)
        assert parse_trace(write_trace(tr)) == tr
        assert_sound_records(tr)
        for ev in tr.events:
            kinds.add(type(ev))
            empty_sets += type(ev) is DataAccess and ev.lines == frozenset()
    assert kinds == {CodeFetch, DataAccess, CiphertextDiff, CounterSnapshot, Marker}
    assert empty_sets > 0  # line-drop noise empties some sets


def test_collect_matches_oracle_on_fuzzed_taps(rng):
    for _ in range(300):
        workload, m, policy, noise_seed, seed = _fuzzed_run(rng)
        m.reset_tap()
        workload(m)
        # collect seeds the SEED header and the noise with one seed
        assert collect(m, m.tap, policy, seed) == \
            oracle_collect(m, m.tap, policy, seed, seed)
        expected = oracle_collect(m, m.tap, policy, seed, noise_seed)
        assert place(observe(m, m.tap, policy, noise_seed), m, seed) == expected
        # observed on a machine with another layout, then placed on this
        # machine's layout and key: the same trace
        other = SimMachine(cipher_seed=m.cipher_seed + 1, alloc_seed=m.alloc_seed + 1)
        workload(other)
        obs = observe(other, other.tap, policy, noise_seed)
        assert obs.pages == tuple(other.pages) and len(obs.pages) == len(m.pages)
        assert place(obs, m, seed) == expected


def test_placed_writer_matches_place_on_fuzzed_runs(rng):
    # the text written straight from an observation equals the text of
    # its placed trace, on the observing machine and on another one
    bare = empty = ci = 0
    for _ in range(300):
        workload, m, policy, noise_seed, seed = _fuzzed_run(rng)
        observing = SimMachine(cipher_seed=m.cipher_seed + 1, alloc_seed=m.alloc_seed + 1)
        workload(observing)
        obs = observe(observing, observing.tap, policy, noise_seed)
        for run in (m, observing):
            text = write_trace(obs.trace(seed), Placement(obs, run))
            assert_same_text(text, write_trace(place(obs, run, seed)))
        for line in text.splitlines():
            bare += line.startswith("MA ") and " CL " not in line
            empty += line.endswith(" CL -")
            ci += line.startswith("CI ")
    assert bare and empty and ci


def _stray_tap(rng, m):
    """Reads, writes and steps on ``m``'s pages, made on a copy of it."""
    other = m.copy()
    pages = list(other.pages)
    for _ in range(int(rng.integers(1, 12))):
        gpn = pages[int(rng.integers(0, len(pages)))]
        off = int(rng.integers(0, 4000))
        if rng.random() < 0.5:
            other.read(gpn, off, int(rng.integers(1, 96)))
        else:
            other.write(gpn, off, bytes(rng.integers(0, 256, size=int(rng.integers(1, 96)),
                                                     dtype=np.uint8)))
        if rng.random() < 0.3:
            other.step()
    return other.tap


def test_observer_fed_in_slices_matches_oracle(rng):
    # a tap cut at random points and fed slice by slice gives the oracle's
    # trace; so does a copy forked at a cut and fed the rest.  Neither
    # finishing that copy (which evicts, draws noise and fills slots) nor
    # feeding another copy a stray tap changes what the original finishes
    for _ in range(300):
        workload, m, policy, noise_seed, seed = _fuzzed_run(rng)
        m.reset_tap()
        workload(m)
        tap = m.tap
        expected = oracle_collect(m, tap, policy, seed, noise_seed)
        cuts = sorted(rng.integers(0, len(tap) + 1, size=int(rng.integers(1, 5))).tolist())
        fork_at = int(rng.integers(0, len(cuts)))
        observer = Observer(policy, noise_seed)
        for i, (a, b) in enumerate(zip([0] + cuts, cuts + [len(tap)])):
            if i == fork_at + 1:
                fork = observer.copy()
                fork.feed(tap[a:])
                assert place(fork.finish(m), m, seed) == expected
                observer.copy().feed(_stray_tap(rng, m))
            observer.feed(tap[a:b])
        assert place(observer.finish(m), m, seed) == expected


def test_layout_replays_allocation():
    m = SimMachine(alloc_seed=42)
    pages = m.alloc_pages(65) + [m.alloc_page()]
    assert m.layout(len(pages)) == pages
    assert m.layout(10) == pages[:10]  # a replay from the seed, not from now
    assert SimMachine(alloc_seed=42).layout(len(pages)) == pages


def test_place_on_observing_machine_passes_events_through(full_policy):
    m = SimMachine(cipher_seed=5, alloc_seed=6)
    m.reset_tap()
    workload_two_pages(m)
    obs = observe(m, m.tap, full_policy)
    placed = place(obs, m, 3).events
    assert len(placed) == len(obs.events)
    kept = [(a, b) for a, b in zip(obs.events, placed)
            if type(a) in (CodeFetch, DataAccess, CounterSnapshot)]
    assert {type(a) for a, _ in kept} == {CodeFetch, DataAccess, CounterSnapshot}
    assert all(a is b for a, b in kept)


def test_targeted_observe_builds_only_kept_diffs(monkeypatch, targeted_policy):
    # an A7-shaped run: the ORAM load writes thousands of blocks before
    # the marker window, the window itself a few hundred
    from leaklab import machine as machine_mod
    from leaklab.workloads import build_workload

    cfg = {"kind": "pir_oram", "db_size": 64, "height": 8,
           "zero_value_indices": [7], "flaw": False}
    m = SimMachine(cipher_seed=1, alloc_seed=2)
    build_workload(cfg, [33, 33, 33, 7], 3)(m)
    built = []
    make = machine_mod._tuple_new
    monkeypatch.setattr(machine_mod, "_tuple_new", lambda cls, fields: (
        cls is CiphertextDiff and built.append(fields)) or make(cls, fields))
    obs = observe(m, m.tap, targeted_policy)
    kept = len(only(obs.events, CiphertextDiff))
    assert kept > 0 and len(built) == kept
    untargeted = dataclasses.replace(targeted_policy, targeted=False)
    assert len(only(observe(m, m.tap, untargeted).events, CiphertextDiff)) > 5 * kept


def test_observation_holds_plaintext_and_place_encrypts(full_policy):
    m = SimMachine(cipher_seed=5, alloc_seed=6)
    m.reset_tap()
    code, d1, d2 = workload_two_pages(m)
    obs = observe(m, m.tap, full_policy)
    (diff,) = only(obs.events, CiphertextDiff)
    assert (diff.before, diff.after) == (b"\x00" * 16, b"x" * 16)
    (placed,) = only(place(obs, m, 3).events, CiphertextDiff)
    assert placed.before == ciphertext_of(m, d1, 0, b"\x00" * 16)
    assert placed.after == ciphertext_of(m, d1, 0, b"x" * 16)


def test_empty_cache_line_set_round_trips():
    m = SimMachine()
    p = m.alloc_page()
    m.reset_tap()
    m.read(p, 0, 8)
    drop_all = CollectorPolicy(channels=frozenset(["page", "cache"]), drop_prob=1.0)
    tr = collect(m, m.tap, drop_all)
    text = write_trace(tr)
    assert f"MA {p:x} CL -\n" in text
    assert parse_trace(text) == tr
