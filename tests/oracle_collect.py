"""The one-pass collector and the per-block machine write, kept as
differential oracles.

This is ``leaklab.machine.collect`` as it was before collection split
into a layout- and key-free observation and its placement: it encrypts
every ciphertext diff as it is made, with one keyed hash per block
(:func:`ciphertext_of`), keeps the page FIFO in a list, and builds every
event through its validating constructor and the trace through
``Trace.__post_init__``.  ``collect`` must give an equal ``Trace`` for
every tap and policy, and a game run must give the trace this collector
gives on a fresh machine for that run.

:func:`oracle_write` is ``SimMachine.write`` as it was before it copied
the touched blocks once before and once after the write: it slices the
page per block, twice.  ``SimMachine.write`` must leave the same page
bytes and tap, and fail with the same exception, for every write.

:func:`place` is how an observation became one run's trace before the
trace writer placed it as it wrote: it builds every placed event.
``write_trace(obs.trace(seed), Placement(obs, machine))`` must give the
text of ``write_trace(place(obs, machine, seed))``.
"""

import hashlib
import random

from leaklab.machine import (
    BRANCH,
    EXEC,
    MARK,
    PAGE_BYTES,
    READ,
    STEP,
    WRITE,
    CollectorError,
    CollectorPolicy,
    MachineFault,
    Observation,
    Placement,
    SimMachine,
)
from leaklab.trace import (
    BLOCK_BYTES,
    CiphertextDiff,
    CodeFetch,
    CounterSnapshot,
    DataAccess,
    Marker,
    Trace,
)


def ciphertext_of(machine: SimMachine, gpn: int, block: int, plaintext: bytes) -> bytes:
    """Deterministic per-address block encryption, 16-byte output.

    Keyed by the machine's cipher seed and tweaked by (page, block), so
    the same plaintext at the same address always encrypts identically
    while any single-bit change anywhere produces an unrelated block.
    """
    if len(plaintext) != BLOCK_BYTES:
        raise ValueError(f"plaintext must be {BLOCK_BYTES} bytes")
    msg = gpn.to_bytes(5, "little") + block.to_bytes(2, "little") + plaintext
    return hashlib.blake2b(msg, digest_size=BLOCK_BYTES, key=machine._key).digest()


def oracle_write(machine: SimMachine, gpn: int, offset: int, data: bytes) -> None:
    """Write ``data`` at ``offset`` of page ``gpn``; one WRITE tap entry
    per touched 16-byte block, with its bytes before and after."""
    mem = machine.pages.get(gpn)
    if mem is None:
        raise MachineFault(f"write of unallocated page {gpn:#x}")
    end = offset + len(data)
    if offset < 0 or not data or end > PAGE_BYTES:
        raise MachineFault(
            f"write out of bounds: page {gpn:#x} offset {offset} "
            f"length {len(data)}"
        )
    first_b = offset >> 4
    last_b = end - 1 >> 4
    olds = [bytes(mem[b << 4:(b << 4) + BLOCK_BYTES])
            for b in range(first_b, last_b + 1)]
    mem[offset:end] = data
    tap = machine.tap
    for b, old in zip(range(first_b, last_b + 1), olds):
        new = bytes(mem[b << 4:(b << 4) + BLOCK_BYTES])
        tap.append((WRITE, gpn, b >> 2, b, old, new))


class _PageWindow:
    """Per-mapped-data-page state between fault and eviction."""

    __slots__ = ("gpn", "lines", "baseline", "current", "ma")

    def __init__(self, gpn: int, ma: list):
        self.gpn = gpn
        self.lines: set[int] = set()
        self.baseline: dict[int, bytes] = {}
        self.current: dict[int, bytes] = {}
        self.ma = ma  # mutable ["MA", gpn, lines] placeholder in the out list


def oracle_collect(machine: SimMachine, tap: list[tuple], policy: CollectorPolicy,
                   trace_seed: int, noise_seed: int) -> Trace:
    """Replay a raw tap through the collector state machine.

    ``trace_seed`` is the trace's SEED; ``noise_seed`` seeds the cache
    noise draws.
    """
    rng = random.Random(noise_seed)

    out: list = []  # TraceEvent | mutable MA placeholder
    mapped_code: int | None = None
    queue: list[_PageWindow] = []
    by_gpn: dict[int, _PageWindow] = {}
    step_touched: set[int] = set()
    cap = policy.data_queue_len
    marker_depth = 0

    # counters: instructions, uops, branches, taken, returns
    c_ins = c_uop = c_br = c_tk = c_rt = 0

    def emit_counters():
        nonlocal c_ins, c_uop, c_br, c_tk, c_rt
        out.append(CounterSnapshot((c_ins, c_uop, c_br, c_tk, c_rt)))
        c_ins = c_uop = c_br = c_tk = c_rt = 0

    def finalize(win: _PageWindow):
        # attach the line set observed while mapped, through the noise model
        lines = win.lines
        if policy.drop_prob or policy.flip_prob:
            noisy = set()
            for ln in sorted(lines):
                if policy.drop_prob and rng.random() < policy.drop_prob:
                    continue
                if policy.flip_prob and rng.random() < policy.flip_prob:
                    ln = rng.randrange(64)
                noisy.add(ln)
            lines = noisy
        win.ma[2] = frozenset(lines)
        # diff every block written while mapped against its value at fault
        diffs = []
        for block, base in win.baseline.items():
            cur = win.current[block]
            if cur != base:
                diffs.append((block, base, cur))
        gpn = win.gpn
        for block, base, cur in sorted(diffs):
            out.append(CiphertextDiff(
                gpn, block,
                ciphertext_of(machine, gpn, block, base),
                ciphertext_of(machine, gpn, block, cur),
            ))

    def evict_front():
        win = queue.pop(0)
        del by_gpn[win.gpn]
        finalize(win)

    def flush_all():
        while queue:
            evict_front()

    def fault(gpn: int):
        # FIFO eviction, but never evict a page touched in the current
        # step: a single step needs all its pages mapped at once, so the
        # queue grows instead and shrinks back at the step boundary.
        if len(queue) >= cap and queue[0].gpn not in step_touched:
            evict_front()
        ma = ["MA", gpn, None]
        win = _PageWindow(gpn, ma)
        queue.append(win)
        by_gpn[gpn] = win
        out.append(ma)
        emit_counters()

    for ev in tap:
        kind = ev[0]
        if kind == READ or kind == WRITE:
            gpn = ev[1]
            c_ins += 1
            c_uop += 2
            win = by_gpn.get(gpn)
            if win is None:
                fault(gpn)
                win = by_gpn[gpn]
            step_touched.add(gpn)
            win.lines.add(ev[2])
            if kind == WRITE:
                block = ev[3]
                if block not in win.baseline:
                    win.baseline[block] = ev[4]
                win.current[block] = ev[5]
        elif kind == EXEC:
            gpn = ev[1]
            c_ins += 1
            c_uop += 1
            if gpn != mapped_code:
                mapped_code = gpn
                out.append(CodeFetch(gpn))
                emit_counters()
        elif kind == BRANCH:
            c_ins += 1
            c_uop += 1
            c_br += 1
            if ev[1]:
                c_tk += 1
            if ev[2]:
                c_rt += 1
        elif kind == STEP:
            step_touched.clear()
            while len(queue) > cap:
                evict_front()
        elif kind == MARK:
            mk = ev[1]
            marker_depth += 1 if mk == "START" else -1
            if marker_depth not in (0, 1):
                raise CollectorError("unbalanced markers in workload")
            # a marker visit flushes hypervisor tracking state: pending
            # observations are read out and all mappings dropped
            flush_all()
            step_touched.clear()
            mapped_code = None
            out.append(Marker(mk))
        else:
            raise CollectorError(f"unknown tap event kind: {kind}")

    if marker_depth != 0:
        raise CollectorError("unbalanced markers in workload")
    flush_all()

    # freeze MA placeholders
    events: list = []
    for item in out:
        if type(item) is list:
            events.append(DataAccess(item[1], item[2]))
        else:
            events.append(item)

    # targeted collection keeps only marker-windowed events
    if policy.targeted:
        kept = []
        inside = False
        for ev in events:
            if type(ev) is Marker:
                inside = ev.kind == "START"
                kept.append(ev)
            elif inside:
                kept.append(ev)
        events = kept

    # channel filtering, applied last so channels cannot interact
    chans = policy.channels
    filtered: list = []
    for ev2 in events:
        cls = type(ev2)
        if cls is DataAccess:
            if "page" not in chans:
                continue
            filtered.append(ev2 if "cache" in chans else DataAccess(ev2.gpn, None))
        elif cls is CodeFetch:
            if "page" in chans:
                filtered.append(ev2)
        elif cls is CiphertextDiff:
            if "cipher" in chans:
                filtered.append(ev2)
        elif cls is CounterSnapshot:
            if "pmc" in chans:
                filtered.append(ev2)
        else:
            filtered.append(ev2)

    return Trace(seed=trace_seed, channels=chans, events=tuple(filtered))


def place(obs: Observation, machine: SimMachine, trace_seed: int) -> Trace:
    """The trace an observation gives on one run's machine.

    Pages are renamed and ciphertext diff blocks encrypted as in
    :class:`~leaklab.machine.Placement`.  Events whose page keeps its
    number pass through untouched, so placing on the observing machine
    returns its code fetches, data accesses and counters as they are.
    """
    placement = Placement(obs, machine)
    pages = placement.pages
    events = []
    for ev in obs.events:
        cls = type(ev)
        if cls is CiphertextDiff:
            before, after = placement.ciphers(*ev)
            ev = CiphertextDiff(pages[ev.gpn], ev.block, before.digest(), after.digest())
        elif cls is DataAccess or cls is CodeFetch:
            gpn = pages[ev.gpn]
            if gpn != ev.gpn:
                ev = cls(gpn, *ev[1:])
        events.append(ev)
    return Trace(trace_seed, obs.channels, tuple(events), obs.num_code_pages)
