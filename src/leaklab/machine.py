"""Simulated guest machine and the hypervisor-side observation collector.

The machine side is deliberately small: workloads allocate 4kB guest
pages, then execute, read, write and branch against them.  Every such
action appends a compact raw event to the machine's tap.  The collector
replays that tap through a state machine that mimics what a malicious
hypervisor can observe on a memory-encrypted guest:

* page channel  - faults on unmapped pages (the collector keeps the one
  page last executed and a short FIFO of data pages mapped at a time);
* cache channel - which cache lines were touched on a faulted data page
  while it stayed mapped;
* cipher channel - which 16-byte blocks of a written page changed
  ciphertext between mapping and eviction (memory encryption here is
  deterministic per address, so equal plaintext hides, changed plaintext
  shows);
* pmc channel   - five performance counters accumulated between emitted
  events.

Collection is two steps.  ``observe`` replays the tap, in one pass, into
an observation that is free of the memory-encryption key (an
:class:`Observer` does the replay and can stop, fork and resume it): each
ciphertext diff holds its two plaintext blocks, and the observation
lists the observing machine's pages in allocation order.  A
:class:`Placement` gives the observation's k-th page the number of a run
machine's k-th allocation (see ``SimMachine.layout``) and encrypts the
diff blocks under that machine's key, as ``write_trace`` writes the
trace text.  Both are pure functions of their inputs, so identical
inputs give byte-identical traces.  No workload or collector decision
reads a page number's value, and the k-th allocation's page number
depends only on ``alloc_seed`` and k; so a run whose tap depends on
nothing per run can be observed once, on any machine, and placed for
every run.
"""

from __future__ import annotations

import hashlib
import random
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass

from .trace import (
    BLOCK_BYTES,
    BLOCKS_PER_PAGE,
    CodeFetch,
    CiphertextDiff,
    CounterSnapshot,
    DataAccess,
    Marker,
    Trace,
    TraceEvent,
    parse_trace,
    write_trace,
)

__all__ = [
    "SimMachine",
    "MachineFault",
    "CollectorError",
    "CollectorPolicy",
    "Observation",
    "Observer",
    "observe",
    "Placement",
    "collect",
    "run_collect",
    "PAGE_BYTES",
]

PAGE_BYTES = 4096

# Raw tap event kinds.  Tuples instead of objects: hot workloads emit
# tens of millions of these per dataset.
EXEC = 0    # (EXEC, gpn)
READ = 1    # (READ, gpn, line)
WRITE = 2   # (WRITE, gpn, line, block, old_bytes, new_bytes)
BRANCH = 3  # (BRANCH, taken, is_return)
MARK = 4    # (MARK, "START"|"STOP")
STEP = 5    # (STEP,)

# The collector makes only in-range fields, so it builds trace records
# without their checks.
_tuple_new = tuple.__new__

# a ciphertext's 2 block-index bytes, by block
_BLOCK_TWEAKS = tuple(b.to_bytes(2, "little") for b in range(BLOCKS_PER_PAGE))


class MachineFault(RuntimeError):
    """A workload accessed memory it does not own."""


class CollectorError(ValueError):
    """The collector policy or the raw tap is unusable."""


def _fresh_gpn(rng: random.Random, taken) -> int:
    """A random 40-bit page number that is not in ``taken``."""
    while True:
        gpn = rng.getrandbits(40)
        if gpn not in taken:
            return gpn


class SimMachine:
    """A bag of guest pages plus an event tap.

    Pages are untyped and all encrypted: a page is code when it is executed.

    ``cipher_seed`` keys the per-address memory encryption;
    ``alloc_seed`` drives page-number assignment so layouts differ
    between runs the way ASLR and allocator state differ between real
    processes.
    """

    def __init__(self, cipher_seed: int = 0, alloc_seed: int = 0):
        self.cipher_seed = cipher_seed
        self.alloc_seed = alloc_seed
        self._key = b"ctblk" + cipher_seed.to_bytes(8, "little")
        self._alloc_rng = random.Random(alloc_seed)
        self.pages: dict[int, bytearray] = {}
        self.tap: list[tuple] = []

    # -- allocation ----------------------------------------------------

    def alloc_page(self) -> int:
        """Allocate one fresh zeroed page, returning its guest page number."""
        gpn = _fresh_gpn(self._alloc_rng, self.pages)
        self.pages[gpn] = bytearray(PAGE_BYTES)
        return gpn

    def alloc_pages(self, n: int) -> list[int]:
        return [self.alloc_page() for _ in range(n)]

    def layout(self, n: int) -> list[int]:
        """Page numbers of the first ``n`` allocations under ``alloc_seed``.

        A replay from the seed, whatever this machine has allocated so
        far: ``layout(n)[k]`` is the page number the k-th ``alloc_page``
        call returns.
        """
        rng = random.Random(self.alloc_seed)
        taken: dict[int, None] = {}
        for _ in range(n):
            taken[_fresh_gpn(rng, taken)] = None
        return list(taken)

    def copy(self) -> "SimMachine":
        """An independent machine in this one's state, with an empty tap."""
        new = SimMachine(self.cipher_seed, self.alloc_seed)
        new._alloc_rng.setstate(self._alloc_rng.getstate())
        new.pages = {gpn: mem[:] for gpn, mem in self.pages.items()}
        return new

    # -- tap control ---------------------------------------------------

    def reset_tap(self) -> None:
        self.tap = []

    # -- guest actions -------------------------------------------------

    def exec_page(self, gpn: int) -> None:
        if gpn not in self.pages:
            raise MachineFault(f"execute of unallocated page {gpn:#x}")
        self.tap.append((EXEC, gpn))

    def read(self, gpn: int, offset: int, length: int) -> bytes:
        mem = self.pages.get(gpn)
        if mem is None:
            raise MachineFault(f"read of unallocated page {gpn:#x}")
        end = offset + length
        if offset < 0 or length <= 0 or end > PAGE_BYTES:
            raise MachineFault(
                f"read out of bounds: page {gpn:#x} offset {offset} length {length}"
            )
        tap = self.tap
        for line in range(offset >> 6, (end - 1 >> 6) + 1):
            tap.append((READ, gpn, line))
        return bytes(mem[offset:end])

    def write(self, gpn: int, offset: int, data: bytes) -> None:
        mem = self.pages.get(gpn)
        if mem is None:
            raise MachineFault(f"write of unallocated page {gpn:#x}")
        end = offset + len(data)
        if offset < 0 or not data or end > PAGE_BYTES:
            raise MachineFault(
                f"write out of bounds: page {gpn:#x} offset {offset} "
                f"length {len(data)}"
            )
        # one copy of the touched blocks before the write and one after;
        # each block's old and new bytes are cut from those
        lo = offset & -BLOCK_BYTES
        hi = end + BLOCK_BYTES - 1 & -BLOCK_BYTES
        old = bytes(mem[lo:hi])
        mem[offset:end] = data
        new = bytes(mem[lo:hi])
        b = lo >> 4
        if hi - lo == BLOCK_BYTES:
            self.tap.append((WRITE, gpn, b >> 2, b, old, new))
            return
        append = self.tap.append
        for i in range(0, hi - lo, BLOCK_BYTES):
            append((WRITE, gpn, b >> 2, b, old[i:i + BLOCK_BYTES], new[i:i + BLOCK_BYTES]))
            b += 1

    def branch(self, taken: bool, is_return: bool = False) -> None:
        self.tap.append((BRANCH, taken, is_return))

    def step(self) -> None:
        """End of one workload step (roughly: one guest instruction retires)."""
        self.tap.append((STEP,))

    def marker_start(self) -> None:
        self.tap.append((MARK, "START"))

    def marker_stop(self) -> None:
        self.tap.append((MARK, "STOP"))

    @contextmanager
    def marked(self):
        self.marker_start()
        try:
            yield
        finally:
            self.marker_stop()


@dataclass(frozen=True)
class CollectorPolicy:
    """What the hypervisor-side collector records and how.

    ``data_queue_len`` is how many data pages stay mapped at once (FIFO).
    The queue grows within one workload step if a single step touches
    more pages than it holds, then shrinks back at the step boundary.
    ``targeted`` keeps only the events made inside marker windows.
    ``drop_prob``/``flip_prob`` model a lossy cache probe; both default
    to 0 (the cache channel is treated as noiseless).  The noise stream
    is seeded per call of :func:`observe`, not by the policy.
    """

    channels: frozenset[str]
    data_queue_len: int = 4
    targeted: bool = False
    drop_prob: float = 0.0
    flip_prob: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "channels", frozenset(self.channels))
        valid = {"page", "cache", "cipher", "pmc"}
        if not self.channels:
            raise CollectorError("policy must enable at least one channel")
        unknown = self.channels - valid
        if unknown:
            raise CollectorError(f"unknown channels: {sorted(unknown)}")
        if "cache" in self.channels and "page" not in self.channels:
            raise CollectorError("cache channel requires the page channel")
        if self.data_queue_len < 1:
            raise CollectorError("data_queue_len must be >= 1")
        for name in ("drop_prob", "flip_prob"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise CollectorError(f"{name} must be in [0, 1]")

    @classmethod
    def from_json(cls, obj: dict) -> "CollectorPolicy":
        obj = dict(obj)
        noise = obj.pop("cache_noise", {})
        return cls(
            channels=frozenset(obj.pop("channels")),
            drop_prob=noise.get("drop_prob", 0.0),
            flip_prob=noise.get("flip_prob", 0.0),
            **obj,
        )


class _PageWindow:
    """Per-mapped-data-page state between fault and eviction."""

    __slots__ = ("gpn", "lines", "baseline", "current", "slot")

    def __init__(self, gpn: int, slot: int | None):
        self.gpn = gpn
        self.lines: set[int] = set()
        self.baseline: dict[int, bytes] = {}
        self.current: dict[int, bytes] = {}
        self.slot = slot  # index of its DataAccess in the output, if kept

    def copy(self) -> "_PageWindow":
        new = _PageWindow(self.gpn, self.slot)
        new.lines = self.lines.copy()
        new.baseline = self.baseline.copy()
        new.current = self.current.copy()
        return new


@dataclass(frozen=True, slots=True)
class Observation:
    """A collected run before placement: free of the encryption key.

    ``events`` are the trace's events with pages in the observing
    machine's numbering and each ``CiphertextDiff`` holding the two
    plaintext blocks; ``pages`` are that machine's page numbers in
    allocation order.  ``write_trace(obs.trace(seed), Placement(obs,
    machine))`` writes one run's trace of it.
    """

    channels: frozenset[str]
    events: tuple[TraceEvent, ...]
    num_code_pages: int
    pages: tuple[int, ...]

    def trace(self, seed: int) -> Trace:
        """The observation's events as they are, as a trace with SEED ``seed``."""
        return _tuple_new(Trace, (seed, self.channels, self.events, self.num_code_pages))


class Observer:
    """The collector state machine, fed a raw tap in slices.

    ``feed`` replays tap events in one pass; ``finish`` flushes the page
    windows still mapped and returns the :class:`Observation`.  Feeding a
    tap in any number of slices gives the same observation as feeding it
    whole.  The state carried from one event to the next is the mapped
    code page, the FIFO of data-page windows and its index by page, the
    pages touched in the current step, the running counters, the marker
    depth and whether events made now are kept, the noise stream and the
    events so far.  ``copy`` forks that state: the copy and the original
    then go on independently, sharing the events made so far, which are
    immutable.

    Each event is made in its final form where it happens: a data access
    reserves its slot when its page faults and is filled in at eviction.
    Channel and marker-window filtering decide there whether an event is
    made at all, so a targeted policy builds nothing outside its windows.
    The state machine itself runs in full for every channel and window,
    and every page window takes its noise draws, so neither a channel nor
    targeting can change what the rest sees.  Events are valid by
    construction (40-bit pages, lines 0-63, blocks 0-255, non-negative
    counters, a diff only where the plaintext changed), so they skip the
    per-event validation.  No decision here reads a page number's value,
    only its identity.  ``noise_seed`` seeds the cache noise draws; a
    noiseless policy draws nothing.
    """

    __slots__ = ("policy", "_rng", "_events", "_cf_pages", "_mapped_code", "_queue",
                 "_by_gpn", "_step_touched", "_counters", "_depth", "_keep")

    def __init__(self, policy: CollectorPolicy, noise_seed: int = 0):
        self.policy = policy
        self._rng = random.Random(noise_seed)
        self._events: list = []
        self._cf_pages: set[int] = set()
        self._mapped_code: int | None = None
        self._queue: deque[_PageWindow] = deque()
        self._by_gpn: dict[int, _PageWindow] = {}
        self._step_touched: set[int] = set()
        # instructions, uops, branches, taken, returns
        self._counters = (0, 0, 0, 0, 0)
        self._depth = 0
        self._keep = not policy.targeted  # whether events made now are kept

    def copy(self) -> "Observer":
        """An independent observer in this one's state."""
        new = object.__new__(Observer)
        new.policy = self.policy
        new._rng = random.Random()
        new._rng.setstate(self._rng.getstate())
        new._events = self._events.copy()
        new._cf_pages = self._cf_pages.copy()
        new._mapped_code = self._mapped_code
        new._queue = deque(win.copy() for win in self._queue)
        new._by_gpn = {win.gpn: win for win in new._queue}
        new._step_touched = self._step_touched.copy()
        new._counters = self._counters
        new._depth = self._depth
        new._keep = self._keep
        return new

    def _finalize(self, win: _PageWindow) -> None:
        # A marker flushes every window, so one lives inside a single
        # marker region and ``keep`` is still what it was at its fault.
        # The line set observed while mapped goes through the noise model.
        policy = self.policy
        lines = win.lines
        if policy.drop_prob or policy.flip_prob:
            rng = self._rng
            noisy_lines = set()
            for ln in sorted(lines):
                if policy.drop_prob and rng.random() < policy.drop_prob:
                    continue
                if policy.flip_prob and rng.random() < policy.flip_prob:
                    ln = rng.randrange(64)
                noisy_lines.add(ln)
            lines = noisy_lines
        if win.slot is not None:
            self._events[win.slot] = _tuple_new(DataAccess, (
                win.gpn, frozenset(lines) if "cache" in policy.channels else None))
        # diff every block written while mapped against its value at fault
        if self._keep and "cipher" in policy.channels:
            append = self._events.append
            gpn = win.gpn
            baseline, current = win.baseline, win.current
            for block in sorted(baseline):
                base, cur = baseline[block], current[block]
                if cur != base:
                    append(_tuple_new(CiphertextDiff, (gpn, block, base, cur)))

    def _evict_front(self) -> None:
        win = self._queue.popleft()
        del self._by_gpn[win.gpn]
        self._finalize(win)

    def feed(self, tap) -> None:
        """Replay the next slice of a raw tap."""
        policy = self.policy
        chans = policy.channels
        page, pmc = "page" in chans, "pmc" in chans
        targeted = policy.targeted
        cap = policy.data_queue_len
        events = self._events
        append = events.append
        keep = self._keep
        cf_pages = self._cf_pages
        mapped_code = self._mapped_code
        queue = self._queue
        by_gpn = self._by_gpn
        step_touched = self._step_touched
        marker_depth = self._depth
        evict_front = self._evict_front
        c_ins, c_uop, c_br, c_tk, c_rt = self._counters

        def emit_counters():
            nonlocal c_ins, c_uop, c_br, c_tk, c_rt
            if pmc and keep:
                append(_tuple_new(CounterSnapshot, ((c_ins, c_uop, c_br, c_tk, c_rt),)))
            c_ins = c_uop = c_br = c_tk = c_rt = 0

        def fault(gpn: int):
            # FIFO eviction, but never evict a page touched in the current
            # step: a single step needs all its pages mapped at once, so the
            # queue grows instead and shrinks back at the step boundary.
            if len(queue) >= cap and queue[0].gpn not in step_touched:
                evict_front()
            slot = None
            if page and keep:
                slot = len(events)
                append(None)
            win = by_gpn[gpn] = _PageWindow(gpn, slot)
            queue.append(win)
            emit_counters()
            return win

        for ev in tap:
            kind = ev[0]
            if kind == READ or kind == WRITE:
                gpn = ev[1]
                c_ins += 1
                c_uop += 2
                win = by_gpn.get(gpn)
                if win is None:
                    win = fault(gpn)
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
                    if page and keep:
                        append(_tuple_new(CodeFetch, (gpn,)))
                        cf_pages.add(gpn)
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
                while queue:
                    evict_front()
                step_touched.clear()
                mapped_code = None
                self._keep = keep = not targeted or marker_depth == 1
                append(Marker(mk))
            else:  # pragma: no cover - tap kinds are closed
                raise CollectorError(f"unknown tap event kind: {kind}")

        self._mapped_code = mapped_code
        self._depth = marker_depth
        self._counters = (c_ins, c_uop, c_br, c_tk, c_rt)

    def finish(self, machine: SimMachine) -> Observation:
        """Flush the windows still mapped; the observation of the tap fed so far.

        ``machine`` is the observing machine, whose pages the observation
        lists in allocation order.
        """
        if self._depth != 0:
            raise CollectorError("unbalanced markers in workload")
        while self._queue:
            self._evict_front()
        return Observation(self.policy.channels, tuple(self._events),
                           len(self._cf_pages), tuple(machine.pages))


def observe(machine: SimMachine, tap: list[tuple], policy: CollectorPolicy,
            noise_seed: int = 0) -> Observation:
    """Replay a raw tap through the collector state machine, in one pass.

    The whole tap fed to a fresh :class:`Observer`, then finished.
    """
    observer = Observer(policy, noise_seed)
    observer.feed(tap)
    return observer.finish(machine)


class Placement:
    """Where one run puts an observation: its page map and its cipher.

    ``pages`` maps the observation's k-th page to ``machine.layout(n)[k]``,
    the page number of ``machine``'s k-th allocation.  Memory encryption
    is keyed per run: a block's ciphertext at its placed address is the
    16-byte keyed blake2b digest, under ``machine``'s key, of the page
    (5 bytes) and block (2 bytes, both little-endian) followed by the
    plaintext, so the same plaintext at the same address always encrypts
    identically while any change gives an unrelated block.  The keyed
    hash state of each run page, already fed its page bytes, is made
    once here and copied per block.
    """

    __slots__ = ("pages", "_keyed")

    def __init__(self, obs: Observation, machine: SimMachine):
        self.pages = dict(zip(obs.pages, machine.layout(len(obs.pages))))
        key = hashlib.blake2b(digest_size=BLOCK_BYTES, key=machine._key)
        self._keyed = {}
        for old, new in self.pages.items():
            h = self._keyed[old] = key.copy()
            h.update(new.to_bytes(5, "little"))

    def ciphers(self, gpn: int, block: int, before: bytes, after: bytes):
        """The hash states whose digests are the ciphertexts of a diff's
        two plaintexts, at the run's page for observation page ``gpn``."""
        page = self._keyed[gpn]
        tweak = _BLOCK_TWEAKS[block]
        h1 = page.copy()
        h1.update(tweak + before)
        h2 = page.copy()
        h2.update(tweak + after)
        return h1, h2


def collect(machine: SimMachine, tap: list[tuple], policy: CollectorPolicy,
            trace_seed: int = 0) -> Trace:
    """The trace of a raw tap: its observation placed on ``machine`` as is,
    parsed back from the placed text.

    ``trace_seed`` is the trace's SEED and seeds its cache noise.
    """
    obs = observe(machine, tap, policy, trace_seed)
    return parse_trace(write_trace(obs.trace(trace_seed), Placement(obs, machine)))


def run_collect(machine: SimMachine, workload, policy: CollectorPolicy,
                trace_seed: int = 0):
    """Run ``workload(machine)`` and collect its trace.

    Returns ``(trace, workload_output)``.
    """
    machine.reset_tap()
    output = workload(machine)
    trace = collect(machine, machine.tap, policy, trace_seed)
    return trace, output
