"""Private heavy-hitters service: aggregate counts, then release noisily.

Stage one folds every input key into a :class:`SimHashMap` and appends a
reference to each first-seen key's node to a release vector, the way an
unordered-map user keeps iterators.  Stage two walks that vector, reads
each counter through its stored reference (no bucket probes), adds
integer Laplace noise and releases entries above a threshold.  The
mitigated variant pads the vector with random dummy keys between the
stages so the stage-two loop length is differentially private; the
stage-two observations are then a function of that padded length alone.

The map's hash function is deterministic across runs, like the standard
library hashers it stands in for; only page numbers vary run to run.
"""

from __future__ import annotations

import copy
import struct
from dataclasses import dataclass, field

from ..machine import SimMachine
from ..mitigation import noise_entry, sample_dummy_count, threshold_value
from .hashmap import SimHashMap

_DUMMY_PREFIX = "dummy://"


@dataclass
class PhhResult:
    survivors: dict[str, float]
    nt_iterations: int
    dummy_count: int
    rehash_count: int
    released: list[str] = field(default_factory=list)


class Aggregation:
    """Stage one's state on one machine: the map, the service's pages and
    the release vector.

    ``insert`` folds one key in.  Stage one draws no randomness, so this
    state after a run of inserts depends on the keys alone, and a copy of
    it can be resumed with further keys.
    """

    def __init__(self, m: SimMachine, hash_seed: int):
        self.m = m
        self.hmap = SimHashMap(m, hash_seed=hash_seed)
        self.code_agg = m.alloc_page()
        self.code_nt = m.alloc_page()
        self.code_noise = m.alloc_page()
        self.code_out = m.alloc_page()
        self.vec_pages = m.alloc_pages(8)  # release vector, 8B refs, up to 4096 keys
        self.scratch = m.alloc_page()
        self.out_page = m.alloc_page()
        self.vector: list[tuple[str, int, int]] = []  # (key, node page, node offset)

    def copy(self) -> "Aggregation":
        """An independent copy of this state, on a copy of its machine."""
        new = copy.copy(self)
        new.m = self.m.copy()
        new.hmap = self.hmap.copy(new.m)
        new.vector = self.vector.copy()
        return new

    def insert(self, key: str) -> None:
        m = self.m
        m.exec_page(self.code_agg)
        if self.hmap.insert(key):
            slot = len(self.vector)
            self.vector.append((key, *self.hmap.node_ref(key)))
            m.write(self.vec_pages[slot // 512], (slot % 512) * 8,
                    struct.pack("<Q", slot + 1))
        m.step()


class HeavyHitters:
    """Runnable service instance; ``marked_stage`` picks the traced window.

    ``marked_stage`` is one of "aggregate", "noise_threshold", or None.
    Dummy padding happens between the stages, outside either window, so a
    stage-scoped trace never contains the padding inserts themselves.

    A call runs ``begin``, one ``Aggregation.insert`` per input, ``end``
    and ``release``; a caller may run the pieces itself, for instance to
    stop stage one before its last key.
    """

    def __init__(self, inputs: list[str], eps: float, delta: float,
                 mitigated: bool = False, marked_stage: str | None = "noise_threshold",
                 seed: int = 0, hash_seed: int = 0):
        if marked_stage not in (None, "aggregate", "noise_threshold"):
            raise ValueError(f"bad marked_stage: {marked_stage!r}")
        if any(k.startswith(_DUMMY_PREFIX) for k in inputs):
            raise ValueError("input keys may not use the dummy namespace")
        self.inputs = list(inputs)
        self.eps = float(eps)
        self.delta = float(delta)
        self.mitigated = bool(mitigated)
        self.marked_stage = marked_stage
        self.seed = int(seed)
        self.hash_seed = int(hash_seed)

    def __call__(self, m: SimMachine) -> PhhResult:
        agg = self.begin(m)
        for key in self.inputs:
            agg.insert(key)
        self.end(agg)
        return self.release(agg)

    def begin(self, m: SimMachine) -> Aggregation:
        """Set the service up on ``m`` and open stage one, before any key."""
        agg = Aggregation(m, self.hash_seed)
        if self.marked_stage == "aggregate":
            m.marker_start()
        return agg

    def end(self, agg: Aggregation) -> None:
        """Close stage one, after its last key."""
        if self.marked_stage == "aggregate":
            agg.m.marker_stop()

    def release(self, agg: Aggregation) -> PhhResult:
        """Padding, then stage two, on a closed stage one."""
        import numpy as np

        m, hmap, vector = agg.m, agg.hmap, agg.vector
        rng = np.random.default_rng([self.seed & (2**63 - 1), 0x9E37])

        # Padding between the stages: fresh random dummy keys, each new.
        dummy_count = 0
        if self.mitigated:
            dummy_count = sample_dummy_count(self.eps, self.delta, rng)
            for i in range(dummy_count):
                agg.insert(f"{_DUMMY_PREFIX}{i}-{int(rng.integers(2**62)):016x}")

        # Stage two: noise each vector entry, release those above threshold.
        # Counters are read through the node references captured at insert
        # time, so the loop touches vector and node pages only and its
        # observable footprint depends on nothing but the entry count.
        thresh = threshold_value(self.eps, self.delta)
        counts = hmap.counts()
        survivors: dict[str, float] = {}
        released: list[str] = []
        if self.marked_stage == "noise_threshold":
            m.marker_start()
        for slot, (key, node_page, node_off) in enumerate(vector):
            m.exec_page(agg.code_nt)
            m.read(agg.vec_pages[slot // 512], (slot % 512) * 8, 8)
            m.read(node_page, node_off + 8, 8)
            count = counts[key]
            m.exec_page(agg.code_noise)
            noisy, keep = noise_entry(count, self.eps, thresh, rng)
            m.write(agg.scratch, 0, struct.pack("<q", int(noisy) & (2**63 - 1)))
            m.branch(taken=keep)
            if keep:
                m.exec_page(agg.code_out)
                m.write(agg.out_page, (len(released) % 256) * 16,
                        struct.pack("<Qq", slot + 1, int(noisy)))
                released.append(key)
                if not key.startswith(_DUMMY_PREFIX):
                    survivors[key] = noisy
            m.step()
        if self.marked_stage == "noise_threshold":
            m.marker_stop()

        return PhhResult(
            survivors=survivors,
            nt_iterations=len(vector),
            dummy_count=dummy_count,
            rehash_count=hmap.rehash_count,
            released=[k for k in released if not k.startswith(_DUMMY_PREFIX)],
        )


class SyntheticLoop:
    """Minimal count-leak probe: two code pages fetched alternately.

    Runs ``1 + extra + dummies`` loop iterations where ``dummies`` comes
    from the two-sided-geometric padding sampler, with the whole loop
    inside a marker window.  With only the page channel enabled the trace
    is exactly one code-fault pair per iteration, which makes measured
    distinguishing advantage comparable against the privacy bound with no
    other structure in the way.
    """

    def __init__(self, extra: int, eps: float, delta: float, seed: int = 0):
        if extra < 0:
            raise ValueError("extra must be >= 0")
        self.extra = int(extra)
        self.eps = float(eps)
        self.delta = float(delta)
        self.seed = int(seed)

    def __call__(self, m: SimMachine) -> int:
        import numpy as np

        rng = np.random.default_rng([self.seed & (2**63 - 1), 0x51D0])
        code_a = m.alloc_page()
        code_b = m.alloc_page()
        total = 1 + self.extra + sample_dummy_count(self.eps, self.delta, rng)
        with m.marked():
            for _ in range(total):
                m.exec_page(code_a)
                m.exec_page(code_b)
                m.step()
        return total
