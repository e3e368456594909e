"""Chained hash map living inside simulated guest memory.

Layout mirrors a typical separate-chaining unordered map: a bucket array
of 8-byte head pointers sized by a fixed prime ladder, and fixed 256-byte
node slots packed sixteen per page in allocation order.  Each structural
operation (probe, counter bump, fresh allocation, table growth) executes
from its own code page so the paths are distinguishable at page
granularity.
"""

from __future__ import annotations

import copy
import hashlib
import struct

from ..machine import SimMachine

# Capacities the table grows through; load factor is kept at or below 1
# by growing to the smallest rung >= size.
PRIME_LADDER = (13, 29, 59, 127, 257, 541, 1109, 2309, 4703, 9497, 19087)

_NODE_SLOT = 256
_NODES_PER_PAGE = 4096 // _NODE_SLOT
_BUCKET_ENTRY = 8
_BUCKETS_PER_PAGE = 4096 // _BUCKET_ENTRY

# Node slot layout: [0:8 next][8:16 count][16:24 keylen][24:24+klen key]
_HDR = 24


class SimHashMap:
    """Separate-chaining string->count map over machine pages."""

    def __init__(self, machine: SimMachine, hash_seed: int = 0):
        self.m = machine
        self._seed_bytes = int(hash_seed).to_bytes(8, "little", signed=False)
        self.bucket_count = PRIME_LADDER[0]
        self.size = 0
        self.rehash_count = 0
        # Python-side mirrors; the authoritative bytes live in machine pages
        # but walking chains through them would add no events we do not
        # already emit explicitly.
        self._chains: list[list[int]] = [[] for _ in range(self.bucket_count)]
        self._nodes: list[tuple[str, int]] = []  # node id -> (key, count)
        self._index: dict[str, int] = {}
        self._node_pages: list[int] = []
        self._bucket_pages = self._alloc_buckets(self.bucket_count)
        self.code_find = machine.alloc_page()
        self.code_hit = machine.alloc_page()
        self.code_alloc = machine.alloc_page()
        self.code_miss = machine.alloc_page()
        self.code_rehash = machine.alloc_page()

    def copy(self, machine: SimMachine) -> "SimHashMap":
        """This map's state on ``machine``, a copy of its own machine."""
        new = copy.copy(self)
        new.m = machine
        new._chains = [chain.copy() for chain in self._chains]
        new._nodes = self._nodes.copy()
        new._index = self._index.copy()
        new._node_pages = self._node_pages.copy()
        # _bucket_pages is replaced on growth, never changed in place
        return new

    # -- layout helpers -------------------------------------------------

    def _alloc_buckets(self, count: int) -> list[int]:
        n_pages = -(-count * _BUCKET_ENTRY // 4096)
        return list(self.m.alloc_pages(n_pages))

    def _bucket_loc(self, b: int) -> tuple[int, int]:
        return self._bucket_pages[b // _BUCKETS_PER_PAGE], (b % _BUCKETS_PER_PAGE) * _BUCKET_ENTRY

    def _node_loc(self, nid: int) -> tuple[int, int]:
        return self._node_pages[nid // _NODES_PER_PAGE], (nid % _NODES_PER_PAGE) * _NODE_SLOT

    def node_ref(self, key: str) -> tuple[int, int]:
        """(page, offset) of the key's node slot.

        Callers hold these the way C++ code holds map iterators: reading
        a counter through a stored reference touches only the node page,
        no bucket probe.
        """
        return self._node_loc(self._index[key])

    def hash_of(self, key: str) -> int:
        d = hashlib.blake2b(key.encode(), digest_size=8, key=self._seed_bytes).digest()
        return int.from_bytes(d, "little")

    def bucket_of(self, key: str) -> int:
        return self.hash_of(key) % self.bucket_count

    # -- event-emitting primitives ---------------------------------------

    def _read_bucket(self, b: int) -> None:
        page, off = self._bucket_loc(b)
        self.m.read(page, off, _BUCKET_ENTRY)

    def _write_bucket(self, b: int, head_nid: int) -> None:
        page, off = self._bucket_loc(b)
        self.m.write(page, off, struct.pack("<Q", head_nid + 1))

    def _read_node(self, nid: int) -> None:
        page, off = self._node_loc(nid)
        key = self._nodes[nid][0]
        self.m.read(page, off, _HDR)
        self.m.read(page, off + _HDR, len(key.encode()))

    def _walk(self, b: int, key: str) -> int | None:
        """Probe chain ``b`` for ``key``, emitting reads and compare branches."""
        self.m.exec_page(self.code_find)
        self._read_bucket(b)
        for nid in self._chains[b]:
            self._read_node(nid)
            hit = self._nodes[nid][0] == key
            self.m.branch(taken=not hit)
            if hit:
                return nid
        return None

    # -- public operations ------------------------------------------------

    def insert(self, key: str, delta: int = 1) -> bool:
        """Add ``delta`` to the key's counter, allocating on first sight.

        Returns True when a fresh node was allocated.
        """
        b = self.bucket_of(key)
        nid = self._walk(b, key)
        if nid is not None:
            self.m.exec_page(self.code_hit)
            old_key, old_count = self._nodes[nid]
            self._nodes[nid] = (old_key, old_count + delta)
            page, off = self._node_loc(nid)
            self.m.write(page, off + 8, struct.pack("<Q", old_count + delta))
            return False

        self.m.exec_page(self.code_alloc)
        nid = len(self._nodes)
        if nid % _NODES_PER_PAGE == 0:
            self._node_pages.append(self.m.alloc_page())
        self._nodes.append((key, delta))
        self._index[key] = nid
        page, off = self._node_loc(nid)
        raw = key.encode()
        old_head = self._chains[b][0] if self._chains[b] else -1
        self.m.write(page, off, struct.pack("<QQQ", old_head + 1, delta, len(raw)) + raw)
        self._chains[b].insert(0, nid)
        self._write_bucket(b, nid)
        self.size += 1
        if self.size > self.bucket_count:
            self._rehash()
        return True

    def lookup(self, key: str) -> int | None:
        """Return the key's counter, or None; hit/miss run distinct pages."""
        b = self.bucket_of(key)
        nid = self._walk(b, key)
        if nid is None:
            self.m.exec_page(self.code_miss)
            return None
        self.m.exec_page(self.code_hit)
        page, off = self._node_loc(nid)
        self.m.read(page, off + 8, 8)
        return self._nodes[nid][1]

    def _rehash(self) -> None:
        self.m.exec_page(self.code_rehash)
        new_count = next(p for p in PRIME_LADDER if p >= self.size)
        old_count, old_pages = self.bucket_count, self._bucket_pages
        self.bucket_count = new_count
        self._bucket_pages = self._alloc_buckets(new_count)
        new_chains: list[list[int]] = [[] for _ in range(new_count)]
        # Scan every old bucket, then relink every node into its new chain.
        for b in range(old_count):
            page = old_pages[b // _BUCKETS_PER_PAGE]
            self.m.read(page, (b % _BUCKETS_PER_PAGE) * _BUCKET_ENTRY, _BUCKET_ENTRY)
        for nid, (key, _count) in enumerate(self._nodes):
            self._read_node(nid)
            nb = self.hash_of(key) % new_count
            page, off = self._node_loc(nid)
            old_head = new_chains[nb][0] if new_chains[nb] else -1
            self.m.write(page, off, struct.pack("<Q", old_head + 1))
            new_chains[nb].insert(0, nid)
            self._write_bucket(nb, nid)
        self._chains = new_chains
        self.rehash_count += 1

    # -- inspection (no events) -------------------------------------------

    def counts(self) -> dict[str, int]:
        return {key: count for key, count in self._nodes}
