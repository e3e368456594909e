"""Private-retrieval workloads over a fixed record array.

``LinearScanPir`` is the oblivious baseline: every query reads the whole
database and writes a constant-time-selected value into one accumulator
block per iteration, so the page- and cache-level shape of a query is a
function of the database size alone.  ``HashMapPir`` is the naive
contrast that walks a hash map chain and branches on hit versus miss.
"""

from __future__ import annotations

import struct

from ..machine import SimMachine
from .hashmap import SimHashMap

RECORD_BYTES = 64
_RECORDS_PER_PAGE = 4096 // RECORD_BYTES


def make_db_values(n: int, zero_value_indices=()) -> list[bytes]:
    """Deterministic nonzero 64-byte records, zeroed at the given indices."""
    zeros = set(int(i) for i in zero_value_indices)
    out = []
    for i in range(n):
        if i in zeros:
            out.append(b"\x00" * RECORD_BYTES)
        else:
            out.append(struct.pack("<QQ", i + 1, i * 2654435761 % 2**64) * 4)
    return out


class LinearScanPir:
    """Full-scan retrieval; trace shape depends only on the record count."""

    def __init__(self, db_values: list[bytes], queries: list[int]):
        if any(len(v) != RECORD_BYTES for v in db_values):
            raise ValueError("records must be exactly 64 bytes")
        if any(not 0 <= q < len(db_values) for q in queries):
            raise ValueError("query index out of range")
        self.db = list(db_values)
        self.queries = list(queries)

    def __call__(self, m: SimMachine) -> list[bytes]:
        code_scan = m.alloc_page()
        code_out = m.alloc_page()
        n_pages = -(-len(self.db) // _RECORDS_PER_PAGE)
        db_pages = m.alloc_pages(n_pages)
        acc_page = m.alloc_page()
        out_page = m.alloc_page()

        for i, value in enumerate(self.db):
            m.write(db_pages[i // _RECORDS_PER_PAGE], (i % _RECORDS_PER_PAGE) * RECORD_BYTES, value)

        responses = []
        acc = b"\x00" * RECORD_BYTES
        with m.marked():
            for q in self.queries:
                m.exec_page(code_scan)
                acc = b"\x00" * RECORD_BYTES
                m.write(acc_page, 0, acc)
                for i in range(len(self.db)):
                    m.exec_page(code_scan)
                    m.read(db_pages[i // _RECORDS_PER_PAGE],
                           (i % _RECORDS_PER_PAGE) * RECORD_BYTES, RECORD_BYTES)
                    # Constant-time select: the accumulator block is written
                    # every iteration whether or not this is the hit.
                    if i == q:
                        acc = self.db[i]
                    m.write(acc_page, 0, acc)
                    m.step()
                m.exec_page(code_out)
                m.read(acc_page, 0, RECORD_BYTES)
                m.write(out_page, (len(responses) % 64) * RECORD_BYTES, acc)
                responses.append(acc)
                m.step()
        return responses


class HashMapPir:
    """Naive keyed retrieval; hit and miss take different code paths."""

    def __init__(self, keys: list[str], queries: list[str], seed: int = 0):
        self.keys = list(keys)
        self.queries = list(queries)
        self.seed = int(seed)

    def __call__(self, m: SimMachine) -> list[int | None]:
        hmap = SimHashMap(m, hash_seed=self.seed)
        for i, key in enumerate(self.keys):
            hmap.insert(key, delta=i + 1)
            m.step()
        results = []
        with m.marked():
            for q in self.queries:
                results.append(hmap.lookup(q))
                m.step()
        return results
