"""Tree-based oblivious storage over simulated guest pages.

Standard recursive-free layout: a complete binary tree of buckets, four
128-byte slots per bucket (64-byte encrypted payload, 16-byte nonce, 48
bytes reserved), eight buckets per page.  The position map and stash are
client-side state outside guest memory, so a trace sees only the bucket
pages.  Every access reads one root-to-leaf path slot by slot, remaps
the block, and writes the path back with re-encryption.

``zero_block_flaw`` reproduces a re-encryption shortcut: all-zero
payloads are stored raw with a zero nonce instead of under a fresh
nonce, so slots holding zeros keep byte-identical ciphertext across
writes and drop out of the cipher channel.
"""

from __future__ import annotations

import hashlib
from collections.abc import Iterable

from ..machine import SimMachine

Z = 4  # slots per bucket
_SLOT = 128
_PAYLOAD = 64
_NONCE = 16
_BUCKET_BYTES = Z * _SLOT
_BUCKETS_PER_PAGE = 4096 // _BUCKET_BYTES
_STASH_LIMIT = 1000  # an access that leaves more blocks in the stash fails


class PathOram:
    """Path-style ORAM; ``access`` is the single read/write entry point."""

    def __init__(self, machine: SimMachine, num_blocks: int, *,
                 zero_block_flaw: bool = False, seed: int = 0,
                 height: int | None = None):
        if num_blocks < 1:
            raise ValueError("need at least one block")
        import numpy as np

        self.m = machine
        self.flaw = bool(zero_block_flaw)
        self.rng = np.random.default_rng([int(seed) & (2**63 - 1), 0x08A3])
        self._key = b"oram" + int(seed).to_bytes(8, "little", signed=True)
        if height is None:
            height = max(1, (num_blocks - 1).bit_length())
        self.height = height
        self.leaves = 1 << height
        self.n_buckets = (1 << (height + 1)) - 1
        self.num_blocks = num_blocks
        self.stash: dict[int, bytes] = {}
        self.stash_peak = 0
        self.pos = {i: int(self.rng.integers(self.leaves)) for i in range(num_blocks)}
        # slot metadata mirrors the encrypted headers: (block_id | None, leaf)
        self._meta: list[list[int | None]] = [[None] * Z for _ in range(self.n_buckets)]
        self._pages = machine.alloc_pages(-(-self.n_buckets // _BUCKETS_PER_PAGE))
        self.code_path = machine.alloc_page()

    # -- tree geometry ----------------------------------------------------

    def _path(self, leaf: int) -> list[int]:
        """Bucket ids (1-based heap order) from root down to ``leaf``."""
        node = self.leaves + leaf
        chain = []
        while node >= 1:
            chain.append(node)
            node >>= 1
        return chain[::-1]

    def _bucket_loc(self, bucket: int) -> tuple[int, int]:
        idx = bucket - 1
        return self._pages[idx // _BUCKETS_PER_PAGE], (idx % _BUCKETS_PER_PAGE) * _BUCKET_BYTES

    # -- slot crypto -------------------------------------------------------

    def _keystream(self, nonce: bytes) -> bytes:
        return hashlib.blake2b(nonce, digest_size=_PAYLOAD, key=self._key).digest()

    def _xor_keystream(self, data: bytes, nonce: bytes) -> bytes:
        """``data`` XOR the nonce's keystream, on 512-bit integers."""
        ks = self._keystream(nonce)
        return (int.from_bytes(data, "little")
                ^ int.from_bytes(ks, "little")).to_bytes(_PAYLOAD, "little")

    def _seal_all(self, payloads: list[bytes]) -> list[bytes]:
        """Seal ``payloads`` in order under fresh nonces.

        The nonces come from one draw: numpy fills uint8 draws from
        buffered 32-bit words and a nonce is four whole words, so the bytes
        and the generator state after the draw are those of one draw per
        seal.  With the flaw, a zero payload is stored raw and draws
        nothing.
        """
        import numpy as np

        zero = b"\x00" * _PAYLOAD
        drawn = [not (self.flaw and p == zero) for p in payloads]
        nonces = self.rng.integers(0, 256, size=(sum(drawn), _NONCE),
                                   dtype=np.uint8).tobytes()
        sealed = []
        at = 0
        for payload, draws in zip(payloads, drawn):
            if not draws:
                sealed.append(payload + b"\x00" * _NONCE)
                continue
            nonce = nonces[at:at + _NONCE]
            at += _NONCE
            if nonce == b"\x00" * _NONCE:
                nonce = b"\x01" + nonce[1:]
            sealed.append(self._xor_keystream(payload, nonce) + nonce)
        return sealed

    def _open(self, slot_bytes: bytes) -> bytes:
        ct, nonce = slot_bytes[:_PAYLOAD], slot_bytes[_PAYLOAD:_PAYLOAD + _NONCE]
        if nonce == b"\x00" * _NONCE:
            return ct
        return self._xor_keystream(ct, nonce)

    # -- bucket IO (event-emitting) -----------------------------------------

    def _read_bucket(self, bucket: int) -> None:
        page, off = self._bucket_loc(bucket)
        for s in range(Z):
            raw = self.m.read(page, off + s * _SLOT, _PAYLOAD + _NONCE)
            bid = self._meta[bucket - 1][s]
            if bid is not None:
                self.stash[bid] = self._open(raw)
                self._meta[bucket - 1][s] = None
        self.m.step()

    def _fill_bucket(self, bucket: int, chosen: list[int]) -> list[bytes]:
        """Move ``chosen`` from the stash into ``bucket``'s slots; returns
        the Z slot payloads, zero-padded, for :meth:`_write_out`."""
        payloads = []
        for s in range(Z):
            if s < len(chosen):
                bid = chosen[s]
                payloads.append(self.stash.pop(bid))
                self._meta[bucket - 1][s] = bid
            else:
                payloads.append(b"\x00" * _PAYLOAD)
                self._meta[bucket - 1][s] = None
        return payloads

    def _write_out(self, buckets: Iterable[int], payloads: list[bytes]) -> None:
        """Seal the filled slots of ``buckets`` and write them in order."""
        sealed = iter(self._seal_all(payloads))
        for bucket in buckets:
            page, off = self._bucket_loc(bucket)
            for s in range(Z):
                self.m.write(page, off + s * _SLOT, next(sealed))
            self.m.step()

    # -- public API ----------------------------------------------------------

    def load(self, values: list[bytes]) -> None:
        """Bulk initial placement plus one full-tree write-out."""
        if len(values) != self.num_blocks:
            raise ValueError("value count mismatch")
        if any(len(v) != _PAYLOAD for v in values):
            raise ValueError("payloads must be exactly 64 bytes")
        free = {b: Z for b in range(1, self.n_buckets + 1)}
        placed: dict[int, list[int]] = {}
        for bid in range(self.num_blocks):
            for bucket in reversed(self._path(self.pos[bid])):
                if free[bucket]:
                    free[bucket] -= 1
                    placed.setdefault(bucket, []).append(bid)
                    break
            else:
                self.stash[bid] = values[bid]
        buckets = range(1, self.n_buckets + 1)
        payloads = []
        for bucket in buckets:
            chosen = placed.get(bucket, [])
            for bid in chosen:
                self.stash[bid] = values[bid]
            payloads += self._fill_bucket(bucket, chosen)
        self._write_out(buckets, payloads)
        self.stash_peak = max(self.stash_peak, len(self.stash))

    def access(self, op: str, idx: int, new_value: bytes | None = None) -> bytes:
        if op not in ("read", "write"):
            raise ValueError("op must be 'read' or 'write'")
        if not 0 <= idx < self.num_blocks:
            raise IndexError("block index out of range")
        self.m.exec_page(self.code_path)
        leaf = self.pos[idx]
        self.pos[idx] = int(self.rng.integers(self.leaves))
        path = self._path(leaf)
        for bucket in path:
            self._read_bucket(bucket)
        result = self.stash.get(idx, b"\x00" * _PAYLOAD)
        if op == "write":
            if new_value is None or len(new_value) != _PAYLOAD:
                raise ValueError("write needs a 64-byte value")
            self.stash[idx] = new_value
        else:
            self.stash.setdefault(idx, result)
        payloads = []
        for depth in range(len(path) - 1, -1, -1):
            bucket = path[depth]
            chosen = []
            for bid in sorted(self.stash):
                if len(chosen) == Z:
                    break
                if self._path(self.pos[bid])[depth] == bucket:
                    chosen.append(bid)
            payloads += self._fill_bucket(bucket, chosen)
        self._write_out(path[::-1], payloads)
        self.stash_peak = max(self.stash_peak, len(self.stash))
        if len(self.stash) > _STASH_LIMIT:
            raise RuntimeError(f"stash overflow: {len(self.stash)} blocks")
        return result


class OramPir:
    """Retrieval workload answering index queries through a PathOram."""

    def __init__(self, db_values: list[bytes], queries: list[int],
                 zero_block_flaw: bool = False, seed: int = 0,
                 height: int | None = None):
        if any(not 0 <= q < len(db_values) for q in queries):
            raise ValueError("query index out of range")
        self.db = list(db_values)
        self.queries = list(queries)
        self.flaw = bool(zero_block_flaw)
        self.seed = int(seed)
        self.height = height

    def __call__(self, m: SimMachine) -> list[bytes]:
        oram = PathOram(m, len(self.db), zero_block_flaw=self.flaw,
                        seed=self.seed, height=self.height)
        oram.load(self.db)
        responses = []
        with m.marked():
            for q in self.queries:
                responses.append(oram.access("read", q))
        return responses
