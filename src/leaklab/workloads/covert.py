"""Single-block covert channel through the ciphertext-diff stream.

The sender dedicates one encoding page and transmits one byte per step:
it writes a fresh counter value into block ``b`` of the encoding page
where ``b`` is the byte value, then touches four scratch pages so the
FIFO data queue evicts the encoding page exactly once per byte.  The
receiver recovers each byte from the block index of the single
ciphertext diff between consecutive faults of the encoding page.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from ..machine import SimMachine
from ..trace import CiphertextDiff, DataAccess, Trace, windowed_events


@dataclass(frozen=True)
class SecretMessage:
    payload: bytes
    repetitions: int = 1

    def __post_init__(self):
        if not self.payload:
            raise ValueError("payload must be nonempty")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")

    @property
    def stream(self) -> bytes:
        return self.payload * self.repetitions


class CovertDecodeError(ValueError):
    def __init__(self, position: int, reason: str):
        super().__init__(f"byte {position}: {reason}")
        self.position = position
        self.reason = reason


class CovertSender:
    """Workload that modulates the diff position of one encoding page."""

    def __init__(self, message: SecretMessage):
        self.message = message

    def __call__(self, m: SimMachine) -> int:
        code = m.alloc_page()
        enc = m.alloc_page()
        scratch = m.alloc_pages(4)
        counter = 1
        with m.marked():
            for value in self.message.stream:
                m.exec_page(code)
                m.write(enc, value * 16, struct.pack("<QQ", counter, 0xC0DE))
                m.write(scratch[0], 0, struct.pack("<Q", counter))
                m.write(scratch[1], 16, struct.pack("<Q", counter ^ 0xFF))
                m.read(scratch[2], 0, 8)
                m.read(scratch[3], 0, 8)
                m.step()
                counter += 1
        return counter - 1


def covert_decode(trace: Trace) -> bytes:
    """Recover the transmitted byte stream from a receiver-side trace.

    The encoding page is identified as the first data page faulting in
    the marked window; each of its fault-to-fault windows must contain
    exactly one single-block diff of that page.  Raises
    :class:`CovertDecodeError` at the first byte position violating the
    discipline.
    """
    events = windowed_events(trace)
    enc = None
    for ev in events:
        if isinstance(ev, DataAccess):
            enc = ev.gpn
            break
    if enc is None:
        raise CovertDecodeError(0, "no data access events in window")

    windows: list[list[int]] = []
    for ev in events:
        if isinstance(ev, DataAccess) and ev.gpn == enc:
            windows.append([])
        elif isinstance(ev, CiphertextDiff) and ev.gpn == enc and windows:
            windows[-1].append(ev.block)

    out = bytearray()
    for pos, blocks in enumerate(windows):
        if len(blocks) != 1:
            kind = "no diff" if not blocks else f"{len(blocks)} diffs"
            raise CovertDecodeError(pos, f"expected one diff block, got {kind}")
        out.append(blocks[0])
    return bytes(out)
