"""Shared fixtures and fuzz generators for the test suite."""

import copy
import os
import pickle
from pathlib import Path

import numpy as np
import pytest

# pytest puts src/ on sys.path (pyproject's pythonpath); the CLI and
# import tests run child interpreters, which find leaklab the same way
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [_SRC, os.environ.get("PYTHONPATH")]))

from leaklab.machine import CollectorPolicy
from leaklab.trace import (
    CiphertextDiff,
    CodeFetch,
    CounterSnapshot,
    DataAccess,
    Marker,
    Trace,
    TraceError,
)


def random_trace(rng: np.random.Generator, max_events: int = 60,
                 channels=("page", "cache", "cipher", "pmc")) -> Trace:
    """Structurally valid random trace: balanced markers, in-range fields."""
    channels = frozenset(channels)
    n = int(rng.integers(0, max_events + 1))
    events = []
    inside = False
    # keep page numbers small-ish so collisions exercise dedup code paths
    pages = rng.integers(0, 50, size=8).tolist() + [0, 1, (1 << 40) - 1]
    for _ in range(n):
        kind = rng.integers(0, 6)
        if kind == 0:
            events.append(CodeFetch(int(rng.choice(pages))))
        elif kind == 1:
            if rng.random() < 0.3 or "cache" not in channels:
                events.append(DataAccess(int(rng.choice(pages))))
            else:
                k = int(rng.integers(1, 6))
                lines = frozenset(int(x) for x in rng.integers(0, 64, size=k))
                events.append(DataAccess(int(rng.choice(pages)), lines))
        elif kind == 2:
            before = bytes(rng.integers(0, 256, size=16, dtype=np.uint8))
            after = bytearray(before)
            after[int(rng.integers(0, 16))] ^= 0xFF
            events.append(CiphertextDiff(int(rng.choice(pages)),
                                         int(rng.integers(0, 256)),
                                         before, bytes(after)))
        elif kind == 3:
            events.append(CounterSnapshot(tuple(
                int(x) for x in rng.integers(0, 1000, size=5))))
        else:
            events.append(Marker("STOP" if inside else "START"))
            inside = not inside
    if inside:
        events.append(Marker("STOP"))
    return Trace(seed=int(rng.integers(0, 2**64, dtype=np.uint64)),
                 channels=channels, events=tuple(events))


# One out-of-range field per record kind.
OUT_OF_RANGE = {
    CodeFetch: ("gpn", -1),
    DataAccess: ("lines", frozenset({64})),
    CiphertextDiff: ("block", 256),
    CounterSnapshot: ("values", (0, 0, 0, 0, -1)),
    Marker: ("kind", "MID"),
    Trace: ("seed", 1 << 64),
}


def assert_same_text(got: str, want: str) -> None:
    """``got == want``, naming the first line that differs (rendering a
    diff of two large traces would take minutes)."""
    if got != want:
        a, b = got.splitlines(), want.splitlines()
        i = next((i for i, pair in enumerate(zip(a, b)) if pair[0] != pair[1]),
                 min(len(a), len(b)))
        pytest.fail(f"texts differ at line {i + 1}: {a[i:i + 1]} != {b[i:i + 1]}")


def assert_sound_records(trace: Trace) -> None:
    """The trace and each distinct event behave as immutable validated records.

    Each survives pickle and ``copy.copy``, equals and hashes like its
    rebuild through the validating constructor, rejects attribute
    assignment, and fails ``_make`` and ``_replace`` with an out-of-range
    field.  No two events of different kinds compare equal.
    """
    events = set(trace.events)
    assert len(events) == len({(type(ev), ev) for ev in events})
    for rec in [trace, *events]:
        cls = type(rec)
        for twin in (pickle.loads(pickle.dumps(rec)), copy.copy(rec), cls(*rec)):
            assert type(twin) is cls and twin == rec and hash(twin) == hash(rec)
        with pytest.raises(AttributeError):
            setattr(rec, rec._fields[0], getattr(rec, rec._fields[0]))
        with pytest.raises(AttributeError):
            rec.extra = 1
        name, bad = OUT_OF_RANGE[cls]
        with pytest.raises(TraceError):
            rec._replace(**{name: bad})
        fields = list(rec)
        fields[rec._fields.index(name)] = bad
        with pytest.raises(TraceError):
            cls._make(fields)


@pytest.fixture
def rng():
    return np.random.default_rng(20260815)


@pytest.fixture
def full_policy():
    return CollectorPolicy(channels=frozenset(["page", "cache", "cipher", "pmc"]),
                           targeted=False)


@pytest.fixture
def targeted_policy():
    return CollectorPolicy(channels=frozenset(["page", "cache", "cipher", "pmc"]),
                           targeted=True)
