"""Observation trace data model and its line-oriented text format.

A trace is what the hypervisor-side collector records about one workload
run: page-granular code fetches and data accesses, optional cache-line
sets, ciphertext block diffs, performance-counter snapshots, and window
markers.  The text format is one event per line with a small header, so
traces diff cleanly and can be inspected with standard tools.

Format summary::

    SEED <u64>            # header: collection seed
    NUM <u32>             # header: distinct code pages fetched
    CHANNELS page,cache   # header: channels that were enabled
    CF 1a2b               # code fetch, guest page number in lowercase hex
    MA 141b69 CL 3,60     # data access, optional ascending cache-line list
    MA 141b6a CL -        # data access whose observed cache-line set is empty
    CI 1f BK 7 <32hex> <32hex>   # ciphertext diff: block, before, after
    PN 5 9 2 1 0          # counter snapshot (5 counters)
    MARK START            # window marker (START/STOP)

'#' starts a comment; blank lines are ignored.  Guest page numbers are
40-bit, cache lines 0..63, blocks 0..255.
"""

from __future__ import annotations

import gc
from collections import namedtuple

__all__ = [
    "CodeFetch",
    "DataAccess",
    "CiphertextDiff",
    "CounterSnapshot",
    "Marker",
    "Trace",
    "TraceError",
    "TraceSyntaxError",
    "parse_trace",
    "write_trace",
    "windowed_events",
    "COUNTER_NAMES",
]

GPN_BITS = 40
GPN_LIMIT = 1 << GPN_BITS
LINES_PER_PAGE = 64
BLOCKS_PER_PAGE = 256
BLOCK_BYTES = 16
_COUNTER_LIMIT = 1 << 64

#: Order of the five sampled performance counters in a PN line.
COUNTER_NAMES = ("instructions", "uops", "branches", "taken_branches", "returns")

#: Canonical channel order for the CHANNELS header line.
CHANNEL_ORDER = ("page", "cache", "cipher", "pmc")


class TraceError(ValueError):
    """A trace violates a structural invariant."""


class TraceSyntaxError(TraceError):
    """The text form of a trace could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
        self.message = message

    def __reduce__(self):
        # rebuilt from its own arguments, so that it pickles back from a
        # pool worker
        return type(self), (self.lineno, self.message)


def _check_gpn(gpn: int) -> None:
    if not 0 <= gpn < GPN_LIMIT:
        raise TraceError(f"guest page number out of range: {gpn:#x}")


# Records are immutable tuples.  Each record's ``__new__`` checks and
# converts its fields, and ``_make`` (so also ``_replace``) goes through
# it.  The parser, which checks every field as it reads it, and the
# collector, which only makes in-range fields, build records with
# ``tuple.__new__(cls, fields)`` instead.
_tuple_new = tuple.__new__


class _Validated:
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class CodeFetch(_Validated, namedtuple("CodeFetch", "gpn")):
    """The guest executed from a code page it had not mapped."""

    __slots__ = ()

    def __new__(cls, gpn: int):
        _check_gpn(gpn)
        return _tuple_new(cls, (gpn,))


class DataAccess(_Validated, namedtuple("DataAccess", "gpn lines")):
    """The guest touched a data page absent from the tracked page queue.

    ``lines`` is the set of cache lines observed on the page while it
    stayed mapped, or ``None`` when the cache channel was off.
    """

    __slots__ = ()

    def __new__(cls, gpn: int, lines: frozenset[int] | None = None):
        _check_gpn(gpn)
        if lines is not None:
            lines = frozenset(lines)
            for ln in lines:
                if not 0 <= ln < LINES_PER_PAGE:
                    raise TraceError(f"cache line out of range: {ln}")
        return _tuple_new(cls, (gpn, lines))


class CiphertextDiff(_Validated, namedtuple("CiphertextDiff", "gpn block before after")):
    """One 16-byte block of a page changed ciphertext while mapped."""

    __slots__ = ()

    def __new__(cls, gpn: int, block: int, before: bytes, after: bytes):
        _check_gpn(gpn)
        if not 0 <= block < BLOCKS_PER_PAGE:
            raise TraceError(f"block index out of range: {block}")
        for name, val in (("before", before), ("after", after)):
            if len(val) != BLOCK_BYTES:
                raise TraceError(f"{name} must be {BLOCK_BYTES} bytes, got {len(val)}")
        if before == after:
            raise TraceError("ciphertext diff with identical before/after")
        return _tuple_new(cls, (gpn, block, before, after))


class CounterSnapshot(_Validated, namedtuple("CounterSnapshot", "values")):
    """Performance counters accumulated since the previous emitted event."""

    __slots__ = ()

    def __new__(cls, values: tuple[int, int, int, int, int]):
        values = tuple(values)
        if len(values) != len(COUNTER_NAMES):
            raise TraceError(f"expected {len(COUNTER_NAMES)} counters")
        for v in values:
            if v < 0:
                raise TraceError("counter values must be non-negative")
        return _tuple_new(cls, (values,))


class Marker(_Validated, namedtuple("Marker", "kind")):
    """Boundary of a targeted-collection window: ``kind`` is START or STOP."""

    __slots__ = ()

    def __new__(cls, kind: str):
        if kind not in ("START", "STOP"):
            raise TraceError(f"marker kind must be START or STOP, got {kind!r}")
        return _tuple_new(cls, (kind,))


TraceEvent = CodeFetch | DataAccess | CiphertextDiff | CounterSnapshot | Marker


class Trace(_Validated, namedtuple("Trace", "seed channels events num_code_pages")):
    """An ordered event list plus collection metadata.

    Invariants, enforced at construction:

    * markers alternate START/STOP and are balanced;
    * ``num_code_pages`` equals the number of distinct CodeFetch pages.

    Pass ``num_code_pages=None`` to have it computed.
    """

    __slots__ = ()

    def __new__(cls, seed: int, channels: frozenset[str], events: tuple[TraceEvent, ...],
                num_code_pages: int | None = None):
        channels = frozenset(channels)
        events = tuple(events)
        if not 0 <= seed < (1 << 64):
            raise TraceError(f"seed out of range: {seed}")
        for ch in channels:
            if ch not in CHANNEL_ORDER:
                raise TraceError(f"unknown channel: {ch!r}")
        depth = 0
        cf_pages = set()
        for ev in events:
            if isinstance(ev, Marker):
                depth += 1 if ev.kind == "START" else -1
                if depth not in (0, 1):
                    raise TraceError("markers must alternate START/STOP")
            elif isinstance(ev, CodeFetch):
                cf_pages.add(ev.gpn)
        if depth != 0:
            raise TraceError("unbalanced markers")
        if num_code_pages is None:
            num_code_pages = len(cf_pages)
        elif num_code_pages != len(cf_pages):
            raise TraceError(
                f"num_code_pages={num_code_pages} but trace has "
                f"{len(cf_pages)} distinct code pages"
            )
        return _tuple_new(cls, (seed, channels, events, num_code_pages))


def windowed_events(trace: Trace) -> list[TraceEvent]:
    """Events considered "observed": inside marker windows if markers exist.

    Traces without markers are returned whole.  Marker events themselves
    are excluded from the result; they delimit, they are not observations.
    Events before the first START are outside every window.
    """
    out = []
    marked = inside = False
    for ev in trace.events:
        if type(ev) is Marker:
            marked = True
            inside = ev.kind == "START"
        elif inside:
            out.append(ev)
    return out if marked else list(trace.events)


def write_trace(trace: Trace, placement=None) -> str:
    """Render a trace in canonical text form.

    Header lines come in SEED/NUM/CHANNELS order; the CHANNELS line is
    omitted when no channel is recorded.  Cache-line lists are ascending
    (``-`` for an empty set), hex is lowercase without an 0x prefix.

    With a ``placement`` (a :class:`leaklab.machine.Placement` of an
    observation on a run's machine), ``trace`` is that observation's
    events under the run's seed (``Observation.trace``), and each line is
    written as the run's trace has it: pages renamed and ciphertext diff
    blocks encrypted.  The placed events are never built.
    """
    lines = [f"SEED {trace.seed}", f"NUM {trace.num_code_pages}"]
    if trace.channels:
        chans = ",".join(c for c in CHANNEL_ORDER if c in trace.channels)
        lines.append(f"CHANNELS {chans}")
    append = lines.append
    pages = placement.pages if placement is not None else {}
    # events other than ciphertext diffs repeat often (a phh trace has
    # 5,362 PN lines over 39 values and 3,336 CF lines), so each distinct
    # one is rendered once per call.  Events of different kinds never
    # compare equal: their field counts or field types differ.
    rendered: dict[TraceEvent, str] = {}
    cache_lines: dict[frozenset[int], str] = {}
    ci_heads: dict[int, str] = {}  # page -> "CI <placed page> BK "
    for ev in trace.events:
        if type(ev) is CiphertextDiff:
            head = ci_heads.get(ev.gpn)
            if head is None:
                head = ci_heads[ev.gpn] = f"CI {pages.get(ev.gpn, ev.gpn):x} BK "
            if placement is None:
                before, after = ev.before.hex(), ev.after.hex()
            else:
                before, after = placement.ciphers(*ev)
                before, after = before.hexdigest(), after.hexdigest()
            append(f"{head}{ev.block} {before} {after}")
            continue
        line = rendered.get(ev)
        if line is None:
            cls = type(ev)
            if cls is CounterSnapshot:
                line = "PN " + " ".join(map(str, ev.values))
            elif cls is DataAccess:
                line = f"MA {pages.get(ev.gpn, ev.gpn):x}"
                if ev.lines is not None:
                    cl = cache_lines.get(ev.lines)
                    if cl is None:
                        cl = cache_lines[ev.lines] = ",".join(map(str, sorted(ev.lines))) or "-"
                    line += " CL " + cl
            elif cls is CodeFetch:
                line = f"CF {pages.get(ev.gpn, ev.gpn):x}"
            elif cls is Marker:
                line = f"MARK {ev.kind}"
            else:  # pragma: no cover - event union is closed
                raise TraceError(f"unknown event type: {ev!r}")
            rendered[ev] = line
        append(line)
    return "\n".join(lines) + "\n"


def _parse_gpn(tok: str, lineno: int) -> int:
    if tok != tok.lower() or tok.startswith("0x"):
        raise TraceSyntaxError(lineno, f"page numbers are bare lowercase hex: {tok!r}")
    try:
        gpn = int(tok, 16)
    except ValueError:
        raise TraceSyntaxError(lineno, f"malformed hex page number: {tok!r}") from None
    if not 0 <= gpn < GPN_LIMIT:
        raise TraceSyntaxError(lineno, f"page number out of range: {tok!r}")
    return gpn


def _parse_uint(tok: str, lineno: int, what: str, limit: int) -> int:
    try:
        val = int(tok, 10)
    except ValueError:
        raise TraceSyntaxError(lineno, f"malformed {what}: {tok!r}") from None
    if not 0 <= val < limit:
        raise TraceSyntaxError(lineno, f"{what} out of range: {tok!r}")
    return val



def _parse_cache_lines(tok: str, lineno: int) -> frozenset[int]:
    """An ascending, duplicate-free comma list of cache lines, or ``-``."""
    if tok == "-":
        return frozenset()
    try:
        idxs = list(map(int, tok.split(",")))
    except ValueError:
        idxs = None
    if idxs is not None:
        lines = frozenset(idxs)
        if idxs[0] >= 0 and idxs[-1] < LINES_PER_PAGE and idxs == sorted(lines):
            return lines
    # a bad list: check it again value by value, to name the first fault
    idxs = [_parse_uint(t, lineno, "cache line", LINES_PER_PAGE) for t in tok.split(",")]
    if idxs != sorted(set(idxs)):
        raise TraceSyntaxError(lineno, "cache line list must be ascending and unique")
    return frozenset(idxs)


def parse_trace(text: str) -> Trace:
    """Parse the text form produced by :func:`write_trace`.

    Header lines may appear in any order before the first event; a
    missing SEED defaults to 0, missing CHANNELS to the empty set, and a
    missing NUM is computed from the events.  ``write_trace(parse_trace(s))
    == s`` holds for canonical ``s``.

    Each line is checked once, here, and its event built without
    re-validation; the trace invariants are checked in the same pass.

    Records are acyclic tuples, so the cyclic garbage collector is off
    while the many events are built, and the caller's setting is
    restored on return.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_lines(text)
    finally:
        if enabled:
            gc.enable()


def _parse_lines(text: str) -> Trace:
    seed = 0
    num: int | None = None
    channels: frozenset[str] = frozenset()
    events: list[TraceEvent] = []
    append = events.append
    # PN, CF and MA lines repeat often (a phh trace has about 9k of them
    # but under 1.6k distinct ones); an event is immutable, so a repeated
    # line, as written, is checked and built once and its event shared.
    # Headers and markers never enter it: their meaning depends on where
    # they stand.
    seen: dict[str, TraceEvent] = {}
    # a CI line's bytes rarely repeat, but its page and block tokens do
    ci_gpns: dict[str, int] = {}
    ci_blocks: dict[str, int] = {}
    cf_pages: set[int] = set()
    inside = False
    misnested = False

    for lineno, line in enumerate(text.splitlines(), start=1):
        ev = seen.get(line)
        if ev is not None:
            append(ev)
            continue
        raw = line.split("#", 1)[0] if "#" in line else line
        toks = raw.split()
        if not toks:
            continue
        kind = toks[0]
        ntok = len(toks)

        if kind == "CI":
            if ntok != 6 or toks[2] != "BK":
                raise TraceSyntaxError(lineno, "CI takes page, BK, block, before, after")
            gpn = ci_gpns.get(toks[1])
            if gpn is None:
                gpn = ci_gpns[toks[1]] = _parse_gpn(toks[1], lineno)
            block = ci_blocks.get(toks[3])
            if block is None:
                block = ci_blocks[toks[3]] = _parse_uint(
                    toks[3], lineno, "block index", BLOCKS_PER_PAGE)
            try:
                before = bytes.fromhex(toks[4])
                after = bytes.fromhex(toks[5])
            except ValueError:
                raise TraceSyntaxError(lineno, "malformed ciphertext hex") from None
            if len(before) != BLOCK_BYTES or len(after) != BLOCK_BYTES:
                raise TraceSyntaxError(lineno, "ciphertexts must be 16 bytes")
            if before == after:
                raise TraceSyntaxError(lineno, "ciphertext diff with identical before/after")
            append(_tuple_new(CiphertextDiff, (gpn, block, before, after)))
        elif kind == "PN":
            if ntok != 1 + len(COUNTER_NAMES):
                raise TraceSyntaxError(
                    lineno, f"PN takes {len(COUNTER_NAMES)} counter values"
                )
            try:
                vals = tuple(map(int, toks[1:]))
            except ValueError:
                vals = None
            if vals is None or min(vals) < 0 or max(vals) >= _COUNTER_LIMIT:
                # raises, naming the first bad value
                vals = tuple(
                    _parse_uint(t, lineno, "counter", _COUNTER_LIMIT)
                    for t in toks[1:]
                )
            ev = seen[line] = _tuple_new(CounterSnapshot, (vals,))
            append(ev)
        elif kind == "CF":
            if ntok != 2:
                raise TraceSyntaxError(lineno, "CF takes one page number")
            gpn = _parse_gpn(toks[1], lineno)
            cf_pages.add(gpn)
            ev = seen[line] = _tuple_new(CodeFetch, (gpn,))
            append(ev)
        elif kind == "MA":
            if ntok == 2:
                ev = _tuple_new(DataAccess, (_parse_gpn(toks[1], lineno), None))
            elif ntok == 4 and toks[2] == "CL":
                gpn = _parse_gpn(toks[1], lineno)
                ev = _tuple_new(DataAccess, (gpn, _parse_cache_lines(toks[3], lineno)))
            else:
                raise TraceSyntaxError(lineno, "MA takes a page and optional CL list")
            seen[line] = ev
            append(ev)
        elif kind == "MARK":
            if ntok != 2 or toks[1] not in ("START", "STOP"):
                raise TraceSyntaxError(lineno, "MARK takes START or STOP")
            start = toks[1] == "START"
            if start == inside:
                misnested = True
            inside = start
            append(Marker(toks[1]))
        elif kind in ("SEED", "NUM", "CHANNELS"):
            if events:
                raise TraceSyntaxError(lineno, f"{kind} header after first event")
            if kind == "SEED":
                if ntok != 2:
                    raise TraceSyntaxError(lineno, "SEED takes one value")
                seed = _parse_uint(toks[1], lineno, "seed", 1 << 64)
            elif kind == "NUM":
                if ntok != 2:
                    raise TraceSyntaxError(lineno, "NUM takes one value")
                num = _parse_uint(toks[1], lineno, "code page count", 1 << 32)
            else:
                if ntok != 2:
                    raise TraceSyntaxError(lineno, "CHANNELS takes one comma list")
                names = toks[1].split(",")
                for name in names:
                    if name not in CHANNEL_ORDER:
                        raise TraceSyntaxError(lineno, f"unknown channel: {name!r}")
                channels = frozenset(names)
        else:
            raise TraceSyntaxError(lineno, f"unknown event kind: {kind!r}")

    # the invariants Trace checks, in its order
    if misnested:
        raise TraceError("invalid trace: markers must alternate START/STOP")
    if inside:
        raise TraceError("invalid trace: unbalanced markers")
    if num is None:
        num = len(cf_pages)
    elif num != len(cf_pages):
        raise TraceError(
            f"invalid trace: num_code_pages={num} but trace has "
            f"{len(cf_pages)} distinct code pages"
        )
    return _tuple_new(Trace, (seed, channels, tuple(events), num))

