"""The line-by-line trace parser, kept as a differential oracle.

This is ``leaklab.trace.parse_trace`` as it was before the parser checked
each field once and built events without re-validation: every event here
goes through its validating constructor and the trace through
``Trace.__post_init__``.  The fast parser must agree with it on every
input: the same ``Trace``, or the same exception class, line number and
message.  It also reads ``CL -``, the form of an empty cache-line set,
which the format gained after the fast parser.
"""

from leaklab.trace import (
    BLOCK_BYTES,
    BLOCKS_PER_PAGE,
    CHANNEL_ORDER,
    COUNTER_NAMES,
    GPN_LIMIT,
    LINES_PER_PAGE,
    CiphertextDiff,
    CodeFetch,
    CounterSnapshot,
    DataAccess,
    Marker,
    Trace,
    TraceError,
    TraceEvent,
    TraceSyntaxError,
)


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


def oracle_parse(text: str) -> Trace:
    """Parse the text form produced by :func:`write_trace`.

    Header lines may appear in any order before the first event; a
    missing SEED defaults to 0, missing CHANNELS to the empty set, and a
    missing NUM is computed from the events.  ``write_trace(parse_trace(s))
    == s`` holds for canonical ``s``.
    """
    seed = 0
    num: int | None = None
    channels: frozenset[str] = frozenset()
    events: list[TraceEvent] = []
    header_done = False

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        toks = line.split()
        kind = toks[0]

        if kind in ("SEED", "NUM", "CHANNELS"):
            if header_done:
                raise TraceSyntaxError(lineno, f"{kind} header after first event")
            if kind == "SEED":
                if len(toks) != 2:
                    raise TraceSyntaxError(lineno, "SEED takes one value")
                seed = _parse_uint(toks[1], lineno, "seed", 1 << 64)
            elif kind == "NUM":
                if len(toks) != 2:
                    raise TraceSyntaxError(lineno, "NUM takes one value")
                num = _parse_uint(toks[1], lineno, "code page count", 1 << 32)
            else:
                if len(toks) != 2:
                    raise TraceSyntaxError(lineno, "CHANNELS takes one comma list")
                names = toks[1].split(",")
                for name in names:
                    if name not in CHANNEL_ORDER:
                        raise TraceSyntaxError(lineno, f"unknown channel: {name!r}")
                channels = frozenset(names)
            continue

        header_done = True
        try:
            if kind == "CF":
                if len(toks) != 2:
                    raise TraceSyntaxError(lineno, "CF takes one page number")
                events.append(CodeFetch(_parse_gpn(toks[1], lineno)))
            elif kind == "MA":
                if len(toks) == 2:
                    events.append(DataAccess(_parse_gpn(toks[1], lineno)))
                elif len(toks) == 4 and toks[2] == "CL" and toks[3] == "-":
                    events.append(DataAccess(_parse_gpn(toks[1], lineno), frozenset()))
                elif len(toks) == 4 and toks[2] == "CL":
                    gpn = _parse_gpn(toks[1], lineno)
                    idxs = [
                        _parse_uint(t, lineno, "cache line", LINES_PER_PAGE)
                        for t in toks[3].split(",")
                    ]
                    if idxs != sorted(set(idxs)):
                        raise TraceSyntaxError(
                            lineno, "cache line list must be ascending and unique"
                        )
                    events.append(DataAccess(gpn, frozenset(idxs)))
                else:
                    raise TraceSyntaxError(lineno, "MA takes a page and optional CL list")
            elif kind == "CI":
                if len(toks) != 6 or toks[2] != "BK":
                    raise TraceSyntaxError(
                        lineno, "CI takes page, BK, block, before, after"
                    )
                gpn = _parse_gpn(toks[1], lineno)
                block = _parse_uint(toks[3], lineno, "block index", BLOCKS_PER_PAGE)
                try:
                    before = bytes.fromhex(toks[4])
                    after = bytes.fromhex(toks[5])
                except ValueError:
                    raise TraceSyntaxError(lineno, "malformed ciphertext hex") from None
                if len(before) != BLOCK_BYTES or len(after) != BLOCK_BYTES:
                    raise TraceSyntaxError(lineno, "ciphertexts must be 16 bytes")
                events.append(CiphertextDiff(gpn, block, before, after))
            elif kind == "PN":
                if len(toks) != 1 + len(COUNTER_NAMES):
                    raise TraceSyntaxError(
                        lineno, f"PN takes {len(COUNTER_NAMES)} counter values"
                    )
                vals = tuple(
                    _parse_uint(t, lineno, "counter", 1 << 64) for t in toks[1:]
                )
                events.append(CounterSnapshot(vals))
            elif kind == "MARK":
                if len(toks) != 2 or toks[1] not in ("START", "STOP"):
                    raise TraceSyntaxError(lineno, "MARK takes START or STOP")
                events.append(Marker(toks[1]))
            else:
                raise TraceSyntaxError(lineno, f"unknown event kind: {kind!r}")
        except TraceError as exc:
            if isinstance(exc, TraceSyntaxError):
                raise
            raise TraceSyntaxError(lineno, str(exc)) from None

    try:
        return Trace(seed=seed, channels=channels, events=tuple(events), num_code_pages=num)
    except TraceError as exc:
        raise TraceError(f"invalid trace: {exc}") from None
