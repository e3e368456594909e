"""Trace data model and text format."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leaklab.features import extract_features
from leaklab.trace import (
    CiphertextDiff,
    CodeFetch,
    CounterSnapshot,
    DataAccess,
    Marker,
    Trace,
    TraceError,
    TraceSyntaxError,
    parse_trace,
    windowed_events,
    write_trace,
)
from conftest import assert_sound_records, random_trace
from oracle_features import _window as oracle_window
from oracle_parse import oracle_parse


def test_example_text_round_trip():
    text = (
        "SEED 7\n"
        "NUM 2\n"
        "CHANNELS page,cache,cipher,pmc\n"
        "CF 1a2b\n"
        "MA 141b69 CL 3,60\n"
        "CI 1f BK 7 " + "00" * 16 + " " + "ff" * 16 + "\n"
        "PN 5 9 2 1 0\n"
        "MARK START\n"
        "CF ffffffffff\n"
        "MA 0\n"
        "MARK STOP\n"
    )
    tr = parse_trace(text)
    assert tr.seed == 7
    assert tr.num_code_pages == 2
    assert tr.channels == frozenset(["page", "cache", "cipher", "pmc"])
    assert tr.events[0] == CodeFetch(0x1A2B)
    assert tr.events[1] == DataAccess(0x141B69, frozenset([3, 60]))
    assert tr.events[2].block == 7 and tr.events[2].before == b"\x00" * 16
    assert tr.events[3] == CounterSnapshot((5, 9, 2, 1, 0))
    assert write_trace(tr) == text


def test_empty_cache_line_set_text_form():
    tr = Trace(seed=1, channels=frozenset(["page", "cache"]),
               events=(DataAccess(0x1F, frozenset()), DataAccess(0x20, frozenset([3]))))
    text = write_trace(tr)
    assert text.endswith("MA 1f CL -\nMA 20 CL 3\n")
    assert parse_trace(text) == oracle_parse(text) == tr
    for bad in ("MA 1 CL -,3\n", "MA 1 CL --\n", "MA 1 CL 3,-\n"):
        with pytest.raises(TraceSyntaxError):
            parse_trace(bad)
        with pytest.raises(TraceSyntaxError):
            oracle_parse(bad)


def test_comments_and_blank_lines_ignored():
    tr = parse_trace("# hello\n\nSEED 3\nCF a # trailing\n\n")
    assert tr.seed == 3 and tr.events == (CodeFetch(0xA),)


def test_headers_optional_and_num_computed():
    tr = parse_trace("CF a\nCF a\nCF b\n")
    assert tr.seed == 0
    assert tr.num_code_pages == 2
    assert tr.channels == frozenset()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_round_trip_identity_fuzz(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    tr = random_trace(np.random.default_rng(seed))
    text = write_trace(tr)
    tr2 = parse_trace(text)
    assert tr2 == tr
    assert write_trace(tr2) == text
    assert_sound_records(tr)
    assert_sound_records(tr2)


def test_stats_against_rescan(rng):
    # the F1 and F2 counts must agree with an independent second pass
    # over the windowed events
    for _ in range(50):
        tr = random_trace(rng)
        evs = windowed_events(tr)
        cf = [e for e in evs if isinstance(e, CodeFetch)]
        da = [e for e in evs if isinstance(e, DataAccess)]
        ci = [e for e in evs if isinstance(e, CiphertextDiff)]
        rescan = [
            len(cf), len({e.gpn for e in cf}),
            len(da), len({e.gpn for e in da}),
            sum(len(e.lines) for e in da if e.lines),
            len({(e.gpn, ln) for e in da if e.lines for ln in e.lines}),
            len(ci), len({(e.gpn, e.block) for e in ci}),
        ]
        assert extract_features(tr, ["F1", "F2"]).values.tolist() == rescan


def test_windowed_events_without_markers_is_whole_trace(rng):
    tr = Trace(seed=0, channels=frozenset(["page"]),
               events=(CodeFetch(1), DataAccess(2)))
    assert windowed_events(tr) == list(tr.events)


def test_windowed_events_excludes_markers_and_outside():
    tr = Trace(seed=0, channels=frozenset(["page"]), events=(
        CodeFetch(1),
        Marker("START"), CodeFetch(2), Marker("STOP"),
        CodeFetch(3),
        Marker("START"), DataAccess(4), Marker("STOP"),
    ))
    evs = windowed_events(tr)
    assert evs == [CodeFetch(2), DataAccess(4)]


def test_windowed_events_matches_two_pass_oracle(rng):
    for _ in range(300):
        tr = random_trace(rng)
        assert windowed_events(tr) == oracle_window(tr)
    empty = Trace(seed=0, channels=frozenset(["page"]), events=(
        CodeFetch(1), Marker("START"), Marker("STOP"), CodeFetch(2)))
    assert windowed_events(empty) == []


def test_invariants_rejected():
    with pytest.raises(TraceError):
        Trace(seed=0, channels=frozenset(), events=(Marker("START"),))
    with pytest.raises(TraceError):
        Trace(seed=0, channels=frozenset(), events=(Marker("STOP"), Marker("START")))
    with pytest.raises(TraceError):
        Trace(seed=0, channels=frozenset(), events=(CodeFetch(1),), num_code_pages=5)
    with pytest.raises(TraceError):
        Trace(seed=0, channels=frozenset(["bogus"]), events=())
    with pytest.raises(TraceError):
        DataAccess(5, frozenset([64]))
    with pytest.raises(TraceError):
        CiphertextDiff(1, 0, b"\x00" * 16, b"\x00" * 16)
    with pytest.raises(TraceError):
        CiphertextDiff(1, 256, b"\x00" * 16, b"\x01" * 16)
    with pytest.raises(TraceError):
        CounterSnapshot((1, 2, 3))
    with pytest.raises(TraceError):
        Marker("END")
    with pytest.raises(TraceError):
        CodeFetch(1 << 40)


@pytest.mark.parametrize("bad,lineno", [
    ("CF xyz\n", 1),
    ("SEED 1\nCF 0X1\n", 2),
    ("CF a\nMA 1 CL 3,2\n", 2),  # not ascending
    ("MA 1 CL 3,3\n", 1),        # duplicate
    ("CI 1 BK 7 00 ff\n", 1),
    ("PN 1 2 3\n", 1),
    ("MARK MIDDLE\n", 1),
    ("WAT 1\n", 1),
    ("CF a\nSEED 2\n", 2),       # header after event
    ("MA fffffffffff\n", 1),     # gpn too wide
    ("CI 1 BK 7 " + "ab" * 16 + " " + "ab" * 16 + "\n", 1),  # nothing changed
])
def test_syntax_errors_carry_line_numbers(bad, lineno):
    with pytest.raises(TraceSyntaxError) as exc:
        parse_trace(bad)
    assert exc.value.lineno == lineno


def test_unbalanced_markers_in_text_rejected():
    with pytest.raises(TraceError):
        parse_trace("MARK START\nCF a\n")


def _outcome(parse, text):
    """A parse's result, or its exception as (class, line number, message)."""
    try:
        return parse(text)
    except Exception as exc:  # noqa: BLE001 - any divergence is a finding
        return type(exc), getattr(exc, "lineno", None), str(exc)


def test_parse_matches_oracle_on_fuzzed_traces(rng):
    for _ in range(300):
        text = write_trace(random_trace(rng, max_events=80))
        assert _outcome(parse_trace, text) == _outcome(oracle_parse, text)


# characters a corrupted line may gain: digits, hex, the separators and
# prefixes the format gives meaning to, and a few that int() tolerates
_NOISE = "0123456789abcdefABCDEFxX,#-+_ \t"


def _mutate(lines, rng):
    lines = list(lines)
    if not lines:
        return lines
    i = int(rng.integers(0, len(lines)))
    op = int(rng.integers(0, 8))
    line = lines[i]
    if op == 0:                                   # drop the line
        del lines[i]
    elif op == 7:                                 # swap it with another
        j = int(rng.integers(0, len(lines)))
        lines[i], lines[j] = lines[j], line
    elif op == 1:                                 # duplicate it
        lines.insert(i, line)
    elif op == 2:                                 # comment it out
        lines[i] = "# " + line
    elif op == 3 and line:                        # replace one character
        j = int(rng.integers(0, len(line)))
        lines[i] = line[:j] + _NOISE[int(rng.integers(0, len(_NOISE)))] + line[j + 1:]
    elif op == 4:                                 # insert one character
        j = int(rng.integers(0, len(line) + 1))
        lines[i] = line[:j] + _NOISE[int(rng.integers(0, len(_NOISE)))] + line[j:]
    elif op == 5 and line:                        # cut the line short
        lines[i] = line[:int(rng.integers(0, len(line)))]
    else:                                         # drop or repeat a token
        toks = line.split()
        if toks:
            k = int(rng.integers(0, len(toks)))
            toks[k:k + 1] = [] if rng.random() < 0.5 else [toks[k], toks[k]]
            lines[i] = " ".join(toks)
    return lines


def test_parse_matches_oracle_on_mutated_texts(rng):
    failures = 0
    for _ in range(1500):
        lines = write_trace(random_trace(rng, max_events=40)).splitlines()
        for _ in range(int(rng.integers(1, 4))):
            lines = _mutate(lines, rng)
        text = "\n".join(lines) + "\n"
        expected = _outcome(oracle_parse, text)
        assert _outcome(parse_trace, text) == expected, text
        failures += not isinstance(expected, Trace)
    # the mutations must reach the error paths, not only valid texts
    assert failures > 500


@pytest.mark.parametrize("enabled", [True, False])
def test_parse_runs_without_cyclic_collection(rng, monkeypatch, enabled):
    import gc

    import leaklab.trace as trace_mod

    seen = []
    parse = trace_mod._parse_lines
    monkeypatch.setattr(trace_mod, "_parse_lines",
                        lambda text: seen.append(gc.isenabled()) or parse(text))
    tr = random_trace(rng)
    (gc.enable if enabled else gc.disable)()
    try:
        assert parse_trace(write_trace(tr)) == tr
        assert gc.isenabled() is enabled
        with pytest.raises(TraceSyntaxError):
            parse_trace("BOGUS 1\n")
        # the caller's setting comes back, also after a failed parse
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
    assert seen == [False, False]
