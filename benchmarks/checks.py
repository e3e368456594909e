"""Output checks: strict report parsing and the format-independent digest.

A report counts as failed when it is not strict JSON (``NaN`` and
``Infinity`` are rejected), fails ``validate_report``, names another
command or has ``ok: false``.  The digest covers each dataset entry's
seed, label and canonical trace text (``write_trace`` of the loaded
trace), then the analyze report's ``results``; it is computed from the
traces rather than the files, so a change of storage format leaves it
unchanged.
"""

from __future__ import annotations

import hashlib
import json


class CheckFailed(Exception):
    """An operation's output failed the benchmark's correctness check."""


def _reject_constant(name: str):
    raise CheckFailed(f"report is not strict JSON: contains {name}")


def check_report(text: str, command: str) -> dict:
    from leaklab.schemas import SchemaError, validate_report

    try:
        report = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as e:
        raise CheckFailed(f"report is not JSON: {e}") from None
    try:
        validate_report(report)
    except SchemaError as e:
        raise CheckFailed(f"report fails its schema: {e}") from None
    if report.get("command") != command:
        raise CheckFailed(f"report is for {report.get('command')!r}, not {command!r}")
    if report.get("ok") is not True:
        raise CheckFailed("report has ok: false")
    return report


def entries(dataset_dir):
    """Yield (seed, label, loaded trace) for each dataset entry."""
    from leaklab.games import LabeledDataset

    for entry in LabeledDataset.load(dataset_dir).entries:
        label = list(entry.label) if isinstance(entry.label, tuple) else entry.label
        yield entry.seed, label, entry.load()


def canonical_rows(dataset_dir) -> list:
    """(seed, label, write_trace text) for each dataset entry."""
    from leaklab.trace import write_trace

    return [(seed, label, write_trace(trace))
            for seed, label, trace in entries(dataset_dir)]


def digest(rows, results: dict) -> str:
    """sha256 over (seed, label, text) rows and the analyze results."""
    h = hashlib.sha256()
    for seed, label, text in rows:
        h.update(json.dumps([seed, label]).encode())
        h.update(b"\n")
        h.update(text.encode())
    h.update(json.dumps(results, sort_keys=True).encode())
    return h.hexdigest()
