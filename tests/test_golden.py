"""Byte-identity gate: fixed configs must keep their recorded output.

Each case runs ``leaklab simulate`` at ``--jobs`` 1 and 2, requires the
two dataset directories to be equal byte for byte, then runs ``leaklab
analyze`` on the dataset at ``--jobs`` 1 and 2 and requires equal
results.  The case's digest covers each entry's seed,
label and canonical trace text (``write_trace`` of the loaded trace),
then the analyze report's ``results``, the format-independent digest of
``benchmarks/checks.py``.  It must equal the one in ``golden.json``.

A change that moves a digest changes behaviour and says so; digests are
never re-recorded to let a refactor pass.  ``python tests/test_golden.py
--record`` rewrites ``golden.json`` from the current code.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

from leaklab.cli import EXIT_OK, main
from leaklab.games import LabeledDataset
from leaklab.trace import write_trace

GOLDEN = Path(__file__).with_name("golden.json")

FULL = ["page", "cache", "cipher", "pmc"]
DISTINGUISH_ARGS = ("--sets", "all", "--seq", "--trials", "2", "--l2-lambda", "0.1")

# name -> (game config, analyze flags)
CASES = {
    "phh-noise-mitigated-fingerprint": ({
        "game": "fingerprint",
        "workload": {"kind": "phh", "eps": 0.5, "delta": 1e-6,
                     "mitigated": True, "marked_stage": "noise_threshold"},
        "policy": {"channels": FULL, "targeted": True},
        "prior": {"kind": "table", "table": {
            "a.io": 2, "b.dev": 2, "c.de": 1, "d.com": 2, "e.org": 1, "f.net": 1}},
        "interest": {"kind": "list", "values": ["a.io", "b.dev", "c.de"]},
        "n_traces": 24, "base_seed": 5,
    }, ("--fingerprint", "--trials", "3", "--m-cf", "8", "--m-da", "16",
        "--l2-lambda", "0.1")),
    # a targeted aggregate window with a prior of repeated and single-run
    # secrets: runs resume the phh checkpoint and reuse observations, and
    # at --jobs 2 pool workers write the trace files
    "phh-aggregate-fingerprint": ({
        "game": "fingerprint",
        "workload": {"kind": "phh", "eps": 1.0, "delta": 1e-6,
                     "mitigated": False, "marked_stage": "aggregate"},
        "policy": {"channels": FULL, "targeted": True},
        "prior": {"kind": "table", "table": {
            "a.io": 4, "b.dev": 3, "c.de": 1, "d.fr": 1, "e.jp": 1,
            "f.com": 4, "g.org": 1, "h.net": 1, "i.com": 1}},
        "interest": {"kind": "list", "values": ["a.io", "b.dev", "c.de", "d.fr", "e.jp"]},
        "n_traces": 24, "base_seed": 15,
    }, ("--fingerprint", "--trials", "3", "--m-cf", "8", "--m-da", "16",
        "--l2-lambda", "0.1")),
    "phh-aggregate-mitigated": ({
        "game": "distinguish",
        "workload": {"kind": "phh", "eps": 1.0, "delta": 1e-6,
                     "mitigated": True, "marked_stage": "aggregate"},
        "policy": {"channels": FULL, "targeted": True},
        "x0": "a.io", "x1": "b.io",
        "sybil": {"kind": "list", "values": ["s1.com", "s2.com", "a.io"]},
        "traces_per_class": 5, "base_seed": 6,
    }, DISTINGUISH_ARGS),
    "phh-aggregate-untargeted": ({
        "game": "distinguish",
        "workload": {"kind": "phh", "eps": 1.0, "delta": 1e-6,
                     "mitigated": False, "marked_stage": "aggregate"},
        "policy": {"channels": ["page", "cache"], "targeted": False},
        "x0": "a.io", "x1": "b.io",
        "sybil": {"kind": "list", "values": ["s1.com", "b.io"]},
        "traces_per_class": 5, "base_seed": 7,
    }, DISTINGUISH_ARGS),
    "phh-noise-noisy": ({
        "game": "distinguish",
        "workload": {"kind": "phh", "eps": 1.0, "delta": 1e-6,
                     "mitigated": False, "marked_stage": "noise_threshold"},
        "policy": {"channels": ["page", "cache", "pmc"], "targeted": True,
                   "cache_noise": {"drop_prob": 0.2, "flip_prob": 0.1}},
        "x0": "a.io", "x1": "b.io",
        "sybil": {"kind": "copies", "value": "s.com", "count": 3},
        "traces_per_class": 5, "base_seed": 8,
    }, DISTINGUISH_ARGS),
    "synthetic-loop-untargeted": ({
        "game": "distinguish",
        "workload": {"kind": "synthetic_loop", "eps": 5.0, "delta": 1e-6},
        "policy": {"channels": ["page", "pmc"], "targeted": False},
        "x0": 2, "x1": 9, "traces_per_class": 5, "base_seed": 9,
    }, DISTINGUISH_ARGS),
    "pir-scan": ({
        "game": "distinguish",
        "workload": {"kind": "pir_scan", "db_size": 120},
        "policy": {"channels": FULL, "targeted": True},
        "x0": 17, "x1": 93,
        "sybil": {"kind": "copies", "value": 0, "count": 2},
        "traces_per_class": 5, "base_seed": 10,
    }, DISTINGUISH_ARGS),
    "pir-scan-noisy": ({
        "game": "distinguish",
        "workload": {"kind": "pir_scan", "db_size": 120},
        "policy": {"channels": ["page", "cache"], "targeted": True,
                   "data_queue_len": 2,
                   "cache_noise": {"drop_prob": 0.3, "flip_prob": 0.2}},
        "x0": 17, "x1": 93,
        "traces_per_class": 5, "base_seed": 11,
    }, DISTINGUISH_ARGS),
    "pir-hashmap": ({
        "game": "distinguish",
        "workload": {"kind": "pir_hashmap", "db_size": 40, "hash_seed": 3},
        "policy": {"channels": ["cipher", "pmc"], "targeted": True},
        "x0": "record-00004", "x1": "missing",
        "sybil": {"kind": "list", "values": ["record-00001", "record-00020"]},
        "traces_per_class": 5, "base_seed": 12,
    }, DISTINGUISH_ARGS),
    "pir-oram-flaw-off": ({
        "game": "distinguish",
        "workload": {"kind": "pir_oram", "db_size": 16, "height": 4,
                     "zero_value_indices": [3], "flaw": False},
        "policy": {"channels": FULL, "targeted": True},
        "x0": 3, "x1": 9,
        "sybil": {"kind": "copies", "value": 5, "count": 2},
        "traces_per_class": 5, "base_seed": 13,
    }, DISTINGUISH_ARGS),
    "pir-oram-flaw-on": ({
        "game": "distinguish",
        "workload": {"kind": "pir_oram", "db_size": 16, "height": 4,
                     "zero_value_indices": [3], "flaw": True},
        "policy": {"channels": FULL, "targeted": True},
        "x0": 3, "x1": 9,
        "sybil": {"kind": "copies", "value": 5, "count": 2},
        "traces_per_class": 5, "base_seed": 14,
    }, DISTINGUISH_ARGS),
}


def _cli(*argv) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code == EXIT_OK, f"leaklab {argv[0]} exited {code}"


def _tree_bytes(root: Path) -> dict:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def run_case(name: str, work: Path) -> str:
    """Simulate and analyze at --jobs 1 and 2; return the case's digest."""
    config, analyze_args = CASES[name]
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(config))
    dirs = {jobs: work / f"jobs{jobs}" for jobs in (1, 2)}
    for jobs, out in dirs.items():
        _cli("simulate", "--config", cfg_path, "--out", out, "--jobs", jobs)
    assert _tree_bytes(dirs[1]) == _tree_bytes(dirs[2]), \
        f"{name}: --jobs 1 and 2 wrote different datasets"
    results = {}
    for jobs in (1, 2):
        report_path = work / f"report{jobs}.json"
        _cli("analyze", "--dataset", dirs[1], *analyze_args, "--jobs", jobs,
             "--report", report_path)
        results[jobs] = json.loads(report_path.read_text())["results"]
    assert results[1] == results[2], f"{name}: analyze --jobs 1 and 2 differ"
    results = results[1]

    h = hashlib.sha256()
    for entry in LabeledDataset.load(dirs[1]).entries:
        label = list(entry.label) if isinstance(entry.label, tuple) else entry.label
        h.update(json.dumps([entry.seed, label]).encode())
        h.update(b"\n")
        h.update(write_trace(entry.load()).encode())
    h.update(json.dumps(results, sort_keys=True).encode())
    return h.hexdigest()


def test_golden_cases_are_recorded():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digest(name, tmp_path):
    assert run_case(name, tmp_path) == json.loads(GOLDEN.read_text())[name]


if __name__ == "__main__":
    import tempfile

    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    digests = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            digests[case] = run_case(case, Path(tmp))
        print(case, digests[case])
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
