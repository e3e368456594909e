"""The benchmark's workloads.

Each workload is one game config plus the ``leaklab simulate --jobs``
and ``leaklab analyze`` flags a user would run it with.  The shapes come
from two of the three heaviest acceptance configs, A8 and A6, at trace
counts small enough for several simulate/analyze rounds per run.
NOTES.md gives the reason for each workload, why the A7 shape was
dropped, and the metric map.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

FULL_POLICY = {"channels": ["page", "cache", "cipher", "pmc"], "targeted": True}

# Fingerprinting prior: weight on the first 8 interest-set and the first 6
# generic elements of the bundled universe, zero elsewhere.  The table
# still lists the whole universe, so the interest set and the sybil
# stream, and with them the trace size, are those of A8.  A8's power-law
# prior leaves every member identity distinct (an empty identity test
# split, which analyze reports as NaN) on 69% of seeds at 40 traces and
# 24% at 80; with 8 member identities at member mass 8/14 that needs at
# most 8 members among 32 traces, a probability of about 2e-6.
_FP_MEMBERS = 8
_FP_GENERIC = 6


def _fingerprint_prior() -> dict:
    from leaklab.games import bundled_url_list, interesting_subset

    universe = bundled_url_list()
    interest = set(interesting_subset(universe))
    members = [u for u in universe if u in interest][:_FP_MEMBERS]
    generic = [u for u in universe if u not in interest][:_FP_GENERIC]
    weighted = set(members) | set(generic)
    return {"kind": "table",
            "table": {u: (1 if u in weighted else 0) for u in universe}}


def fingerprint_config(n: int) -> dict:
    return {
        "game": "fingerprint",
        "workload": {"kind": "phh", "eps": 0.1, "delta": 1e-9,
                     "mitigated": False, "marked_stage": "aggregate"},
        "policy": dict(FULL_POLICY),
        "prior": _fingerprint_prior(),
        "n_traces": n,
    }


def scan_config(n: int) -> dict:
    return {
        "game": "distinguish",
        "workload": {"kind": "pir_scan", "db_size": 1000},
        "policy": dict(FULL_POLICY),
        "x0": 137, "x1": 803,
        "sybil": {"kind": "copies", "value": 0, "count": 9},
        "traces_per_class": n // 2,
    }


# The analyze flags below, as keyword arguments of the library calls
# ``leaklab analyze`` makes; trials, test fraction and iterations keep
# their command-line defaults.
_FIT = {"trials": 5, "test_frac": 0.2, "l2_lambda": 0.1, "iterations": 1000}


_FP_FEATURES = {"m_cf": 16, "m_da": 160}


def _analyze_fingerprint(ds) -> dict:
    from leaklab import analysis, features

    params = features.FeatureParams(**_FP_FEATURES)
    rep = analysis.fingerprint_advantage(ds, params=params, **_FIT)
    return {"n_traces": len(ds), "fingerprint": rep.to_json()}


def _analyze_seq(ds) -> dict:
    from leaklab import analysis

    rep = analysis.evaluate_seq_advantage(ds, **_FIT)
    return {"n_traces": len(ds), "seq": rep.to_json()}


@dataclass(frozen=True)
class Workload:
    name: str
    traces: int
    jobs: int
    config: Callable[[int], dict]
    analyze_args: tuple[str, ...]
    # the library calls behind ``analyze_args``; returns the report's results
    analyze: Callable[[object], dict]
    # FeatureParams fields behind ``analyze_args``
    feature_params: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    Workload("fingerprint-phh", 32, 2, fingerprint_config,
             ("--fingerprint", "--m-cf", "16", "--m-da", "160",
              "--l2-lambda", "0.1"),
             _analyze_fingerprint, _FP_FEATURES),
    Workload("linear-scan-seq", 24, 1, scan_config,
             ("--sets", "", "--seq", "--l2-lambda", "0.1"),
             _analyze_seq),
)}
