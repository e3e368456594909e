"""End-to-end acceptance checks, one printed verdict line per criterion.

Each check generates its datasets from scratch (parallel where large),
measures attack advantage with the shipped pipeline, and compares
against the analytic target at the stated tolerance.  Statistical
comparisons against analytic bounds use the unclipped advantage
estimate, whose null expectation is zero, with a 3-sigma allowance
floored at the binomial noise of the test-set size.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

from conftest import random_trace
from oracle_features import oracle_extract
from leaklab.analysis import (
    advantage_reports,
    dp_bound,
    evaluate_seq_advantage,
    fingerprint_advantage,
    ks_test,
    train_logreg,
)
from leaklab.features import FEATURE_SET_NAMES, FeatureParams, extract_features
from leaklab.games import GameConfig, run_distinguishing_game, run_fingerprinting_game
from leaklab.machine import CollectorPolicy, SimMachine, run_collect
from leaklab.mitigation import sample_dummy_count, verify_dummy_dp
from leaklab.trace import DataAccess, parse_trace, windowed_events, write_trace
from leaklab.workloads import CovertSender, LinearScanPir, SecretMessage, covert_decode, make_db_values

JOBS = min(8, os.cpu_count() or 1)
FULL_CHANNELS = ["page", "cache", "cipher", "pmc"]
FULL_POLICY = {"channels": FULL_CHANNELS, "targeted": True}


def _report(capsys, cid, ok, detail):
    with capsys.disabled():
        print(f"[{cid}] {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, f"{cid} {detail}"


def _raw_norm(result):
    """Unclipped normalized advantage per trial, its mean and stderr."""
    b = result.baseline
    per_trial = [(a - b) / (1.0 - b) for a in result.accuracies]
    mean = float(np.mean(per_trial))
    stderr = float(np.std(per_trial, ddof=1) / math.sqrt(len(per_trial)))
    return per_trial, mean, stderr


def _norm_floor(n_test, baseline):
    """Binomial noise of one test split.  Trials re-split one shared
    dataset, so averaging them is not assumed to shrink this term."""
    return math.sqrt(baseline * (1 - baseline) / n_test) / (1 - baseline)


# ---------------------------------------------------------------------------
# A1: analytic bound anchor values
# ---------------------------------------------------------------------------

def test_a1_bound_values(capsys):
    v = dp_bound(0.5, 0.01)
    ok = (abs(v - 0.1672) < 1e-4) and v < 0.17 and 2 * v < 0.34
    _report(capsys, "A1", ok,
            f"dp_bound(0.5, 0.01) = {v:.10f} (< 0.17, normalized {2*v:.4f} < 0.34)")


# ---------------------------------------------------------------------------
# A2: padding proof checker plus measured advantage of a pure count channel
# ---------------------------------------------------------------------------

def test_a2_padding_dp_and_synthetic_channel(capsys, tmp_path):
    combos = [(e, d) for e in (0.05, 0.1, 0.5) for d in (1e-9, 1e-6)]
    details = []
    ok = True
    for i, (eps, delta) in enumerate(combos):
        if not verify_dummy_dp(eps, delta):
            ok = False
            details.append(f"verify({eps},{delta})=False")
            continue
        cfg = GameConfig.from_json({
            "game": "distinguish",
            "workload": {"kind": "synthetic_loop", "eps": eps, "delta": delta},
            "policy": {"channels": ["page"], "targeted": True},
            "x0": 0, "x1": 1, "traces_per_class": 1000,
            "base_seed": 9100 + i,
        })
        ds = run_distinguishing_game(cfg, out_dir=tmp_path / f"a2-{i}", jobs=JOBS)
        rep = advantage_reports(ds, ["F1"], trials=5, test_frac=0.2,
                                l2_lambda=0.1, iterations=1000, jobs=JOBS)["advantage"]
        _, mean, stderr = _raw_norm(rep.sets["F1"])
        sigma = max(stderr, _norm_floor(400, 0.5))
        limit = 2 * dp_bound(eps, delta) + 3 * sigma
        if mean > limit:
            ok = False
        details.append(f"eps={eps} delta={delta}: adv {mean:+.4f} <= {limit:.4f}")
    _report(capsys, "A2", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# A3: padding sampler expectation
# ---------------------------------------------------------------------------

def test_a3_dummy_mean(capsys):
    rng = np.random.default_rng(20260815)
    n = 100_000
    mean = float(np.mean([sample_dummy_count(0.1, 1e-9, rng) for _ in range(n)]))
    ok = abs(mean - 201.0) <= 1.0
    _report(capsys, "A3", ok, f"mean dummy count over 1e5 draws = {mean:.3f} (201 +- 1)")


# ---------------------------------------------------------------------------
# A4/A5: the aggregation service, unmitigated and mitigated
# ---------------------------------------------------------------------------

def _phh_config(eps, delta, mitigated, marked_stage, base_seed, per_class):
    return GameConfig.from_json({
        "game": "distinguish",
        "workload": {"kind": "phh", "eps": eps, "delta": delta,
                     "mitigated": mitigated, "marked_stage": marked_stage},
        "policy": dict(FULL_POLICY),
        "x0": "url0.example.com", "x1": "url1.example.net",
        "sybil": {"kind": "copies", "value": "url0.example.com", "count": 99},
        "traces_per_class": per_class,
        "base_seed": base_seed,
    })


def test_a4_unmitigated_service_distinguishable(capsys, tmp_path):
    cfg = _phh_config(0.1, 1e-9, False, "noise_threshold", 9400, 200)
    ds = run_distinguishing_game(cfg, out_dir=tmp_path / "a4", jobs=JOBS)
    rep = advantage_reports(ds, ["F1"], trials=5, test_frac=0.2,
                            l2_lambda=0.1, iterations=1000, jobs=JOBS)["advantage"]
    adv = rep.sets["F1"].normalized_mean
    ok = adv >= 0.98
    _report(capsys, "A4", ok,
            f"99-sybil unmitigated release loop: F1 advantage {adv:.4f} >= 0.98")


def test_a5_mitigated_below_bound_and_aggregation_bypass(capsys, tmp_path):
    delta = 1e-9
    details = []
    ok = True
    for j, eps in enumerate((0.05, 0.1)):
        cfg = _phh_config(eps, delta, True, "noise_threshold", 9500 + j, 250)
        ds = run_distinguishing_game(cfg, out_dir=tmp_path / f"a5-{j}", jobs=JOBS)
        rep = advantage_reports(ds, list(FEATURE_SET_NAMES), trials=5, test_frac=0.2,
                                l2_lambda=0.1, iterations=1000, jobs=JOBS)["advantage"]
        bound = 2 * dp_bound(eps, delta)
        floor = _norm_floor(100, 0.5)
        worst_name, worst_gap = None, -1.0
        for name in FEATURE_SET_NAMES:
            _, mean, stderr = _raw_norm(rep.sets[name])
            limit = bound + 3 * max(stderr, floor)
            if mean - limit > worst_gap:
                worst_name, worst_gap = name, mean - limit
            if mean > limit:
                ok = False
        details.append(f"eps={eps}: all sets under bound "
                       f"(worst {worst_name} margin {-worst_gap:.4f})")

    # aggregation stage: padding happens after it, so per-page fault
    # frequencies still separate the two secrets
    eps = 0.1
    cfg = _phh_config(eps, delta, True, "aggregate", 9550, 250)
    ds = run_distinguishing_game(cfg, out_dir=tmp_path / "a5-agg", jobs=JOBS)
    rep = advantage_reports(ds, ["F5"], trials=5, test_frac=0.2,
                            l2_lambda=0.1, iterations=1000, jobs=JOBS)["advantage"]
    _, mean, stderr = _raw_norm(rep.sets["F5"])
    sigma = max(stderr, _norm_floor(100, 0.5))
    bound = 2 * dp_bound(eps, delta)
    if not mean - 3 * sigma > bound:
        ok = False
    details.append(f"aggregation-stage F5 {mean:.4f} - 3s > bound {bound:.4f}")
    _report(capsys, "A5", ok, "; ".join(details))


# ---------------------------------------------------------------------------
# A6: constant-time linear scan vs the ciphertext channel
# ---------------------------------------------------------------------------

def _scan_config(channels, base_seed):
    return GameConfig.from_json({
        "game": "distinguish",
        "workload": {"kind": "pir_scan", "db_size": 1000},
        "policy": {"channels": channels, "targeted": True},
        "x0": 137, "x1": 803,
        "sybil": {"kind": "copies", "value": 0, "count": 9},
        "traces_per_class": 200,
        "base_seed": base_seed,
    })


def test_a6_linear_scan_page_blind_cipher_sees(capsys, tmp_path):
    db = make_db_values(1000)
    texts = []
    for q in (0, 137, 803, 999):
        m = SimMachine(cipher_seed=77, alloc_seed=88)
        policy = CollectorPolicy(channels=("page",), targeted=True)
        tr, _ = run_collect(m, LinearScanPir(db, [q]), policy, trace_seed=1)
        texts.append(write_trace(tr))
    identical = all(t == texts[0] for t in texts)

    ds_page = run_distinguishing_game(_scan_config(["page"], 9600),
                                      out_dir=tmp_path / "a6p", jobs=JOBS)
    rep = advantage_reports(ds_page, list(FEATURE_SET_NAMES), trials=5, test_frac=0.2,
                            l2_lambda=0.1, iterations=1000, jobs=JOBS)["advantage"]
    page_adv = max(rep.sets[n].normalized_mean for n in FEATURE_SET_NAMES)

    ds_ct = run_distinguishing_game(_scan_config(FULL_CHANNELS, 9600),
                                    out_dir=tmp_path / "a6c", jobs=JOBS)
    seq = evaluate_seq_advantage(ds_ct, trials=5, test_frac=0.2,
                                 l2_lambda=0.1, iterations=1000, jobs=JOBS)
    ct_adv = seq.sets["seq"].normalized_mean

    ok = identical and page_adv <= 0.05 and ct_adv >= 0.3
    _report(capsys, "A6", ok,
            f"page traces identical={identical}, page advantage {page_adv:.4f}"
            f" <= 0.05, ciphertext advantage {ct_adv:.4f} >= 0.3")


# ---------------------------------------------------------------------------
# A7: oblivious storage, with and without the zero-block shortcut
# ---------------------------------------------------------------------------

def _oram_config(flaw, base_seed):
    return GameConfig.from_json({
        "game": "distinguish",
        "workload": {"kind": "pir_oram", "db_size": 64, "height": 8,
                     "zero_value_indices": [7], "flaw": flaw},
        "policy": dict(FULL_POLICY),
        "x0": 7, "x1": 41,
        "sybil": {"kind": "copies", "value": 33, "count": 3},
        "traces_per_class": 750,
        "base_seed": base_seed,
    })


def test_a7_oram_flaw_model(capsys, tmp_path):
    ds_off = run_distinguishing_game(_oram_config(False, 9700),
                                     out_dir=tmp_path / "a7off", jobs=JOBS)
    rep_off = advantage_reports(ds_off, list(FEATURE_SET_NAMES), trials=10, test_frac=0.2,
                                l2_lambda=0.1, iterations=1000, jobs=JOBS)["advantage"]
    off_adv = max(rep_off.sets[n].normalized_mean for n in FEATURE_SET_NAMES)

    ds_on = run_distinguishing_game(_oram_config(True, 9701),
                                    out_dir=tmp_path / "a7on", jobs=JOBS)
    rep_on = advantage_reports(ds_on, ["F3"], trials=10, test_frac=0.2,
                               l2_lambda=0.1, iterations=1000, jobs=JOBS)["advantage"]
    on_adv = rep_on.sets["F3"].normalized_mean

    ok = off_adv <= 0.05 and on_adv >= 0.1
    _report(capsys, "A7", ok,
            f"flaw off: max advantage {off_adv:.4f} <= 0.05; "
            f"flaw on: F3 advantage {on_adv:.4f} >= 0.1")


# ---------------------------------------------------------------------------
# A8: fingerprinting through the capacity-saturating sybil stream
# ---------------------------------------------------------------------------

def test_a8_fingerprinting(capsys, tmp_path):
    cfg = GameConfig.from_json({
        "game": "fingerprint",
        "workload": {"kind": "phh", "eps": 0.1, "delta": 1e-9,
                     "mitigated": False, "marked_stage": "aggregate"},
        "policy": dict(FULL_POLICY),
        "n_traces": 1000,
        "base_seed": 4200,
    })
    ds = run_fingerprinting_game(cfg, out_dir=tmp_path / "a8", jobs=JOBS)
    rep = fingerprint_advantage(ds, params=FeatureParams(m_cf=16, m_da=160),
                                trials=5, test_frac=0.2, l2_lambda=0.1,
                                iterations=1000, jobs=JOBS)
    mem = rep.membership.normalized_mean
    _, fp_mean, fp_stderr = _raw_norm(rep.fingerprint)
    # identity is trained and scored on member traces only, ~70% of 1000
    sigma = max(fp_stderr, _norm_floor(140, rep.s_f))
    ok = mem >= 0.95 and fp_mean - 3 * sigma > 0
    _report(capsys, "A8", ok,
            f"membership advantage {mem:.4f} >= 0.95; identity advantage "
            f"{fp_mean:.4f} > 0 at 3-sigma ({3 * sigma:.4f}) over baseline "
            f"{rep.s_f:.4f}")


# ---------------------------------------------------------------------------
# A9: covert transport
# ---------------------------------------------------------------------------

def test_a9_covert_channel(capsys):
    payload = bytes((i * 37 + 11) % 256 for i in range(48))
    msg = SecretMessage(payload, repetitions=100)
    m = SimMachine(cipher_seed=5, alloc_seed=6)
    policy = CollectorPolicy(channels=("page", "cache", "cipher", "pmc"),
                             targeted=True)
    trace, sent = run_collect(m, CovertSender(msg), policy, trace_seed=9)
    decoded = covert_decode(trace)
    errors = sum(a != b for a, b in zip(decoded, msg.stream))
    errors += abs(len(decoded) - len(msg.stream))
    faults = sum(isinstance(e, DataAccess) for e in windowed_events(trace))
    per_byte = faults / sent
    ok = errors == 0 and per_byte == 5.0
    _report(capsys, "A9", ok,
            f"48 bytes x 100 reps: {errors} byte errors, "
            f"{per_byte:.1f} faults/byte (need 0 and 5)")


# ---------------------------------------------------------------------------
# A10: infrastructure properties
# ---------------------------------------------------------------------------

def test_a10_infrastructure(capsys, tmp_path):
    checks = []

    rng = np.random.default_rng(1009)
    roundtrip = all(
        parse_trace(write_trace(t)) == t
        for t in (random_trace(rng, max_events=80) for _ in range(1000))
    )
    checks.append(("roundtrip x1000", roundtrip))

    rng = np.random.default_rng(2009)
    dual = all(
        np.array_equal(
            extract_features(t, FEATURE_SET_NAMES).values,
            oracle_extract(t, FEATURE_SET_NAMES))
        for t in (random_trace(rng, max_events=70) for _ in range(200))
    )
    checks.append(("dual extractor x200", dual))

    rng = np.random.default_rng(3009)
    y = rng.integers(0, 2, size=300)
    X = rng.normal(size=(300, 8))
    X[:, 0] += 2.5 * y
    grad = train_logreg(X, y).grad_norm
    checks.append((f"logreg grad {grad:.2e} <= 1e-4", grad <= 1e-4))

    ks = ks_test([1, 2], [1, 3])
    checks.append((f"KS D={ks.statistic}", abs(ks.statistic - 0.5) < 1e-12))

    cfg = {
        "game": "distinguish",
        "workload": {"kind": "synthetic_loop", "eps": 2.0, "delta": 1e-6},
        "policy": {"channels": ["page"], "targeted": True},
        "x0": 2, "x1": 9, "traces_per_class": 3, "base_seed": 42,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("d1", "d2"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "leaklab", "simulate", "--config",
             str(cfg_path), "--out", str(out), "--report",
             str(tmp_path / f"{name}.json")],
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        blob = b"".join(p.read_bytes()
                        for p in sorted(out.rglob("*")) if p.is_file())
        ana = subprocess.run(
            [sys.executable, "-m", "leaklab", "analyze", "--dataset", str(out),
             "--sets", "F1", "--trials", "2"],
            capture_output=True, text=True, timeout=300)
        assert ana.returncode == 0, ana.stderr
        ana_json = json.loads(ana.stdout)
        ana_json["params"].pop("dataset")
        sim_results = json.loads((tmp_path / f"{name}.json").read_text())["results"]
        sim_results.pop("out_dir")
        outs.append((blob, ana_json, sim_results))
    same = outs[0] == outs[1]
    checks.append(("pipeline determinism", same))

    ok = all(c[1] for c in checks)
    _report(capsys, "A10", ok,
            "; ".join(f"{name} {'ok' if good else 'FAILED'}"
                      for name, good in checks))
