"""Command line behavior: exit codes, reports, determinism."""

import json
import subprocess
import sys

import pytest

from leaklab.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, EXIT_VERIFY, main
from leaklab.schemas import validate_report

LOOP_CONFIG = {
    "game": "distinguish",
    "workload": {"kind": "synthetic_loop", "eps": 5.0, "delta": 1e-6},
    "policy": {"channels": ["page"], "targeted": True},
    "x0": 2, "x1": 9, "traces_per_class": 2, "base_seed": 11,
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    report = None
    if captured.out.strip():
        report = json.loads(captured.out)
        validate_report(report)
    return code, report, captured.err


def write_config(tmp_path, obj, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def test_no_command_is_usage_error(capsys):
    code, _, err = run_cli(capsys)
    assert code == EXIT_CONFIG
    assert "usage" in err.lower()


def test_bound_reports_anchor_values(capsys):
    code, rep, _ = run_cli(capsys, "bound", "--eps", "0.5", "--delta", "0.01")
    assert code == EXIT_OK
    r = rep["results"]
    assert abs(r["advantage_bound"] - 0.16718031767503205) < 1e-12
    assert abs(r["normalized_bound"] - 2 * r["advantage_bound"]) < 1e-15
    assert r["useful"] is True
    assert r["padding_verified"] is True

    code, rep, _ = run_cli(capsys, "bound", "--eps", "0.1", "--delta", "1e-9")
    assert code == EXIT_OK
    assert rep["results"]["dummy_shift"] == 201
    assert abs(rep["results"]["threshold"] - 201.30103) < 1e-3


def test_bound_claim_verification(capsys):
    code, rep, _ = run_cli(capsys, "bound", "--eps", "0.5", "--delta", "0.01",
                           "--claim-eps", "1.0")
    assert code == EXIT_OK
    assert rep["results"]["claim_verified"] is True

    code, rep, _ = run_cli(capsys, "bound", "--eps", "0.5", "--delta", "0.01",
                           "--claim-eps", "0.1")
    assert code == EXIT_VERIFY
    assert rep["results"]["claim_verified"] is False
    assert rep["ok"] is False


def test_zero_delta_is_valid_but_unverified(capsys):
    # delta 0 is in range: a report, with the padding not verified
    for argv in (["bound", "--eps", "0.1"], ["sweep", "--eps-list", "0.1"]):
        code, rep, _ = run_cli(capsys, *argv, "--delta", "0")
        assert code == EXIT_VERIFY and rep["ok"] is False


def test_bound_rejects_bad_params(capsys):
    code, rep, err = run_cli(capsys, "bound", "--eps", "0", "--delta", "0.01")
    assert code == EXIT_CONFIG
    assert rep is None
    assert "eps" in err


def test_sweep_rows_and_svg(capsys, tmp_path):
    svg = tmp_path / "sweep.svg"
    code, rep, _ = run_cli(capsys, "sweep", "--eps-list", "0.05,0.1,0.5",
                           "--delta", "1e-9", "--svg", str(svg))
    assert code == EXIT_OK
    rows = rep["results"]["rows"]
    assert [r["eps"] for r in rows] == [0.05, 0.1, 0.5]
    bounds = [r["advantage_bound"] for r in rows]
    assert bounds == sorted(bounds)  # grows with eps
    shifts = [r["dummy_shift"] for r in rows]
    assert shifts == sorted(shifts, reverse=True)  # padding shrinks with eps
    assert svg.read_text().startswith("<svg")

    code, _, _ = run_cli(capsys, "sweep", "--eps-list", "nope", "--delta", "1e-9")
    assert code == EXIT_CONFIG


def test_simulate_dry_run(capsys, tmp_path):
    cfg = write_config(tmp_path, LOOP_CONFIG)
    out = tmp_path / "ds"
    code, rep, _ = run_cli(capsys, "simulate", "--config", cfg,
                           "--out", str(out), "--dry-run")
    assert code == EXIT_OK
    assert rep["results"]["planned_traces"] == 4
    assert rep["results"]["game"] == "distinguish"
    assert not out.exists()


def test_simulate_writes_dataset(capsys, tmp_path):
    cfg = write_config(tmp_path, LOOP_CONFIG)
    out = tmp_path / "ds"
    code, rep, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert code == EXIT_OK
    assert rep["results"]["n_traces"] == 4
    assert (out / "dataset.json").is_file()
    assert len((out / "manifest.jsonl").read_text().splitlines()) == 4
    assert len(list((out / "traces").iterdir())) == 4


def test_simulate_plans_once(capsys, tmp_path, monkeypatch):
    # the plan that checks the config before any output is the one run
    import leaklab.games as games

    calls = []
    plan = games._plan

    def counted(cfg):
        calls.append(cfg)
        return plan(cfg)

    monkeypatch.setattr(games, "_plan", counted)
    cfg = write_config(tmp_path, LOOP_CONFIG)
    code, rep, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "ds"))
    assert code == EXIT_OK and rep["results"]["n_traces"] == 4
    assert len(calls) == 1


def test_simulate_seed_precedence(capsys, tmp_path, monkeypatch):
    cfg = write_config(tmp_path, LOOP_CONFIG)

    def dry(*extra):
        code, rep, _ = run_cli(capsys, "simulate", "--config", cfg,
                               "--out", str(tmp_path / "x"), "--dry-run", *extra)
        assert code == EXIT_OK
        return rep["seed"]

    assert dry() == 11  # config value
    monkeypatch.setenv("LEAKLAB_SEED", "500")
    assert dry() == 500  # env beats config
    assert dry("--seed", "900") == 900  # flag beats env
    monkeypatch.setenv("LEAKLAB_SEED", "not-a-number")
    code, _, err = run_cli(capsys, "simulate", "--config", cfg,
                           "--out", str(tmp_path / "x"), "--dry-run")
    assert code == EXIT_CONFIG
    assert "LEAKLAB_SEED" in err


def test_simulate_determinism_across_runs(capsys, tmp_path):
    cfg = write_config(tmp_path, LOOP_CONFIG)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
        assert code == EXIT_OK
        outs.append(sorted((out / "traces").glob("*.txt")))
    for fa, fb in zip(*outs):
        assert fa.read_text() == fb.read_text()


def test_simulate_config_errors(capsys, tmp_path):
    code, _, err = run_cli(capsys, "simulate", "--config",
                           str(tmp_path / "missing.json"), "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG and "not found" in err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{nope")
    code, _, err = run_cli(capsys, "simulate", "--config", str(bad_json),
                           "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG and "JSON" in err

    bad_schema = write_config(tmp_path, {**LOOP_CONFIG, "game": "quiz"}, "bad2.json")
    code, _, err = run_cli(capsys, "simulate", "--config", bad_schema,
                           "--out", str(tmp_path / "o"))
    assert code == EXIT_CONFIG and "schema" in err


PHH_CONFIG = {
    "game": "distinguish",
    "workload": {"kind": "phh", "eps": 2.0, "delta": 1e-6},
    "policy": {"channels": ["page"], "targeted": True},
    "x0": "a.io", "x1": "b.io", "traces_per_class": 2,
}
SCAN_CONFIG = {**LOOP_CONFIG, "workload": {"kind": "pir_scan", "db_size": 20}}
FP_CONFIG = {
    "game": "fingerprint",
    "workload": {"kind": "phh", "eps": 2.0, "delta": 1e-6},
    "policy": {"channels": ["page"], "targeted": True},
    "prior": {"kind": "table", "table": {"a.io": 1, "b.com": 1}},
    "n_traces": 2,
}

# Each config passes the per-field schema but fails when it is run.
RUN_FAILURES = {
    "phh-without-eps": {**PHH_CONFIG, "workload": {"kind": "phh", "delta": 1e-6}},
    "phh-delta-above-half": {**PHH_CONFIG, "workload": {"kind": "phh", "eps": 2.0,
                                                        "delta": 0.6}},
    "phh-integer-x0": {**PHH_CONFIG, "x0": 3},
    "phh-integer-sybil": {**PHH_CONFIG, "sybil": {"kind": "copies", "value": 3,
                                                  "count": 2}},
    "loop-zero-delta": {**LOOP_CONFIG, "workload": {"kind": "synthetic_loop",
                                                    "eps": 5.0, "delta": 0}},
    "loop-negative-x0": {**LOOP_CONFIG, "x0": -1},
    "scan-without-db-size": {**SCAN_CONFIG, "workload": {"kind": "pir_scan"}},
    "scan-string-x0": {**SCAN_CONFIG, "x0": "a"},
    "oram-string-sybil": {**SCAN_CONFIG, "workload": {"kind": "pir_oram", "db_size": 16},
                          "sybil": {"kind": "list", "values": [1, "a"]}},
    "hashmap-without-db-size": {**PHH_CONFIG, "workload": {"kind": "pir_hashmap"}},
    "sybil-without-kind": {**PHH_CONFIG, "sybil": {"value": "c.io", "count": 2}},
    "copies-without-value": {**PHH_CONFIG, "sybil": {"kind": "copies", "count": 2}},
    "list-without-values": {**PHH_CONFIG, "sybil": {"kind": "list"}},
    "table-without-table": {**FP_CONFIG, "prior": {"kind": "table"}},
    "empty-table": {**FP_CONFIG, "prior": {"kind": "table", "table": {}}},
    "interest-without-kind": {**FP_CONFIG, "interest": {"values": ["a.io"]}},
    "empty-interest-list": {**FP_CONFIG, "interest": {"kind": "list", "values": []}},
    "fingerprint-on-loop": {**FP_CONFIG, "workload": LOOP_CONFIG["workload"]},
}


@pytest.mark.parametrize("name", list(RUN_FAILURES))
def test_config_that_fails_its_run_is_a_config_error(capsys, tmp_path, name):
    from leaklab.games import GameConfig, run_distinguishing_game, run_fingerprinting_game

    obj = RUN_FAILURES[name]
    cfg = GameConfig.from_json(obj)
    run = run_fingerprinting_game if cfg.game == "fingerprint" else run_distinguishing_game
    out = tmp_path / "out"
    with pytest.raises((KeyError, ValueError, TypeError, AttributeError)):
        run(cfg, out_dir=out)
    assert list(tmp_path.iterdir()) == []
    path = write_config(tmp_path, obj)
    for extra in ([], ["--dry-run"]):
        code, rep, err = run_cli(capsys, "simulate", "--config", path,
                                 "--out", str(out), *extra)
        assert code == EXIT_CONFIG and rep is None and "schema" in err
        assert not out.exists()


# Each config passes the schema but fails its plan: a secret or interest
# set its game or workload cannot take, or a policy the collector refuses.
PLAN_FAILURES = {
    "interest-outside-universe": {**FP_CONFIG, "interest": {"kind": "list",
                                                            "values": ["zz.io"]}},
    "table-without-member": {**FP_CONFIG, "prior": {"kind": "table",
                                                    "table": {"a.com": 1, "b.org": 1}}},
    "scan-secret-beyond-db": {**SCAN_CONFIG, "x1": 50},
    "cache-without-page": {**SCAN_CONFIG, "policy": {"channels": ["cache"]}},
}


@pytest.mark.parametrize("name", list(PLAN_FAILURES))
def test_config_that_fails_its_plan_is_a_config_error(capsys, tmp_path, name):
    from leaklab.games import GameConfig, run_distinguishing_game, run_fingerprinting_game

    obj = PLAN_FAILURES[name]
    cfg = GameConfig.from_json(obj)
    run = run_fingerprinting_game if cfg.game == "fingerprint" else run_distinguishing_game
    out = tmp_path / "out"
    with pytest.raises(ValueError):
        run(cfg, out_dir=out)
    path = write_config(tmp_path, obj)
    for extra in ([], ["--dry-run"]):
        code, rep, err = run_cli(capsys, "simulate", "--config", path,
                                 "--out", str(out), *extra)
        assert code == EXIT_CONFIG and rep is None and "bad game config" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_run_that_fails_midway_leaves_no_out(capsys, tmp_path, monkeypatch):
    from leaklab import games

    calls = []
    real = games._TraceJob.__call__

    def fail_third(job, idx, x, run_seed):
        calls.append(x)
        if len(calls) == 3:
            raise RuntimeError("injected failure")
        return real(job, idx, x, run_seed)

    monkeypatch.setattr(games._TraceJob, "__call__", fail_third)
    cfg = write_config(tmp_path, LOOP_CONFIG)
    code, rep, err = run_cli(capsys, "simulate", "--config", cfg,
                             "--out", str(tmp_path / "ds"))
    assert code == EXIT_RUNTIME and rep is None and "injected failure" in err
    assert len(calls) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def test_pool_run_that_fails_midway_leaves_no_out(capsys, tmp_path, monkeypatch):
    # pool workers write their own trace files into the staging directory:
    # one raises once another worker's file is there, and the run leaves
    # neither --out nor the staging directory
    import time

    from leaklab import games

    real = games._TraceJob.__call__

    def fail_late(job, idx, x, run_seed):
        if idx == 8:  # the third chunk of four runs
            first = job.stage / games._trace_file(0)
            deadline = time.monotonic() + 60
            while not first.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            written = len(list((job.stage / "traces").iterdir()))
            raise RuntimeError(f"injected failure after {written} files")
        return real(job, idx, x, run_seed)

    monkeypatch.setattr(games._TraceJob, "__call__", fail_late)
    cfg = write_config(tmp_path, {**LOOP_CONFIG, "traces_per_class": 6})
    code, rep, err = run_cli(capsys, "simulate", "--config", cfg,
                             "--out", str(tmp_path / "ds"), "--jobs", "2")
    assert code == EXIT_RUNTIME and rep is None
    written = int(err.split("injected failure after ")[1].split()[0])
    assert written >= 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]


def _tree(root):
    return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
            for p in sorted(root.rglob("*"))}


def test_simulate_refuses_a_used_out(capsys, tmp_path):
    cfg = write_config(tmp_path, LOOP_CONFIG)
    out = tmp_path / "ds"
    (out / "traces").mkdir(parents=True)
    (out / "traces" / "trace_00007.txt").write_text("SEED 1\n")
    before = _tree(out)
    for extra in ([], ["--dry-run"]):
        code, rep, err = run_cli(capsys, "simulate", "--config", cfg,
                                 "--out", str(out), *extra)
        assert code == EXIT_CONFIG and rep is None and "not empty" in err
        assert _tree(out) == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "ds"]


def test_simulate_fills_an_empty_out(capsys, tmp_path):
    cfg = write_config(tmp_path, LOOP_CONFIG)
    out, fresh = tmp_path / "ds", tmp_path / "fresh"
    out.mkdir()
    fresh.mkdir()
    code, rep, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert code == EXIT_OK and rep["results"]["n_traces"] == 4
    assert len(list((out / "traces").iterdir())) == 4
    assert out.stat().st_mode == fresh.stat().st_mode
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "ds", "fresh"]


@pytest.fixture(scope="module")
def loop_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli-ds")
    cfg_path = root / "cfg.json"
    cfg_path.write_text(json.dumps({**LOOP_CONFIG, "traces_per_class": 6}))
    out = root / "ds"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out)]) == EXIT_OK
    return out


def test_analyze_refuses_a_feature_scale_that_overflows(capsys, loop_dataset, monkeypatch):
    # features near 1e200 square to inf; a fit that read them as zero
    # columns would give a normal-looking report
    from leaklab import features

    real = features.extract_features

    def huge(*args):
        fv = real(*args)
        fv.values = fv.values * 1e200
        return fv

    monkeypatch.setattr(features, "extract_features", huge)
    capsys.readouterr()
    code, rep, err = run_cli(capsys, "analyze", "--dataset", str(loop_dataset),
                             "--sets", "all", "--trials", "2", "--jobs", "1")
    assert code == EXIT_RUNTIME and rep is None
    assert "ValueError: feature columns [" in err and "overflow when standardized" in err


def test_analyze_refuses_a_fingerprint_split_without_test_traces(capsys, tmp_path):
    # each interest-set member occurs once, so no identity split has a
    # test trace: a report would hold NaN accuracies
    obj = {"game": "fingerprint",
           "workload": {"kind": "phh", "eps": 2.0, "delta": 1e-6,
                        "marked_stage": "aggregate"},
           "policy": {"channels": ["page", "cache", "cipher", "pmc"], "targeted": True},
           "prior": {"kind": "table", "table": {"a.io": 1, "b.dev": 1, "c.de": 1,
                                                "d.fr": 1, "f.com": 4, "g.org": 4}},
           "interest": {"kind": "list", "values": ["a.io", "b.dev", "c.de", "d.fr"]},
           "n_traces": 6, "base_seed": 5}
    out = tmp_path / "ds"
    code, _, _ = run_cli(capsys, "simulate", "--config", write_config(tmp_path, obj),
                         "--out", str(out))
    assert code == EXIT_OK
    rows = [json.loads(line) for line in (out / "manifest.jsonl").read_text().splitlines()]
    members = [r["label"][1] for r in rows if r["label"][0] == 1]
    assert members and len(set(members)) == len(members)
    code, rep, err = run_cli(capsys, "analyze", "--dataset", str(out), "--fingerprint",
                             "--trials", "2")
    assert code == EXIT_RUNTIME and rep is None
    assert "ValueError: trial 0: the test split is empty, so its accuracy would be NaN" in err


def test_analyze_refuses_an_edited_trace_of_a_config_without_reuse(capsys, tmp_path):
    # a synthetic_loop run reuses no observation, and its manifest row
    # still holds its file's sha256: a trace that lost code fetches but
    # still parses fails the analysis instead of changing its features
    from leaklab.trace import parse_trace

    out = tmp_path / "ds"
    code, _, _ = run_cli(capsys, "simulate", "--config", write_config(tmp_path, LOOP_CONFIG),
                         "--out", str(out))
    assert code == EXIT_OK
    path = out / "traces" / "trace_00000.txt"
    lines = path.read_text().splitlines(keepends=True)
    cf = [i for i, line in enumerate(lines) if line.startswith("CF ")]
    assert len(cf) >= 12
    path.write_text("".join(line for i, line in enumerate(lines) if i not in cf[2:]))
    parse_trace(path.read_text())
    code, rep, err = run_cli(capsys, "analyze", "--dataset", str(out), "--sets", "F1",
                             "--trials", "2")
    assert code == EXIT_RUNTIME and rep is None
    assert "trace_00000.txt: trace file does not match its sha256" in err


def test_analyze_refuses_the_older_dataset_format(capsys, loop_dataset, tmp_path):
    # rows that also carry their path and game, and dataset.json copies
    # of facts the hashed config holds
    import shutil

    root = tmp_path / "old"
    shutil.copytree(loop_dataset, root)
    rows = [json.loads(line) for line in (root / "manifest.jsonl").read_text().splitlines()]
    for i, row in enumerate(rows):
        row.update(path=f"traces/trace_{i:05d}.txt", game="distinguish")
    (root / "manifest.jsonl").write_text("".join(json.dumps(r) + "\n" for r in rows))
    meta = json.loads((root / "dataset.json").read_text())
    meta.update(game="distinguish", base_seed=12, labels="binary")
    (root / "dataset.json").write_text(json.dumps(meta))
    code, rep, err = run_cli(capsys, "analyze", "--dataset", str(root), "--sets", "F1",
                             "--trials", "2")
    assert code == EXIT_CONFIG and rep is None
    assert (f"{root / 'manifest.jsonl'} row 0: $: Additional properties are not allowed "
            "('game', 'path' were unexpected)") in err


def test_analyze_feature_sets(capsys, loop_dataset):
    capsys.readouterr()
    code, rep, _ = run_cli(capsys, "analyze", "--dataset", str(loop_dataset),
                           "--sets", "F1", "--trials", "2")
    assert code == EXIT_OK
    sets = rep["results"]["advantage"]["sets"]
    assert set(sets) == {"F1"}
    f1 = sets["F1"]
    assert 0 <= f1["normalized_mean"] <= 1
    assert len(f1["accuracies"]) == 2
    assert rep["config_hash"] == json.loads(
        (loop_dataset / "dataset.json").read_text())["config_hash"]


def test_analyze_seq_and_union(capsys, loop_dataset, monkeypatch):
    from leaklab import games
    from leaklab.analysis import advantage_reports, evaluate_seq_advantage
    from leaklab.features import FeatureParams

    parsed = []
    parse = games.parse_trace
    monkeypatch.setattr(games, "parse_trace",
                        lambda text: parsed.append(text) or parse(text))
    capsys.readouterr()
    # at one job, so that the parses happen in this process and are counted
    code, rep, _ = run_cli(capsys, "analyze", "--dataset", str(loop_dataset),
                           "--sets", "F1,F5", "--seq", "--trials", "2", "--jobs", "1")
    assert code == EXIT_OK
    assert set(rep["results"]["advantage"]["sets"]) == {"F1", "F5", "union"}
    assert "seq" in rep["results"]["seq"]["sets"]
    # --sets with --seq walks the dataset once ...
    ds = games.LabeledDataset.load(loop_dataset)
    assert len(parsed) == len(ds) == 12
    # ... and reports what the two separate measurements report
    p = rep["params"]
    kw = {k: p[k] for k in ("trials", "test_frac", "l2_lambda", "iterations")}
    params = FeatureParams(n_bins=p["n_bins"], m_cf=p["m_cf"], m_da=p["m_da"])
    apart = {"advantage": advantage_reports(ds, ["F1", "F5"], params=params,
                                            **kw)["advantage"],
             "seq": evaluate_seq_advantage(ds, **kw)}
    for key, report in apart.items():
        assert rep["results"][key] == json.loads(json.dumps(report.to_json()))


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_analyze_warns_of_zero_filled_sets(capsys, loop_dataset, monkeypatch, jobs):
    # a page-only dataset has no cache or cipher channel: F2, F3 and F4
    # are zero-filled, each said once on stderr, and the report is the
    # one analyze wrote before it printed these warnings
    import hashlib

    from leaklab import analysis

    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 0)  # a pool at --jobs 2
    capsys.readouterr()
    code = main(["analyze", "--dataset", str(loop_dataset), "--sets", "all",
                 "--trials", "2", "--jobs", jobs])
    out, err = capsys.readouterr()
    assert code == EXIT_OK
    warned = [line for line in err.splitlines() if line.startswith("leaklab: warning: ")]
    assert [w.split()[2] for w in warned] == ["F2:", "F3:", "F4:"]
    assert all(w.endswith("their features are zero-filled") for w in warned)
    assert hashlib.sha256(out.replace(str(loop_dataset), "DATASET").encode()).hexdigest() \
        == "b1964ec9847f98be087fec17131366d128ff796b6a352d9e46def46ba2861c82"


def test_analyze_fails_loudly_on_an_unconverged_fit(capsys, loop_dataset):
    # separable traces and no penalty: two iterations end far from a zero
    # gradient, so the report is not ok
    capsys.readouterr()
    code, rep, err = run_cli(capsys, "analyze", "--dataset", str(loop_dataset),
                             "--sets", "F1", "--trials", "2", "--l2-lambda", "0",
                             "--iterations", "2")
    assert code == EXIT_VERIFY and rep["ok"] is False
    assert "a fit of set F1 did not converge" in err
    assert set(rep["results"]["advantage"]["sets"]) == {"F1"}


def test_analyze_svg_output(capsys, loop_dataset, tmp_path):
    capsys.readouterr()
    svg = tmp_path / "adv.svg"
    code, _, _ = run_cli(capsys, "analyze", "--dataset", str(loop_dataset),
                         "--sets", "F1", "--trials", "2", "--svg", str(svg))
    assert code == EXIT_OK
    assert svg.read_text().startswith("<svg")


def test_analyze_usage_errors(capsys, loop_dataset, tmp_path):
    capsys.readouterr()
    code, _, err = run_cli(capsys, "analyze", "--dataset", str(tmp_path))
    assert code == EXIT_CONFIG and "dataset" in err

    code, _, err = run_cli(capsys, "analyze", "--dataset", str(loop_dataset),
                           "--sets", "F9")
    assert code == EXIT_CONFIG and "F9" in err

    code, _, err = run_cli(capsys, "analyze", "--dataset", str(loop_dataset),
                           "--sets", "")
    assert code == EXIT_CONFIG and "nothing to analyze" in err

    code, _, err = run_cli(capsys, "analyze", "--dataset", str(loop_dataset),
                           "--fingerprint")
    assert code == EXIT_CONFIG and "fingerprint" in err


@pytest.mark.parametrize("argv, flag", [
    (["analyze", "--trials", "0"], "--trials"),
    (["analyze", "--iterations", "0"], "--iterations"),
    (["analyze", "--test-frac", "1.5"], "--test-frac"),
    (["analyze", "--n-bins", "0"], "--n-bins"),
    (["analyze", "--m-cf", "0"], "--m-cf"),
    (["analyze", "--m-da", "0"], "--m-da"),
    (["analyze", "--fingerprint", "--seq"], "--seq"),
    (["covert", "--text", "hi", "--reps", "0"], "--reps"),
    (["simulate", "--jobs", "0"], "--jobs"),
    (["analyze", "--l2-lambda", "-1"], "--l2-lambda"),
    (["analyze", "--l2-lambda", "nan"], "--l2-lambda"),
    (["analyze", "--l2-lambda", "inf"], "--l2-lambda"),
    (["bound", "--eps", "0.1", "--delta", "2"], "--delta"),
    (["bound", "--eps", "0.1", "--delta", "1"], "--delta"),
    (["bound", "--eps", "0.1", "--delta", "-1"], "--delta"),
    (["bound", "--eps", "0.1", "--delta", "nan"], "--delta"),
    (["bound", "--eps", "nan", "--delta", "0.01"], "--eps"),
    (["bound", "--eps", "inf", "--delta", "0.01"], "--eps"),
    (["sweep", "--eps-list", "0.1", "--delta", "2"], "--delta"),
    (["sweep", "--eps-list", "0.1", "--delta", "-1"], "--delta"),
    (["sweep", "--eps-list", "0.1", "--delta", "nan"], "--delta"),
    (["sweep", "--eps-list", "0.1,nan", "--delta", "0.01"], "--eps-list"),
    (["bound", "--eps", "0.1", "--delta", "0.01", "--claim-eps", "nan"], "--claim-eps"),
    (["bound", "--eps", "0.1", "--delta", "0.01", "--claim-eps", "-1"], "--claim-eps"),
    (["bound", "--eps", "0.1", "--delta", "0.01", "--claim-eps", "0"], "--claim-eps"),
    (["bound", "--eps", "0.1", "--delta", "0.01", "--claim-eps", "inf"], "--claim-eps"),
    (["bound", "--eps", "0.1", "--delta", "0.01", "--claim-eps", "1",
      "--claim-delta", "nan"], "--claim-delta"),
    (["bound", "--eps", "0.1", "--delta", "0.01", "--claim-eps", "1",
      "--claim-delta", "2"], "--claim-delta"),
    (["bound", "--eps", "0.1", "--delta", "0.01", "--claim-eps", "1",
      "--claim-delta", "1"], "--claim-delta"),
    (["bound", "--eps", "0.1", "--delta", "0.01", "--claim-eps", "1",
      "--claim-delta", "-0.5"], "--claim-delta"),
    (["bound", "--eps", "0.1", "--delta", "0.01", "--claim-delta", "0.5"],
     "--claim-delta"),
    (["analyze", "--jobs", "0"], "--jobs must be >= 1"),
    (["analyze", "--jobs", "-1"], "--jobs must be >= 1"),
])
def test_out_of_range_flags_are_usage_errors(capsys, loop_dataset, tmp_path, argv, flag):
    # each flag is rejected before any work, naming the flag
    rest = {"analyze": ["--dataset", str(loop_dataset)], "covert": [],
            "simulate": ["--config", write_config(tmp_path, LOOP_CONFIG),
                         "--out", str(tmp_path / "ds")],
            "bound": [], "sweep": []}[argv[0]]
    capsys.readouterr()
    code, rep, err = run_cli(capsys, *argv, *rest)
    assert code == EXIT_CONFIG and rep is None and flag in err
    assert not (tmp_path / "ds").exists()


def test_noisy_dataset_with_empty_line_sets_analyzes(capsys, tmp_path):
    # cache-line drop noise empties line sets; simulate must write them in
    # a form analyze can load
    cfg = write_config(tmp_path, {
        "game": "distinguish",
        "workload": {"kind": "pir_scan", "db_size": 100},
        "policy": {"channels": ["page", "cache", "cipher"], "targeted": True,
                   "cache_noise": {"drop_prob": 0.9}},
        "x0": 3, "x1": 90, "traces_per_class": 4, "base_seed": 2,
    })
    out = tmp_path / "ds"
    code, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(out))
    assert code == EXIT_OK
    texts = [f.read_text() for f in sorted((out / "traces").iterdir())]
    assert any(" CL -\n" in t for t in texts)
    code, rep, _ = run_cli(capsys, "analyze", "--dataset", str(out),
                           "--sets", "F1,F2", "--trials", "2")
    assert code == EXIT_OK
    assert set(rep["results"]["advantage"]["sets"]) == {"F1", "F2", "union"}


def test_covert_roundtrip(capsys, tmp_path):
    out = tmp_path / "covert.txt"
    code, rep, _ = run_cli(capsys, "covert", "--text", "attack at dawn",
                           "--reps", "2", "--out", str(out))
    assert code == EXIT_OK
    r = rep["results"]
    assert r["byte_errors"] == 0
    assert r["error_rate"] == 0.0
    assert r["faults_per_byte"] == 5.0
    assert r["decode_error"] is None
    assert r["bytes_sent"] == 2 * len("attack at dawn")

    from leaklab.trace import parse_trace
    from leaklab.workloads import covert_decode
    assert covert_decode(parse_trace(out.read_text())) == b"attack at dawn" * 2


def test_covert_hex_and_errors(capsys):
    code, rep, _ = run_cli(capsys, "covert", "--hex", "00ff10")
    assert code == EXIT_OK
    assert rep["results"]["bytes_sent"] == 3

    code, _, err = run_cli(capsys, "covert", "--hex", "zz")
    assert code == EXIT_CONFIG and "hex" in err

    code, _, err = run_cli(capsys, "covert", "--text", "")
    assert code == EXIT_CONFIG and "nonempty" in err

    code, _, err = run_cli(capsys, "covert", "--text", "hi",
                           "--channels", "page,cache")
    assert code == EXIT_CONFIG and "cipher" in err


def test_covert_seed_changes_pages(capsys):
    def trace_text(seed):
        code, rep, _ = run_cli(capsys, "covert", "--text", "aa", "--seed", seed)
        assert code == EXIT_OK
        return rep["seed"]

    assert trace_text("1") == 1
    assert trace_text("2") == 2


def test_report_file_written(capsys, tmp_path):
    dest = tmp_path / "report.json"
    code, rep, _ = run_cli(capsys, "bound", "--eps", "1", "--delta", "1e-6",
                           "--report", str(dest))
    assert code == EXIT_OK
    on_disk = json.loads(dest.read_text())
    assert on_disk == rep


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "leaklab", "bound",
                           "--eps", "0.5", "--delta", "0.01"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    rep = json.loads(proc.stdout)
    assert rep["command"] == "bound"


# Test dependencies only: no command loads them.
TEST_ONLY = ("scipy", "jsonschema", "referencing", "attrs")


def test_non_fit_commands_leave_scipy_unloaded(tmp_path):
    # simulate (also --dry-run), bound, sweep and covert must run without
    # loading any scipy or jsonschema module
    cfg = write_config(tmp_path, LOOP_CONFIG)
    code = f"""
import contextlib, io, sys
from leaklab.cli import main
runs = [
    ["simulate", "--config", {cfg!r}, "--out", {str(tmp_path / "dry")!r}, "--dry-run"],
    ["simulate", "--config", {cfg!r}, "--out", {str(tmp_path / "ds")!r}],
    ["bound", "--eps", "0.5", "--delta", "0.01", "--claim-eps", "1"],
    ["sweep", "--eps-list", "0.1,0.5", "--delta", "0.01"],
    ["covert", "--text", "hi"],
]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in runs]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] in {TEST_ONLY!r}))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[0, 0, 0, 0, 0] []"
    assert (tmp_path / "ds" / "dataset.json").is_file()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_analyze_leaves_scipy_unloaded(tmp_path, loop_dataset, jobs):
    # the n-gram matrix and the solver are numpy only (and never call
    # np.unique, which loads numpy.ma), the schema checker is in-module,
    # and reading a dataset needs no simulator; at --jobs 2
    # the walk's pool runs too (a chunk per head lets these small
    # datasets start one)
    fp = tmp_path / "fp"
    cfg = {**FP_CONFIG, "n_traces": 30, "base_seed": 31,
           "prior": {"kind": "table",
                     "table": {"a.io": 4, "b.io": 3, "c.com": 3, "d.com": 2}},
           "interest": {"kind": "list", "values": ["a.io", "b.io", "c.com"]}}
    assert main(["simulate", "--config", write_config(tmp_path, cfg),
                 "--out", str(fp)]) == EXIT_OK
    code = f"""
import contextlib, io, sys
import leaklab.analysis
from leaklab.cli import main
leaklab.analysis._CHUNK_BYTES = 0
def scipy_after(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["analyze", *argv, "--trials", "2", "--jobs", {jobs!r}]) == 0, argv
    return sorted(m for m in sys.modules if m.split(".")[0] in {TEST_ONLY!r}
                  or m.startswith(("leaklab.machine", "leaklab.workloads"))
                  or m.split(".")[:2] == ["numpy", "ma"])
print(scipy_after("--dataset", {str(fp)!r}, "--fingerprint"))
print(scipy_after("--dataset", {str(loop_dataset)!r}, "--sets", "all"))
print(scipy_after("--dataset", {str(loop_dataset)!r}, "--sets", "all", "--seq"))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.split("\n") == ["[]", "[]", "[]", ""]


def test_simulate_and_analyze_run_without_scipy(tmp_path):
    # scipy and jsonschema are test dependencies only: with every import
    # of them made to fail, simulate and analyze --seq still run
    cfg = write_config(tmp_path, LOOP_CONFIG)
    ds = str(tmp_path / "ds")
    code = f"""
import contextlib, io, json, sys
sys.modules["scipy"] = sys.modules["jsonschema"] = None
from leaklab.cli import main
def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(list(argv))
    return code, json.loads(out.getvalue())
sim, _ = run("simulate", "--config", {cfg!r}, "--out", {ds!r})
ana, rep = run("analyze", "--dataset", {ds!r}, "--sets", "all", "--seq", "--trials", "2",
               "--jobs", "1")
print(sim, ana, sorted(rep["results"]))
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0 0 ['advantage', 'n_traces', 'seq']"


# Workload kinds that take no run seed: their configs never draw from numpy.
SEEDLESS_CONFIGS = {
    "pir_scan": {"game": "distinguish", "workload": {"kind": "pir_scan", "db_size": 64},
                 "policy": {"channels": ["page", "cache", "cipher", "pmc"], "targeted": True},
                 "x0": 3, "x1": 40, "sybil": {"kind": "copies", "value": 0, "count": 2},
                 "traces_per_class": 3, "base_seed": 11},
    "pir_hashmap": {"game": "distinguish", "workload": {"kind": "pir_hashmap", "db_size": 40},
                    "policy": {"channels": ["page", "cache", "cipher", "pmc"],
                               "targeted": True},
                    "x0": "record-00003", "x1": "missing",
                    "sybil": {"kind": "copies", "value": "record-00001", "count": 2},
                    "traces_per_class": 3, "base_seed": 12},
}


def _files(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("kind", sorted(SEEDLESS_CONFIGS))
def test_seedless_simulate_runs_without_numpy(capsys, tmp_path, kind):
    # with every import of numpy made to fail, simulate (also --dry-run)
    # on a seedless config still runs, and writes the dataset that a
    # process with numpy writes
    cfg = write_config(tmp_path, SEEDLESS_CONFIGS[kind])
    bare = tmp_path / "bare"
    code = f"""
import contextlib, io, sys
sys.modules["numpy"] = None
from leaklab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(["simulate", "--config", {cfg!r}, "--out", {str(bare)!r}, *extra])
             for extra in (["--dry-run"], [])]
print(codes)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[0, 0]"
    code, _, _ = run_cli(capsys, "simulate", "--config", cfg, "--out", str(tmp_path / "normal"))
    assert code == EXIT_OK
    assert _files(bare) == _files(tmp_path / "normal")
    assert len(_files(bare)) == 2 + 6


def test_covert_runs_without_numpy():
    code = """
import contextlib, io, sys
sys.modules["numpy"] = None
from leaklab.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["covert", "--text", "hi"])
print(code)
"""
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "0"


def test_simulate_counts_observations_of_a_reusable_config(capsys, tmp_path):
    scan = {"game": "distinguish", "workload": {"kind": "pir_scan", "db_size": 64},
            "policy": {"channels": ["page", "cipher"], "targeted": True},
            "x0": 3, "x1": 40, "traces_per_class": 3, "base_seed": 11}
    # a config whose observations are not reusable places one per run
    for name, obj, want in [("scan", scan, 2), ("loop", LOOP_CONFIG, 4)]:
        out = tmp_path / name
        code, rep, _ = run_cli(capsys, "simulate", "--config",
                               write_config(tmp_path, obj, f"{name}.json"), "--out", str(out))
        assert code == EXIT_OK
        assert rep["results"].get("observations") == want
        code, rep, _ = run_cli(capsys, "analyze", "--dataset", str(out), "--sets", "F1")
        assert code == EXIT_OK and set(rep["results"]) == {"n_traces", "advantage"}
