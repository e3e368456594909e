"""Game protocols, priors, the bundled universe, and dataset IO."""

import collections
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from leaklab.games import (
    DatasetEntry,
    GameConfig,
    LabeledDataset,
    PriorDistribution,
    build_sybil_inputs,
    bundled_url_list,
    derive_seed,
    interesting_subset,
    run_distinguishing_game,
    run_fingerprinting_game,
)
from leaklab.machine import CollectorPolicy, Placement, SimMachine, observe
from leaklab.schemas import SchemaError
from leaklab.trace import write_trace
from leaklab.workloads import (
    PRIME_LADDER,
    HashMapPir,
    HeavyHitters,
    LinearScanPir,
    OramPir,
    SyntheticLoop,
    build_workload,
)
from leaklab.workloads.phh import Aggregation

from conftest import assert_same_text
from oracle_collect import oracle_collect, place

LOOP_CFG = dict(
    game="distinguish",
    workload={"kind": "synthetic_loop", "eps": 5.0, "delta": 1e-6},
    policy={"channels": ["page"], "targeted": True},
    x0=2, x1=9, traces_per_class=3, base_seed=77,
)


def test_derive_seed_stable_and_distinct():
    assert derive_seed(1, "a") == derive_seed(1, "a")
    assert derive_seed(1, "a") != derive_seed(1, "b")
    assert derive_seed(1, "a") != derive_seed("1", "a")  # type-aware
    assert derive_seed(1, "run", 0) != derive_seed(1, "run", 1)
    for parts in [(0,), ("x", 2**62), (1, "run", 5)]:
        s = derive_seed(*parts)
        assert 0 <= s < 2**63


def test_prior_normalization_and_lookup():
    p = PriorDistribution(("a", "b", "c"), (2.0, 1.0, 1.0))
    assert abs(sum(p.probs) - 1.0) < 1e-12
    assert p.prob_of("a") == 0.5
    assert p.prob_of("zzz") == 0.0
    assert abs(p.mass({"b", "c", "nope"}) - 0.5) < 1e-12


def test_prior_power_law_ranks():
    p = PriorDistribution.power_law(("r0", "r1", "r2", "r3"), exponent=0.5)
    # weight ratio between consecutive ranks is (r+1)^-0.5 / (r+2)^-0.5
    assert abs(p.probs[0] / p.probs[1] - 2**0.5) < 1e-12
    assert abs(p.probs[0] / p.probs[3] - 4**0.5) < 1e-12
    t = PriorDistribution.from_table({"k": 3, "j": 1})
    assert t.prob_of("k") == 0.75


def test_prior_validation():
    with pytest.raises(ValueError):
        PriorDistribution(("a",), (0.5, 0.5))
    with pytest.raises(ValueError):
        PriorDistribution(("a", "a"), (0.5, 0.5))
    with pytest.raises(ValueError):
        PriorDistribution(("a", "b"), (-1.0, 2.0))
    with pytest.raises(ValueError):
        PriorDistribution(("a", "b"), (0.0, 0.0))


def test_prior_sample_follows_probs():
    p = PriorDistribution(("hot", "cold"), (0.9, 0.1))
    rng = np.random.default_rng(5)
    draws = [p.sample(rng) for _ in range(500)]
    assert 400 < draws.count("hot") < 490
    rng2 = np.random.default_rng(5)
    assert draws[:20] == [p.sample(rng2) for _ in range(20)]


def test_bundled_universe_golden():
    urls = bundled_url_list()
    assert len(urls) == 1000
    assert len(set(urls)) == 1000
    digest = hashlib.sha256("\n".join(urls).encode()).hexdigest()
    assert digest.startswith("19f0b0824a406088")
    assert urls == bundled_url_list()
    non_generic = [u for u in urls if not u.endswith((".com", ".org", ".net"))]
    assert len(non_generic) == 301


def test_interesting_subset_kinds():
    urls = bundled_url_list()
    default = interesting_subset(urls)
    assert len(default) == 301
    assert default == interesting_subset(urls, {"kind": "non_generic_tld"})
    picked = interesting_subset(urls, {"kind": "list", "values": urls[5:8]})
    assert picked == urls[5:8]
    with pytest.raises(ValueError):
        interesting_subset(urls, {"kind": "list", "values": ["not-in-universe.xx"]})
    with pytest.raises(ValueError):
        interesting_subset(urls, {"kind": "sorted"})


def test_build_sybil_inputs_structure():
    interesting = [f"i{k}.io" for k in range(301)]
    seq = build_sybil_inputs(interesting)
    assert len(seq) == len(set(seq)) == 1109  # smallest rung >= 301 * 3
    assert seq[0] == "i0.io" and seq[3] == "i1.io"
    assert seq[1] == "sybil://00000" and seq[2] == "sybil://00001"
    assert [u for u in seq if not u.startswith("sybil://")] == interesting
    small = build_sybil_inputs(["a.io", "b.io"], fill_stride=2)
    assert len(set(small)) == 13  # padded up to the first ladder rung


def test_game_config_validation():
    with pytest.raises(ValueError):
        GameConfig(game="quiz", workload={}, policy={})
    with pytest.raises(ValueError):
        GameConfig(game="distinguish", workload={}, policy={}, x0=1, x1=1,
                   traces_per_class=5)
    with pytest.raises(ValueError):
        GameConfig(game="distinguish", workload={}, policy={}, x0=0, x1=1)
    with pytest.raises(ValueError):
        GameConfig(game="fingerprint", workload={}, policy={}, n_traces=0)
    with pytest.raises(ValueError):
        GameConfig.from_json({"game": "fingerprint", "n_traces": 1,
                              "workload": {}, "policy": {}, "bogus": 1})


def test_game_config_hash_and_roundtrip():
    cfg = GameConfig.from_json(dict(LOOP_CFG))
    again = GameConfig.from_json(cfg.to_json())
    assert again == cfg
    assert again.config_hash() == cfg.config_hash()
    bumped = GameConfig.from_json({**LOOP_CFG, "x1": 10})
    assert bumped.config_hash() != cfg.config_hash()
    assert len(cfg.config_hash()) == 64


def test_distinguishing_game_plan(tmp_path):
    cfg = GameConfig.from_json(dict(LOOP_CFG))
    ds = run_distinguishing_game(cfg, tmp_path / "d")
    assert len(ds) == 6
    labels = [e.label for e in ds.entries]
    assert labels == [0, 1, 0, 1, 0, 1]
    seeds = [e.seed for e in ds.entries]
    assert len(set(seeds)) == 6
    assert seeds[0] == derive_seed(77, "run", 0)
    assert ds.metadata["config_hash"] == cfg.config_hash()
    assert ds.metadata["n"] == 6
    # longer secret produces strictly more code fetches at eps this large
    t0, t1 = ds.entries[0].load(), ds.entries[1].load()
    assert len(t1.events) > len(t0.events)


def test_distinguishing_game_deterministic(tmp_path):
    cfg = GameConfig.from_json(dict(LOOP_CFG))
    a = run_distinguishing_game(cfg, tmp_path / "a")
    b = run_distinguishing_game(cfg, tmp_path / "b")
    texts_a = [write_trace(e.load()) for e in a.entries]
    texts_b = [write_trace(e.load()) for e in b.entries]
    assert texts_a == texts_b
    c = run_distinguishing_game(GameConfig.from_json({**LOOP_CFG, "base_seed": 78}),
                                tmp_path / "c")
    assert [write_trace(e.load()) for e in c.entries] != texts_a


def test_dataset_save_load_roundtrip(tmp_path):
    cfg = GameConfig.from_json(dict(LOOP_CFG))
    ds = run_distinguishing_game(cfg, out_dir=tmp_path / "d1")
    assert (tmp_path / "d1" / "dataset.json").exists()
    rows = [json.loads(l) for l in (tmp_path / "d1" / "manifest.jsonl").read_text().splitlines()]
    assert len(rows) == 6
    assert all(set(r) == {"path", "label", "game", "seed", "obs", "sha256"} for r in rows)
    back = LabeledDataset.load(tmp_path / "d1")
    assert back.game == "distinguish"
    assert back.base_seed == 77
    assert [e.label for e in back.entries] == [e.label for e in ds.entries]
    for mem, disk in zip(ds.entries, back.entries):
        assert write_trace(mem.load()) == write_trace(disk.load())
    assert back.metadata["config_hash"] == cfg.config_hash()


FP_CFG = dict(
    game="fingerprint",
    workload={"kind": "phh", "eps": 2.0, "delta": 1e-6, "mitigated": False},
    policy={"channels": ["page", "cache", "cipher", "pmc"], "targeted": True},
    n_traces=8, base_seed=31,
    prior={"kind": "table", "table": {"a.io": 4, "b.io": 2, "c.com": 3, "d.com": 1}},
    interest={"kind": "list", "values": ["a.io", "b.io"]},
)


def test_fingerprinting_game_labels_and_metadata(tmp_path):
    cfg = GameConfig.from_json(dict(FP_CFG))
    ds = run_fingerprinting_game(cfg, out_dir=tmp_path / "fp")
    assert len(ds) == 8
    # members of the interest set carry their index, others (0, -1)
    for e in ds.entries:
        flag, idx = e.label
        assert (flag, idx) in {(1, 0), (1, 1), (0, -1)}
    # a.io + b.io hold 6 of 10 mass units
    assert abs(ds.s_c - 0.6) < 1e-12
    assert abs(ds.s_f - (0.4 / 0.6)) < 1e-12
    assert ds.metadata["interest_size"] == 2
    assert ds.metadata["sybil_distinct"] == 13
    back = LabeledDataset.load(tmp_path / "fp")
    assert [e.label for e in back.entries] == [e.label for e in ds.entries]
    assert isinstance(back.entries[0].label, tuple)
    assert back.s_c == ds.s_c and back.s_f == ds.s_f


def test_fingerprinting_game_deterministic(tmp_path):
    cfg = GameConfig.from_json(dict(FP_CFG))
    a = run_fingerprinting_game(cfg, tmp_path / "a")
    b = run_fingerprinting_game(cfg, tmp_path / "b")
    assert [e.label for e in a.entries] == [e.label for e in b.entries]
    assert [write_trace(e.load()) for e in a.entries] == \
        [write_trace(e.load()) for e in b.entries]


def test_game_runner_type_checks(tmp_path):
    cfg = GameConfig.from_json(dict(LOOP_CFG))
    with pytest.raises(ValueError, match="not a fingerprinting game"):
        run_fingerprinting_game(cfg, tmp_path / "f")
    with pytest.raises(ValueError, match="not a distinguishing game"):
        run_distinguishing_game(GameConfig.from_json(dict(FP_CFG)), tmp_path / "d")
    assert list(tmp_path.iterdir()) == []


def _dir_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("cfg_obj", [LOOP_CFG, FP_CFG], ids=["distinguish", "fingerprint"])
def test_parallel_generation_matches_serial(tmp_path, cfg_obj):
    cfg = GameConfig.from_json(dict(cfg_obj))
    run = run_fingerprinting_game if cfg.game == "fingerprint" else run_distinguishing_game
    ds = run(cfg, out_dir=tmp_path / "s")
    run(cfg, out_dir=tmp_path / "p", jobs=2)
    serial, parallel = _dir_bytes(tmp_path / "s"), _dir_bytes(tmp_path / "p")
    assert len(serial) == len(ds) + 2  # traces, manifest.jsonl, dataset.json
    assert serial == parallel


def test_generation_refuses_a_used_out_dir(tmp_path):
    cfg = GameConfig.from_json(dict(LOOP_CFG))
    run_distinguishing_game(cfg, out_dir=tmp_path / "d")
    before = _dir_bytes(tmp_path / "d")
    with pytest.raises(ValueError, match="not empty"):
        run_distinguishing_game(cfg, out_dir=tmp_path / "d")
    assert _dir_bytes(tmp_path / "d") == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["d"]


def test_dataset_load_rejects_truncated_manifest(tmp_path):
    cfg = GameConfig.from_json(dict(LOOP_CFG))
    run_distinguishing_game(cfg, out_dir=tmp_path / "d")
    manifest = tmp_path / "d" / "manifest.jsonl"
    rows = manifest.read_text().splitlines(keepends=True)
    manifest.write_text("".join(rows[:-1]))
    with pytest.raises(ValueError, match="manifest has 5 rows"):
        LabeledDataset.load(tmp_path / "d")


def test_dataset_load_rejects_bad_label(tmp_path):
    cfg = GameConfig.from_json(dict(LOOP_CFG))
    run_distinguishing_game(cfg, out_dir=tmp_path / "d")
    manifest = tmp_path / "d" / "manifest.jsonl"
    rows = [json.loads(line) for line in manifest.read_text().splitlines()]
    rows[2]["label"] = "one"
    manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))
    with pytest.raises(SchemaError):
        LabeledDataset.load(tmp_path / "d")


def test_dataset_load_rejects_edited_config(tmp_path):
    cfg = GameConfig.from_json(dict(LOOP_CFG))
    run_distinguishing_game(cfg, out_dir=tmp_path / "d")
    meta_path = tmp_path / "d" / "dataset.json"
    meta = json.loads(meta_path.read_text())
    meta["config"]["x1"] = 10
    meta_path.write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
    with pytest.raises(ValueError, match="config_hash"):
        LabeledDataset.load(tmp_path / "d")


# -- observation reuse ---------------------------------------------------------

FULL_POLICY = {"channels": ["page", "cache", "cipher", "pmc"], "targeted": True}
AT_RUNG = {"kind": "list",
           "values": [f"s{i % PRIME_LADDER[1]:02d}.io" for i in range(40)]}

KIND_CFGS = {
    "phh": dict(workload={"kind": "phh", "eps": 2.0, "delta": 1e-6},
                x0="a.io", x1="b.io",
                sybil={"kind": "copies", "value": "c.io", "count": 5}),
    "phh-mitigated": dict(workload={"kind": "phh", "eps": 2.0, "delta": 1e-6,
                                    "mitigated": True},
                          x0="a.io", x1="b.io",
                          sybil={"kind": "list", "values": ["c.io", "d.io"]}),
    # the sybil list fills the table to a ladder rung (29 buckets), so
    # the new secret x1 forces a growth pass inside the window
    "phh-aggregate": dict(workload={"kind": "phh", "eps": 2.0, "delta": 1e-6,
                                    "marked_stage": "aggregate"},
                          x0="s07.io", x1="new.io", sybil=AT_RUNG),
    "phh-aggregate-mitigated": dict(workload={"kind": "phh", "eps": 2.0, "delta": 1e-6,
                                              "mitigated": True,
                                              "marked_stage": "aggregate"},
                                    x0="s07.io", x1="new.io", sybil=AT_RUNG),
    "synthetic_loop": dict(workload={"kind": "synthetic_loop", "eps": 5.0, "delta": 1e-6},
                           x0=2, x1=9),
    "pir_scan": dict(workload={"kind": "pir_scan", "db_size": 200},
                     x0=13, x1=170, sybil={"kind": "copies", "value": 0, "count": 2}),
    "pir_scan-noisy": dict(workload={"kind": "pir_scan", "db_size": 200},
                           policy={**FULL_POLICY, "cache_noise": {"drop_prob": 0.5}},
                           x0=13, x1=170),
    "pir_hashmap": dict(workload={"kind": "pir_hashmap", "db_size": 40},
                        x0="record-00003", x1="missing",
                        sybil={"kind": "copies", "value": "record-00001", "count": 2}),
    "pir_oram": dict(workload={"kind": "pir_oram", "db_size": 16, "height": 4,
                               "zero_value_indices": [3], "flaw": True},
                     x0=3, x1=9, sybil={"kind": "copies", "value": 5, "count": 2}),
}


def _kind_config(name):
    return GameConfig.from_json({"game": "distinguish", "policy": FULL_POLICY,
                                 "traces_per_class": 3, "base_seed": 5,
                                 **KIND_CFGS[name]})


def _sybil_inputs(sybil):
    """The distinguishing game's shared inputs, read off its sybil config."""
    if sybil.get("kind") == "copies":
        return [sybil["value"]] * sybil["count"]
    return list(sybil.get("values", []))


PLACED_POLICIES = {
    "targeted": FULL_POLICY,
    "untargeted": {**FULL_POLICY, "targeted": False},
    "noisy": {**FULL_POLICY, "cache_noise": {"drop_prob": 0.3, "flip_prob": 0.2}},
    # bare MA lines
    "page-pmc": {"channels": ["page", "pmc"], "targeted": True},
    # every cache-line set dropped: CL -
    "no-lines": {"channels": ["page", "cache", "cipher"], "targeted": False,
                 "cache_noise": {"drop_prob": 1.0}},
    "cipher-pmc": {"channels": ["cipher", "pmc"], "targeted": True},
}


@pytest.mark.parametrize("policy", sorted(PLACED_POLICIES))
@pytest.mark.parametrize("kind", sorted(KIND_CFGS))
def test_placed_writer_matches_place(kind, policy):
    cfg = KIND_CFGS[kind]
    observing = SimMachine(cipher_seed=1, alloc_seed=2)
    build_workload(cfg["workload"], _sybil_inputs(cfg.get("sybil", {})) + [cfg["x1"]],
                   3)(observing)
    obs = observe(observing, observing.tap,
                  CollectorPolicy.from_json(PLACED_POLICIES[policy]), 4)
    for run in (observing, SimMachine(cipher_seed=5, alloc_seed=6)):
        text = write_trace(obs.trace(7), Placement(obs, run))
        assert_same_text(text, write_trace(place(obs, run, 7)))
    lines = text.splitlines()
    if policy == "page-pmc":
        assert all(len(ln.split()) == 2 for ln in lines if ln.startswith("MA "))
    if policy == "no-lines":
        assert all(ln.endswith(" CL -") for ln in lines if ln.startswith("MA "))


def _oracle_traces(cfg):
    """Each run on a fresh machine, collected by the one-pass collector."""
    inputs = _sybil_inputs(cfg.sybil)
    out = []
    for i in range(2 * cfg.traces_per_class):
        run_seed = derive_seed(cfg.base_seed, "run", i)
        m = SimMachine(cipher_seed=derive_seed(run_seed, "cipher"),
                       alloc_seed=derive_seed(run_seed, "alloc"))
        workload = build_workload(cfg.workload, inputs + [cfg.x1 if i % 2 else cfg.x0],
                                  derive_seed(run_seed, "workload"))
        policy = CollectorPolicy.from_json(cfg.policy)
        m.reset_tap()
        workload(m)
        out.append(write_trace(oracle_collect(m, m.tap, policy, run_seed,
                                              derive_seed(run_seed, "noise"))))
    return out


@pytest.mark.parametrize("name", list(KIND_CFGS))
def test_game_traces_match_oracle_path(tmp_path, name):
    cfg = _kind_config(name)
    expected = _oracle_traces(cfg)
    ds = run_distinguishing_game(cfg, tmp_path / "s")
    assert [write_trace(e.load()) for e in ds.entries] == expected
    run_distinguishing_game(cfg, out_dir=tmp_path / "p", jobs=2)
    files = sorted((tmp_path / "p" / "traces").iterdir())
    assert [f.read_text() for f in files] == expected


@pytest.fixture
def workload_calls(monkeypatch):
    """Counts workload runs by class name."""
    calls = collections.Counter()
    for cls in (LinearScanPir, HashMapPir, OramPir, SyntheticLoop, HeavyHitters):
        def counted(self, m, _run=cls.__call__):
            calls[type(self).__name__] += 1
            return _run(self, m)
        monkeypatch.setattr(cls, "__call__", counted)
    return calls


def test_each_generation_simulates_its_own_secrets(tmp_path, workload_calls):
    cfg = _kind_config("pir_scan")
    first = run_distinguishing_game(cfg, tmp_path / "first")
    assert workload_calls == {"LinearScanPir": 2}  # one per distinct secret
    second = run_distinguishing_game(cfg, tmp_path / "second")
    assert workload_calls == {"LinearScanPir": 4}
    assert [write_trace(e.load()) for e in first.entries] == \
        [write_trace(e.load()) for e in second.entries]
    run_distinguishing_game(_kind_config("pir_hashmap"), tmp_path / "hashmap")
    assert workload_calls["HashMapPir"] == 2


def test_phh_prefix_is_simulated_once(tmp_path, monkeypatch, workload_calls):
    # one serial generation: every sybil input is inserted once, into the
    # shared checkpoint, and each distinct secret once, into a copy of it
    inserted = collections.Counter()
    insert = Aggregation.insert
    monkeypatch.setattr(Aggregation, "insert",
                        lambda self, key: inserted.update([key]) or insert(self, key))
    for name in ("phh-aggregate", "phh-aggregate-mitigated"):
        inserted.clear()
        cfg = _kind_config(name)
        run_distinguishing_game(cfg, tmp_path / name)
        assert inserted == collections.Counter(_sybil_inputs(cfg.sybil) + [cfg.x0, cfg.x1])
    assert workload_calls == {}


@pytest.mark.parametrize("name", ["pir_scan-noisy", "pir_oram", "synthetic_loop", "phh"])
def test_noisy_or_seeded_runs_never_reuse(tmp_path, workload_calls, name):
    run_distinguishing_game(_kind_config(name), tmp_path / "d")
    assert sum(workload_calls.values()) == 6


@pytest.fixture
def recorded_jobs(monkeypatch):
    """Each generation's job, with the secrets it ran."""
    import leaklab.games as games

    jobs = []

    class Recorded(games._TraceJob):
        def __init__(self, *args):
            super().__init__(*args)
            self.secrets = []
            jobs.append(self)

        def __call__(self, idx, x, run_seed):
            self.secrets.append(x)
            return super().__call__(idx, x, run_seed)

    monkeypatch.setattr(games, "_TraceJob", Recorded)
    return jobs


@pytest.mark.parametrize("cfg_obj", [
    {**FP_CFG, "workload": {**FP_CFG["workload"], "marked_stage": "aggregate"},
     "n_traces": 12},
    {"game": "distinguish", "policy": FULL_POLICY, "traces_per_class": 3,
     **KIND_CFGS["pir_scan"]},
    {"game": "distinguish", "policy": FULL_POLICY, "traces_per_class": 1,
     **KIND_CFGS["pir_hashmap"]},
], ids=["fingerprint", "distinguish", "distinguish-once"])
def test_job_keeps_only_repeated_secrets(tmp_path, recorded_jobs, workload_calls, cfg_obj):
    cfg = GameConfig.from_json(cfg_obj)
    run = run_fingerprinting_game if cfg.game == "fingerprint" else run_distinguishing_game
    ds = run(cfg, tmp_path / "d")
    (job,) = recorded_jobs
    uses = collections.Counter(repr(x) for x in job.secrets)
    assert len(job.secrets) == len(ds)
    assert set(job.observations) == {k for k, n in uses.items() if n > 1}
    # a secret that runs once is observed once and not kept
    observed = len(uses) if cfg.game == "distinguish" else 0
    assert sum(workload_calls.values()) == observed
    if cfg.game == "fingerprint":
        assert 0 < len(job.observations) < len(uses)


# -- observation groups in the manifest ----------------------------------------

FP_AGG_CFG = {**FP_CFG, "workload": {**FP_CFG["workload"], "marked_stage": "aggregate"},
              "n_traces": 12}


def _manifest(root):
    return [json.loads(line) for line in (root / "manifest.jsonl").read_text().splitlines()]


def _write_manifest(root, rows):
    (root / "manifest.jsonl").write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in rows))


def _first_of_each_secret(cfg):
    import leaklab.games as games

    first = {}
    return [first.setdefault(repr(x), i) for i, (x, _, _) in enumerate(games._plan(cfg)[1])]


@pytest.mark.parametrize("cfg_obj", [
    FP_AGG_CFG,
    {"game": "distinguish", "policy": FULL_POLICY, "traces_per_class": 3,
     **KIND_CFGS["pir_scan"]},
], ids=["fingerprint", "distinguish"])
def test_reusable_manifest_names_groups_and_digests(tmp_path, cfg_obj):
    cfg = GameConfig.from_json(cfg_obj)
    run = run_fingerprinting_game if cfg.game == "fingerprint" else run_distinguishing_game
    groups = _first_of_each_secret(cfg)
    assert len(set(groups)) < len(groups)
    ds = run(cfg, out_dir=tmp_path / "d")
    rows = _manifest(tmp_path / "d")
    assert [r["obs"] for r in rows] == [e.obs for e in ds.entries] == groups
    for r in rows:
        data = (tmp_path / "d" / r["path"]).read_bytes()
        assert r["sha256"] == hashlib.sha256(data).hexdigest()
    back = LabeledDataset.load(tmp_path / "d")
    assert [(e.obs, e.sha256) for e in back.entries] == [(r["obs"], r["sha256"]) for r in rows]


def test_other_configs_write_groups_of_one(tmp_path):
    ds = run_distinguishing_game(GameConfig.from_json(dict(LOOP_CFG)), out_dir=tmp_path / "d")
    rows = _manifest(tmp_path / "d")
    assert [r["obs"] for r in rows] == [e.obs for e in ds.entries] == list(range(len(ds)))
    for r, e in zip(rows, ds.entries):
        assert r["sha256"] == e.sha256 == hashlib.sha256(e.path.read_bytes()).hexdigest()


def test_manifest_without_groups_still_loads(tmp_path):
    # a manifest written before every row carried obs and sha256
    run_distinguishing_game(GameConfig.from_json(dict(LOOP_CFG)), out_dir=tmp_path / "d")
    rows = _manifest(tmp_path / "d")
    for r in rows:
        del r["obs"], r["sha256"]
    _write_manifest(tmp_path / "d", rows)
    ds = LabeledDataset.load(tmp_path / "d")
    assert all(e.obs is None and e.sha256 is None for e in ds.entries)
    assert len(ds.heads()) == len(ds)


@pytest.fixture
def reused_dataset(tmp_path):
    """A dataset with an observation group of several runs, and a member."""
    run_fingerprinting_game(GameConfig.from_json(FP_AGG_CFG), out_dir=tmp_path / "d")
    rows = _manifest(tmp_path / "d")
    member = next(i for i, r in enumerate(rows) if r["obs"] != i)
    return tmp_path / "d", rows, member


def _walk_all(root, jobs=1):
    from leaklab.analysis import _Featurize, _walk

    return _walk(LabeledDataset.load(root), _Featurize(None, None), jobs)


def test_walk_checks_every_member_file(reused_dataset):
    root, rows, member = reused_dataset
    path = root / rows[member]["path"]
    head = root / rows[rows[member]["obs"]]["path"]
    _walk_all(root)
    # valid trace text, with the same features, but not the file written
    path.write_bytes(head.read_bytes())
    with pytest.raises(ValueError, match="sha256"):
        _walk_all(root)
    path.unlink()
    with pytest.raises(ValueError, match="missing"):
        _walk_all(root)


@pytest.mark.parametrize("case", ["member-edited", "head-truncated"])
def test_pooled_walk_fails_like_the_serial_one(reused_dataset, capsys, monkeypatch, case):
    import multiprocessing

    from leaklab import analysis
    from leaklab.analysis import fingerprint_advantage
    from leaklab.cli import EXIT_RUNTIME, main
    from leaklab.trace import TraceSyntaxError

    # a dataset this small starts a pool only with a chunk per head
    monkeypatch.setattr(analysis, "_CHUNK_BYTES", 0)
    root, rows, member = reused_dataset
    if case == "member-edited":
        # valid trace text, but not the file written: a member is checked
        # against its sha256 although it is never parsed
        head = root / rows[rows[member]["obs"]]["path"]
        (root / rows[member]["path"]).write_bytes(head.read_bytes())
        want = ValueError
    else:
        # the last group head, cut mid-line, with a sha256 that matches
        last = max(i for i, r in enumerate(rows) if r["obs"] == i)
        path = root / rows[last]["path"]
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        rows[last]["sha256"] = hashlib.sha256(data[: len(data) // 2]).hexdigest()
        _write_manifest(root, rows)
        want = TraceSyntaxError
    assert len(LabeledDataset.load(root).heads()) > 2
    errors = []
    for jobs in (1, 2):
        with pytest.raises(want) as info:
            fingerprint_advantage(LabeledDataset.load(root), trials=2, jobs=jobs)
        errors.append((type(info.value), str(info.value)))
    assert errors[0] == errors[1]
    capsys.readouterr()
    code = main(["analyze", "--dataset", str(root), "--fingerprint", "--trials", "2",
                 "--jobs", "2"])
    assert code == EXIT_RUNTIME and errors[0][1] in capsys.readouterr().err
    # the pool is shut down on the error: no worker outlives the call
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("first", ["head", "member"])
def test_walk_reports_the_first_bad_file_in_dataset_order(reused_dataset, monkeypatch,
                                                          first):
    # a bad head and a bad member, either one first in dataset order: the
    # first is reported at any --jobs, with chunks of one head, of several
    # (in which a later head is loaded before an earlier member is read)
    # and of all of them
    from leaklab import analysis

    root, rows, _ = reused_dataset
    heads = [i for i, r in enumerate(rows) if r["obs"] == i]
    members = [i for i, r in enumerate(rows) if r["obs"] != i]
    if first == "head":
        bad = [heads[1], members[-1]]
    else:
        bad = [members[0], heads[-1]]
    assert bad[0] < bad[1]
    for i in bad:
        (root / rows[i]["path"]).write_bytes(b"not the file written\n")
    want = f"{root / rows[bad[0]]['path']}: trace file does not match its sha256"
    sizes = [(root / rows[i]["path"]).stat().st_size for i in heads]
    for chunk_bytes in (0, sum(sizes) // 3, analysis._CHUNK_BYTES):
        monkeypatch.setattr(analysis, "_CHUNK_BYTES", chunk_bytes)
        for jobs in (1, 2):
            with pytest.raises(ValueError) as info:
                _walk_all(root, jobs)
            assert str(info.value) == want, (chunk_bytes, jobs)


@pytest.mark.parametrize("edit, match", [
    (lambda rows, i: rows[i].update(obs=i + 1), "points forward"),
    (lambda rows, i: rows[i].pop("sha256"), "come together"),
    (lambda rows, i: rows[i].pop("obs"), "come together"),
    (lambda rows, i: rows[rows[i]["obs"]].update(
        label=[0, -1] if rows[i]["label"] != [0, -1] else [1, 0]), "another label"),
], ids=["forward", "no-sha256", "no-obs", "other-label"])
def test_dataset_load_rejects_bad_groups(reused_dataset, edit, match):
    root, rows, member = reused_dataset
    edit(rows, member)
    _write_manifest(root, rows)
    with pytest.raises(ValueError, match=match):
        LabeledDataset.load(root)


def test_dataset_rejects_an_obs_outside_its_group():
    def dataset(*obs, labels=(0, 0, 0)):
        return LabeledDataset("distinguish", 0, [
            DatasetEntry(seed=i, label=y, path=Path(f"t{i}"), obs=o)
            for i, (o, y) in enumerate(zip(obs, labels))])

    assert len(dataset(0, 0, 2)) == len(dataset(0, 1, 1)) == len(dataset(None, None, None)) == 3
    with pytest.raises(ValueError, match="row 2: obs 1 names a row outside its own group"):
        dataset(0, 0, 1)
    with pytest.raises(ValueError, match="row 1: obs 2 points forward"):
        dataset(0, 2, 2)
    with pytest.raises(ValueError, match="row 1: obs -1 is negative"):
        dataset(0, -1, 2)
    with pytest.raises(ValueError, match="row 2: obs 0 names a row with another label"):
        dataset(0, 1, 0, labels=(0, 1, 1))


def test_dataset_load_keeps_paths_inside(tmp_path):
    cfg = GameConfig.from_json(dict(LOOP_CFG))
    for name in ("d", "other"):
        run_distinguishing_game(cfg, out_dir=tmp_path / name)
    rows = _manifest(tmp_path / "d")
    for i, path in [(0, str(tmp_path / "other" / rows[0]["path"])),
                    (1, "../other/traces/trace_00001.txt"),
                    (2, "traces//trace_00002.txt"),
                    (3, "traces/../traces/trace_00003.txt")]:
        bad = [dict(r) for r in rows]
        bad[i]["path"] = path
        _write_manifest(tmp_path / "d", bad)
        with pytest.raises(ValueError, match=f"row {i}: path"):
            LabeledDataset.load(tmp_path / "d")
