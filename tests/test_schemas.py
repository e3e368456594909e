"""Bundled schema integrity and validator behavior."""

import dataclasses

import jsonschema
import pytest

from leaklab.machine import CollectorPolicy
from leaklab.schemas import (
    SCHEMA_NAMES,
    SchemaError,
    load_schema,
    validate_config,
    validate_manifest_row,
    validate_report,
)

GOOD_CONFIG = {
    "game": "distinguish",
    "workload": {"kind": "synthetic_loop", "eps": 0.5, "delta": 1e-6},
    "policy": {"channels": ["page"], "targeted": True},
    "x0": 2, "x1": 9, "traces_per_class": 3, "base_seed": 7,
}

GOOD_REPORT = {
    "kind": "leaklab-report", "tool": "leaklab", "version": "0.1.0",
    "command": "bound", "seed": None, "config_hash": "0" * 64,
    "params": {"eps": 1.0}, "results": {"advantage_bound": 0.1}, "ok": True,
}


def test_schemas_are_valid_draft2020():
    for name in SCHEMA_NAMES:
        jsonschema.Draft202012Validator.check_schema(load_schema(name))
    with pytest.raises(ValueError):
        load_schema("nonexistent")


def test_config_validator_accepts_and_rejects():
    validate_config(GOOD_CONFIG)
    fp = {
        "game": "fingerprint",
        "workload": {"kind": "phh", "eps": 0.1, "delta": 1e-9,
                     "mitigated": True, "hash_seed": 3},
        "policy": {"channels": ["page", "cache", "cipher", "pmc"],
                   "targeted": True,
                   "cache_noise": {"drop_prob": 0.1, "flip_prob": 0.0}},
        "n_traces": 10,
        "prior": {"kind": "power_law", "exponent": 0.5},
        "interest": {"kind": "non_generic_tld"},
        "sybil": {"fill_stride": 2},
    }
    validate_config(fp)
    bad = [
        {**GOOD_CONFIG, "game": "quiz"},
        {**GOOD_CONFIG, "policy": {"channels": []}},
        {**GOOD_CONFIG, "policy": {"channels": ["page", "page"]}},
        {**GOOD_CONFIG, "policy": {"channels": ["tlb"]}},
        {**GOOD_CONFIG, "policy": {"channels": ["page"], "skip_unencrypted": True}},
        {**GOOD_CONFIG, "policy": {"channels": ["page"], "skip_reserved": True}},
        {**GOOD_CONFIG, "policy": {"channels": ["page"], "rng_seed": 3}},
        {**GOOD_CONFIG, "workload": {"kind": "phh", "eps": -1}},
        {**GOOD_CONFIG, "workload": {"kind": "phh", "delta": 1.0}},
        {**GOOD_CONFIG, "workload": {"no_kind": True}},
        {**GOOD_CONFIG, "surprise": 1},
        {k: v for k, v in GOOD_CONFIG.items() if k != "policy"},
    ]
    for obj in bad:
        with pytest.raises(SchemaError):
            validate_config(obj)


def test_config_policy_keys_are_collector_policy_fields():
    # every policy key a config may set is a CollectorPolicy field, and
    # every field can be set; the noise probabilities nest under cache_noise
    props = load_schema("config")["properties"]["policy"]["properties"]
    fields = {f.name for f in dataclasses.fields(CollectorPolicy)}
    noise = {"drop_prob", "flip_prob"}
    assert noise <= fields
    assert set(props) == (fields - noise) | {"cache_noise"}
    assert set(props["cache_noise"]["properties"]) == noise


def test_config_error_carries_json_path():
    with pytest.raises(SchemaError) as exc:
        validate_config({**GOOD_CONFIG,
                         "policy": {"channels": ["page", "tlb"]}})
    assert "channels" in str(exc.value)


def test_report_validator():
    validate_report(GOOD_REPORT)
    validate_report({k: v for k, v in GOOD_REPORT.items()
                     if k not in ("seed", "config_hash", "ok")})
    bad = [
        {**GOOD_REPORT, "kind": "other"},
        {**GOOD_REPORT, "command": "explode"},
        {**GOOD_REPORT, "config_hash": "xyz"},
        {**GOOD_REPORT, "extra": 1},
        {k: v for k, v in GOOD_REPORT.items() if k != "results"},
    ]
    for obj in bad:
        with pytest.raises(SchemaError):
            validate_report(obj)


def test_manifest_validator():
    row = {"path": "traces/trace_00000.txt", "label": 1, "game": "distinguish",
           "seed": 123}
    validate_manifest_row(row)
    validate_manifest_row({**row, "label": [1, 45], "game": "fingerprint"})
    for obj in [
        {**row, "label": "one"},
        {**row, "path": 5},
        {**row, "extra": True},
        {k: v for k, v in row.items() if k != "seed"},
    ]:
        with pytest.raises(SchemaError):
            validate_manifest_row(obj)


def test_written_manifests_validate(tmp_path):
    from leaklab.games import GameConfig, run_distinguishing_game
    import json

    cfg = GameConfig.from_json(dict(GOOD_CONFIG))
    run_distinguishing_game(cfg, out_dir=tmp_path / "ds")
    rows = (tmp_path / "ds" / "manifest.jsonl").read_text().splitlines()
    assert rows
    for line in rows:
        validate_manifest_row(json.loads(line))
