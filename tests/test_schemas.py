"""Bundled schema integrity and validator behavior."""

import ast
import collections
import contextlib
import copy
import dataclasses
import io
import json
import random
import runpy
from pathlib import Path

import jsonschema
import pytest

from leaklab.machine import CollectorPolicy
from leaklab.schemas import (
    SCHEMA_NAMES,
    SchemaError,
    _check_keywords,
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

# long lists for the differential test's mutations to race errors in
LIST_CONFIG = {
    "game": "distinguish",
    "workload": {"kind": "pir_scan", "db_size": 64,
                 "zero_value_indices": [1, 2, 3, 5, 8, 13, 21, 34, 55, 56, 57, 60]},
    "policy": {"channels": ["page", "cipher"]},
    "x0": 3, "x1": 40, "traces_per_class": 2,
    "sybil": {"kind": "list", "values": [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]},
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
    row = {"seed": 123, "label": 1, "obs": 0, "sha256": "0" * 64}
    validate_manifest_row(row)
    validate_manifest_row({**row, "label": [1, 45]})
    for obj in [
        {**row, "label": "one"},
        {**row, "sha256": 5},
        {**row, "extra": True},
        {k: v for k, v in row.items() if k != "seed"},
    ]:
        with pytest.raises(SchemaError):
            validate_manifest_row(obj)


def test_written_manifests_validate(tmp_path):
    from leaklab.games import GameConfig, run_distinguishing_game

    cfg = GameConfig.from_json(dict(GOOD_CONFIG))
    run_distinguishing_game(cfg, out_dir=tmp_path / "ds")
    rows = (tmp_path / "ds" / "manifest.jsonl").read_text().splitlines()
    assert rows
    for line in rows:
        validate_manifest_row(json.loads(line))


# ---------------------------------------------------------------------------
# the in-module checker against the jsonschema oracle
# ---------------------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent


def _literal_configs() -> list[dict]:
    """Every constant dict literal with a "game" key in tests/ and demos/."""
    found = []
    for path in sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Dict) and any(
                    isinstance(k, ast.Constant) and k.value == "game" for k in node.keys):
                with contextlib.suppress(ValueError):
                    found.append(ast.literal_eval(node))
    return found


def _benchmark_configs() -> list[dict]:
    spec = runpy.run_path(str(ROOT / "benchmarks" / "spec.py"))
    return [w.config(w.traces) for w in spec["WORKLOADS"].values()]


@pytest.fixture(scope="module")
def emitted(tmp_path_factory) -> dict[str, list[dict]]:
    """The manifest rows and reports that simulate and analyze emit."""
    from leaklab.cli import main

    tmp = tmp_path_factory.mktemp("emitted")
    scan = {**GOOD_CONFIG, "workload": {"kind": "pir_scan", "db_size": 24},
            "sybil": {"kind": "copies", "value": 5, "count": 2}}
    fp = {"game": "fingerprint",
          "workload": {"kind": "phh", "eps": 2.0, "delta": 1e-6},
          "policy": {"channels": ["page"], "targeted": True}, "n_traces": 12,
          "prior": {"kind": "table", "table": {"a.io": 3, "b.io": 2, "c.com": 1}},
          "interest": {"kind": "list", "values": ["a.io", "b.io"]}}
    runs = []
    for name, cfg, flags in [("loop", GOOD_CONFIG, ["--sets", "all", "--seq"]),
                             ("scan", scan, ["--sets", "F1,F3"]),
                             ("fp", fp, ["--fingerprint"])]:
        (tmp / f"{name}.json").write_text(json.dumps(cfg))
        ds = str(tmp / name)
        runs += [["simulate", "--config", str(tmp / f"{name}.json"), "--out", ds],
                 ["analyze", "--dataset", ds, "--trials", "2", *flags]]
    runs += [["bound", "--eps", "0.5", "--delta", "0.01", "--claim-eps", "1"],
             ["sweep", "--eps-list", "0.1,0.5", "--delta", "0.01"]]
    reports = []
    for argv in runs:
        with contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(argv) == 0, argv
        reports.append(json.loads(out.getvalue()))
    rows = [json.loads(line) for name in ("loop", "scan", "fp")
            for line in (tmp / name / "manifest.jsonl").read_text().splitlines()]
    return {"report": reports, "manifest": rows}


def _schema_words() -> tuple[list[str], list]:
    """Every property name and every enum or const value in the schemas."""
    names, values = set(), []

    def walk(node):
        if isinstance(node, dict):
            names.update(node.get("properties", {}))
            values.extend(node.get("enum", []))
            if "const" in node:
                values.append(node["const"])
            for sub in node.values():
                walk(sub)
        elif isinstance(node, list):
            for sub in node:
                walk(sub)

    for name in SCHEMA_NAMES:
        walk(load_schema(name))
    return sorted(names), values


_NAMES, _ENUM_VALUES = _schema_words()
_NAMES += ["surprise", "a.io", "x y", "it's", ""]
_VALUES = _ENUM_VALUES + [
    None, True, False, 0, 1, 2, -1, 3.0, 0.5, 1.5, -0.5, 1e-9, 10**20, 1e300,
    "", "x", "a.io", "0" * 64, "A" * 64, [], [1], [1, 1], [1, True], [1, 1.0],
    ["page"], ["page", "page"], [0, 2], {}, {"kind": "list"}, {"kind": "copies"},
]


def _containers(obj, where=()):
    """``(where, container)`` for ``obj`` and each container in it; ``where``
    is the path of keys to it, with None for each list index."""
    yield where, obj
    items = obj.items() if isinstance(obj, dict) else ((None, v) for v in obj)
    for key, value in items:
        if isinstance(value, (dict, list)):
            yield from _containers(value, where + (key,))


def _mutate(obj, donors: dict, rng: random.Random):
    """``obj`` with one to three random edits, each at a random container.

    An edit deletes a member, or sets one to a value taken from a donor:
    mostly a container at the same place in one of the base objects,
    else any container in them, else ``_VALUES``.  A list may also grow
    to at least 12 members, two of them replaced from ``_VALUES``, so that
    errors at indices 2 to 9 and 10 on race for the first path.
    """
    obj = copy.deepcopy(obj)
    anywhere = [c for same in donors.values() for c in same]
    for _ in range(rng.choice((1, 1, 2, 3))):
        # walk down from the root, stopping at each level with some chance,
        # so shallow and deep edits are both common
        node, where = obj, ()
        while rng.random() < 0.6:
            inner = [(k, v) for k, v in (node.items() if isinstance(node, dict)
                                         else ((None, v) for v in node))
                     if isinstance(v, (dict, list))]
            if not inner:
                break
            step, node = rng.choice(inner)
            where += (step,)
        donor = rng.choice(donors.get(where, anywhere) if rng.random() < 0.7 else anywhere)
        key = rng.choice(_NAMES)
        if not donor or rng.random() < 0.2:
            value = rng.choice(_VALUES)
        elif isinstance(donor, dict):
            key, value = rng.choice(list(donor.items()))
        else:
            value = rng.choice(donor)
        value = copy.deepcopy(value)
        op = rng.randrange(3)
        if op == 0 and node:
            del node[rng.choice(list(node)) if isinstance(node, dict) else rng.randrange(len(node))]
        elif isinstance(node, dict):
            node[rng.choice(list(node)) if op == 1 and node else key] = value
        elif op == 1 and node:
            node[rng.randrange(len(node))] = value
        else:
            while len(node) < 12:
                node.append(copy.deepcopy(rng.choice(node or [value])))
            for lo, hi in ((2, 10), (10, len(node))):
                node[rng.randrange(lo, hi)] = copy.deepcopy(rng.choice(_VALUES))
    return obj


def _outcome(validate, obj, name):
    try:
        validate(obj, name)
    except SchemaError as e:
        return str(e)
    return None


def test_checker_matches_jsonschema_oracle(emitted):
    from leaklab.schemas import _validate

    from oracle_schemas import oracle_validate

    rng = random.Random(20261020)
    bases = {"config": _literal_configs() + _benchmark_configs(), **emitted}
    cases = {"config": 1800, "manifest": 700, "report": 700}
    assert len(bases["config"]) >= 20 and len(bases["manifest"]) > 20
    for name, n in cases.items():
        verdicts = collections.Counter()
        donors = collections.defaultdict(list)
        for base in bases[name]:
            for where, container in _containers(base):
                donors[where].append(container)
        objs = bases[name] + [_mutate(rng.choice(bases[name]), donors, rng)
                              for _ in range(n)]
        for obj in objs:
            want = _outcome(oracle_validate, obj, name)
            got = _outcome(_validate, obj, name)
            assert (got is None) == (want is None), (name, obj, want, got)
            if want is not None:
                assert got.split(": ")[0] == want.split(": ")[0], (name, obj, want, got)
            verdicts[want is None] += 1
        # both verdicts are common, so the mutations test both sides
        assert min(verdicts.values()) > 0.1 * len(objs), (name, verdicts)


def test_first_error_is_at_the_smallest_path():
    # indices compare as numbers: [2] precedes [10]
    values = [0] * 12
    values[2] = values[10] = -1
    cfg = {**GOOD_CONFIG, "workload": {**GOOD_CONFIG["workload"], "zero_value_indices": values}}
    with pytest.raises(SchemaError, match=r"^\$\.workload\.zero_value_indices\[2\]: -1 is less"):
        validate_config(cfg)
    # an object's own error precedes its members'
    cfg = {k: v for k, v in GOOD_CONFIG.items() if k != "x0"}
    with pytest.raises(SchemaError, match=r"^\$: 'x0' is a required property"):
        validate_config({**cfg, "policy": {"channels": ["tlb"]}})


def test_checker_keeps_draft2020_semantics():
    row = {"seed": 0, "label": 1, "obs": 0, "sha256": "0" * 64}
    loop = GOOD_CONFIG["workload"]
    cases = [
        # a bool is never a number; an integral float is an integer
        (validate_manifest_row, {**row, "label": True}, "$.label: True is not of type"),
        (validate_manifest_row, {**row, "label": 1.0, "seed": 2.0}, None),
        (validate_manifest_row, {**row, "seed": 2.5}, "$.seed: 2.5 is not of type"),
        (validate_report, {**GOOD_REPORT, "ok": 1}, "$.ok: 1 is not of type 'boolean'"),
        # enum, const and uniqueItems compare by JSON equality
        (validate_report, {**GOOD_REPORT, "kind": True}, "$.kind: 'leaklab-report' was"),
        (validate_config, {**GOOD_CONFIG, "policy": {"channels": [1, True]}},
         "$.policy.channels[0]: 1 is not one of"),
        (validate_config, {**GOOD_CONFIG, "policy": {"channels": ["page", "page"]}},
         "$.policy.channels: ['page', 'page'] has non-unique"),
        # inclusive and exclusive bounds
        (validate_config, {**GOOD_CONFIG, "workload": {**loop, "eps": 0}},
         "$.workload.eps: 0 is less than or equal to the minimum of 0"),
        (validate_config, {**GOOD_CONFIG, "workload": {**loop, "delta": 0}},
         "$.workload.delta: 0 is less than or equal to the minimum of 0"),
        (validate_config, {**GOOD_CONFIG, "workload": {"kind": "pir_scan", "db_size": 1,
                                                       "delta": 0}, "base_seed": 0}, None),
        (validate_config, {**GOOD_CONFIG, "policy": {
            "channels": ["cache"], "cache_noise": {"drop_prob": 1, "flip_prob": 0}}}, None),
        (validate_config, {**GOOD_CONFIG, "policy": {
            "channels": ["cache"], "cache_noise": {"drop_prob": 1.5}}},
         "$.policy.cache_noise.drop_prob: 1.5 is greater than the maximum of 1"),
    ]
    for validate, obj, want in cases:
        if want is None:
            validate(obj)
        else:
            with pytest.raises(SchemaError) as exc:
                validate(obj)
            assert str(exc.value).startswith(want), (str(exc.value), want)


def test_checker_refuses_unsupported_keywords():
    for name in SCHEMA_NAMES:
        load_schema(name)
    for schema in [{"patternProperties": {"^x": {}}},
                   {"properties": {"a": {"$ref": "#"}}},
                   {"allOf": [{"if": {"anyOf": [{}]}}]},
                   {"items": {"not": {}}},
                   {"oneOf": [{"type": "integer"}]},
                   {"properties": {"a": {"minLength": 1}}}]:
        with pytest.raises(ValueError, match="unsupported schema keyword"):
            _check_keywords(schema)
    with pytest.raises(ValueError, match="is an object or a bool"):
        _check_keywords({"properties": {"a": []}})
