"""Smoke test of the benchmark itself, at tiny sizes (about a minute).

    python3 benchmarks/smoke.py

* every workload, traced and untraced, runs correct and emits exactly
  the metric names and units BENCHMARK.json declares;
* a 10-trace fingerprint dataset, on which ``leaklab analyze
  --fingerprint`` exits 0 but prints NaN accuracies, counts as a failed
  operation;
* in a directory holding only BENCHMARK.json and the benchmark's files
  the benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 1
# tiny trace counts; at SEED the 16-trace fingerprint dataset repeats a
# member identity, so its identity test split is not empty
TINY = {"fingerprint-phh": 16, "linear-scan-seq": 4}
# at SEED the 10-trace fingerprint dataset has four distinct member
# identities, so the identity test split is empty
NAN_TRACES = 10


def bench(*args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "benchmarks" / "run.py"), *map(str, args)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(TINY):
        problems.append("BENCHMARK.json workloads differ from the smoke list")

    for name, n in TINY.items():
        for trace in (0, 1):
            res = result_of(bench("--workload", name, "--seed", SEED,
                                  "--seconds", 1, "--trace", trace, "--traces", n))
            emitted = {k: v["unit"] for k, v in res["metrics"].items()}
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace {trace}: not correct: {res}")
            if emitted != declared[trace]:
                problems.append(
                    f"{name} trace {trace}: metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(declared[trace]) - set(emitted))}, "
                    f"extra {sorted(set(emitted) - set(declared[trace]))}, units "
                    f"{ {k: (u, declared[trace].get(k)) for k, u in emitted.items() if declared[trace].get(k) != u} }")
            print(f"{name} trace {trace}: {len(emitted)} metrics", flush=True)

    proc = bench("--workload", "fingerprint-phh", "--seed", SEED, "--seconds", 1,
                 "--traces", NAN_TRACES)
    res = result_of(proc)
    if res["correct"] or not res["failed"] or "NaN" not in proc.stderr:
        problems.append(f"NaN report was not counted as failed: {res}")
    print(f"fingerprint-phh at {NAN_TRACES} traces: {res['failed']} failed "
          "operation(s), as expected", flush=True)

    bare = ROOT / ".bench_work" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "benchmarks",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "linear-scan-seq", "--seed", SEED,
                     "--seconds", 1, "--trace", 0, cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, "
                            f"stdout {proc.stdout[:200]!r}")
        print(f"bare directory: exit {proc.returncode}, no result", flush=True)
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"SMOKE FAILED: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
