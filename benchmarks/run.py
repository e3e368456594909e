"""Benchmark: ``leaklab simulate`` then ``leaklab analyze`` on one workload.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a source checkout; the program under test is
the checkout's ``src/leaklab``.  With ``--trace 0`` it times the two
commands a user runs, untraced, in rounds until ``--seconds`` have
passed, and reports the end-to-end metrics.  With ``--trace 1`` it runs
the commands once, then repeats their work in-process through the
library, first untraced and then with a span around every call into the
public functions of workloads, machine, trace, games, features and
analysis, and reports the per-layer metrics.  Either way every output is
checked (see checks.py), a run record is printed, and the last line of
stdout is the result object.  NOTES.md describes workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checks import CheckFailed, canonical_rows, check_report, digest
from spec import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
OUT = ROOT / "bench_out"
DIGESTS = HERE / "digests.json"

SETUP_REPEATS = 5
# A run must end within 180 s; nothing new starts after this many.
BUDGET_S = 165.0

clock = time.perf_counter


class Ops:
    """Counts attempted and failed operations and runs the CLI."""

    def __init__(self, deadline: float):
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str) -> None:
        self.failed += 1
        print(f"benchmark: FAILED {what}", file=sys.stderr, flush=True)

    def cli(self, command: str, *argv) -> tuple[dict | None, float]:
        """Run one leaklab command; return its checked report and wall time."""
        self.attempted += 1
        cmd = [sys.executable, "-m", "leaklab", command, *map(str, argv)]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        t0 = clock()
        # its own session, so a timeout also stops simulate's pool workers
        proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True,
                                start_new_session=True)
        try:
            out, err = proc.communicate(timeout=max(1.0, self.deadline - t0))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            self.fail(f"{command}: timed out")
            return None, clock() - t0
        wall = clock() - t0
        try:
            if proc.returncode != 0:
                raise CheckFailed(f"exit code {proc.returncode}: {err.strip()[-500:]}")
            return check_report(out, command), wall
        except CheckFailed as e:
            self.fail(f"{command}: {e}")
            return None, wall


def recorded_digest(name: str, n: int, seed: int) -> str | None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    return table.get(f"{name}/{n}", {}).get(str(seed))


def check_digest(ops: Ops, wl: Workload, n: int, seed: int, value: str) -> None:
    want = recorded_digest(wl.name, n, seed)
    if want is None:
        print(f"benchmark: digest {wl.name}/{n} seed {seed} {value} "
              "(no recorded digest for this seed)", file=sys.stderr)
    elif want != value:
        ops.fail(f"digest {value} != recorded {want} for {wl.name}/{n} seed {seed}")


def tree_files(directory: Path) -> tuple[str, int]:
    """sha256 over relative paths and bytes of all files below
    ``directory`` (bytecode caches left out), and their total bytes."""
    h = hashlib.sha256()
    total = 0
    for p in sorted(directory.rglob("*")):
        if p.is_file() and "__pycache__" not in p.parts:
            data = p.read_bytes()
            total += len(data)
            h.update(str(p.relative_to(directory)).encode() + b"\0")
            h.update(data)
    return h.hexdigest(), total


def write_config(work: Path, wl: Workload, n: int) -> tuple[Path, dict]:
    cfg = wl.config(n)
    path = work / "config.json"
    path.write_text(json.dumps(cfg))
    return path, cfg


def simulate_args(cfg_path: Path, out: Path, seed: int, jobs: int) -> list:
    return ["--config", cfg_path, "--out", out, "--jobs", jobs, "--seed", seed]


# ---------------------------------------------------------------------------
# --trace 0: end-to-end metrics
# ---------------------------------------------------------------------------

def timed_run(wl: Workload, n: int, seed: int, seconds: float, work: Path,
              ops: Ops) -> dict:
    cfg_path, _ = write_config(work, wl, n)
    ds = work / "dataset"
    metrics: dict = {}

    setup = []
    for _ in range(SETUP_REPEATS):
        rep, wall = ops.cli("simulate", *simulate_args(cfg_path, ds, seed, wl.jobs),
                            "--dry-run")
        if rep is None:
            return metrics
        if rep["results"]["planned_traces"] != n:
            ops.fail(f"dry run plans {rep['results']['planned_traces']} traces, not {n}")
            return metrics
        setup.append(wall)
    metrics["setup_s"] = (statistics.median(setup), "s")

    sim_rates, ana_rates = [], []
    first = None  # the first round's dataset file hash and analyze results
    t0 = clock()
    while True:
        r0 = clock()
        shutil.rmtree(ds, ignore_errors=True)
        sim, sim_s = ops.cli("simulate", *simulate_args(cfg_path, ds, seed, wl.jobs))
        if sim is None:
            break
        if sim["results"]["n_traces"] != n:
            ops.fail(f"simulate wrote {sim['results']['n_traces']} traces, not {n}")
            break
        files, size = tree_files(ds)
        if first is not None and files != first[0]:
            ops.fail("a round's dataset differs from the first round's")
            break
        sim_rates.append(n / sim_s)
        ana, ana_s = ops.cli("analyze", "--dataset", ds, *wl.analyze_args)
        if ana is None:
            break
        if first is None:
            first = (files, ana["results"])
            metrics["dataset_bytes_per_trace"] = (size / n, "B")
            try:
                rows = canonical_rows(ds)
            except Exception:  # noqa: BLE001 - an unloadable dataset fails
                ops.fail(f"loading the dataset raised:\n{traceback.format_exc()}")
                break
            check_digest(ops, wl, n, seed, digest(rows, ana["results"]))
        elif ana["results"] != first[1]:
            ops.fail("analyze results differ from the first round's")
            break
        ana_rates.append(n / ana_s)
        # no round starts that would end past --seconds if it lasted as
        # long as this one, so a run lasts its set-up plus --seconds
        now = clock()
        last = now - r0
        if now - t0 + last > seconds or now + last > ops.deadline:
            break

    if sim_rates:
        metrics["simulate_traces_per_s"] = (statistics.median(sim_rates), "traces/s")
    if ana_rates:
        metrics["analyze_traces_per_s"] = (statistics.median(ana_rates), "traces/s")
    # largest resident set of any finished child: the dry runs, simulate
    # (its pool workers included) and analyze
    peak_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib * 1024 / 1e6, "MB")
    print(f"benchmark: {n} traces; simulate traces/s "
          f"{[round(r, 3) for r in sim_rates]}, analyze traces/s "
          f"{[round(r, 3) for r in ana_rates]}", file=sys.stderr)
    return metrics


# ---------------------------------------------------------------------------
# --trace 1: per-layer metrics
# ---------------------------------------------------------------------------

def traced_run(wl: Workload, n: int, seed: int, work: Path, ops: Ops) -> dict:
    from layers import collect_layers

    cfg_path, cfg = write_config(work, wl, n)
    ds = work / "dataset"
    sim, _ = ops.cli("simulate", *simulate_args(cfg_path, ds, seed, wl.jobs))
    if sim is None:
        return {}
    ana, _ = ops.cli("analyze", "--dataset", ds, *wl.analyze_args)
    if ana is None:
        return {}
    ops.attempted += 2  # the untraced and the traced in-process rounds
    try:
        layers = collect_layers(wl, cfg, seed, ds, work)
    except Exception:  # noqa: BLE001 - a library failure is a failed operation
        ops.fail(f"in-process round raised:\n{traceback.format_exc()}")
        return {}
    for problem in layers.problems(ana["results"]):
        ops.fail(problem)
    check_digest(ops, wl, n, seed, digest(layers.rows, ana["results"]))
    OUT.mkdir(exist_ok=True)
    layers.tracer.dump(OUT / f"spans_{wl.name}_seed{seed}.jsonl")
    return layers.metrics()


# ---------------------------------------------------------------------------
# run record and entry point
# ---------------------------------------------------------------------------

def run_record() -> dict:
    import numpy
    import scipy

    pkg = SRC / "leaklab"
    lines = sum(p.read_bytes().count(b"\n") for p in pkg.rglob("*.py")
                if "__pycache__" not in p.parts)
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit, "src_sha256": tree_files(pkg)[0],
            "src_leaklab_lines": lines}


def load_program() -> bool:
    """Put the checkout's ``src`` first on the path and import leaklab."""
    if not (SRC / "leaklab" / "__init__.py").is_file():
        print(f"benchmark: no program to measure: {SRC / 'leaklab'} is missing",
              file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import leaklab

    if Path(leaklab.__file__).resolve().parent != SRC / "leaklab":
        print(f"benchmark: imported leaklab from {leaklab.__file__}, not {SRC}",
              file=sys.stderr)
        return False
    return True


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--traces", type=int, default=None,
                   help="trace count override (smoke runs); digests are "
                        "recorded for the default only")
    args = p.parse_args(argv)
    start = clock()
    if not load_program():
        return 2

    wl = WORKLOADS[args.workload]
    n = args.traces or wl.traces
    ops = Ops(start + BUDGET_S)
    work = WORK / f"{wl.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        if args.trace:
            metrics = traced_run(wl, n, args.seed, work, ops)
        else:
            metrics = timed_run(wl, n, args.seed, args.seconds, work, ops)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {
        "correct": ops.failed == 0,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = run_record()
    OUT.mkdir(exist_ok=True)
    (OUT / f"BENCH_{wl.name}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"workload": wl.name, "seed": args.seed, "traces": n,
                    "seconds": args.seconds, "trace": args.trace,
                    "record": record, "result": result}, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
