"""Record output digests for the benchmark's output check.

    python3 benchmarks/record.py --seeds 1-10 [--workload NAME ...]

Simulates each workload at its default trace count with ``--jobs 1``,
analyzes it, and stores the digest in digests.json under
``<workload>/<traces>`` and the seed.  Timed runs of the fingerprint
workload simulate at ``--jobs 2`` and are checked against these, which
checks that output does not depend on the worker count.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

from checks import canonical_rows, digest
from run import DIGESTS, WORK, Ops, clock, load_program, simulate_args, write_config
from spec import WORKLOADS


def parse_seeds(spec: str) -> list[int]:
    seeds = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = p.parse_args(argv)
    if not load_program():
        return 2
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        for seed in parse_seeds(args.seeds):
            work = WORK / f"record-{name}-{seed}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            try:
                ops = Ops(clock() + 600)
                cfg_path, _ = write_config(work, wl, wl.traces)
                ds = work / "dataset"
                sim, _ = ops.cli("simulate", *simulate_args(cfg_path, ds, seed, 1))
                ana, _ = ops.cli("analyze", "--dataset", ds, *wl.analyze_args)
                if sim is None or ana is None:
                    return 1
                value = digest(canonical_rows(ds), ana["results"])
            finally:
                shutil.rmtree(work, ignore_errors=True)
            table.setdefault(f"{name}/{wl.traces}", {})[str(seed)] = value
            print(f"{name}/{wl.traces} seed {seed} {value}", flush=True)
            DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
