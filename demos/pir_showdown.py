"""Two private-lookup designs against two observers.

The linear scan touches every record for every query, so the page-fault
sequence is literally identical whatever you ask for.  The ciphertext
observer still wins: the scan's accumulator page changes content at a
query-dependent point, and block-level diffs expose it.  The tree-based
oblivious store randomizes its access pattern instead; its weakness is a
data-dependent shortcut that skips re-encrypting all-zero blocks.
"""

import tempfile

from leaklab.analysis import advantage_reports
from leaklab.games import GameConfig, run_distinguishing_game
from leaklab.machine import CollectorPolicy, SimMachine, run_collect
from leaklab.trace import write_trace
from leaklab.workloads import LinearScanPir, make_db_values


def scan_traces_identical() -> bool:
    db = make_db_values(256)
    texts = []
    for q in (3, 128, 255):
        m = SimMachine(cipher_seed=77, alloc_seed=88)
        policy = CollectorPolicy(channels=("page",), targeted=True)
        trace, _ = run_collect(m, LinearScanPir(db, [q]), policy, trace_seed=1)
        texts.append(write_trace(trace))
    return all(t == texts[0] for t in texts)


def scan_cipher_advantage() -> float:
    # a 1000-record table spans enough pages that the accumulator gets
    # evicted mid-scan; each eviction diffs its content at a
    # query-dependent point
    cfg = GameConfig.from_json({
        "game": "distinguish",
        "workload": {"kind": "pir_scan", "db_size": 1000},
        "policy": {"channels": ["page", "cache", "cipher", "pmc"],
                   "targeted": True},
        "x0": 137, "x1": 803,
        "sybil": {"kind": "copies", "value": 0, "count": 3},
        "traces_per_class": 40,
        "base_seed": 3,
    })
    with tempfile.TemporaryDirectory() as out:
        ds = run_distinguishing_game(cfg, out)
        rep = advantage_reports(ds, seq=True, trials=3, test_frac=0.2,
                                l2_lambda=0.1, iterations=1000)["seq"]
    return rep.sets["seq"].normalized_mean


def oram_advantage(flaw: bool) -> float:
    cfg = GameConfig.from_json({
        "game": "distinguish",
        "workload": {"kind": "pir_oram", "db_size": 64, "height": 8,
                     "zero_value_indices": [7], "flaw": flaw},
        "policy": {"channels": ["page", "cache", "cipher", "pmc"],
                   "targeted": True},
        "x0": 7, "x1": 41,
        "sybil": {"kind": "copies", "value": 33, "count": 3},
        "traces_per_class": 150,
        "base_seed": 5,
    })
    with tempfile.TemporaryDirectory() as out:
        ds = run_distinguishing_game(cfg, out)
        rep = advantage_reports(ds, ["F3"], trials=5, test_frac=0.2,
                                l2_lambda=0.1, iterations=1000)["advantage"]
    return rep.sets["F3"].normalized_mean


def main() -> None:
    print("linear scan, page observer:")
    print(f"  traces for queries 3/128/255 identical: {scan_traces_identical()}")
    print("linear scan, ciphertext observer:")
    print(f"  sequence-model advantage: {scan_cipher_advantage():.3f}")
    print("oblivious tree store, full observer:")
    print(f"  F3 advantage, shortcut off: {oram_advantage(False):.3f}")
    print(f"  F3 advantage, shortcut on:  {oram_advantage(True):.3f}")
    print("(record 7 is all zero, record 41 is not; the shortcut skips")
    print(" re-encryption of zero blocks and the diff pattern betrays it)")


if __name__ == "__main__":
    main()
