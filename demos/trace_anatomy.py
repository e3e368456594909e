"""Walk through one tiny trace, event by event.

Runs a hand-written workload on the simulated machine, collects every
channel, and annotates each line of the serialized trace so you can see
exactly what an observer on the host side gets to record.
"""

import struct

from leaklab.machine import CollectorPolicy, SimMachine, run_collect
from leaklab.trace import parse_trace, windowed_events, write_trace

NOTES = {
    "CF": "code fetch: execution moved to a new code page",
    "MA": "data page fault, CL lists cache lines touched until evict",
    "CI": "ciphertext diff: page block changed between fault and evict",
    "PN": "counter snapshot: instructions/uops/branches since last one",
    "MARK": "window boundary raised by the workload itself",
}


def tiny_workload(m: SimMachine) -> None:
    code_a = m.alloc_page()
    code_b = m.alloc_page()
    data = m.alloc_page()
    m.exec_page(code_a)
    m.write(data, 0, struct.pack("<Q", 0xFEED))
    m.step()
    with m.marked():
        m.exec_page(code_b)
        m.read(data, 64, 8)
        m.branch(taken=True)
        m.write(data, 128, struct.pack("<Q", 0xBEEF))
        m.step()
    m.exec_page(code_a)
    m.step()


def main() -> None:
    machine = SimMachine(cipher_seed=1, alloc_seed=2)
    policy = CollectorPolicy(channels=("page", "cache", "cipher", "pmc"),
                             targeted=False)
    trace, _ = run_collect(machine, tiny_workload, policy, trace_seed=0)

    text = write_trace(trace)
    print("serialized trace with annotations:")
    print("-" * 60)
    for line in text.splitlines():
        tag = line.split(" ", 1)[0]
        print(f"  {line:<42} # {NOTES.get(tag, 'header')}")
    print("-" * 60)

    assert parse_trace(text) == trace
    print("round-trip parse: ok")
    n_win = len(windowed_events(trace))
    print(f"{len(trace.events)} events total, {n_win} inside the marked window")


if __name__ == "__main__":
    main()
