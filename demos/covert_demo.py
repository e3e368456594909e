"""Covert channel over the ciphertext-diff observer.

The sender never shares memory with the receiver.  It encodes each byte
as the block offset of a single write on an agreed page; the observer
recovers the byte from which 16-byte block changed between page fault
and eviction.
"""

from leaklab.machine import CollectorPolicy, SimMachine, run_collect
from leaklab.trace import DataAccess, windowed_events
from leaklab.workloads import CovertSender, SecretMessage, covert_decode


def main() -> None:
    payload = b"meet at the usual spot, bring the logs"
    msg = SecretMessage(payload, repetitions=3)
    machine = SimMachine(cipher_seed=3, alloc_seed=4)
    policy = CollectorPolicy(channels=("page", "cache", "cipher", "pmc"),
                             targeted=True)

    trace, sent = run_collect(machine, CovertSender(msg), policy, trace_seed=0)
    recovered = covert_decode(trace)

    faults = sum(isinstance(e, DataAccess) for e in windowed_events(trace))
    print(f"sent {sent} bytes ({msg.repetitions} repetitions of {len(payload)})")
    print(f"observer saw {len(trace.events)} events, {faults / sent:.1f} faults/byte")
    print(f"recovered: {recovered[:len(payload)].decode()!r}")
    assert recovered == msg.stream
    print("byte errors: 0")


if __name__ == "__main__":
    main()
