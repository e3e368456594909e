"""Guest-side workloads that run against :class:`leaklab.machine.SimMachine`.

A workload is a callable taking the machine and returning its functional
output; everything observable happens through machine reads, writes,
executes and branches.  ``build_workload`` constructs one from the JSON
configuration shape used by game configs and the command line.
"""

from __future__ import annotations

from ..machine import CollectorPolicy
from .covert import CovertDecodeError, CovertSender, SecretMessage, covert_decode
from .hashmap import PRIME_LADDER, SimHashMap
from .oram import OramPir, PathOram
from .phh import HeavyHitters, PhhResult, SyntheticLoop
from .pir import HashMapPir, LinearScanPir, make_db_values

__all__ = [
    "SimHashMap",
    "PRIME_LADDER",
    "HeavyHitters",
    "PhhResult",
    "SyntheticLoop",
    "LinearScanPir",
    "HashMapPir",
    "make_db_values",
    "PathOram",
    "OramPir",
    "SecretMessage",
    "CovertSender",
    "covert_decode",
    "CovertDecodeError",
    "build_workload",
    "observation_reusable",
]

# Workload kinds that ``build_workload`` gives no run seed: their tap is
# a function of the config and the inputs alone.
_UNSEEDED_KINDS = frozenset({"pir_scan", "pir_hashmap"})


def build_workload(cfg: dict, inputs: list, run_seed: int):
    """Instantiate a workload from its JSON config plus per-run inputs.

    ``inputs`` is the game-assembled element list (Sybil data with the
    target appended last); its meaning is workload-specific: keys for the
    aggregation service, query indices for the retrieval workloads.
    """
    kind = cfg.get("kind")
    if kind == "phh":
        return HeavyHitters(
            inputs=inputs,
            eps=cfg["eps"],
            delta=cfg["delta"],
            mitigated=cfg.get("mitigated", False),
            marked_stage=cfg.get("marked_stage", "noise_threshold"),
            seed=run_seed,
            hash_seed=cfg.get("hash_seed", 0),
        )
    if kind == "synthetic_loop":
        return SyntheticLoop(
            extra=int(inputs[-1]),
            eps=cfg["eps"],
            delta=cfg["delta"],
            seed=run_seed,
        )
    if kind == "pir_scan":
        db = make_db_values(cfg["db_size"], cfg.get("zero_value_indices", ()))
        return LinearScanPir(db, queries=[int(q) for q in inputs])
    if kind == "pir_oram":
        db = make_db_values(cfg["db_size"], cfg.get("zero_value_indices", ()))
        return OramPir(
            db, queries=[int(q) for q in inputs],
            zero_block_flaw=cfg.get("flaw", False),
            seed=run_seed,
            height=cfg.get("height"),
        )
    if kind == "pir_hashmap":
        keys = [f"record-{i:05d}" for i in range(cfg["db_size"])]
        return HashMapPir(keys, queries=[str(q) for q in inputs],
                          seed=cfg.get("hash_seed", 0))
    raise ValueError(f"unknown workload kind: {kind!r}")


def observation_reusable(cfg: dict, policy: CollectorPolicy) -> bool:
    """Whether a run's observation depends on its inputs alone.

    The collector must be noiseless (a noisy policy gets a per-run noise
    seed), and the run seed must not reach what it keeps.  It cannot when
    the workload kind takes no run seed.  Nor can it for phh with the
    ``aggregate`` window under a targeted policy: stage one draws no
    randomness, and the padding and noise the run seed drives come after
    the window closes, where a targeted policy keeps nothing.  (Its
    ``noise_threshold`` window holds the noise draws; an untargeted
    policy keeps what follows the window.)  The pages of such an
    observation are placed per run, so one observation serves every run
    with the same inputs.
    """
    if policy.drop_prob or policy.flip_prob:
        return False
    kind = cfg.get("kind")
    return kind in _UNSEEDED_KINDS or (
        kind == "phh" and policy.targeted and cfg.get("marked_stage") == "aggregate")
