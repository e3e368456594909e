"""Privacy games: generate labeled trace datasets for attack evaluation.

Two protocols.  The distinguishing game fixes two candidate secrets and
collects traces of the workload run on Sybil-controlled inputs plus one
of the two candidates (appended last, exact class balance).  The
fingerprinting game samples the secret from a public prior over a
bundled element universe and labels each trace with interest-set
membership and identity.

Every run gets its own machine (fresh page-number layout, fresh cipher
key), its own workload randomness and its own collector noise stream,
all derived from the dataset base seed, so nothing but the secret and
the declared config separates the classes.
"""

from __future__ import annotations

import collections
import contextlib
import dataclasses
import hashlib
import json
import os
import random
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

from .pool import ordered_map
from .schemas import SchemaError, validate_manifest_row
from .trace import Trace, parse_trace, write_trace

# The functions that plan and run games import machine and workloads
# themselves, so reading a dataset (all that analyze does here) never
# loads the simulator.  numpy is imported only where a prior is built or
# sampled, so planning a distinguishing game never loads it.
if TYPE_CHECKING:
    import numpy as np

    from .machine import Observation, Observer
    from .workloads import HeavyHitters
    from .workloads.phh import Aggregation

__all__ = [
    "GameConfig",
    "DatasetEntry",
    "LabeledDataset",
    "PriorDistribution",
    "bundled_url_list",
    "interesting_subset",
    "build_sybil_inputs",
    "run_distinguishing_game",
    "run_fingerprinting_game",
    "derive_seed",
]

_MASK63 = 2**63 - 1


def derive_seed(*parts) -> int:
    """Stable 63-bit seed from a tuple of labels and integers."""
    h = hashlib.blake2b(digest_size=8)
    for p in parts:
        h.update(repr(p).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little") & _MASK63


# ---------------------------------------------------------------------------
# priors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PriorDistribution:
    """Finite distribution over hashable elements."""

    support: tuple
    probs: tuple

    def __post_init__(self):
        if len(self.support) != len(self.probs):
            raise ValueError("support and probs length mismatch")
        if len(set(self.support)) != len(self.support):
            raise ValueError("support must be distinct")
        import numpy as np

        p = np.asarray(self.probs, dtype=np.float64)
        if (p < 0).any() or not np.isfinite(p).all() or p.sum() <= 0:
            raise ValueError("probabilities must be finite, non-negative, not all zero")
        p = p / p.sum()
        object.__setattr__(self, "probs", tuple(float(v) for v in p))

    @classmethod
    def power_law(cls, support, exponent: float = 0.5) -> "PriorDistribution":
        """Rank-based decay: element at rank r gets weight (r+1)^-exponent."""
        support = tuple(support)
        w = [(r + 1.0) ** -exponent for r in range(len(support))]
        return cls(support, tuple(w))

    @classmethod
    def from_table(cls, table: dict) -> "PriorDistribution":
        items = list(table.items())
        return cls(tuple(k for k, _ in items), tuple(float(v) for _, v in items))

    def prob_of(self, element) -> float:
        try:
            return self.probs[self.support.index(element)]
        except ValueError:
            return 0.0

    def mass(self, subset) -> float:
        wanted = set(subset)
        return float(sum(p for e, p in zip(self.support, self.probs) if e in wanted))

    def sample(self, rng: np.random.Generator):
        return self.support[int(rng.choice(len(self.support), p=self.probs))]


# ---------------------------------------------------------------------------
# bundled element universe
# ---------------------------------------------------------------------------

_GENERIC_TLDS = (".com", ".org", ".net")

_ADJECTIVES = (
    "quiet", "amber", "brisk", "cedar", "dusty", "ember", "frost", "gentle",
    "hazel", "ivory", "jade", "keen", "lunar", "maple", "noble", "opal",
    "pine", "quartz", "rustic", "silver", "tidal", "umber", "velvet", "wild",
    "arc", "bright", "coral", "deep", "early", "fable", "glen", "harbor",
    "iron", "jolly", "kind", "loyal", "mellow", "north", "old", "prime",
)

_NOUNS = (
    "falcon", "meadow", "anchor", "beacon", "canyon", "delta", "ember2",
    "forge", "grove", "harbor2", "island", "junction", "kettle", "lantern",
    "mill", "nook", "orchard", "prairie", "quarry", "ridge", "spring",
    "trail", "union", "vale", "willow", "yard", "zephyr", "atlas", "basin",
    "cliff", "dune", "estuary", "fjord", "glacier", "heath", "inlet",
    "knoll", "lagoon", "mesa", "oasis",
)

_OTHER_TLDS = (
    ".io", ".dev", ".app", ".co.uk", ".de", ".fr", ".jp", ".ca", ".au",
    ".ch", ".se", ".nl", ".es", ".it", ".fi", ".no", ".pl", ".cz", ".gr",
    ".pt", ".ie", ".be", ".at", ".dk", ".nz", ".kr", ".mx", ".br", ".in",
    ".za",
)

_UNIVERSE_SIZE = 1000
_INTEREST_SIZE = 301


def bundled_url_list() -> list[str]:
    """Deterministic 1000-hostname universe; exactly 301 have a TLD
    outside {.com, .org, .net}."""
    rng = random.Random(0x1EAF)
    names = sorted({f"{adj}-{noun}" for adj in _ADJECTIVES for noun in _NOUNS})
    names = names[: _UNIVERSE_SIZE]
    rng.shuffle(names)
    special = set(rng.sample(range(_UNIVERSE_SIZE), _INTEREST_SIZE))
    urls = []
    for i, name in enumerate(names):
        if i in special:
            tld = _OTHER_TLDS[rng.randrange(len(_OTHER_TLDS))]
        else:
            tld = _GENERIC_TLDS[rng.randrange(len(_GENERIC_TLDS))]
        urls.append(f"{name}{tld}")
    return urls


def interesting_subset(urls, interest: dict | None = None) -> list[str]:
    """Apply an interest-set config ({"kind": "non_generic_tld"} default)."""
    interest = interest or {"kind": "non_generic_tld"}
    kind = interest.get("kind")
    if kind == "non_generic_tld":
        return [u for u in urls if not u.endswith(_GENERIC_TLDS)]
    if kind == "list":
        wanted = list(interest["values"])
        universe = set(urls)
        missing = [w for w in wanted if w not in universe]
        if missing:
            raise ValueError(f"interest elements outside universe: {missing[:3]}")
        return wanted
    raise ValueError(f"unknown interest kind: {kind!r}")


def build_sybil_inputs(interesting: list[str], fill_stride: int = 2) -> list[str]:
    """Sybil key sequence for the fingerprinting game.

    One copy of every interesting element, interleaved with
    ``fill_stride`` out-of-domain filler keys each, then padded with more
    fillers until the number of distinct keys equals a ladder rung.  The
    table then sits exactly at capacity: one more distinct key (a
    non-member secret) forces a growth pass, a member secret does not.
    """
    from .workloads import PRIME_LADDER

    target = next(p for p in PRIME_LADDER if p >= len(interesting) * (1 + fill_stride))
    n_fillers = target - len(interesting)
    seq: list[str] = []
    fi = 0
    for u in interesting:
        seq.append(u)
        for _ in range(fill_stride):
            seq.append(f"sybil://{fi:05d}")
            fi += 1
    while fi < n_fillers:
        seq.append(f"sybil://{fi:05d}")
        fi += 1
    assert len(set(seq)) == target
    return seq


# ---------------------------------------------------------------------------
# config and dataset containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GameConfig:
    """Declarative description of one dataset-generating experiment."""

    game: str  # "distinguish" | "fingerprint"
    workload: dict
    policy: dict
    base_seed: int = 0
    # distinguishing game
    x0: object = None
    x1: object = None
    traces_per_class: int = 0
    sybil: dict = field(default_factory=dict)
    # fingerprinting game
    n_traces: int = 0
    prior: dict = field(default_factory=dict)
    interest: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.game not in ("distinguish", "fingerprint"):
            raise ValueError(f"unknown game: {self.game!r}")
        if self.game == "distinguish":
            if self.x0 is None or self.x1 is None:
                raise ValueError("distinguishing game needs x0 and x1")
            if self.x0 == self.x1:
                raise ValueError("x0 and x1 must differ")
            if self.traces_per_class < 1:
                raise ValueError("traces_per_class must be >= 1")
        else:
            if self.n_traces < 1:
                raise ValueError("n_traces must be >= 1")

    def to_json(self) -> dict:
        out = dataclasses.asdict(self)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "GameConfig":
        allowed = {f.name for f in dataclasses.fields(cls)}
        unknown = set(obj) - allowed
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**obj)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_json(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _trace_file(idx: int) -> str:
    """Run ``idx``'s trace file, relative to the dataset directory."""
    return f"traces/trace_{idx:05d}.txt"


@dataclass
class DatasetEntry:
    """One run: its seed, its label and its trace file.

    ``obs`` is the dataset index of the first run with the same
    observation, so entries with equal ``obs`` give equal features (see
    ``_generate``).  ``sha256`` is the hex digest of the trace file's
    bytes, and every read of the file checks it.
    """

    seed: int
    label: object
    path: Path
    obs: int
    sha256: str

    def read_text(self) -> str:
        """The trace file's text, checked against ``sha256``."""
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            raise ValueError(f"{self.path}: trace file is missing") from None
        if hashlib.sha256(data).hexdigest() != self.sha256:
            raise ValueError(f"{self.path}: trace file does not match its sha256")
        return data.decode()

    def load(self) -> Trace:
        return parse_trace(self.read_text())


def _check_groups(entries: list[DatasetEntry]) -> None:
    """Each ``obs`` names an earlier or the same entry, which heads its
    own group and has the same label."""
    for i, e in enumerate(entries):
        if e.obs == i:
            continue
        if e.obs > i:
            raise ValueError(f"row {i}: obs {e.obs} points forward")
        if e.obs < 0:
            raise ValueError(f"row {i}: obs {e.obs} is negative")
        head = entries[e.obs]
        if head.obs != e.obs:
            raise ValueError(f"row {i}: obs {e.obs} names a row outside its own group")
        if head.label != e.label:
            raise ValueError(f"row {i}: obs {e.obs} names a row with another label")


class LabeledDataset:
    """Labeled trace collection, one trace file per entry, read by ``analysis._walk``."""

    def __init__(self, game: str, base_seed: int, entries: list[DatasetEntry],
                 metadata: dict | None = None):
        _check_groups(entries)
        self.game = game
        self.base_seed = base_seed
        self.entries = entries
        self.metadata = metadata or {}

    def __len__(self) -> int:
        return len(self.entries)

    def heads(self) -> list[DatasetEntry]:
        """The first entry of each observation group, in dataset order."""
        return [e for i, e in enumerate(self.entries) if e.obs == i]

    def spread(self, head_values) -> list:
        """One value per entry, in dataset order, from one per group head.

        A group's first entry takes the next of ``head_values`` (which
        follow :meth:`heads`), and the others, in step, their group's
        value, after their file is read and checked against its ``sha256``.
        """
        values = []
        for i, e in enumerate(self.entries):
            if e.obs == i:
                values.append(next(head_values))
                continue
            e.read_text()
            values.append(values[e.obs])
        return values

    @property
    def s_c(self) -> float | None:
        return self.metadata.get("s_c")

    @property
    def s_f(self) -> float | None:
        return self.metadata.get("s_f")

    @classmethod
    def load(cls, directory) -> "LabeledDataset":
        """The dataset in ``directory``: its game and base seed are its hashed
        config's, and manifest row ``i`` describes ``_trace_file(i)``."""
        root = Path(directory)
        meta = json.loads((root / "dataset.json").read_text())
        cfg = GameConfig.from_json(meta["config"])
        if cfg.config_hash() != meta["config_hash"]:
            raise ValueError(f"{root}: dataset.json config does not match its config_hash")
        entries = []
        with open(root / "manifest.jsonl") as fh:
            for i, line in enumerate(fh):
                row = json.loads(line)
                try:
                    validate_manifest_row(row)
                except SchemaError as e:
                    raise SchemaError(f"{root / 'manifest.jsonl'} row {i}: {e}") from None
                label = row["label"]
                if isinstance(label, list):
                    label = tuple(label)
                entries.append(DatasetEntry(
                    seed=row["seed"], label=label, path=root / _trace_file(i),
                    obs=row["obs"], sha256=row["sha256"]))
        if len(entries) != meta["n"]:
            raise ValueError(f"{root}: manifest has {len(entries)} rows, "
                             f"dataset.json says n={meta['n']}")
        try:
            return cls(cfg.game, cfg.base_seed, entries, metadata=meta)
        except ValueError as e:
            raise ValueError(f"{root}: manifest {e}") from None


# ---------------------------------------------------------------------------
# game runners
# ---------------------------------------------------------------------------

def _plan(cfg: GameConfig) -> tuple[list, list[tuple], dict]:
    """The config's shared inputs, its runs and its game's metadata.

    The runs are ``[(x, label, run_seed), ...]`` in dataset order.  The
    distinguishing game runs the sybil inputs, then x0 or x1 by label
    ``i % 2``.  The fingerprinting game runs the capacity-saturating
    sybil stream, then a secret sampled from the prior, labelled
    ``(1, identity)`` for an interest-set member and ``(0, -1)`` otherwise.
    The metadata is what the game adds to ``dataset.json``.

    The collector policy and each distinct secret's workload are built
    (not run), so a config whose policy or workload rejects its inputs
    fails here, before any run.
    """
    from .machine import CollectorPolicy
    from .workloads import build_workload

    CollectorPolicy.from_json(cfg.policy)

    sybil = cfg.sybil or {}
    if cfg.game == "distinguish":
        kind = sybil.get("kind")
        if not sybil:
            inputs = []
        elif kind == "copies":
            inputs = [sybil["value"]] * int(sybil["count"])
        elif kind == "list":
            inputs = list(sybil["values"])
        else:
            raise ValueError(f"unknown sybil strategy: {kind!r}")
        runs = [(cfg.x1 if i % 2 else cfg.x0, i % 2, derive_seed(cfg.base_seed, "run", i))
                for i in range(2 * cfg.traces_per_class)]
        meta = {}
    else:
        import numpy as np

        prior_cfg = cfg.prior or {}
        kind = prior_cfg.get("kind", "power_law")
        if kind == "power_law":
            universe = bundled_url_list()
            prior = PriorDistribution.power_law(universe, prior_cfg.get("exponent", 0.5))
        elif kind == "table":
            prior = PriorDistribution.from_table(prior_cfg["table"])
            universe = list(prior.support)
        else:
            raise ValueError(f"unknown prior kind: {kind!r}")
        interesting = interesting_subset(universe, cfg.interest or None)
        p_member = prior.mass(interesting)
        if not p_member:
            raise ValueError("the prior puts no mass on the interest set")
        inputs = build_sybil_inputs(interesting, fill_stride=int(sybil.get("fill_stride", 2)))
        index_of = {u: i for i, u in enumerate(interesting)}
        runs = []
        for i in range(cfg.n_traces):
            run_seed = derive_seed(cfg.base_seed, "run", i)
            x = prior.sample(np.random.default_rng([run_seed, 0xF1D0]))
            runs.append((x, (1, index_of[x]) if x in index_of else (0, -1), run_seed))
        meta = {"s_c": max(p_member, 1.0 - p_member),
                "s_f": max(prior.prob_of(u) for u in interesting) / p_member,
                "interest_size": len(interesting), "sybil_distinct": len(set(inputs))}
    for x in {repr(x): x for x, _, _ in runs}.values():
        build_workload(cfg.workload, inputs + [x], 0)
    return inputs, runs, meta


class _TraceJob:
    """One game round per call.

    Each round builds its run's machine, simulates the workload and
    observes it there, writes the observation as placed on that machine
    (see ``write_trace``) to its trace file in the ``stage`` directory,
    and returns the sha256 of the file's bytes.  A
    run whose observation depends on its inputs alone (see
    ``observation_reusable``) is observed once per distinct secret, and
    its pages are placed per run.  The job keeps the observations of the
    secrets in ``repeated`` (their ``repr``), the ones the plan runs more
    than once, for the life of one generation or of one pool worker's
    copy of the job; a secret that runs once is never kept.

    For phh (its ``aggregate`` window) every run also feeds the same
    shared inputs before its secret, and stage one draws no randomness.
    So on first use the job simulates and observes that prefix once, on
    a machine of its own, and keeps the checkpoint: the stage-one state,
    machine included, and the observer.  A new secret resumes a copy of it
    with the one remaining insert (and any growth pass that insert
    triggers), closes the window and finishes the observation, which
    shares the prefix's events.  Placement makes the observing machine's
    page numbers and key irrelevant.
    """

    def __init__(self, cfg: GameConfig, inputs: list, stage: Path, repeated: set[str]):
        from .machine import CollectorPolicy
        from .workloads import observation_reusable

        self.cfg = cfg
        self.inputs = inputs
        self.stage = stage
        self.policy = CollectorPolicy.from_json(cfg.policy)
        self.reusable = observation_reusable(cfg.workload, self.policy)
        self.repeated = repeated
        self.observations: dict[str, Observation] = {}
        self.checkpoint: tuple[Aggregation, Observer] | None = None

    def __call__(self, idx: int, x, run_seed: int):
        from .machine import Placement, SimMachine, observe
        from .workloads import HeavyHitters, build_workload

        machine = SimMachine(
            cipher_seed=derive_seed(run_seed, "cipher"),
            alloc_seed=derive_seed(run_seed, "alloc"),
        )
        key = repr(x)
        obs = self.observations.get(key)
        if obs is None:
            workload_seed = derive_seed(run_seed, "workload")
            workload = build_workload(self.cfg.workload, self.inputs + [x], workload_seed)
            if self.reusable and isinstance(workload, HeavyHitters):
                obs = self._resume(workload, x)
            else:
                workload(machine)
                obs = observe(machine, machine.tap, self.policy,
                              derive_seed(run_seed, "noise"))
            if self.reusable and key in self.repeated:
                self.observations[key] = obs
        data = write_trace(obs.trace(run_seed), Placement(obs, machine)).encode()
        (self.stage / _trace_file(idx)).write_bytes(data)
        return hashlib.sha256(data).hexdigest()

    def _resume(self, workload: HeavyHitters, x) -> Observation:
        """The observation of stage one on the shared inputs, then ``x``."""
        from .machine import Observer, SimMachine

        if self.checkpoint is None:
            agg = workload.begin(SimMachine())
            for key in self.inputs:
                agg.insert(key)
            observer = Observer(self.policy)
            observer.feed(agg.m.tap)
            agg.m.reset_tap()
            self.checkpoint = (agg, observer)
        agg, observer = (state.copy() for state in self.checkpoint)
        agg.insert(x)
        workload.end(agg)
        observer.feed(agg.m.tap)
        return observer.finish(agg.m)


def _check_out_dir(root: Path) -> None:
    """Refuse an output path that exists and is not an empty directory."""
    if root.exists() and (not root.is_dir() or any(root.iterdir())):
        raise ValueError(f"output directory exists and is not empty: {root}")


def _generate(cfg: GameConfig, out_dir, jobs: int, progress, plan) -> LabeledDataset:
    """Run the config's plan and store the dataset in ``out_dir``.

    ``plan`` is ``_plan(cfg)`` if the caller has made it already, else
    None.

    The runs map one job through :func:`~leaklab.pool.ordered_map`:
    serial runs call it here, a pool gives each worker its own copy.
    The job writes each trace file into the staging directory, and this
    process writes the manifest rows in run order.  A row is the run's
    ``seed`` and ``label``, the ``sha256`` of its trace file and its
    ``obs``: when the config's observations are reusable, the index of
    the first run of its secret, else its own index.

    ``out_dir`` must be new or empty.  The dataset is written into a
    fresh sibling directory, which replaces ``out_dir`` once
    ``dataset.json`` is written and is removed if the run fails, after
    the pool's workers have stopped, so ``out_dir`` ends up holding a
    whole dataset or is left as it was.
    """
    inputs, runs, game_meta = plan if plan is not None else _plan(cfg)
    root = Path(out_dir)
    _check_out_dir(root)
    meta = {"config": cfg.to_json(), "config_hash": cfg.config_hash(), "n": len(runs),
            **game_meta}
    uses = collections.Counter(repr(x) for x, _, _ in runs)
    repeated = {k for k, n in uses.items() if n > 1}
    xs, labels, seeds = zip(*runs)
    entries: list[DatasetEntry] = []
    root.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{root.name}.", dir=root.parent))
    with contextlib.ExitStack() as stack:
        # runs last; a stage already renamed into place is gone
        stack.callback(shutil.rmtree, stage, ignore_errors=True)
        (stage / "traces").mkdir()
        manifest = stack.enter_context(open(stage / "manifest.jsonl", "w"))
        job = _TraceJob(cfg, inputs, stage, repeated)
        # the runs of one reusable secret place one observation: their
        # group is the first of them in plan order; other runs are alone
        first: dict[str, int] = {}
        groups = [first.setdefault(repr(x), idx) if job.reusable else idx
                  for idx, x in enumerate(xs)]
        results = stack.enter_context(
            ordered_map(job, jobs, range(len(runs)), xs, seeds, chunksize=4))
        for idx, (label, seed, obs, sha256) in enumerate(zip(labels, seeds, groups, results)):
            row = {"seed": seed, "label": list(label) if isinstance(label, tuple) else label,
                   "obs": obs, "sha256": sha256}
            entries.append(DatasetEntry(seed=seed, label=label, path=root / _trace_file(idx),
                                        obs=obs, sha256=sha256))
            manifest.write(json.dumps(row, sort_keys=True) + "\n")
            if progress is not None:
                progress(idx + 1, len(runs))
        manifest.close()
        (stage / "dataset.json").write_text(json.dumps(meta, sort_keys=True, indent=1) + "\n")
        umask = os.umask(0)
        os.umask(umask)
        stage.chmod(0o777 & ~umask)  # mkdtemp makes it private; mkdir would not
        os.replace(stage, root)
    return LabeledDataset(cfg.game, cfg.base_seed, entries, metadata=meta)


def run_distinguishing_game(cfg: GameConfig, out_dir, jobs: int = 1,
                            progress=None, plan=None) -> LabeledDataset:
    """Generate the two-secret dataset: label i%2 picks x0 or x1."""
    if cfg.game != "distinguish":
        raise ValueError("config is not a distinguishing game")
    return _generate(cfg, out_dir, jobs, progress, plan)


def run_fingerprinting_game(cfg: GameConfig, out_dir, jobs: int = 1,
                            progress=None, plan=None) -> LabeledDataset:
    """Generate the sampled-secret dataset with (membership, identity) labels."""
    if cfg.game != "fingerprint":
        raise ValueError("config is not a fingerprinting game")
    return _generate(cfg, out_dir, jobs, progress, plan)
