"""Hashable run specifications and order-independent seed derivation.

A :class:`RunSpec` names one independent experiment cell — a (scenario,
objective-space, method, seed, repeat, config-fingerprint) tuple — in a
way that is (a) **hashable**, so completed cells can be memoized to disk
and skipped on resume, and (b) **self-seeding**, so a cell draws exactly
the same random numbers no matter which worker executes it or in which
order the queue is drained.

Seed derivation replaces the shared ``np.random.default_rng(seed)``
sequence the serial scenario loop used to thread through every cell
(whose draws coupled each method's initialization to loop order) with
``np.random.SeedSequence`` *spawn-key* derivation: every random stream a
cell consumes is derived as ``SeedSequence(base_seed, spawn_key=(...))``
where the spawn key is built from stable string tokens (objective-space
name, method name, repeat index).  Two cells that share a stream by
design — e.g. the per-objective-space shared initial design — derive it
from the same key and therefore draw identical values; everything else
is independent.  Note this intentionally changes trajectories relative
to the old order-coupled serial loop for the same base seed (see
DESIGN.md §6).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ..bench.dataset import BenchmarkDataset
from ..core.config import PPATunerConfig

__all__ = [
    "DatasetRef",
    "RunSpec",
    "config_fingerprint",
    "dataset_id",
    "derive_rng",
    "derive_seed",
    "make_params",
    "stable_token",
]


def stable_token(value: object) -> int:
    """A stable 64-bit integer for a spawn-key component.

    Integers pass through; everything else hashes its ``str`` form via
    SHA-256 (never the process-salted builtin ``hash``), so derivations
    are reproducible across processes and interpreter restarts.
    """
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value) & 0xFFFFFFFFFFFFFFFF
    digest = hashlib.sha256(str(value).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def derive_rng(base_seed: int, *streams: object) -> np.random.Generator:
    """An order-independent RNG for one named random stream.

    ``derive_rng(seed, "init", space)`` yields the same generator no
    matter when or where it is called — the spawn key depends only on
    the tokens, never on how many streams were derived before it.
    """
    key = tuple(stable_token(s) for s in streams)
    return np.random.default_rng(
        np.random.SeedSequence(base_seed, spawn_key=key)
    )


def derive_seed(base_seed: int, *streams: object) -> int:
    """A derived integer seed (for APIs that take one, e.g. tuners)."""
    key = tuple(stable_token(s) for s in streams)
    seq = np.random.SeedSequence(base_seed, spawn_key=key)
    return int(seq.generate_state(1, dtype=np.uint32)[0])


def config_fingerprint(config: PPATunerConfig | None) -> str:
    """Canonical fingerprint of a tuner configuration (memo-key part).

    ``None`` (method defaults) fingerprints as the empty string; any
    explicit config hashes its canonical sorted-key JSON, with arrays
    listed element-wise.
    """
    if config is None:
        return ""
    def _canon(value: object) -> object:
        if isinstance(value, np.ndarray):
            return value.tolist()
        if isinstance(value, dict):
            return {k: _canon(v) for k, v in sorted(value.items())}
        return value
    payload = {k: _canon(v) for k, v in asdict(config).items()}
    text = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def dataset_id(dataset: BenchmarkDataset) -> str:
    """Content identity of an in-memory dataset (memo-key part).

    Named cache-backed datasets are identified by their
    :class:`DatasetRef` label instead; this fingerprint covers ad-hoc
    pools (tests, subsamples built by hand).
    """
    digest = hashlib.sha256()
    digest.update(dataset.name.encode("utf-8"))
    digest.update(np.ascontiguousarray(dataset.X).tobytes())
    digest.update(np.ascontiguousarray(dataset.Y).tobytes())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class DatasetRef:
    """A benchmark pool named by its cache coordinates.

    Workers resolve the ref through the (concurrency-safe) benchmark
    cache instead of receiving pickled arrays, keeping fan-out cheap:
    the first process to need a table builds it under the store's
    advisory lock, everyone else loads the winner's file.

    Attributes:
        name: Benchmark name (``source1`` ... ``target2``).
        n_points: Pool-size override (None = the paper's size).
        subsample: Optional post-generation subsample size.
        subsample_seed: Seed for the subsample draw.
    """

    name: str
    n_points: int | None = None
    subsample: int | None = None
    subsample_seed: int = 0

    def resolve(self) -> BenchmarkDataset:
        """Load (or build) the referenced dataset."""
        from ..bench.generate import generate_benchmark

        dataset = generate_benchmark(self.name, n_points=self.n_points)
        if self.subsample is not None:
            dataset = dataset.subsample(
                self.subsample, seed=self.subsample_seed
            )
        return dataset

    @property
    def label(self) -> str:
        """Stable identity string (used in spec hashes)."""
        parts = [self.name]
        if self.n_points is not None:
            parts.append(f"n{self.n_points}")
        if self.subsample is not None:
            parts.append(f"s{self.subsample}@{self.subsample_seed}")
        return "-".join(parts)


@dataclass(frozen=True)
class RunSpec:
    """One hashable cell of the experiment work queue.

    The spec is pure metadata: enough to key memoization and to derive
    every random stream the cell consumes.  How the cell's datasets are
    obtained (cache ref vs. pickled in-memory pool) lives in the
    :class:`~repro.runner.runner.RunJob` that carries the spec.

    Attributes:
        kind: Cell family — ``"scenario"`` (one table cell),
            ``"tune"`` (a single configured PPATuner run),
            ``"scenario_three"`` (one mixed-archive variant) or
            ``"convergence"`` (one anytime-curve trace).
        scenario: Scenario/suite label (``"scenario_one"`` ...).
        method: Method or variant name.
        objective_space: Objective-space label (``"power-delay"``).
        objectives: Objective names, in order.
        budget_key: Paper budget-fraction key (``"target1"``/…).
        n_source: Source points made available to transfer methods.
        seed: Base seed all streams are derived from.
        repeat: Repeat index (distinct derived seeds per repeat).
        source_id: Identity of the source pool ("" = none).
        target_id: Identity of the target pool.
        config_fingerprint: Tuner-config fingerprint ("" = defaults).
        params: Extra canonicalized options as sorted (key, value)
            string pairs — kept in the hash so e.g. two convergence
            budgets never collide.
    """

    kind: str
    scenario: str
    method: str
    objective_space: str
    objectives: tuple[str, ...]
    budget_key: str = ""
    n_source: int = 0
    seed: int = 0
    repeat: int = 0
    source_id: str = ""
    target_id: str = ""
    config_fingerprint: str = ""
    params: tuple[tuple[str, str], ...] = field(default_factory=tuple)

    def to_json(self) -> dict[str, object]:
        """Canonical JSON-serializable form (drives the hash)."""
        out: dict[str, object] = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = [
                    list(v) if isinstance(v, tuple) else v for v in value
                ]
            out[f.name] = value
        return out

    def spec_hash(self) -> str:
        """Stable content hash — the memoization key."""
        text = json.dumps(self.to_json(), sort_keys=True)
        return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]

    def param(self, key: str, default: str | None = None) -> str | None:
        """Look up one extra option."""
        for k, v in self.params:
            if k == key:
                return v
        return default

    @property
    def label(self) -> str:
        """Short human-readable label for progress lines."""
        bits = [self.scenario, self.objective_space, self.method]
        if self.repeat:
            bits.append(f"r{self.repeat}")
        return " ".join(bits)


def make_params(**options: object) -> tuple[tuple[str, str], ...]:
    """Canonicalize keyword options into sorted string pairs."""
    return tuple(
        (k, json.dumps(v, sort_keys=True, default=str))
        for k, v in sorted(options.items())
        if v is not None
    )
