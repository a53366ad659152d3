"""The benchmark's workloads and the key streams they ingest.

A workload fixes only deployment fields of ``EngineConfig`` (kind,
window, size, shards, flush batch, WAL and budgets) and the load: batch
size, query mix and the open-loop offered rate.  It leaves the
executor and ``transport`` at their defaults: the benchmark measures
the path users get by default.

Key streams are a pure function of ``(seed, stream id)``: block ``j`` is
drawn from ``numpy.random.default_rng([seed, stream_id, j])``, so the
correctness pass regenerates exactly what the engine ingested without
keeping it in memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import SheBloomFilter, SheCountMin
from repro.service import Checkpointer, EngineConfig, StreamEngine

#: items per generated stream block; at least the largest window, so a
#: window slice never spans more than two blocks
BLOCK = 1 << 16

#: stream ids: each engine of a run ingests its own stream
CLOSED, OPEN = 0, 1

#: multiplier that spreads Zipf ranks over 64-bit keys (odd, so the map
#: is a bijection on uint64)
_SPREAD = np.uint64(0x9E3779B97F4A7C15)

#: membership probes that are never ingested live in [2^62, 2^63);
#: ingested uniform keys stay below 2^62
_ABSENT_LO = 1 << 62


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    kind: str
    window: int
    size: int
    batch: int
    flush_batch_size: int
    #: "frequency" | "membership"
    query: str
    #: batches between consecutive queries
    query_every: int
    #: probe keys per query (membership: half present, half absent)
    query_keys: int
    #: open-loop offered rate, items per second
    offered_items_per_s: float
    #: key distribution, "zipf" | "uniform"
    keys: str
    wal: bool = False
    max_buffered_items: int | None = None
    checkpoint_items: int | None = None

    def config(self, workdir: Path) -> EngineConfig:
        return EngineConfig(
            self.kind,
            window=self.window,
            size=self.size,
            flush_batch_size=self.flush_batch_size,
            max_buffered_items=self.max_buffered_items,
            wal_dir=str(workdir / "wal") if self.wal else None,
            wal_fsync="interval",
        )

    def build(self, workdir: Path, obs=None):
        """A fresh engine (and its checkpointer, if the mix has one)
        whose files live under ``workdir``."""
        workdir.mkdir(parents=True, exist_ok=True)
        engine = StreamEngine(self.config(workdir), obs=obs)
        ckpt = None
        if self.checkpoint_items is not None:
            ckpt = Checkpointer(
                engine, workdir / "ckpt",
                interval_items=self.checkpoint_items, keep=2,
            )
        return engine, ckpt

    def reference_sketch(self):
        """One unsharded sketch built like every engine shard."""
        cls = {"bf": SheBloomFilter, "cm": SheCountMin}
        return cls[self.kind](self.window, self.size)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="cm-serial-zipf",
            why=(
                "write-heavy SHE-CM on the serial executor with Zipf-skewed "
                "shards: time is in the frame kernel; no IPC, WAL or merge "
                "(sum fan-in); the single-threaded baseline"
            ),
            kind="cm",
            window=1 << 16,
            size=1 << 14,
            batch=2048,
            flush_batch_size=8192,
            query="frequency",
            # 14 batches (28672 items) leave every shard short of a
            # size-triggered flush (the busiest gets ~26% of the keys),
            # so each query's sync drains the shards and is not queued
            # behind a flush issued just before it
            query_every=14,
            query_keys=64,
            offered_items_per_s=100_000.0,
            keys="zipf",
        ),
        Workload(
            name="bf-durable-small",
            why=(
                "mixed SHE-BF reads and writes in small batches with a WAL, "
                "bounded admission and periodic checkpoints: per-call work "
                "and state snapshots dominate"
            ),
            kind="bf",
            window=1 << 13,
            size=1 << 16,
            batch=256,
            flush_batch_size=1024,
            query="membership",
            query_every=8,
            query_keys=256,
            offered_items_per_s=100_000.0,
            keys="uniform",
            wal=True,
            max_buffered_items=4096,
            checkpoint_items=1 << 18,
        ),
    )
}


class KeyStream:
    """Deterministic, lazily generated key stream of one run."""

    ZIPF_UNIVERSE = 1 << 20
    ZIPF_EXPONENT = 1.05

    def __init__(self, keys: str, seed: int, stream_id: int):
        if keys not in ("zipf", "uniform"):
            raise ValueError(f"unknown key distribution {keys!r}")
        self.keys = keys
        self.seed = int(seed)
        self.stream_id = int(stream_id)
        self._blocks: dict[int, np.ndarray] = {}

    def _generate(self, j: int) -> np.ndarray:
        rng = np.random.default_rng([self.seed, self.stream_id, j])
        if self.keys == "uniform":
            return rng.integers(0, _ABSENT_LO, size=BLOCK, dtype=np.uint64)
        # bounded Zipf by inverting the continuous power-law CDF over
        # ranks [1, U]: vectorised, so a block costs about a millisecond
        one_minus_a = 1.0 - self.ZIPF_EXPONENT
        top = float(self.ZIPF_UNIVERSE) ** one_minus_a - 1.0
        ranks = np.floor((1.0 + rng.random(BLOCK) * top) ** (1.0 / one_minus_a))
        ranks = np.clip(ranks, 1, self.ZIPF_UNIVERSE).astype(np.uint64)
        return ranks * _SPREAD

    def block(self, j: int) -> np.ndarray:
        blk = self._blocks.get(j)
        if blk is None:
            blk = self._blocks[j] = self._generate(j)
            for old in [k for k in self._blocks if k < j - 2]:
                del self._blocks[old]
        return blk

    def take(self, lo: int, hi: int) -> np.ndarray:
        """Items ``[lo, hi)`` of the stream (a view when in one block)."""
        j0, j1 = lo // BLOCK, (hi - 1) // BLOCK
        if j0 == j1:
            return self.block(j0)[lo - j0 * BLOCK : hi - j0 * BLOCK]
        parts = [self.block(j) for j in range(j0, j1 + 1)]
        return np.concatenate(parts)[lo - j0 * BLOCK : hi - j0 * BLOCK]

    def prefetch(self, hi: int) -> None:
        """Generate every block up to item ``hi`` ahead of need."""
        self.block((hi - 1) // BLOCK)


def query_keys(wl: Workload, seed: int, stream_id: int, qi: int,
               recent: np.ndarray) -> np.ndarray:
    """Probe keys of query ``qi``, drawn from the batch just ingested
    (so they lie in the window) plus, for membership, never-ingested
    keys."""
    rng = np.random.default_rng([seed, stream_id, 1 << 40, qi])
    if wl.query == "membership":
        half = wl.query_keys // 2
        present = rng.choice(recent, size=half)
        absent = rng.integers(
            _ABSENT_LO, 2 * _ABSENT_LO, size=wl.query_keys - half,
            dtype=np.uint64,
        )
        return np.concatenate([present, absent])
    return rng.choice(recent, size=wl.query_keys)
