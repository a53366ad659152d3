"""Load generation: set-up timing, a closed loop and an open loop.

Everything here drives ``StreamEngine`` through its public API from one
process.  The closed loop sends the next operation only after the last
one returned (a synchronous caller); the open loop issues ingest batches
on a fixed schedule and times each op from its due time, so a flush,
query or checkpoint stall is charged to every arrival it delays.  A run
alternates closed-loop slices and open-loop segments on two engines, so
both loops sample the whole run rather than one part of it.
"""

from __future__ import annotations

import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.service import EngineOverloadedError, ShardError

from workloads import BLOCK, KeyStream, Workload, query_keys

perf = time.perf_counter

#: the open loop gives up once it runs this far behind schedule; the
#: operations it never issued count as failed
MAX_LAG_S = 5.0


@dataclass
class QueryRecord:
    """One answered query: the engine clock, probes and answer."""

    t: int
    keys: np.ndarray
    answer: np.ndarray


@dataclass
class Client:
    """Feeds one engine one stream and keeps the books the checks need."""

    wl: Workload
    engine: object
    ckpt: object
    stream: KeyStream
    seed: int
    pos: int = 0  # stream items consumed
    batches: int = 0
    attempted: int = 0
    failed: int = 0
    items: int = 0
    queries: list[QueryRecord] = field(default_factory=list)
    #: stream ranges the engine refused (never stamped, so the
    #: reference skips them too)
    skipped: list[tuple[int, int]] = field(default_factory=list)
    _next_query: int = 0
    _qi: int = 0

    def __post_init__(self) -> None:
        self._next_query = self.wl.query_every
        self._query = {
            "frequency": self.engine.frequency_many,
            "membership": self.engine.contains_many,
        }[self.wl.query]

    def next_batch(self) -> np.ndarray:
        return self.stream.take(self.pos, self.pos + self.wl.batch)

    def query_due(self) -> bool:
        """True when a query follows the batch about to be ingested."""
        return self.batches + 1 == self._next_query

    def probe_keys(self, batch: np.ndarray) -> np.ndarray:
        return query_keys(self.wl, self.seed, self.stream.stream_id,
                          self._qi, batch)

    def ingest(self, keys: np.ndarray) -> None:
        self.attempted += 1
        lo = self.pos
        self.pos += keys.size
        self.batches += 1
        try:
            self.engine.ingest(keys)
        except (EngineOverloadedError, ShardError):
            self.failed += 1
            self.skipped.append((lo, self.pos))
            return
        self.items += keys.size

    def query(self, keys: np.ndarray) -> None:
        self.attempted += 1
        self._qi += 1
        self._next_query += self.wl.query_every
        t = self.engine.now()
        try:
            answer = self._query(keys)
        except ShardError:
            self.failed += 1
            return
        self.queries.append(QueryRecord(t, keys, answer))

    def maybe_checkpoint(self) -> None:
        if self.ckpt is not None and self.ckpt.due():
            self.ckpt.save()


def time_setup(wl: Workload, workdir: Path, repeats: int) -> list[float]:
    """Seconds from engine construction until every shard answers,
    WAL open included, over ``repeats`` fresh engines."""
    out = []
    for i in range(repeats):
        d = workdir / f"setup-{i}"
        t0 = perf()
        engine, _ckpt = wl.build(d)
        engine.memory_bytes  # readiness: a round trip to every shard
        out.append(perf() - t0)
        engine.close()
        shutil.rmtree(d, ignore_errors=True)
    return out


def closed_slice(drv: Client, seconds: float) -> tuple[int, float]:
    """Run the op mix back to back for ``seconds``, then flush.  Returns
    the items ingested and the time spent inside engine calls: queries,
    checkpoints and the flush included, stream generation excluded."""
    busy = 0.0
    items0 = drv.items
    end = perf() + seconds
    while perf() < end:
        keys = drv.next_batch()
        has_query = drv.query_due()
        probes = drv.probe_keys(keys) if has_query else None
        t0 = perf()
        drv.ingest(keys)
        if has_query:
            drv.query(probes)
        drv.maybe_checkpoint()
        busy += perf() - t0
    t0 = perf()
    drv.engine.flush()
    busy += perf() - t0
    return drv.items - items0, busy


def _wait_until(due: float) -> None:
    # spin, never sleep: on a shared virtual machine a sleeping process
    # wakes up to milliseconds late, with cold caches, and both would
    # read as engine latency
    while perf() < due:
        pass


class OpenLoop:
    """Ingest batches at the workload's offered rate, queries halfway
    between the batches they follow, checkpoints as they fall due; each
    op is timed from its due time."""

    def __init__(self, drv: Client, on_ingest=None):
        self.drv = drv
        self.on_ingest = on_ingest
        self.gap = drv.wl.batch / drv.wl.offered_items_per_s
        self.ingest_ms: list[float] = []
        self.query_ms: list[float] = []
        self.late_ms: list[float] = []  # how late each batch was issued
        self.lag_end_ms = 0.0

    def run(self, seconds: float) -> None:
        """Issue the next ``seconds`` of the schedule."""
        drv, gap = self.drv, self.gap
        n_batches = round(seconds / gap)
        start = perf() + 0.005
        for b in range(n_batches):
            due = start + b * gap
            keys = drv.next_batch()
            has_query = drv.query_due()
            probes = drv.probe_keys(keys) if has_query else None
            if due - perf() > 3e-3:
                drv.stream.prefetch(drv.pos + drv.wl.batch + BLOCK // 2)
            _wait_until(due)
            lag = perf() - due
            self.late_ms.append(lag * 1e3)
            self.lag_end_ms = lag * 1e3
            if lag > MAX_LAG_S:
                # hopelessly behind: everything still unissued fails
                drv.attempted += n_batches - b
                drv.failed += n_batches - b
                break
            drv.ingest(keys)
            self.ingest_ms.append((perf() - due) * 1e3)
            if self.on_ingest is not None:
                self.on_ingest()
            drv.maybe_checkpoint()
            if has_query:
                qdue = due + gap / 2
                _wait_until(qdue)
                drv.query(probes)
                self.query_ms.append((perf() - qdue) * 1e3)


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def windowed_percentile(values, q: float) -> tuple[float, int]:
    """The ``q``-th percentile of each contiguous window of ``values``
    just large enough to leave ten samples beyond it, and the median
    over windows (with the window count).  A disturbance confined to
    one window moves one window's figure, not the median."""
    per_window = max(1, int(np.ceil(10 / (1 - q / 100))))
    k = max(1, len(values) // per_window)
    chunks = np.array_split(np.asarray(values, dtype=np.float64), k)
    return median([percentile(c, q) for c in chunks]), k


def median(values) -> float:
    return float(statistics.median(values))
