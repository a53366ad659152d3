"""Per-layer tracing for the traced run, recorded from outside the engine.

Spans are recorded by wrapping public functions at the names the engine
looks them up under (``repro.service.engine.shard_ids``,
``repro.service.engine.merge_many``, executor and WAL methods, the
sketch estimators, ``Checkpointer.save``) and the engine's own public
entry points, which are the roots: one span id per ingest or query
call.  Kernel work arrives as the ``*.apply`` spans the executor files
on the engine's public ``Tracer`` (process workers return them on
flush acks); they become children of the flush RPC that carried them.

A span's self time is its duration minus the part of it its children
cover, so overlapping children are not double counted.
Spans stay in memory and are written out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.core import SheBloomFilter, SheCountMin
from repro.service import Checkpointer, SerialExecutor
from repro.service import engine as engine_mod
from repro.service import read_manifest
from repro.service.engine import StreamEngine
from repro.service.wal import WriteAheadLog

perf = time.perf_counter

#: per-layer metric -> (unit, better, the end-to-end metric it should
#: move, the workloads where it should move it).  A workload missing
#: from the list is one where the prediction is "no change".
LEDGER = {
    "engine.ingest.calls": ("count", "higher", "ingest_p50_ms",
                            ["bf-durable-small", "cm-serial-zipf"]),
    "engine.ingest.self_s": ("s", "lower", "ingest_p50_ms",
                             ["bf-durable-small", "cm-serial-zipf"]),
    "engine.query.self_s": ("s", "lower", "query_p50_ms",
                            ["cm-serial-zipf", "bf-durable-small"]),
    "engine.queue_depth.max": ("count", "lower", "ingest_p99_ms",
                               ["cm-serial-zipf", "bf-durable-small"]),
    "loadgen.lag_end_ms": ("ms", "lower", "ingest_p99_ms",
                           ["cm-serial-zipf", "bf-durable-small"]),
    "engine.items.shed": ("count", "lower", "failed", ["bf-durable-small"]),
    "engine.items.rejected": ("count", "lower", "failed",
                              ["bf-durable-small"]),
    "sharding.shard_ids.busy_s": ("s", "lower", "ingest_p50_ms",
                                  ["bf-durable-small"]),
    "sharding.shard_ids.mips": ("Mips", "higher", "ingest_p50_ms",
                                ["bf-durable-small"]),
    "sharding.skew": ("ratio", "lower", "ingest_p99_ms", ["cm-serial-zipf"]),
    "wal.wal_append.calls": ("count", "lower", "ingest_p50_ms",
                             ["bf-durable-small"]),
    "wal.wal_append.busy_s": ("s", "lower", "ingest_p50_ms",
                              ["bf-durable-small"]),
    "wal.bytes": ("bytes", "lower", "ingest_p50_ms", ["bf-durable-small"]),
    "wal.sync.busy_s": ("s", "lower", "ingest_p50_ms", ["bf-durable-small"]),
    "executor.flush_rpc.calls": ("count", "lower", "throughput_mips",
                                 ["cm-serial-zipf"]),
    "executor.flush_rpc.busy_s": ("s", "lower", "throughput_mips",
                                  ["cm-serial-zipf", "bf-durable-small"]),
    "executor.flush_rpc.items": ("count", "higher", "throughput_mips",
                                 ["cm-serial-zipf"]),
    "executor.flush_fill": ("ratio", "higher", "ingest_p99_ms",
                            ["cm-serial-zipf"]),
    # in-process executors apply inside the RPC span: no wait to save
    "executor.wait_s": ("s", "lower", "ingest_p99_ms", []),
    "executor.bytes_moved": ("bytes", "lower", "query_p50_ms",
                             ["bf-durable-small"]),
    "executor.advance.busy_s": ("s", "lower", "query_p50_ms",
                                ["bf-durable-small"]),
    "executor.snapshot.busy_s": ("s", "lower", "query_p50_ms",
                                 ["bf-durable-small"]),
    "kernel.apply.busy_s": ("s", "lower", "throughput_mips",
                            ["cm-serial-zipf"]),
    "kernel.apply.mips": ("Mips", "higher", "query_p90_ms",
                          ["cm-serial-zipf"]),
    "merge.query_fanin.calls": ("count", "lower", "query_p50_ms",
                                ["bf-durable-small"]),
    "merge.query_fanin.busy_s": ("s", "lower", "query_p90_ms",
                                 ["bf-durable-small"]),
    "sketch.estimate.busy_s": ("s", "lower", "query_p50_ms",
                               ["cm-serial-zipf", "bf-durable-small"]),
    "checkpoint.save.calls": ("count", "lower", "ingest_p99_ms",
                              ["bf-durable-small"]),
    "checkpoint.save.busy_s": ("s", "lower", "ingest_p99_ms",
                               ["bf-durable-small"]),
    "checkpoint.bytes": ("bytes", "lower", "ingest_p99_ms",
                         ["bf-durable-small"]),
    "baseline.sketch_mips": ("Mips", "higher", "throughput_mips",
                             ["cm-serial-zipf"]),
    "trace.unattributed_frac": ("ratio", "lower", "throughput_mips", []),
    "trace.overhead_frac": ("ratio", "lower", "throughput_mips", []),
}


@dataclass
class Span:
    name: str
    phase: str
    parent: int  # index into Recorder.spans, -1 for a root
    start: float = 0.0
    end: float = 0.0
    items: int = 0
    nbytes: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Span store plus the wrappers that feed it."""

    def __init__(self, flush_size: int) -> None:
        self.flush_size = flush_size  # for executor.flush_fill
        self.spans: list[Span] = []
        self.phase: str | None = None  # None records nothing
        self.tracer = None  # the traced engine's public Tracer
        self.shard_counts: dict[str, np.ndarray] = {}
        self.fill: dict[str, list[float]] = {}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str, after=None,
              before=None) -> None:
        orig = owner.__dict__[attr]
        rec = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            # a layer nested in itself (snapshots -> snapshot) files
            # only the outer span
            if rec.phase is None or (
                rec._stack and rec.spans[rec._stack[-1]].name == name
            ):
                return orig(*args, **kwargs)
            span = Span(name, rec.phase, rec._stack[-1] if rec._stack else -1)
            idx = len(rec.spans)
            rec.spans.append(span)
            rec._stack.append(idx)
            if before is not None:
                before(span, args)
            span.start = perf()
            try:
                out = orig(*args, **kwargs)
            finally:
                span.end = perf()
                rec._stack.pop()
            if after is not None:
                after(idx, span, args, out)
            return out

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, orig))

    def install(self) -> None:
        """Wrap every layer boundary the traced run measures."""
        self._wrap(StreamEngine, "ingest", "engine.ingest")
        self._wrap(StreamEngine, "flush", "engine.flush")
        for q in ("frequency_many", "contains_many"):
            self._wrap(StreamEngine, q, "engine.query")
        self._wrap(engine_mod, "shard_ids", "sharding.shard_ids",
                   self._after_shard_ids)
        self._wrap(engine_mod, "merge_many", "merge.query_fanin")
        self._wrap(WriteAheadLog, "append", "wal.wal_append",
                   self._after_wal_append, self._before_wal_append)
        self._wrap(WriteAheadLog, "sync", "wal.sync")
        self._wrap(SerialExecutor, "flush_many", "executor.flush_rpc",
                   self._after_flush_many)
        self._wrap(SerialExecutor, "advance", "executor.advance")
        self._wrap(SerialExecutor, "snapshot", "executor.snapshot",
                   self._after_snapshot)
        self._wrap(SerialExecutor, "snapshots", "executor.snapshot",
                   self._after_snapshot)
        self._wrap(SheCountMin, "frequency_many", "sketch.estimate")
        self._wrap(SheBloomFilter, "contains_many", "sketch.estimate")
        self._wrap(Checkpointer, "save", "checkpoint.save",
                   self._after_checkpoint)

    @contextlib.contextmanager
    def recording(self, phase: str, engine):
        """Record spans, filed under ``phase``, while the block runs."""
        self.tracer = engine.obs.tracer
        self.tracer.clear()  # apply spans of unrecorded flushes
        self.phase = phase
        try:
            yield
        finally:
            self.phase = None

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _after_shard_ids(self, idx, span, args, out) -> None:
        span.items = int(out.size)
        counts = np.bincount(out, minlength=int(args[1]))
        prev = self.shard_counts.get(span.phase)
        self.shard_counts[span.phase] = (
            counts if prev is None else prev + counts
        )

    def _before_wal_append(self, span, args) -> None:
        span.nbytes = -args[0].total_bytes

    def _after_wal_append(self, idx, span, args, out) -> None:
        span.items = int(np.asarray(args[2]).size)
        span.nbytes += args[0].total_bytes

    def _after_flush_many(self, idx, span, args, out) -> None:
        batches = list(args[1])
        sizes = [int(np.asarray(b[1]).size) for b in batches]
        span.items = sum(sizes)
        span.nbytes = sum(
            np.asarray(b[1]).nbytes + np.asarray(b[2]).nbytes for b in batches
        )
        self.fill.setdefault(span.phase, []).extend(
            n / self.flush_size for n in sizes
        )
        if self.tracer is None:
            return
        for s in self.tracer.spans():
            if (s.name.endswith(".apply") and s.duration_ms is not None
                    and s.start_s >= span.start):
                self.spans.append(Span(
                    "kernel.apply", span.phase, idx,
                    start=max(s.start_s, span.start),
                    end=min(s.start_s + s.duration_ms / 1e3, span.end),
                    items=int(s.tags.get("items", 0)),
                ))
        self.tracer.clear()

    def _after_snapshot(self, idx, span, args, out) -> None:
        snaps = out if isinstance(out, list) else [out]
        span.nbytes = sum(int(s.memory_bytes) for s in snaps)

    def _after_checkpoint(self, idx, span, args, out) -> None:
        meta = read_manifest(out).get("shard_meta", [])
        span.nbytes = sum(int(m["bytes"]) for m in meta)

    # -- analysis ------------------------------------------------------------

    def self_times(self, phase: str) -> dict[int, float]:
        """Span index -> duration minus the union of its children."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.phase == phase and s.parent >= 0:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for i, s in enumerate(self.spans):
            if s.phase != phase:
                continue
            covered, reach = 0.0, s.start
            for c in sorted(children.get(i, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[i] = s.duration - covered
        return out

    def root_time(self, phase: str) -> float:
        """Summed duration of root spans.  Self times partition each
        root's duration (overlapping children counted once), so this is
        the sum of self times along the blocking path."""
        return sum(
            s.duration for s in self.spans
            if s.phase == phase and s.parent < 0
        )

    def layer_metrics(self, phase: str) -> dict[str, float]:
        """The span-derived per-layer metrics of one phase."""
        selfs = self.self_times(phase)
        calls: dict[str, int] = {}
        busy: dict[str, float] = {}
        self_s: dict[str, float] = {}
        items: dict[str, int] = {}
        nbytes: dict[str, int] = {}
        for i, t in selfs.items():
            s = self.spans[i]
            calls[s.name] = calls.get(s.name, 0) + 1
            busy[s.name] = busy.get(s.name, 0.0) + s.duration
            self_s[s.name] = self_s.get(s.name, 0.0) + t
            items[s.name] = items.get(s.name, 0) + s.items
            nbytes[s.name] = nbytes.get(s.name, 0) + s.nbytes

        def mips(name):
            b = busy.get(name, 0.0)
            return items.get(name, 0) / b / 1e6 if b > 0 else 0.0

        counts = self.shard_counts.get(phase)
        fill = self.fill.get(phase, [])
        return {
            "engine.ingest.calls": calls.get("engine.ingest", 0),
            "engine.ingest.self_s": self_s.get("engine.ingest", 0.0),
            "engine.query.self_s": self_s.get("engine.query", 0.0),
            "sharding.shard_ids.busy_s": busy.get("sharding.shard_ids", 0.0),
            "sharding.shard_ids.mips": mips("sharding.shard_ids"),
            "sharding.skew": (
                float(counts.max() / counts.mean())
                if counts is not None and counts.sum() else 0.0
            ),
            "wal.wal_append.calls": calls.get("wal.wal_append", 0),
            "wal.wal_append.busy_s": busy.get("wal.wal_append", 0.0),
            "wal.bytes": nbytes.get("wal.wal_append", 0),
            "wal.sync.busy_s": busy.get("wal.sync", 0.0),
            "executor.flush_rpc.calls": calls.get("executor.flush_rpc", 0),
            "executor.flush_rpc.busy_s": busy.get("executor.flush_rpc", 0.0),
            "executor.flush_rpc.items": items.get("executor.flush_rpc", 0),
            "executor.flush_fill": float(np.mean(fill)) if fill else 0.0,
            "executor.wait_s": self_s.get("executor.flush_rpc", 0.0),
            "executor.bytes_moved": (
                nbytes.get("executor.flush_rpc", 0)
                + nbytes.get("executor.snapshot", 0)
            ),
            "executor.advance.busy_s": busy.get("executor.advance", 0.0),
            "executor.snapshot.busy_s": busy.get("executor.snapshot", 0.0),
            "kernel.apply.busy_s": busy.get("kernel.apply", 0.0),
            "kernel.apply.mips": mips("kernel.apply"),
            "merge.query_fanin.calls": calls.get("merge.query_fanin", 0),
            "merge.query_fanin.busy_s": busy.get("merge.query_fanin", 0.0),
            "sketch.estimate.busy_s": busy.get("sketch.estimate", 0.0),
            "checkpoint.save.calls": calls.get("checkpoint.save", 0),
            "checkpoint.save.busy_s": busy.get("checkpoint.save", 0.0),
            "checkpoint.bytes": nbytes.get("checkpoint.save", 0),
        }

    def dump(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            for i, s in enumerate(self.spans):
                f.write(json.dumps({
                    "id": i, "name": s.name, "phase": s.phase,
                    "parent": s.parent, "start": s.start, "end": s.end,
                    "items": s.items, "bytes": s.nbytes,
                }) + "\n")
