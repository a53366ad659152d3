"""Correctness gate: replay a run's stream into references, untimed.

Each engine answer is checked against the guarantee the sketch
documents, computed from the regenerated stream:

* BF: answers bit-identical to one unsharded ``SheBloomFilter`` fed the
  same stream, and no false negative for a key among the last N items.
* CM: the engine underestimates the exact window count (numpy over the
  last N items) no more often than SHE-CM's all-young fallback share
  (paper section 4.4; the engine tests use 2%).

A digest of every answer lets two commits be compared bit for bit.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from loadgen import QueryRecord
from workloads import KeyStream, Workload

#: SHE-CM all-young fallback share tolerated for underestimates
CM_UNDER_SHARE = 0.02


@dataclass
class CheckResult:
    checked: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)


def digest(queries: list[QueryRecord]) -> str:
    """SHA-256 over every (clock, answer) pair, in order."""
    h = hashlib.sha256()
    for q in queries:
        h.update(np.int64(q.t).tobytes())
        h.update(np.ascontiguousarray(q.answer, dtype=np.float64).tobytes())
    return h.hexdigest()[:16]


def _admitted(stream: KeyStream, skipped, pos: int, n: int):
    """The next ``n`` admitted items from stream position ``pos`` (as
    chunks), and the stream position after them."""
    chunks = []
    while n > 0:
        for a, b in skipped:
            if a <= pos < b:
                pos = b
        stop = min([pos + n] + [a for a, _b in skipped if pos < a < pos + n])
        chunks.append(stream.take(pos, stop))
        n -= stop - pos
        pos = stop
    return chunks, pos


def check_queries(wl: Workload, stream: KeyStream,
                  queries: list[QueryRecord], skipped=()) -> CheckResult:
    """Check every recorded answer of one engine against its stream."""
    res = CheckResult()
    ref = wl.reference_sketch() if wl.kind == "bf" else None
    tail = np.empty(0, dtype=np.uint64)  # last N admitted items
    fed = 0  # admitted items fed so far (the reference clock)
    pos = 0  # stream position after them
    cm_probes = cm_under = 0
    cm_under_queries = 0
    for q in queries:
        chunks, pos = _admitted(stream, skipped, pos, q.t - fed)
        for chunk in chunks:
            if ref is not None:
                ref.insert_many(chunk)
            tail = np.concatenate([tail, chunk])[-wl.window:]
            fed += chunk.size
        res.checked += 1
        if wl.kind == "bf":
            expect = ref.contains_many(q.keys)
            in_window = np.isin(q.keys, tail)
            ok = np.array_equal(np.asarray(q.answer), expect) and bool(
                np.all(np.asarray(q.answer)[in_window])
            )
            if not ok:
                res.failed += 1
        else:
            window = np.sort(tail)
            true = (np.searchsorted(window, q.keys, "right")
                    - np.searchsorted(window, q.keys, "left"))
            under = int(np.count_nonzero(np.asarray(q.answer) < true))
            cm_probes += q.keys.size
            cm_under += under
            cm_under_queries += under > 0
    if wl.kind == "cm":
        allowed = max(2, int(CM_UNDER_SHARE * cm_probes))
        res.notes.append(f"cm underestimates {cm_under}/{cm_probes} probes")
        if cm_under > allowed:
            res.failed += cm_under_queries
    return res
