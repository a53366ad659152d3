"""`DriftMonitor` — the drift service wired to a :class:`StreamEngine`.

The monitor taps the engine's ingest path: every admitted batch also
feeds a small per-estimator sketch pair (live window vs reference
window, :mod:`repro.applications.drift.distances`), so the distance
scores always describe the same union-stream clock the engine's own
fan-in uses.  Evaluations run on the engine cadence — every
``eval_every`` union-stream items, checked on :meth:`ingest`,
:meth:`tick` and :meth:`flush` — and drive one
:class:`CompositeDriftDetector`.

**Degraded-coverage suppression.**  Before each evaluation the monitor
snapshots the engine's coverage: ``down_shards`` (shards with no live
worker) and ``shed_in_window`` (shards that dropped arrivals under
admission control inside the current window).  When either is
non-empty the evaluation runs with ``suppress=True`` — scores still
update states up to WARN, but a would-be ALARM is recorded as a
suppressed event instead, carrying the same per-kind caveat string a
:class:`~repro.service.engine.DegradedAnswer` would (via the algorithm
descriptor's ``caveat`` hook).  A distance measured while coverage is
degraded describes the outage, not the input distribution; paging on
it would be a false drift alarm.

Observability: publishes ``drift_score{estimator=}`` and
``drift_state{detector=}`` gauges, ``drift_alarms_total`` /
``drift_alarms_suppressed_total`` counters and
``drift_evaluations_total`` into the engine's registry (no-ops when
obs is off), and a ``drift`` section into the exporter's ``/statusz``
(the monitor attaches itself as ``engine._drift_monitor``, mirroring
the Supervisor pattern).
"""

from __future__ import annotations

import numpy as np

from repro.applications.drift.detectors import (
    STATE_CODES,
    CompositeDriftDetector,
    DriftDetector,
)
from repro.applications.drift.distances import DISTANCE_KINDS, make_estimator
from repro.common.validation import require_positive_int

__all__ = ["DriftMonitor"]


class DriftMonitor:
    """Online drift detection over an engine's input stream (module docs).

    Args:
        engine: the :class:`~repro.service.engine.StreamEngine` to
            monitor.  For two-stream (MH) engines only side 0 is
            monitored.
        kinds: distance estimators to run (default: all three).
        mode: reference-window mode for every estimator
            (``"trailing"`` or ``"pinned"``; pin with :meth:`pin`).
        lag: trailing-reference lag (default: one window).
        eval_every: evaluation cadence in union-stream items
            (default: ``window // 4``).
        quorum: members that must alarm for a composite alarm
            (clamped to ``len(kinds)``).
        suppress_degraded: run evaluations with ``suppress=True``
            while coverage is degraded (module docs).  Off means
            degraded coverage is still *reported* but alarms fire.
        detector_kwargs: forwarded to every member
            :class:`DriftDetector` (e.g. ``alarm_sigma``).
        estimator_kwargs: per-kind overrides,
            ``{"jaccard": {"num_counters": 1024}, ...}``.
    """

    def __init__(
        self,
        engine,
        *,
        kinds: tuple[str, ...] = DISTANCE_KINDS,
        mode: str = "trailing",
        lag: int | None = None,
        eval_every: int | None = None,
        quorum: int = 2,
        suppress_degraded: bool = True,
        detector_kwargs: dict | None = None,
        estimator_kwargs: dict | None = None,
    ):
        if not kinds:
            raise ValueError("kinds must name at least one distance estimator")
        unknown = set(kinds) - set(DISTANCE_KINDS)
        if unknown:
            raise ValueError(
                f"unknown distance kinds {sorted(unknown)}; "
                f"choose from {DISTANCE_KINDS}"
            )
        self.engine = engine
        window = engine.window
        self.eval_every = (
            require_positive_int("eval_every", eval_every)
            if eval_every is not None
            else max(1, window // 4)
        )
        self.suppress_degraded = bool(suppress_degraded)
        per_kind = estimator_kwargs or {}
        self.estimators = {
            kind: make_estimator(
                kind, window, mode=mode, lag=lag, **per_kind.get(kind, {})
            )
            for kind in kinds
        }
        dk = detector_kwargs or {}
        self.detector = CompositeDriftDetector(
            {kind: DriftDetector(kind, **dk) for kind in kinds},
            quorum=quorum,
        )
        self.evaluations = 0
        self.last_eval_t: int | None = None
        self.last_scores: dict[str, float] = {}
        self.last_coverage: dict = {"degraded": False}
        self._next_eval = self.eval_every
        self._prev_alarms = {kind: 0 for kind in kinds}
        self._prev_suppressed = {kind: 0 for kind in kinds}
        self._prev_composite_alarms = 0
        self._init_metrics(kinds)
        engine._drift_monitor = self  # /statusz hook, like engine._supervisor

    def _init_metrics(self, kinds) -> None:
        reg = self.engine.obs.registry
        g_score = reg.gauge(
            "drift_score", "Window-vs-window distance score", labels=("estimator",)
        )
        g_state = reg.gauge(
            "drift_state",
            "Detector state (0=stable 1=warn 2=alarm 3=recovering)",
            labels=("detector",),
        )
        c_alarms = reg.counter(
            "drift_alarms_total", "Drift alarms raised", labels=("detector",)
        )
        c_suppressed = reg.counter(
            "drift_alarms_suppressed_total",
            "Would-be alarms suppressed by degraded coverage",
            labels=("detector",),
        )
        self._c_evals = reg.counter(
            "drift_evaluations_total", "Drift evaluations run"
        )
        self._g_last_t = reg.gauge(
            "drift_last_eval_t", "Union-stream time of the last evaluation"
        )
        # pre-resolve children: the eval path never does label lookups
        self._m_score = {k: g_score.labels(k) for k in kinds}
        self._m_state = {k: g_state.labels(k) for k in kinds}
        self._m_state["composite"] = g_state.labels("composite")
        self._m_alarms = {k: c_alarms.labels(k) for k in kinds}
        self._m_alarms["composite"] = c_alarms.labels("composite")
        self._m_suppressed = {k: c_suppressed.labels(k) for k in kinds}

    # -- stream path ---------------------------------------------------------

    def ingest(self, keys, side: int | None = None) -> None:
        """Forward a batch to the engine and tap it into the estimators.

        For two-stream engines only side-0 batches feed the estimators
        (side 1 is the comparison exchange, not the monitored stream).
        Only the arrivals the engine admitted are tapped: keys turned
        away by ``shed_newest`` never tick the engine's clock, so they
        must not tick the estimators' either.
        """
        admitted = self.engine.ingest(
            np.asarray(keys, dtype=np.uint64), side=side
        )
        if side in (None, 0):
            for est in self.estimators.values():
                est.observe(admitted)
        self.maybe_evaluate()

    def tick(self) -> None:
        """Engine time-based flush trigger plus a due-evaluation check."""
        self.engine.tick()
        self.maybe_evaluate()

    def flush(self) -> None:
        self.engine.flush()
        self.maybe_evaluate()

    def pin(self) -> None:
        """Freeze the current window as the reference (pinned mode)."""
        for est in self.estimators.values():
            est.pin()

    # -- evaluation ----------------------------------------------------------

    def maybe_evaluate(self) -> bool:
        """Evaluate iff the cadence says one is due; returns whether it ran."""
        t = self.engine.now(0)
        if t < self._next_eval:
            return False
        self.evaluate(t)
        # skip missed slots rather than replaying them: scores are
        # window-level, evaluating twice at the same clock adds nothing
        self._next_eval = t + self.eval_every
        return True

    def coverage_snapshot(self) -> dict:
        """Engine coverage as the suppression decision sees it."""
        down = list(self.engine.down_shards)
        shed = list(self.engine.overload_snapshot()["shed_in_window"])
        degraded = bool(down or shed)
        caveat = None
        if degraded:
            caveat = self.engine.config.descriptor().caveat(
                missing=bool(down), shed=bool(shed)
            )
        return {
            "degraded": degraded,
            "down_shards": down,
            "shed_in_window": shed,
            "caveat": caveat,
        }

    def evaluate(self, t: int | None = None) -> dict[str, float]:
        """Run one evaluation now, regardless of cadence.

        Returns the scores of the estimators that were ready (warmed-up
        live *and* reference windows); estimators still warming up are
        skipped and their detectors keep their state.
        """
        t = self.engine.now(0) if t is None else int(t)
        coverage = self.coverage_snapshot()
        suppress = self.suppress_degraded and coverage["degraded"]
        scores = {
            kind: est.distance()
            for kind, est in self.estimators.items()
            if est.ready()
        }
        self.detector.update(scores, t, suppress=suppress)
        self.evaluations += 1
        self.last_eval_t = t
        self.last_scores = scores
        self.last_coverage = coverage
        self._publish(scores, t)
        return scores

    def _publish(self, scores: dict[str, float], t: int) -> None:
        self._c_evals.inc()
        self._g_last_t.set(t)
        for kind, score in scores.items():
            self._m_score[kind].set(score)
        for kind, det in self.detector.members.items():
            self._m_state[kind].set(STATE_CODES[det.state])
            if det.alarm_count > self._prev_alarms[kind]:
                self._m_alarms[kind].inc(det.alarm_count - self._prev_alarms[kind])
                self._prev_alarms[kind] = det.alarm_count
            if det.suppressed_count > self._prev_suppressed[kind]:
                self._m_suppressed[kind].inc(
                    det.suppressed_count - self._prev_suppressed[kind]
                )
                self._prev_suppressed[kind] = det.suppressed_count
        self._m_state["composite"].set(STATE_CODES[self.detector.state])
        if self.detector.alarm_count > self._prev_composite_alarms:
            self._m_alarms["composite"].inc(
                self.detector.alarm_count - self._prev_composite_alarms
            )
            self._prev_composite_alarms = self.detector.alarm_count

    # -- introspection -------------------------------------------------------

    @property
    def state(self):
        return self.detector.state

    @property
    def memory_bytes(self) -> int:
        return sum(est.memory_bytes for est in self.estimators.values())

    def statusz_section(self) -> dict:
        """The ``drift`` section of the exporter's ``/statusz``."""
        return {
            "state": self.detector.state.value,
            "eval_every": self.eval_every,
            "evaluations": self.evaluations,
            "last_eval_t": self.last_eval_t,
            "scores": dict(self.last_scores),
            "coverage": dict(self.last_coverage),
            "suppress_degraded": self.suppress_degraded,
            "memory_bytes": self.memory_bytes,
            "detector": self.detector.snapshot(),
        }
