"""DriftMonitor wired to a live StreamEngine: cadence, metrics, suppression."""

import numpy as np
import pytest

from repro.applications.drift.detectors import DriftState
from repro.applications.drift.monitor import DriftMonitor
from repro.service import EngineConfig, StreamEngine

WINDOW = 1 << 10
EVAL = WINDOW // 4


def _cfg(**over):
    base = dict(
        kind="hll",
        window=WINDOW,
        size=1 << 9,
        num_shards=2,
        flush_batch_size=EVAL,
        flush_interval_s=None,
    )
    base.update(over)
    return EngineConfig(**base)


@pytest.fixture
def engine():
    with StreamEngine(_cfg(), obs=True) as eng:
        yield eng


def make_monitor(engine, **kw):
    kw.setdefault("kinds", ("cardinality", "frequency"))
    kw.setdefault("detector_kwargs", {"burn_in": 8, "alarm_sigma": 4.0})
    return DriftMonitor(engine, **kw)


def stationary(rng, n):
    return rng.integers(0, 200, size=n, dtype=np.uint64)


def drifted(n, offset=1 << 20):
    return np.arange(offset, offset + n, dtype=np.uint64)


def feed(monitor, batches):
    for batch in batches:
        monitor.ingest(batch)
    monitor.flush()


def warm(monitor, rng, windows=6):
    """Stationary traffic long enough to fill estimators and burn in."""
    feed(monitor, [stationary(rng, EVAL) for _ in range(4 * windows)])


class TestCadence:
    def test_one_evaluation_per_eval_every_items(self, engine):
        mon = make_monitor(engine)
        rng = np.random.default_rng(1)
        feed(mon, [stationary(rng, EVAL) for _ in range(4)])
        assert mon.evaluations == 4
        assert mon.last_eval_t == 4 * EVAL

    def test_ragged_batches_do_not_double_evaluate(self, engine):
        mon = make_monitor(engine)
        rng = np.random.default_rng(2)
        # 2 * EVAL items in odd-sized pieces: cadence skips missed
        # slots instead of replaying them
        for n in (EVAL // 3, EVAL // 3, EVAL, EVAL // 3 + 2):
            mon.ingest(stationary(rng, n))
        assert mon.evaluations <= 2
        assert mon.evaluations >= 1

    def test_tick_and_flush_check_cadence(self, engine):
        mon = make_monitor(engine)
        rng = np.random.default_rng(3)
        # bypass the monitor's ingest so only tick()/flush() can evaluate
        engine.ingest(stationary(rng, 2 * EVAL))
        assert mon.evaluations == 0
        mon.tick()
        assert mon.evaluations == 1

    def test_monitor_attaches_to_engine(self, engine):
        mon = make_monitor(engine)
        assert engine._drift_monitor is mon


class TestValidation:
    def test_unknown_kind_rejected(self, engine):
        with pytest.raises(ValueError, match="wavelet"):
            DriftMonitor(engine, kinds=("wavelet",))

    def test_empty_kinds_rejected(self, engine):
        with pytest.raises(ValueError, match="kinds"):
            DriftMonitor(engine, kinds=())


class TestDetection:
    def test_abrupt_drift_alarms_composite(self, engine):
        mon = make_monitor(engine)
        rng = np.random.default_rng(4)
        warm(mon, rng)
        assert mon.state is DriftState.STABLE
        feed(mon, [drifted(EVAL, (1 << 20) + i * EVAL) for i in range(8)])
        assert mon.detector.alarm_count >= 1

    def test_stationary_stream_stays_stable(self, engine):
        mon = make_monitor(engine)
        rng = np.random.default_rng(5)
        warm(mon, rng, windows=8)
        assert mon.state is DriftState.STABLE
        assert mon.detector.alarm_count == 0


class TestSuppression:
    def test_down_shard_suppresses_alarm_until_recovery(self, engine):
        mon = make_monitor(engine)
        rng = np.random.default_rng(6)
        warm(mon, rng)
        engine._down.add(1)  # simulate a dead shard
        try:
            # only half a window of drift: long enough for the members'
            # hysteresis to want an alarm, short enough that the trailing
            # reference has not yet absorbed the new pool
            feed(mon, [drifted(EVAL, (1 << 20) + i * EVAL) for i in range(2)])
            assert mon.detector.alarm_count == 0
            assert mon.last_coverage["degraded"] is True
            assert mon.last_coverage["down_shards"] == [1]
            assert mon.last_coverage["caveat"]
            suppressed = sum(
                d.suppressed_count for d in mon.detector.members.values()
            )
            assert suppressed >= 1
        finally:
            engine._down.clear()
        # coverage restored: the still-drifting stream may now alarm
        feed(mon, [drifted(EVAL, (1 << 24) + i * EVAL) for i in range(4)])
        assert mon.detector.alarm_count >= 1
        assert mon.last_coverage["degraded"] is False

    def test_shed_arrivals_never_reach_the_estimators(self):
        """Estimators observe only admitted batches, so their clocks stay
        on the engine's union-stream clock when ``shed_newest`` sheds."""
        cfg = EngineConfig(
            "cm", window=4096, size=1024, num_shards=4,
            max_buffered_items=256, overload_policy="shed_newest",
            flush_interval_s=None, sketch_kwargs={"seed": 3},
        )
        with StreamEngine(cfg) as eng:
            eng._down.add(0)  # its buffer fills; later arrivals are shed
            mon = DriftMonitor(eng)
            rng = np.random.default_rng(1)
            for _ in range(20):
                mon.ingest(rng.integers(0, 5000, size=512, dtype=np.uint64))
            assert eng.stats_snapshot()["items_shed"] > 0
            t = eng.now(0)
            assert t < 20 * 512
            assert mon.estimators["jaccard"]._mh.counts[0] == t
            assert mon.estimators["cardinality"]._live.t == t
            assert mon.estimators["frequency"]._live.t == t

    def test_suppress_degraded_off_lets_alarms_fire(self, engine):
        mon = make_monitor(engine, suppress_degraded=False)
        rng = np.random.default_rng(7)
        warm(mon, rng)
        engine._down.add(1)
        try:
            feed(mon, [drifted(EVAL, (1 << 20) + i * EVAL) for i in range(8)])
            assert mon.detector.alarm_count >= 1
            # degradation is still *reported* even though not suppressing
            assert mon.last_coverage["degraded"] is True
        finally:
            engine._down.clear()


class TestObservability:
    def test_metric_families_registered_and_published(self, engine):
        mon = make_monitor(engine)
        rng = np.random.default_rng(8)
        warm(mon, rng, windows=2)
        text = engine.obs.registry.render()
        for name in (
            "drift_score",
            "drift_state",
            "drift_alarms_total",
            "drift_alarms_suppressed_total",
            "drift_evaluations_total",
            "drift_last_eval_t",
        ):
            assert name in text, name
        assert 'drift_state{detector="composite"}' in text
        assert 'drift_score{estimator="cardinality"}' in text

    def test_statusz_section_shape(self, engine):
        mon = make_monitor(engine)
        rng = np.random.default_rng(9)
        warm(mon, rng, windows=3)
        sec = mon.statusz_section()
        assert sec["state"] == "stable"
        assert sec["eval_every"] == EVAL
        assert sec["evaluations"] == mon.evaluations
        assert set(sec["scores"]) <= {"cardinality", "frequency"}
        assert sec["coverage"]["degraded"] is False
        assert sec["suppress_degraded"] is True
        assert sec["memory_bytes"] > 0
        assert set(sec["detector"]["members"]) == {"cardinality", "frequency"}

    def test_obs_disabled_engine_still_works(self):
        with StreamEngine(_cfg(), obs=False) as eng:
            mon = make_monitor(eng)
            rng = np.random.default_rng(10)
            feed(mon, [stationary(rng, EVAL) for _ in range(8)])
            assert mon.evaluations == 8  # null registry, no crash


class TestPinnedMode:
    def test_pin_freezes_reference_for_all_estimators(self, engine):
        mon = make_monitor(engine, mode="pinned")
        rng = np.random.default_rng(11)
        feed(mon, [stationary(rng, EVAL) for _ in range(4)])  # one window
        mon.pin()
        warm(mon, rng)  # same pool: stays calibrated/stable
        assert mon.state is DriftState.STABLE
        feed(mon, [drifted(EVAL, (1 << 20) + i * EVAL) for i in range(8)])
        assert mon.detector.alarm_count >= 1
