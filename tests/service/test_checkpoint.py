"""Checkpoint atomicity, recovery, periodic policy and pruning."""

import json

import numpy as np
import pytest

from repro.service import (
    Checkpointer,
    EngineConfig,
    StreamEngine,
    latest_checkpoint,
    recover_engine,
    save_checkpoint,
)


def cm_engine(**overrides):
    cfg = EngineConfig(
        "cm",
        window=2048,
        size=1024,
        num_shards=3,
        flush_batch_size=500,
        flush_interval_s=None,
        sketch_kwargs={"seed": 7},
        **overrides,
    )
    return StreamEngine(cfg)


@pytest.fixture
def stream():
    return np.random.default_rng(3).integers(0, 400, size=9000, dtype=np.uint64)


class TestKillAndRecover:
    def test_recovered_engine_matches_pre_kill_snapshot(self, tmp_path, stream):
        """The ISSUE's acceptance test: checkpoint, discard, recover,
        verify queries match the pre-kill answers."""
        eng = cm_engine()
        eng.ingest(stream)
        probes = np.unique(stream)[:300]
        before = eng.frequency_many(probes)
        clock = eng.now()
        save_checkpoint(eng, tmp_path)
        eng.close()
        del eng

        back = recover_engine(tmp_path)
        assert back.now() == clock
        assert np.array_equal(back.frequency_many(probes), before)
        # and it keeps ingesting exactly like an engine that never died
        ref = cm_engine()
        ref.ingest(stream)
        more = np.random.default_rng(4).integers(0, 400, size=2000, dtype=np.uint64)
        back.ingest(more)
        ref.ingest(more)
        assert np.array_equal(back.frequency_many(probes), ref.frequency_many(probes))

    def test_recover_two_stream_engine(self, tmp_path):
        cfg = EngineConfig(
            "mh", window=1024, size=64, num_shards=2,
            flush_batch_size=500, flush_interval_s=None,
            sketch_kwargs={"seed": 5},
        )
        eng = StreamEngine(cfg)
        rng = np.random.default_rng(6)
        eng.ingest(rng.integers(0, 200, size=3000, dtype=np.uint64), side=0)
        eng.ingest(rng.integers(0, 200, size=2500, dtype=np.uint64), side=1)
        sim = eng.similarity()
        save_checkpoint(eng, tmp_path)
        back = recover_engine(tmp_path)
        assert back.now(0) == 3000 and back.now(1) == 2500
        assert back.similarity() == sim

    def test_recover_includes_buffered_items(self, tmp_path):
        """Checkpointing drains the queues first — nothing buffered is lost."""
        eng = cm_engine()
        eng.ingest(np.full(17, 9, dtype=np.uint64))  # below flush threshold
        assert sum(eng.queue_depths()) == 17
        save_checkpoint(eng, tmp_path)
        back = recover_engine(tmp_path)
        assert back.frequency(9) >= 17

    def test_recover_manifest_with_legacy_transport_key(self, tmp_path, stream):
        """Manifests from when the flush data plane was selectable store
        ``"transport"`` in their config; they must still recover."""
        from repro.service.wal import checksum

        eng = cm_engine()
        eng.ingest(stream)
        probes = np.unique(stream)[:300]
        before = eng.frequency_many(probes)
        path = save_checkpoint(eng, tmp_path)
        eng.close()
        manifest = path / "MANIFEST.json"
        meta = json.loads(manifest.read_text())
        del meta["manifest_crc"]
        meta["config"]["transport"] = "shm"
        crc, variant = checksum(json.dumps(meta, sort_keys=True).encode())
        meta["manifest_crc"] = {"crc": crc, "variant": variant}
        manifest.write_text(json.dumps(meta, indent=2))

        back = recover_engine(tmp_path)
        assert back.now() == stream.size
        assert back.config.transport == "pickle"
        assert np.array_equal(back.frequency_many(probes), before)

    def test_recover_empty_dir_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            recover_engine(tmp_path)

    def test_recover_marks_stats(self, tmp_path, stream):
        eng = cm_engine()
        eng.ingest(stream[:1000])
        save_checkpoint(eng, tmp_path)
        back = recover_engine(tmp_path)
        assert "ckpt-" in back.stats_snapshot()["recovered_from"]


class TestAtomicity:
    def test_torn_checkpoint_is_ignored(self, tmp_path, stream):
        """Recovery skips a newer checkpoint missing shard files or its
        manifest and falls back to the newest complete one."""
        eng = cm_engine()
        eng.ingest(stream)
        good = save_checkpoint(eng, tmp_path)
        probes = np.unique(stream)[:100]
        before = eng.frequency_many(probes)

        # torn attempt #1: manifest never written
        torn1 = tmp_path / "ckpt-00000001"
        torn1.mkdir()
        (torn1 / "shard-00.npz").write_bytes(b"partial")
        # torn attempt #2: manifest present but a shard file missing
        torn2 = tmp_path / "ckpt-00000002"
        torn2.mkdir()
        manifest = json.loads((good / "MANIFEST.json").read_text())
        (torn2 / "MANIFEST.json").write_text(json.dumps(manifest))

        assert latest_checkpoint(tmp_path) == good
        back = recover_engine(tmp_path)
        assert np.array_equal(back.frequency_many(probes), before)

    def test_crash_mid_checkpoint_leaves_no_published_dir(self, tmp_path, stream, monkeypatch):
        eng = cm_engine()
        eng.ingest(stream[:2000])
        calls = {"n": 0}
        real = eng._exec.checkpoint

        def dying(shard_id, path):
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError("disk full")
            real(shard_id, path)

        monkeypatch.setattr(eng._exec, "checkpoint", dying)
        with pytest.raises(OSError):
            save_checkpoint(eng, tmp_path)
        # nothing published, staging cleaned up
        assert latest_checkpoint(tmp_path) is None
        assert list(tmp_path.iterdir()) == []


class TestPolicy:
    def test_checkpointer_interval_items_and_prune(self, tmp_path, stream):
        eng = cm_engine()
        cp = Checkpointer(eng, tmp_path, interval_items=1000, keep=2)
        for lo in range(0, 9000, 500):
            eng.ingest(stream[lo : lo + 500])
            cp.maybe()
        kept = sorted(p.name for p in tmp_path.iterdir())
        assert len(kept) == 2  # pruned down to keep=2
        assert eng.stats.checkpoint_count >= 4
        assert eng.stats_snapshot()["checkpoint_age_s"] is not None
        back = recover_engine(tmp_path)
        assert back.now() == eng.now()

    def test_checkpointer_interval_seconds(self, tmp_path):
        fake = [0.0]
        cfg = EngineConfig(
            "cm", window=512, size=512, num_shards=2,
            flush_batch_size=10**9, flush_interval_s=None,
            sketch_kwargs={"seed": 7},
        )
        eng = StreamEngine(cfg, clock=lambda: fake[0])
        cp = Checkpointer(eng, tmp_path, interval_s=10.0)
        eng.ingest(np.arange(50, dtype=np.uint64))
        assert cp.maybe() is None
        fake[0] = 11.0
        assert cp.maybe() is not None

    def test_checkpointer_needs_an_interval(self, tmp_path):
        with pytest.raises(ValueError):
            Checkpointer(cm_engine(), tmp_path)
