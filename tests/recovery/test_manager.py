"""Tests for RecoveryManager: checkpoints, rotation, replay, quarantine."""

import os

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.core.engine import GraphBoltEngine
from repro.graph.generators import rmat
from repro.obs.registry import scoped_registry
from repro.recovery import RecoveryError, RecoveryManager, default_poison_check
from repro.runtime import checkpoint
from repro.testing.faults import scoped_failpoints
from tests.conftest import make_random_batch

ITERATIONS = 4


@pytest.fixture
def graph():
    return rmat(scale=5, edge_factor=4, seed=11, weighted=True)


def factory():
    return PageRank()


def fresh_engine(graph):
    engine = GraphBoltEngine(factory(), num_iterations=ITERATIONS)
    engine.run(graph)
    return engine


def growth_poison_check(values):
    """A deterministic poison rule for tests: the workload never grows
    the graph, so any growth marks the batch that caused it as poison.
    (The NaN default rule is unit-tested in TestPoisonCheck; NaN weights
    cannot ride through a MutationBatch, which rejects them up front.)"""
    if values.shape[0] > 32:
        return f"unexpected growth to {values.shape[0]} vertices"
    return None


def growing_batch():
    from repro.graph.mutation import MutationBatch

    return MutationBatch.from_edges(additions=[(0, 1)], grow_to=48)


class TestPoisonCheck:
    def test_nan_is_poison(self):
        values = np.array([1.0, np.nan, 2.0])
        reason = default_poison_check(values)
        assert reason is not None and "vertex 1" in reason

    def test_inf_is_not_poison(self):
        assert default_poison_check(np.array([1.0, np.inf])) is None
        assert default_poison_check(np.array([0.5, 0.5])) is None


class TestCheckpointing:
    def test_restore_equals_uninterrupted(self, tmp_path, graph, rng):
        live = fresh_engine(graph)
        manager = RecoveryManager(str(tmp_path), checkpoint_every=2)
        manager.ensure_initial_checkpoint(live)
        for _ in range(5):
            batch = make_random_batch(live.graph, rng, 6, 6)
            seq = manager.log_batch(batch)
            live.apply_mutations(batch)
            manager.maybe_checkpoint(live, seq + 1)
        manager.close()

        restored, seq = RecoveryManager(str(tmp_path)).restore_engine(
            factory
        )
        assert seq == 5
        assert np.array_equal(restored.values, live.values)
        assert restored.graph.edge_set() == live.graph.edge_set()

    def test_rotation_retains_and_gcs(self, tmp_path, graph, rng):
        live = fresh_engine(graph)
        manager = RecoveryManager(str(tmp_path), checkpoint_every=1,
                                  retain=2, segment_records=1)
        manager.ensure_initial_checkpoint(live)
        for index in range(6):
            batch = make_random_batch(live.graph, rng, 4, 4)
            seq = manager.log_batch(batch)
            live.apply_mutations(batch)
            manager.maybe_checkpoint(live, seq + 1)
        generations = manager.checkpoints()
        assert [seq for seq, _ in generations] == [5, 6]
        # WAL segments below the oldest retained generation are gone.
        assert all(seq >= 5 for seq, _ in manager.wal.replay())
        manager.close()

    def test_restore_reads_and_verifies_checkpoint_once(
            self, tmp_path, graph, rng, monkeypatch):
        live = fresh_engine(graph)
        manager = RecoveryManager(str(tmp_path), checkpoint_every=2)
        manager.ensure_initial_checkpoint(live)
        for _ in range(3):
            batch = make_random_batch(live.graph, rng, 6, 6)
            seq = manager.log_batch(batch)
            live.apply_mutations(batch)
            manager.maybe_checkpoint(live, seq + 1)
        manager.close()

        reads = []
        frame_parser = checkpoint.read_frames

        def counting_parser(source, *args, **kwargs):
            reads.append((source, kwargs.get("limit")))
            return frame_parser(source, *args, **kwargs)

        monkeypatch.setattr(checkpoint, "read_frames", counting_parser)
        restored, seq = RecoveryManager(str(tmp_path)).restore_engine(
            factory
        )
        # One full read of the newest generation (seq 2) -- engine and
        # recovery seq both come from it -- then the WAL tail.
        assert [limit for _, limit in reads] == [None]
        assert seq == 3
        assert np.array_equal(restored.values, live.values)

    def test_cadence(self, tmp_path, graph):
        live = fresh_engine(graph)
        manager = RecoveryManager(str(tmp_path), checkpoint_every=3,
                                  retain=10)
        manager.ensure_initial_checkpoint(live)
        written = [manager.maybe_checkpoint(live, seq)
                   for seq in range(1, 8)]
        assert written == [False, False, True, False, False, True, False]
        manager.close()

    def test_corrupt_newest_falls_back(self, tmp_path, graph, rng):
        live = fresh_engine(graph)
        manager = RecoveryManager(str(tmp_path), checkpoint_every=100,
                                  retain=5)
        manager.ensure_initial_checkpoint(live)
        for _ in range(3):
            batch = make_random_batch(live.graph, rng, 5, 5)
            manager.log_batch(batch)
            live.apply_mutations(batch)
        manager.checkpoint(live, 3)
        # Smash the newest generation; gen 0 + full WAL must re-cover it.
        newest = manager.checkpoints()[-1][1]
        with open(newest, "r+b") as stream:
            stream.seek(100)
            stream.write(b"\x00" * 64)
        manager.close()

        with scoped_registry() as registry:
            restored, seq = RecoveryManager(str(tmp_path)).restore_engine(
                factory
            )
            assert registry.counter(
                "recovery.checkpoints_rejected"
            ).value == 1
        assert seq == 3
        assert np.array_equal(restored.values, live.values)

    def test_no_checkpoint_raises(self, tmp_path):
        manager = RecoveryManager(str(tmp_path))
        with pytest.raises(RecoveryError, match="no loadable checkpoint"):
            manager.restore_engine(factory)
        manager.close()

    def test_stale_temp_files_removed(self, tmp_path, graph):
        manager = RecoveryManager(str(tmp_path))
        manager.ensure_initial_checkpoint(fresh_engine(graph))
        manager.close()
        stale = os.path.join(str(tmp_path), "checkpoints", "x.npz.tmp")
        open(stale, "w").close()
        RecoveryManager(str(tmp_path)).close()
        assert not os.path.exists(stale)


class TestQuarantine:
    def test_replay_quarantines_poison_and_restarts(self, tmp_path, graph,
                                                    rng):
        live = fresh_engine(graph)
        manager = RecoveryManager(str(tmp_path), checkpoint_every=100,
                                  poison_check=growth_poison_check)
        manager.ensure_initial_checkpoint(live)
        good_before = make_random_batch(live.graph, rng, 5, 5)
        manager.log_batch(good_before)
        live.apply_mutations(good_before)
        manager.log_batch(growing_batch())  # seq 1: poison
        good_after = make_random_batch(live.graph, rng, 5, 5)
        manager.log_batch(good_after)
        live.apply_mutations(good_after)
        manager.close()

        with scoped_registry() as registry:
            reopened = RecoveryManager(str(tmp_path), checkpoint_every=100,
                                       poison_check=growth_poison_check)
            restored, seq = reopened.restore_engine(factory)
            assert registry.counter(
                "recovery.batches_quarantined"
            ).value == 1
        assert reopened.quarantined == frozenset({1})
        assert "growth" in reopened.quarantine_reasons()[1]
        assert seq == 3  # quarantined records still count positionally
        assert np.array_equal(restored.values, live.values)
        reopened.close()

        # The verdict is durable: a third open skips seq 1 immediately.
        again = RecoveryManager(str(tmp_path), checkpoint_every=100,
                                poison_check=growth_poison_check)
        assert again.quarantined == frozenset({1})
        restored2, _ = again.restore_engine(factory)
        assert np.array_equal(restored2.values, live.values)
        again.close()


class TestRetries:
    def test_transient_fault_is_retried(self, tmp_path, graph, rng):
        live = fresh_engine(graph)
        with scoped_registry() as registry, scoped_failpoints() as points:
            manager = RecoveryManager(str(tmp_path), retry_backoff=0.0)
            manager.ensure_initial_checkpoint(live)
            points.arm("wal.append", kind="fault", hit=1)
            seq = manager.log_batch(make_random_batch(live.graph, rng))
            assert seq == 0
            assert registry.counter("recovery.retries").value == 1
            assert points.fired_sites() == ["wal.append"]
            manager.close()

    def test_persistent_fault_exhausts_retries(self, tmp_path):
        manager = RecoveryManager(str(tmp_path), retry_attempts=3,
                                  retry_backoff=0.0)

        def always_fails():
            raise OSError("disk on fire")

        with scoped_registry() as registry:
            with pytest.raises(OSError, match="disk on fire"):
                manager._with_retries("test", always_fails)
            assert registry.counter("recovery.retries").value == 3
        manager.close()


class TestDirectoryGuards:
    def test_attach_to_populated_directory_rejected(self, tmp_path, graph):
        manager = RecoveryManager(str(tmp_path))
        manager.ensure_initial_checkpoint(fresh_engine(graph))
        manager.close()
        reopened = RecoveryManager(str(tmp_path))
        with pytest.raises(RecoveryError, match="already contains"):
            reopened.ensure_initial_checkpoint(fresh_engine(graph))
        reopened.close()

    def test_manifest_roundtrip(self, tmp_path):
        manager = RecoveryManager(str(tmp_path))
        manager.write_manifest({"algorithm": "pagerank", "seed": 3})
        assert manager.read_manifest() == {
            "algorithm": "pagerank", "seed": 3,
        }
        manager.close()

    def test_missing_manifest_raises(self, tmp_path):
        manager = RecoveryManager(str(tmp_path))
        with pytest.raises(RecoveryError, match="manifest"):
            manager.read_manifest()
        manager.close()


class TestShippingSurface:
    """The contracts replication ships over: gap-checked sealed
    segments, adopted checkpoints, and the merged skip ledger."""

    def logged(self, tmp_path, graph, rng, count=5):
        manager = RecoveryManager(str(tmp_path), checkpoint_every=100,
                                  segment_records=2)
        for _ in range(count):
            manager.log_batch(make_random_batch(graph, rng, 4, 4))
        return manager

    def test_sealed_segments_are_contiguous(self, tmp_path, graph, rng):
        manager = self.logged(tmp_path, graph, rng)
        sealed = manager.sealed_segments()
        assert [(s.first_seq, s.end_seq) for s in sealed] == [
            (0, 2), (2, 4)]
        assert manager.seal_active_segment() is True
        assert manager.sealed_segments()[-1].end_seq == 5
        manager.close()

    def test_vanished_segment_raises_instead_of_skipping(
            self, tmp_path, graph, rng):
        from repro.recovery import SegmentGapError

        manager = self.logged(tmp_path, graph, rng)
        victim = manager.sealed_segments()[0]
        os.remove(victim.path)
        # Shipping or replaying past the hole would fork replica state
        # from the writer's: the gap check names the missing range.
        with pytest.raises(SegmentGapError, match="vanished"):
            manager.sealed_segments()
        manager.close()

    def test_adopt_checkpoint_installs_the_writer_blob(
            self, tmp_path, graph, rng):
        live = fresh_engine(graph)
        writer = RecoveryManager(str(tmp_path / "writer"),
                                 checkpoint_every=100)
        path = writer.checkpoint(live, 4)
        with open(path, "rb") as stream:
            blob = stream.read()
        writer.close()

        replica = RecoveryManager(str(tmp_path / "replica"),
                                  checkpoint_every=100)
        adopted = replica.adopt_checkpoint(4, blob)
        assert replica.checkpoints() == [(4, adopted)]
        # Byte-for-byte adoption: the restored engine is the writer's.
        restored, seq = replica.restore_engine(factory)
        assert seq == 4
        assert np.array_equal(restored.values, live.values)
        # Re-adopting an existing generation is an idempotent no-op.
        assert replica.adopt_checkpoint(4, b"garbage") == adopted
        restored2, _ = replica.restore_engine(factory)
        assert np.array_equal(restored2.values, live.values)
        replica.close()

    def test_import_skip_marks_keeps_local_entries(self, tmp_path):
        manager = RecoveryManager(str(tmp_path), checkpoint_every=100)
        manager.shed(0, "queue over capacity 1")
        added = manager.import_skip_marks(
            {0: "writer says otherwise", 3: "shed: writer pressure"})
        assert added == 1
        reasons = manager.quarantine_reasons()
        assert reasons[0] == "shed: queue over capacity 1"  # local wins
        assert reasons[3] == "shed: writer pressure"
        # The merged ledger is durable.
        manager.close()
        reopened = RecoveryManager(str(tmp_path), checkpoint_every=100)
        assert reopened.quarantined == frozenset({0, 3})
        assert reopened.poison_quarantined() == frozenset()
        reopened.close()
