"""Tests for WAL-shipped read replicas with epoch fencing.

The property stack, bottom up:

- the wire format round-trips and both transports deliver in order
  with two-phase (peek/ack) consumption;
- a cluster of replicas replaying shipped segments + checkpoints
  converges **bit-for-bit** with the writer and with a serial
  uninterrupted reference;
- a killed replica restarts from its own checkpoint + mirror tail and
  catches up; the delivery-lag signal (:meth:`staleness`) is zero in
  steady state and grows only when a replica stops applying;
- promotion fences the deposed writer: its late shipments land on the
  survivors' durable fence ledgers, never in their state;
- the writer's durable skip-marks (shed/coalesce/poison) ship with
  every segment, so replica replay skips exactly what the writer
  skipped.
"""

import json
import os

import numpy as np
import pytest

from repro.algorithms import PageRank
from repro.graph.generators import rmat
from repro.recovery import RecoveryManager
from repro.serving import (
    DirectoryTransport,
    EpochAuthority,
    InProcessTransport,
    ReplicationCluster,
    ReplicationError,
    ResilientAnalyticsServer,
    Shipment,
    StreamingAnalyticsServer,
    replication_status,
)
from tests.conftest import make_random_batch


@pytest.fixture
def graph():
    return rmat(scale=6, edge_factor=5, seed=17, weighted=True)


def plain_server(graph, **kwargs):
    kwargs.setdefault("approx_iterations", 3)
    return StreamingAnalyticsServer(lambda: PageRank(), graph, **kwargs)


def build_cluster(graph, root, *, transport="inproc", replicas=2,
                  checkpoint_every=2, segment_records=2,
                  admission="block", queue_capacity=64):
    manager = RecoveryManager(str(root),
                              checkpoint_every=checkpoint_every,
                              retain=2, segment_records=segment_records)
    resilient = ResilientAnalyticsServer(
        plain_server(graph, recovery=manager),
        admission=admission, queue_capacity=queue_capacity,
    )
    return ReplicationCluster(resilient, lambda: PageRank(), str(root),
                              replicas=replicas, transport=transport)


def shadow_values(graph, batches):
    server = plain_server(graph)
    for batch in batches:
        server.ingest(batch)
    return server.approximate_values


# ----------------------------------------------------------------------
# Wire format + transports
# ----------------------------------------------------------------------
class TestShipmentWire:
    def test_json_roundtrip_is_lossless(self):
        shipment = Shipment(
            kind="segment", epoch=3, index=7, first_seq=4, end_seq=6,
            lines=("line-a", "line-b"), blob=b"\x00\x01\xff",
            skip={2: "shed: queue over capacity 1"},
        )
        assert Shipment.from_json(shipment.to_json()) == shipment


class TestTransports:
    def ship(self, index):
        return Shipment(kind="segment", epoch=1, index=index,
                        first_seq=index, end_seq=index + 1)

    def test_inproc_peek_then_ack(self):
        link = InProcessTransport()
        for index in range(3):
            link.send(self.ship(index))
        assert link.pending() == 3
        # peek does not consume: redelivery after a mid-apply death.
        assert link.peek().index == 0
        assert link.peek().index == 0
        link.ack()
        assert link.peek().index == 1
        assert link.pending() == 2

    def test_directory_spool_survives_reopen(self, tmp_path):
        spool = str(tmp_path / "inbox")
        link = DirectoryTransport(spool)
        for index in range(3):
            link.send(self.ship(index))
        assert link.peek().index == 0
        link.ack()
        # A fresh consumer (restarted replica process) resumes at the
        # persisted cursor with unacked shipments intact.
        reopened = DirectoryTransport(spool)
        assert reopened.pending() == 2
        assert reopened.peek().index == 1
        reopened.ack()
        reopened.ack()
        with pytest.raises(ReplicationError, match="no pending"):
            reopened.ack()


class TestEpochAuthority:
    def test_epoch_persists_across_reopen(self, tmp_path):
        path = str(tmp_path / "epoch.json")
        authority = EpochAuthority(path)
        assert authority.epoch == 1
        assert authority.advance() == 2
        assert EpochAuthority(path).epoch == 2


# ----------------------------------------------------------------------
# Convergence
# ----------------------------------------------------------------------
class TestClusterConvergence:
    @pytest.mark.parametrize("transport", ["inproc", "directory"])
    def test_replicas_converge_bit_for_bit(self, graph, rng, tmp_path,
                                           transport):
        cluster = build_cluster(graph, tmp_path, transport=transport)
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(6)]
        for batch in batches:
            cluster.submit(batch)
            cluster.replicate()
        cluster.sync()
        expected = shadow_values(graph, batches)
        writer_values = cluster.writer.approximate_values
        assert np.array_equal(writer_values, expected)
        for name, replica in cluster.replicas.items():
            assert np.array_equal(replica.approximate_values,
                                  writer_values), name
        assert cluster.max_lag() == 0
        assert cluster.staleness() == 0
        cluster.close()

    def test_submit_returns_read_your_writes_token(self, graph, rng,
                                                   tmp_path):
        cluster = build_cluster(graph, tmp_path)
        token = cluster.submit(make_random_batch(graph, rng, 4, 4))
        assert token == 1  # one durable record logged
        assert cluster.submit(make_random_batch(graph, rng, 4, 4)) == 2
        cluster.close()

    def test_writer_must_be_durable(self, graph):
        with pytest.raises(ReplicationError, match="durable"):
            ReplicationCluster(
                ResilientAnalyticsServer(plain_server(graph)),
                lambda: PageRank(), "unused-root",
            )

    def test_unknown_transport_rejected(self, graph, tmp_path):
        with pytest.raises(ReplicationError, match="transport"):
            build_cluster(graph, tmp_path, transport="carrier-pigeon")


# ----------------------------------------------------------------------
# Kill / restart
# ----------------------------------------------------------------------
class TestKillRestart:
    def test_replica_restarts_from_checkpoint_and_tail(self, graph, rng,
                                                       tmp_path):
        cluster = build_cluster(graph, tmp_path)
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(6)]
        for batch in batches[:3]:
            cluster.submit(batch)
            cluster.replicate()
        cluster.kill_replica("r0")
        for batch in batches[3:]:
            cluster.submit(batch)
            cluster.replicate()
        # The writer keeps shipping to the dead replica's inbox: the
        # shipped-but-unapplied backlog is exactly the staleness signal.
        assert cluster.staleness() > 0
        assert not cluster.replicas["r0"].alive
        cluster.restart_replica("r0")
        cluster.sync()
        assert cluster.staleness() == 0
        assert cluster.max_lag() == 0
        expected = shadow_values(graph, batches)
        for name, replica in cluster.replicas.items():
            assert np.array_equal(replica.approximate_values,
                                  expected), name
        cluster.close()


# ----------------------------------------------------------------------
# The two lag signals
# ----------------------------------------------------------------------
class TestStalenessSignal:
    def test_pipeline_lag_is_not_staleness(self, graph, rng, tmp_path):
        """max_lag sawtooths with the shipping cadence; staleness does
        not -- a healthy replica owes nothing it was never shipped."""
        cluster = build_cluster(graph, tmp_path, checkpoint_every=8,
                                segment_records=256)
        for _ in range(3):
            cluster.submit(make_random_batch(graph, rng, 4, 4))
            cluster.replicate()
        # Nothing sealed, no checkpoint crossed: replicas trail the
        # writer's position but have applied everything delivered.
        assert cluster.max_lag() == 3
        assert cluster.staleness() == 0
        cluster.sync()
        assert cluster.max_lag() == 0
        cluster.close()

    def test_shipped_through_tracks_links(self, graph, rng, tmp_path):
        cluster = build_cluster(graph, tmp_path)
        assert cluster.writer_node.shipped_through("r0") == 0
        assert cluster.writer_node.shipped_through("nope") == 0
        for _ in range(4):
            cluster.submit(make_random_batch(graph, rng, 4, 4))
            cluster.replicate()
        assert cluster.writer_node.shipped_through("r0") > 0
        cluster.close()


# ----------------------------------------------------------------------
# Fencing
# ----------------------------------------------------------------------
class TestFencing:
    def drive(self, graph, rng, tmp_path):
        cluster = build_cluster(graph, tmp_path)
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(4)]
        for batch in batches[:2]:
            cluster.submit(batch)
            cluster.replicate()
        # The writer runs ahead un-replicated, then loses the crown.
        for batch in batches[2:]:
            cluster.submit(batch)
        return cluster, batches

    def test_promote_fences_the_deposed_writer(self, graph, rng,
                                               tmp_path):
        cluster, batches = self.drive(graph, rng, tmp_path)
        promoted = cluster.promote("r0")
        assert cluster.authority.epoch == 2
        assert "r0" not in cluster.replicas
        # The deposed writer's late tail arrives with a stale epoch:
        # rejected onto the survivor's durable ledger, never applied.
        deposed = cluster.deposed[-1]
        deposed.seal_tail()
        deposed.ship()
        cluster.deliver()
        survivor = cluster.replicas["r1"]
        ledger = survivor.fence_ledger()
        assert ledger
        assert all(entry["epoch"] < 2 for entry in ledger)
        assert survivor.fence_rejections == len(ledger)
        # The client re-drives the unacknowledged tail at the new
        # writer; the cluster then converges on the full stream.
        for batch in batches[promoted.server.batches_ingested:]:
            cluster.submit(batch)
            cluster.replicate()
        cluster.sync()
        expected = shadow_values(graph, batches)
        assert np.array_equal(cluster.writer.approximate_values,
                              expected)
        assert np.array_equal(survivor.approximate_values, expected)
        # The epoch survives on disk for the next incarnation.
        authority = EpochAuthority(str(tmp_path / "epoch.json"))
        assert authority.epoch == 2
        cluster.close()

    def test_redelivered_stale_shipment_dedups_on_the_ledger(
            self, graph, rng, tmp_path):
        cluster, _ = self.drive(graph, rng, tmp_path)
        cluster.promote("r0")
        survivor = cluster.replicas["r1"]
        stale = Shipment(kind="segment", epoch=1, index=999,
                         first_seq=50, end_seq=51)
        survivor.inbox.send(stale)
        cluster.deliver()
        once = survivor.fence_rejections
        assert once >= 1
        survivor.inbox.send(stale)  # at-least-once redelivery
        cluster.deliver()
        assert survivor.fence_rejections == once
        cluster.close()

    def test_cannot_promote_a_dead_replica(self, graph, rng, tmp_path):
        cluster, _ = self.drive(graph, rng, tmp_path)
        cluster.kill_replica("r0")
        with pytest.raises(ReplicationError, match="dead"):
            cluster.promote("r0")
        assert "r0" in cluster.replicas  # put back, not lost
        cluster.close()


# ----------------------------------------------------------------------
# Skip-mark propagation
# ----------------------------------------------------------------------
class TestSkipMarks:
    def test_shed_records_replicate_as_skips_not_batches(self, graph,
                                                         rng, tmp_path):
        cluster = build_cluster(graph, tmp_path,
                                admission="shed-oldest",
                                queue_capacity=2)
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(5)]
        for batch in batches:
            cluster.writer.submit(batch, pump=False)
        cluster.writer.drain()
        cluster.sync()
        writer_marks = cluster.writer_node.manager.quarantine_reasons()
        shed = {seq for seq, reason in writer_marks.items()
                if reason.startswith("shed:")}
        assert shed == {0, 1, 2}
        expected = shadow_values(graph, batches[3:])
        for name, replica in cluster.replicas.items():
            assert np.array_equal(replica.approximate_values,
                                  expected), name
            # The writer's ledger was adopted, so a replica restart
            # replays the same survivor stream.
            assert shed <= set(replica.manager.quarantined), name
        cluster.close()


# ----------------------------------------------------------------------
# Status surfaces
# ----------------------------------------------------------------------
class TestStatus:
    def test_live_status_shape(self, graph, rng, tmp_path):
        cluster = build_cluster(graph, tmp_path)
        for _ in range(3):
            cluster.submit(make_random_batch(graph, rng, 4, 4))
            cluster.replicate()
        cluster.sync()
        summary = cluster.status()
        assert summary["epoch"] == 1
        assert summary["writer"]["next_seq"] == 3
        assert summary["writer"]["links"] == ["r0", "r1"]
        for name in ("r0", "r1"):
            info = summary["replicas"][name]
            assert info["alive"] is True
            assert info["next_seq"] == 3
            assert info["lag_batches"] == 0
            assert info["fence_rejections"] == 0
        cluster.close()

    def test_offline_status_reads_the_directory_tree(self, graph, rng,
                                                     tmp_path):
        cluster = build_cluster(graph, tmp_path)
        for _ in range(4):
            cluster.submit(make_random_batch(graph, rng, 4, 4))
            cluster.replicate()
        cluster.sync()
        cluster.close()
        report = replication_status(str(tmp_path))
        assert report["epoch"] == 1
        assert report["writer"]["next_seq"] == 4
        assert set(report["replicas"]) == {"r0", "r1"}
        for info in report["replicas"].values():
            assert info["next_seq"] == 4
        # The report is JSON-serialisable as-is (the CLI prints it).
        json.dumps(report)

    def test_offline_status_requires_a_directory(self, tmp_path):
        with pytest.raises(ReplicationError, match="not a directory"):
            replication_status(str(tmp_path / "absent"))


# ----------------------------------------------------------------------
# Snapshot-store segment shipping (mmap writer graphs)
# ----------------------------------------------------------------------
class TestStoreSegmentShipping:
    """When the writer's graph lives in an :class:`MmapStore`, its
    manifest-mode checkpoints reference store segment files; those
    files must ship through the transport ahead of the checkpoint, and
    a replica bootstrap must open them from its *own* store spool as
    memmaps -- a file copy, not a full-WAL replay."""

    def _mmap_cluster(self, tmp_path):
        from repro.graph.storage import MmapStore

        store = MmapStore(str(tmp_path / "writer-store"))
        graph = store.publish(
            rmat(scale=6, edge_factor=5, seed=17, weighted=True))
        cluster = build_cluster(graph, tmp_path / "cluster",
                                transport="directory")
        return graph, cluster

    def test_segments_ship_through_directory_transport(
            self, rng, tmp_path):
        from repro.obs.registry import scoped_registry

        with scoped_registry() as registry:
            graph, cluster = self._mmap_cluster(tmp_path)
            batches = [make_random_batch(graph, rng, 8, 8)
                       for _ in range(6)]
            for batch in batches:
                cluster.submit(batch)
                cluster.replicate()
            cluster.sync()
            shipped = registry.counter(
                "replication.store_segments_shipped").value
            assert shipped >= 6, (
                "manifest-mode checkpoints must ship their snapshot "
                "segment files (six arrays per snapshot)"
            )
            expected = shadow_values(graph, batches)
            for name, replica in cluster.replicas.items():
                assert np.array_equal(replica.approximate_values,
                                      expected), name
                spooled = [f for f in os.listdir(replica.store_root)
                           if f.endswith(".seg")]
                assert spooled, (
                    f"replica {name} has no shipped store segments"
                )
            cluster.close()

    def test_each_file_is_read_once_per_ship_round(
            self, rng, tmp_path, monkeypatch):
        """Two links, one read: a ship round reads each checkpoint and
        store segment file once and hands both links the same bytes."""
        from repro.graph.storage import MmapStore
        from repro.serving import replication

        rounds = []
        real_open, real_ship = open, replication.ReplicationWriter.ship
        real_send = replication.InProcessTransport.send

        def counting_open(path, mode="r", *args, **kwargs):
            if rounds and mode == "rb":
                rounds[-1]["reads"].append(path)
            return real_open(path, mode, *args, **kwargs)

        def recording_ship(writer):
            rounds.append({"reads": [], "blobs": []})
            return real_ship(writer)

        def recording_send(transport, shipment):
            if rounds and shipment.kind in ("checkpoint", "store"):
                rounds[-1]["blobs"].append(shipment.blob)
            return real_send(transport, shipment)

        monkeypatch.setattr(replication, "open", counting_open,
                            raising=False)
        monkeypatch.setattr(replication.ReplicationWriter, "ship",
                            recording_ship)
        monkeypatch.setattr(replication.InProcessTransport, "send",
                            recording_send)
        graph = MmapStore(str(tmp_path / "writer-store")).publish(
            rmat(scale=6, edge_factor=5, seed=17, weighted=True))
        cluster = build_cluster(graph, tmp_path / "cluster", replicas=2)
        for _ in range(4):
            cluster.submit(make_random_batch(graph, rng, 8, 8))
            cluster.replicate()
        cluster.sync()
        cluster.close()

        for round_ in rounds:
            reads = round_["reads"]
            assert len(reads) == len(set(reads)), reads
        # The bootstrap round ships a checkpoint and its six store
        # segments to both links: seven files, each read once, and
        # each link handed the very same bytes objects.
        bootstrap = next(round_ for round_ in rounds if round_["blobs"])
        assert len(bootstrap["reads"]) == 7
        assert len(bootstrap["blobs"]) == 14
        assert len({id(blob) for blob in bootstrap["blobs"]}) == 7

    def test_replica_restart_bootstraps_from_local_spool(
            self, rng, tmp_path):
        """A restarted replica restores the checkpointed graph from
        segment files in its own spool -- memmap views under the
        replica's store root, and strictly fewer WAL records replayed
        than the writer ingested."""
        graph, cluster = self._mmap_cluster(tmp_path)
        batches = [make_random_batch(graph, rng, 8, 8)
                   for _ in range(6)]
        for batch in batches:
            cluster.submit(batch)
            cluster.replicate()
        cluster.sync()
        cluster.kill_replica("r0")
        replica = cluster.restart_replica("r0")
        cluster.sync()
        assert np.array_equal(replica.approximate_values,
                              shadow_values(graph, batches))
        # The restored snapshot must be served from the replica's own
        # spool, not the writer's store directory.
        restored = replica.server.engine.graph
        targets = restored.out_targets
        assert isinstance(targets, np.memmap)
        assert os.path.abspath(targets.filename).startswith(
            os.path.abspath(replica.store_root))
        # Bootstrap position: the replica resumed from a checkpoint,
        # not from seq 0 (full-WAL replay).
        generations = replica.manager.checkpoints()
        assert generations and generations[-1][0] > 0
        cluster.close()
