"""Unit tests for the pluggable snapshot stores.

The contract under test: :class:`MmapStore` is a drop-in behind the
unchanged :class:`CSRGraph` slice API -- every array it serves is
bit-for-bit equal to the heap build it was published from, torn or
corrupted segments are detected by CRC/header checks, and generation
lifecycle (live refs, pins, compaction) never deletes a reachable
snapshot.
"""

import io
import os

import numpy as np
import pytest

from repro.graph.csr import CSRGraph
from repro.graph.generators import rmat, rmat_streamed, rmat_xl
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.graph.storage import (
    ARRAY_NAMES,
    ENV_SNAPSHOT_STORE,
    HeapStore,
    MmapStore,
    StoreError,
    read_frames,
    store_from_env,
    store_from_spec,
    write_frame,
)


def small_graph(seed=3):
    return rmat(6, 4, seed=seed, weighted=True)


def assert_graphs_equal(left, right):
    assert left.num_vertices == right.num_vertices
    for name in ARRAY_NAMES:
        assert np.array_equal(np.asarray(getattr(left, name)),
                              np.asarray(getattr(right, name))), name


class TestHeapStore:
    def test_publish_is_identity_for_heap_graphs(self):
        graph = small_graph()
        store = HeapStore()
        assert store.publish(graph) is graph

    def test_writer_round_trip(self):
        graph = small_graph()
        store = HeapStore()
        writer = store.writer()
        for name in ARRAY_NAMES:
            writer.append(name, getattr(graph, name))
        rebuilt = writer.commit(graph.num_vertices)
        assert_graphs_equal(graph, rebuilt)

    def test_describe(self):
        assert HeapStore().describe() == "heap"


class TestMmapRoundTrip:
    def test_publish_serves_equal_memmap_views(self, tmp_path):
        graph = small_graph()
        store = MmapStore(str(tmp_path))
        published = store.publish(graph)
        assert_graphs_equal(graph, published)
        assert isinstance(published.out_targets, np.memmap)
        assert published.store is store
        assert published.snapshot_id == store.current_snapshot

    def test_reopen_from_fresh_store_object(self, tmp_path):
        graph = small_graph()
        MmapStore(str(tmp_path)).publish(graph)
        reopened = MmapStore(str(tmp_path)).open_snapshot()
        assert_graphs_equal(graph, reopened)

    def test_empty_graph_round_trips(self, tmp_path):
        graph = CSRGraph.from_edges([], num_vertices=4)
        published = MmapStore(str(tmp_path)).publish(graph)
        assert_graphs_equal(graph, published)

    def test_publish_same_snapshot_is_idempotent(self, tmp_path):
        store = MmapStore(str(tmp_path))
        published = store.publish(small_graph())
        assert store.publish(published) is published

    def test_engine_slice_api_unchanged(self, tmp_path):
        graph = small_graph()
        published = MmapStore(str(tmp_path)).publish(graph)
        for v in range(graph.num_vertices):
            assert np.array_equal(graph.out_neighbors(v),
                                  published.out_neighbors(v))
            assert np.array_equal(graph.in_neighbors(v),
                                  published.in_neighbors(v))


class TestIntegrity:
    def _segment_path(self, store, name="out_targets"):
        entry = store.manifest_entry(store.current_snapshot)
        return os.path.join(store.root, entry["arrays"][name]["file"])

    def test_verify_passes_on_clean_store(self, tmp_path):
        store = MmapStore(str(tmp_path))
        store.publish(small_graph())
        store.verify()

    def test_verify_detects_flipped_payload_byte(self, tmp_path):
        store = MmapStore(str(tmp_path))
        store.publish(small_graph())
        path = self._segment_path(store)
        with open(path, "r+b") as stream:
            stream.seek(-1, os.SEEK_END)
            byte = stream.read(1)
            stream.seek(-1, os.SEEK_END)
            stream.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(StoreError, match="CRC mismatch"):
            MmapStore(str(tmp_path)).verify()

    def test_open_detects_corrupt_header(self, tmp_path):
        store = MmapStore(str(tmp_path))
        store.publish(small_graph())
        path = self._segment_path(store)
        with open(path, "r+b") as stream:
            stream.write(b"XXXXXXXX")
        with pytest.raises(StoreError):
            MmapStore(str(tmp_path)).open_snapshot()

    def test_open_detects_truncated_segment(self, tmp_path):
        store = MmapStore(str(tmp_path))
        store.publish(small_graph())
        path = self._segment_path(store)
        os.truncate(path, os.path.getsize(path) - 8)
        with pytest.raises(StoreError):
            MmapStore(str(tmp_path)).open_snapshot()

    def test_open_detects_appended_frame(self, tmp_path):
        store = MmapStore(str(tmp_path))
        store.publish(small_graph())
        path = self._segment_path(store)
        with open(path, "ab") as stream:
            write_frame(stream, np.arange(3, dtype=np.int64))
        assert len(read_frames(path)) == 2
        with pytest.raises(StoreError, match="holds 2 frames"):
            MmapStore(str(tmp_path)).open_snapshot()

    def test_frames_round_trip_and_reject_header_damage(self):
        stream = io.BytesIO()
        arrays = [np.frombuffer(b"index!!!", dtype=np.uint8),
                  np.arange(6, dtype=np.int64).reshape(2, 3),
                  np.linspace(0.0, 1.0, 5)]
        for array in arrays:
            write_frame(stream, array)
        blob = stream.getvalue()
        frames = read_frames(blob)
        assert [frame.dtype for frame in frames] == ["|u1", "<i8", "<f8"]
        for frame, array in zip(frames, arrays):
            assert np.array_equal(frame.array, array.reshape(-1))
        # Only 28 of the 64 header bytes carry fields; the zero padding
        # is checked too, so no single flipped byte goes unnoticed.
        for offset in range(64):
            damaged = bytearray(blob)
            damaged[offset] ^= 0x01
            with pytest.raises(StoreError):
                read_frames(bytes(damaged))


class TestLifecycle:
    def _mutate(self, streaming, step):
        batch = MutationBatch.from_edges(
            additions=[(step % 5, (step + 7) % 11)],
            deletions=[],
        )
        streaming.apply_batch(batch)

    def test_retired_generations_are_compacted(self, tmp_path):
        store = MmapStore(str(tmp_path))
        streaming = StreamingGraph(store.publish(small_graph()))
        for step in range(4):
            self._mutate(streaming, step)
        # StreamingGraph holds current + previous; everything older is
        # released and must be gone from manifest and disk.
        assert len(store.snapshot_ids()) <= 2
        on_disk = [f for f in os.listdir(str(tmp_path))
                   if f.endswith(".seg")]
        referenced = set()
        for sid in store.snapshot_ids():
            referenced.update(store.segment_files(sid))
        assert sorted(on_disk) == sorted(referenced)

    def test_pin_outlives_release_until_owner_vanishes(self, tmp_path):
        root = tmp_path / "store"
        owner = tmp_path / "checkpoint.json"
        owner.write_text("{}")
        store = MmapStore(str(root))
        published = store.publish(small_graph())
        pinned_id = published.snapshot_id
        store.pin(pinned_id, str(owner))
        streaming = StreamingGraph(published)
        for step in range(4):
            self._mutate(streaming, step)
        assert pinned_id in store.snapshot_ids()
        owner.unlink()
        store.compact()
        assert pinned_id not in store.snapshot_ids()


class TestSelection:
    def test_spec_heap(self):
        assert isinstance(store_from_spec("heap"), HeapStore)
        assert isinstance(store_from_spec(None), HeapStore)

    def test_spec_mmap_with_dir(self, tmp_path):
        store = store_from_spec(f"mmap:{tmp_path}")
        assert isinstance(store, MmapStore)
        assert store.root == str(tmp_path)

    def test_spec_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown snapshot store"):
            store_from_spec("tape")

    def test_spec_rejects_heap_with_dir(self):
        with pytest.raises(ValueError, match="takes no directory"):
            store_from_spec("heap:/tmp/x")

    def test_env_selection(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_SNAPSHOT_STORE, f"mmap:{tmp_path}")
        store = store_from_env()
        assert isinstance(store, MmapStore)
        monkeypatch.delenv(ENV_SNAPSHOT_STORE)
        assert isinstance(store_from_env(), HeapStore)


class TestXLTier:
    def test_rmat_streamed_equals_materialized_build(self, tmp_path):
        heap = rmat_xl(9, 6, seed=5, store=HeapStore())
        mmapped = rmat_xl(9, 6, seed=5,
                          store=MmapStore(str(tmp_path)))
        assert_graphs_equal(heap, mmapped)
        assert isinstance(mmapped.out_targets, np.memmap)

    def test_rmat_streamed_spools_through_store(self, tmp_path):
        store = MmapStore(str(tmp_path))
        graph = rmat_streamed(9, 6, seed=5, store=store,
                              chunk_edges=1 << 10)
        assert graph.store is store
        store.verify()
