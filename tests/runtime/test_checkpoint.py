"""Tests for engine checkpoint/restore."""

import os

import numpy as np
import pytest

from repro.algorithms import LabelPropagation, PageRank, SSSP
from repro.core.engine import GraphBoltEngine
from repro.core.pruning import PruningPolicy
from repro.graph.generators import rmat
from repro.graph.storage import read_frames
from repro.ligra.engine import LigraEngine
from repro.runtime.checkpoint import (
    _read_checkpoint,
    _write_checkpoint,
    load_engine,
    save_engine,
    verify_checkpoint_blob,
)
from tests.conftest import make_random_batch


@pytest.fixture
def graph():
    return rmat(scale=7, edge_factor=5, seed=90, weighted=True)


def checkpoint_roundtrip(tmp_path, factory, graph, rng, iterations=8):
    engine = GraphBoltEngine(factory(), num_iterations=iterations)
    engine.run(graph)
    engine.apply_mutations(make_random_batch(engine.graph, rng, 10, 10))
    path = str(tmp_path / "engine.ckpt")
    save_engine(engine, path)
    restored = load_engine(path, factory())
    return engine, restored


class TestRoundtrip:
    def test_values_survive(self, tmp_path, graph, rng):
        engine, restored = checkpoint_roundtrip(
            tmp_path, lambda: PageRank(), graph, rng
        )
        assert np.array_equal(engine.values, restored.values)
        assert restored.graph.edge_set() == engine.graph.edge_set()
        assert restored.history.horizon == engine.history.horizon

    def test_restored_engine_continues_incrementally(self, tmp_path,
                                                     graph, rng):
        engine, restored = checkpoint_roundtrip(
            tmp_path, lambda: LabelPropagation(num_labels=3), graph, rng
        )
        batch = make_random_batch(engine.graph, rng, 12, 12)
        original = engine.apply_mutations(batch)
        resumed = restored.apply_mutations(batch)
        assert np.array_equal(original, resumed)
        truth = LigraEngine(LabelPropagation(num_labels=3)).run(
            restored.graph, 8
        )
        assert np.allclose(resumed, truth, atol=1e-7)

    def test_vector_values_roundtrip(self, tmp_path, graph, rng):
        engine, restored = checkpoint_roundtrip(
            tmp_path, lambda: LabelPropagation(num_labels=4), graph, rng
        )
        assert restored.values.shape == engine.values.shape

    def test_inf_values_roundtrip(self, tmp_path, graph, rng):
        engine, restored = checkpoint_roundtrip(
            tmp_path, lambda: SSSP(source=0), graph, rng, iterations=40
        )
        assert np.array_equal(
            np.isinf(engine.values), np.isinf(restored.values)
        )


class TestGuards:
    def test_algorithm_mismatch_rejected(self, tmp_path, graph, rng):
        engine = GraphBoltEngine(PageRank(), num_iterations=5)
        engine.run(graph)
        path = str(tmp_path / "engine.ckpt")
        save_engine(engine, path)
        with pytest.raises(ValueError, match="mismatch"):
            load_engine(path, LabelPropagation())

    def test_unrun_engine_rejected(self, tmp_path):
        engine = GraphBoltEngine(PageRank())
        with pytest.raises(RuntimeError):
            save_engine(engine, str(tmp_path / "x.ckpt"))


class TestAtomicWrite:
    def test_returns_real_path_when_suffix_missing(self, tmp_path, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        returned = save_engine(engine, str(tmp_path / "ckpt"))
        # No suffix is appended: the returned path is the one given,
        # and it names one regular file.
        assert returned == str(tmp_path / "ckpt")
        assert os.path.isfile(returned)
        restored = load_engine(returned, PageRank())
        assert np.array_equal(restored.values, engine.values)

    def test_no_temp_droppings(self, tmp_path, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        save_engine(engine, str(tmp_path / "a.ckpt"))
        leftovers = [name for name in os.listdir(tmp_path)
                     if name.endswith(".tmp")]
        assert leftovers == []

    def test_overwrite_is_atomic_replace(self, tmp_path, graph, rng):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        path = str(tmp_path / "gen.ckpt")
        save_engine(engine, path)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 5, 5))
        save_engine(engine, path)
        restored = load_engine(path, PageRank())
        assert np.array_equal(restored.values, engine.values)

    def test_extra_metadata_roundtrip(self, tmp_path, graph):
        engine = GraphBoltEngine(PageRank(), num_iterations=4)
        engine.run(graph)
        path = save_engine(engine, str(tmp_path / "m.ckpt"),
                           extra={"recovery_seq": np.int64(42)})
        extra = {}
        restored = load_engine(path, PageRank(), extra=extra)
        assert int(extra["recovery_seq"]) == 42
        # Extras do not leak into the engine reconstruction.
        assert np.array_equal(restored.values, engine.values)


def _saved_path(tmp_path, graph, rng):
    engine = GraphBoltEngine(PageRank(), num_iterations=4)
    engine.run(graph)
    engine.apply_mutations(make_random_batch(engine.graph, rng, 5, 5))
    return save_engine(engine, str(tmp_path / "victim.ckpt"))


def _tamper(path, mutate):
    """Rewrite a checkpoint through ``mutate(index, arrays)``.  The
    rewrite recomputes every frame CRC, so only the structural checks
    stand between the change and the engine."""
    with open(path, "rb") as stream:
        index, arrays = _read_checkpoint(stream.read(), path)
    arrays = {name: array.copy() for name, array in arrays.items()}
    mutate(index, arrays)
    with open(path, "wb") as stream:
        _write_checkpoint(stream, index, arrays)


def _frame_spans(path):
    """``(header_start, payload_start, payload_end)`` of every frame."""
    spans, offset = [], 0
    for frame in read_frames(path):
        spans.append((offset, offset + 64, offset + 64 + frame.array.nbytes))
        offset = spans[-1][2]
    return spans


def _flip(path, offset):
    with open(path, "r+b") as stream:
        stream.seek(offset)
        byte = stream.read(1)
        stream.seek(offset)
        stream.write(bytes([byte[0] ^ 0x01]))


#: Where a flipped byte lands: (name, frame selector, offset in frame).
#: Header offsets: 0 magic, 8 dtype code, 16 count, 24 CRC, 32 padding.
_REGIONS = {
    "index header magic": (0, lambda h, p, e: h),
    "array header dtype": (1, lambda h, p, e: h + 8),
    "array header count": (1, lambda h, p, e: h + 16),
    "array header crc": (-1, lambda h, p, e: h + 24),
    "array header padding": (-1, lambda h, p, e: h + 40),
    "index frame": (0, lambda h, p, e: (p + e) // 2),
    "first array frame": (1, lambda h, p, e: (p + e) // 2),
    "last array frame": (-1, lambda h, p, e: e - 1),
}


class TestValidationOnLoad:
    def test_bitrot_fails_checksum(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)
        _flip(path, os.path.getsize(path) // 2)
        with pytest.raises(ValueError, match="CRC mismatch"):
            load_engine(path, PageRank())

    def test_out_of_range_index_rejected(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)

        def corrupt_targets(index, arrays):
            arrays["out_targets"][0] = index["num_vertices"] + 5

        _tamper(path, corrupt_targets)
        with pytest.raises(ValueError,
                           match="out_targets indexes outside"):
            load_engine(path, PageRank())

    def test_wrong_values_length_rejected(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)

        def shrink_values(index, arrays):
            arrays["values"] = arrays["values"][:-3]
            arrays["prev_values"] = arrays["prev_values"][:-3]

        _tamper(path, shrink_values)
        with pytest.raises(ValueError, match="values length"):
            load_engine(path, PageRank())

    def test_unsupported_version_rejected(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)

        def age(index, arrays):
            index["format_version"] = 1

        _tamper(path, age)
        with pytest.raises(ValueError, match="version"):
            load_engine(path, PageRank())

    def test_truncated_file_rejected(self, tmp_path, graph, rng):
        path = _saved_path(tmp_path, graph, rng)
        size = os.path.getsize(path)
        with open(path, "r+b") as stream:
            stream.truncate(size // 2)
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_engine(path, PageRank())

    def test_not_a_checkpoint_rejected(self, tmp_path, graph):
        # A format-3 checkpoint: a zip (.npz) archive of named arrays.
        path = str(tmp_path / "old.npz")
        np.savez_compressed(path, format_version=np.int64(3),
                            values=np.zeros(4))
        with pytest.raises(ValueError, match="corrupt checkpoint.*zip"):
            load_engine(path, PageRank())

    @pytest.mark.parametrize("region", sorted(_REGIONS))
    def test_flipped_byte_in_any_region_rejected(self, tmp_path, graph,
                                                 rng, region):
        path = _saved_path(tmp_path, graph, rng)
        frame, at = _REGIONS[region]
        _flip(path, at(*_frame_spans(path)[frame]))
        with open(path, "rb") as stream:
            blob = stream.read()
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            verify_checkpoint_blob(blob, context=path)
        with pytest.raises(ValueError, match="corrupt checkpoint"):
            load_engine(path, PageRank())


class TestConfigurationRoundtrip:
    def test_non_default_pruning_policy(self, tmp_path, graph, rng):
        policy = PruningPolicy(horizon=2, vertical=True)
        engine = GraphBoltEngine(PageRank(), num_iterations=6,
                                 pruning=policy)
        engine.run(graph)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 8, 8))
        path = save_engine(engine, str(tmp_path / "pruned.ckpt"))
        restored = load_engine(path, PageRank(), pruning=policy)
        assert np.array_equal(restored.values, engine.values)
        # Oracle-style: the next refinement must agree bit-for-bit.
        batch = make_random_batch(engine.graph, rng, 8, 8)
        assert np.array_equal(engine.apply_mutations(batch),
                              restored.apply_mutations(batch))

    def test_until_convergence_engine(self, tmp_path, graph, rng):
        engine = GraphBoltEngine(SSSP(source=0), until_convergence=True,
                                 max_iterations=200)
        engine.run(graph)
        engine.apply_mutations(make_random_batch(engine.graph, rng, 6, 6))
        path = save_engine(engine, str(tmp_path / "conv.ckpt"))
        restored = load_engine(path, SSSP(source=0), max_iterations=200)
        assert restored.until_convergence
        assert np.array_equal(restored.values, engine.values)
        batch = make_random_batch(engine.graph, rng, 6, 6)
        assert np.array_equal(engine.apply_mutations(batch),
                              restored.apply_mutations(batch))
