"""Property test of the merge-splice structure-adjustment kernel.

Every snapshot :meth:`StreamingGraph.apply_batch` produces -- on the
heap and on an :class:`MmapStore` -- must equal, on all six canonical
arrays, the :class:`CSRGraph` constructor's full-sort build of the
post-batch edge list.  The edge list comes from a plain dict model of
the stream semantics (deletions first, stale operations skipped, a
deleted edge re-added with its new weight), not from the code under
test.
"""

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.graph import storage
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.mutation import MutationBatch
from repro.graph.storage import ARRAY_NAMES, MmapStore

WEIGHTS = st.floats(0.1, 5.0, allow_nan=False)


@st.composite
def streams(draw):
    num_vertices = draw(st.integers(0, 12))
    # Ids past the vertex range grow the graph implicitly.
    ids = st.integers(0, num_vertices + 3)
    pairs = st.tuples(ids, ids).filter(lambda e: e[0] != e[1])
    in_range = [e for e in draw(st.lists(pairs, max_size=40, unique=True))
                if max(e) < num_vertices]
    edges = {e: draw(WEIGHTS) for e in in_range}
    batches = []
    for _ in range(draw(st.integers(1, 4))):
        known = sorted(edges) or [(0, 1)]
        # Stale operations: re-adding present edges, deleting absent ones.
        additions = draw(st.lists(st.one_of(pairs, st.sampled_from(known)),
                                  max_size=8))
        deletions = draw(st.lists(st.one_of(pairs, st.sampled_from(known)),
                                  max_size=8))
        # Replace in batch: delete an edge and re-add it with a new weight.
        replaced = draw(st.lists(st.sampled_from(known), max_size=3))
        additions += replaced
        deletions += replaced
        grow = draw(st.one_of(st.none(), st.integers(0, 3)))
        batches.append(MutationBatch.from_edges(
            additions=additions, deletions=deletions,
            add_weights=[draw(WEIGHTS) for _ in additions],
            grow_to=None if grow is None else num_vertices + grow,
        ))
    return num_vertices, edges, batches


def reference(num_vertices, edges):
    pairs = sorted(edges)
    return CSRGraph(
        num_vertices,
        np.array([s for s, _ in pairs], dtype=np.int64),
        np.array([d for _, d in pairs], dtype=np.int64),
        np.array([edges[e] for e in pairs], dtype=np.float64),
    )


def model_apply(num_vertices, edges, batch):
    edges = dict(edges)
    for edge in batch.deletions():
        edges.pop(edge, None)
    for s, d, w in batch.additions():
        edges.setdefault((s, d), w)
    return max(num_vertices, batch.max_vertex() + 1), edges


def assert_bit_for_bit(actual, expected):
    assert actual.num_vertices == expected.num_vertices
    for name in ARRAY_NAMES:
        left = np.asarray(getattr(actual, name))
        right = getattr(expected, name)
        assert left.dtype == right.dtype, name
        assert np.array_equal(left, right), name


@pytest.mark.parametrize("store", ["heap", "mmap"])
@given(streams())
@example((0, {}, [MutationBatch.empty()]))  # edgeless, empty batch
@example((4, {(0, 1): 1.0, (2, 3): 2.0},
          [MutationBatch.empty(),
           MutationBatch.from_edges(additions=[(1, 0)], deletions=[(0, 1)],
                                    add_weights=[0.5], grow_to=6)]))
@settings(max_examples=60, deadline=None)
def test_splice_matches_constructor_rebuild(store, data):
    num_vertices, edges, batches = data
    with tempfile.TemporaryDirectory() as root, \
            mock.patch.object(storage, "_SEGMENT_EDGE_BUDGET", 4):
        graph = reference(num_vertices, edges)
        if store == "mmap":
            # A tiny edge budget cuts even these graphs into many
            # segments, so clean (block-copied) and dirty (spliced)
            # segments mix within one adjustment.
            graph = MmapStore(root).publish(graph)
        stream = StreamingGraph(graph)
        for batch in batches:
            stream.apply_batch(batch)
            num_vertices, edges = model_apply(num_vertices, edges, batch)
            assert_bit_for_bit(stream.graph, reference(num_vertices, edges))
        grown = stream.graph.with_num_vertices(num_vertices + 2)
        assert_bit_for_bit(grown, reference(num_vertices + 2, edges))
        if store == "mmap":
            assert isinstance(grown.out_targets, np.memmap) or \
                grown.num_edges == 0
