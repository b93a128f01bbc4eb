"""Seeded workload inputs: an RMAT edge list and uniform mutation batches.

Everything here runs before any timing, in one single-threaded process.
The same seed gives bit-identical arrays; the program under test only
ever sees the edge arrays (to build its ``CSRGraph``) and the
``MutationBatch`` list rebuilt from :func:`load`.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

EDGE_FACTOR = 8
DELETE_FRACTION = 0.3

_BATCH_ARRAYS = ("add_src", "add_dst", "add_weight", "del_src", "del_dst")


def generate(scale: int, num_batches: int, batch_size: int,
             seed: int) -> Dict[str, np.ndarray]:
    """RMAT ``2**scale`` (edge factor 8, weights in [0.5, 1.5)) plus
    ``num_batches`` uniform batches of ``batch_size`` mutations.

    Each batch adds uniformly random edges that are absent from the
    evolving graph (no self-loops, no repeats) and deletes a uniform
    sample of the edges live at that point, so no mutation is stale.
    The edge list is shuffled, as an edge file read from disk would be.
    The batches are prefix-stable: fewer batches give a prefix of these.
    """
    from repro.graph.generators import rmat

    graph = rmat(scale, edge_factor=EDGE_FACTOR, seed=seed, weighted=True)
    num_vertices = graph.num_vertices
    src, dst, weight = graph.all_edges()
    rng = np.random.default_rng([seed, scale, batch_size])
    order = rng.permutation(src.size)
    src, dst, weight = src[order], dst[order], weight[order]

    num_deletes = int(batch_size * DELETE_FRACTION)
    num_adds = batch_size - num_deletes
    live = _LiveEdges(src * num_vertices + dst, num_batches * num_adds)
    columns: Dict[str, List[np.ndarray]] = {name: [] for name in _BATCH_ARRAYS}
    for _ in range(num_batches):
        # Additions are drawn against the pre-batch graph, so none of
        # them re-adds an edge this batch deletes.
        add_keys = live.fresh(rng, num_vertices, num_adds)
        del_keys = live.remove_sample(rng, num_deletes)
        live.add(add_keys)
        columns["add_src"].append(add_keys // num_vertices)
        columns["add_dst"].append(add_keys % num_vertices)
        columns["add_weight"].append(rng.random(num_adds) + 0.5)
        columns["del_src"].append(del_keys // num_vertices)
        columns["del_dst"].append(del_keys % num_vertices)

    arrays = {
        "num_vertices": np.int64(num_vertices),
        "src": src, "dst": dst, "weight": weight,
        "add_offsets": np.arange(num_batches + 1, dtype=np.int64) * num_adds,
        "del_offsets": (np.arange(num_batches + 1, dtype=np.int64)
                        * num_deletes),
    }
    for name, chunks in columns.items():
        arrays[name] = np.concatenate(chunks) if chunks else np.empty(0)
    return arrays


class _LiveEdges:
    """The live edge keys ``u * V + v`` of the evolving graph.

    An unsorted pool with swap-removal serves uniform deletion samples.
    A key is live if it is an initial edge or in ``changed``, not both:
    ``changed`` holds the initial edges since deleted and the other
    edges since added, so adding or deleting a key toggles it there.
    Each batch costs time in its own size, not in the graph's.
    """

    def __init__(self, keys: np.ndarray, extra: int) -> None:
        self.initial = np.sort(keys)
        self.pool = np.empty(keys.size + extra, dtype=np.int64)
        self.pool[:keys.size] = keys
        self.size = keys.size
        self.changed = set()

    def _live(self, keys: np.ndarray) -> np.ndarray:
        if self.initial.size:
            slots = np.minimum(np.searchsorted(self.initial, keys),
                               self.initial.size - 1)
            initial = self.initial[slots] == keys
        else:
            initial = np.zeros(keys.size, dtype=bool)
        hits = self.changed.intersection(keys.tolist())
        return initial != np.isin(
            keys, np.fromiter(hits, dtype=np.int64, count=len(hits)))

    def fresh(self, rng: np.random.Generator, num_vertices: int,
              count: int) -> np.ndarray:
        """``count`` distinct keys (u != v) of absent edges, in
        generation order."""
        chosen = np.empty(0, dtype=np.int64)
        while chosen.size < count:
            src = rng.integers(0, num_vertices, size=2 * count)
            dst = rng.integers(0, num_vertices, size=2 * count)
            keys = (src * num_vertices + dst)[src != dst]
            keys = np.concatenate([chosen, keys[~self._live(keys)]])
            _, first = np.unique(keys, return_index=True)
            chosen = keys[np.sort(first)][:count]
        return chosen

    def remove_sample(self, rng: np.random.Generator,
                      count: int) -> np.ndarray:
        """Remove and return a uniform sample of ``count`` live keys."""
        doomed = rng.choice(self.size, size=count, replace=False)
        keys = self.pool[doomed]
        # The survivors among the last ``count`` slots fill the holes
        # below the new end.
        end = self.size - count
        survivors = np.ones(count, dtype=bool)
        survivors[doomed[doomed >= end] - end] = False
        self.pool[doomed[doomed < end]] = self.pool[end:self.size][survivors]
        self.size = end
        self.changed.symmetric_difference_update(keys.tolist())
        return keys

    def add(self, keys: np.ndarray) -> None:
        self.pool[self.size:self.size + keys.size] = keys
        self.size += keys.size
        self.changed.symmetric_difference_update(keys.tolist())


def final_edges(num_vertices: int, src: np.ndarray, dst: np.ndarray,
                weight: np.ndarray, batches: list):
    """``(src, dst, weight)`` of the graph after ``batches``, replayed
    from the batches alone (deletions, then additions, batch by batch),
    independently of both the generator and the program under test."""
    state: Dict[int, object] = {}  # touched key -> weight, None if deleted
    for batch in batches:
        for key in (batch.del_src * num_vertices + batch.del_dst).tolist():
            state[key] = None
        for key, value in zip(
                (batch.add_src * num_vertices + batch.add_dst).tolist(),
                batch.add_weight.tolist()):
            state[key] = value
    touched = np.fromiter(state, dtype=np.int64, count=len(state))
    kept = ~np.isin(src * num_vertices + dst, touched)
    added = [(key, value) for key, value in state.items()
             if value is not None]
    add_keys = np.array([key for key, _ in added], dtype=np.int64)
    add_weight = np.array([value for _, value in added], dtype=np.float64)
    keys = np.concatenate([(src * num_vertices + dst)[kept], add_keys])
    return (keys // num_vertices, keys % num_vertices,
            np.concatenate([weight[kept], add_weight]))


def save(path: str, arrays: Dict[str, np.ndarray]) -> None:
    np.savez(path, **arrays)


def load(path: str) -> Tuple[int, np.ndarray, np.ndarray, np.ndarray, list]:
    """``(num_vertices, src, dst, weight, batches)`` from :func:`save`."""
    with np.load(path) as stored:
        arrays = {name: stored[name] for name in stored.files}
    return unpack(arrays)


def unpack(arrays: Dict[str, np.ndarray]):
    from repro.graph.mutation import MutationBatch

    adds = arrays["add_offsets"]
    dels = arrays["del_offsets"]
    batches = []
    for index in range(adds.size - 1):
        a = slice(int(adds[index]), int(adds[index + 1]))
        d = slice(int(dels[index]), int(dels[index + 1]))
        batches.append(MutationBatch(
            add_src=arrays["add_src"][a], add_dst=arrays["add_dst"][a],
            add_weight=arrays["add_weight"][a],
            del_src=arrays["del_src"][d], del_dst=arrays["del_dst"][d],
        ))
    return (int(arrays["num_vertices"]), arrays["src"], arrays["dst"],
            arrays["weight"], batches)
