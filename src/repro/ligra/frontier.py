"""Vertex subsets with sparse/dense duality.

Ligra represents the active frontier either as a sparse id array or as a
dense boolean mask, switching representation by frontier size so that
both tiny frontiers (sparse gathers) and huge ones (dense sweeps) are
cheap.  :class:`VertexSubset` reproduces that duality; the engines ask
:meth:`is_dense_preferred` with the current graph to pick push (sparse)
versus recompute-all (dense) execution, mirroring Ligra's push/pull
threshold of |out-edges(frontier)| > |E| / 20.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = ["VertexSubset"]

#: Ligra's classic threshold numerator/denominator for dense mode.
DENSE_THRESHOLD_FRACTION = 1.0 / 20.0


class VertexSubset:
    """A set of vertex ids over a fixed universe ``0..num_vertices-1``."""

    def __init__(self, num_vertices: int,
                 ids: Optional[np.ndarray] = None,
                 mask: Optional[np.ndarray] = None) -> None:
        if (ids is None) == (mask is None):
            raise ValueError("provide exactly one of ids or mask")
        self.num_vertices = int(num_vertices)
        self._ids = None if ids is None else np.unique(
            np.asarray(ids, dtype=np.int64)
        )
        self._mask = None if mask is None else np.asarray(mask, dtype=bool)
        if self._mask is not None and self._mask.size != num_vertices:
            raise ValueError("mask size must equal the vertex count")
        if self._ids is not None and self._ids.size:
            if self._ids[0] < 0 or self._ids[-1] >= num_vertices:
                raise ValueError("vertex ids out of range")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def empty(cls, num_vertices: int) -> "VertexSubset":
        return cls(num_vertices, ids=np.empty(0, dtype=np.int64))

    @classmethod
    def full(cls, num_vertices: int) -> "VertexSubset":
        return cls(num_vertices, mask=np.ones(num_vertices, dtype=bool))

    @classmethod
    def from_ids(cls, num_vertices: int, ids) -> "VertexSubset":
        return cls(num_vertices, ids=np.asarray(ids, dtype=np.int64))

    @classmethod
    def from_sorted_ids(cls, num_vertices: int, ids) -> "VertexSubset":
        """Trusted constructor: ``ids`` must already be sorted unique.

        Skips the O(n log n) normalisation -- the engines' frontiers are
        derived from sorted-unique touched sets, so re-sorting them every
        iteration is pure overhead.
        """
        subset = cls.__new__(cls)
        subset.num_vertices = int(num_vertices)
        subset._ids = np.asarray(ids, dtype=np.int64)
        subset._mask = None
        return subset

    @classmethod
    def from_mask(cls, mask) -> "VertexSubset":
        mask = np.asarray(mask, dtype=bool)
        return cls(mask.size, mask=mask)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def ids(self) -> np.ndarray:
        """Sorted unique member ids (materialises from a mask if needed)."""
        if self._ids is None:
            self._ids = np.flatnonzero(self._mask)
        return self._ids

    @property
    def mask(self) -> np.ndarray:
        if self._mask is None:
            self._mask = np.zeros(self.num_vertices, dtype=bool)
            self._mask[self._ids] = True
        return self._mask

    def __len__(self) -> int:
        if self._ids is not None:
            return int(self._ids.size)
        return int(self._mask.sum())

    def __bool__(self) -> bool:
        return len(self) > 0

    def __contains__(self, vertex: int) -> bool:
        return bool(self.mask[vertex])

    # ------------------------------------------------------------------
    # Set algebra
    # ------------------------------------------------------------------
    def union(self, other: "VertexSubset") -> "VertexSubset":
        if self.num_vertices != other.num_vertices:
            raise ValueError("universe mismatch")
        return VertexSubset(
            self.num_vertices,
            ids=np.union1d(self.ids, other.ids),
        )

    def intersect(self, other: "VertexSubset") -> "VertexSubset":
        if self.num_vertices != other.num_vertices:
            raise ValueError("universe mismatch")
        return VertexSubset(
            self.num_vertices,
            ids=np.intersect1d(self.ids, other.ids),
        )

    def difference(self, other: "VertexSubset") -> "VertexSubset":
        if self.num_vertices != other.num_vertices:
            raise ValueError("universe mismatch")
        return VertexSubset(
            self.num_vertices,
            ids=np.setdiff1d(self.ids, other.ids),
        )

    # ------------------------------------------------------------------
    # Representation choice
    # ------------------------------------------------------------------
    def out_edge_count(self, graph: CSRGraph) -> int:
        ids = self.ids
        if not ids.size:
            return 0
        return int(graph.out_degrees()[ids].sum())

    def is_dense_preferred(self, graph: CSRGraph) -> bool:
        """Ligra's density heuristic: go dense when the frontier's
        out-edges exceed a fixed fraction of all edges."""
        if graph.num_edges == 0:
            return False
        return (
            self.out_edge_count(graph)
            > graph.num_edges * DENSE_THRESHOLD_FRACTION
        )

    def __repr__(self) -> str:
        return f"VertexSubset({len(self)}/{self.num_vertices})"
