"""Engine checkpointing.

Streaming deployments run for days; losing the tracked dependency
history to a crash would force a full re-run on the next mutation.
:func:`save_engine` persists a :class:`~repro.core.engine.GraphBoltEngine`'s
complete processing state -- graph snapshot, rolling values/aggregate,
frontier, and the per-iteration dependency history -- to a single file;
:func:`load_engine` reconstructs an engine that continues exactly where
the saved one stopped (same values, same refinement behaviour on the
next batch).

File format (version 4): a sequence of the CRC-guarded frames the
snapshot store writes (:mod:`repro.graph.storage`), uncompressed:

- frame 0 is the UTF-8 JSON *index* (dtype ``|u1``, space-padded to a
  multiple of 8 bytes): ``format_version``, the algorithm fingerprint,
  the scalars (vertex count, iteration, history length, ...), the
  caller's ``extra`` entries, the graph payload mode, and the name,
  dtype and shape of every array;
- then one frame per array (``<i8``/``<f8``, 1-D or 2-D) in index
  order.

Durability discipline (see ``docs/operations.md``):

- **Atomic publish** -- the file is written to a temp file in the
  *same directory* and moved into place with ``os.replace``, so a crash
  mid-write leaves either the previous checkpoint or none, never a
  truncated one.  ``save_engine`` returns the path it published.
- **A CRC per frame** -- :func:`~repro.graph.storage.read_frames`
  verifies every frame's CRC32 before anything is interpreted; any
  damage, including a format-3 ``.npz`` archive, is a ``ValueError``.
- **Structural validation on load** -- array shapes, dtypes, and index
  ranges are checked against ``num_vertices`` so a corrupted (or
  wrong-file) checkpoint raises a clear ``ValueError`` instead of
  propagating garbage into the engine.

Graph payload modes:

- ``inline`` (heap graphs) -- the six canonical CSR+CSC arrays are
  stored verbatim, so :func:`load_engine` reconstructs the snapshot
  through :meth:`CSRGraph.from_canonical` with **zero** re-sorts.
- ``manifest`` (mmap-store graphs) -- the index records a JSON
  *store manifest reference* (root, snapshot id, per-array segment
  file + dtype + count + CRC32) instead of inlining gigabytes of edge
  arrays.  The referenced snapshot is pinned in the store for as long
  as the checkpoint file exists, and restore reopens the segment
  files as ``np.memmap`` views (``store_root`` overrides the recorded
  root -- replicas pass their own spool).

The algorithm itself is *not* serialised (closures and potentials do
not round-trip safely through arrays); the caller supplies an equally
configured algorithm instance at load time, and a fingerprint check
rejects obvious mismatches.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.engine import GraphBoltEngine
from repro.core.history import DependencyHistory
from repro.core.model import IncrementalAlgorithm
from repro.core.pruning import PruningPolicy
from repro.graph.csr import CSRGraph
from repro.graph.mutable import StreamingGraph
from repro.graph.storage import (
    StoreError,
    open_snapshot_reference,
    read_frames,
    write_frame,
)
from repro.ligra.delta import DeltaState
from repro.testing import faults

__all__ = [
    "load_engine",
    "read_store_manifest",
    "save_engine",
    "verify_checkpoint_blob",
]

_FORMAT_VERSION = 4
_GRAPH_ARRAYS = (
    "out_offsets", "out_targets", "out_weights",
    "in_offsets", "in_sources", "in_weights",
)
_ZIP_MAGIC = b"PK\x03\x04"


def _fingerprint(algorithm: IncrementalAlgorithm) -> str:
    return (
        f"{type(algorithm).__name__}|{algorithm.name}|"
        f"{algorithm.value_shape}|{algorithm.aggregation_shape}|"
        f"{algorithm.aggregation.name}"
    )


def save_engine(engine: GraphBoltEngine, path: str,
                extra: Optional[Dict[str, np.ndarray]] = None) -> str:
    """Atomically persist a run engine's state at ``path``; returns it.

    ``extra`` entries (e.g. a recovery sequence number) are stored in
    the index frame, covered by its CRC, ignored by the engine
    reconstruction, and read back through :func:`load_engine`'s
    ``extra`` argument.
    """
    engine._require_run()
    graph = engine.graph
    state = engine._state
    history = engine._history

    store = getattr(graph, "store", None)
    store_backed = (
        store is not None
        and store.kind == "mmap"
        and graph.snapshot_id is not None
    )
    index = {
        "format_version": _FORMAT_VERSION,
        "fingerprint": _fingerprint(engine.algorithm),
        "num_vertices": int(graph.num_vertices),
        "iteration": int(state.iteration),
        "num_iterations": int(engine.num_iterations),
        "until_convergence": bool(engine.until_convergence),
        "hist_len": int(history.horizon),
        "extra": {key: np.asarray(value).tolist()
                  for key, value in (extra or {}).items()},
    }
    arrays = {
        "values": state.values,
        "prev_values": state.prev_values,
        "aggregate": state.aggregate,
        "frontier": state.frontier,
        "hist_initial": history.initial_values,
        "hist_identity": history.identity_aggregate,
    }
    if store_backed:
        # Out-of-core snapshot: record a reference to the store's
        # published segment files instead of inlining the edge arrays.
        index["graph_mode"] = "manifest"
        index["store_manifest"] = store.manifest_entry(graph.snapshot_id)
    else:
        # Heap snapshot: the six canonical arrays round-trip through
        # CSRGraph.from_canonical without re-sorting on restore.
        index["graph_mode"] = "inline"
        for name in _GRAPH_ARRAYS:
            arrays[name] = getattr(graph, name)
    for number, record in enumerate(history.records):
        arrays[f"rec_{number}_g_idx"] = record.g_idx
        arrays[f"rec_{number}_g_values"] = record.g_values
        arrays[f"rec_{number}_c_idx"] = record.c_idx
        arrays[f"rec_{number}_c_values"] = record.c_values

    directory = os.path.dirname(os.path.abspath(path))
    faults.hit("checkpoint.write")
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as stream:
            _write_checkpoint(stream, index, arrays)
        faults.hit("checkpoint.replace")
        os.replace(tmp_path, path)
    except BaseException:
        # A failed (or crashed-over) write must not leave the temp file
        # masquerading as state; the published checkpoint is untouched.
        if os.path.exists(tmp_path):
            os.remove(tmp_path)
        raise
    if store_backed:
        # Pin the referenced snapshot so store compaction keeps its
        # segment files alive for as long as this checkpoint exists;
        # the pin self-expires once the owner file is rotated away.
        store.pin(graph.snapshot_id, owner=path)
    return path


def _write_checkpoint(stream, index: dict,
                      arrays: Dict[str, np.ndarray]) -> None:
    """The index frame (``index`` plus each array's name, dtype and
    shape), then one frame per array in index order."""
    arrays = {name: np.asarray(array) for name, array in arrays.items()}
    index = dict(index, arrays=[
        {"name": name, "dtype": array.dtype.str, "shape": list(array.shape)}
        for name, array in arrays.items()
    ])
    text = json.dumps(index, sort_keys=True).encode("utf-8")
    # Space-pad to a multiple of 8 so every array frame stays aligned.
    text += b" " * (-len(text) % 8)
    write_frame(stream, np.frombuffer(text, dtype=np.uint8))
    for array in arrays.values():
        write_frame(stream, array)


# ----------------------------------------------------------------------
# Load-time validation
# ----------------------------------------------------------------------
def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(f"corrupt checkpoint: {message}")


def _read_file(path: str) -> bytearray:
    """A checkpoint's bytes in one writable heap buffer; the restored
    arrays are writable views into it, not copies."""
    with open(path, "rb") as stream:
        buf = bytearray(os.fstat(stream.fileno()).st_size)
        stream.readinto(buf)
    return buf


def _read_checkpoint(source, context: str,
                     limit: Optional[int] = None
                     ) -> Tuple[dict, Dict[str, np.ndarray]]:
    """Parse a checkpoint's frames (``source`` as for
    :func:`~repro.graph.storage.read_frames`) into ``(index, arrays)``.

    Every frame's CRC is verified and the frames are matched against
    the index's array table; ``limit=1`` reads the index frame alone
    (and returns no arrays).  Structural checks are
    :func:`_verify_payload`'s job."""
    try:
        frames = read_frames(source, context, limit=limit)
    except StoreError as exc:
        if not isinstance(source, str) and bytes(source[:4]) == _ZIP_MAGIC:
            raise ValueError(
                f"corrupt checkpoint: {context} is a zip (.npz) archive "
                f"from an older format; only format-{_FORMAT_VERSION} "
                f"frame files are readable"
            ) from exc
        raise ValueError(f"corrupt checkpoint: {exc}") from exc
    index_frame = frames[0]
    _require(index_frame.dtype == "|u1",
             f"{context} does not start with an index frame")
    try:
        index = json.loads(index_frame.array.tobytes().decode("utf-8"))
    except ValueError as exc:
        raise ValueError(
            f"corrupt checkpoint: {context} has an unreadable index ({exc})"
        ) from exc
    _require(isinstance(index, dict), "index is not a JSON object")
    version = index.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {version}")
    if limit is not None:
        return index, {}
    table = index.get("arrays")
    _require(isinstance(table, list) and len(table) == len(frames) - 1,
             f"{context} index lists {len(table or ())} arrays but the "
             f"file holds {len(frames) - 1}")
    arrays = {}
    for entry, frame in zip(table, frames[1:]):
        name = entry["name"]
        shape = tuple(int(n) for n in entry["shape"])
        _require(frame.dtype == entry["dtype"]
                 and frame.count == int(np.prod(shape, dtype=np.int64)),
                 f"frame for {name} does not match its index entry")
        arrays[name] = frame.array.reshape(shape)
    return index, arrays


def verify_checkpoint_blob(blob: bytes, context: str = "<blob>") -> None:
    """Run the full payload verification on checkpoint bytes *before*
    they land anywhere.

    The end-to-end integrity gate for replication: a checkpoint blob
    corrupted in transit must be rejected at receive time, never
    adopted onto a replica's disk where a later reload would silently
    fall back past it.  Raises :class:`ValueError` on any damage --
    a frame header, a frame CRC, or a structural violation.
    """
    _verify_payload(*_read_checkpoint(blob, context), context)


def _check_index_array(name: str, arr: np.ndarray,
                       num_vertices: int) -> None:
    _require(arr.ndim == 1, f"{name} must be 1-D, got shape {arr.shape}")
    _require(np.issubdtype(arr.dtype, np.integer),
             f"{name} must be integer, got dtype {arr.dtype}")
    if arr.size:
        _require(int(arr.min()) >= 0 and int(arr.max()) < num_vertices,
                 f"{name} indexes outside [0, {num_vertices})")


def _verify_canonical_arrays(data, num_vertices: int) -> None:
    """Structural checks on the six inline CSR+CSC arrays.

    ``from_canonical`` trusts its inputs (that is the point -- zero
    copies, zero sorts), so everything it would otherwise silently
    mis-index on is rejected here."""
    num_edges = int(data["out_targets"].size)
    for name in ("out_offsets", "in_offsets"):
        arr = data[name]
        _require(arr.ndim == 1 and np.issubdtype(arr.dtype, np.integer),
                 f"{name} must be a 1-D integer array")
        _require(arr.size == num_vertices + 1,
                 f"{name} length {arr.size} != num_vertices + 1")
        _require(int(arr[0]) == 0 and int(arr[-1]) == num_edges,
                 f"{name} endpoints do not span the edge arrays")
        if arr.size > 1:
            _require(int(np.diff(arr).min()) >= 0,
                     f"{name} is not monotone")
    _check_index_array("out_targets", data["out_targets"], num_vertices)
    _check_index_array("in_sources", data["in_sources"], num_vertices)
    _require(int(data["in_sources"].size) == num_edges,
             "CSC edge count does not match CSR edge count")
    _require(data["out_weights"].shape == data["out_targets"].shape,
             "out_weights does not match out_targets")
    _require(data["in_weights"].shape == data["in_sources"].shape,
             "in_weights does not match in_sources")


def _store_reference(index: dict) -> dict:
    reference = index.get("store_manifest")
    _require(isinstance(reference, dict),
             "manifest payload has no store reference")
    for key in ("kind", "root", "snapshot", "num_vertices", "arrays"):
        _require(key in reference, f"store manifest is missing {key!r}")
    return reference


_INDEX_KEYS = ("fingerprint", "num_vertices", "iteration", "num_iterations",
               "until_convergence", "hist_len", "graph_mode")
_STATE_ARRAYS = ("values", "prev_values", "aggregate", "frontier",
                 "hist_initial", "hist_identity")


def _verify_payload(index: dict, data: Dict[str, np.ndarray],
                    path: str) -> None:
    """Structural validation, before interpretation (the frame parser
    has already checked every CRC)."""
    for key in _INDEX_KEYS:
        _require(key in index, f"{path} index is missing {key!r}")
    for name in _STATE_ARRAYS:
        _require(name in data, f"{path} is missing {name}")
    num_vertices = int(index["num_vertices"])
    _require(num_vertices >= 0, "negative vertex count")
    mode = index["graph_mode"]
    if mode == "inline":
        for name in _GRAPH_ARRAYS:
            _require(name in data, f"inline payload is missing {name}")
        _verify_canonical_arrays(data, num_vertices)
    elif mode == "manifest":
        reference = _store_reference(index)
        _require(int(reference.get("num_vertices", -1)) == num_vertices,
                 "store manifest vertex count does not match payload")
    else:
        raise ValueError(
            f"corrupt checkpoint: unknown graph payload mode {mode!r}"
        )
    values = data["values"]
    _require(values.shape[0] == num_vertices if values.ndim else False,
             f"values length {values.shape} != num_vertices "
             f"{num_vertices}")
    _require(data["prev_values"].shape == values.shape,
             "prev_values shape does not match values")
    _require(data["aggregate"].shape[0] == num_vertices
             if data["aggregate"].ndim else False,
             "aggregate length != num_vertices")
    _check_index_array("frontier", data["frontier"], num_vertices)
    _require(int(index["iteration"]) >= 0, "negative iteration")
    _require(data["hist_initial"].shape == values.shape,
             "history initial values shape does not match values")
    hist_len = int(index["hist_len"])
    _require(hist_len >= 0, "negative history length")
    for number in range(hist_len):
        for part in ("g_idx", "g_values", "c_idx", "c_values"):
            _require(f"rec_{number}_{part}" in data,
                     f"history record {number} is missing {part}")
        g_idx = data[f"rec_{number}_g_idx"]
        c_idx = data[f"rec_{number}_c_idx"]
        _check_index_array(f"rec_{number}_g_idx", g_idx, num_vertices)
        _check_index_array(f"rec_{number}_c_idx", c_idx, num_vertices)
        _require(data[f"rec_{number}_g_values"].shape[0] == g_idx.size,
                 f"history record {number} aggregate values do not "
                 f"match indices")
        _require(data[f"rec_{number}_c_values"].shape[0] == c_idx.size,
                 f"history record {number} vertex values do not "
                 f"match indices")


def _restore_graph(index: dict, data: Dict[str, np.ndarray],
                   store_root: Optional[str]) -> CSRGraph:
    """Rebuild the snapshot from either payload mode, with zero sorts."""
    if index["graph_mode"] == "manifest":
        return open_snapshot_reference(_store_reference(index),
                                       store_root=store_root)
    return CSRGraph.from_canonical(
        int(index["num_vertices"]),
        *(data[name] for name in _GRAPH_ARRAYS),
    )


def load_engine(
    path: str,
    algorithm: IncrementalAlgorithm,
    pruning: Optional[PruningPolicy] = None,
    store_root: Optional[str] = None,
    extra: Optional[Dict[str, np.ndarray]] = None,
    **engine_kwargs,
) -> GraphBoltEngine:
    """Reconstruct an engine from a checkpoint.

    ``algorithm`` must be configured identically to the one that was
    checkpointed (same class, shapes and aggregation); a fingerprint
    mismatch raises ``ValueError`` rather than corrupting results.  The
    file is read once: every frame CRC and the array shapes/ranges are
    verified first, so a corrupted file fails loudly.

    ``store_root`` only matters for manifest-mode checkpoints: it
    overrides the snapshot-store root recorded at save time (replicas
    restore from their own spool directory, not the writer's).
    ``extra``, when given, is filled with the ``extra`` entries
    :func:`save_engine` stored.
    """
    index, data = _read_checkpoint(_read_file(path), path)
    _verify_payload(index, data, path)
    stored = index["fingerprint"]
    actual = _fingerprint(algorithm)
    if stored != actual:
        raise ValueError(
            f"algorithm mismatch: checkpoint was {stored!r}, "
            f"got {actual!r}"
        )
    graph = _restore_graph(index, data, store_root)
    engine = GraphBoltEngine(
        algorithm,
        num_iterations=int(index["num_iterations"]),
        until_convergence=bool(index["until_convergence"]),
        pruning=pruning,
        **engine_kwargs,
    )
    engine._streaming = StreamingGraph(graph)
    engine._state = DeltaState(
        values=data["values"].copy(),
        prev_values=data["prev_values"].copy(),
        aggregate=data["aggregate"].copy(),
        frontier=data["frontier"].copy(),
        iteration=int(index["iteration"]),
    )
    history = DependencyHistory(data["hist_initial"],
                                data["hist_identity"])
    for number in range(int(index["hist_len"])):
        history.record(
            data[f"rec_{number}_g_idx"],
            data[f"rec_{number}_g_values"],
            data[f"rec_{number}_c_idx"],
            data[f"rec_{number}_c_values"],
        )
    engine._history = history
    if extra is not None:
        extra.update((key, np.asarray(value))
                     for key, value in index.get("extra", {}).items())
    return engine


def read_store_manifest(path: str) -> Optional[dict]:
    """The store manifest reference a checkpoint records, or ``None``.

    Replication uses this to discover which snapshot-store segment
    files a manifest-mode checkpoint depends on, so they can be
    shipped to replicas ahead of the checkpoint itself.  Only the
    (CRC-verified) index frame is read."""
    index, _ = _read_checkpoint(path, path, limit=1)
    if index.get("graph_mode") != "manifest":
        return None
    return _store_reference(index)
