"""Pluggable snapshot storage for CSR graph snapshots.

A :class:`SnapshotStore` decides where the six canonical arrays of a
:class:`~repro.graph.csr.CSRGraph` snapshot live:

- :class:`HeapStore` -- plain heap ``ndarray``s, today's behaviour and
  the default.  ``publish`` is the identity; nothing touches disk.
- :class:`MmapStore` -- arrays persisted to a spool directory in a
  versioned, CRC-guarded binary layout and reopened as read-only
  ``np.memmap`` views.  The engines, ``PartitionedCSR`` and the
  dataflow layer run unmodified over the views because the
  :class:`CSRGraph` slice API is unchanged; only the pages an engine
  actually touches are resident.

On-disk layout of an :class:`MmapStore` root::

    manifest.json                      atomically-replaced JSON index
    <label>-g000000-out_offsets.seg    one segment file per array per
    <label>-g000000-out_targets.seg    snapshot generation
    ...

Every durable binary file this package writes is a sequence of
**frames**: a 64-byte header (``RSSEG001`` magic, dtype code
``<i8``/``<f8``/``|u1``, element count, CRC32 of the payload, zero
padding) followed by the raw little-endian payload.  A ``.seg`` file is
a one-frame sequence; an engine checkpoint
(:mod:`repro.runtime.checkpoint`) is a JSON index frame followed by one
frame per array.  :func:`read_frames` is the one parser -- the store,
checkpoint load and verify, the replica's receive-time check and the
scrubber all go through it -- and it turns every kind of damage into a
:class:`StoreError`.

Segment files are immutable once published: a new snapshot
generation writes fresh files (clean vertex ranges are block
copied file-to-file in bounded chunks; dirty ranges are spliced in
heap), renames them into place, and then atomically replaces the
manifest.  A crash between those steps leaves at worst a torn temp
file and an orphaned segment -- the previous manifest always stays
readable, which is what the ``storage.segment_write`` failpoint and
the crash fuzzer's storage sweep pin down.

Generations no longer referenced by a live graph, the manifest's
``current`` pointer, or a checkpoint pin are *tombstoned*;
:meth:`MmapStore.compact` (run opportunistically after each release)
deletes their files.  POSIX keeps open ``np.memmap`` views valid even
after the backing file is unlinked, so compaction never races a
reader.

Store selection is wired through ``REPRO_SNAPSHOT_STORE=heap`` or
``mmap[:dir]`` (see :func:`store_from_env`) plus ``--snapshot-store``
on the ``run`` / ``serve`` / ``experiment`` CLI entry points.
"""

from __future__ import annotations

import json
import mmap as _mmap_module
import os
import struct
import tempfile
import zlib
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.graph.csr import (
    CSRGraph,
    adjusted_offsets,
    row_keys,
    splice_edges,
)

__all__ = [
    "ARRAY_NAMES",
    "Frame",
    "HeapStore",
    "MmapStore",
    "SnapshotStore",
    "StoreError",
    "open_snapshot_reference",
    "read_frames",
    "read_segment",
    "store_from_env",
    "store_from_spec",
    "write_frame",
]

#: The six canonical arrays of a CSR+CSC snapshot, in manifest order.
ARRAY_NAMES = (
    "out_offsets",
    "out_targets",
    "out_weights",
    "in_offsets",
    "in_sources",
    "in_weights",
)

ARRAY_DTYPES = {
    "out_offsets": "<i8",
    "out_targets": "<i8",
    "out_weights": "<f8",
    "in_offsets": "<i8",
    "in_sources": "<i8",
    "in_weights": "<f8",
}

_MAGIC = b"RSSEG001"
_HEADER_SIZE = 64
_HEADER = struct.Struct("<8s8sQI")  # magic, dtype code, count, crc32
_MANIFEST_VERSION = 1
_MANIFEST_NAME = "manifest.json"

#: Copy granularity (elements) for file-to-file block copies of clean
#: vertex ranges: 2 MiB of int64/float64 per chunk, so a clean-range
#: copy never holds more than one chunk in heap.
_COPY_CHUNK = 1 << 18

#: Upper bound (edges) on the heap working set of one dirty vertex
#: range during :meth:`MmapStore.adjust`.  Segment boundaries are
#: chosen by edge budget, not vertex count, so a power-law hub cannot
#: blow the bound past a single row.
_SEGMENT_EDGE_BUDGET = 1 << 20


class StoreError(ValueError):
    """A snapshot store's on-disk state failed validation."""


# ----------------------------------------------------------------------
# Base interface
# ----------------------------------------------------------------------
class SnapshotStore:
    """Where the canonical arrays of CSR snapshots live."""

    kind: str = "abstract"

    def writer(self) -> "_SnapshotWriter":
        """An incremental writer: append canonical-array chunks in
        order, then ``commit(num_vertices)`` to obtain the graph.
        Streaming producers (the xl RMAT generator) use this so the
        full edge list never exists in heap at once."""
        raise NotImplementedError

    def publish(self, graph: CSRGraph) -> CSRGraph:
        """Persist ``graph``'s arrays into the store and return the
        store-backed equivalent (identity for :class:`HeapStore`)."""
        raise NotImplementedError

    def release(self, graph: CSRGraph) -> None:
        """Drop the live reference a graph holds on its snapshot."""

    def describe(self) -> str:
        return self.kind


class HeapStore(SnapshotStore):
    """Today's behaviour: snapshots are plain heap arrays."""

    kind = "heap"

    def writer(self) -> "_HeapWriter":
        return _HeapWriter()

    def publish(self, graph: CSRGraph) -> CSRGraph:
        return graph


class _SnapshotWriter:
    def append(self, name: str, chunk: np.ndarray) -> None:
        raise NotImplementedError

    def commit(self, num_vertices: int) -> CSRGraph:
        raise NotImplementedError

    def abort(self) -> None:
        """Discard partial output (no-op after commit)."""


class _HeapWriter(_SnapshotWriter):
    """Accumulate chunks in heap and assemble plain arrays."""

    def __init__(self) -> None:
        self._chunks: Dict[str, List[np.ndarray]] = {
            name: [] for name in ARRAY_NAMES
        }

    def append(self, name: str, chunk: np.ndarray) -> None:
        dtype = np.dtype(ARRAY_DTYPES[name])
        self._chunks[name].append(np.ascontiguousarray(chunk, dtype=dtype))

    def commit(self, num_vertices: int) -> CSRGraph:
        arrays = {}
        for name in ARRAY_NAMES:
            chunks = self._chunks[name]
            if len(chunks) == 1:
                arrays[name] = chunks[0]
            else:
                arrays[name] = (
                    np.concatenate(chunks) if chunks
                    else np.empty(0, dtype=np.dtype(ARRAY_DTYPES[name]))
                )
        self._chunks = {name: [] for name in ARRAY_NAMES}
        return CSRGraph.from_canonical(num_vertices, **arrays)


# ----------------------------------------------------------------------
# Frames: the one on-disk integrity format
# ----------------------------------------------------------------------
class Frame(NamedTuple):
    """One parsed frame: header fields plus a 1-D view of the payload."""

    dtype: str
    count: int
    crc32: int
    array: np.ndarray


#: The dtype codes a frame may hold, keyed by their raw header field.
_FRAME_CODES = ("<i8", "<f8", "|u1")
_FRAME_DTYPES = {code.encode("ascii").ljust(8, b"\0"): code
                 for code in _FRAME_CODES}


def _pack_header(dtype: str, count: int, crc: int) -> bytes:
    header = _HEADER.pack(_MAGIC, dtype.encode("ascii").ljust(8, b"\0"),
                          count, crc & 0xFFFFFFFF)
    return header.ljust(_HEADER_SIZE, b"\0")


def write_frame(stream, array: np.ndarray) -> None:
    """Append ``array`` (``<i8``, ``<f8`` or ``|u1``, any shape) to
    ``stream`` as one frame: header, then its raw C-order bytes."""
    array = np.ascontiguousarray(array)
    if array.dtype.str not in _FRAME_CODES:
        raise ValueError(f"frames cannot hold dtype {array.dtype.str!r}")
    stream.write(_pack_header(array.dtype.str, array.size,
                              zlib.crc32(array)))
    stream.write(array)


def read_frames(source, context: Optional[str] = None, verify: bool = True,
                limit: Optional[int] = None) -> List[Frame]:
    """Parse the frame sequence in ``source`` -- a file path (memory-
    mapped, so frames come back as ``np.memmap`` views) or a bytes-like
    object (frames are views into it).

    The frames must tile the source exactly.  Every kind of damage --
    an unreadable or empty file, a torn header, bad magic, an unknown
    dtype, non-zero header padding, a payload running past the end, a
    payload CRC mismatch (when ``verify``) -- raises :class:`StoreError`.
    ``limit`` stops after that many frames without looking further
    (reading a checkpoint's index frame alone).
    """
    if isinstance(source, str):
        context = context or source
        try:
            buf = np.memmap(source, dtype=np.uint8, mode="r")
        except (OSError, ValueError) as exc:
            raise StoreError(f"unreadable frame file {source}: {exc}") \
                from exc
    else:
        context = context or "<blob>"
        buf = np.frombuffer(source, dtype=np.uint8)
    frames: List[Frame] = []
    offset = 0
    while offset < buf.size and (limit is None or len(frames) < limit):
        if buf.size - offset < _HEADER_SIZE:
            raise StoreError(f"{context}: truncated frame header at byte "
                             f"{offset}")
        header = buf[offset:offset + _HEADER_SIZE].tobytes()
        magic, dtype_raw, count, crc = _HEADER.unpack_from(header)
        if magic != _MAGIC:
            raise StoreError(f"{context}: bad frame magic {magic!r} at byte "
                             f"{offset}")
        dtype = _FRAME_DTYPES.get(dtype_raw)
        if dtype is None:
            raise StoreError(f"{context}: unknown frame dtype {dtype_raw!r}")
        if any(header[_HEADER.size:]):
            raise StoreError(f"{context}: damaged frame header padding at "
                             f"byte {offset}")
        start = offset + _HEADER_SIZE
        offset = start + count * np.dtype(dtype).itemsize
        if offset > buf.size:
            raise StoreError(f"{context}: frame payload truncated "
                             f"({buf.size - start} of {offset - start} "
                             f"bytes)")
        payload = buf[start:offset]
        if verify and zlib.crc32(payload) != crc:
            raise StoreError(f"{context}: payload CRC mismatch in frame "
                             f"{len(frames)}")
        frames.append(Frame(dtype, int(count), int(crc),
                            payload.view(dtype)))
    if not frames:
        raise StoreError(f"{context} holds no frames")
    return frames


def read_segment(source, context: Optional[str] = None,
                 verify: bool = True) -> Frame:
    """The frame of a store segment (a one-frame sequence)."""
    frames = read_frames(source, context, verify=verify)
    if len(frames) != 1:
        where = context or (source if isinstance(source, str) else "<blob>")
        raise StoreError(f"segment {where} holds {len(frames)} frames, "
                         f"expected 1")
    return frames[0]


def _evict_pages(*arrays) -> None:
    """Drop the resident pages behind memmap-backed arrays.

    ``MADV_DONTNEED`` on a read-only file mapping discards clean pages;
    the data refetches from the segment file on the next touch, so this
    only trades latency for RSS.  :meth:`MmapStore.adjust` evicts each
    old-generation direction after block-copying it forward -- without
    this, the copy drags the whole previous generation resident and
    the out-of-core tier's peak-RSS advantage evaporates.  No-op for
    heap arrays, sliced views, and platforms without ``madvise``.
    """
    for array in arrays:
        mapping = getattr(array, "_mmap", None)
        if mapping is None or not hasattr(mapping, "madvise"):
            continue
        try:
            mapping.madvise(_mmap_module.MADV_DONTNEED)
        except (AttributeError, ValueError, OSError):
            pass


class _SegmentFile:
    """One array's segment file under incremental construction."""

    def __init__(self, root: str, name: str) -> None:
        self.name = name
        self.dtype = np.dtype(ARRAY_DTYPES[name])
        fd, self.tmp_path = tempfile.mkstemp(
            prefix=f".{name}-", suffix=".tmp", dir=root
        )
        self._stream = os.fdopen(fd, "wb")
        self._stream.write(b"\0" * _HEADER_SIZE)
        self.count = 0
        self.crc = 0

    def append(self, chunk: np.ndarray) -> None:
        chunk = np.ascontiguousarray(chunk, dtype=self.dtype)
        data = chunk.tobytes()
        self.crc = zlib.crc32(data, self.crc)
        self.count += int(chunk.size)
        self._stream.write(data)

    def finalize(self, final_path: str) -> None:
        # Imported here, not at module top: the graph layer sits below
        # repro.testing in the import graph (testing's oracle pulls in
        # every engine, which pulls this package back in).
        from repro.testing import faults

        # The failpoint sits after the payload but before the header
        # backpatch + rename: an injected crash here leaves a torn
        # temp file (payload without a valid header, never renamed),
        # which is exactly the artifact a real mid-write kill leaves.
        # A corrupt plan flips one payload byte *after* the streaming
        # CRC was computed -- planted bit-rot the header cannot see,
        # which only a payload re-read (scrub/verify) can detect.
        if faults.hit_corruptible("storage.segment_write") and self.count:
            self._stream.flush()
            offset = _HEADER_SIZE + (self.count * self.dtype.itemsize) // 2
            fd = self._stream.fileno()
            byte = os.pread(fd, 1, offset)
            os.pwrite(fd, bytes([byte[0] ^ 0x01]), offset)
        self._stream.flush()
        self._stream.seek(0)
        self._stream.write(_pack_header(str(self.dtype.str), self.count,
                                        self.crc))
        self._stream.flush()
        os.fsync(self._stream.fileno())
        self._stream.close()
        os.replace(self.tmp_path, final_path)

    def discard(self) -> None:
        try:
            self._stream.close()
        except OSError:
            pass
        try:
            os.unlink(self.tmp_path)
        except OSError:
            pass


class _MmapWriter(_SnapshotWriter):
    """Write one snapshot generation's segment files, then publish."""

    def __init__(self, store: "MmapStore") -> None:
        self._store = store
        self._segments = {
            name: _SegmentFile(store.root, name) for name in ARRAY_NAMES
        }
        self._done = False

    def append(self, name: str, chunk: np.ndarray) -> None:
        self._segments[name].append(chunk)

    def append_raw(self, name: str, other: np.ndarray,
                   start: int, stop: int) -> None:
        """Block-copy ``other[start:stop]`` (typically an old
        generation's memmap) in bounded chunks."""
        segment = self._segments[name]
        for lo in range(start, stop, _COPY_CHUNK):
            hi = min(lo + _COPY_CHUNK, stop)
            segment.append(other[lo:hi])

    def commit(self, num_vertices: int) -> CSRGraph:
        if self._done:
            raise RuntimeError("writer already committed")
        edge_count = self._segments["out_targets"].count
        for name in ("out_weights", "in_sources", "in_weights"):
            if self._segments[name].count != edge_count:
                raise StoreError(
                    f"array {name} has {self._segments[name].count} "
                    f"elements, expected {edge_count}"
                )
        try:
            graph = self._store._publish_generation(
                num_vertices, self._segments
            )
        except Exception:
            # Ordinary failures tidy the temp files; an InjectedCrash
            # (BaseException) deliberately does not -- a killed process
            # leaves its torn temps behind, and the storage crash
            # sweep asserts the store survives them.
            self.abort()
            raise
        self._done = True
        return graph

    def abort(self) -> None:
        if self._done:
            return
        for segment in self._segments.values():
            segment.discard()
        self._done = True


# ----------------------------------------------------------------------
# MmapStore
# ----------------------------------------------------------------------
class MmapStore(SnapshotStore):
    """Snapshots spooled to disk and reopened as ``np.memmap`` views.

    Parameters
    ----------
    root:
        Spool directory (created if missing).  One store per
        directory; the manifest and all segment files live here.
    label:
        Prefix for snapshot ids and file names minted by *this* store.
        Replicas use their own label so snapshots adopted from a
        writer's checkpoint manifest never collide with the replica's
        own generations in the same root.
    """

    kind = "mmap"

    def __init__(self, root: str, label: str = "snap") -> None:
        self.root = os.path.abspath(root)
        os.makedirs(self.root, exist_ok=True)
        if not label or any(ch in label for ch in "/\\ \t\n"):
            raise ValueError(f"invalid store label {label!r}")
        self.label = label
        self._live: Dict[str, int] = {}
        self._manifest = self._read_manifest()

    # -- manifest ------------------------------------------------------
    @property
    def _manifest_path(self) -> str:
        return os.path.join(self.root, _MANIFEST_NAME)

    def _read_manifest(self) -> dict:
        if not os.path.exists(self._manifest_path):
            return {
                "version": _MANIFEST_VERSION,
                "generation": 0,
                "current": None,
                "snapshots": {},
                "pins": {},
            }
        try:
            with open(self._manifest_path, "r", encoding="utf-8") as stream:
                manifest = json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            raise StoreError(
                f"unreadable store manifest {self._manifest_path}: {exc}"
            ) from exc
        if manifest.get("version") != _MANIFEST_VERSION:
            raise StoreError(
                f"store manifest version {manifest.get('version')!r} "
                f"!= {_MANIFEST_VERSION}"
            )
        return manifest

    def _write_manifest(self) -> None:
        fd, tmp = tempfile.mkstemp(prefix=".manifest-", suffix=".tmp",
                                   dir=self.root)
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as stream:
                json.dump(self._manifest, stream, indent=1, sort_keys=True)
                stream.flush()
                os.fsync(stream.fileno())
            os.replace(tmp, self._manifest_path)
        except Exception:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- snapshot ids --------------------------------------------------
    def _mint_snapshot_id(self) -> str:
        generation = int(self._manifest["generation"])
        self._manifest["generation"] = generation + 1
        return f"{self.label}-g{generation:06d}"

    def snapshot_ids(self) -> List[str]:
        return sorted(self._manifest["snapshots"])

    @property
    def current_snapshot(self) -> Optional[str]:
        return self._manifest.get("current")

    # -- publish / open ------------------------------------------------
    def writer(self) -> _MmapWriter:
        return _MmapWriter(self)

    def publish(self, graph: CSRGraph) -> CSRGraph:
        if getattr(graph, "store", None) is self:
            return graph
        writer = self.writer()
        for name in ARRAY_NAMES:
            writer.append_raw(name, getattr(graph, name),
                              0, getattr(graph, name).size)
        return writer.commit(graph.num_vertices)

    def _publish_generation(self, num_vertices: int,
                            segments: Dict[str, _SegmentFile]) -> CSRGraph:
        snapshot_id = self._mint_snapshot_id()
        entry: dict = {"num_vertices": int(num_vertices), "arrays": {}}
        for name in ARRAY_NAMES:
            segment = segments[name]
            file_name = f"{snapshot_id}-{name}.seg"
            segment.finalize(os.path.join(self.root, file_name))
            entry["arrays"][name] = {
                "file": file_name,
                "dtype": str(segment.dtype.str),
                "count": segment.count,
                "crc32": segment.crc & 0xFFFFFFFF,
            }
        self._manifest["snapshots"][snapshot_id] = entry
        self._manifest["current"] = snapshot_id
        self._write_manifest()
        return self.open_snapshot(snapshot_id)

    def _open_array(self, meta: dict, verify: bool = False) -> np.ndarray:
        path = os.path.join(self.root, meta["file"])
        frame = read_segment(path, verify=verify)
        if (frame.dtype, frame.count) != (meta["dtype"], int(meta["count"])):
            raise StoreError(
                f"segment {path} header disagrees with manifest "
                f"({frame.dtype},{frame.count}) != "
                f"({meta['dtype']},{meta['count']})"
            )
        if frame.crc32 != int(meta["crc32"]):
            raise StoreError(f"segment {path} CRC header/manifest mismatch")
        return frame.array

    def open_snapshot(self, snapshot_id: Optional[str] = None,
                      verify: bool = False) -> CSRGraph:
        """Open a snapshot (default: current) as a store-backed graph."""
        snapshot_id = snapshot_id or self.current_snapshot
        if snapshot_id is None:
            raise StoreError(f"store {self.root} holds no snapshots")
        try:
            entry = self._manifest["snapshots"][snapshot_id]
        except KeyError:
            raise StoreError(
                f"unknown snapshot {snapshot_id!r} in store {self.root}"
            ) from None
        arrays = {
            name: self._open_array(entry["arrays"][name], verify=verify)
            for name in ARRAY_NAMES
        }
        graph = CSRGraph.from_canonical(
            int(entry["num_vertices"]), store=self,
            snapshot_id=snapshot_id, **arrays,
        )
        self._live[snapshot_id] = self._live.get(snapshot_id, 0) + 1
        return graph

    def verify(self, snapshot_id: Optional[str] = None) -> None:
        """Full payload-CRC verification of one snapshot (default:
        current).  Raises :class:`StoreError` on any mismatch."""
        snapshot_id = snapshot_id or self.current_snapshot
        if snapshot_id is None:
            raise StoreError(f"store {self.root} holds no snapshots")
        entry = self._manifest["snapshots"][snapshot_id]
        for name in ARRAY_NAMES:
            self._open_array(entry["arrays"][name], verify=True)

    # -- reference counting / pins / compaction ------------------------
    def release(self, graph: CSRGraph) -> None:
        snapshot_id = getattr(graph, "snapshot_id", None)
        if snapshot_id is None:
            return
        count = self._live.get(snapshot_id, 0)
        if count <= 1:
            self._live.pop(snapshot_id, None)
        else:
            self._live[snapshot_id] = count - 1
        self.compact()

    def pin(self, snapshot_id: str, owner: str) -> None:
        """Keep ``snapshot_id``'s files for as long as the file at
        ``owner`` (a checkpoint path) exists; self-expiring, so
        checkpoint rotation needs no store hook."""
        owners = self._manifest["pins"].setdefault(snapshot_id, [])
        owner = os.path.abspath(owner)
        if owner not in owners:
            owners.append(owner)
            self._write_manifest()

    def _retained(self) -> set:
        keep = set(self._live)
        if self.current_snapshot is not None:
            keep.add(self.current_snapshot)
        for snapshot_id, owners in self._manifest["pins"].items():
            if any(os.path.exists(owner) for owner in owners):
                keep.add(snapshot_id)
        return keep

    def compact(self) -> List[str]:
        """Delete tombstoned generations and stray temp files.

        A generation is tombstoned when no live graph references it,
        it is not the manifest's ``current``, and no pin with a
        still-existing owner file protects it.  Returns the deleted
        snapshot ids.
        """
        keep = self._retained()
        doomed = [sid for sid in self._manifest["snapshots"]
                  if sid not in keep]
        doomed_files = []
        if doomed:
            for snapshot_id in doomed:
                entry = self._manifest["snapshots"].pop(snapshot_id)
                self._manifest["pins"].pop(snapshot_id, None)
                doomed_files.extend(meta["file"]
                                    for meta in entry["arrays"].values())
            stale_pins = [sid for sid in self._manifest["pins"]
                          if sid not in self._manifest["snapshots"]]
            for snapshot_id in stale_pins:
                del self._manifest["pins"][snapshot_id]
            self._write_manifest()
        for name in doomed_files:
            try:
                os.unlink(os.path.join(self.root, name))
            except OSError:
                pass
        referenced = set()
        for entry in self._manifest["snapshots"].values():
            for meta in entry["arrays"].values():
                referenced.add(meta["file"])
        # Sweep only files *this* store minted: foreign-label segments
        # may be mid-bootstrap shipments whose adopting checkpoint has
        # not arrived yet, so they are never reaped by name.
        own_prefix = f"{self.label}-g"
        for name in os.listdir(self.root):
            path = os.path.join(self.root, name)
            if name.endswith(".tmp"):
                try:
                    os.unlink(path)
                except OSError:
                    pass
            elif (name.endswith(".seg") and name.startswith(own_prefix)
                  and name not in referenced):
                try:
                    os.unlink(path)
                except OSError:
                    pass
        return doomed

    # -- checkpoint manifest references --------------------------------
    def manifest_entry(self, snapshot_id: str) -> dict:
        """A self-contained JSON reference for checkpoints: enough to
        reopen the snapshot from this root (or a replica's copy)."""
        entry = self._manifest["snapshots"][snapshot_id]
        return {
            "kind": self.kind,
            "root": self.root,
            "label": self.label,
            "snapshot": snapshot_id,
            "num_vertices": int(entry["num_vertices"]),
            "arrays": {name: dict(meta)
                       for name, meta in entry["arrays"].items()},
        }

    def adopt_snapshot(self, reference: dict) -> str:
        """Register a snapshot described by a checkpoint manifest
        reference whose segment files already sit in this root (e.g.
        shipped there by replication).  Idempotent."""
        snapshot_id = reference["snapshot"]
        if snapshot_id in self._manifest["snapshots"]:
            return snapshot_id
        entry = {
            "num_vertices": int(reference["num_vertices"]),
            "arrays": {name: dict(meta)
                       for name, meta in reference["arrays"].items()},
        }
        for name in ARRAY_NAMES:
            if name not in entry["arrays"]:
                raise StoreError(
                    f"manifest reference missing array {name!r}"
                )
            # Header check up front: adopting a half-shipped snapshot
            # must fail loudly, not at first page fault.
            self._open_array(entry["arrays"][name])
        self._manifest["snapshots"][snapshot_id] = entry
        if self._manifest["current"] is None:
            self._manifest["current"] = snapshot_id
        self._write_manifest()
        return snapshot_id

    def segment_files(self, snapshot_id: str) -> List[str]:
        """File names (relative to root) backing one snapshot."""
        entry = self._manifest["snapshots"][snapshot_id]
        return [entry["arrays"][name]["file"] for name in ARRAY_NAMES]

    def describe(self) -> str:
        return f"mmap:{self.root}"

    # ------------------------------------------------------------------
    # Segment-wise structure adjustment
    # ------------------------------------------------------------------
    def adjust(
        self,
        old: CSRGraph,
        num_vertices: int,
        add_src: np.ndarray,
        add_dst: np.ndarray,
        add_weight: np.ndarray,
        del_src: np.ndarray,
        del_dst: np.ndarray,
        del_slots: np.ndarray,
    ) -> CSRGraph:
        """Build the post-batch snapshot without materializing the
        full edge set in heap (see :meth:`CSRGraph.spliced` for the
        batch contract; ``del_slots`` are the deletions' CSR slots).

        Vertex ranges untouched by the batch are block-copied from the
        old generation's files; dirty ranges (bounded by an edge
        budget) go through the same merge-splice kernel as heap
        snapshots (:func:`~repro.graph.csr.splice_edges`), so the
        result is bit-for-bit the heap path's.
        """
        writer = self.writer()
        try:
            self._adjust_direction(
                writer, old, num_vertices,
                offsets=old.out_offsets, others=old.out_targets,
                weights=old.out_weights,
                add_key=add_src, add_other=add_dst, add_weight=add_weight,
                del_key=del_src, del_other=del_dst, del_slots=del_slots,
                names=("out_offsets", "out_targets", "out_weights"),
            )
            _evict_pages(old.out_targets, old.out_weights)
            self._adjust_direction(
                writer, old, num_vertices,
                offsets=old.in_offsets, others=old.in_sources,
                weights=old.in_weights,
                add_key=add_dst, add_other=add_src, add_weight=add_weight,
                del_key=del_dst, del_other=del_src, del_slots=None,
                names=("in_offsets", "in_sources", "in_weights"),
            )
            _evict_pages(old.in_sources, old.in_weights)
        except Exception:
            writer.abort()
            raise
        return writer.commit(num_vertices)

    def _adjust_direction(
        self, writer: _MmapWriter, old: CSRGraph, num_vertices: int,
        offsets: np.ndarray, others: np.ndarray, weights: np.ndarray,
        add_key: np.ndarray, add_other: np.ndarray,
        add_weight: np.ndarray,
        del_key: np.ndarray, del_other: np.ndarray,
        del_slots: Optional[np.ndarray],
        names: Tuple[str, str, str],
    ) -> None:
        """One direction, segment by segment.  ``del_slots`` are the
        deletions' slots in this direction's arrays when the caller
        already has them; otherwise each dirty segment finds them by
        ``searchsorted`` over its own keys."""
        offsets_name, others_name, weights_name = names
        old_v = old.num_vertices
        stride = max(num_vertices, 1)
        writer.append(offsets_name, adjusted_offsets(
            offsets, num_vertices, add_key, del_key,
        ))
        add_keys = add_key * stride + add_other
        del_keys = del_key * stride + del_other

        dirty = np.zeros(num_vertices, dtype=bool)
        dirty[add_key] = True
        dirty[del_key] = True

        start = 0
        while start < num_vertices:
            stop = self._segment_stop(offsets, old_v, num_vertices, start)
            first = min(start, old_v)
            read_stop = min(stop, old_v)
            lo = int(offsets[first])
            hi = int(offsets[read_stop])
            if not dirty[start:stop].any():
                writer.append_raw(others_name, others, lo, hi)
                writer.append_raw(weights_name, weights, lo, hi)
                start = stop
                continue
            seg_other = np.asarray(others[lo:hi])
            seg_weight = np.asarray(weights[lo:hi])
            keys = row_keys(offsets[first:read_stop + 1], seg_other,
                            stride, first)
            if del_slots is not None:
                seg_del = del_slots[(del_slots >= lo) & (del_slots < hi)] - lo
            else:
                seg_del = np.searchsorted(
                    keys, del_keys[(del_key >= start) & (del_key < stop)]
                )
            seg_add = (add_key >= start) & (add_key < stop)
            seg_other, seg_weight = splice_edges(
                keys, seg_other, seg_weight, seg_del,
                add_keys[seg_add], add_other[seg_add], add_weight[seg_add],
            )
            writer.append(others_name, seg_other)
            writer.append(weights_name, seg_weight)
            start = stop

    @staticmethod
    def _segment_stop(offsets: np.ndarray, old_v: int,
                      num_vertices: int, start: int) -> int:
        """Largest ``stop`` whose old edge span fits the budget (always
        advancing by at least one vertex)."""
        if start >= old_v:
            return num_vertices
        budget_end = int(offsets[start]) + _SEGMENT_EDGE_BUDGET
        stop = int(np.searchsorted(offsets, budget_end, side="right")) - 1
        stop = max(stop, start + 1)
        if stop >= old_v:
            return num_vertices
        return stop


# ----------------------------------------------------------------------
# Checkpoint manifest references
# ----------------------------------------------------------------------
def open_snapshot_reference(reference: dict,
                            store_root: Optional[str] = None,
                            label: Optional[str] = None) -> CSRGraph:
    """Reopen the snapshot a checkpoint's manifest reference names.

    ``store_root`` overrides the recorded root (a replica passes its
    own spool, where the writer's segment files were shipped); the
    snapshot is adopted into that root's manifest if absent so later
    structure adjustments and pins work locally.
    """
    if reference.get("kind") != "mmap":
        raise StoreError(
            f"unsupported store kind {reference.get('kind')!r}"
        )
    root = store_root or reference["root"]
    store = MmapStore(root, label=label or reference.get("label", "snap"))
    snapshot_id = store.adopt_snapshot(reference)
    return store.open_snapshot(snapshot_id)


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
ENV_SNAPSHOT_STORE = "REPRO_SNAPSHOT_STORE"


def store_from_spec(spec: Optional[str],
                    default_root: Optional[str] = None) -> SnapshotStore:
    """Build a store from ``heap`` or ``mmap[:dir]``.

    ``mmap`` without a directory spools under ``default_root`` when
    given, else a fresh temporary directory.
    """
    spec = (spec or "heap").strip()
    kind, _, rest = spec.partition(":")
    if kind == "heap":
        if rest:
            raise ValueError(f"heap store takes no directory: {spec!r}")
        return HeapStore()
    if kind == "mmap":
        root = rest or default_root or tempfile.mkdtemp(
            prefix="repro-store-"
        )
        return MmapStore(root)
    raise ValueError(
        f"unknown snapshot store {spec!r} (choose heap or mmap[:dir])"
    )


def store_from_env(default: str = "heap",
                   default_root: Optional[str] = None) -> SnapshotStore:
    """Store selected by ``REPRO_SNAPSHOT_STORE`` (see module doc)."""
    return store_from_spec(os.environ.get(ENV_SNAPSHOT_STORE, default),
                           default_root=default_root)
