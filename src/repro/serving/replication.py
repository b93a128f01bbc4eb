"""WAL-shipped read replicas with epoch fencing.

One **writer** owns ingestion: it applies batches durably through the
PR-3 recovery stack (segmented WAL + atomic checkpoints) and ships two
kinds of immutable artifacts to N **read replicas** over a transport
abstraction:

- **sealed WAL segments** -- once a segment is full (or force-sealed
  for a final sync) it never gains records, so a segment is shipped as
  its raw CRC-guarded lines and the replica re-verifies every record
  end-to-end with the WAL's own decoder;
- **checkpoints** -- the writer's atomic checkpoint files (CRC-framed,
  see :mod:`repro.runtime.checkpoint`), adopted byte-for-byte, which
  is both how a fresh replica bootstraps and how a lagging replica
  heals past garbage-collected history;
- **store segments** -- when the writer's graph lives in an mmap
  :class:`~repro.graph.storage.MmapStore`, its checkpoints record a
  *manifest reference* instead of inlining the edge arrays, so before
  such a checkpoint ships, the CRC-guarded segment files it references
  are shipped through the same transport and copied into the replica's
  own store spool.  Replica bootstrap is then a file copy plus a WAL
  *tail* replay -- never a replay of the full history.

Each replica replays into its own state directory (a WAL *mirror* plus
adopted checkpoints) that is structurally identical to a writer's --
which is exactly what makes promotion possible: failover recovers a new
writer from a replica directory with the ordinary
:meth:`~repro.recovery.manager.RecoveryManager.recover` path.

Replica replay is sequence-driven and idempotent: records below the
replica's position are deduplicated, a record *above* it raises
:class:`ReplicationGapError` (never silently skipped -- see
:meth:`~repro.recovery.manager.RecoveryManager.sealed_segments`), and
the cluster heals a gap by asking the writer to **resync** from the
replica's position (re-shipping segments, or the newest checkpoint when
the history was GC'd).

**Fencing**: every shipment carries the writer's *epoch*.  Promotion
advances the cluster epoch (:class:`EpochAuthority`) and fences every
surviving replica; a deposed writer's late shipments arrive with a
stale epoch and are rejected into a durable ``fence_ledger.jsonl`` --
the ledger the replicated crash fuzzer checks to prove a fenced
writer's segments were provably rejected, not silently dropped.

The writer's durable skip-marks (poison quarantine, admission sheds,
coalesce supersedes) ship alongside segments, so replica replay skips
exactly the records the writer skipped and converges bit-for-bit --
``json`` round-trips IEEE-754 doubles exactly, so shipped records
reconstruct the writer's batches to the bit.

Failpoints (:mod:`repro.testing.faults`): ``replication.ship`` (crash =
writer dies mid-ship; fault = shipment lost in transit; corrupt = one
payload byte flipped in transit), ``replication.reorder`` (fault =
delivery order swapped), ``replication.receive`` (crash = replica dies
mid-apply; fault = delivery deferred one round -- planted lag),
``replica.query`` (fault = replica fails mid-query, driving router
failover).

**Hostile transports**: every shipment's payload is CRC-guarded end to
end (WAL record CRCs, the frame CRCs of store segments and
checkpoints), so a replica detects a corrupt delivery at apply time
and raises :class:`ShipmentIntegrityError` -- a NACK.  The cluster
answers a NACK the same way it answers a gap: discard the bad
shipment, rewind the link, re-ship.  Retries are bounded by a
:class:`RetryPolicy` (deterministic-jitter exponential backoff,
per-link attempt budget); a link that exhausts its budget has its
undelivered range recorded on the durable :class:`DeadLetterLedger`
instead of hanging the writer.
:class:`~repro.serving.chaos.ChaosTransport` wraps any transport with
a seeded drop/duplicate/reorder/delay/corrupt schedule to prove all of
this converges.
"""

from __future__ import annotations

import base64
import json
import os
import shutil
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field, replace as dc_replace
from typing import Callable, Deque, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.graph.mutation import MutationBatch
from repro.graph.storage import StoreError, read_segment
from repro.obs import trace
from repro.obs.registry import get_registry
from repro.recovery.manager import (
    RecoveryError,
    RecoveryManager,
    SegmentGapError,
)
from repro.recovery.wal import SealedSegment, payload_to_batch
from repro.recovery.wal import _decode_record  # CRC-checked end-to-end
from repro.runtime.checkpoint import (
    read_store_manifest,
    verify_checkpoint_blob,
)
from repro.runtime.deadline import Deadline
from repro.serving.resilience import ResilientAnalyticsServer
from repro.serving.server import QueryResult, StreamingAnalyticsServer
from repro.testing import faults
from repro.testing.faults import InjectedFault

__all__ = [
    "DeadLetterLedger",
    "DirectoryTransport",
    "EpochAuthority",
    "InProcessTransport",
    "ReadReplica",
    "ReplicaUnavailableError",
    "ReplicationCluster",
    "ReplicationError",
    "ReplicationGapError",
    "ReplicationWriter",
    "RetryPolicy",
    "Shipment",
    "ShipmentIntegrityError",
    "corrupt_shipment",
    "replication_status",
]

#: Replicas never self-checkpoint -- they adopt the writer's -- so
#: their manager cadence is effectively "never".
_REPLICA_CHECKPOINT_EVERY = 10 ** 9


class ReplicationError(RuntimeError):
    """A replication-protocol violation (not a transport fault)."""


class ReplicationGapError(ReplicationError):
    """A delivered shipment starts past the replica's position."""


class ShipmentIntegrityError(ReplicationError):
    """A delivered shipment failed CRC re-verification (bit-rot in
    transit).  The cluster treats it as a NACK: discard, rewind the
    link, re-ship under the retry policy."""


class ReplicaUnavailableError(ConnectionError):
    """The addressed replica is dead or not yet bootstrapped.

    Derives from ``ConnectionError`` (an ``OSError``) so callers that
    absorb transport-ish failures -- the query router's failover path
    above all -- treat a dead replica like any other connection error.
    """


# ----------------------------------------------------------------------
# The wire format
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Shipment:
    """One immutable unit shipped writer -> replica.

    ``kind`` is ``"segment"`` (raw encoded WAL lines for records
    ``[first_seq, end_seq)`` plus the writer's skip-mark ledger),
    ``"checkpoint"`` (the atomic archive covering ``[0, first_seq)``,
    byte-for-byte in ``blob``), or ``"store"`` (one snapshot-store
    segment file a manifest-mode checkpoint references, byte-for-byte
    in ``blob``, with its snapshot id and file name in ``meta``).
    ``epoch`` fences deposed writers; ``index`` is the per-link send
    counter, which makes ``(epoch, index)`` a unique delivery id
    replicas use to deduplicate ledger entries on redelivery.
    """

    kind: str
    epoch: int
    index: int
    first_seq: int
    end_seq: int
    lines: Tuple[str, ...] = ()
    blob: bytes = b""
    skip: Mapping[int, str] = field(default_factory=dict)
    meta: Mapping[str, str] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind,
            "epoch": self.epoch,
            "index": self.index,
            "first_seq": self.first_seq,
            "end_seq": self.end_seq,
            "lines": list(self.lines),
            "blob_b64": base64.b64encode(self.blob).decode("ascii"),
            "skip": {str(seq): reason
                     for seq, reason in self.skip.items()},
            "meta": dict(self.meta),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Shipment":
        payload = json.loads(text)
        return cls(
            kind=payload["kind"],
            epoch=payload["epoch"],
            index=payload["index"],
            first_seq=payload["first_seq"],
            end_seq=payload["end_seq"],
            lines=tuple(payload["lines"]),
            blob=base64.b64decode(payload["blob_b64"]),
            skip={int(seq): reason
                  for seq, reason in payload["skip"].items()},
            meta=dict(payload.get("meta", {})),
        )


def corrupt_shipment(shipment: Shipment) -> Shipment:
    """``shipment`` with one payload byte flipped -- transit bit-rot.

    The flip lands *inside* the CRC-guarded payload (the middle WAL
    line, or the blob), never in the JSON envelope: a corrupt shipment
    still parses and routes, and only the replica's end-to-end CRC
    re-verification can catch it.  WAL lines are ASCII, and XOR 0x01
    keeps ASCII ASCII, so the flipped line survives JSON transport
    intact.  A shipment with no payload is returned unchanged.
    """
    if shipment.lines:
        lines = list(shipment.lines)
        middle = len(lines) // 2
        raw = lines[middle].encode("utf-8")
        lines[middle] = faults.flip_byte(raw).decode(
            "utf-8", errors="surrogateescape"
        )
        return dc_replace(shipment, lines=tuple(lines))
    if shipment.blob:
        return dc_replace(shipment, blob=faults.flip_byte(shipment.blob))
    return shipment


# ----------------------------------------------------------------------
# Transports (one point-to-point link per replica)
# ----------------------------------------------------------------------
class ReplicationTransport:
    """A single-consumer, in-order shipment channel.

    Consumption is two-phase (``peek`` then ``ack``) so a replica that
    dies mid-apply leaves the in-flight shipment queued: redelivery
    plus sequence-deduplication gives at-least-once semantics with
    exactly-once effects.
    """

    def send(self, shipment: Shipment) -> None:
        raise NotImplementedError

    def peek(self) -> Optional[Shipment]:
        raise NotImplementedError

    def ack(self) -> None:
        raise NotImplementedError

    def pending(self) -> int:
        raise NotImplementedError

    def _reorder_gate(self, shipment: Shipment,
                      enqueue: Callable[[Shipment], None]) -> None:
        """Shared send path: the ``replication.reorder`` fault holds a
        shipment back so the next one is delivered first."""
        try:
            faults.hit("replication.reorder")
        except InjectedFault:
            self._held = shipment
            get_registry().counter("replication.reorders_planted").inc()
            return
        enqueue(shipment)
        held = getattr(self, "_held", None)
        if held is not None:
            self._held = None
            enqueue(held)


class InProcessTransport(ReplicationTransport):
    """A deque link for single-process clusters and tests.

    The queue belongs to the *link*, not the replica object, so killed
    replicas can be restarted against the same inbox with unacked
    shipments intact -- exactly like a mailbox on a surviving broker.
    """

    def __init__(self) -> None:
        self._queue: Deque[Shipment] = deque()
        self._held: Optional[Shipment] = None

    def send(self, shipment: Shipment) -> None:
        self._reorder_gate(shipment, self._queue.append)

    def peek(self) -> Optional[Shipment]:
        return self._queue[0] if self._queue else None

    def ack(self) -> None:
        self._queue.popleft()

    def pending(self) -> int:
        return len(self._queue)


class DirectoryTransport(ReplicationTransport):
    """A spool-directory link (``ship-<n>.json``) for cross-process use.

    Files are written atomically (temp + ``os.replace``); the consumer
    cursor is persisted (``cursor.json``) so a restarted replica resumes
    at its first unacked shipment.
    """

    #: Consecutive failed decodes of the same spool file before it is
    #: sidelined (renamed to ``*.torn``) instead of retried forever.
    TORN_RETRIES = 3

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self._held: Optional[Shipment] = None
        self._cursor_path = os.path.join(directory, "cursor.json")
        self._cursor = self._load_cursor()
        self._send_count = len(self._spool())
        self._torn_name: Optional[str] = None
        self._torn_streak = 0

    def _load_cursor(self) -> int:
        if not os.path.exists(self._cursor_path):
            return 0
        with open(self._cursor_path, encoding="utf-8") as stream:
            return int(json.load(stream)["acked"])

    def _spool(self) -> List[str]:
        names = [name for name in os.listdir(self.directory)
                 if name.startswith("ship-") and name.endswith(".json")]
        names.sort(key=lambda name: int(name[5:-5]))
        return names

    def send(self, shipment: Shipment) -> None:
        self._reorder_gate(shipment, self._write)

    def _write(self, shipment: Shipment) -> None:
        name = f"ship-{self._send_count:012d}.json"
        self._send_count += 1
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as stream:
                stream.write(shipment.to_json())
            os.replace(tmp, os.path.join(self.directory, name))
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    def peek(self) -> Optional[Shipment]:
        for name in self._spool():
            if int(name[5:-5]) < self._cursor:
                continue
            path = os.path.join(self.directory, name)
            try:
                with open(path, encoding="utf-8") as stream:
                    shipment = Shipment.from_json(stream.read())
            except (OSError, ValueError, KeyError, TypeError):
                # A torn or partially-written spool file (a producer
                # without our atomic temp+replace discipline, or a
                # filesystem that tore the write).  Skip-and-retry: the
                # poll loop sees an empty inbox this round and comes
                # back; after TORN_RETRIES consecutive failures the
                # file is sidelined as ``*.torn`` so later shipments
                # can flow (the resulting gap heals via resync).
                if name == self._torn_name:
                    self._torn_streak += 1
                else:
                    self._torn_name, self._torn_streak = name, 1
                get_registry().counter(
                    "replication.torn_spool_skips").inc()
                if self._torn_streak >= self.TORN_RETRIES:
                    os.replace(path, path + ".torn")
                    self._torn_name, self._torn_streak = None, 0
                    get_registry().counter(
                        "replication.torn_spool_dropped").inc()
                    continue
                return None
            self._torn_name, self._torn_streak = None, 0
            return shipment
        return None

    def ack(self) -> None:
        spool = [name for name in self._spool()
                 if int(name[5:-5]) >= self._cursor]
        if not spool:
            raise ReplicationError("ack with no pending shipment")
        acked = os.path.join(self.directory, spool[0])
        self._cursor = int(spool[0][5:-5]) + 1
        fd, tmp = tempfile.mkstemp(dir=self.directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as stream:
                json.dump({"acked": self._cursor}, stream)
            os.replace(tmp, self._cursor_path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        os.remove(acked)

    def pending(self) -> int:
        return len([name for name in self._spool()
                    if int(name[5:-5]) >= self._cursor])


# ----------------------------------------------------------------------
# Epochs
# ----------------------------------------------------------------------
class EpochAuthority:
    """The cluster's monotonic epoch counter (the fencing token source).

    With a ``path`` the epoch survives process restarts
    (``epoch.json``); without one it is in-memory, which is what the
    single-process fuzzer scenarios use.
    """

    def __init__(self, path: Optional[str] = None) -> None:
        self._path = path
        self._epoch = 1
        if path is not None and os.path.exists(path):
            with open(path, encoding="utf-8") as stream:
                self._epoch = int(json.load(stream)["epoch"])
        elif path is not None:
            self._persist()

    @property
    def epoch(self) -> int:
        return self._epoch

    def advance(self) -> int:
        self._epoch += 1
        self._persist()
        get_registry().gauge("replication.epoch").set(self._epoch)
        return self._epoch

    def _persist(self) -> None:
        if self._path is None:
            return
        directory = os.path.dirname(os.path.abspath(self._path))
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as stream:
                json.dump({"epoch": self._epoch}, stream)
            os.replace(tmp, self._path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise


# ----------------------------------------------------------------------
# Retry budget + dead letters
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retransmission budget for one replica link.

    The cluster's :meth:`ReplicationCluster.sync` treats a delivery
    round in which a lagging link made no progress as one consumed
    attempt -- the deterministic stand-in for an ack timeout (real time
    never enters the decision, so fuzz runs replay bit-for-bit).  The
    backoff between attempts is real wall-clock sleep, exponential with
    deterministic jitter: ``jitter_seed`` fully determines the
    schedule, so two runs of the same seed back off identically.
    """

    max_attempts: int = 8
    backoff_base: float = 0.001
    backoff_factor: float = 2.0
    backoff_cap: float = 0.05
    jitter_seed: int = 0

    def backoff(self, attempt: int) -> float:
        """Sleep budget (seconds) before retry ``attempt`` (1-based)."""
        if attempt <= 1:
            return 0.0
        raw = self.backoff_base * self.backoff_factor ** (attempt - 2)
        rng = np.random.default_rng((self.jitter_seed, attempt))
        return min(raw, self.backoff_cap) * (0.5 + 0.5 * rng.random())


class DeadLetterLedger:
    """Durable JSONL record of deliveries that exhausted their budget.

    One entry per abandoned range: the link name, the undelivered
    ``[first_seq, end_seq)`` span, why it was given up on, and how many
    attempts were burned.  The ledger is append-only and survives
    restarts -- ``repro replication-status`` surfaces its size so an
    operator can triage (see docs/operations.md, "Chaos, retry, and
    repair").
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._count = len(self.entries())

    def record(self, link: str, first_seq: int, end_seq: int,
               reason: str, attempts: int) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        os.makedirs(directory, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps({
                "link": link,
                "first_seq": first_seq,
                "end_seq": end_seq,
                "reason": reason,
                "attempts": attempts,
            }, sort_keys=True) + "\n")
            stream.flush()
            os.fsync(stream.fileno())
        self._count += 1
        get_registry().counter("replication.dead_letters").inc()

    def entries(self) -> List[Dict]:
        if not os.path.exists(self.path):
            return []
        with open(self.path, encoding="utf-8") as stream:
            return [json.loads(line) for line in stream if line.strip()]

    def __len__(self) -> int:
        return self._count


# ----------------------------------------------------------------------
# The writer role
# ----------------------------------------------------------------------
@dataclass
class _Link:
    name: str
    transport: ReplicationTransport
    next_to_ship: int = 0
    checkpoint_shipped: int = -1
    sent: int = 0
    lost: int = 0
    #: Snapshot ids whose store segment files were already shipped on
    #: this link (manifest-mode checkpoints only).
    store_shipped: set = field(default_factory=set)


class ReplicationWriter:
    """Ships a durable writer's sealed segments + checkpoints to links.

    Wraps a :class:`ResilientAnalyticsServer` whose server holds a
    :class:`RecoveryManager` -- the writer role *is* the PR-5 resilient
    ingest path; this class adds only the shipping side.
    """

    def __init__(self, resilient: ResilientAnalyticsServer,
                 epoch: int = 1) -> None:
        if resilient.server.recovery is None:
            raise ReplicationError(
                "a replication writer must be durable (recovery manager "
                "attached): replicas replay its WAL"
            )
        self.resilient = resilient
        self.epoch = epoch
        self._links: Dict[str, _Link] = {}
        self.resyncs = 0

    @property
    def manager(self) -> RecoveryManager:
        return self.resilient.server.recovery

    @property
    def next_seq(self) -> int:
        return self.manager.wal.next_seq

    def links(self) -> List[str]:
        return sorted(self._links)

    def attach(self, name: str, transport: ReplicationTransport,
               start_seq: int = 0) -> None:
        """Register one replica link, shipping from ``start_seq``."""
        if name in self._links:
            raise ReplicationError(f"link {name!r} already attached")
        self._links[name] = _Link(name=name, transport=transport,
                                  next_to_ship=start_seq)

    def seal_tail(self) -> bool:
        """Force-seal the open WAL segment so the tail ships too."""
        return self.manager.seal_active_segment()

    def shipped_through(self, name: str) -> int:
        """The seq this link's replica has been shipped up to."""
        link = self._links.get(name)
        return link.next_to_ship if link is not None else 0

    def ship(self) -> int:
        """Ship everything new to every link; returns shipments sent."""
        sent = 0
        for name in sorted(self._links):
            sent += self._ship_link(self._links[name])
        return sent

    def resync(self, name: str, from_seq: int) -> int:
        """Heal one link after the replica reported a gap.

        Rewinds the link to the replica's position and re-offers the
        newest checkpoint (in case the missing range was GC'd from the
        WAL); sequence-deduplication on the replica makes any overlap
        harmless.
        """
        link = self._links[name]
        link.next_to_ship = min(link.next_to_ship, from_seq)
        link.checkpoint_shipped = -1
        # A gap may mean store segments were lost in transit too;
        # re-offer them with the checkpoint (the replica's file writes
        # are idempotent, so redelivered segments are harmless).
        link.store_shipped.clear()
        self.resyncs += 1
        get_registry().counter("replication.resyncs").inc()
        return self._ship_link(link)

    # ------------------------------------------------------------------
    def _ship_link(self, link: _Link) -> int:
        manager = self.manager
        sealed = manager.sealed_segments()  # gap-checked
        generations = manager.checkpoints()
        newest = generations[-1] if generations else None
        # Records at/above the stable boundary are still queued on the
        # writer (breaker open, burst): shed-oldest could yet skip
        # them, so they must not reach a replica until resolved.
        stable = self.resilient.stable_seq()
        sent = 0
        if newest is not None and link.checkpoint_shipped < 0:
            # A link that has never seen a checkpoint (fresh replica,
            # or post-gap resync) bootstraps from one first: segments
            # hold mutations, not the initial graph.  Prefer the
            # newest checkpoint at-or-below the link position; fall
            # back to the newest overall when that history was GC'd.
            behind = [generation for generation in generations
                      if generation[0] <= link.next_to_ship]
            base = behind[-1] if behind else newest
            sent += self._ship_checkpoint(link, base[0], base[1])
            link.next_to_ship = max(link.next_to_ship, base[0])
        earliest = (sealed[0].first_seq if sealed
                    else (newest[0] if newest else 0))
        if (newest is not None and earliest > link.next_to_ship
                and newest[0] > link.checkpoint_shipped):
            # The history below the earliest sealed segment was GC'd:
            # the replica can only heal by adopting a checkpoint.
            sent += self._ship_checkpoint(link, newest[0], newest[1])
            link.next_to_ship = max(link.next_to_ship, newest[0])
        for segment in sealed:
            if segment.end_seq <= link.next_to_ship:
                continue
            if segment.first_seq >= stable:
                break
            end = min(segment.end_seq, stable)
            sent += self._ship_segment(link, segment, end)
            link.next_to_ship = max(link.next_to_ship, end)
        if (newest is not None and newest[0] > link.checkpoint_shipped
                and newest[0] <= link.next_to_ship):
            # Periodic checkpoint the replica adopts in place, so its
            # own restart never replays the whole history.
            sent += self._ship_checkpoint(link, newest[0], newest[1])
        return sent

    def _ship_segment(self, link: _Link, segment: SealedSegment,
                      end_seq: int) -> int:
        lines = tuple(
            line for line in segment.lines()
            if json.loads(line)["seq"] < end_seq
        )
        shipment = Shipment(
            kind="segment", epoch=self.epoch, index=link.sent,
            first_seq=segment.first_seq, end_seq=end_seq,
            lines=lines,
            skip=self.manager.quarantine_reasons(),
        )
        return self._send(link, shipment, "replication.segments_shipped")

    def _ship_checkpoint(self, link: _Link, seq: int, path: str) -> int:
        sent = self._ship_store_segments(link, seq, path)
        with open(path, "rb") as stream:
            blob = stream.read()
        shipment = Shipment(
            kind="checkpoint", epoch=self.epoch, index=link.sent,
            first_seq=seq, end_seq=seq, blob=blob,
            skip=self.manager.quarantine_reasons(),
        )
        link.checkpoint_shipped = seq
        return sent + self._send(link, shipment,
                                 "replication.checkpoints_shipped")

    def _ship_store_segments(self, link: _Link, seq: int,
                             path: str) -> int:
        """Ship the snapshot-store files a manifest-mode checkpoint
        references, ahead of the checkpoint itself.

        The replica copies each file into its own store spool, so its
        bootstrap opens them as local memmaps instead of replaying the
        writer's whole WAL.  Files for an already-shipped snapshot id
        are not re-sent (structure adjustment mints a fresh id per
        batch, so ids never mutate in place).
        """
        try:
            reference = read_store_manifest(path)
        except ValueError:
            return 0  # a corrupt checkpoint is rejected on the replica
        if reference is None:  # inline payload: arrays travel inside
            return 0
        snapshot = reference["snapshot"]
        if snapshot in link.store_shipped:
            return 0
        sent = 0
        root = reference["root"]
        for name in sorted(reference["arrays"]):
            file_name = reference["arrays"][name]["file"]
            with open(os.path.join(root, file_name), "rb") as stream:
                blob = stream.read()
            shipment = Shipment(
                kind="store", epoch=self.epoch, index=link.sent,
                first_seq=seq, end_seq=seq, blob=blob,
                meta={"snapshot": snapshot, "file": file_name},
            )
            sent += self._send(link, shipment,
                               "replication.store_segments_shipped")
        link.store_shipped.add(snapshot)
        return sent

    def _send(self, link: _Link, shipment: Shipment,
              counter: str) -> int:
        link.sent += 1
        with trace.span("replication.ship", link=link.name,
                        kind=shipment.kind, first=shipment.first_seq,
                        end=shipment.end_seq):
            try:
                corrupted = faults.hit_corruptible("replication.ship")
            except InjectedFault:
                # Lost in transit: the writer believes it sent, the
                # replica never sees it -- the planted segment drop.
                link.lost += 1
                get_registry().counter(
                    "replication.shipments_lost").inc()
                return 0
            if corrupted:
                # Planted transit bit-rot: the payload CRC no longer
                # matches, so the replica must NACK at apply time.
                shipment = corrupt_shipment(shipment)
                get_registry().counter(
                    "replication.shipments_corrupted").inc()
            link.transport.send(shipment)
        get_registry().counter(counter).inc()
        return 1

    def __repr__(self) -> str:
        return (
            f"ReplicationWriter(epoch={self.epoch}, "
            f"links={self.links()}, next_seq={self.next_seq})"
        )


# ----------------------------------------------------------------------
# The replica role
# ----------------------------------------------------------------------
class ReadReplica:
    """One read replica: WAL mirror + adopted checkpoints + BSP state.

    Construction doubles as restart: if the directory already holds an
    adopted checkpoint the replica restores engine state from
    checkpoint + mirror tail (the ordinary recovery path) and resumes
    at its durable position; a fresh directory waits for the writer's
    first checkpoint shipment to bootstrap.
    """

    def __init__(
        self,
        name: str,
        directory: str,
        algorithm_factory: Callable,
        inbox: ReplicationTransport,
        *,
        exact_iterations: Optional[int] = None,
        until_convergence: bool = False,
        max_iterations: int = 1000,
        segment_records: int = 256,
    ) -> None:
        self.name = name
        self.directory = directory
        self.algorithm_factory = algorithm_factory
        self.inbox = inbox
        self.alive = True
        self._query_kwargs = dict(
            exact_iterations=exact_iterations,
            until_convergence=until_convergence,
            max_iterations=max_iterations,
        )
        self.manager = RecoveryManager(
            directory, checkpoint_every=_REPLICA_CHECKPOINT_EVERY,
            retain=2, segment_records=segment_records,
        )
        #: Where shipped snapshot-store segment files land; manifest-
        #: mode checkpoints are restored against this root, so the
        #: replica never touches the writer's store directory.
        self.store_root = os.path.join(directory, "store")
        self._fence_path = os.path.join(directory, "fence.json")
        self._ledger_path = os.path.join(directory, "fence_ledger.jsonl")
        self.fence_epoch = self._load_fence()
        self._ledger_seen = {
            (entry["epoch"], entry["index"])
            for entry in self.fence_ledger()
        }
        self.server: Optional[StreamingAnalyticsServer] = None
        if self.manager.checkpoints():
            self._load_from_disk()

    # ------------------------------------------------------------------
    # Positions
    # ------------------------------------------------------------------
    @property
    def next_seq(self) -> int:
        """The replica's durable position: the next record it needs."""
        generations = self.manager.checkpoints()
        base = generations[-1][0] if generations else 0
        return max(self.manager.wal.next_seq, base)

    def lag_behind(self, writer_next_seq: int) -> int:
        return max(0, writer_next_seq - self.next_seq)

    # ------------------------------------------------------------------
    # Fencing
    # ------------------------------------------------------------------
    def _load_fence(self) -> int:
        if not os.path.exists(self._fence_path):
            return 0
        with open(self._fence_path, encoding="utf-8") as stream:
            return int(json.load(stream)["epoch"])

    def fence(self, epoch: int) -> None:
        """Raise the fence: shipments below ``epoch`` are now rejected."""
        if epoch <= self.fence_epoch:
            return
        self.fence_epoch = epoch
        directory = os.path.dirname(os.path.abspath(self._fence_path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as stream:
                json.dump({"epoch": epoch}, stream)
            os.replace(tmp, self._fence_path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    def fence_ledger(self) -> List[Dict]:
        """Every durably rejected stale-epoch shipment."""
        if not os.path.exists(self._ledger_path):
            return []
        entries = []
        with open(self._ledger_path, encoding="utf-8") as stream:
            for line in stream:
                if line.strip():
                    entries.append(json.loads(line))
        return entries

    @property
    def fence_rejections(self) -> int:
        return len(self._ledger_seen)

    def _reject_fenced(self, shipment: Shipment) -> None:
        key = (shipment.epoch, shipment.index)
        if key in self._ledger_seen:
            return  # redelivered duplicate, already on the ledger
        self._ledger_seen.add(key)
        with open(self._ledger_path, "a", encoding="utf-8") as stream:
            stream.write(json.dumps({
                "epoch": shipment.epoch,
                "index": shipment.index,
                "kind": shipment.kind,
                "first_seq": shipment.first_seq,
                "end_seq": shipment.end_seq,
                "fence_epoch": self.fence_epoch,
            }, sort_keys=True) + "\n")
        get_registry().counter("replication.fence_rejections").inc()

    # ------------------------------------------------------------------
    # Applying shipments
    # ------------------------------------------------------------------
    def poll(self) -> int:
        """Drain the inbox; returns shipments consumed.

        Raises :class:`ReplicationGapError` when a shipment starts past
        this replica's position (the offending shipment stays peeked so
        the cluster can discard it and request a resync), and lets
        injected crashes/faults propagate -- the cluster layer decides
        whether that means a dead replica or a deferred delivery.
        """
        consumed = 0
        while True:
            shipment = self.inbox.peek()
            if shipment is None:
                return consumed
            self._apply_shipment(shipment)
            self.inbox.ack()
            consumed += 1

    def discard_pending(self) -> None:
        """Drop the unusable head shipment (out-of-order delivery)."""
        if self.inbox.peek() is not None:
            self.inbox.ack()

    def _require_alive(self) -> None:
        if not self.alive:
            raise ReplicaUnavailableError(
                f"replica {self.name!r} is down"
            )

    def _apply_shipment(self, shipment: Shipment) -> None:
        self._require_alive()
        faults.hit("replication.receive")
        if shipment.epoch < self.fence_epoch:
            self._reject_fenced(shipment)
            return
        if shipment.epoch > self.fence_epoch:
            self.fence(shipment.epoch)
        with trace.span("replication.apply", replica=self.name,
                        kind=shipment.kind, first=shipment.first_seq,
                        end=shipment.end_seq):
            if shipment.skip:
                self.manager.import_skip_marks(dict(shipment.skip))
            if shipment.kind == "store":
                self._receive_store_segment(shipment)
            elif shipment.kind == "checkpoint":
                self._adopt_checkpoint(shipment)
            else:
                self._apply_segment(shipment)

    def _receive_store_segment(self, shipment: Shipment) -> None:
        """Copy one shipped snapshot-store file into the local spool.

        Atomic (temp + ``os.replace``) and idempotent: redelivery
        rewrites identical bytes.  The blob's frame (header and payload
        CRC) is verified *before* the bytes land: a segment corrupted
        in transit is NACKed here instead of poisoning the local spool.
        """
        file_name = shipment.meta["file"]
        try:
            read_segment(shipment.blob, context=file_name)
        except StoreError as exc:
            raise ShipmentIntegrityError(
                f"replica {self.name!r} rejected store segment "
                f"{file_name!r}: {exc}"
            ) from exc
        os.makedirs(self.store_root, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=self.store_root, suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as stream:
                stream.write(shipment.blob)
            os.replace(tmp, os.path.join(self.store_root, file_name))
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise
        get_registry().counter(
            "replication.store_segments_received").inc()

    def _adopt_checkpoint(self, shipment: Shipment) -> None:
        seq = shipment.first_seq
        # Verify BEFORE the blob lands: a checkpoint corrupted in
        # transit must never reach disk, where it would silently
        # poison the local generation ladder -- a later reload would
        # fall back past it and regress the engine while the WAL
        # position stayed forward.
        try:
            verify_checkpoint_blob(
                shipment.blob, context=f"checkpoint seq {seq}"
            )
        except ValueError as exc:
            raise ShipmentIntegrityError(
                f"replica {self.name!r} rejected checkpoint at seq "
                f"{seq}: {exc}"
            ) from exc
        reload_needed = self.server is None or seq > self.next_seq
        self.manager.adopt_checkpoint(seq, shipment.blob)
        if reload_needed:
            # Bootstrapping, or healing past GC'd history: the mirror
            # below the checkpoint is superseded, so reset it to the
            # checkpoint's position and reload the engine.
            wal = self.manager.wal
            wal.seal_active()
            wal.gc(seq)
            if not wal.segments() and wal.next_seq < seq:
                wal.fast_forward(seq)
            try:
                self._load_from_disk()
            except RecoveryError as exc:
                # A manifest-mode checkpoint whose store segments were
                # lost in transit is unloadable; surface it as a gap so
                # the cluster requests a resync (which re-ships the
                # segment files along with the checkpoint).
                raise ReplicationGapError(
                    f"replica {self.name!r} adopted checkpoint at seq "
                    f"{seq} but cannot restore from it: {exc}"
                ) from exc

    def _apply_segment(self, shipment: Shipment) -> None:
        if self.server is None:
            # No checkpoint adopted yet: segments cannot bootstrap a
            # replica (the WAL holds mutations, not the initial graph).
            raise ReplicationGapError(
                f"replica {self.name!r} received segment "
                f"[{shipment.first_seq}, {shipment.end_seq}) before "
                f"any checkpoint"
            )
        position = self.next_seq
        records = []
        for line in shipment.lines:
            try:
                seq, payload = _decode_record(line)  # CRC re-verified
            except ValueError as exc:
                # Transit bit-rot: the record no longer matches its
                # CRC (or no longer parses at all).  NACK the whole
                # shipment -- nothing from it has been applied yet.
                raise ShipmentIntegrityError(
                    f"replica {self.name!r} rejected segment "
                    f"[{shipment.first_seq}, {shipment.end_seq}): {exc}"
                ) from exc
            if seq >= position:
                records.append((seq, payload))
        if not records:
            return  # fully deduplicated redelivery
        if records[0][0] > position:
            raise ReplicationGapError(
                f"replica {self.name!r} is at seq {position} but the "
                f"shipment's first fresh record is {records[0][0]}: "
                f"records [{position}, {records[0][0]}) were lost or "
                f"reordered in transit"
            )
        for seq, payload in records:
            batch = payload_to_batch(payload)
            mirrored = self.manager.log_batch(batch)
            if mirrored != seq:
                raise ReplicationError(
                    f"mirror desync on {self.name!r}: appended at "
                    f"{mirrored}, record says {seq}"
                )
            if seq in self.manager.quarantined:
                continue  # the writer durably skipped it; so do we
            self.server.ingest(batch, logged_seq=seq)

    def _load_from_disk(self) -> None:
        engine, seq = self.manager.restore_engine(
            self.algorithm_factory, store_root=self.store_root,
        )
        self.server = StreamingAnalyticsServer.from_engine(
            engine, self.algorithm_factory,
            batches_ingested=seq, recovery=self.manager,
            **self._query_kwargs,
        )

    # ------------------------------------------------------------------
    # Queries (snapshot-isolated: the branch loop copies state)
    # ------------------------------------------------------------------
    def query(
        self,
        until_convergence: Optional[bool] = None,
        deadline_s: Optional[float] = None,
        deadline: Optional[Deadline] = None,
    ) -> QueryResult:
        self._require_alive()
        if self.server is None:
            raise ReplicaUnavailableError(
                f"replica {self.name!r} has not bootstrapped yet"
            )
        faults.hit("replica.query")
        return self.server.query(
            until_convergence=until_convergence,
            deadline_s=deadline_s, deadline=deadline,
        )

    @property
    def approximate_values(self) -> Optional[np.ndarray]:
        return None if self.server is None else (
            self.server.approximate_values
        )

    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Simulate process death (state stays on disk, inbox queues)."""
        self.alive = False
        self.manager.close()

    def close(self) -> None:
        self.alive = False
        self.manager.close()

    def __repr__(self) -> str:
        return (
            f"ReadReplica(name={self.name!r}, alive={self.alive}, "
            f"next_seq={self.next_seq}, fence={self.fence_epoch})"
        )


# ----------------------------------------------------------------------
# The cluster (writer + replicas + authority + links)
# ----------------------------------------------------------------------
class ReplicationCluster:
    """One writer, N read replicas, and the glue between them.

    ``transport="inproc"`` wires deque links (single process);
    ``"directory"`` spools shipments under each replica's directory so
    tests can exercise the at-least-once redelivery path across
    simulated process boundaries.
    """

    def __init__(
        self,
        resilient: ResilientAnalyticsServer,
        algorithm_factory: Callable,
        root: str,
        replicas: int = 2,
        transport: str = "inproc",
        authority: Optional[EpochAuthority] = None,
        replica_names: Optional[List[str]] = None,
        exact_iterations: Optional[int] = None,
        until_convergence: bool = False,
        max_iterations: int = 1000,
        retry_policy: Optional[RetryPolicy] = None,
    ) -> None:
        if transport not in ("inproc", "directory"):
            raise ReplicationError(
                f"transport must be 'inproc' or 'directory', "
                f"got {transport!r}"
            )
        self.root = root
        self.algorithm_factory = algorithm_factory
        self.transport_kind = transport
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.dead_letters = DeadLetterLedger(
            os.path.join(root, "dead_letter.jsonl")
        )
        #: Replica name -> finding detail while a scrub has its local
        #: state quarantined; the query router skips these replicas.
        self.integrity_quarantine: Dict[str, str] = {}
        self.integrity_rejections = 0
        self._replica_kwargs = dict(
            exact_iterations=exact_iterations,
            until_convergence=until_convergence,
            max_iterations=max_iterations,
        )
        # Validate the writer BEFORE touching disk: a non-durable
        # server must not leave an epoch.json behind.
        self.writer_node = ReplicationWriter(resilient)
        self.authority = authority if authority is not None else (
            EpochAuthority(os.path.join(root, "epoch.json"))
        )
        self.writer_node.epoch = self.authority.epoch
        self.replicas: Dict[str, ReadReplica] = {}
        self.deposed: List[ReplicationWriter] = []
        self.gap_resyncs = 0
        self.deferred_deliveries = 0
        self._delivering: Optional[str] = None
        names = replica_names if replica_names is not None else [
            f"r{index}" for index in range(replicas)
        ]
        for name in names:
            self._add_replica(name)

    # ------------------------------------------------------------------
    def _replica_dir(self, name: str) -> str:
        return os.path.join(self.root, "replicas", name)

    def _make_inbox(self, name: str) -> ReplicationTransport:
        if self.transport_kind == "directory":
            return DirectoryTransport(
                os.path.join(self._replica_dir(name), "inbox")
            )
        return InProcessTransport()

    def _add_replica(self, name: str) -> ReadReplica:
        inbox = self._make_inbox(name)
        replica = ReadReplica(
            name, self._replica_dir(name), self.algorithm_factory,
            inbox, **self._replica_kwargs,
        )
        replica.fence(self.authority.epoch)
        self.replicas[name] = replica
        self.writer_node.attach(name, inbox,
                                start_seq=replica.next_seq)
        return replica

    # ------------------------------------------------------------------
    @property
    def writer(self) -> ResilientAnalyticsServer:
        return self.writer_node.resilient

    def submit(self, batch: MutationBatch, pump: bool = True) -> int:
        """Submit one batch to the writer; returns the read-your-writes
        token (the writer's durable record count after logging)."""
        self.writer.submit(batch, pump=pump)
        return self.writer_node.next_seq

    def replicate(self, final: bool = False) -> None:
        """Ship everything new and deliver it to live replicas.

        ``final=True`` force-seals the WAL tail first so replicas
        converge to the writer's exact position (promotion, shutdown,
        end-of-soak).
        """
        if final:
            self.writer_node.seal_tail()
        self.writer_node.ship()
        self.deliver()
        self.publish_gauges()

    def sync(self) -> bool:
        """Final sync: seal, ship, deliver, then retransmit under the
        cluster's :class:`RetryPolicy` until no live replica lags.

        A delivery round in which a lagging link made no progress
        consumes one retry attempt for that link (the deterministic
        ack-timeout stand-in: a shipment lost in transit advanced the
        writer's watermark but never landed, and if it was the *last*
        shipment no later delivery ever reveals the gap).  Attempts
        reset whenever the link advances, so a slow-but-moving replica
        is never abandoned.  A link that burns its whole budget has
        its undelivered range recorded on the durable dead-letter
        ledger and is left behind -- the writer never hangs on an
        undeliverable replica.  Returns ``True`` when every live
        replica converged.
        """
        self.replicate(final=True)
        policy = self.retry_policy
        attempts: Dict[str, int] = {}
        abandoned: set = set()
        while True:
            writer_next = self.writer_node.next_seq
            lagging = [
                (name, replica)
                for name, replica in sorted(self.replicas.items())
                if replica.alive and name not in abandoned
                and replica.lag_behind(writer_next) > 0
            ]
            if not lagging:
                return not abandoned
            before = {name: replica.next_seq
                      for name, replica in lagging}
            for name, replica in lagging:
                attempt = attempts.get(name, 0) + 1
                if attempt > policy.max_attempts:
                    self.dead_letters.record(
                        link=name, first_seq=replica.next_seq,
                        end_seq=writer_next,
                        reason="retry budget exhausted",
                        attempts=attempt - 1,
                    )
                    abandoned.add(name)
                    continue
                attempts[name] = attempt
                delay = policy.backoff(attempt)
                if delay:
                    time.sleep(delay)
                self.writer_node.resync(name, replica.next_seq)
            self.deliver()
            self.publish_gauges()
            for name, replica in lagging:
                if name not in abandoned and replica.next_seq > before[name]:
                    attempts[name] = 0

    def deliver(self) -> None:
        for name in sorted(self.replicas):
            replica = self.replicas[name]
            if not replica.alive:
                continue
            # Deliberately NOT cleared on an exception: when an
            # injected crash kills a replica mid-apply, the driver
            # reads ``delivering`` to learn which one died.
            self._delivering = name
            self._deliver(replica)
            self._delivering = None

    @property
    def delivering(self) -> Optional[str]:
        """The replica last (or currently) being delivered to.

        Stays set when delivery died mid-apply -- the crash-fuzzer
        driver's way of identifying the casualty."""
        return self._delivering

    def _deliver(self, replica: ReadReplica) -> None:
        attempts = 0
        while True:
            try:
                replica.poll()
                return
            except InjectedFault:
                # Deferred delivery: the shipment stays queued and the
                # replica simply lags this round -- planted lag.
                self.deferred_deliveries += 1
                get_registry().counter(
                    "replication.deliveries_deferred").inc()
                return
            except ShipmentIntegrityError as exc:
                # NACK: the shipment failed its CRC re-check.  Drop it
                # and re-request the range from the writer; a link that
                # keeps delivering garbage past the retry budget is
                # dead-lettered instead of spinning forever.
                attempts += 1
                self.integrity_rejections += 1
                get_registry().counter(
                    "replication.shipments_rejected").inc()
                if attempts > self.retry_policy.max_attempts:
                    self.dead_letters.record(
                        link=replica.name, first_seq=replica.next_seq,
                        end_seq=self.writer_node.next_seq,
                        reason=f"integrity budget exhausted: {exc}",
                        attempts=attempts - 1,
                    )
                    raise
                replica.discard_pending()
                self.writer_node.resync(replica.name, replica.next_seq)
            except (ReplicationGapError, SegmentGapError):
                attempts += 1
                if attempts > self.retry_policy.max_attempts:
                    raise
                replica.discard_pending()
                self.gap_resyncs += 1
                self.writer_node.resync(replica.name, replica.next_seq)

    # ------------------------------------------------------------------
    # Failure / failover choreography
    # ------------------------------------------------------------------
    def kill_replica(self, name: str) -> None:
        self.replicas[name].kill()

    def restart_replica(self, name: str) -> ReadReplica:
        """Restart a dead replica from its directory + surviving inbox."""
        old = self.replicas[name]
        if old.alive:
            old.close()
        replica = ReadReplica(
            name, old.directory, self.algorithm_factory, old.inbox,
            **self._replica_kwargs,
        )
        replica.fence(max(self.authority.epoch, old.fence_epoch))
        self.replicas[name] = replica
        return replica

    def restart_writer(self, **resilient_kwargs) -> ResilientAnalyticsServer:
        """Rebuild the writer from its state directory after a crash.

        The recovered writer re-handshakes every link at the replica's
        durable position -- watermarks died with the process, the
        replicas' positions did not.
        """
        manager = self.writer_node.manager
        directory = manager.directory
        settings = dict(
            checkpoint_every=manager.checkpoint_every,
            retain=manager.retain,
            segment_records=manager.wal.segment_records,
        )
        try:
            manager.close()
        except OSError:
            pass
        fresh = RecoveryManager(directory, **settings)
        for key, value in self._replica_kwargs.items():
            resilient_kwargs.setdefault(key, value)
        resilient = ResilientAnalyticsServer.recover(
            fresh, self.algorithm_factory, **resilient_kwargs
        )
        self.writer_node = ReplicationWriter(
            resilient, epoch=self.authority.epoch
        )
        for name, replica in self.replicas.items():
            self.writer_node.attach(name, replica.inbox,
                                    start_seq=replica.next_seq)
        return resilient

    def promote(self, name: str, **resilient_kwargs
                ) -> ResilientAnalyticsServer:
        """Fail over: make replica ``name`` the writer.

        Advances the epoch, fences every surviving replica, recovers a
        full writer from the replica's directory (checkpoint + mirror
        tail -- the directories are structurally identical by design),
        and re-attaches the remaining replicas.  The deposed writer
        object is kept on :attr:`deposed`; any late shipments it sends
        carry the old epoch and land on the replicas' fence ledgers.
        """
        replica = self.replicas.pop(name)
        if not replica.alive:
            self.replicas[name] = replica
            raise ReplicationError(
                f"cannot promote dead replica {name!r}"
            )
        epoch = self.authority.advance()
        for survivor in self.replicas.values():
            if survivor.alive:
                survivor.fence(epoch)
        replica.close()
        manager = RecoveryManager(
            replica.directory,
            checkpoint_every=self.writer_node.manager.checkpoint_every,
            retain=self.writer_node.manager.retain,
            segment_records=(
                self.writer_node.manager.wal.segment_records
            ),
        )
        for key, value in self._replica_kwargs.items():
            resilient_kwargs.setdefault(key, value)
        # Manifest-mode checkpoints record the old writer's store root;
        # the promoted node owns copies in its own spool, shipped ahead
        # of the checkpoints it adopted.
        resilient_kwargs.setdefault("store_root", replica.store_root)
        resilient = ResilientAnalyticsServer.recover(
            manager, self.algorithm_factory, **resilient_kwargs
        )
        self.deposed.append(self.writer_node)
        self.writer_node = ReplicationWriter(resilient, epoch=epoch)
        for other_name, other in self.replicas.items():
            self.writer_node.attach(other_name, other.inbox,
                                    start_seq=other.next_seq)
        get_registry().counter("replication.promotions").inc()
        return resilient

    # ------------------------------------------------------------------
    # Integrity scrubbing (cluster mode)
    # ------------------------------------------------------------------
    def scrub(self, repair: bool = False) -> Dict:
        """Scrub the writer's and every live replica's durable state.

        ``repair=False`` detects and *quarantines*: a replica with any
        finding is pulled from query routing
        (:attr:`integrity_quarantine`) until a repair pass clears it.
        ``repair=True`` heals: standalone repairs first (bit-for-bit
        direction rebuild, covered-WAL garbage collection, checkpoint
        sidelining -- :class:`~repro.recovery.scrub.IntegrityScrubber`),
        then re-ships sidelined store generations from the writer, and
        -- for damage only a fresh bootstrap can fix -- rebuilds the
        replica from the writer wholesale.  Returns
        ``{"writer": ScrubReport, "<replica>": ScrubReport, ...}``.
        """
        from repro.recovery.scrub import IntegrityScrubber

        reports: Dict = {}
        writer_scrubber = IntegrityScrubber(
            self.writer_node.manager.directory
        )
        reports["writer"] = (writer_scrubber.repair() if repair
                             else writer_scrubber.scan())
        for name in sorted(self.replicas):
            replica = self.replicas[name]
            if not replica.alive:
                continue
            if repair:
                report = self._repair_replica(name)
            else:
                report = IntegrityScrubber(
                    replica.directory, store_root=replica.store_root
                ).scan()
            if report.ok or report.repaired:
                self.integrity_quarantine.pop(name, None)
            elif name not in self.integrity_quarantine:
                unhealed = [finding for finding in report.findings
                            if not finding.repaired]
                self.integrity_quarantine[name] = unhealed[0].detail
                get_registry().counter(
                    "scrub.replicas_quarantined").inc()
            reports[name] = report
        self.publish_gauges()
        return reports

    def _repair_replica(self, name: str):
        """Heal one replica, escalating through three repair tiers.

        1. Standalone scrubber repair (direction rebuild works on a
           replica's store spool exactly as on a writer's).
        2. Re-ship from the writer: sidelined store generations are
           restored by a resync -- the writer re-offers the newest
           checkpoint plus its store files, and the replica's
           idempotent file copies overwrite in place (the same-seq
           checkpoint re-adopts without an engine reload).
        3. Full rebuild: a corrupt record in the replica's WAL mirror
           *above* its newest checkpoint cannot be repaired by
           truncation -- that would rewind ``next_seq`` and re-apply
           history into the live engine -- so the replica is wiped and
           re-bootstrapped from the writer.
        """
        from repro.recovery.scrub import IntegrityScrubber

        replica = self.replicas[name]
        scrubber = IntegrityScrubber(replica.directory,
                                     store_root=replica.store_root)
        report = scrubber.repair()
        if report.repaired:
            return report
        unrepaired = [finding for finding in report.findings
                      if not finding.repaired]
        if all(finding.kind == "store" for finding in unrepaired):
            self.writer_node.resync(name, replica.next_seq)
            self.deliver()
            verify = IntegrityScrubber(
                replica.directory, store_root=replica.store_root
            ).scan(write_report=False)
            if verify.ok:
                for finding in unrepaired:
                    finding.repaired = True
                    finding.repair = (
                        (finding.repair + "; " if finding.repair else "")
                        + "re-shipped from writer"
                    )
                scrubber.write_report(report)
                return report
        self._rebuild_replica(name)
        rebuilt = self.replicas[name]
        verify = IntegrityScrubber(
            rebuilt.directory, store_root=rebuilt.store_root
        ).scan(write_report=False)
        if verify.ok:
            for finding in report.findings:
                if not finding.repaired:
                    finding.repaired = True
                    finding.repair = "replica rebuilt from writer"
        scrubber.write_report(report)
        return report

    def _rebuild_replica(self, name: str) -> ReadReplica:
        """Wipe a replica's directory and re-bootstrap it from the
        writer -- the repair of last resort.

        The inbox transport object is retained (spool cursors and any
        chaos wrapper survive); shipments still queued for the old
        incarnation are drained first, bounded by ``pending()`` because
        a chaos delay plan may keep returning ``None`` for a shipment
        that is still queued.
        """
        old = self.replicas[name]
        inbox = old.inbox
        if old.alive:
            old.close()
        for _ in range(inbox.pending()):
            if inbox.peek() is None:
                break
            inbox.ack()
        shutil.rmtree(old.directory, ignore_errors=True)
        replica = ReadReplica(
            name, old.directory, self.algorithm_factory, inbox,
            **self._replica_kwargs,
        )
        replica.fence(self.authority.epoch)
        self.replicas[name] = replica
        self.writer_node.resync(name, 0)
        self.deliver()
        get_registry().counter("replication.replicas_rebuilt").inc()
        return replica

    # ------------------------------------------------------------------
    # Observation surface
    # ------------------------------------------------------------------
    def max_lag(self) -> int:
        """Worst replica staleness in batches (dead replicas count --
        a down replica *is* stale, which is what pages the SLO)."""
        writer_next = self.writer_node.next_seq
        if not self.replicas:
            return 0
        return max(replica.lag_behind(writer_next)
                   for replica in self.replicas.values())

    def staleness(self) -> int:
        """Worst shipped-but-unapplied backlog, in WAL records.

        A healthy replica drains every shipment at the next delivery
        round, so this sits at zero in steady state regardless of the
        seal/checkpoint cadence -- unlike :meth:`max_lag`, whose
        sawtooth tracks the shipping pipeline itself.  It grows only
        when a replica stops applying what it was sent (dead, wedged,
        or planted-lag) or a shipment was lost in transit, which is
        exactly what the ``replica_staleness`` SLO should page on.
        """
        worst = 0
        for name, replica in self.replicas.items():
            shipped = self.writer_node.shipped_through(name)
            worst = max(worst, shipped - replica.next_seq)
        return worst

    def status(self) -> Dict:
        writer_next = self.writer_node.next_seq
        return {
            "epoch": self.authority.epoch,
            "writer": {
                "directory": self.writer_node.manager.directory,
                "next_seq": writer_next,
                "links": self.writer_node.links(),
            },
            "dead_letters": len(self.dead_letters),
            "integrity_rejections": self.integrity_rejections,
            "integrity_quarantine": dict(self.integrity_quarantine),
            "replicas": {
                name: {
                    "alive": replica.alive,
                    "next_seq": replica.next_seq,
                    "lag_batches": replica.lag_behind(writer_next),
                    "fence_epoch": replica.fence_epoch,
                    "fence_rejections": replica.fence_rejections,
                    "inbox_pending": replica.inbox.pending(),
                    "quarantined": name in self.integrity_quarantine,
                }
                for name, replica in sorted(self.replicas.items())
            },
        }

    def publish_gauges(self) -> None:
        registry = get_registry()
        writer_next = self.writer_node.next_seq
        for name, replica in self.replicas.items():
            registry.gauge(f"replication.{name}.applied_seq").set(
                replica.next_seq
            )
            registry.gauge(f"replication.{name}.lag_batches").set(
                replica.lag_behind(writer_next)
            )
        registry.gauge("replication.max_lag_batches").set(
            self.max_lag()
        )
        registry.gauge("replication.epoch").set(self.authority.epoch)
        registry.gauge("replication.dead_letter").set(
            len(self.dead_letters)
        )
        registry.gauge("replication.integrity_rejections").set(
            self.integrity_rejections
        )
        registry.gauge("replication.quarantined_replicas").set(
            len(self.integrity_quarantine)
        )

    def observe_replicas(self, emitter) -> None:
        """One wide event per replica (kind ``replica``) per call."""
        writer_next = self.writer_node.next_seq
        for name, replica in sorted(self.replicas.items()):
            emitter.emit(
                "replica",
                name=name,
                alive=replica.alive,
                applied_seq=replica.next_seq,
                lag_batches=replica.lag_behind(writer_next),
                fence_epoch=replica.fence_epoch,
                fence_rejections=replica.fence_rejections,
                inbox_pending=replica.inbox.pending(),
                epoch=self.authority.epoch,
                dead_letters=len(self.dead_letters),
                shipments_rejected=self.integrity_rejections,
                quarantined=name in self.integrity_quarantine,
            )

    def close(self) -> None:
        for replica in self.replicas.values():
            if replica.alive:
                replica.close()
        self.writer_node.manager.close()

    def __repr__(self) -> str:
        return (
            f"ReplicationCluster(epoch={self.authority.epoch}, "
            f"replicas={sorted(self.replicas)}, "
            f"writer_next={self.writer_node.next_seq})"
        )


# ----------------------------------------------------------------------
# Offline inspection (`repro replication-status`)
# ----------------------------------------------------------------------
def replication_status(root: str) -> Dict:
    """Inspect a replicated state directory tree without serving it.

    Reads the writer's WAL position, the cluster epoch, and each
    replica's durable position, fence epoch, and fence-ledger size from
    disk alone -- usable while nothing is running.
    """
    from repro.recovery.wal import WriteAheadLog

    if not os.path.isdir(root):
        raise ReplicationError(f"{root} is not a directory")

    def position(directory: str) -> Dict:
        wal_dir = os.path.join(directory, "wal")
        next_seq = 0
        if os.path.isdir(wal_dir):
            log = WriteAheadLog(wal_dir)
            next_seq = log.next_seq
            log.close()
        generations = RecoveryManager.list_checkpoints(
            os.path.join(directory, "checkpoints"))
        newest = generations[-1][0] if generations else -1
        return {
            "next_seq": max(next_seq, max(newest, 0)),
            "newest_checkpoint": newest,
        }

    def jsonl_count(path: str) -> int:
        if not os.path.exists(path):
            return 0
        with open(path, encoding="utf-8") as stream:
            return sum(1 for line in stream if line.strip())

    def scrub_summary(directory: str) -> Optional[Dict]:
        path = os.path.join(directory, "scrub-report.json")
        if not os.path.exists(path):
            return None
        try:
            with open(path, encoding="utf-8") as stream:
                data = json.load(stream)
        except (OSError, json.JSONDecodeError) as exc:
            return {"ok": False, "error": f"unreadable scrub report: {exc}"}
        return {
            "ok": bool(data.get("ok")),
            "repaired": bool(data.get("repaired")),
            "findings": len(data.get("findings", [])),
        }

    epoch_path = os.path.join(root, "epoch.json")
    epoch = None
    if os.path.exists(epoch_path):
        with open(epoch_path, encoding="utf-8") as stream:
            epoch = int(json.load(stream)["epoch"])
    writer = position(root)
    writer["scrub"] = scrub_summary(root)
    replicas = {}
    replicas_root = os.path.join(root, "replicas")
    if os.path.isdir(replicas_root):
        for name in sorted(os.listdir(replicas_root)):
            directory = os.path.join(replicas_root, name)
            if not os.path.isdir(directory):
                continue
            info = position(directory)
            fence_path = os.path.join(directory, "fence.json")
            if os.path.exists(fence_path):
                with open(fence_path, encoding="utf-8") as stream:
                    info["fence_epoch"] = int(json.load(stream)["epoch"])
            else:
                info["fence_epoch"] = 0
            info["fence_rejections"] = jsonl_count(
                os.path.join(directory, "fence_ledger.jsonl")
            )
            info["lag_batches"] = max(
                0, writer["next_seq"] - info["next_seq"]
            )
            info["scrub"] = scrub_summary(directory)
            replicas[name] = info
    return {"root": root, "epoch": epoch, "writer": writer,
            "replicas": replicas,
            "dead_letters": jsonl_count(
                os.path.join(root, "dead_letter.jsonl")
            )}
