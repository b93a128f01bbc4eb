"""The crash-recovery fuzzer (``repro fuzz --crash``).

Property under test: **recovery is lossless**.  For a seeded workload,
killing the serving process at *any* failpoint and recovering from disk
(checkpoint + WAL tail, :mod:`repro.recovery`) must leave the main
loop's values **bit-for-bit equal** to an uninterrupted run of the same
schedule -- the PR-1 oracle comparison with tolerance ``0.0``.

Each round:

1. generates a workload with the PR-1 fuzzer
   (:func:`repro.testing.workloads.generate_workload`);
2. runs it through a plain (non-durable) server -- the ground truth;
3. runs it again through a durable server in a fresh state directory,
   with an :class:`~repro.testing.faults.InjectedCrash` armed at a
   seeded ``(site, hit)`` drawn from
   :data:`repro.testing.faults.KNOWN_SITES`; when the "process dies"
   the driver discards the in-memory server (and manager -- a fresh one
   is built from disk, exactly like a restarted process) and recovers;
4. compares final values bit-for-bit and the ingested count exactly.

``deterministic_site_sweep`` runs one fixed workload across *every*
registered site -- the acceptance gate used by
``tests/recovery/test_crash_equivalence.py``.

A mismatch writes the state directory plus a replay script into
``artifacts_dir`` so CI can upload the WAL and the repro.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence

import numpy as np

from repro.obs.registry import get_registry, scoped_registry
from repro.recovery.manager import RecoveryManager
from repro.serving.server import StreamingAnalyticsServer
from repro.testing import faults
from repro.testing.faults import InjectedCrash, scoped_failpoints
from repro.testing.oracle import compare_snapshots
from repro.testing.workloads import Workload, generate_workload

__all__ = [
    "ChaosRound",
    "CrashFuzzOutcome",
    "CrashRound",
    "REPLICATION_SCENARIOS",
    "StorageRound",
    "chaos_convergence_equivalence",
    "chaos_convergence_sweep",
    "chaos_dead_letter_round",
    "chaos_fault_coverage",
    "crash_recovery_equivalence",
    "deterministic_site_sweep",
    "replicated_crash_equivalence",
    "replicated_scenario_sweep",
    "resilient_crash_equivalence",
    "resilient_site_sweep",
    "run_crash_fuzz",
    "run_plant_fault",
    "storage_crash_round",
    "storage_site_sweep",
]

#: Main-loop window for fuzz servers; small keeps refinement histories
#: (and therefore rounds) cheap while still exercising multi-iteration
#: dependency state.
APPROX_ITERATIONS = 3

#: Sites whose hit budget scales with the schedule length (they fire
#: once per ingested batch) versus rare sites.
_PER_BATCH_SITES = ("wal.append", "wal.append.torn", "engine.refine")


@dataclass
class CrashRound:
    """One seeded kill-and-recover scenario."""

    seed: int
    workload: str
    site: str
    hit: int
    crashes: int = 0
    fired: bool = False
    equivalent: bool = False
    detail: str = ""
    batches: int = 0
    quarantined: int = 0
    torn_truncated: int = 0

    @property
    def ok(self) -> bool:
        return self.equivalent

    def summary(self) -> str:
        status = "OK" if self.ok else f"MISMATCH ({self.detail})"
        if self.crashes:
            fired = f"crashed x{self.crashes}"
        elif self.fired:
            fired = "fault fired"
        else:
            fired = "failpoint never reached"
        return (
            f"seed={self.seed} kill@{self.site}#{self.hit} "
            f"[{fired}, torn={self.torn_truncated}] {status}"
        )


@dataclass
class CrashFuzzOutcome:
    """Summary of one crash-fuzzing campaign."""

    rounds: List[CrashRound] = field(default_factory=list)
    elapsed_seconds: float = 0.0
    artifacts: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(round_.ok for round_ in self.rounds)

    @property
    def crashes_injected(self) -> int:
        return sum(round_.crashes for round_ in self.rounds)


def _uninterrupted_values(workload: Workload) -> np.ndarray:
    """Ground truth: the same schedule with no durability layer at all."""
    profile = workload.profile
    server = StreamingAnalyticsServer(
        profile.factory, workload.build_graph(),
        approx_iterations=APPROX_ITERATIONS,
    )
    for batch in workload.schedule:
        server.ingest(batch)
    return np.asarray(server.approximate_values, dtype=np.float64).copy()


def crash_recovery_equivalence(
    workload: Workload,
    site: str,
    hit: int,
    state_dir: str,
    checkpoint_every: int = 2,
    segment_records: int = 4,
) -> CrashRound:
    """Kill at ``(site, hit)``, recover, and compare bit-for-bit.

    The driver plays the operating system: an
    :class:`InjectedCrash` discards the live server object, and the
    next loop iteration rebuilds a manager *from disk only* -- the
    moral equivalent of restarting the process.  ``recover.replay``
    only executes during recovery, so arming it also arms a first
    ``engine.refine`` crash to get a recovery going.
    """
    profile = workload.profile
    expected = _uninterrupted_values(workload)
    round_ = CrashRound(
        seed=workload.seed, workload=workload.describe(),
        site=site, hit=hit, batches=len(workload.schedule),
    )

    def attach() -> StreamingAnalyticsServer:
        manager = RecoveryManager(
            state_dir, checkpoint_every=checkpoint_every,
            retain=2, segment_records=segment_records,
        )
        if manager.checkpoints():
            return manager.recover(profile.factory)
        return StreamingAnalyticsServer(
            profile.factory, workload.build_graph(),
            approx_iterations=APPROX_ITERATIONS, recovery=manager,
        )

    with scoped_failpoints() as registry:
        registry.arm(site, kind="crash", hit=hit)
        if site == "recover.replay":
            registry.arm("engine.refine", kind="crash", hit=1)
        server: Optional[StreamingAnalyticsServer] = None
        index = 0
        while server is None or index < len(workload.schedule):
            if server is None:
                try:
                    server = attach()
                except InjectedCrash:
                    round_.crashes += 1
                    continue
                index = server.batches_ingested
                continue
            try:
                server.ingest(workload.schedule[index])
                index = server.batches_ingested
            except InjectedCrash:
                round_.crashes += 1
                server.recovery.close()
                server = None
        round_.fired = bool(registry.fired)
        round_.quarantined = len(server.recovery.quarantined)
        round_.torn_truncated = server.recovery.wal.torn_records_truncated
        actual = np.asarray(server.approximate_values, dtype=np.float64)
        server.recovery.close()

    verdict = compare_snapshots(actual, expected, tolerance=0.0)
    if verdict is not None:
        kind, detail, _ = verdict
        round_.detail = f"{kind}: {detail}"
    elif server.batches_ingested != len(workload.schedule):
        round_.detail = (
            f"ingested {server.batches_ingested} of "
            f"{len(workload.schedule)} batches"
        )
    elif round_.quarantined:
        round_.detail = (
            f"{round_.quarantined} batch(es) quarantined on a "
            f"healthy workload"
        )
    else:
        round_.equivalent = True
    return round_


def _choose_site_and_hit(rng: np.random.Generator,
                         schedule_len: int) -> tuple:
    # The random fuzzer drives a plain durable server, which never
    # passes the admission/breaker/deadline sites -- drawing those
    # would be dead rounds.  The resilient sweep covers them.
    site = str(rng.choice(list(faults.DURABLE_SITES)))
    budget = schedule_len if site in _PER_BATCH_SITES else 2
    hit = int(rng.integers(1, max(budget, 1) + 1))
    return site, hit


def _write_repro(artifacts_dir: str, round_: CrashRound,
                 args_hint: str) -> str:
    path = os.path.join(artifacts_dir, f"repro-seed{round_.seed}.txt")
    with open(path, "w", encoding="utf-8") as stream:
        stream.write(
            "crash-recovery mismatch\n"
            f"workload: {round_.workload}\n"
            f"kill site: {round_.site} (hit {round_.hit})\n"
            f"crashes injected: {round_.crashes}\n"
            f"detail: {round_.detail}\n\n"
            "replay with:\n"
            f"  PYTHONPATH=src python -m repro fuzz --crash {args_hint}\n\n"
            "or in pytest:\n"
            "  from repro.testing.crash import "
            "crash_recovery_equivalence\n"
            "  from repro.testing.workloads import generate_workload\n"
            f"  w = generate_workload({round_.seed})\n"
            f"  r = crash_recovery_equivalence(w, {round_.site!r}, "
            f"{round_.hit}, tmp_path)\n"
            "  assert r.ok, r.summary()\n"
        )
    return path


def run_crash_fuzz(
    seed: int = 0,
    rounds: int = 8,
    algorithms: Optional[Sequence[str]] = None,
    max_vertices: int = 32,
    max_batches: int = 6,
    checkpoint_every: int = 2,
    artifacts_dir: Optional[str] = None,
    emit: Callable[[str], None] = print,
) -> CrashFuzzOutcome:
    """A seeded campaign of kill-and-recover rounds; see module doc."""
    outcome = CrashFuzzOutcome()
    start = time.perf_counter()
    for index in range(rounds):
        round_seed = seed + index
        workload = generate_workload(
            round_seed, algorithms=algorithms,
            max_vertices=max_vertices, max_batches=max_batches,
        )
        rng = np.random.default_rng((round_seed, 0xC4A5))
        site, hit = _choose_site_and_hit(rng, len(workload.schedule))
        state_dir = tempfile.mkdtemp(prefix=f"crash-fuzz-{round_seed}-")
        round_ = crash_recovery_equivalence(
            workload, site, hit, state_dir,
            checkpoint_every=checkpoint_every,
        )
        outcome.rounds.append(round_)
        emit(f"[{index + 1}/{rounds}] {round_.summary()}")
        if round_.ok:
            shutil.rmtree(state_dir, ignore_errors=True)
        elif artifacts_dir is not None:
            os.makedirs(artifacts_dir, exist_ok=True)
            kept = os.path.join(artifacts_dir,
                                f"state-seed{round_seed}")
            shutil.move(state_dir, kept)
            hint = (f"--seed {round_seed} --rounds 1 "
                    f"--checkpoint-every {checkpoint_every}")
            repro = _write_repro(artifacts_dir, round_, hint)
            outcome.artifacts.extend([kept, repro])
            emit(f"    WAL + state kept -> {kept}")
            emit(f"    repro -> {repro}")
        else:
            shutil.rmtree(state_dir, ignore_errors=True)
    outcome.elapsed_seconds = time.perf_counter() - start
    emit(
        f"crash fuzz: {len(outcome.rounds)} round(s), "
        f"{outcome.crashes_injected} crash(es) injected, "
        f"{sum(1 for r in outcome.rounds if not r.ok)} mismatch(es), "
        f"{outcome.elapsed_seconds:.1f}s"
    )
    return outcome


def _workload_with_batches(seed: int, minimum: int) -> Workload:
    """First seeded workload with a schedule long enough that every
    site's chosen hit count is actually reachable."""
    for offset in range(64):
        workload = generate_workload(seed + offset,
                                     algorithms=["pagerank"],
                                     max_vertices=24, max_batches=6)
        if len(workload.schedule) >= minimum:
            return workload
    raise RuntimeError("no seeded workload with a long enough schedule")


def deterministic_site_sweep(
    seed: int = 7,
    state_root: Optional[str] = None,
    emit: Callable[[str], None] = lambda _: None,
) -> List[CrashRound]:
    """One fixed workload, killed once at *every* registered site.

    The acceptance gate: every entry must come back ``ok``.
    """
    workload = _workload_with_batches(seed, minimum=3)
    root = state_root or tempfile.mkdtemp(prefix="crash-sweep-")
    results = []
    for site in faults.DURABLE_SITES:
        hit = 2 if site in _PER_BATCH_SITES else 1
        state_dir = os.path.join(root, site.replace(".", "_"))
        round_ = crash_recovery_equivalence(workload, site, hit,
                                            state_dir,
                                            checkpoint_every=2)
        results.append(round_)
        emit(round_.summary())
        if round_.ok:
            shutil.rmtree(state_dir, ignore_errors=True)
    return results


def resilient_crash_equivalence(
    workload: Workload,
    site: str,
    hit: int,
    state_dir: str,
    checkpoint_every: int = 2,
) -> CrashRound:
    """Kill a *resilient* server at ``(site, hit)`` and recover.

    The scenario is built so every admission-layer site actually
    executes: batches go through ``submit`` (hits ``admission.enqueue``
    and WAL-logs before queueing), each batch is followed by a
    deadline-budgeted query (hits ``query.deadline``), and after the
    first batch the breaker is manually tripped with a short cooldown so
    deferred submissions build a non-empty queue and a half-open probe
    fires (hits ``breaker.probe``).

    Equivalence: submit-time WAL logging makes queued-but-unapplied
    batches recoverable -- replay applies them in sequence order, which
    is exactly the order the live FIFO queue would have -- and batch
    application is idempotent (re-adds and absent-deletes are skipped),
    so at-least-once resubmission after a crash cannot fork the state.
    The final values must be bit-for-bit the plain uninterrupted run's,
    and every WAL record must end up either applied or durably
    skip-marked (the "recoverable or provably shed" ledger check).
    """
    from repro.runtime.deadline import StepDeadline
    from repro.serving.resilience import (
        BreakerConfig,
        ResilientAnalyticsServer,
    )

    profile = workload.profile
    expected = _uninterrupted_values(workload)
    round_ = CrashRound(
        seed=workload.seed, workload=workload.describe(),
        site=site, hit=hit, batches=len(workload.schedule),
    )
    # No degraded window: the sweep pins bit-for-bit equality, so probe
    # applies must use the same window as the ground-truth loop.
    breaker_config = BreakerConfig(
        cooldown_submits=2, degraded_approx_iterations=None,
        degraded_admission="coalesce",
    )

    def attach() -> ResilientAnalyticsServer:
        manager = RecoveryManager(
            state_dir, checkpoint_every=checkpoint_every, retain=2,
        )
        make = dict(
            queue_capacity=len(workload.schedule) + 2,
            admission="block", breaker=breaker_config,
        )
        if manager.checkpoints():
            return ResilientAnalyticsServer.recover(
                manager, profile.factory, **make
            )
        server = StreamingAnalyticsServer(
            profile.factory, workload.build_graph(),
            approx_iterations=APPROX_ITERATIONS, recovery=manager,
        )
        return ResilientAnalyticsServer(server, **make)

    schedule = workload.schedule
    with scoped_failpoints() as registry:
        registry.arm(site, kind="crash", hit=hit)
        resilient: Optional[ResilientAnalyticsServer] = None
        index = 0
        tripped = False
        while resilient is None or index < len(schedule):
            if resilient is None:
                try:
                    resilient = attach()
                except InjectedCrash:
                    round_.crashes += 1
                    continue
                continue
            try:
                resilient.submit(schedule[index], pump=False)
                index += 1
                if not tripped:
                    # Trip after the first admitted batch so deferred
                    # submissions queue up behind an OPEN breaker.
                    resilient.pump()
                    resilient.breaker.trip("sweep scenario")
                    tripped = True
                resilient.pump()
                resilient.query(deadline=StepDeadline(1))
            except InjectedCrash:
                round_.crashes += 1
                resilient.server.recovery.close()
                resilient = None
        try:
            resilient.drain()
            resilient.query(deadline=StepDeadline(1))
        except InjectedCrash:
            round_.crashes += 1
            resilient.server.recovery.close()
            resilient = attach()
            resilient.drain()
        round_.fired = bool(registry.fired)
        manager = resilient.server.recovery
        round_.quarantined = len(manager.poison_quarantined())
        actual = np.asarray(resilient.approximate_values,
                            dtype=np.float64).copy()
        # Ledger check: every logged record is applied or skip-marked.
        # A fresh recovery from disk must land on the exact same state;
        # if a queued record were lost, replay would diverge here.
        manager.close()
        replayer = RecoveryManager(state_dir,
                                   checkpoint_every=checkpoint_every,
                                   retain=2)
        recovered = replayer.recover(profile.factory)
        replayed = np.asarray(recovered.approximate_values,
                              dtype=np.float64)
        replayer.close()

    verdict = compare_snapshots(actual, expected, tolerance=0.0)
    replay_verdict = compare_snapshots(replayed, actual, tolerance=0.0)
    if verdict is not None:
        kind, detail, _ = verdict
        round_.detail = f"{kind}: {detail}"
    elif replay_verdict is not None:
        kind, detail, _ = replay_verdict
        round_.detail = f"disk replay diverged -- {kind}: {detail}"
    elif round_.quarantined:
        round_.detail = (
            f"{round_.quarantined} batch(es) quarantined on a "
            f"healthy workload"
        )
    else:
        round_.equivalent = True
    return round_


def resilient_site_sweep(
    seed: int = 7,
    state_root: Optional[str] = None,
    emit: Callable[[str], None] = lambda _: None,
) -> List[CrashRound]:
    """Kill-and-recover across the admission-layer failpoints.

    Complements :func:`deterministic_site_sweep`: same acceptance shape
    (every round must come back ``ok``) over
    :data:`repro.testing.faults.RESILIENCE_SITES`, driven through the
    resilient server so each site actually fires with a non-empty
    admission queue in flight.
    """
    workload = _workload_with_batches(seed, minimum=4)
    root = state_root or tempfile.mkdtemp(prefix="resilient-sweep-")
    results = []
    for site in faults.RESILIENCE_SITES:
        # submit and query sites fire once per batch; the probe fires
        # exactly once in this scenario (the breaker closes on it).
        hit = 1 if site == "breaker.probe" else 2
        state_dir = os.path.join(root, site.replace(".", "_"))
        round_ = resilient_crash_equivalence(workload, site, hit,
                                             state_dir,
                                             checkpoint_every=2)
        results.append(round_)
        emit(round_.summary())
        if round_.ok:
            shutil.rmtree(state_dir, ignore_errors=True)
    return results


#: The replicated acceptance sweep (``repro fuzz --crash --replicated``):
#: every scenario must leave every surviving replica bit-for-bit equal
#: to both the writer and the serial uninterrupted reference.
REPLICATION_SCENARIOS = (
    "writer-kill",
    "replica-kill",
    "segment-drop",
    "stale-writer-fence",
)

#: Failpoint armed per scenario; ``stale-writer-fence`` is pure
#: choreography (promotion + a late-shipping deposed writer).
_REPLICATION_ARMS = {
    "writer-kill": ("replication.ship", "crash", 3),
    "replica-kill": ("replication.receive", "crash", 2),
    "segment-drop": ("replication.ship", "fault", 2),
    "stale-writer-fence": None,
}


def replicated_crash_equivalence(
    workload: Workload,
    scenario: str,
    state_root: str,
    checkpoint_every: int = 2,
    segment_records: int = 2,
    replicas: int = 2,
) -> CrashRound:
    """One replicated kill-and-converge scenario; see
    :data:`REPLICATION_SCENARIOS`.

    Property under test: **replication is lossless and fenced**.  After
    the planted failure plus a final sync, every surviving replica's
    main-loop values are bit-for-bit the serial uninterrupted run's
    (and the writer's); for ``stale-writer-fence``, additionally every
    late shipment from the deposed writer must land on the survivor's
    durable fence ledger with a stale epoch -- rejected *provably*, not
    dropped.
    """
    from repro.serving.replication import ReplicationCluster
    from repro.serving.resilience import ResilientAnalyticsServer

    if scenario not in REPLICATION_SCENARIOS:
        raise ValueError(
            f"unknown scenario {scenario!r}; pick from "
            f"{REPLICATION_SCENARIOS}"
        )
    profile = workload.profile
    schedule = workload.schedule
    expected = _uninterrupted_values(workload)
    arm = _REPLICATION_ARMS[scenario]
    round_ = CrashRound(
        seed=workload.seed, workload=workload.describe(),
        site=scenario, hit=arm[2] if arm else 0,
        batches=len(schedule),
    )
    make = dict(queue_capacity=len(schedule) + 2, admission="block")

    def build() -> ReplicationCluster:
        manager = RecoveryManager(
            state_root, checkpoint_every=checkpoint_every, retain=2,
            segment_records=segment_records,
        )
        server = StreamingAnalyticsServer(
            profile.factory, workload.build_graph(),
            approx_iterations=APPROX_ITERATIONS, recovery=manager,
        )
        resilient = ResilientAnalyticsServer(server, **make)
        return ReplicationCluster(
            resilient, profile.factory, state_root, replicas=replicas,
        )

    def absorb_crash(cluster: ReplicationCluster,
                     crash: InjectedCrash) -> None:
        """The driver plays the OS: restart whichever process died."""
        round_.crashes += 1
        if crash.site == "replication.receive":
            casualty = cluster.delivering
            cluster.kill_replica(casualty)
            cluster.restart_replica(casualty)
        else:
            cluster.restart_writer(**make)

    with scoped_failpoints() as registry:
        if arm is not None:
            registry.arm(arm[0], kind=arm[1], hit=arm[2])
        cluster = build()
        if scenario == "stale-writer-fence":
            # Replicate a prefix, run the writer ahead un-replicated,
            # promote a replica, then let the deposed writer ship its
            # tail late: the survivor must reject it onto the ledger.
            prefix = max(2, len(schedule) // 2)
            for batch in schedule[:prefix]:
                cluster.submit(batch)
                cluster.replicate()
            for batch in schedule[prefix:]:
                cluster.submit(batch)
            promoted = cluster.promote("r0", **make)
            deposed = cluster.deposed[-1]
            deposed.seal_tail()
            deposed.ship()
            cluster.deliver()
            survivor = cluster.replicas["r1"]
            ledger = survivor.fence_ledger()
            new_epoch = cluster.authority.epoch
            if not ledger:
                round_.detail = (
                    "deposed writer's late shipments left no fence-"
                    "ledger entries on the survivor"
                )
            elif any(entry["epoch"] >= new_epoch for entry in ledger):
                round_.detail = (
                    f"fence ledger holds a non-stale epoch "
                    f"(>= {new_epoch})"
                )
            round_.fired = bool(ledger)
            # The promoted writer recovered every *replicated* batch;
            # the client (us) re-drives the unacknowledged tail.
            for batch in schedule[promoted.server.batches_ingested:]:
                cluster.submit(batch)
                cluster.replicate()
            cluster.sync()
        else:
            index = 0
            while index < len(schedule):
                try:
                    cluster.submit(schedule[index])
                    index = cluster.writer.server.batches_ingested
                    cluster.replicate()
                except InjectedCrash as crash:
                    absorb_crash(cluster, crash)
                    index = cluster.writer.server.batches_ingested
            try:
                cluster.sync()
            except InjectedCrash as crash:
                absorb_crash(cluster, crash)
                cluster.sync()
            round_.fired = bool(registry.fired)
            if scenario == "segment-drop" and round_.fired:
                healed = (cluster.gap_resyncs
                          + cluster.writer_node.resyncs)
                if healed < 1:
                    round_.detail = (
                        "segment drop fired but no resync healed it"
                    )

        round_.quarantined = len(
            cluster.writer_node.manager.poison_quarantined()
        )
        writer_values = np.asarray(
            cluster.writer.approximate_values, dtype=np.float64
        ).copy()
        lag = cluster.max_lag()
        verdicts = []
        verdicts.append(("writer", compare_snapshots(
            writer_values, expected, tolerance=0.0)))
        for name, replica in sorted(cluster.replicas.items()):
            actual = np.asarray(replica.approximate_values,
                                dtype=np.float64)
            verdicts.append((name, compare_snapshots(
                actual, expected, tolerance=0.0)))
            verdicts.append((f"{name} vs writer", compare_snapshots(
                actual, writer_values, tolerance=0.0)))
        cluster.close()

    if not round_.detail:
        for who, verdict in verdicts:
            if verdict is not None:
                kind, detail, _ = verdict
                round_.detail = f"{who} diverged -- {kind}: {detail}"
                break
        else:
            if not round_.fired:
                round_.detail = "planted failure never fired"
            elif lag > 0:
                round_.detail = (
                    f"replica(s) still lag the writer by {lag} after "
                    f"final sync"
                )
            elif round_.quarantined:
                round_.detail = (
                    f"{round_.quarantined} batch(es) quarantined on "
                    f"a healthy workload"
                )
            else:
                round_.equivalent = True
    return round_


def replicated_scenario_sweep(
    seed: int = 7,
    state_root: Optional[str] = None,
    emit: Callable[[str], None] = lambda _: None,
) -> List[CrashRound]:
    """Every replication scenario on one fixed workload -- the
    acceptance gate for ``repro fuzz --crash --replicated``."""
    workload = _workload_with_batches(seed, minimum=4)
    root = state_root or tempfile.mkdtemp(prefix="replicated-sweep-")
    results = []
    for scenario in REPLICATION_SCENARIOS:
        state_dir = os.path.join(root, scenario.replace("-", "_"))
        round_ = replicated_crash_equivalence(workload, scenario,
                                              state_dir)
        results.append(round_)
        emit(round_.summary())
        if round_.ok:
            shutil.rmtree(state_dir, ignore_errors=True)
    return results


@dataclass
class ChaosRound:
    """One seeded lossy-transport convergence scenario."""

    seed: int
    workload: str
    rate: float
    replicas: int
    batches: int = 0
    faults: dict = field(default_factory=dict)
    converged: bool = False
    dead_letters: int = 0
    scrub_repaired: bool = True
    equivalent: bool = False
    detail: str = ""
    schedule: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.equivalent

    def summary(self) -> str:
        status = "OK" if self.ok else f"MISMATCH ({self.detail})"
        injected = sum(self.faults.get(kind, 0) for kind in
                       ("drop", "duplicate", "corrupt", "reorder",
                        "delay"))
        return (
            f"seed={self.seed} chaos@{self.rate:.0%} "
            f"[{injected} fault(s): "
            + " ".join(f"{kind}={self.faults.get(kind, 0)}"
                       for kind in ("drop", "duplicate", "corrupt",
                                    "reorder", "delay"))
            + f", dead_letters={self.dead_letters}] {status}"
        )


def _fast_retry_policy():
    """Keep fuzz rounds fast: real backoff shape, toy delays."""
    from repro.serving.replication import RetryPolicy

    return RetryPolicy(max_attempts=8, backoff_base=0.0001,
                       backoff_factor=2.0, backoff_cap=0.002)


def chaos_convergence_equivalence(
    workload: Workload,
    seed: int,
    state_root: str,
    rate: float = 0.1,
    replicas: int = 3,
    checkpoint_every: int = 2,
    segment_records: int = 2,
    scrub: bool = True,
) -> ChaosRound:
    """One chaos round: drive a replicated cluster over a transport
    that drops, duplicates, corrupts, reorders, and delays shipments
    (all five faults, each at ``rate``), then prove bit-for-bit
    convergence.

    Property under test: **replication converges under a hostile
    network** -- the bounded :class:`~repro.serving.replication.
    RetryPolicy`, sequence deduplication, gap resync, and CRC NACKs
    together absorb every injected fault without the writer ever
    hanging.  With ``scrub=True`` the round finishes with a
    ``cluster.scrub(repair=True)`` pass and requires every report to
    come back fully repaired (damage at rest is invisible to the live
    engine but must not survive a scrub).
    """
    from repro.serving.chaos import ChaosConfig, wrap_cluster
    from repro.serving.replication import ReplicationCluster
    from repro.serving.resilience import ResilientAnalyticsServer

    profile = workload.profile
    schedule = workload.schedule
    expected = _uninterrupted_values(workload)
    round_ = ChaosRound(
        seed=seed, workload=workload.describe(), rate=rate,
        replicas=replicas, batches=len(schedule),
    )
    manager = RecoveryManager(
        state_root, checkpoint_every=checkpoint_every, retain=2,
        segment_records=segment_records,
    )
    server = StreamingAnalyticsServer(
        profile.factory, workload.build_graph(),
        approx_iterations=APPROX_ITERATIONS, recovery=manager,
    )
    resilient = ResilientAnalyticsServer(
        server, queue_capacity=len(schedule) + 2, admission="block",
    )
    cluster = ReplicationCluster(
        resilient, profile.factory, state_root, replicas=replicas,
        retry_policy=_fast_retry_policy(),
    )
    wrappers = wrap_cluster(
        cluster, ChaosConfig.all_faults(seed=seed, rate=rate)
    )
    for batch in schedule:
        cluster.submit(batch)
        cluster.replicate()
    # A reorder decision can hold the final shipment forever on a
    # quiescing link; a real network eventually delivers or re-sends.
    for wrapper in wrappers:
        wrapper.flush()
    round_.converged = cluster.sync()
    for wrapper in wrappers:
        for kind, count in wrapper.counts.items():
            round_.faults[kind] = round_.faults.get(kind, 0) + count
        round_.schedule.extend(wrapper.schedule)
    round_.dead_letters = len(cluster.dead_letters)
    if scrub:
        reports = cluster.scrub(repair=True)
        round_.scrub_repaired = all(
            report.repaired for report in reports.values()
        )
    writer_values = np.asarray(
        cluster.writer.approximate_values, dtype=np.float64
    ).copy()
    verdicts = [("writer", compare_snapshots(
        writer_values, expected, tolerance=0.0))]
    for name, replica in sorted(cluster.replicas.items()):
        actual = np.asarray(replica.approximate_values,
                            dtype=np.float64)
        verdicts.append((name, compare_snapshots(
            actual, expected, tolerance=0.0)))
    lag = cluster.max_lag()
    cluster.close()

    for who, verdict in verdicts:
        if verdict is not None:
            kind, detail, _ = verdict
            round_.detail = f"{who} diverged -- {kind}: {detail}"
            break
    else:
        if not round_.converged:
            round_.detail = (
                f"final sync abandoned a replica "
                f"({round_.dead_letters} dead letter(s))"
            )
        elif lag > 0:
            round_.detail = f"replica(s) still lag by {lag} after sync"
        elif not round_.scrub_repaired:
            round_.detail = "post-chaos scrub left damage unrepaired"
        else:
            round_.equivalent = True
    return round_


def chaos_convergence_sweep(
    seeds: Sequence[int] = range(5),
    rate: float = 0.1,
    replicas: int = 3,
    state_root: Optional[str] = None,
    emit: Callable[[str], None] = lambda _: None,
) -> List[ChaosRound]:
    """The acceptance gate for ``repro fuzz --crash --chaos``: every
    seed converges bit-for-bit, and across the sweep every one of the
    five fault kinds actually fired."""
    root = state_root or tempfile.mkdtemp(prefix="chaos-sweep-")
    results = []
    for seed in seeds:
        workload = _workload_with_batches(seed, minimum=4)
        state_dir = os.path.join(root, f"seed_{seed}")
        round_ = chaos_convergence_equivalence(
            workload, seed, state_dir, rate=rate, replicas=replicas,
        )
        results.append(round_)
        emit(round_.summary())
        if round_.ok:
            shutil.rmtree(state_dir, ignore_errors=True)
    coverage = chaos_fault_coverage(results)
    missing = [kind for kind, count in coverage.items() if count == 0]
    if missing and results:
        last = results[-1]
        if last.equivalent:
            last.equivalent = False
            last.detail = (
                f"fault kind(s) never fired across the sweep: "
                f"{', '.join(missing)} -- raise the rate or add seeds"
            )
    emit("chaos coverage: " + " ".join(
        f"{kind}={count}" for kind, count in sorted(coverage.items())
    ))
    return results


def chaos_fault_coverage(rounds: Sequence[ChaosRound]) -> dict:
    """Total injected faults per kind across a sweep."""
    coverage = {kind: 0 for kind in
                ("drop", "duplicate", "corrupt", "reorder", "delay")}
    for round_ in rounds:
        for kind in coverage:
            coverage[kind] += round_.faults.get(kind, 0)
    return coverage


def chaos_dead_letter_round(
    seed: int = 11,
    state_root: Optional[str] = None,
) -> ChaosRound:
    """A link that drops *everything* must dead-letter, not hang.

    One replica's transport swallows 100% of shipments; the final sync
    must exhaust that link's retry budget, record the undelivered range
    on the durable dead-letter ledger, return ``False`` -- and still
    converge the healthy replica bit-for-bit.
    """
    from repro.serving.chaos import ChaosConfig, ChaosTransport
    from repro.serving.replication import ReplicationCluster
    from repro.serving.resilience import ResilientAnalyticsServer

    workload = _workload_with_batches(seed, minimum=4)
    root = state_root or tempfile.mkdtemp(prefix="chaos-dead-letter-")
    expected = _uninterrupted_values(workload)
    round_ = ChaosRound(
        seed=seed, workload=workload.describe(), rate=1.0, replicas=2,
        batches=len(workload.schedule),
    )
    manager = RecoveryManager(root, checkpoint_every=2, retain=2,
                              segment_records=2)
    server = StreamingAnalyticsServer(
        workload.profile.factory, workload.build_graph(),
        approx_iterations=APPROX_ITERATIONS, recovery=manager,
    )
    resilient = ResilientAnalyticsServer(
        server, queue_capacity=len(workload.schedule) + 2,
        admission="block",
    )
    cluster = ReplicationCluster(
        resilient, workload.profile.factory, root, replicas=2,
        retry_policy=_fast_retry_policy(),
    )
    black_hole = ChaosTransport(
        cluster.replicas["r1"].inbox,
        ChaosConfig(seed=seed, drop=1.0), name="r1",
    )
    cluster.replicas["r1"].inbox = black_hole
    cluster.writer_node._links["r1"].transport = black_hole
    for batch in workload.schedule:
        cluster.submit(batch)
        cluster.replicate()
    round_.converged = cluster.sync()
    round_.dead_letters = len(cluster.dead_letters)
    round_.faults = dict(black_hole.counts)
    round_.schedule = list(black_hole.schedule)
    healthy = np.asarray(cluster.replicas["r0"].approximate_values,
                         dtype=np.float64)
    verdict = compare_snapshots(healthy, expected, tolerance=0.0)
    cluster.close()
    if round_.converged:
        round_.detail = "sync claimed convergence through a black hole"
    elif not round_.dead_letters:
        round_.detail = "no dead letter recorded for the dead link"
    elif verdict is not None:
        kind, detail, _ = verdict
        round_.detail = f"healthy replica diverged -- {kind}: {detail}"
    else:
        round_.equivalent = True
    return round_


def run_plant_fault(seed: int = 0,
                    emit: Callable[[str], None] = print) -> bool:
    """Self-test: prove the failpoint registry actually fires.

    Arms a *transient* fault at ``wal.append`` and succeeds only if
    (a) the registry reports the firing, (b) the manager's bounded
    retry absorbed it (``recovery.retries`` advanced), and (c) the
    stream still completed every batch.  A harness whose failpoints are
    dead code would fail (a); one without retry would crash at (c).
    """
    workload = _workload_with_batches(seed, minimum=2)
    state_dir = tempfile.mkdtemp(prefix="plant-fault-")
    try:
        with scoped_registry() as metrics, scoped_failpoints() as registry:
            registry.arm("wal.append", kind="fault", hit=1)
            manager = RecoveryManager(state_dir, checkpoint_every=2,
                                      retain=2)
            server = StreamingAnalyticsServer(
                workload.profile.factory, workload.build_graph(),
                approx_iterations=APPROX_ITERATIONS, recovery=manager,
            )
            for batch in workload.schedule:
                server.ingest(batch)
            manager.close()
            fired = "wal.append" in registry.fired_sites()
            retried = metrics.counter("recovery.retries").value > 0
            completed = server.batches_ingested == len(workload.schedule)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
    if fired and retried and completed:
        emit("plant-a-fault: wal.append fired, retry absorbed it, "
             "stream completed -- failpoints are live")
        return True
    emit(f"plant-a-fault: FAILED (fired={fired}, retried={retried}, "
         f"completed={completed}) -- the failpoint registry is not "
         f"wired into the serving stack")
    return False


# ----------------------------------------------------------------------
# Storage crash sweep: kill inside snapshot-segment persistence
# ----------------------------------------------------------------------
@dataclass
class StorageRound:
    """One kill at ``storage.segment_write`` while an :class:`MmapStore`
    writes a new snapshot generation."""

    site: str
    hit: int
    crashed: bool = False
    previous_readable: bool = False
    debris_files: int = 0
    swept: bool = False
    equivalent: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        return (self.crashed and self.previous_readable and self.swept
                and self.equivalent)

    def summary(self) -> str:
        status = "ok" if self.ok else f"FAILED ({self.detail})"
        return (f"[{self.site} hit={self.hit}] crash={self.crashed} "
                f"previous-readable={self.previous_readable} "
                f"debris={self.debris_files} swept={self.swept} "
                f"equivalent={self.equivalent}: {status}")


def _storage_round_batch(num_vertices: int,
                         base_graph) -> "MutationBatch":
    """A fixed mutation batch for the storage sweep: additions
    (including one that grows the vertex set), plus deletions of real
    edges -- enough to dirty both CSR directions."""
    from repro.graph.mutation import MutationBatch

    src, dst, _ = base_graph.all_edges()
    deletions = [(int(src[0]), int(dst[0])),
                 (int(src[src.size // 2]), int(dst[src.size // 2]))]
    additions = [(0, num_vertices - 1), (3, 5),
                 (num_vertices + 1, 2)]  # grows the vertex set
    return MutationBatch.from_edges(
        additions=additions, deletions=deletions,
        add_weights=[1.25, 0.75, 1.5],
        grow_to=num_vertices + 2,
    )


def storage_crash_round(hit: int, root: str,
                        seed: int = 7) -> StorageRound:
    """Kill the ``hit``-th segment finalize of a generation write and
    prove the previous snapshot manifest survives the torn write.

    The sequence mirrors a real process death: publish generation 0,
    apply a mutation batch whose :meth:`MmapStore.adjust` is killed
    mid-persist (leaving finalized orphans and a torn temp file on
    disk), then "restart" by opening a *fresh* store over the same
    root.  The round checks that

    1. the reopened store still points at generation 0, verifies its
       payload CRCs, and reads it bit-for-bit;
    2. :meth:`MmapStore.compact` sweeps every torn temp and orphaned
       segment the crash left behind;
    3. retrying the same batch converges to exactly the state a heap
       :class:`StreamingGraph` reaches -- the equivalence oracle.
    """
    from repro.graph.generators import rmat
    from repro.graph.mutable import StreamingGraph
    from repro.graph.storage import ARRAY_NAMES, MmapStore, StoreError

    site = "storage.segment_write"
    round_ = StorageRound(site=site, hit=hit)
    os.makedirs(root, exist_ok=True)
    heap_graph = rmat(6, 4, seed=seed, weighted=True)
    store = MmapStore(root)
    base = store.publish(heap_graph)
    batch = _storage_round_batch(base.num_vertices, base)
    pre_crash = {name: np.asarray(getattr(base, name)).copy()
                 for name in ARRAY_NAMES}
    current_before = store.current_snapshot

    streaming = StreamingGraph(base)
    with scoped_failpoints() as registry:
        registry.arm(site, kind="crash", hit=hit)
        try:
            streaming.apply_batch(batch)
        except InjectedCrash:
            round_.crashed = True
    if not round_.crashed:
        round_.detail = "failpoint never fired"
        return round_
    del streaming, base, store  # the "process" died; drop its maps

    # A torn temp and/or finalized-but-unpublished segments must be on
    # disk -- otherwise the kill site proved nothing.
    debris = [name for name in os.listdir(root)
              if name.endswith(".tmp")
              or (name.endswith(".seg") and "-g000001-" in name)]
    round_.debris_files = len(debris)

    reopened_store = MmapStore(root)
    try:
        round_.previous_readable = (
            reopened_store.current_snapshot == current_before)
        reopened_store.verify()
        reopened = reopened_store.open_snapshot()
        for name in ARRAY_NAMES:
            if not np.array_equal(pre_crash[name],
                                  np.asarray(getattr(reopened, name))):
                round_.previous_readable = False
                round_.detail = f"{name} diverged after reopen"
                return round_
    except StoreError as exc:
        round_.previous_readable = False
        round_.detail = f"reopen failed: {exc}"
        return round_

    reopened_store.compact()
    referenced = set()
    for snapshot_id in reopened_store.snapshot_ids():
        referenced.update(reopened_store.segment_files(snapshot_id))
    leftovers = [name for name in os.listdir(root)
                 if name.endswith(".tmp")
                 or (name.endswith(".seg") and name not in referenced)]
    round_.swept = not leftovers
    if not round_.swept:
        round_.detail = f"debris survived compact: {leftovers}"
        return round_

    retry = StreamingGraph(reopened)
    retry.apply_batch(batch)
    oracle = StreamingGraph(heap_graph)
    oracle.apply_batch(batch)
    round_.equivalent = all(
        np.array_equal(np.asarray(getattr(retry.graph, name)),
                       np.asarray(getattr(oracle.graph, name)))
        for name in ARRAY_NAMES
    )
    if not round_.equivalent:
        round_.detail = "retry diverged from heap oracle"
    return round_


def storage_site_sweep(
    state_root: Optional[str] = None,
    seed: int = 7,
    emit: Callable[[str], None] = lambda _: None,
) -> List[StorageRound]:
    """Kill at every segment position of a generation write (six
    canonical arrays, so hits 1..6) and require every round ``ok``."""
    from repro.graph.storage import ARRAY_NAMES

    root = state_root or tempfile.mkdtemp(prefix="storage-sweep-")
    rounds = []
    for hit in range(1, len(ARRAY_NAMES) + 1):
        round_dir = os.path.join(root, f"hit-{hit}")
        round_ = storage_crash_round(hit, round_dir, seed=seed)
        rounds.append(round_)
        emit(round_.summary())
        if round_.ok:
            shutil.rmtree(round_dir, ignore_errors=True)
    return rounds
