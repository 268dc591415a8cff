"""The snap collector: the uplink between service processes and the vault.

Paper §3.6.1 / §3.7.5: every machine's service process notifies a
central point of snaps.  :class:`Collector` is that uplink, built for
the chaos the fleet actually serves up:

* **registration** — ``ServiceProcess.forward_to(collector)`` makes a
  machine's service forward every snap it hears about (its own
  processes' triggers, group fan-outs, hang snaps) into the collector;
* **batching** — snaps queue and ship in batches, amortising the
  per-transfer latency the simulated :class:`~repro.distributed.network.Network`
  charges;
* **bounded queue + back-pressure** — the queue never grows past
  ``queue_limit``; a full queue forces an inline flush (the producer
  pays, evidence survives) before anything is evicted;
* **seeded retry with backoff** — a transfer the network drops goes
  back on the queue with an exponentially growing, deterministically
  jittered delay; only after ``max_retries`` does it land in the
  dead-letter list (still inspectable — evidence is never silently
  discarded);
* **GC pin protocol** — the collector registers its queued +
  dead-lettered digests as a vault pin source, so retention compaction
  (:meth:`~repro.fleet.store.SnapVault.compact`) never deletes content
  an outstanding upload still references;
* **deterministic close** — :meth:`Collector.close` flushes what it
  can and dead-letters the rest; a close racing an in-flight drain can
  never silently drop an accepted snap;
* **prepared batches** — each delivered batch is prepared on the
  collector's own thread (content digest, TBSZ2 compression, SYNC-id
  and crash-signature mining — :func:`repro.fleet.store.prepare_snap`)
  and committed with one :meth:`~repro.fleet.store.SnapVault.put_batch`;
  duplicates the vault already knows are caught *before* they are
  compressed at all.

Multiple collectors may feed one vault concurrently — the vault's
index lock and per-shard manifest locks make that safe — but each
collector instance belongs to a single ingest thread.  Parallel ingest
is several collectors on their own threads; with no real network
transfer to overlap, a worker pool preparing snaps for them would only
add GIL convoying.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.fleet.metrics import FleetMetrics
from repro.fleet.store import (
    SnapVault,
    StoreResult,
    content_digest,
    prepare_snap,
)
from repro.runtime.snap import SnapFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.distributed.network import Network

#: Signature of an upload-chaos hook: (machine_name, snap, attempt) ->
#: "drop" (or any truthy value) to lose this transfer, None/False to
#: deliver.  Installed either directly on the collector or as
#: ``Network.upload_chaos``.
UploadChaos = Callable[[str, SnapFile, int], object]


def backoff_with_jitter(
    base: int,
    attempts: int,
    rng: random.Random,
    maximum: int | None = None,
) -> int:
    """Seeded exponential backoff with a jitter cap, in cycles.

    ``base * 2**(attempts-1)`` plus deterministic jitter drawn from
    ``[0, base)``, the whole clamped to ``maximum`` when one is given —
    so a long outage charges bounded cycles per retry instead of
    doubling without limit.  The jitter draw always happens, clamped or
    not, so a given seed yields the same delay sequence regardless of
    where the cap sits.

    This is *the* uplink backoff discipline: the collector's retry
    loop and the remote query client both delay through here.
    """
    delay = base * (2 ** (attempts - 1))
    if base > 0:
        delay += rng.randrange(base)
    if maximum is not None:
        delay = min(delay, maximum)
    return delay


@dataclass
class PendingUpload:
    """One queued snap on its way to the vault."""

    machine: str
    snap: SnapFile
    attempts: int = 0
    #: Backoff delay (cycles) charged before each retry, for the record.
    backoffs: list[int] = field(default_factory=list)
    #: Cached content digest (the GC pin protocol asks for it).
    _digest: str | None = None

    def digest(self) -> str:
        """Content digest of the queued snap, computed once."""
        if self._digest is None:
            self._digest = content_digest(self.snap)
        return self._digest


class Collector:
    """Receives snaps from service processes and ships them to a vault."""

    def __init__(
        self,
        vault: SnapVault,
        network: "Network | None" = None,
        name: str = "tb-collector",
        batch_size: int = 8,
        queue_limit: int = 64,
        max_retries: int = 5,
        backoff_base: int = 1_000,
        backoff_max: int | None = None,
        seed: int = 0,
        metrics: FleetMetrics | None = None,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        self.vault = vault
        self.network = network
        self.name = name
        self.batch_size = batch_size
        self.queue_limit = queue_limit
        self.max_retries = max_retries
        self.backoff_base = backoff_base
        #: Backoff ceiling: no single retry delay (jitter included)
        #: ever exceeds this, so an outage longer than a few doublings
        #: charges bounded cycles before the item dead-letters.  The
        #: default (32x base) sits above any delay a default-config
        #: retry ladder can reach, so it only bites when max_retries is
        #: raised — exactly the long-outage case it exists for.
        if backoff_max is None:
            backoff_max = 32 * backoff_base
        if backoff_max < backoff_base:
            raise ValueError("backoff_max must be >= backoff_base")
        self.backoff_max = backoff_max
        #: Deterministic jitter source for retry backoff.
        self.rng = random.Random(seed)
        #: Shared with the vault unless explicitly overridden, so one
        #: render covers the whole pipeline.
        self.metrics = metrics or vault.metrics
        self.queue: deque[PendingUpload] = deque()
        #: Uploads that exhausted their retries — kept, not discarded.
        self.dead: list[PendingUpload] = []
        #: Store results in upload order (tests assert dedupe here).
        self.results: list[StoreResult] = []
        #: Collector-local chaos hook; ``network.upload_chaos`` also
        #: applies when a network is attached.
        self.upload_chaos: UploadChaos | None = None
        self._closed = False
        # The GC pin protocol: content this collector still holds
        # (queued or dead-lettered) must not be collected out of the
        # vault — a redelivery would otherwise re-store evidence the
        # engineer believed was already safe, or worse, arrive to find
        # its incident's other members gone.
        vault.add_pin_source(self.pinned_digests)

    @property
    def closed(self) -> bool:
        return self._closed

    def pinned_digests(self) -> set[str]:
        """Digests of every queued + dead-lettered snap (pin protocol)."""
        return {
            item.digest() for item in list(self.queue) + list(self.dead)
        }

    def close(self, flush: bool = True) -> None:
        """Shut down deterministically: flush or dead-letter, never drop.

        Every snap still queued at close time either lands in the vault
        (``flush=True`` gives it a final delivery run, retries and all)
        or moves to the dead-letter list (``close_dead_letters`` counts
        them) — closing can never silently lose an accepted snap, even
        when it races an in-flight :meth:`drain` from another thread.
        Idempotent; submissions after close dead-letter immediately.
        """
        if self._closed:
            return
        self._closed = True
        if flush:
            # Final delivery run.  flush_batch terminates the same way
            # drain does: every pass stores an item or advances it
            # toward the dead-letter limit.
            while self.queue:
                self.flush_batch()
            self.vault.flush_index()
        while self.queue:
            item = self.queue.popleft()
            self.dead.append(item)
            self.metrics.bump(dead_letters=1, close_dead_letters=1)

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def submit(self, snap: SnapFile) -> None:
        """A service process forwards one snap (the `forward_to` hook)."""
        self.metrics.bump(submitted=1)
        if self._closed:
            # A closed collector accepts nothing new onto the wire, but
            # evidence is never silently discarded: straight to the
            # dead-letter list, inspectable and requeue-able elsewhere.
            self.dead.append(
                PendingUpload(machine=snap.machine_name, snap=snap)
            )
            self.metrics.bump(dead_letters=1, close_dead_letters=1)
            return
        if len(self.queue) >= self.queue_limit:
            # Back-pressure: flush a batch inline rather than grow.
            self.metrics.bump(backpressure_flushes=1)
            self.flush_batch()
        if len(self.queue) >= self.queue_limit:
            # Still full (everything bounced): evict the oldest entry.
            self.queue.popleft()
            self.metrics.bump(evicted=1)
        self.queue.append(PendingUpload(machine=snap.machine_name, snap=snap))
        self.metrics.bump_peak("queue_peak", len(self.queue))

    def pending(self) -> int:
        """Snaps queued but not yet durably stored."""
        return len(self.queue)

    # ------------------------------------------------------------------
    # Transfer
    # ------------------------------------------------------------------
    def _chaos_verdict(self, item: PendingUpload) -> object:
        hook = self.upload_chaos
        if hook is None and self.network is not None:
            hook = getattr(self.network, "upload_chaos", None)
        if hook is None:
            return None
        return hook(item.machine, item.snap, item.attempts)

    def _transfer(self, item: PendingUpload) -> bool:
        """Ship one snap across the simulated network.

        Charges the source machine's clock the wire latency (uploads
        are real traffic) and consults the chaos hook; returns False
        when the transfer is lost in transit.
        """
        item.attempts += 1
        if self.network is not None:
            for machine in self.network.machines:
                if machine.name == item.machine:
                    machine.cycles += self.network.rpc_latency
                    break
        if self._chaos_verdict(item):
            self.metrics.bump(drops=1)
            return False
        return True

    def flush_batch(self) -> int:
        """Upload one batch; returns how many snaps landed in the vault.

        Failed transfers re-queue with seeded exponential backoff until
        ``max_retries``, then dead-letter.  Delivered snaps commit to
        the vault as one batch (one manifest append per touched shard).
        """
        if not self.queue:
            return 0
        self.metrics.bump(batches=1)
        delivered: list[PendingUpload] = []
        for _ in range(min(self.batch_size, len(self.queue))):
            item = self.queue.popleft()
            if self._transfer(item):
                delivered.append(item)
                continue
            if item.attempts > self.max_retries:
                self.dead.append(item)
                self.metrics.bump(dead_letters=1)
                continue
            backoff = backoff_with_jitter(
                self.backoff_base, item.attempts, self.rng, self.backoff_max
            )
            item.backoffs.append(backoff)
            self.metrics.bump(backoff_cycles=backoff, retries=1)
            self.queue.append(item)
        if not delivered:
            return 0
        vault = self.vault
        prepared = [
            prepare_snap(
                item.snap, vault.compress_level, vault.contains, vault.sign
            )
            for item in delivered
        ]
        self.results.extend(vault.put_batch(prepared))
        self.metrics.bump(uploads=len(delivered))
        return len(delivered)

    def drain(self) -> int:
        """Flush until the queue is empty; returns total snaps stored.

        Terminates unconditionally: every pass either stores an item or
        advances its attempt counter toward the dead-letter limit.
        Once the queue is dry, offers the vault a checkpoint of its
        incident index (:meth:`SnapVault.flush_index`), which writes
        one only when none is on disk or the un-checkpointed tail
        reached an eighth of what the last one covers.
        """
        total = 0
        while self.queue:
            total += self.flush_batch()
        self.vault.flush_index()
        return total

    def requeue_dead(self) -> int:
        """Give dead-lettered uploads a fresh round of retries.

        Respects the queue bound: only as many dead letters as the
        queue has room for are admitted (oldest first — they have
        waited longest), the rest stay dead-lettered, and the *actual*
        admitted count is returned.  Overfilling the queue here used to
        make the next ``submit`` evict live entries to make room for
        previously-failed ones.  Metrics move exactly once per
        transition: ``dead_letters`` counted the entry into the list,
        ``dead_requeued`` counts the exit, so ``dead_letters -
        dead_requeued`` is always the current net dead-letter total.
        """
        admitted = 0
        while self.dead and len(self.queue) < self.queue_limit:
            item = self.dead.pop(0)
            item.attempts = 0
            self.queue.append(item)
            admitted += 1
        if admitted:
            self.metrics.bump(dead_requeued=admitted)
        self.metrics.bump_peak("queue_peak", len(self.queue))
        return admitted
