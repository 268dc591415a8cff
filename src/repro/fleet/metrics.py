"""Fleet counters: what the vault ingested, deduped, retried, stores.

One :class:`FleetMetrics` instance is shared by a vault and the
collector(s) feeding it, so a single render answers the operational
questions §3.6.2 cares about ("useless snaps cost runtime, disk, and
attention"): how much evidence arrived, how much was duplicate, how
hard the uplink had to fight, and how big the store got.

With the parallel ingest pipeline several collector threads share one
metrics object, so shared counters go through :meth:`FleetMetrics.bump`
(a small lock) instead of bare ``+=``.  The vault's own counters are
already serialized under the vault's index lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field


@dataclass
class FleetMetrics:
    """Ingest / dedupe / retry / store-size counters."""

    # -- collector uplink ----------------------------------------------
    submitted: int = 0  # snaps handed to a collector
    batches: int = 0  # upload batches flushed
    uploads: int = 0  # upload attempts that reached the vault
    drops: int = 0  # attempts lost in transit (chaos)
    retries: int = 0  # re-queued after a drop
    dead_letters: int = 0  # transitions into the dead-letter list
    dead_requeued: int = 0  # transitions back out (requeue_dead admissions)
    close_dead_letters: int = 0  # dead-lettered by close() instead of dropped
    evicted: int = 0  # pushed out of a full queue
    backpressure_flushes: int = 0  # inline flushes forced by a full queue
    queue_peak: int = 0  # high-water mark of the bounded queue
    backoff_cycles: int = 0  # seeded-backoff delay charged, total

    # -- vault ---------------------------------------------------------
    ingested: int = 0  # snaps durably stored
    dedupe_hits: int = 0  # content-hash duplicates skipped
    early_dedupe_hits: int = 0  # duplicates caught before compression
    manifest_heals: int = 0  # orphan blobs re-registered in a manifest
    bytes_written: int = 0  # compressed container bytes on disk
    manifest_lines: int = 0  # manifest records appended
    manifest_batches: int = 0  # shard manifest flushes (batched appends)
    group_commits: int = 0  # batch-durability sync points
    sync_coalesced: int = 0  # batches made durable by another's sync
    index_rebuilds: int = 0
    signatures_mined: int = 0  # stored snaps that yielded a crash signature

    # -- retention / compaction (the GC pass) ---------------------------
    compactions: int = 0  # compact() passes that ran to completion
    entries_compacted: int = 0  # manifest entries removed by compaction
    blobs_deleted: int = 0  # TBSZ2 blobs unlinked by compaction
    reclaimed_bytes: int = 0  # compressed bytes freed by compaction
    pins_honored: int = 0  # expired entries kept by a pin rule
    tombstones_written: int = 0  # dead-entry markers appended to manifests
    gc_redo_deletes: int = 0  # interrupted deletions finished at open

    # -- incident index ------------------------------------------------
    index_persists: int = 0  # incidents.idx checkpoints written
    index_loads: int = 0  # incidents.idx adopted as-is at open
    index_catchups: int = 0  # entries replayed on top of a checkpoint
    index_open_rebuilds: int = 0  # opens with no usable incidents.idx
    incident_lookups: int = 0  # O(result) indexed incident queries

    # -- query engine --------------------------------------------------
    queries: int = 0
    entries_scanned: int = 0
    reconstructions: int = 0
    incidents_built: int = 0

    # -- triage ("top crashers") ----------------------------------------
    top_queries: int = 0  # ranked-bucket listings served
    reports_rendered: int = 0  # triage reports built (text/JSON/HTML)

    # -- remote query / federation --------------------------------------
    remote_requests: int = 0  # protocol exchanges started (incl. retries)
    remote_retries: int = 0  # attempts repeated after a lost exchange
    remote_timeouts: int = 0  # requests that exhausted deadline/retries
    remote_pages: int = 0  # response pages fetched
    remote_blob_fetches: int = 0  # TBSZ2 blobs pulled (CRC-checked)
    remote_backoff_cycles: int = 0  # retry delay charged, total
    federated_queries: int = 0  # scatter-gather fan-outs served
    federated_vault_losses: int = 0  # vaults a federated query lost

    extra: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Plain attribute (not a dataclass field): excluded from
        # to_dict/vars-based rendering by the underscore convention.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def bump(self, **counters: int) -> None:
        """Atomically increment counters shared across threads."""
        with self._lock:
            for name, delta in counters.items():
                setattr(self, name, getattr(self, name) + delta)

    def bump_peak(self, name: str, value: int) -> None:
        """Atomically raise a high-water-mark counter to ``value``."""
        with self._lock:
            if value > getattr(self, name):
                setattr(self, name, value)

    # ------------------------------------------------------------------
    @property
    def dedupe_rate(self) -> float:
        """Fraction of arriving snaps that were duplicates."""
        seen = self.ingested + self.dedupe_hits
        return self.dedupe_hits / seen if seen else 0.0

    def to_dict(self) -> dict:
        d = {
            k: v
            for k, v in vars(self).items()
            if k != "extra" and not k.startswith("_")
        }
        d["dedupe_rate"] = round(self.dedupe_rate, 4)
        d.update(self.extra)
        return d

    def render(self) -> str:
        """Multi-line operator summary (the CLI's metrics block)."""
        lines = ["fleet metrics:"]
        lines.append(
            f"  uplink: {self.submitted} submitted, {self.batches} batches, "
            f"{self.uploads} uploaded, {self.drops} dropped in transit, "
            f"{self.retries} retried, {self.dead_letters} dead-lettered"
        )
        lines.append(
            f"  queue: peak {self.queue_peak}, {self.evicted} evicted, "
            f"{self.backpressure_flushes} back-pressure flushes, "
            f"{self.backoff_cycles} backoff cycles"
        )
        lines.append(
            f"  vault: {self.ingested} stored, {self.dedupe_hits} deduped "
            f"({self.dedupe_rate:.0%}, {self.early_dedupe_hits} early), "
            f"{self.manifest_heals} healed, {self.bytes_written} bytes, "
            f"{self.index_rebuilds} index rebuilds"
        )
        lines.append(
            f"  gc: {self.compactions} compactions, "
            f"{self.entries_compacted} entries compacted, "
            f"{self.blobs_deleted} blobs deleted, "
            f"{self.reclaimed_bytes} bytes reclaimed, "
            f"{self.pins_honored} pins honored"
        )
        lines.append(
            f"  incident index: {self.index_persists} persists, "
            f"{self.index_loads} loads, {self.index_catchups} catch-up "
            f"entries, {self.index_open_rebuilds} open rebuilds, "
            f"{self.incident_lookups} indexed lookups"
        )
        lines.append(
            f"  query: {self.queries} queries, {self.entries_scanned} entries "
            f"scanned, {self.reconstructions} reconstructions, "
            f"{self.incidents_built} incidents"
        )
        lines.append(
            f"  triage: {self.signatures_mined} signatures mined, "
            f"{self.top_queries} top queries, "
            f"{self.reports_rendered} reports"
        )
        lines.append(
            f"  remote: {self.remote_requests} requests, "
            f"{self.remote_pages} pages, {self.remote_retries} retried, "
            f"{self.remote_timeouts} timed out, "
            f"{self.remote_blob_fetches} blobs fetched; "
            f"federation: {self.federated_queries} queries, "
            f"{self.federated_vault_losses} vault losses"
        )
        return "\n".join(lines)
