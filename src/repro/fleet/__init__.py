"""``repro.fleet`` — the fleet snap vault (§3.6.1, §3.7.5 deployment).

Five layers turn per-session snaps into durable, queryable evidence:

* :mod:`repro.fleet.store` — sharded on-disk vault of TBSZ2 archives
  (content-hash dedupe, atomic writes, JSON-lines manifests, a
  rebuildable machine/process/reason/timestamp index); concurrent
  multi-collector ingest under shard-level single-writer locks, with
  the CPU-heavy per-snap work factored into :func:`prepare_snap`, which
  each collector runs on its own thread;
* :mod:`repro.fleet.collector` — the uplink service processes forward
  snaps through (batching, bounded queue with back-pressure, seeded
  retry-with-backoff over the simulated network, batches prepared on
  the collector's thread and committed with one ``put_batch``);
* :mod:`repro.fleet.index` — the persisted, incrementally-maintained
  incident index (``incidents.idx``): correlation moves to ingest
  time, queries read a precomputed partition;
* :mod:`repro.fleet.query` — filters, lazy reconstruction, and
  incident grouping (group-snap fan-outs and SYNC-linked snaps),
  O(result) through the index; :class:`VaultSource` is the query
  surface every local, remote and federated view serves;
* :mod:`repro.fleet.metrics` — the ingest/dedupe/retry/store counters
  the CLI surfaces;
* :mod:`repro.fleet.retention` — declarative retention policies and
  compaction planning: ``tbtrace gc`` prints the plan,
  :meth:`SnapVault.compact` applies it crash-safely (tombstone commit
  points, redo-at-open, pins for open incidents, dead letters, and
  triage-bucket exemplars);
* :mod:`repro.fleet.triage` — crash-signature triage: ranked "top
  crashers" buckets mined from reconstructed evidence, the
  ``tbtrace top`` / ``tbtrace report`` views, and the pairwise
  precision/recall metric the chaos ground-truth harness scores the
  signature function with;
* :mod:`repro.fleet.remote` — the versioned vault query protocol
  (CRC-framed, paginated, every reply item type-checked) and the
  :class:`RemoteVaultClient` source over the simulated network, with
  per-request deadlines and seeded retry-with-backoff;
* :mod:`repro.fleet.federation` — scatter-gather over any mix of
  local and remote sources (one source passes through unchanged):
  incident partitions merge across vaults through their SYNC links,
  triage buckets merge under min-signature union, and every answer
  carries a :class:`FederationReport` coverage ladder (full → partial
  → degraded) instead of erroring on a lost vault.
"""

from repro.fleet.collector import Collector, PendingUpload, backoff_with_jitter
from repro.fleet.federation import (
    FederatedQuery,
    FederationReport,
    VaultStatus,
    canonical_buckets,
    canonical_entries,
    canonical_incidents,
)
from repro.fleet.index import IncidentIndex
from repro.fleet.metrics import FleetMetrics
from repro.fleet.query import Incident, VaultQuery, VaultSource
from repro.fleet.remote import (
    ProtocolError,
    RemoteQueryError,
    RemoteVaultClient,
    VaultService,
    VaultTimeout,
    VaultUnavailable,
)
from repro.fleet.retention import (
    CompactionPlan,
    RetentionError,
    RetentionPolicy,
    plan_compaction,
)
from repro.fleet.triage import (
    CrashBucket,
    build_report,
    pairwise_scores,
    render_report_html,
    render_report_text,
    top_buckets,
)
from repro.fleet.store import (
    PreparedSnap,
    SnapVault,
    StoreResult,
    VaultEntry,
    VaultError,
    content_digest,
    mine_sync_ids,
    prepare_snap,
)

__all__ = [
    "Collector",
    "CompactionPlan",
    "CrashBucket",
    "FederatedQuery",
    "FederationReport",
    "FleetMetrics",
    "Incident",
    "IncidentIndex",
    "PendingUpload",
    "PreparedSnap",
    "ProtocolError",
    "RemoteQueryError",
    "RemoteVaultClient",
    "RetentionError",
    "RetentionPolicy",
    "SnapVault",
    "StoreResult",
    "VaultEntry",
    "VaultError",
    "VaultQuery",
    "VaultService",
    "VaultSource",
    "VaultStatus",
    "VaultTimeout",
    "VaultUnavailable",
    "backoff_with_jitter",
    "build_report",
    "canonical_buckets",
    "canonical_entries",
    "canonical_incidents",
    "content_digest",
    "mine_sync_ids",
    "pairwise_scores",
    "plan_compaction",
    "prepare_snap",
    "render_report_html",
    "render_report_text",
    "top_buckets",
]
