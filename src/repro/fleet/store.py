"""The snap vault: a sharded, indexed, on-disk store of TBSZ2 archives.

The paper's deployment (§3.6.1, §3.7.5) forwards every machine's snaps
to a central point where support engineers later query and reconstruct
them.  This module is that central point's disk format:

* **shards** — ``shard-00/ .. shard-NN/`` under the vault root; a snap
  lands in the shard named by its content hash, so load spreads evenly
  and shards can later be split across collectors;
* **content-hash dedupe** — the digest of the snap's canonical JSON is
  the blob filename; a group snap that fans out to N peers and arrives
  N times is stored once (§3.6.2's suppression argument, applied at
  the vault);
* **atomic writes** — blobs and index files go through temp-file +
  ``os.replace`` (:func:`repro.runtime.archive.write_atomic`), so the
  abrupt kills ``repro.chaos`` injects can never tear a stored archive;
* **JSON-lines manifest per shard** — ``manifest.jsonl``, append-only,
  one line per stored snap with everything queries filter on (machine,
  process, reason, clock, SYNC logical-thread ids, group-snap detail);
  a torn trailing line (kill mid-append) is skipped on load;
* **rebuildable index** — the in-memory index is derived purely from
  the manifests, and the manifests themselves can be regenerated from
  the archives via :meth:`SnapVault.rebuild_index`.

Concurrency model (the multi-collector ingest pipeline):

* the CPU-heavy per-snap work — canonical-JSON digest, TBSZ2
  compression, SYNC-id salvage mining — lives in :func:`prepare_snap`,
  which each collector runs on its own thread, outside every vault
  lock;
* one **index lock** serializes dedupe checks, sequence assignment,
  and incident-index maintenance (so incident edges are applied in
  ingest-sequence order even under concurrent collectors);
* one **lock per shard** owns that shard's manifest: a batch's lines
  are appended with a single ``os.write``, so a kill mid-batch tears
  at most the final line of one append — which loading skips;
* under ``durability="batch"``, blobs are written without per-file
  fsync and one group sync point covers the whole batch *before* any
  manifest line records it (group commit): a crash can lose at most
  the un-manifested tail of one batch, and the blobs that did land are
  healed back into a manifest on the next duplicate arrival or
  ``rebuild_index()``.

Retention + compaction (the GC pass; see :mod:`repro.fleet.retention`):

* :meth:`SnapVault.compact` applies a :class:`RetentionPolicy` plan.
  Per shard, under that shard's single-writer lock: one **tombstone
  line** (a single JSON line naming every victim digest, one
  ``os.write``) is appended first — that line is the shard's commit
  point, after which loading yields exactly the post-compaction view
  (a torn tombstone is skipped and yields exactly the pre-compaction
  view; there is no in-between) — then victim blobs are unlinked, then
  the manifest is atomically rewritten without dead entries or
  tombstones (temp + ``os.replace``);
* a kill -9 anywhere in that sequence loses no live snap: blob
  deletion is a *redo* of what the tombstone already committed, and
  opening a vault finishes any interrupted deletions
  (``gc_redo_deletes``) so no orphan blob survives a crash-interrupted
  compaction;
* the ``incidents.idx`` checkpoint is invalidated before the first
  manifest mutation and rebuilt from the surviving entries afterwards,
  so a crash can never leave a checkpoint that outlives the manifests
  it summarized; victims leave the index's bucket summaries in the
  same lock hold that drops them from the in-memory view, so ``top()``
  never counts an entry the vault no longer holds;
* compaction runs concurrently with multi-collector ingest: a
  re-arrival of content being collected re-stores it as a fresh entry
  (its manifest line lands after the tombstone, and per-shard
  last-writer-wins loading resurrects it).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass, field

from repro.fleet.metrics import FleetMetrics
from repro.instrument.mapfile import Mapfile
from repro.reconstruct.recovery import recover_spans_salvage
from repro.runtime.archive import (
    compress_snap,
    decompress_snap,
    salvage_decompress,
    write_atomic,
)
from repro.runtime.records import ExtKind, ExtRecord
from repro.runtime.snap import SnapFile

#: Blob filename suffix inside a shard.
BLOB_SUFFIX = ".tbsz"

#: Manifest filename inside each shard directory.
MANIFEST = "manifest.jsonl"

#: Key of a dead-entry marker line in a manifest: ``{"tomb": [digests]}``.
#: One tombstone line lists every victim of one compaction pass in that
#: shard, so its single append is the shard's atomic commit point.
TOMBSTONE_KEY = "tomb"

#: Subdirectory where module mapfiles ride along with the evidence.
MAPFILE_DIR = "mapfiles"

_OPTIONAL_STR = (str, type(None))

#: The JSON types each manifest field may hold (exact types: a bool is
#: not a seq).  Opening a vault sorts, hashes and indexes these fields,
#: so a line that parses but carries a wrong-typed one is skipped like
#: a torn line instead of raising out of ``SnapVault(root)``.
ENTRY_FIELD_TYPES = {
    "digest": (str,),
    "seq": (int,),
    "shard": (int,),
    "machine": (str,),
    "process": (str,),
    "pid": (int,),
    "reason": (str,),
    "clock": (int,),
    "size": (int,),
    "sync_ids": (list,),
    "group": _OPTIONAL_STR,
    "initiator": _OPTIONAL_STR,
    "initiator_reason": _OPTIONAL_STR,
    "sig": _OPTIONAL_STR,
    "replayable": (str,),
}


class VaultError(ValueError):
    """The vault layout or a stored artifact is unusable."""


def content_digest(snap: SnapFile) -> str:
    """Content hash of a snap: sha256 over its canonical JSON.

    Computed on the *uncompressed* canonical form, so the digest is
    stable across compression levels and container versions.
    """
    canonical = json.dumps(snap.to_dict(), sort_keys=True).encode()
    return hashlib.sha256(canonical).hexdigest()[:32]


def mine_sync_ids(snap: SnapFile) -> list[int]:
    """Logical-thread ids of every SYNC record surviving in ``snap``.

    Mined with the salvage span recovery (never raises on damage), so
    incident grouping works even for snaps whose buffers are hurt.
    These ids are what link one machine's snap to its RPC partners'.
    """
    if not snap.buffers:
        return []
    ids: set[int] = set()
    try:
        recovered = recover_spans_salvage(snap.buffers)
    except Exception:  # noqa: BLE001 — mining is best-effort metadata
        return []
    for span in recovered.spans:
        for record in span.records:
            if isinstance(record, ExtRecord) and record.kind == ExtKind.SYNC:
                if len(record.payload) >= 2:
                    ids.add(record.payload[1])
    return sorted(ids)


@dataclass
class VaultEntry:
    """One manifest line: the queryable metadata of a stored snap."""

    digest: str
    seq: int  # vault-wide ingest sequence number
    shard: int
    machine: str
    process: str
    pid: int
    reason: str
    clock: int
    size: int  # compressed container bytes
    sync_ids: list[int] = field(default_factory=list)
    #: Group-snap correlation (``detail`` of reason="group" snaps, and
    #: the initiating snap's own reason for everyone else).
    group: str | None = None
    initiator: str | None = None
    initiator_reason: str | None = None
    #: Crash signature mined from the reconstructed evidence (triage
    #: bucket key); None for non-fault snaps or unminable evidence.
    #: Appended last with a default so pre-signature manifests load.
    sig: str | None = None
    #: Replay capability of the stored snap: "full" (carries an ndlog
    #: mapping — its format is checked at replay, see
    #: ``repro.replay.ndlog.replayable_status``), "seed-only", or
    #: "none".  Defaulted so pre-replay manifests load; rebuild_index
    #: re-derives it from the archive.
    replayable: str = "none"

    def to_dict(self) -> dict:
        return dict(vars(self))

    @classmethod
    def from_dict(cls, d: dict) -> "VaultEntry":
        return cls(**d)

    def well_typed(self) -> bool:
        """Every field holds the type a manifest line must carry."""
        fields = vars(self)
        for name, types in ENTRY_FIELD_TYPES.items():
            if type(fields[name]) not in types:
                return False
        return all(type(i) is int for i in self.sync_ids)

    @classmethod
    def from_snap(
        cls,
        snap: SnapFile,
        digest: str,
        seq: int,
        shard: int,
        size: int,
        sync_ids: list[int] | None = None,
        sig: str | None = None,
    ) -> "VaultEntry":
        detail = snap.detail if isinstance(snap.detail, dict) else {}
        return cls(
            digest=digest,
            seq=seq,
            shard=shard,
            machine=snap.machine_name,
            process=snap.process_name,
            pid=snap.pid,
            reason=snap.reason,
            clock=snap.clock,
            size=size,
            sync_ids=mine_sync_ids(snap) if sync_ids is None else sync_ids,
            group=detail.get("group"),
            initiator=detail.get("initiator"),
            initiator_reason=detail.get("initiator_reason"),
            sig=sig,
            replayable=getattr(snap, "replayable", "none"),
        )


@dataclass
class StoreResult:
    """Outcome of one :meth:`SnapVault.put`."""

    digest: str
    deduped: bool
    entry: VaultEntry


@dataclass
class PreparedSnap:
    """The CPU-heavy half of a store, done outside the vault's locks.

    Collectors run :func:`prepare_snap` on their own threads before
    :meth:`SnapVault.put_batch`; the vault's commit then only touches
    disk and dictionaries.  ``data is None`` marks an early dedupe: the
    digest was already known when preparation ran, so compression and
    SYNC mining were skipped.
    """

    snap: SnapFile
    digest: str
    sync_ids: list[int] | None = None
    data: bytes | None = None
    early_deduped: bool = False
    #: Crash signature (triage metadata).  ``sig_mined`` distinguishes
    #: "mined, and there is none" from "not mined yet".
    sig: str | None = None
    sig_mined: bool = False

    def ensure_sync_ids(self) -> list[int]:
        if self.sync_ids is None:
            self.sync_ids = mine_sync_ids(self.snap)
        return self.sync_ids

    def ensure_data(self, compress_level: int) -> bytes:
        if self.data is None:
            self.data = compress_snap(self.snap, compress_level)
        return self.data

    def ensure_sig(self, signer) -> str | None:
        if not self.sig_mined:
            self.sig = signer(self.snap) if signer is not None else None
            self.sig_mined = True
        return self.sig


def prepare_snap(
    snap: SnapFile,
    compress_level: int = 6,
    known=None,
    signer=None,
) -> PreparedSnap:
    """Digest, mine, and compress one snap (the collector's stage).

    ``known`` is an optional ``digest -> bool`` predicate (typically
    :meth:`SnapVault.contains`): when it already knows the digest, the
    expensive compression and mining are skipped and the commit path
    records an early dedupe.  The check is advisory — the vault
    re-checks under its lock, so a stale verdict only costs work,
    never correctness.

    ``signer`` is an optional ``snap -> str | None`` (typically
    :meth:`SnapVault.sign`) mining the crash signature here, on the
    collector's thread, instead of under the vault's index lock at
    commit.
    """
    digest = content_digest(snap)
    if known is not None and known(digest):
        return PreparedSnap(snap=snap, digest=digest, early_deduped=True)
    prepared = PreparedSnap(
        snap=snap,
        digest=digest,
        sync_ids=mine_sync_ids(snap),
        data=compress_snap(snap, compress_level),
    )
    if signer is not None:
        prepared.ensure_sig(signer)
    return prepared


class SnapVault:
    """A sharded snap store rooted at a directory.

    Safe for concurrent ``put``/``put_batch`` from multiple collector
    threads: dedupe + sequence assignment + incident-index maintenance
    run under one index lock, blob writes are atomic renames, and each
    shard's manifest has a single-writer lock.
    """

    def __init__(
        self,
        root: str,
        shards: int = 4,
        metrics: FleetMetrics | None = None,
        compress_level: int = 6,
        link_window: int | None = None,
        durability: str = "strict",
    ):
        if shards < 1:
            raise VaultError(f"shard count must be >= 1, got {shards}")
        if durability not in ("strict", "batch"):
            raise VaultError(
                f"durability must be 'strict' or 'batch', got {durability!r}"
            )
        self.root = root
        self.shards = shards
        self.metrics = metrics or FleetMetrics()
        self.compress_level = compress_level
        self.link_window = link_window
        self.durability = durability
        #: digest -> entry, insertion-ordered by ingest sequence.
        self.index: dict[str, VaultEntry] = {}
        self._next_seq = 0
        self._lock = threading.RLock()
        self._shard_locks = [threading.Lock() for _ in range(shards)]
        #: One compaction / manifest-regeneration pass at a time.
        self._compact_lock = threading.Lock()
        #: ``digest -> set()`` callables whose results pin content
        #: against GC (collectors register their queues/dead letters).
        self._pin_sources: list = []
        #: Crash-injection hook for the GC fuzz tests: called with a
        #: label at every point a kill -9 could land mid-compaction.
        self._crash_hook = None
        # Group-commit sync coalescing (durability="batch"): a batch is
        # durable once ANY os.sync() that started after its blob writes
        # completed finishes, so concurrent batches share sync points
        # instead of each paying for their own.
        self._sync_cond = threading.Condition()
        self._write_epoch = 0
        self._synced_epoch = 0
        self._sync_in_progress = False
        #: Parsed-mapfile cache for signature mining, keyed by the
        #: mapfile directory listing (invalidated by put_mapfile and by
        #: another process adding files — the listing changes).
        self._mapfile_cache: tuple[tuple[str, ...], list[Mapfile]] | None = (
            None
        )
        os.makedirs(root, exist_ok=True)
        for shard in range(shards):
            os.makedirs(self._shard_dir(shard), exist_ok=True)
        os.makedirs(os.path.join(root, MAPFILE_DIR), exist_ok=True)
        self._load_manifests()
        #: Digests durably recorded in a manifest (preloaded at open so
        #: duplicate submissions into a reopened vault still register
        #: as dedupe hits).
        self._digests: set[str] = set(self.index)
        #: Digests whose manifest line is durably on disk — the only
        #: entries compaction may victimize (an entry mid-commit has no
        #: durable line yet; tombstoning it would let its own append
        #: resurrect a deleted blob).
        self._manifested: set[str] = set(self.index)
        #: Blobs on disk (a superset after a kill between a blob write
        #: and its manifest line — those orphans are healed on the next
        #: duplicate arrival instead of being stored twice).
        self._blob_digests: set[str] = self._scan_blobs()
        self._finish_interrupted_gc()
        self._load_incident_index()

    # ------------------------------------------------------------------
    # Layout
    # ------------------------------------------------------------------
    def _shard_dir(self, shard: int) -> str:
        return os.path.join(self.root, f"shard-{shard:02d}")

    def shard_of(self, digest: str) -> int:
        """Content-addressed shard placement."""
        return int(digest[:8], 16) % self.shards

    def blob_path(self, digest: str) -> str:
        return os.path.join(
            self._shard_dir(self.shard_of(digest)), digest + BLOB_SUFFIX
        )

    def contains(self, digest: str) -> bool:
        """Is this content already durably recorded?  (Advisory: the
        commit path re-checks under the index lock.)"""
        return digest in self._digests

    def _scan_blobs(self) -> set[str]:
        found: set[str] = set()
        for shard in range(self.shards):
            for name in os.listdir(self._shard_dir(shard)):
                if name.endswith(BLOB_SUFFIX):
                    found.add(name[: -len(BLOB_SUFFIX)])
        return found

    # ------------------------------------------------------------------
    # Manifest / index
    # ------------------------------------------------------------------
    @staticmethod
    def _read_manifest(path: str) -> tuple[dict[str, "VaultEntry"], set[str]]:
        """Parse one shard manifest with last-writer-wins semantics.

        Returns ``(live, dead)``: live entries keyed by digest in file
        order, and digests whose *final* state is a tombstone.  A
        tombstone line kills every entry that precedes it; a later
        entry line resurrects the digest (re-ingest after compaction).
        Unparseable lines — a torn tail from a kill mid-append — are
        skipped, which is exactly the pre-write view; so are lines that
        parse but carry a wrong-typed field (:data:`ENTRY_FIELD_TYPES`)
        or a tombstone naming a non-digest.  Such an entry's blob heals
        back on redelivery or through :meth:`rebuild_index`.
        """
        live: dict[str, VaultEntry] = {}
        dead: set[str] = set()
        if not os.path.exists(path):
            return live, dead
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    continue
                if isinstance(record, dict) and TOMBSTONE_KEY in record:
                    victims = record[TOMBSTONE_KEY]
                    if isinstance(victims, str):
                        victims = [victims]
                    if not isinstance(victims, list) or not all(
                        isinstance(d, str) for d in victims
                    ):
                        continue
                    for digest in victims:
                        live.pop(digest, None)
                        dead.add(digest)
                    continue
                try:
                    entry = VaultEntry.from_dict(record)
                except (TypeError, KeyError):
                    # A torn trailing line from a kill mid-append:
                    # the blob write is atomic, so rebuild_index can
                    # still restore this entry from the archive.
                    continue
                if not entry.well_typed():
                    continue
                # Re-insert so a resurrected digest sorts after its
                # tombstone in file order.
                live.pop(entry.digest, None)
                live[entry.digest] = entry
                dead.discard(entry.digest)
        return live, dead

    def _load_manifests(self) -> None:
        entries: list[VaultEntry] = []
        max_seen = -1
        self._tombstoned_dead: set[str] = set()
        for shard in range(self.shards):
            path = os.path.join(self._shard_dir(shard), MANIFEST)
            live, dead = self._read_manifest(path)
            entries.extend(live.values())
            self._tombstoned_dead |= dead
        entries.sort(key=lambda e: e.seq)
        for entry in entries:
            self.index[entry.digest] = entry
            max_seen = max(max_seen, entry.seq)
        self._next_seq = max_seen + 1

    def _finish_interrupted_gc(self) -> None:
        """Redo blob deletions a killed compaction left unfinished.

        A tombstone is the durable commitment that its digests are
        dead; unlinking their blobs is idempotent redo.  Running it at
        open restores the invariant that every blob on disk is either
        manifested or a heal-pending ingest orphan — never a deleted
        snap's leftover that ``rebuild_index()`` would resurrect.
        """
        for digest in self._tombstoned_dead:
            if digest in self._blob_digests:
                try:
                    os.unlink(self.blob_path(digest))
                except OSError:
                    continue
                self._blob_digests.discard(digest)
                self.metrics.gc_redo_deletes += 1

    def _load_incident_index(self) -> None:
        from repro.fleet.index import IncidentIndex

        self.incident_index, how = IncidentIndex.load(
            self.root, list(self.index.values()), window=self.link_window
        )
        if how == "loaded":
            self.metrics.index_loads += 1
        elif how == "caught-up":
            self.metrics.index_loads += 1
            self.metrics.index_catchups += self.incident_index.dirty
        elif self.index:
            # No usable checkpoint (missing, torn, malformed, another
            # window, or disowned by the manifests): every entry was
            # replayed from scratch.
            self.metrics.index_open_rebuilds += 1

    def flush_index(self) -> str | None:
        """Checkpoint the incident index to ``incidents.idx`` when due.

        Collectors call this when a drain completes.  It writes only
        when no valid checkpoint is on disk, or when the entries added
        since the last one reach an eighth of the entries it covers
        (``CHECKPOINT_TAIL`` in :mod:`repro.fleet.index`); otherwise it
        returns None and the new entries live only in the manifests.
        The checkpoint is an accelerator: an open replays the
        un-flushed tail — under a ninth of the vault — on top of it.
        Returns the checkpoint's path when it wrote one.
        """
        with self._lock:
            if os.path.exists(
                os.path.join(self.root, self.incident_index_path())
            ) and not self.incident_index.checkpoint_due():
                return None
            path = self.incident_index.persist(self.root)
            self.metrics.index_persists += 1
            return path

    @staticmethod
    def incident_index_path() -> str:
        from repro.fleet.index import INDEX_FILE

        return INDEX_FILE

    def _manifest_lines(self, shard: int, lines: list[str]) -> None:
        """Append a batch's manifest lines with a single ``os.write``.

        One write syscall per shard per batch: a kill mid-batch can
        tear at most the *final* line of the append, which manifest
        loading already skips — never a line in the middle.
        """
        path = os.path.join(self._shard_dir(shard), MANIFEST)
        payload = ("\n".join(lines) + "\n").encode()
        with self._shard_locks[shard]:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                os.write(fd, payload)
            finally:
                os.close(fd)

    def rebuild_index(self) -> int:
        """Regenerate every manifest from the stored archives.

        The archives are the source of truth; manifests are derived
        state.  Returns the number of entries recovered.  Sequence
        numbers are reassigned in digest order (ingest order is lost
        with the manifests — archives carry no vault timestamps).
        The incident index is rebuilt and re-persisted from the fresh
        manifests in the same pass; the on-disk checkpoint is
        invalidated *before* the first manifest is touched, so a kill
        anywhere mid-rebuild can never leave a pre-rebuild checkpoint
        next to post-rebuild manifests — reopening rebuilds from the
        manifests instead of serving stale groupings.
        """
        from repro.fleet.index import IncidentIndex

        with self._compact_lock, self._lock:
            self._invalidate_incident_checkpoint()
            self._gc_point("rebuild-checkpoint-invalidated")
            self.index.clear()
            self._next_seq = 0
            self.metrics.index_rebuilds += 1
            recovered = 0
            for shard in range(self.shards):
                shard_dir = self._shard_dir(shard)
                lines = []
                for name in sorted(os.listdir(shard_dir)):
                    if not name.endswith(BLOB_SUFFIX):
                        continue
                    digest = name[: -len(BLOB_SUFFIX)]
                    path = os.path.join(shard_dir, name)
                    with open(path, "rb") as fh:
                        data = fh.read()
                    snap, _notes = salvage_decompress(data)
                    if snap is None:
                        continue
                    entry = VaultEntry.from_snap(
                        snap, digest, seq=self._next_seq, shard=shard,
                        size=len(data), sig=self.sign(snap),
                    )
                    self._next_seq += 1
                    self.index[entry.digest] = entry
                    lines.append(json.dumps(entry.to_dict()))
                    recovered += 1
                manifest = os.path.join(shard_dir, MANIFEST)
                write_atomic(
                    ("\n".join(lines) + "\n" if lines else "").encode(),
                    manifest,
                )
                self._gc_point(f"rebuild-manifest-{shard:02d}")
            self._digests = set(self.index)
            self._manifested = set(self.index)
            self._tombstoned_dead = set()
            self._blob_digests = self._scan_blobs()
            self.incident_index = IncidentIndex.rebuild(
                list(self.index.values()), window=self.link_window
            )
            self._gc_point("rebuild-index-rebuilt")
            self.incident_index.persist(self.root)
            self.metrics.index_persists += 1
            return recovered

    # ------------------------------------------------------------------
    # Retention / compaction (the GC pass)
    # ------------------------------------------------------------------
    def add_pin_source(self, source) -> None:
        """Register a ``() -> set[str]`` of digests GC must retain.

        Collectors register their in-flight queue + dead-letter digests
        here (the pin protocol): content a dead letter may redeliver is
        never collected out from under it.
        """
        with self._lock:
            if source not in self._pin_sources:
                self._pin_sources.append(source)

    def remove_pin_source(self, source) -> None:
        with self._lock:
            if source in self._pin_sources:
                self._pin_sources.remove(source)

    def _invalidate_incident_checkpoint(self) -> None:
        """Drop ``incidents.idx`` before mutating what it summarizes."""
        try:
            os.unlink(os.path.join(self.root, self.incident_index_path()))
        except OSError:
            pass

    def _gc_point(self, label: str) -> None:
        """A point where the GC fuzz tests may simulate a kill -9."""
        hook = self._crash_hook
        if hook is not None:
            hook(label)

    def plan_compaction(self, policy, now: int | None = None):
        """What :meth:`compact` would delete — the ``--dry-run`` view.

        Computed under the index lock against the durably-manifested
        entry set, so the plan is a consistent snapshot: applying it
        deletes exactly this set (entries ingested after planning are
        untouched either way).
        """
        from repro.fleet.retention import plan_compaction

        with self._lock:
            entries = [
                e for e in self.index.values() if e.digest in self._manifested
            ]
            return plan_compaction(
                entries,
                policy,
                incident_index=self.incident_index,
                pin_sources=list(self._pin_sources),
                now=now,
            )

    def compact(self, policy=None, plan=None, now: int | None = None):
        """Apply a retention policy: tombstone, delete, rewrite, reindex.

        Crash-safe by construction — per shard, under that shard's
        single-writer lock:

        1. one tombstone line naming every victim is appended with a
           single ``os.write`` (the commit point: torn = pre view,
           landed = post view, nothing in between);
        2. victims leave the in-memory index — and, in the same lock
           hold, the incident index's bucket summaries — so a
           concurrent re-arrival of the same content re-stores it
           fresh and ``top()`` counts only what the vault holds;
        3. victim blobs are unlinked (idempotent redo of what the
           tombstone committed; a kill here is finished at next open);
        4. the manifest is atomically rewritten without dead entries
           or tombstones.

        The ``incidents.idx`` checkpoint is invalidated before step 1
        and rebuilt from the survivors after the last shard.  Safe to
        run concurrently with multi-collector ingest; one compaction
        pass at a time.  Returns the applied
        :class:`~repro.fleet.retention.CompactionPlan`.
        """
        if (policy is None) == (plan is None):
            raise VaultError("pass exactly one of policy= or plan=")
        with self._compact_lock:
            if plan is None:
                plan = self.plan_compaction(policy, now=now)
            if not plan.victims:
                with self._lock:
                    self.metrics.compactions += 1
                    self.metrics.pins_honored += len(plan.pinned)
                return plan
            # The checkpoint must never outlive the manifests it was
            # computed from: drop it before the first mutation.
            self._invalidate_incident_checkpoint()
            self._gc_point("checkpoint-invalidated")
            by_shard: dict[int, list[VaultEntry]] = {}
            for entry in plan.victims:
                by_shard.setdefault(entry.shard, []).append(entry)
            removed = blobs_deleted = reclaimed = 0
            for shard, victims in sorted(by_shard.items()):
                with self._shard_locks[shard]:
                    # Leave the in-memory view first: from here on a
                    # re-arrival of victim content re-stores it fresh
                    # (and resurrects it, since its manifest line lands
                    # after our tombstone) instead of dedup-hitting an
                    # entry that is about to die.
                    with self._lock:
                        dropped = []
                        for entry in victims:
                            if self.index.pop(entry.digest, None) is not None:
                                dropped.append(entry.digest)
                            self._digests.discard(entry.digest)
                            self._manifested.discard(entry.digest)
                        self.incident_index.drop(dropped)
                        removed += len(dropped)
                    self._append_tombstone(
                        shard, [e.digest for e in victims]
                    )
                    with self._lock:
                        self.metrics.tombstones_written += 1
                    self._gc_point(f"tombstoned-{shard:02d}")
                    for entry in victims:
                        # Unlink under the index lock: a concurrent
                        # re-ingest registers (phase 1, locked) before
                        # it writes its blob, so either we see the
                        # registration and keep the blob, or our unlink
                        # strictly precedes its fresh write.
                        with self._lock:
                            if entry.digest in self._digests:
                                continue  # resurrected by re-ingest
                            try:
                                path = self.blob_path(entry.digest)
                                size = os.path.getsize(path)
                                os.unlink(path)
                            except OSError:
                                continue  # already gone (earlier redo)
                            self._blob_digests.discard(entry.digest)
                            blobs_deleted += 1
                            reclaimed += size
                        self._gc_point(f"unlinked-{entry.digest[:8]}")
                    self._rewrite_manifest(shard)
                    self._gc_point(f"rewritten-{shard:02d}")
            with self._lock:
                from repro.fleet.index import IncidentIndex

                self.incident_index = IncidentIndex.rebuild(
                    list(self.index.values()), window=self.link_window
                )
                self._gc_point("index-rebuilt")
                self.incident_index.persist(self.root)
                self.metrics.index_persists += 1
                self.metrics.compactions += 1
                self.metrics.entries_compacted += removed
                self.metrics.blobs_deleted += blobs_deleted
                self.metrics.reclaimed_bytes += reclaimed
                self.metrics.pins_honored += len(plan.pinned)
            return plan

    def _append_tombstone(self, shard: int, digests: list[str]) -> None:
        """One dead-marker line, one ``os.write`` — the commit point.

        Caller holds the shard lock.  All of one pass's victims for the
        shard ride one line, so a torn write drops them all (pre view)
        and a landed write kills them all (post view) — the manifest
        can never show a half-compacted shard.
        """
        path = os.path.join(self._shard_dir(shard), MANIFEST)
        payload = (json.dumps({TOMBSTONE_KEY: digests}) + "\n").encode()
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, payload)
        finally:
            os.close(fd)

    def _rewrite_manifest(self, shard: int) -> None:
        """Rewrite one shard's manifest without dead entries/tombstones.

        Caller holds the shard lock (no concurrent appends).  The file
        itself is the source of durable truth: lines are re-read with
        the same last-writer-wins rules loading uses, so entries whose
        commit raced the compaction (registered but appended later) are
        simply absent here and land after the rewrite.
        """
        path = os.path.join(self._shard_dir(shard), MANIFEST)
        live, _dead = self._read_manifest(path)
        lines = [json.dumps(e.to_dict()) for e in live.values()]
        write_atomic(
            ("\n".join(lines) + "\n" if lines else "").encode(), path
        )

    # ------------------------------------------------------------------
    # Store / load
    # ------------------------------------------------------------------
    def put(self, snap: SnapFile) -> StoreResult:
        """Store one snap; duplicates (by content hash) are skipped.

        The single-snap path keeps strict per-blob durability (fsync
        before the manifest line) regardless of the vault's batch
        setting — group commit only pays off with company.
        """
        return self.put_batch([prepare_snap(snap, self.compress_level)])[0]

    def put_batch(self, items: list[PreparedSnap]) -> list[StoreResult]:
        """Commit a batch of prepared snaps; returns one result each.

        Three phases:

        1. under the index lock — dedupe (including intra-batch
           duplicates and orphan-blob heals), sequence assignment,
           in-memory index + incident-index updates;
        2. no lock — blob writes (atomic renames; per-blob fsync under
           strict durability, one group sync point under batch);
        3. per-shard lock — manifest lines appended in one write per
           shard, only after the blobs they describe are durable.
        """
        results: list[StoreResult | None] = [None] * len(items)
        fresh: list[tuple[int, PreparedSnap, VaultEntry]] = []
        healed: list[VaultEntry] = []
        with self._lock:
            staged: dict[str, VaultEntry] = {}
            for pos, item in enumerate(items):
                digest = item.digest
                entry = self.index.get(digest) or staged.get(digest)
                if entry is not None:
                    self.metrics.dedupe_hits += 1
                    if item.early_deduped:
                        self.metrics.early_dedupe_hits += 1
                    results[pos] = StoreResult(digest, True, entry)
                    continue
                if digest in self._blob_digests:
                    # Orphan blob: it landed durably but its manifest
                    # line was lost (kill between blob and manifest).
                    # Heal: re-register it instead of re-storing.
                    entry = VaultEntry.from_snap(
                        item.snap,
                        digest,
                        seq=self._next_seq,
                        shard=self.shard_of(digest),
                        size=os.path.getsize(self.blob_path(digest)),
                        sync_ids=item.ensure_sync_ids(),
                        sig=item.ensure_sig(self.sign),
                    )
                    self._next_seq += 1
                    self._register(entry, staged)
                    healed.append(entry)
                    self.metrics.dedupe_hits += 1
                    self.metrics.manifest_heals += 1
                    results[pos] = StoreResult(digest, True, entry)
                    continue
                data = item.ensure_data(self.compress_level)
                entry = VaultEntry.from_snap(
                    item.snap,
                    digest,
                    seq=self._next_seq,
                    shard=self.shard_of(digest),
                    size=len(data),
                    sync_ids=item.ensure_sync_ids(),
                    sig=item.ensure_sig(self.sign),
                )
                self._next_seq += 1
                self._register(entry, staged)
                fresh.append((pos, item, entry))
                results[pos] = StoreResult(digest, False, entry)

        group_commit = self.durability == "batch" and len(fresh) > 1
        written = 0
        for _pos, item, entry in fresh:
            write_atomic(
                item.data, self.blob_path(entry.digest),
                fsync=not group_commit,
            )
            written += len(item.data)
        if group_commit:
            self._group_sync()

        by_shard: dict[int, list[str]] = {}
        for entry in [e for _p, _i, e in fresh] + healed:
            by_shard.setdefault(entry.shard, []).append(
                json.dumps(entry.to_dict())
            )
        for shard, lines in sorted(by_shard.items()):
            self._manifest_lines(shard, lines)

        with self._lock:
            for _pos, _item, entry in fresh:
                self._blob_digests.add(entry.digest)
            for entry in [e for _p, _i, e in fresh] + healed:
                self._manifested.add(entry.digest)
            if group_commit:
                self.metrics.group_commits += 1
            self.metrics.ingested += len(fresh)
            self.metrics.bytes_written += written
            self.metrics.manifest_lines += sum(
                len(lines) for lines in by_shard.values()
            )
            self.metrics.manifest_batches += len(by_shard)
        return results  # type: ignore[return-value]

    def _group_sync(self) -> None:
        """Make every blob this thread has written durable, sharing
        sync points with concurrent batches.

        ``os.sync()`` flushes the whole filesystem, so a sync that
        *starts* after our writes completed covers them — like WAL
        group commit, N concurrent batches need one or two syncs, not
        N.  The epoch counter orders "my writes are done" against
        "that sync started"; a thread either rides a sync that will
        cover it, or becomes the next syncer itself.
        """
        with self._sync_cond:
            self._write_epoch += 1
            my_epoch = self._write_epoch
            while True:
                if self._synced_epoch >= my_epoch:
                    # A sync that started after our writes already
                    # finished: we are durable for free.
                    self.metrics.bump(sync_coalesced=1)
                    return
                if not self._sync_in_progress:
                    break
                self._sync_cond.wait()
            self._sync_in_progress = True
            covers = self._write_epoch  # writes completed before we start
        os.sync()
        with self._sync_cond:
            self._synced_epoch = max(self._synced_epoch, covers)
            self._sync_in_progress = False
            self._sync_cond.notify_all()

    def _register(self, entry: VaultEntry, staged: dict) -> None:
        """Index-lock-held bookkeeping for a newly-assigned entry."""
        self.index[entry.digest] = entry
        self._digests.add(entry.digest)
        staged[entry.digest] = entry
        if entry.sig is not None:
            self.metrics.signatures_mined += 1
        # Incident edges must be applied in ingest-sequence order; the
        # caller holds the index lock across seq assignment and here.
        self.incident_index.add(entry)

    def load(
        self, digest: str, salvage: bool = False
    ) -> tuple[SnapFile | None, list[str]]:
        """Read one stored snap back; ``salvage`` tolerates damage."""
        path = self.blob_path(digest)
        with open(path, "rb") as fh:
            data = fh.read()
        if salvage:
            return salvage_decompress(data)
        return decompress_snap(data), []

    # ------------------------------------------------------------------
    # Query surface (the raw one; repro.fleet.query builds on this)
    # ------------------------------------------------------------------
    def select(
        self,
        machine: str | None = None,
        process: str | None = None,
        reason: str | None = None,
        since: int | None = None,
        until: int | None = None,
        group: str | None = None,
    ) -> list[VaultEntry]:
        """Manifest entries matching every given filter, ingest order.

        ``since``/``until`` filter on the snap's machine-local clock
        (inclusive), the index's timestamp key.
        """
        out = []
        with self._lock:
            entries = sorted(self.index.values(), key=lambda e: e.seq)
        for entry in entries:
            if machine is not None and entry.machine != machine:
                continue
            if process is not None and entry.process != process:
                continue
            if reason is not None and entry.reason != reason:
                continue
            if since is not None and entry.clock < since:
                continue
            if until is not None and entry.clock > until:
                continue
            if group is not None and entry.group != group:
                continue
            out.append(entry)
        return out

    def machines(self) -> list[str]:
        """Machine names with at least one stored snap."""
        with self._lock:
            return sorted({e.machine for e in self.index.values()})

    def __len__(self) -> int:
        return len(self.index)

    def store_bytes(self) -> int:
        """Total compressed bytes currently on disk."""
        total = 0
        for shard in range(self.shards):
            shard_dir = self._shard_dir(shard)
            for name in os.listdir(shard_dir):
                if name.endswith(BLOB_SUFFIX):
                    total += os.path.getsize(os.path.join(shard_dir, name))
        return total

    # ------------------------------------------------------------------
    # Mapfiles (reconstruction needs them; they travel with the vault)
    # ------------------------------------------------------------------
    def put_mapfile(self, mapfile: Mapfile) -> str:
        """Store a module mapfile, keyed by instrumented checksum."""
        path = os.path.join(
            self.root, MAPFILE_DIR, f"{mapfile.checksum}.map.json"
        )
        write_atomic(json.dumps(mapfile.to_dict()).encode(), path)
        self._mapfile_cache = None
        return path

    def mapfiles(self) -> list[Mapfile]:
        """Every mapfile stored alongside the snaps.

        Parsed copies are cached against the directory listing —
        signature mining resolves frames through mapfiles on every
        ingest, and re-parsing per snap would put JSON decoding on the
        hot path.
        """
        directory = os.path.join(self.root, MAPFILE_DIR)
        names = tuple(
            sorted(
                name
                for name in os.listdir(directory)
                if name.endswith(".map.json")
            )
        )
        cache = self._mapfile_cache
        if cache is None or cache[0] != names:
            loaded = [
                Mapfile.load(os.path.join(directory, name)) for name in names
            ]
            cache = (names, loaded)
            self._mapfile_cache = cache
        return list(cache[1])

    # ------------------------------------------------------------------
    # Crash-signature mining (triage metadata)
    # ------------------------------------------------------------------
    def sign(self, snap: SnapFile) -> str | None:
        """Mine the crash signature of one snap — best-effort metadata.

        Resolves frames through the vault's stored mapfiles (they are
        uploaded at session attach time, before any snap arrives) and
        never raises; non-fault snaps and unminable evidence yield
        None.  A pure function of (snap content, stored mapfiles), so
        :meth:`rebuild_index` re-derives identical signatures.
        """
        from repro.reconstruct.signature import snap_signature

        return snap_signature(snap, self.mapfiles())
