"""The incident query engine over a snap vault.

A support engineer's question is rarely "show me snap 0x4f2…"; it is
"what happened around the petstore crash on machine-b last night?".
This module turns vault manifest entries into *incidents*:

* **co-triggered group snaps** — a group snap fan-out (§3.6.1) leaves
  one snap per member process, every one tagged with the same
  ``(group, initiator, initiator_reason)``; those, plus the
  initiator's own triggering snap, are one incident, not N;
* **SYNC-linked snaps** — snaps from different machines whose trace
  buffers carry SYNC records of the same logical thread (§5.1) are
  evidence about the same distributed control flow, so they merge into
  the same incident even across machines that share no group.

Reconstruction stays lazy: grouping works from manifest metadata alone
(the SYNC logical ids are mined once, at ingest); archives are only
read when an incident is actually reconstructed — strict or salvage.

The grouping itself is done once, at ingest: the vault maintains a
persisted :class:`~repro.fleet.index.IncidentIndex`, so the default
:meth:`VaultQuery.incidents` call reads a precomputed partition
(O(result)) instead of re-running union-find over the whole manifest
(O(vault)), and :meth:`VaultQuery.incident_of` answers "what happened
around *this* snap" in time proportional to that one incident.  An
ad-hoc entry list or an explicit ``window`` is replayed into a fresh
index of its own, and every listing reads its index the same way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.index import IncidentIndex
from repro.fleet.metrics import FleetMetrics
from repro.fleet.store import SnapVault, VaultEntry
from repro.instrument.mapfile import Mapfile
from repro.reconstruct import DistributedTrace, ProcessTrace, Reconstructor
from repro.runtime.snap import SnapFile

#: Sentinel for "use whatever window the vault's persisted index was
#: built with" — distinct from an explicit ``window=None`` (unbounded).
USE_INDEX_WINDOW = object()


@dataclass
class Incident:
    """A set of snaps that are evidence about one distributed fault."""

    incident_id: int
    entries: list[VaultEntry] = field(default_factory=list)
    #: Why entries were linked: "group-snap" and/or "sync-link".
    links: set[str] = field(default_factory=set)

    # ------------------------------------------------------------------
    @property
    def machines(self) -> list[str]:
        return sorted({e.machine for e in self.entries})

    @property
    def processes(self) -> list[str]:
        return sorted({e.process for e in self.entries})

    @property
    def reasons(self) -> list[str]:
        return sorted({e.reason for e in self.entries})

    @property
    def groups(self) -> list[str]:
        return sorted({e.group for e in self.entries if e.group})

    def initiator(self) -> str | None:
        """The process whose trigger started the fan-out, if known."""
        for entry in self.entries:
            if entry.initiator:
                return entry.initiator
        return None

    def describe(self) -> str:
        """One line for listings."""
        parts = [
            f"incident #{self.incident_id}:",
            f"{len(self.entries)} snap(s)",
            f"machines {','.join(self.machines)}",
            f"reasons {','.join(self.reasons)}",
        ]
        initiator = self.initiator()
        if initiator:
            parts.append(f"initiator {initiator}")
        if self.groups:
            parts.append(f"group {','.join(self.groups)}")
        parts.append(f"links {','.join(sorted(self.links)) or 'singleton'}")
        return " ".join(parts)

    def to_dict(self) -> dict:
        """Machine-readable form (``tbtrace incidents --json``)."""
        return {
            "incident_id": self.incident_id,
            "snaps": len(self.entries),
            "machines": self.machines,
            "processes": self.processes,
            "reasons": self.reasons,
            "groups": self.groups,
            "initiator": self.initiator(),
            "links": sorted(self.links),
            "entries": [e.digest for e in self.entries],
        }


class VaultSource:
    """A source of vault evidence, with reconstruction written once.

    Sources answer ``select`` / ``incidents`` / ``top`` with lists of
    :class:`~repro.fleet.store.VaultEntry`, :class:`Incident` and
    :class:`~repro.fleet.triage.CrashBucket`, and provide ``load``,
    ``mapfiles`` and ``metrics``: :class:`VaultQuery` over an open
    vault, :class:`~repro.fleet.remote.RemoteVaultClient` over the
    wire, :class:`~repro.fleet.federation.FederatedQuery` over both.
    """

    def reconstruct_entry(
        self,
        entry: VaultEntry | str,
        mapfiles: list[Mapfile] | None = None,
        salvage: bool = False,
    ) -> tuple[ProcessTrace, list[str]]:
        """Load and reconstruct one stored snap on demand.

        ``mapfiles`` defaults to the source's stored mapfiles.  Returns
        ``(trace, archive_notes)``; strict mode raises on damage.
        """
        digest = entry if isinstance(entry, str) else entry.digest
        snap, notes = self.load(digest, salvage=salvage)
        if snap is None:
            raise ValueError(
                f"snap {digest} unrecoverable: {'; '.join(notes) or 'gone'}"
            )
        reconstructor = Reconstructor(mapfiles or self.mapfiles())
        self.metrics.reconstructions += 1
        return reconstructor.reconstruct(snap, strict=not salvage), notes

    def reconstruct_incident(
        self,
        incident: Incident,
        mapfiles: list[Mapfile] | None = None,
        salvage: bool = True,
    ) -> DistributedTrace:
        """Stitch one incident's snaps into a master trace (§5).

        Salvage is the default here — incidents are exactly the snaps
        that lived through faults, and a banner beats a traceback.
        """
        snaps = []
        salvage_notes: dict[str, list[str]] = {}
        for entry in incident.entries:
            snap, notes = self.load(entry.digest, salvage=salvage)
            snaps.append(snap)
            if notes:
                salvage_notes.setdefault(entry.machine, []).extend(notes)
        reconstructor = Reconstructor(mapfiles or self.mapfiles())
        self.metrics.reconstructions += len(incident.entries)
        return reconstructor.reconstruct_distributed(
            snaps,
            strict=not salvage,
            expected_machines=incident.machines,
            salvage_notes=salvage_notes,
        )


class VaultQuery(VaultSource):
    """Filter, lazily reconstruct, and group a vault's snaps."""

    def __init__(self, vault: SnapVault, metrics: FleetMetrics | None = None):
        self.vault = vault
        self.metrics = metrics or vault.metrics

    # ------------------------------------------------------------------
    # Filtering
    # ------------------------------------------------------------------
    def select(self, **filters) -> list[VaultEntry]:
        """Manifest entries matching the filters (see SnapVault.select)."""
        self.metrics.queries += 1
        entries = self.vault.select(**filters)
        self.metrics.entries_scanned += len(self.vault.index)
        return entries

    def load(
        self, digest: str, salvage: bool = False
    ) -> tuple[SnapFile | None, list[str]]:
        return self.vault.load(digest, salvage=salvage)

    def mapfiles(self) -> list[Mapfile]:
        return self.vault.mapfiles()

    # ------------------------------------------------------------------
    # Incident grouping
    # ------------------------------------------------------------------
    def incidents(
        self,
        entries: list[VaultEntry] | None = None,
        window=USE_INDEX_WINDOW,
        machine: str | None = None,
        process: str | None = None,
        reason: str | None = None,
        group: str | None = None,
        sync_id: int | None = None,
    ) -> list[Incident]:
        """Group snaps into incidents.

        The default call (no ``entries``, no explicit ``window``) reads
        the vault's persisted incident index: the partition was built
        incrementally at ingest, so only the requested incidents are
        materialized.  An explicit ``entries`` list, or a ``window``
        other than the one the vault's index was built with, is first
        replayed into a fresh :class:`~repro.fleet.index.IncidentIndex`
        (``window`` bounds linking to entries within that many ingest
        sequence numbers — useful when one vault holds many runs whose
        runtime ids were deliberately reset to identical values).

        Either way the ``machine``/``process``/``reason``/``group``/
        ``sync_id`` filters narrow via the index's secondary maps —
        O(matching entries), not O(vault) — and return every incident
        *touching* a matching snap (the whole incident, not just its
        matching members: the bystander evidence is the point).
        """
        index = self.vault.incident_index
        by_digest = self.vault.index
        if entries is not None or (
            window is not USE_INDEX_WINDOW and window != index.window
        ):
            if window is USE_INDEX_WINDOW:
                window = None
            if entries is None:
                entries = self.vault.select()
            index = IncidentIndex.rebuild(entries, window)
            by_digest = {e.digest: e for e in entries}
        return self._incidents_indexed(
            index,
            by_digest,
            machine=machine,
            process=process,
            reason=reason,
            group=group,
            sync_id=sync_id,
        )

    def top(self, limit: int | None = None):
        """Ranked "top crashers" buckets — O(buckets), no archives.

        Served straight from the running per-bucket summaries the
        vault's :class:`~repro.fleet.index.IncidentIndex` keeps at
        ingest (no member walk); see
        :func:`repro.fleet.triage.top_buckets` for the ranking rules.
        Returns :class:`~repro.fleet.triage.CrashBucket` objects.
        """
        from repro.fleet.triage import top_buckets

        self.metrics.top_queries += 1
        return top_buckets(self.vault, limit=limit)

    def verify_bucket(self, bucket) -> dict:
        """Replay a crash bucket's pinned exemplar to confirm the
        diagnosis.

        Loads the exemplar (salvage), re-executes its recorded run with
        :class:`~repro.replay.ReplayEngine`, and checks that the replay
        (a) reaches a fault and (b) produces a snap whose mined crash
        signature equals the bucket's.  Returns a verdict dict::

            {"verified": bool, "reason": str, "digest": str | None,
             "replay_sig": str | None}

        Never raises: legacy/seed-only exemplars report
        ``replay-unavailable``, a diverging replay reports
        ``divergence`` — both are findings, not errors.
        """
        from repro.reconstruct.signature import snap_signature
        from repro.replay import ReplayDivergence, ReplayUnavailable
        from repro.replay.engine import ReplayEngine

        digest = getattr(bucket, "exemplar", None)
        verdict = {
            "verified": False,
            "reason": "",
            "digest": digest,
            "replay_sig": None,
        }
        if digest is None:
            verdict["reason"] = "no exemplar recorded"
            return verdict
        try:
            snap, _notes = self.vault.load(digest, salvage=True)
        except OSError as exc:
            verdict["reason"] = f"exemplar unreadable: {exc}"
            return verdict
        if snap is None:
            verdict["reason"] = "exemplar unrecoverable"
            return verdict
        try:
            engine = ReplayEngine(snap)
            stop = engine.run_to_fault()
            replayed = engine.replayed_snap()
        except ReplayUnavailable as exc:
            verdict["reason"] = f"replay-unavailable[{exc.segment}]: {exc}"
            return verdict
        except ReplayDivergence as exc:
            verdict["reason"] = f"divergence: {exc}"
            return verdict
        self.metrics.reconstructions += 1
        replay_sig = snap_signature(replayed, self.vault.mapfiles())
        verdict["replay_sig"] = replay_sig
        if stop["reason"] != "fault":
            verdict["reason"] = (
                f"replay ended without a fault (stop={stop['reason']})"
            )
            return verdict
        if replay_sig != bucket.sig:
            verdict["reason"] = (
                f"signature mismatch: replayed {replay_sig!r}, "
                f"bucket {bucket.sig!r}"
            )
            return verdict
        verdict["verified"] = True
        verdict["reason"] = "replayed exemplar reproduces the bucket signature"
        return verdict

    def incident_of(self, digest_or_entry: VaultEntry | str) -> Incident | None:
        """The one incident containing this snap — O(incident).

        ``incident_id`` here is the incident's first ingest sequence
        number (stable across vault growth), unlike the positional ids
        of a full listing.
        """
        digest = (
            digest_or_entry
            if isinstance(digest_or_entry, str)
            else digest_or_entry.digest
        )
        component = self.vault.incident_index.component_of(digest)
        self.metrics.incident_lookups += 1
        if component is None:
            return None
        # .get(): a compaction racing this lookup may have dropped a
        # member between the component read and here; serve the
        # members that still exist rather than KeyError on a digest
        # the next index swap will forget.
        entries = [
            e
            for e in (self.vault.index.get(d) for d in component.digests)
            if e is not None
        ]
        if not entries:
            return None
        return Incident(
            incident_id=component.min_seq,
            entries=entries,
            links=component.kinds,
        )

    def _incidents_indexed(
        self,
        index: IncidentIndex,
        by_digest: dict[str, VaultEntry],
        machine=None,
        process=None,
        reason=None,
        group=None,
        sync_id=None,
    ) -> list[Incident]:
        candidates: list[str] | None = None
        for filter_value, secondary in (
            (machine, index.by_machine),
            (process, index.by_process),
            (reason, index.by_reason),
            (group, index.by_group),
            (sync_id, index.by_sync),
        ):
            if filter_value is None:
                continue
            matching = secondary.get(filter_value, [])
            if candidates is None:
                candidates = list(matching)
            else:
                keep = set(matching)
                candidates = [d for d in candidates if d in keep]
        if candidates is not None:
            self.metrics.incident_lookups += 1
        incidents = []
        for position, component in enumerate(index.components(candidates)):
            entries = [
                e
                for e in (by_digest.get(d) for d in component.digests)
                if e is not None
            ]
            if not entries:
                continue  # every member compacted away mid-listing
            incidents.append(
                Incident(
                    incident_id=position,
                    entries=entries,
                    links=component.kinds,
                )
            )
        self.metrics.incidents_built += len(incidents)
        return incidents
