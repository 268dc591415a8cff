"""Federated scatter-gather queries over N regional vaults.

One fleet, many vaults: each region's collectors drain into their own
:class:`~repro.fleet.store.SnapVault`, so a distributed incident's
evidence is split across stores that share no manifest.  This module
asks all of them and merges what comes back:

* :class:`FederatedQuery` scatters one query across any mix of vault
  sources (:class:`~repro.fleet.query.VaultSource`: an open vault's
  :class:`~repro.fleet.query.VaultQuery`, or a
  :class:`~repro.fleet.remote.RemoteVaultClient` with a per-vault cycle
  budget), gathers the pages each vault managed to serve, and
  **never raises on a lost vault** — degradation is data, not an
  exception, exactly the stance salvage reconstruction established;
* a federation of one source returns that source's answer unchanged,
  so ``tbtrace`` runs every vault command through here and a single
  vault still prints exactly what the vault says;
* incident partitions merge by feeding the union of fetched entries
  to one fresh :class:`~repro.fleet.index.IncidentIndex`, the grouper
  every vault runs at ingest.  Every link rule (group-snap fan-outs,
  initiator matching, shared SYNC logical ids) is a pure function of
  entry metadata, so within-vault edges are rediscovered and
  cross-vault edges — the SYNC ids that already cross machines —
  appear exactly as they would had every snap landed in one merged
  vault.  Seqs are per vault, so the merge links with no ``window``,
  and a federation of several vaults refuses one;
* triage buckets merge under min-signature union over the merged
  incidents, the same bucket key rule the incident index maintains,
  into :class:`~repro.fleet.triage.CrashBucket`\\ s without seqs;
* a merged incident reconstructs by loading each snap from the vault
  that served it (:meth:`FederatedQuery.load`);
* every answer carries a :class:`FederationReport` whose **coverage
  ladder** mirrors the salvage degradation ladder: ``full`` (every
  vault answered completely) → ``partial`` (at least one vault
  answered; the report names each vault that timed out, failed, or
  returned truncated pages) → ``degraded`` (no vault answered at all).

Because vault-relative fields (ingest seq, shard) do not survive
federation, merged results are exposed in a canonical, vault-free form
(:func:`canonical_incidents` / :func:`canonical_buckets` /
:func:`canonical_entries`).  With zero chaos, those documents are
byte-identical to the same canonicalization of a single merged-vault
:class:`~repro.fleet.query.VaultQuery` — the fuzz sweep's oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.index import IncidentIndex, check_window
from repro.fleet.metrics import FleetMetrics
from repro.fleet.query import Incident, VaultSource
from repro.fleet.remote import (
    RemoteQueryError,
    RemoteVaultClient,
    VaultTimeout,
    VaultUnavailable,
)
from repro.fleet.store import VaultEntry
from repro.fleet.triage import CrashBucket
from repro.instrument.mapfile import Mapfile
from repro.reconstruct.signature import signature_key
from repro.runtime.snap import SnapFile

#: The coverage ladder, best to worst.
COVERAGE_FULL = "full"
COVERAGE_PARTIAL = "partial"
COVERAGE_DEGRADED = "degraded"


@dataclass
class VaultStatus:
    """One vault's standing in a federated answer."""

    name: str
    #: "ok" | "truncated" | "timeout" | "unavailable" | "error"
    status: str
    detail: str = ""
    #: Items this vault contributed (0 for a lost vault).
    items: int = 0

    @property
    def degraded(self) -> bool:
        return self.status != "ok"

    @property
    def answered(self) -> bool:
        """The vault served at least a complete or truncated reply."""
        return self.status in ("ok", "truncated")

    def describe(self) -> str:
        line = f"vault {self.name}: {self.status}, {self.items} item(s)"
        if self.detail:
            line += f" ({self.detail})"
        return line

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "detail": self.detail,
            "items": self.items,
        }


@dataclass
class FederationReport:
    """Coverage of one federated query: the ladder plus per-vault detail."""

    coverage: str
    vaults: list[VaultStatus] = field(default_factory=list)

    def degraded_vaults(self) -> list[str]:
        """Names of every vault that timed out, failed, or truncated."""
        return [v.name for v in self.vaults if v.degraded]

    def describe(self) -> list[str]:
        lines = [f"federation coverage: {self.coverage}"]
        lines.extend(f"  {status.describe()}" for status in self.vaults)
        return lines

    def to_dict(self) -> dict:
        return {
            "coverage": self.coverage,
            "degraded": self.degraded_vaults(),
            "vaults": [v.to_dict() for v in self.vaults],
        }


#: How a lost vault is named; any other wire failure is an "error".
_LOSSES = {VaultTimeout: "timeout", VaultUnavailable: "unavailable"}


def _coverage(statuses: list[VaultStatus]) -> str:
    if statuses and all(v.status == "ok" for v in statuses):
        return COVERAGE_FULL
    if any(v.answered for v in statuses):
        return COVERAGE_PARTIAL
    return COVERAGE_DEGRADED


# ----------------------------------------------------------------------
# Merging
# ----------------------------------------------------------------------
def merge_incidents(entries: list[VaultEntry]) -> list[Incident]:
    """Merge per-vault partitions: the entry union, fed in digest order
    to one fresh :class:`~repro.fleet.index.IncidentIndex`.

    Seqs from different vaults collide, so the unbounded (window=None)
    index is the only correct one here: its partition and link kinds
    read no seqs.  Ordering is canonicalized by digest instead of seq.
    """
    index = IncidentIndex()
    by_digest = {}
    for entry in sorted(entries, key=lambda e: e.digest):
        index.add(entry)
        by_digest[entry.digest] = entry
    incidents = [
        Incident(
            incident_id=0,
            entries=[by_digest[d] for d in sorted(component.digests)],
            links=component.kinds,
        )
        for component in index.components()
    ]
    incidents.sort(key=lambda inc: inc.entries[0].digest)
    for position, incident in enumerate(incidents):
        incident.incident_id = position
    return incidents


def merge_buckets(
    incidents: list[Incident], limit: int | None = None
) -> list[CrashBucket]:
    """Triage buckets under min-signature union over merged incidents.

    The bucket key is the minimum member signature — the same
    order-free rule the incident index applies per vault, so two
    vaults' buckets for one fault land in one federated bucket.
    Vault-relative seqs don't survive federation: the buckets carry
    no first/last seq, and the exemplar is the smallest digest whose
    own signature is the bucket's — the vault's exemplar rule, in
    digest order rather than ingest order.
    """
    grouped: dict[str, list[Incident]] = {}
    for incident in incidents:
        sigs = sorted(e.sig for e in incident.entries if e.sig is not None)
        if not sigs:
            continue
        grouped.setdefault(sigs[0], []).append(incident)
    buckets = []
    for sig, members in grouped.items():
        entries = [e for inc in members for e in inc.entries]
        buckets.append(
            CrashBucket(
                sig=sig,
                key=signature_key(sig),
                count=len(entries),
                incidents=len(members),
                machines=sorted({e.machine for e in entries}),
                processes=sorted({e.process for e in entries}),
                exemplar=min(e.digest for e in entries if e.sig == sig),
            )
        )
    buckets.sort(key=lambda b: (-b.count, b.sig))
    if limit is not None:
        buckets = buckets[:limit]
    return buckets


# ----------------------------------------------------------------------
# Canonical (vault-free) document forms — the bit-identity oracle
# ----------------------------------------------------------------------
def canonical_entries(entries: list[VaultEntry]) -> list[dict]:
    """Entry docs stripped of vault-relative fields, digest-ordered."""
    docs = []
    for entry in sorted(entries, key=lambda e: e.digest):
        doc = entry.to_dict()
        doc.pop("seq")
        doc.pop("shard")
        docs.append(doc)
    return docs


def canonical_incidents(incidents: list[Incident]) -> list[dict]:
    """Incident docs with positional ids and digest ordering only.

    ``Incident.to_dict`` reports the *first* entry's initiator, which
    depends on entry order (ingest seq locally, digest here); when two
    fan-outs merged through a SYNC link that pick is ambiguous, so the
    canonical form takes the lexicographic minimum instead.
    """
    docs = []
    for incident in incidents:
        doc = incident.to_dict()
        doc["entries"] = sorted(doc["entries"])
        initiators = sorted(
            {e.initiator for e in incident.entries if e.initiator}
        )
        doc["initiator"] = initiators[0] if initiators else None
        docs.append(doc)
    docs.sort(key=lambda d: d["entries"][0] if d["entries"] else "")
    for position, doc in enumerate(docs):
        doc["incident_id"] = position
    return docs


def canonical_buckets(buckets: list[CrashBucket]) -> list[dict]:
    """Bucket docs without seq/exemplar fields, rank-ordered."""
    vault_relative = ("first_seq", "last_seq", "exemplar")
    docs = [
        {k: v for k, v in b.to_dict().items() if k not in vault_relative}
        for b in buckets
    ]
    docs.sort(key=lambda d: (-d["count"], d["sig"]))
    return docs


# ----------------------------------------------------------------------
# The scatter-gather engine
# ----------------------------------------------------------------------
class FederatedQuery(VaultSource):
    """Fan one query out to N vaults; merge; degrade instead of erroring.

    ``sources`` maps vault name → :class:`~repro.fleet.query.VaultSource`,
    local or remote in any mix; scatter order is the mapping order.
    ``timeout`` is the per-vault cycle budget for a wire source's
    pagination (each client's ``deadline`` bounds single exchanges).
    Every list method returns ``(results, FederationReport)`` and is
    total: a lost vault becomes a named rung on the coverage ladder,
    never an exception.  One source's answer passes through unchanged.
    """

    def __init__(
        self,
        sources: dict[str, VaultSource],
        timeout: int = 200_000,
        metrics: FleetMetrics | None = None,
    ):
        self.sources = dict(sources)
        self.timeout = timeout
        self.metrics = metrics or FleetMetrics()
        #: digest -> the vault whose answer carried it first, last time.
        self._served_by: dict[str, str] = {}

    # ------------------------------------------------------------------
    def _gather(self, source: VaultSource, op: str, **args):
        """``op`` on one source -> ``(items, truncated)``."""
        if isinstance(source, RemoteVaultClient):
            args.update(budget=self.timeout, partial=True)
            return getattr(source, op)(**args)
        return getattr(source, op)(**args), False

    def _scatter(self, op: str, **args) -> tuple[dict, FederationReport]:
        """Run ``op`` on every vault; losses become statuses."""
        self.metrics.bump(federated_queries=1)
        gathered: dict[str, list] = {}
        statuses: list[VaultStatus] = []
        for name, source in self.sources.items():
            try:
                items, truncated = self._gather(source, op, **args)
            except RemoteQueryError as exc:
                status = _LOSSES.get(type(exc), "error")
                statuses.append(VaultStatus(name, status, str(exc)))
                self.metrics.bump(federated_vault_losses=1)
                continue
            gathered[name] = items
            status, detail = "ok", ""
            if truncated:
                status = "truncated"
                detail = (
                    f"pagination budget exhausted after {len(items)} item(s)"
                )
            statuses.append(VaultStatus(name, status, detail, len(items)))
        return gathered, FederationReport(
            coverage=_coverage(statuses), vaults=statuses
        )

    def _answer(self, op: str, merge, **args) -> tuple[list, FederationReport]:
        """Scatter ``op``; merge the answers of more than one vault."""
        gathered, report = self._scatter(op, **args)
        if len(self.sources) == 1:
            return next(iter(gathered.values()), []), report
        return merge(gathered), report

    def _union(self, per_vault: dict[str, list]) -> list[VaultEntry]:
        """The union of per-vault entries, one per content digest (a
        vault-independent sha256).  The first vault to answer with a
        digest supplies its seq/shard and is where :meth:`load` goes."""
        merged: dict[str, VaultEntry] = {}
        for name, entries in per_vault.items():
            for entry in entries:
                if entry.digest not in merged:
                    merged[entry.digest] = entry
                    self._served_by[entry.digest] = name
        return sorted(merged.values(), key=lambda e: e.digest)

    # ------------------------------------------------------------------
    def select(self, **filters) -> tuple[list[VaultEntry], FederationReport]:
        """The union of matching entries, digest-ordered and deduped."""
        return self._answer("select", self._union, **filters)

    def incidents(self, **filters) -> tuple[list[Incident], FederationReport]:
        """The federation-wide incident partition over reachable vaults.

        Filters keep per-vault semantics (the whole incident touching a
        match, bystanders included); members of a cross-vault incident
        whose *only* matching snaps live in a lost vault are part of
        the coverage loss the report names.  A ``window`` needs one
        source: seqs are per vault, so with several it raises
        :class:`ValueError` rather than be dropped by the merge.  A
        negative one raises it too, here, so a local and a served
        vault refuse it with the same message.
        """
        window = filters.get("window")
        check_window(window)
        if window is not None and len(self.sources) > 1:
            raise ValueError("window needs one vault: seqs are per vault")

        def merge(gathered: dict[str, list[Incident]]) -> list[Incident]:
            members = {
                name: [e for incident in incidents for e in incident.entries]
                for name, incidents in gathered.items()
            }
            return merge_incidents(self._union(members))

        return self._answer("incidents", merge, **filters)

    def top(
        self, limit: int | None = None
    ) -> tuple[list[CrashBucket], FederationReport]:
        """Fleet-wide top crashers under min-signature union."""
        if len(self.sources) == 1:
            return self._answer("top", None, limit=limit)
        incidents, report = self.incidents()
        return merge_buckets(incidents, limit=limit), report

    # ------------------------------------------------------------------
    def load(
        self, digest: str, salvage: bool = False
    ) -> tuple[SnapFile | None, list[str]]:
        """Load a snap from the vault that served it (else the first)."""
        name = self._served_by.get(digest, next(iter(self.sources)))
        return self.sources[name].load(digest, salvage=salvage)

    def mapfiles(self) -> list[Mapfile]:
        """The serving vaults' mapfiles (else every vault's), one per
        checksum."""
        serving = set(self._served_by.values()) or set(self.sources)
        unique: dict[str, Mapfile] = {}
        for name, source in self.sources.items():
            if name in serving:
                for mapfile in source.mapfiles():
                    unique.setdefault(mapfile.checksum, mapfile)
        return list(unique.values())
