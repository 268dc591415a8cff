"""The incident index: the one grouper of vault snaps into incidents.

Re-running union-find over the whole manifest on every query is fine at
1k snaps and quadratic-feeling at 100k.  Like Magpie's online event
correlation (PAPERS.md), this module moves the correlation work to
*ingest time*:

* every stored :class:`~repro.fleet.store.VaultEntry` is fed to
  :meth:`IncidentIndex.add` (in ingest-sequence order, under the
  vault's index lock), which applies the link rules — group-snap
  fan-outs (§3.6.1), initiator matching, shared SYNC logical-thread ids
  (§5.1) — incrementally, as union-find edges;
* the resulting partition is checkpointed to ``incidents.idx`` at the
  vault root (atomic replace, torn-write tolerant), and **rebuildable
  from the manifests alone**: replaying every manifest entry in
  sequence order reproduces the file bit-identically, because the
  serialization is a pure, canonical function of the partition — never
  of parent-pointer shapes or query history.  The checkpoint lags on
  purpose: it is rewritten only once the entries added since the last
  one reach 1/:data:`CHECKPOINT_TAIL` of those it covers, so N drains
  write O(log N) checkpoints and an open replays at most that tail;
* secondary indexes (machine / process / reason / group / SYNC id →
  entry digests) make filtered incident queries and single-incident
  lookups O(result) instead of O(vault);
* crash-signature **triage buckets** ride the same structure: every
  entry carries its mined signature (``VaultEntry.sig``), each
  component's bucket is the minimum of its members' signatures
  (order-free, so any union interleaving lands in the same bucket),
  and ``buckets`` maps signature → components — the ranked "top
  crashers" view, maintained incrementally at ingest and checkpointed
  (and rebuilt bit-identically) with the partition.  Each bucket also
  keeps a running :class:`BucketSummary` (counts, seq range, machine
  and process multisets, exemplar), so listing the buckets costs
  O(buckets), not O(members).

Every other grouping replays entries into a fresh index as well: an
explicit entry list or ``window``
(:meth:`~repro.fleet.query.VaultQuery.incidents`) and the union of
several vaults' entries (:func:`~repro.fleet.federation.merge_incidents`).
Chains link consecutive members, the fan-out's *first* member anchors
initiator matches, and an optional ``window`` bounds every edge by
ingest-sequence distance so one vault holding many runs with reset
runtime ids does not cross-link them.  The tests hold a one-shot
union-find over the same rules as the differential oracle.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field

from repro.fleet.store import VaultEntry
from repro.runtime.archive import write_atomic

#: Filename of the persisted index, directly under the vault root.
INDEX_FILE = "incidents.idx"

#: Schema 2 adds crash-signature triage state: each member carries its
#: mined signature, each component its bucket signature, and the file a
#: canonical bucket summary.  Schema-1 checkpoints fail the schema
#: check and fall back to a rebuild from the manifests — the normal
#: stale-checkpoint path, not an error.
SCHEMA = "tb-incident-index/2"

#: Checkpoint cadence: ``incidents.idx`` is rewritten once the entries
#: added since the last checkpoint reach 1/CHECKPOINT_TAIL of the
#: entries it covers.  Checkpoint sizes then grow geometrically (N
#: one-entry drains write O(log N) of them), and an open replays a
#: tail of at most a ninth of the vault on top of the prefix it loads.
CHECKPOINT_TAIL = 8

#: The link kinds a component can record (checkpoint validation).
LINK_KINDS = frozenset({"group-snap", "sync-link"})


# ----------------------------------------------------------------------
# The incremental index
# ----------------------------------------------------------------------
@dataclass
class IndexedIncident:
    """One component of the incident partition, by digest."""

    digests: list[str]  # sorted by ingest seq
    kinds: set[str] = field(default_factory=set)
    min_seq: int = 0
    #: The component's triage-bucket signature: the minimum of its
    #: members' mined signatures (None when no member carries one).
    #: Min-of-members is order-free, so the same partition always
    #: yields the same bucket no matter how its unions interleaved.
    sig: str | None = None


@dataclass
class BucketSummary:
    """Running totals of one triage bucket over its live members.

    A bucket's members are those of every component filed under its
    signature, bystanders included.  ``first_seq``, ``last_seq`` and
    ``exemplar`` only move by min/max as members arrive; losing the
    member that holds one of them (a union re-keying its component
    away, or a compaction dropping it) marks the summary ``stale``, and
    the next read recomputes those three from the live members.
    """

    count: int = 0  # live member snaps
    incidents: int = 0  # components with at least one live member
    first_seq: int | None = None
    last_seq: int | None = None
    #: machine / process -> live member count (multisets).
    machines: dict[str, int] = field(default_factory=dict)
    processes: dict[str, int] = field(default_factory=dict)
    #: Earliest live member whose own signature is the bucket's.
    exemplar: str | None = None
    stale: bool = False


def check_window(window: int | None) -> None:
    """Refuse a negative ``window``: it would fail every edge's
    seq-distance test and answer as singletons with no note."""
    if window is not None and window < 0:
        raise ValueError(f"window must not be negative, got {window}")


def _decrement(counts: dict[str, int], key: str) -> None:
    left = counts[key] - 1
    if left:
        counts[key] = left
    else:
        del counts[key]


class IncidentIndex:
    """Incrementally-maintained union-find over vault entries.

    ``add()`` must be called in ingest-sequence order (the vault holds
    its index lock across seq assignment and ``add``, which guarantees
    it even under concurrent multi-collector ingest); replaying the
    manifests in seq order therefore reproduces this object — and its
    serialized form — exactly.
    """

    def __init__(self, window: int | None = None):
        check_window(window)
        self.window = window
        #: digest -> ingest seq (the window metric and sort key).
        self.seq: dict[str, int] = {}
        #: Union-find parent pointers, by digest.
        self._parent: dict[str, str] = {}
        #: root digest -> members (unsorted; sorted at query time).
        self._members: dict[str, list[str]] = {}
        #: root digest -> link kinds attempted on this component.
        self._kinds: dict[str, set[str]] = {}
        #: root digest -> smallest member seq.
        self._min_seq: dict[str, int] = {}
        #: digest -> mined crash signature (None for non-fault snaps).
        self.sig: dict[str, str | None] = {}
        #: root digest -> the component's bucket signature (min of its
        #: members' non-None signatures).
        self._root_sig: dict[str, str | None] = {}
        #: signature -> component roots carrying it (the triage
        #: buckets, maintained incrementally alongside the union-find).
        self.buckets: dict[str, set[str]] = {}
        #: signature -> running totals of the bucket's live members.
        self._summaries: dict[str, BucketSummary] = {}
        #: digest -> (machine, process), for the summaries' multisets.
        self._placement: dict[str, tuple[str, str]] = {}
        #: root digest -> members not dropped by an in-flight compaction.
        self._live: dict[str, int] = {}
        #: Members a compaction has removed from the vault; they stay in
        #: the partition until the compaction's closing rebuild.
        self._dropped: set[str] = set()
        # -- chain state of the link rules ----------------------------
        self._fanout_prev: dict[tuple, str] = {}
        self._fanout_anchor: dict[tuple, str] = {}
        self._sync_prev: dict[int, str] = {}
        #: (process, reason) -> digests, ingest order.
        self._by_proc_reason: dict[tuple, list[str]] = {}
        #: (initiator, initiator_reason) -> anchor digests, ingest order.
        self._anchors_by_pair: dict[tuple, list[str]] = {}
        # -- secondary indexes (rebuilt from entries at load) ----------
        self.by_machine: dict[str, list[str]] = {}
        self.by_process: dict[str, list[str]] = {}
        self.by_reason: dict[str, list[str]] = {}
        self.by_group: dict[str, list[str]] = {}
        self.by_sync: dict[int, list[str]] = {}
        #: Adds since the last persist (the vault checkpoints on flush).
        self.dirty = 0
        #: Entries the on-disk checkpoint covers; None when there is no
        #: valid one (a fresh index, or a rebuild at open).
        self.checkpointed: int | None = None

    def __len__(self) -> int:
        return len(self.seq)

    def __contains__(self, digest: str) -> bool:
        return digest in self.seq

    # ------------------------------------------------------------------
    # Union-find core
    # ------------------------------------------------------------------
    def find(self, digest: str) -> str:
        parent = self._parent
        root = digest
        while parent[root] != root:
            root = parent[root]
        while parent[digest] != root:  # path compression
            parent[digest], digest = root, parent[digest]
        return root

    def _union(self, a: str, b: str, kind: str) -> None:
        if (
            self.window is not None
            and abs(self.seq[a] - self.seq[b]) > self.window
        ):
            return
        ra, rb = self.find(a), self.find(b)
        self._kinds[ra].add(kind)
        self._kinds[rb].add(kind)
        if ra == rb:
            return
        # Small-into-large keeps member-merging near-linear overall.
        if len(self._members[ra]) < len(self._members[rb]):
            ra, rb = rb, ra
        # Re-key the triage buckets while both member lists are apart:
        # the merged component files under the min of the two
        # signatures (min over members is associative, so merge order
        # cannot change which bucket a partition lands in).  Only a
        # side whose signature differs moves its members' totals, so
        # the common same-bucket merge is O(1); a member's component
        # signature only ever decreases, which bounds the moves.
        sa, sb = self._root_sig[ra], self._root_sig.pop(rb)
        merged = sb if sa is None else sa if sb is None else min(sa, sb)
        for sig, root in ((sa, ra), (sb, rb)):
            if sig == merged:
                continue
            self._move(root, sig, merged)
            if sig is not None:
                carriers = self.buckets[sig]
                carriers.discard(root)
                if not carriers:
                    del self.buckets[sig]
                    del self._summaries[sig]
        live_a, live_b = self._live[ra], self._live.pop(rb)
        self._parent[rb] = ra
        self._members[ra].extend(self._members.pop(rb))
        self._kinds[ra] |= self._kinds.pop(rb)
        self._min_seq[ra] = min(self._min_seq[ra], self._min_seq.pop(rb))
        self._live[ra] = live_a + live_b
        self._root_sig[ra] = merged
        if merged is not None:
            carriers = self.buckets[merged]
            carriers.discard(rb)
            carriers.add(ra)
            if live_a and live_b:  # two counted incidents became one
                self._summaries[merged].incidents -= 1

    # ------------------------------------------------------------------
    # Bucket summaries
    # ------------------------------------------------------------------
    def _bound(self, summary: BucketSummary, digest: str, sig: str) -> None:
        """Widen the summary's seq range / exemplar to take ``digest``."""
        seq = self.seq[digest]
        if summary.first_seq is None or seq < summary.first_seq:
            summary.first_seq = seq
        if summary.last_seq is None or seq > summary.last_seq:
            summary.last_seq = seq
        if self.sig[digest] == sig and (
            summary.exemplar is None or seq < self.seq[summary.exemplar]
        ):
            summary.exemplar = digest

    def _credit(self, summary: BucketSummary, digest: str, sig: str) -> None:
        machine, process = self._placement[digest]
        summary.count += 1
        machines, processes = summary.machines, summary.processes
        machines[machine] = machines.get(machine, 0) + 1
        processes[process] = processes.get(process, 0) + 1
        self._bound(summary, digest, sig)

    def _debit(self, summary: BucketSummary, digest: str) -> None:
        machine, process = self._placement[digest]
        summary.count -= 1
        _decrement(summary.machines, machine)
        _decrement(summary.processes, process)
        if (
            self.seq[digest] in (summary.first_seq, summary.last_seq)
            or digest == summary.exemplar
        ):
            summary.stale = True

    def _move(self, root: str, old: str | None, new: str | None) -> None:
        """Move component ``root``'s live members from bucket ``old`` to
        bucket ``new`` (None: not bucketed) — totals and incident count;
        the caller keeps ``buckets``' root sets."""
        source = self._summaries[old] if old is not None else None
        target = None
        if new is not None:
            target = self._summaries.get(new)
            if target is None:
                target = self._summaries[new] = BucketSummary()
        live = 0
        for digest in self._members[root]:
            if digest in self._dropped:
                continue
            live += 1
            if source is not None:
                self._debit(source, digest)
            if target is not None:
                self._credit(target, digest, new)
        if live:
            if source is not None:
                source.incidents -= 1
            if target is not None:
                target.incidents += 1

    def _fresh(self, sig: str) -> BucketSummary:
        """``sig``'s summary, recomputing a stale seq range / exemplar
        from the bucket's live members (O(bucket), only after a loss)."""
        summary = self._summaries[sig]
        if summary.stale:
            summary.first_seq = summary.last_seq = summary.exemplar = None
            summary.stale = False
            for root in self.buckets[sig]:
                for digest in self._members[root]:
                    if digest not in self._dropped:
                        self._bound(summary, digest, sig)
        return summary

    def bucket_summaries(self) -> dict[str, BucketSummary]:
        """Every bucket's current summary — O(buckets).

        A bucket every member of which an in-flight compaction dropped
        reads ``count == 0``.  Callers hold the vault's index lock.
        """
        for sig in self._summaries:
            self._fresh(sig)
        return self._summaries

    def drop(self, digests) -> None:
        """Take members a compaction removed from the vault out of the
        bucket summaries.

        The partition keeps them (the compaction rebuilds the index
        from the survivors when it ends); until then the summaries
        count exactly the entries the vault still holds.
        """
        for digest in digests:
            if digest not in self.seq or digest in self._dropped:
                continue
            self._dropped.add(digest)
            root = self.find(digest)
            self._live[root] -= 1
            sig = self._root_sig[root]
            if sig is None:
                continue
            summary = self._summaries[sig]
            self._debit(summary, digest)
            if not self._live[root]:
                summary.incidents -= 1

    def _revive(self, entry: VaultEntry) -> None:
        """A dropped member re-stored mid-compaction counts again, under
        its new seq (the closing rebuild re-links it)."""
        digest = entry.digest
        self._dropped.discard(digest)
        self.seq[digest] = entry.seq
        self._placement[digest] = (entry.machine, entry.process)
        root = self.find(digest)
        self._live[root] += 1
        sig = self._root_sig[root]
        if sig is not None:
            summary = self._summaries[sig]
            self._credit(summary, digest, sig)
            if self._live[root] == 1:
                summary.incidents += 1

    # ------------------------------------------------------------------
    # Ingest-time maintenance
    # ------------------------------------------------------------------
    def add(self, entry: VaultEntry) -> None:
        """Fold one just-stored entry into the partition.

        Chain to the previous fan-out member / previous SYNC carrier,
        anchor the fan-out's first member against every (process,
        reason) match — past matches now, future matches as they
        arrive.

        With no ``window`` the partition and its link kinds read no
        seqs and do not depend on feed order: every fan-out's members
        and matches, and every SYNC id's carriers, end up connected
        whichever arrives first.  So the union of several vaults'
        entries, whose per-vault seqs collide, groups correctly fed in
        any order; the tests check digest-ordered unions against the
        one-shot oracle and shuffled feeds against each other.
        """
        digest = entry.digest
        if digest in self.seq:
            if digest in self._dropped:
                self._revive(entry)
            return
        self.seq[digest] = entry.seq
        self._placement[digest] = (entry.machine, entry.process)
        self._parent[digest] = digest
        self._members[digest] = [digest]
        self._kinds[digest] = set()
        self._min_seq[digest] = entry.seq
        self._live[digest] = 1
        # Bucket state first: the link sections below may union this
        # singleton away immediately, and _union re-keys buckets.
        self.sig[digest] = entry.sig
        self._root_sig[digest] = entry.sig
        if entry.sig is not None:
            self.buckets.setdefault(entry.sig, set()).add(digest)
            self._move(digest, None, entry.sig)

        self.by_machine.setdefault(entry.machine, []).append(digest)
        self.by_process.setdefault(entry.process, []).append(digest)
        self.by_reason.setdefault(entry.reason, []).append(digest)
        if entry.group:
            self.by_group.setdefault(entry.group, []).append(digest)

        # Link 1a: this entry is a fan-out member.
        if entry.group and entry.initiator:
            key = (entry.group, entry.initiator, entry.initiator_reason)
            prev = self._fanout_prev.get(key)
            if prev is None:
                # First member: it anchors every initiator match.
                self._fanout_anchor[key] = digest
                pair = (entry.initiator, entry.initiator_reason)
                self._anchors_by_pair.setdefault(pair, []).append(digest)
                for match in self._by_proc_reason.get(pair, ()):
                    self._union(digest, match, "group-snap")
            else:
                self._union(prev, digest, "group-snap")
            self._fanout_prev[key] = digest

        # Link 1b: this entry matches an existing fan-out's initiator.
        pair = (entry.process, entry.reason)
        self._by_proc_reason.setdefault(pair, []).append(digest)
        for anchor in self._anchors_by_pair.get(pair, ()):
            if anchor != digest:
                self._union(anchor, digest, "group-snap")

        # Link 2: shared SYNC logical-thread ids.
        for logical_id in entry.sync_ids:
            self.by_sync.setdefault(logical_id, []).append(digest)
            prev = self._sync_prev.get(logical_id)
            if prev is not None:
                self._union(prev, digest, "sync-link")
            self._sync_prev[logical_id] = digest

        self.dirty += 1

    # ------------------------------------------------------------------
    # Queries (O(result), never O(vault))
    # ------------------------------------------------------------------
    def _component(self, root: str) -> IndexedIncident:
        return IndexedIncident(
            digests=sorted(self._members[root], key=self.seq.__getitem__),
            kinds=set(self._kinds[root]),
            min_seq=self._min_seq[root],
            sig=self._root_sig.get(root),
        )

    def component_of(self, digest: str) -> IndexedIncident | None:
        """The full component containing ``digest``, or None."""
        if digest not in self.seq:
            return None
        return self._component(self.find(digest))

    def components(
        self, digests: list[str] | None = None
    ) -> list[IndexedIncident]:
        """Distinct components, ordered by first-ingest seq.

        With ``digests`` given, only components touching those digests
        are materialized — O(matching), not O(vault).
        """
        if digests is None:
            roots = list(self._members)
        else:
            roots = list({self.find(d) for d in digests if d in self.seq})
        roots.sort(key=self._min_seq.__getitem__)
        return [self._component(r) for r in roots]

    # ------------------------------------------------------------------
    # Triage buckets ("top crashers")
    # ------------------------------------------------------------------
    def bucket_components(self, sig: str) -> list[IndexedIncident]:
        """Components bucketed under ``sig``, first-ingest order."""
        roots = sorted(
            self.buckets.get(sig, ()), key=self._min_seq.__getitem__
        )
        return [self._component(r) for r in roots]

    def exemplar_digest(self, sig: str) -> str | None:
        """The bucket's exemplar: its earliest signature-carrying snap.

        The evidence a diagnosis is confirmed against:
        :meth:`~repro.fleet.query.VaultQuery.verify_bucket` replays it
        and GC pins it (:meth:`exemplar_digests`).  A pure function of
        the partition + member sigs, so GC pinning it is deterministic
        across rebuilds.
        """
        if sig not in self._summaries:
            return None
        return self._fresh(sig).exemplar

    def exemplar_digests(self) -> set[str]:
        """One exemplar digest per open bucket (the GC pin set) —
        O(buckets), read from the summaries."""
        return {
            summary.exemplar
            for summary in self.bucket_summaries().values()
            if summary.exemplar is not None
        }

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @staticmethod
    def checksum(digests) -> str:
        """Order-independent identity of the indexed entry set."""
        joined = "\n".join(sorted(digests)).encode()
        return hashlib.sha256(joined).hexdigest()[:32]

    def to_bytes(self) -> bytes:
        """Canonical serialization: a pure function of the partition.

        Components are keyed by (min seq, first digest) and members
        sorted by seq, so the bytes depend only on *what is grouped
        with what* — not on parent-pointer shapes, path-compression
        history, or arrival interleavings that produce the same
        partition.  That is what makes `rebuild from manifests alone`
        bit-identical.
        """
        components = []
        for inc in self.components():
            components.append(
                {
                    "members": [
                        [self.seq[d], d, self.sig.get(d)]
                        for d in inc.digests
                    ],
                    "kinds": sorted(inc.kinds),
                    "sig": inc.sig,
                }
            )
        # The bucket summary is derivable from the components; it is
        # serialized anyway so the triage state is inspectable in the
        # checkpoint, and it stays canonical because both the signature
        # keys and the counts are pure functions of the partition.
        buckets = {
            sig: sum(len(self._members[r]) for r in roots)
            for sig, roots in self.buckets.items()
        }
        doc = {
            "schema": SCHEMA,
            "window": self.window,
            "entries": len(self.seq),
            "checksum": self.checksum(self.seq),
            "buckets": buckets,
            "components": components,
        }
        return (json.dumps(doc, sort_keys=True) + "\n").encode()

    def checkpoint_due(self) -> bool:
        """Whether a flush should rewrite ``incidents.idx``: there is no
        valid checkpoint, or the tail added since the last one reached
        1/:data:`CHECKPOINT_TAIL` of the entries it covers."""
        if self.checkpointed is None:
            return True
        tail = self.dirty * CHECKPOINT_TAIL
        return self.dirty > 0 and tail >= self.checkpointed

    def persist(self, root_dir: str) -> str:
        """Checkpoint to ``<vault>/incidents.idx`` atomically."""
        path = os.path.join(root_dir, INDEX_FILE)
        write_atomic(self.to_bytes(), path)
        self.dirty = 0
        self.checkpointed = len(self.seq)
        return path

    # ------------------------------------------------------------------
    # Load / rebuild
    # ------------------------------------------------------------------
    @classmethod
    def rebuild(
        cls, entries: list[VaultEntry], window: int | None = None
    ) -> "IncidentIndex":
        """Replay manifest entries (seq order) into a fresh index."""
        index = cls(window=window)
        for entry in sorted(entries, key=lambda e: e.seq):
            index.add(entry)
        return index

    @classmethod
    def _checkpoint_components(
        cls, path: str, entries: list[VaultEntry], window: int | None
    ) -> tuple[list[tuple], set[str]] | None:
        """The checkpoint's components and the digests they cover, if
        it is a clean prefix of ``entries``; None for anything else.

        Each component comes back as ``(digests, kinds, sig, min_seq)``.
        Every field is checked: a checkpoint that parses as JSON but is
        malformed anywhere is as unusable as a torn one.
        """
        try:
            with open(path, "rb") as fh:
                doc = json.loads(fh.read())
        except (OSError, ValueError, RecursionError):
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("schema") != SCHEMA
            or doc.get("window", "missing") != window
            or not isinstance(doc.get("components"), list)
        ):
            return None
        by_digest = {e.digest: e for e in entries}
        covered: set[str] = set()
        newest = -1
        out = []
        for component in doc["components"]:
            if not isinstance(component, dict):
                return None
            members = component.get("members")
            kinds = component.get("kinds")
            if not isinstance(members, list) or not members:
                return None
            if not isinstance(kinds, list) or not all(
                isinstance(k, str) and k in LINK_KINDS for k in kinds
            ):
                return None
            digests = []
            low_seq = low_sig = None
            for item in members:
                if not (isinstance(item, list) and len(item) == 3):
                    return None
                seq, digest, sig = item
                if not isinstance(digest, str) or digest in covered:
                    return None
                entry = by_digest.get(digest)
                if entry is None or entry.seq != seq or entry.sig != sig:
                    # A sig mismatch means the checkpoint predates a
                    # re-mining (e.g. mapfiles changed before a
                    # rebuild_index); the manifests win.
                    return None
                covered.add(digest)
                digests.append(digest)
                seq = entry.seq
                if low_seq is None or seq < low_seq:
                    low_seq = seq
                if seq > newest:
                    newest = seq
                if sig is not None and (low_sig is None or sig < low_sig):
                    low_sig = sig
            if component.get("sig") != low_sig:
                return None  # not the min of its members' signatures
            out.append((digests, set(kinds), low_sig, low_seq))
        if doc.get("checksum") != cls.checksum(covered):
            return None
        if any(e.seq <= newest for e in entries if e.digest not in covered):
            # The checkpoint is not a clean prefix of the manifests;
            # replay order would diverge.  Manifests win.
            return None
        return out, covered

    @classmethod
    def load(
        cls,
        root_dir: str,
        entries: list[VaultEntry],
        window: int | None = None,
    ) -> tuple["IncidentIndex", str]:
        """Open the persisted index against the vault's live entries.

        Returns ``(index, how)`` where ``how`` is one of:

        * ``"loaded"`` — checkpoint covers exactly the manifest set;
        * ``"caught-up"`` — checkpoint was a strict prefix (the vault
          grew less than a checkpoint's worth since the last flush, or
          a kill landed between a manifest append and the checkpoint);
          the missing entries, all newer than the checkpoint, were
          replayed on top;
        * ``"rebuilt"`` — no checkpoint, a torn or malformed one, a
          window mismatch, or a checkpoint that disagrees with the
          manifests (e.g. after `rebuild_index()` reassigned seqs):
          replayed from the manifests alone.

        Every path ends in the same state the incremental maintenance
        would have produced — the checkpoint is an accelerator, never
        an authority the manifests cannot overrule.
        """
        entries = sorted(entries, key=lambda e: e.seq)
        checkpoint = cls._checkpoint_components(
            os.path.join(root_dir, INDEX_FILE), entries, window
        )
        if checkpoint is None:
            return cls.rebuild(entries, window=window), "rebuilt"
        components, covered = checkpoint

        index = cls(window=window)
        # Rebuild chain + secondary state by scanning the covered
        # entries in seq order (no unions — the partition is adopted
        # from the checkpoint below, so this is a cheap linear pass).
        missing = []
        for entry in entries:
            digest = entry.digest
            if digest not in covered:
                missing.append(entry)
                continue
            index.seq[digest] = entry.seq
            index.sig[digest] = entry.sig
            index._placement[digest] = (entry.machine, entry.process)
            index.by_machine.setdefault(entry.machine, []).append(digest)
            index.by_process.setdefault(entry.process, []).append(digest)
            index.by_reason.setdefault(entry.reason, []).append(digest)
            if entry.group:
                index.by_group.setdefault(entry.group, []).append(digest)
            if entry.group and entry.initiator:
                key = (entry.group, entry.initiator, entry.initiator_reason)
                if key not in index._fanout_anchor:
                    index._fanout_anchor[key] = digest
                    pair = (entry.initiator, entry.initiator_reason)
                    index._anchors_by_pair.setdefault(pair, []).append(digest)
                index._fanout_prev[key] = digest
            pair = (entry.process, entry.reason)
            index._by_proc_reason.setdefault(pair, []).append(digest)
            for logical_id in entry.sync_ids:
                index.by_sync.setdefault(logical_id, []).append(digest)
                index._sync_prev[logical_id] = digest
        # Adopt the partition: flat parents under a canonical root.
        for members, kinds, root_sig, min_seq in components:
            root = members[0]
            for digest in members:
                index._parent[digest] = root
            index._members[root] = members
            index._kinds[root] = kinds
            index._min_seq[root] = min_seq
            index._live[root] = len(members)
            index._root_sig[root] = root_sig
            if root_sig is not None:
                index.buckets.setdefault(root_sig, set()).add(root)
                index._move(root, None, root_sig)
        index.checkpointed = len(covered)
        if not missing:
            return index, "loaded"
        for entry in missing:
            index.add(entry)
        return index, "caught-up"
