"""Fleet triage: ranked "top crashers" buckets over the incident index.

A diagnosis per incident does not scale to a fleet; the question a
support rotation actually asks is *"what are the top crashers, and
show me one good trace of each"*.  This module is that view:

* a :class:`CrashBucket` summarizes one signature's standing — how
  many snaps and incidents carry it, when it was first and last seen
  (ingest seqs), which machines and processes it hit, and the exemplar
  digest ``tbtrace report --verify`` replays to confirm the diagnosis
  and GC pins while the bucket is open;
* :func:`top_buckets` ranks them (count desc, first-seen asc) straight
  off the running per-bucket summaries the incident index keeps at
  ingest — O(buckets), no member walk, no reconstruction;
* :func:`build_report` produces the forensics report ``tbtrace
  report`` emits: a canonical JSON document (no absolute paths, no
  wall-clock timestamps — byte-stable for a fixed vault, which the
  golden tests rely on) with one salvage-reconstructed exemplar trace
  rendering per bucket, and :func:`render_report_text` /
  :func:`render_report_html` turn it into the terminal listing and a
  self-contained HTML page;
* :func:`pairwise_scores` is the triage-quality metric the chaos
  ground-truth harness scores the signature function with: pairwise
  precision (no distinct faults merged) and recall (same fault not
  scattered) between a predicted and a true clustering.
"""

from __future__ import annotations

import html as html_mod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.reconstruct.signature import signature_key
from repro.reconstruct.view import select_view

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.query import VaultQuery
    from repro.fleet.store import SnapVault

#: Report document schema (bump when the JSON shape changes).
REPORT_SCHEMA = "tb-triage-report/1"


@dataclass
class CrashBucket:
    """One signature's ranked standing in the vault."""

    sig: str
    #: Short stable hash of the signature — the display/report id.
    key: str
    #: Snaps carrying evidence in this bucket (bucketed incidents'
    #: members, bystanders included — the incident is the GC unit).
    count: int
    #: Distinct incidents collapsed into this bucket.
    incidents: int
    #: Ingest seqs it was first/last seen at; None in a bucket merged
    #: across vaults, whose seqs do not compare.
    first_seq: int | None = None
    last_seq: int | None = None
    machines: list[str] = field(default_factory=list)
    processes: list[str] = field(default_factory=list)
    #: Exemplar digest (earliest signature-carrying snap), pinned
    #: against GC while the bucket is open.
    exemplar: str | None = None

    def describe(self) -> str:
        """One line for ``tbtrace top`` listings."""
        seqs = f"seqs {self.first_seq}..{self.last_seq}  "
        return (
            f"[{self.key}] {self.count} snap(s) / "
            f"{self.incidents} incident(s)  "
            f"machines {','.join(self.machines)}  "
            f"{seqs if self.first_seq is not None else ''}{self.sig}"
        )

    def to_dict(self) -> dict:
        return {
            "key": self.key,
            "sig": self.sig,
            "count": self.count,
            "incidents": self.incidents,
            "first_seq": self.first_seq,
            "last_seq": self.last_seq,
            "machines": self.machines,
            "processes": self.processes,
            "exemplar": self.exemplar,
        }


def top_buckets(
    vault: "SnapVault", limit: int | None = None
) -> list[CrashBucket]:
    """Ranked crash buckets, biggest first — O(buckets), no archives.

    Read from the incident index's running per-bucket summaries, which
    count exactly the vault's live entries (a compaction in flight
    hands its victims to the index as it drops them), then ranked
    count-desc / first-seen-asc / signature so the order is a total one
    and listings are reproducible.
    """
    buckets: list[CrashBucket] = []
    # The index lock: summaries change under ingest and compaction.
    with vault._lock:
        summaries = vault.incident_index.bucket_summaries()
        for sig, summary in summaries.items():
            if not summary.count:
                continue  # every member compacted away mid-listing
            buckets.append(
                CrashBucket(
                    sig=sig,
                    key=signature_key(sig),
                    count=summary.count,
                    incidents=summary.incidents,
                    first_seq=summary.first_seq,
                    last_seq=summary.last_seq,
                    machines=sorted(summary.machines),
                    processes=sorted(summary.processes),
                    exemplar=summary.exemplar,
                )
            )
    buckets.sort(key=lambda b: (-b.count, b.first_seq, b.sig))
    if limit is not None:
        buckets = buckets[:limit]
    return buckets


def exemplar_rendering(
    query: "VaultQuery", bucket: CrashBucket, max_lines: int = 30
) -> list[str]:
    """The bucket's one exemplar trace, salvage-reconstructed.

    Fault-directed view selection (§4.3.3) picks the rendering; output
    is clipped to the last ``max_lines`` rows (the fault sits at the
    tail).  Never raises — a bucket whose exemplar is unreadable
    reports that instead of killing the whole report.
    """
    if bucket.exemplar is None:
        return ["(no exemplar recorded)"]
    try:
        trace, notes = query.reconstruct_entry(bucket.exemplar, salvage=True)
    except Exception as exc:  # noqa: BLE001 — report what we can
        return [f"(exemplar {bucket.exemplar[:12]} unreadable: {exc})"]
    rows = [
        f"exemplar {bucket.exemplar[:12]}: {trace.reason} in "
        f"{trace.process_name} on {trace.machine_name}"
    ]
    rows.extend(f"note: {note}" for note in notes)
    view_lines = select_view(trace).splitlines()
    if len(view_lines) > max_lines:
        skipped = len(view_lines) - max_lines
        rows.append(f"  ... {skipped} earlier row(s) clipped ...")
        view_lines = view_lines[-max_lines:]
    rows.extend(view_lines)
    return rows


def build_report(
    query: "VaultQuery",
    limit: int | None = None,
    exemplar_lines: int = 30,
    verify: bool = False,
) -> dict:
    """The triage report document (``tbtrace report``'s JSON form).

    Canonical and self-contained: ranked buckets with their exemplar
    renderings, plus coverage counts (how much of the vault is
    bucketed).  Deliberately excludes vault paths and wall-clock
    times so a fixed-seed fleet fixture reports byte-identically.

    With ``verify=True`` each bucket's exemplar is additionally
    *replayed* (:meth:`~repro.fleet.query.VaultQuery.verify_bucket`)
    and the bucket document gains a ``replay_verified`` verdict —
    opt-in because replay re-executes the recorded run.
    """
    vault = query.vault
    buckets = top_buckets(vault, limit=limit)
    fault_snaps = sum(
        1 for e in vault.index.values() if e.sig is not None
    )
    docs = []
    for bucket in buckets:
        doc = bucket.to_dict()
        doc["exemplar_trace"] = exemplar_rendering(
            query, bucket, max_lines=exemplar_lines
        )
        if verify:
            doc["replay_verified"] = query.verify_bucket(bucket)
        docs.append(doc)
    query.metrics.reports_rendered += 1
    return {
        "schema": REPORT_SCHEMA,
        "snaps": len(vault.index),
        "bucketed_snaps": fault_snaps,
        "buckets": docs,
    }


def render_report_text(report: dict) -> list[str]:
    """The terminal form of a report, one display line each."""
    lines = [
        f"top crashers: {len(report['buckets'])} bucket(s), "
        f"{report['bucketed_snaps']}/{report['snaps']} snap(s) bucketed"
    ]
    for rank, doc in enumerate(report["buckets"], start=1):
        lines.append("")
        lines.append(
            f"#{rank} [{doc['key']}] {doc['count']} snap(s) / "
            f"{doc['incidents']} incident(s)  "
            f"seqs {doc['first_seq']}..{doc['last_seq']}"
        )
        lines.append(f"   {doc['sig']}")
        lines.append(
            f"   machines {','.join(doc['machines'])}  "
            f"processes {','.join(doc['processes'])}"
        )
        verdict = doc.get("replay_verified")
        if verdict is not None:
            state = "VERIFIED" if verdict["verified"] else "unverified"
            lines.append(f"   replay: {state} - {verdict['reason']}")
        lines.extend(f"   {row}" for row in doc["exemplar_trace"])
    return lines


def render_report_html(report: dict) -> str:
    """A self-contained HTML page (inline CSS, no external assets)."""
    esc = html_mod.escape
    parts = [
        "<!DOCTYPE html>",
        '<html lang="en">',
        "<head>",
        '<meta charset="utf-8">',
        "<title>TraceBack triage report</title>",
        "<style>",
        "body{font-family:sans-serif;margin:2em;background:#fafafa;}",
        "h1{font-size:1.4em;} h2{font-size:1.1em;margin-bottom:0.2em;}",
        ".bucket{background:#fff;border:1px solid #ddd;border-radius:4px;"
        "padding:1em;margin:1em 0;}",
        ".sig{font-family:monospace;color:#a33;}",
        ".meta{color:#555;font-size:0.9em;}",
        "pre{background:#f4f4f4;padding:0.8em;overflow-x:auto;"
        "font-size:0.85em;}",
        "</style>",
        "</head>",
        "<body>",
        "<h1>TraceBack triage report &mdash; top crashers</h1>",
        f"<p class=\"meta\">{len(report['buckets'])} bucket(s); "
        f"{report['bucketed_snaps']}/{report['snaps']} snap(s) "
        "bucketed</p>",
    ]
    for rank, doc in enumerate(report["buckets"], start=1):
        parts.append('<div class="bucket">')
        parts.append(
            f"<h2>#{rank} <code>[{esc(doc['key'])}]</code> "
            f"{doc['count']} snap(s) / {doc['incidents']} incident(s)</h2>"
        )
        parts.append(f'<p class="sig">{esc(doc["sig"])}</p>')
        parts.append(
            '<p class="meta">'
            f"machines {esc(','.join(doc['machines']))} &middot; "
            f"processes {esc(','.join(doc['processes']))} &middot; "
            f"seqs {doc['first_seq']}&ndash;{doc['last_seq']}</p>"
        )
        parts.append(
            "<pre>" + esc("\n".join(doc["exemplar_trace"])) + "</pre>"
        )
        parts.append("</div>")
    parts.extend(["</body>", "</html>"])
    return "\n".join(parts) + "\n"


# ----------------------------------------------------------------------
# Triage quality scoring (the chaos ground-truth harness's metric)
# ----------------------------------------------------------------------
def pairwise_scores(
    predicted: dict[str, set], truth: dict[str, set]
) -> tuple[float, float]:
    """Pairwise precision/recall of a clustering against ground truth.

    Both arguments map cluster label → item set over the same items
    (items missing from ``predicted`` count as unclustered — they form
    no pairs, costing recall but never precision, which matches the
    triage stance: an unbucketed incident is a miss, a wrongly-merged
    one is a lie).

    * precision — of the item pairs the prediction puts together, the
      fraction the truth also puts together (1.0 = no distinct faults
      ever merged);
    * recall — of the pairs the truth puts together, the fraction the
      prediction also puts together.

    Degenerate cases score 1.0: no predicted pairs → vacuous
    precision, no true pairs → vacuous recall.
    """

    def pairs(clusters: dict[str, set]) -> set[tuple]:
        out: set[tuple] = set()
        for members in clusters.values():
            ordered = sorted(members)
            for i, a in enumerate(ordered):
                for b in ordered[i + 1 :]:
                    out.add((a, b))
        return out

    predicted_pairs = pairs(predicted)
    true_pairs = pairs(truth)
    agree = len(predicted_pairs & true_pairs)
    precision = (
        agree / len(predicted_pairs) if predicted_pairs else 1.0
    )
    recall = agree / len(true_pairs) if true_pairs else 1.0
    return precision, recall
