"""The remote vault query protocol: frames, pagination, deadlines.

A :class:`VaultService` serves the vault the standard crash fan-out
drained into; a :class:`RemoteVaultClient` must mirror the local
``VaultQuery`` answers exactly through CRC-checked frames, bounded
pages, and the deadline/retry discipline — and must convert every
transit fault into a typed, bounded failure, never a hang.
"""

import json
import random
import re

import pytest

from repro.chaos.scenarios import build_vault_run
from repro.distributed.network import Network
from repro.fleet import FederatedQuery, SnapVault, VaultQuery
from repro.fleet.remote import (
    PROTOCOL,
    ProtocolError,
    RemoteVaultClient,
    VaultService,
    VaultTimeout,
    VaultUnavailable,
    decode_frame,
    encode_frame,
)


@pytest.fixture(scope="module")
def vault_root(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("remote") / "vault")
    vault, collector, session = build_vault_run(vault_root=root)
    session.network.run()
    collector.drain()
    return root


@pytest.fixture
def vault(vault_root):
    return SnapVault(vault_root)


def serve(vault, **client_kw):
    network = Network()
    server = VaultService(vault, name="vault", **{
        k: client_kw.pop(k) for k in ("page_limit",) if k in client_kw
    })
    network.register_vault_service(server)
    client = RemoteVaultClient(network, service="vault", **client_kw)
    return network, server, client


# ----------------------------------------------------------------------
# Frames
# ----------------------------------------------------------------------
def test_frame_round_trip():
    body = {"op": "select", "args": {"machine": "machine-a"}}
    assert decode_frame(encode_frame(body)) == body


def test_frame_corruption_is_detected_not_served():
    data = bytearray(encode_frame({"op": "hello"}))
    data[len(data) // 2] ^= 0xFF
    with pytest.raises(ProtocolError):
        decode_frame(bytes(data))


def test_frame_garbage_is_one_typed_error():
    with pytest.raises(ProtocolError, match="unparseable"):
        decode_frame(b"\x00\x01not json")


# ----------------------------------------------------------------------
# Server ops and error responses
# ----------------------------------------------------------------------
def test_hello_reports_protocol_and_inventory(vault):
    _, _, client = serve(vault)
    hello = client.hello()
    assert hello["proto"] == PROTOCOL
    assert hello["snaps"] == len(vault)
    assert hello["machines"] == vault.machines()


def test_protocol_mismatch_is_rejected(vault):
    server = VaultService(vault)
    # A retired version's client (tb-vault-query/1 expects each
    # incident twice) is told which version this server speaks.
    for proto in ("tb-vault-query/99", "tb-vault-query/1"):
        response = server.handle({"proto": proto, "op": "incidents"})
        assert not response["ok"]
        assert response["error"] == (
            f"protocol mismatch: got {proto!r}, serving 'tb-vault-query/2'"
        )


def test_unknown_and_underscore_ops_rejected(vault):
    server = VaultService(vault)
    for op in ("nope", "", "_page", "__init__"):
        response = server.handle({"proto": PROTOCOL, "op": op})
        assert not response["ok"], op
        assert "unknown op" in response["error"]


def test_server_error_becomes_error_frame_not_raise(vault):
    server = VaultService(vault)
    out = server.handle_wire(
        encode_frame(
            {"proto": PROTOCOL, "op": "fetch_blob", "args": {"digest": "zz"}}
        )
    )
    body = decode_frame(out)
    assert not body["ok"] and "zz" in body["error"]


def test_error_response_raises_protocol_error_client_side(vault):
    _, _, client = serve(vault)
    with pytest.raises(ProtocolError, match="no stored blob"):
        client.fetch_blob("not-a-digest")


# ----------------------------------------------------------------------
# VaultQuery parity over the wire
# ----------------------------------------------------------------------
def test_select_matches_local_query(vault):
    _, _, client = serve(vault)
    local = VaultQuery(vault)
    remote_docs = [e.to_dict() for e in client.select()]
    local_docs = [e.to_dict() for e in local.select()]
    assert remote_docs == local_docs
    # Filters travel too.
    assert [e.to_dict() for e in client.select(machine="machine-a")] == [
        e.to_dict() for e in local.select(machine="machine-a")
    ]


def test_incidents_match_local_query(vault):
    _, _, client = serve(vault)
    local = VaultQuery(vault)
    remote = [i.to_dict() for i in client.incidents()]
    assert remote == [i.to_dict() for i in local.incidents()]


def test_a_filter_means_one_thing_at_any_window(vault):
    """A filter returns the whole incident touching a match, whether the
    vault's index groups or an explicit window regroups, locally and
    over the wire."""
    _, _, client = serve(vault)
    local = VaultQuery(vault)
    (whole,) = local.incidents()
    assert len(whole.machines) == 3
    for source in (local, client):
        for window in ({}, {"window": 10**9}):
            (incident,) = source.incidents(machine="machine-a", **window)
            assert incident.to_dict() == whole.to_dict()


def test_top_buckets_match_local_query(vault):
    _, _, client = serve(vault)
    local = VaultQuery(vault)
    remote = [b.to_dict() for b in client.top()]
    assert remote == [b.to_dict() for b in local.top()]


def test_pagination_is_transparent_and_counted(vault):
    _, server, client = serve(vault, page_limit=1)
    local = VaultQuery(vault)
    entries = client.select()
    assert [e.digest for e in entries] == [e.digest for e in local.select()]
    # One request per page, one page per entry at page_limit=1.
    assert client.metrics.remote_pages == len(entries)
    assert server.requests_served == len(entries)


def test_blob_fetch_crc_checked_and_reconstructs(vault):
    _, _, client = serve(vault)
    local = VaultQuery(vault)
    entry = local.select()[0]
    snap, notes = client.load(entry.digest)
    assert notes == []
    assert snap.process_name == entry.process
    trace, _ = client.reconstruct_entry(entry)
    assert trace.threads


def test_mapfiles_fetched_once_and_cached(vault):
    _, server, client = serve(vault)
    first = client.mapfiles()
    served = server.requests_served
    second = client.mapfiles()
    assert server.requests_served == served  # cache hit, no new requests
    assert {m.checksum for m in first} == {m.checksum for m in second}
    assert {m.checksum for m in first} == {
        m.checksum for m in vault.mapfiles()
    }


def test_reconstruct_incident_over_the_wire(vault):
    _, _, client = serve(vault)
    (incident,) = client.incidents()
    trace = client.reconstruct_incident(incident)
    assert {p.process_name for p in trace.processes} >= {"client"}


# ----------------------------------------------------------------------
# Deadlines, retries, chaos verdicts
# ----------------------------------------------------------------------
def test_drop_retries_then_vault_timeout(vault):
    network, _, client = serve(vault, max_retries=2, seed=4)
    network.query_chaos = lambda service, op, attempt: "drop"
    with pytest.raises(VaultTimeout, match="dropped"):
        client.hello()
    # Bounded by construction: (max_retries + 1) deadlines + backoffs.
    assert client.metrics.remote_retries == 2
    assert client.metrics.remote_timeouts == 1
    assert (
        client.cycles_spent
        <= 3 * client.deadline + 2 * client.backoff_max
    )


def test_corrupt_response_retried_to_success(vault):
    network, _, client = serve(vault, seed=1)
    verdicts = iter(["corrupt", None])
    network.query_chaos = lambda s, o, a: next(verdicts, None)
    hello = client.hello()
    assert hello["proto"] == PROTOCOL
    assert client.metrics.remote_retries == 1


def test_delay_past_deadline_discards_the_reply(vault):
    network, server, client = serve(vault, max_retries=0)
    network.query_chaos = lambda s, o, a: "delay"
    with pytest.raises(VaultTimeout, match="delayed"):
        client.hello()
    # The server *did* answer; the client just couldn't use it.
    assert server.requests_served == 1


def test_kill_server_then_unavailable(vault):
    network, server, client = serve(vault, max_retries=0)
    network.query_chaos = lambda s, o, a: "kill-server"
    with pytest.raises(VaultTimeout, match="died mid-stream"):
        client.hello()
    assert not server.alive
    network.query_chaos = None
    with pytest.raises(VaultUnavailable):
        client.hello()


def test_no_registered_service_is_unavailable(vault):
    network = Network()
    client = RemoteVaultClient(network, service="nowhere")
    with pytest.raises(VaultUnavailable):
        client.hello()


def test_retry_backoff_is_seeded_and_clamped(vault):
    def run(seed):
        network, _, client = serve(
            vault, seed=seed, max_retries=3,
            backoff_base=1000, backoff_max=2500,
        )
        network.query_chaos = lambda s, o, a: "drop"
        with pytest.raises(VaultTimeout):
            client.hello()
        return client.cycles_spent, client.metrics.remote_backoff_cycles

    a_spent, a_backoff = run(9)
    b_spent, b_backoff = run(9)
    c_spent, _ = run(10)
    assert (a_spent, a_backoff) == (b_spent, b_backoff)  # same seed
    # Clamp: three backoffs, none above backoff_max.
    assert a_backoff <= 3 * 2500


def test_wedged_server_costs_deadline_not_a_hang(vault):
    class StuckMachine:
        def _live_threads(self):
            return ["guest-thread"]

    network = Network()
    server = VaultService(vault, machine=StuckMachine())
    network.register_vault_service(server)
    client = RemoteVaultClient(network, service="vault", max_retries=1)
    assert server.wedged()
    with pytest.raises(VaultTimeout, match="unresponsive"):
        client.hello()
    assert server.requests_served == 0  # it never answered the wire


def test_charged_cycles_land_on_the_caller_machine(vault):
    class CallerMachine:
        cycles = 0

    machine = CallerMachine()
    network = Network()
    network.register_vault_service(VaultService(vault))
    client = RemoteVaultClient(network, service="vault", machine=machine)
    client.hello()
    assert machine.cycles == client.cycles_spent > 0


def test_entries_survive_json_round_trip(vault):
    """Wire docs are plain JSON: re-encoding them changes nothing."""
    _, _, client = serve(vault)
    for entry in client.select():
        doc = entry.to_dict()
        assert json.loads(json.dumps(doc)) == doc


def test_partial_select_respects_budget(vault):
    _, _, client = serve(vault, page_limit=1)
    # A budget of 0 cycles still fetches the first page, then stops.
    entries, truncated = client.select(budget=0, partial=True)
    assert truncated is True
    assert len(entries) == 1


def test_partial_mid_pagination_timeout_returns_prefix(vault):
    network, _, client = serve(vault, page_limit=1, max_retries=0)
    calls = {"n": 0}

    def chaos(service, op, attempt):
        calls["n"] += 1
        return "drop" if calls["n"] > 1 else None

    network.query_chaos = chaos
    entries, truncated = client.select(partial=True)
    assert truncated is True
    assert len(entries) == 1  # the page that made it
    # Without partial, the same failure propagates.
    calls["n"] = 0
    client2_network, _, client2 = serve(vault, page_limit=1, max_retries=0)
    client2_network.query_chaos = chaos
    with pytest.raises(VaultTimeout):
        client2.select()


# ----------------------------------------------------------------------
# Replies that pass the CRC but break the shape are refused, typed
# ----------------------------------------------------------------------
class RewritingService(VaultService):
    """A server whose successful replies pass through ``rewrite``."""

    def __init__(self, vault, rewrite):
        super().__init__(vault)
        self.rewrite = rewrite

    def handle(self, request):
        response = super().handle(request)
        if response["ok"]:
            self.rewrite(response["result"])
        return response


def _drop_clock(result):
    del result["entries"][0]["clock"]


def _late_clock(result):
    result["entries"][0]["clock"] = "late"


def _garbage_page(result):
    result["entries"] = "garbage"


def _extra_bucket_key(result):
    result["buckets"][0]["extra"] = 1


def _drop_incident_id(result):
    del result["incidents"][0]["incident_id"]


def _non_string_link(result):
    result["incidents"][0]["links"].append(7)


def _drop_incident_entry_clock(result):
    del result["incidents"][0]["entries"][0]["clock"]


@pytest.mark.parametrize(
    "op,rewrite,named",
    [
        ("select", _drop_clock, "select on 'vault': item 0 malformed"),
        ("select", _late_clock, "select on 'vault': item 0 malformed"),
        ("select", _garbage_page, "page at offset 0 is not a list"),
        ("top", _extra_bucket_key, "top on 'vault': item 0 malformed"),
        (
            "incidents",
            _drop_incident_id,
            "incidents on 'vault': item 0 malformed",
        ),
        (
            "incidents",
            _non_string_link,
            "incidents on 'vault': item 0 malformed",
        ),
        (
            "incidents",
            _drop_incident_entry_clock,
            "incidents on 'vault': item 0 malformed",
        ),
    ],
    ids=[
        "missing-clock",
        "wrong-typed-clock",
        "garbage-page",
        "extra-key",
        "missing-incident-id",
        "non-string-link",
        "incident-entry-missing-clock",
    ],
)
def test_malformed_items_are_protocol_errors(vault, op, rewrite, named):
    network = Network()
    network.register_vault_service(RewritingService(vault, rewrite))
    client = RemoteVaultClient(network, service="vault")
    with pytest.raises(ProtocolError, match=re.escape(named)):
        getattr(client, op)()
    # Federation names the vault as an error instead of serving it.
    items, report = getattr(FederatedQuery({"vault": client}), op)()
    assert items == []
    (status,) = report.vaults
    assert status.status == "error"
    assert named in status.detail


def _blob_not_hex(result):
    if "blob" in result:
        result["blob"] = 5


def _mapfile_missing(result):
    result.pop("mapfile", None)


def _checksums_not_list(result):
    if "checksums" in result:
        result["checksums"] = 7


def _mapfile_not_doc(result):
    if "mapfile" in result:
        result["mapfile"] = "x"


@pytest.mark.parametrize(
    "rewrite,named",
    [
        (_blob_not_hex, "fetch_blob on 'vault': blob "),
        (_mapfile_missing, "fetch_mapfile on 'vault': mapfile "),
        (_checksums_not_list, "fetch_mapfile on 'vault': checksums 7 "),
        (_mapfile_not_doc, "fetch_mapfile on 'vault': mapfile "),
    ],
    ids=["blob-not-hex", "mapfile-missing", "checksums-not-list",
         "mapfile-not-doc"],
)
def test_malformed_evidence_replies_are_protocol_errors(vault, rewrite, named):
    """Blob and mapfile replies are checked like list items: a bad shape
    is a ProtocolError naming the op and the vault, also out of an
    incident reconstruction."""
    network = Network()
    network.register_vault_service(RewritingService(vault, rewrite))
    federation = FederatedQuery(
        {"vault": RemoteVaultClient(network, service="vault")}
    )
    incidents, _ = federation.incidents()
    with pytest.raises(ProtocolError, match=re.escape(named)):
        federation.reconstruct_incident(incidents[0])


class StuckService(VaultService):
    """Answers every page with ``reply``; gives up after 1,000 requests
    so a client that keeps following it fails instead of hanging."""

    def __init__(self, vault, reply):
        super().__init__(vault)
        self.reply = reply

    def handle(self, request):
        self.requests_served += 1
        if self.requests_served > 1_000:
            return {"ok": True, "result": {"entries": [], "next": None}}
        return {"ok": True, "result": self.reply(self.vault)}


def _first_doc(vault):
    return vault.select()[0].to_dict()


@pytest.mark.parametrize(
    "reply",
    [
        lambda vault: {"entries": [], "next": 0},
        lambda vault: {"entries": [], "next": 64},
        lambda vault: {"entries": [_first_doc(vault)], "next": 0},
        lambda vault: {"entries": [_first_doc(vault)], "next": "1"},
    ],
    ids=["empty-same-offset", "empty-page", "next-not-past", "next-not-int"],
)
def test_pagination_must_advance(vault, reply):
    network = Network()
    server = StuckService(vault, reply)
    network.register_vault_service(server)
    client = RemoteVaultClient(network, service="vault")
    entries, report = FederatedQuery({"vault": client}, timeout=50_000).select()
    (status,) = report.vaults
    assert status.status == "error", status
    assert "does not advance" in status.detail
    assert entries == []
    assert server.requests_served == 1
