"""Named chaos scenarios: end-to-end damaged distributed runs.

Each scenario builds the same three-machine RPC chain (client ->
frontend -> backend, two nested RPCs, every process instrumented), runs
it on the simulated network, then injures the evidence the way one of
the paper's failure stories would (§2.1 eBay transmission, §4.1 wrapped
buffers, kill -9 mid-run, clock skew "even when large", §5).  The
result carries the surviving snaps, the mapfiles, and the ground-truth
damage list — everything a test (or a demo) needs to reconstruct in
salvage mode and check the degradation summary names each loss.
"""

from __future__ import annotations

import random
import tempfile
from dataclasses import dataclass, field

from repro.chaos.inject import (
    clobber_header,
    copy_snap,
    corrupt_archive,
    drop_machine,
    drop_sync_records,
    duplicate_sync_records,
    flip_bits,
    skew_clock,
    tear_archive,
    truncate_buffer,
    zero_words,
)
from repro.distributed.session import DistributedSession
from repro.instrument.mapfile import Mapfile
from repro.reconstruct import DistributedTrace, Reconstructor
from repro.runtime.archive import compress_snap, salvage_decompress
from repro.runtime.snap import SnapFile
from repro.runtime.sync import reset_runtime_ids

CLIENT_SRC = """
int argbuf[1];
int retbuf[1];
int main() {
    argbuf[0] = 20;
    int status;
    status = rpc_call(7, argbuf, 1, retbuf, 1);
    print_int(status);
    print_int(retbuf[0]);
    return 0;
}
"""

FRONTEND_SRC = """
int argbuf[1];
int retbuf[1];
int handle(int argaddr, int arglen, int retaddr, int retcap) {
    int value;
    int status;
    value = peek(argaddr);
    argbuf[0] = value + 1;
    status = rpc_call(8, argbuf, 1, retbuf, 1);
    poke(retaddr, retbuf[0]);
    return status;
}
"""

BACKEND_SRC = """
int handle(int argaddr, int arglen, int retaddr, int retcap) {
    poke(retaddr, peek(argaddr) * 2);
    return 0;
}
"""

#: Machine names of the standard topology, in caller -> callee order.
MACHINES = ["machine-a", "machine-b", "machine-c"]


@dataclass
class ChaosResult:
    """One damaged run, ready for reconstruction."""

    name: str
    #: Surviving snaps (None entries mark archive losses kept in place).
    snaps: list[SnapFile | None]
    mapfiles: list[Mapfile]
    #: Ground truth: what the injector destroyed.
    injected: list[str]
    #: Every machine that took part in the run.
    expected_machines: list[str] = field(default_factory=list)
    #: machine name -> archive/salvage loss lines discovered on load.
    salvage_notes: dict[str, list[str]] = field(default_factory=dict)
    #: Root of the snap vault the run drained into (vault scenarios).
    vault_dir: str | None = None
    #: Every regional vault root (federated scenarios).
    vault_dirs: list[str] = field(default_factory=list)
    #: The FederationReport document, when the evidence was gathered
    #: through a federated query (coverage ladder + per-vault status).
    federation: dict | None = None

    def reconstruct(self, strict: bool = False) -> DistributedTrace:
        """Reconstruct the damaged evidence (salvage mode by default)."""
        return Reconstructor(self.mapfiles).reconstruct_distributed(
            self.snaps,
            strict=strict,
            expected_machines=self.expected_machines,
            salvage_notes=self.salvage_notes,
        )


def build_base(
    skews: tuple[int, int, int] = (0, 0, 0),
    kill_at_cycles: int | None = None,
    rpc_chaos=None,
):
    """Run the standard chain and return (snaps, mapfiles, session).

    ``kill_at_cycles`` runs the network for that budget, then ``kill
    -9``s the frontend process via the VM kill path and lets the rest of
    the network drain — the paper's abrupt-termination story.
    ``rpc_chaos`` installs a network-level fault hook
    (see :class:`repro.distributed.network.Network`).
    """
    # Repeated runs in one process must be word-identical; rewind the
    # runtime-id allocator or SYNC records embed different ids.
    reset_runtime_ids()
    session = DistributedSession()
    machines = [
        session.add_machine(name, clock_skew=skew)
        for name, skew in zip(MACHINES, skews)
    ]
    session.add_process(machines[0], "client", CLIENT_SRC, start=True)
    session.add_process(
        machines[1], "frontend", FRONTEND_SRC, services={7: "handle"}
    )
    session.add_process(
        machines[2], "backend", BACKEND_SRC, services={8: "handle"}
    )
    if rpc_chaos is not None:
        session.network.rpc_chaos = rpc_chaos

    if kill_at_cycles is None:
        result = session.run()
        return result.snaps, result.mapfiles, session

    # Manual drive with a mid-run kill -9 of the frontend.
    for handle in session.nodes.values():
        if handle.entry_module is not None:
            handle.process.start(handle.entry_module)
    total = sum(m.cycles for m in session.network.machines)
    session.network.run(max_total_cycles=total + kill_at_cycles)
    session.nodes["frontend"].process.kill()
    session.network.run()
    snaps = []
    for handle in session.nodes.values():
        snap = handle.runtime.snap_store.latest()
        if snap is None:
            # Post-mortem snap: trace buffers outlive the kill (they
            # live in "memory-mapped files"), exactly the paper's claim.
            snap = handle.runtime.build_snap("post-mortem", {"signal": 9})
        snaps.append(snap)
    return snaps, session.mapfiles, session


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def _base_result(name: str) -> ChaosResult:
    snaps, mapfiles, _ = build_base()
    return ChaosResult(
        name=name,
        snaps=[copy_snap(s) for s in snaps],
        mapfiles=mapfiles,
        injected=[],
        expected_machines=list(MACHINES),
    )


def scenario_corrupt_buffer(rng: random.Random) -> ChaosResult:
    """Bit-flips and zeroed runs inside one machine's buffer dumps."""
    result = _base_result("corrupt-buffer")
    victim = result.snaps[rng.randrange(len(result.snaps))]
    result.injected += flip_bits(victim, rng, flips=6)
    result.injected += zero_words(victim, rng, runs=1, run_len=12)
    return result


def scenario_torn_header(rng: random.Random) -> ChaosResult:
    """Clobbered buffer header words (magic / geometry / commit)."""
    result = _base_result("torn-header")
    victim = result.snaps[rng.randrange(len(result.snaps))]
    result.injected += clobber_header(victim, rng, words=2)
    return result


def scenario_truncated_buffer(rng: random.Random) -> ChaosResult:
    """One buffer's words cut short inside the snap artifact."""
    result = _base_result("truncated-buffer")
    victim = result.snaps[rng.randrange(len(result.snaps))]
    result.injected += truncate_buffer(victim, rng)
    return result


def scenario_truncated_archive(rng: random.Random) -> ChaosResult:
    """A compressed snap container torn in transmission; the survivors
    are salvaged from the partial container."""
    result = _base_result("truncated-archive")
    victim_idx = rng.randrange(len(result.snaps))
    victim = result.snaps[victim_idx]
    machine = victim.machine_name
    data = compress_snap(victim)
    torn, note = tear_archive(data, rng)
    result.injected.append(f"{machine}: {note}")
    salvaged, notes = salvage_decompress(torn)
    result.snaps[victim_idx] = salvaged  # may be None: total loss
    result.salvage_notes[machine] = notes or ["container unrecoverable"]
    return result


def scenario_corrupt_archive(rng: random.Random) -> ChaosResult:
    """Bit rot inside a compressed snap container."""
    result = _base_result("corrupt-archive")
    victim_idx = rng.randrange(len(result.snaps))
    victim = result.snaps[victim_idx]
    machine = victim.machine_name
    data = compress_snap(victim)
    bad, notes = corrupt_archive(data, rng)
    result.injected += [f"{machine}: {n}" for n in notes]
    salvaged, load_notes = salvage_decompress(bad)
    result.snaps[victim_idx] = salvaged
    result.salvage_notes[machine] = load_notes or []
    return result


def scenario_missing_machine(rng: random.Random) -> ChaosResult:
    """One machine contributes no snap at all."""
    result = _base_result("missing-machine")
    survivors, dropped = drop_machine(
        [s for s in result.snaps if s is not None], rng
    )
    result.snaps = list(survivors)
    result.injected.append(f"machine {dropped}: snap never arrived")
    return result


def scenario_dropped_sync(rng: random.Random) -> ChaosResult:
    """SYNC records zeroed out of the buffers: RPC legs lose evidence."""
    result = _base_result("dropped-sync")
    for snap in result.snaps:
        result.injected += drop_sync_records(snap, rng, count=1)
    return result


def scenario_duplicated_sync(rng: random.Random) -> ChaosResult:
    """SYNC records replayed over their neighbours."""
    result = _base_result("duplicated-sync")
    for snap in result.snaps:
        result.injected += duplicate_sync_records(snap, rng, count=1)
    return result


def scenario_clock_skew(rng: random.Random) -> ChaosResult:
    """Extreme inter-machine clock skew (§5.2: correct "even when the
    time skew between machines is large"), plus post-hoc metadata skew."""
    shifts = (0, rng.randrange(1 << 30, 1 << 34), -rng.randrange(1 << 30, 1 << 34))
    snaps, mapfiles, _ = build_base(skews=shifts)
    result = ChaosResult(
        name="clock-skew",
        snaps=[copy_snap(s) for s in snaps],
        mapfiles=mapfiles,
        injected=[f"machine skews {shifts}"],
        expected_machines=list(MACHINES),
    )
    result.injected += skew_clock(result.snaps[-1], 1 << 35)
    return result


def scenario_abrupt_kill(rng: random.Random) -> ChaosResult:
    """The frontend is kill -9'd mid-run (the VM kill path); its trace
    buffers are recovered post mortem."""
    cycles = rng.randrange(4_000, 40_000)
    snaps, mapfiles, _ = build_base(kill_at_cycles=cycles)
    return ChaosResult(
        name="abrupt-kill",
        snaps=[copy_snap(s) for s in snaps],
        mapfiles=mapfiles,
        injected=[f"frontend killed after ~{cycles} network cycles"],
        expected_machines=list(MACHINES),
    )


def scenario_stripped_sync_payload(rng: random.Random) -> ChaosResult:
    """The wire loses the out-of-band TraceBack triple (an
    uninstrumented hop): SYNC chains break at the network."""
    strip_after = rng.randrange(2)

    calls = {"n": 0}

    def hook(request):
        calls["n"] += 1
        if calls["n"] > strip_after:
            return "strip-sync"
        return None

    snaps, mapfiles, _ = build_base(rpc_chaos=hook)
    return ChaosResult(
        name="stripped-sync-payload",
        snaps=[copy_snap(s) for s in snaps],
        mapfiles=mapfiles,
        injected=[f"SYNC payload stripped after {strip_after} RPC(s)"],
        expected_machines=list(MACHINES),
    )


def scenario_killed_callee(rng: random.Random) -> ChaosResult:
    """The callee process is killed by the network instead of serving
    (server died between registration and dispatch)."""

    def hook(request):
        return "kill-callee" if request.service == 8 else None

    snaps, mapfiles, _ = build_base(rpc_chaos=hook)
    return ChaosResult(
        name="killed-callee",
        snaps=[copy_snap(s) for s in snaps],
        mapfiles=mapfiles,
        injected=["backend killed on first dispatch to service 8"],
        expected_machines=list(MACHINES),
    )


#: Crashing client for the vault scenarios: same RPC chain, then a
#: divide-by-zero after the reply — the unhandled trigger that starts
#: the group fan-out.
CLIENT_CRASH_SRC = """
int argbuf[1];
int retbuf[1];
int main() {
    argbuf[0] = 20;
    int status;
    status = rpc_call(7, argbuf, 1, retbuf, 1);
    print_int(status);
    int z;
    z = 1 / (retbuf[0] - retbuf[0]);
    return 0;
}
"""


def build_vault_run(
    vault_root: str | None = None,
    upload_chaos=None,
    collector_options: dict | None = None,
):
    """The standard chain, crashing client, draining into a snap vault.

    Every machine's service process is linked to the others, all three
    processes form one snap group ("chain"), and a collector forwards
    every snap into a :class:`~repro.fleet.store.SnapVault`.  Returns
    ``(vault, collector, session)`` with the network parked right after
    the crash's group fan-out has been uploaded — callers decide who to
    kill next.
    """
    from repro.distributed.session import DistributedSession
    from repro.fleet.store import SnapVault
    from repro.runtime.runtime import RuntimeConfig
    from repro.runtime.snap import SnapPolicy

    reset_runtime_ids()
    root = vault_root or tempfile.mkdtemp(prefix="tb-vault-")
    vault = SnapVault(root, shards=4)
    session = DistributedSession(
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled")
        )
    )
    machines = [
        session.add_machine(name, clock_skew=skew)
        for name, skew in zip(MACHINES, (0, 1_000_000, -500_000))
    ]
    options = dict(batch_size=2, queue_limit=8)
    options.update(collector_options or {})
    collector = session.attach_vault(vault, **options)
    if upload_chaos is not None:
        session.network.upload_chaos = upload_chaos
    services = list(session.services.values())
    for service in services:
        service.configure_group("chain", ["client", "frontend", "backend"])
    for i, a in enumerate(services):
        for b in services[i + 1 :]:
            a.link(b)
    session.add_process(machines[0], "client", CLIENT_CRASH_SRC, start=True)
    session.add_process(
        machines[1], "frontend", FRONTEND_SRC, services={7: "handle"}
    )
    session.add_process(
        machines[2], "backend", BACKEND_SRC, services={8: "handle"}
    )
    for handle in session.nodes.values():
        if handle.entry_module is not None:
            handle.process.start(handle.entry_module)
    # Run until the crash has snapped and fanned out, then drain the
    # uplink so the evidence is durably in the vault.
    client_store = session.nodes["client"].runtime.snap_store
    for _ in range(500):
        total = sum(m.cycles for m in session.network.machines)
        session.network.run(max_total_cycles=total + 2_000)
        if client_store.snaps:
            break
    collector.drain()
    return vault, collector, session


def scenario_vault_machine_loss(rng: random.Random) -> ChaosResult:
    """A machine is ``kill -9``'d mid-run *after* its group snap was
    uploaded: the vault keeps the evidence the machine can no longer
    produce, and the surviving group snap still reconstructs.

    Uploads are also chaos-dropped with probability 1/3 (seeded), so
    the run only passes because retry-with-backoff redelivers.
    """

    def upload_chaos(machine, snap, attempt):
        return "drop" if rng.random() < (1 / 3) else None

    vault, collector, session = build_vault_run(upload_chaos=upload_chaos)
    uploaded_before_kill = len(vault)
    # The frontend machine dies abruptly; its pre-uploaded snaps are
    # the only evidence of it that will ever exist.
    for process in session.nodes["frontend"].process.machine.processes:
        process.kill()
    session.network.run()
    collector.drain()

    entries = vault.select()
    snaps = []
    salvage_notes: dict[str, list[str]] = {}
    for entry in entries:
        snap, notes = vault.load(entry.digest, salvage=True)
        snaps.append(snap)
        if notes:
            salvage_notes[entry.machine] = notes
    return ChaosResult(
        name="vault-machine-loss",
        snaps=snaps,
        mapfiles=session.mapfiles,
        injected=[
            "frontend machine killed after group-snap upload "
            f"({uploaded_before_kill} snap(s) already in the vault)",
            f"{collector.metrics.drops} upload(s) chaos-dropped in transit",
        ],
        expected_machines=list(MACHINES),
        salvage_notes=salvage_notes,
        vault_dir=vault.root,
    )


#: Regional vault layout for the federated scenarios: the crash chain
#: spans two regions, so one incident's evidence is split across vaults
#: that share no manifest — machine-c's group snap lives only in the
#: west vault.
REGIONS = {
    "vault-east": ("machine-a", "machine-b"),
    "vault-west": ("machine-c",),
}

#: The vault the federated scenarios lose.  Deliberately the *west*
#: vault: the client's triggering crash snap lives in the east, so the
#: partial result still contains the true first fault — what the
#: coverage ladder promises a responder ("partial" names the lost
#: region; the reachable evidence stays correct).
FEDERATION_VICTIM = "vault-west"


def build_federated_fleet(vault_roots: dict | None = None):
    """The crashing chain draining into two regional vaults.

    Same topology and crash as :func:`build_vault_run`, but each
    machine's service process forwards to its *region's* collector:
    machines a and b drain into the east vault, machine c into the
    west.  Every mapfile is stored in every vault before ingest (so
    each region mines signatures standalone).  Returns
    ``(vaults, session)`` with the crash fan-out drained — one
    distributed incident whose snaps are split across the two stores.
    """
    from repro.fleet.collector import Collector
    from repro.fleet.store import SnapVault
    from repro.runtime.runtime import RuntimeConfig
    from repro.runtime.snap import SnapPolicy

    reset_runtime_ids()
    roots = vault_roots or {
        name: tempfile.mkdtemp(prefix=f"tb-{name}-") for name in REGIONS
    }
    vaults = {name: SnapVault(roots[name], shards=4) for name in REGIONS}
    session = DistributedSession(
        runtime_config=RuntimeConfig(
            policy=SnapPolicy.parse("snap on unhandled")
        )
    )
    machines = [
        session.add_machine(name, clock_skew=skew)
        for name, skew in zip(MACHINES, (0, 1_000_000, -500_000))
    ]
    collectors = {
        name: Collector(
            vault,
            network=session.network,
            name=f"tb-collector-{name}",
            batch_size=2,
            queue_limit=8,
        )
        for name, vault in vaults.items()
    }
    for machine in machines:
        region = next(
            name for name, members in REGIONS.items() if machine.name in members
        )
        session.services[machine].forward_to(collectors[region])
    services = list(session.services.values())
    for service in services:
        service.configure_group("chain", ["client", "frontend", "backend"])
    for i, a in enumerate(services):
        for b in services[i + 1 :]:
            a.link(b)
    session.add_process(machines[0], "client", CLIENT_CRASH_SRC, start=True)
    session.add_process(
        machines[1], "frontend", FRONTEND_SRC, services={7: "handle"}
    )
    session.add_process(
        machines[2], "backend", BACKEND_SRC, services={8: "handle"}
    )
    # Sig mining happens at ingest; every region needs every mapfile
    # *before* the first snap arrives.
    for mapfile in session.mapfiles:
        for vault in vaults.values():
            vault.put_mapfile(mapfile)
    for handle in session.nodes.values():
        if handle.entry_module is not None:
            handle.process.start(handle.entry_module)
    client_store = session.nodes["client"].runtime.snap_store
    for _ in range(500):
        total = sum(m.cycles for m in session.network.machines)
        session.network.run(max_total_cycles=total + 2_000)
        if client_store.snaps:
            break
    for collector in collectors.values():
        collector.drain()
    return vaults, session


def serve_federation(
    vaults: dict,
    network,
    rng: random.Random | None = None,
    deadline: int = 20_000,
    max_retries: int = 1,
    backoff_base: int = 200,
    timeout: int = 200_000,
):
    """Serve every vault on ``network`` and return the federated view.

    Returns ``(federated, clients)`` where ``clients`` maps vault name
    to its :class:`~repro.fleet.remote.RemoteVaultClient` (handy for
    fetching blobs from the survivors after a partial answer).
    """
    from repro.fleet.federation import FederatedQuery
    from repro.fleet.remote import RemoteVaultClient, VaultService

    clients = {}
    for name, vault in vaults.items():
        network.register_vault_service(VaultService(vault, name=name))
        clients[name] = RemoteVaultClient(
            network,
            service=name,
            deadline=deadline,
            max_retries=max_retries,
            backoff_base=backoff_base,
            seed=rng.randrange(1 << 30) if rng is not None else 0,
        )
    return FederatedQuery(clients, timeout=timeout), clients


def _federated_result(
    name: str, rng: random.Random, verdict: str, injected_note: str
) -> ChaosResult:
    """Run the two-vault fleet, lose the west vault at query time via
    ``verdict``, gather the partial federated answer, and load the
    surviving evidence from the vaults that served it (blob CRC path)."""
    from repro.fleet.remote import RemoteQueryError

    vaults, session = build_federated_fleet()
    federated, _clients = serve_federation(vaults, session.network, rng=rng)

    def query_chaos(service, op, attempt):
        return verdict if service == FEDERATION_VICTIM else None

    session.network.query_chaos = query_chaos
    incidents, report = federated.incidents()
    snaps: list[SnapFile | None] = []
    salvage_notes: dict[str, list[str]] = {}
    for incident in incidents:
        for entry in incident.entries:
            # Each snap comes from the surviving vault that served it.
            try:
                snap, notes = federated.load(entry.digest, salvage=True)
            except RemoteQueryError:
                continue
            snaps.append(snap)
            if notes:
                salvage_notes.setdefault(entry.machine, []).extend(notes)
    lost = ", ".join(report.degraded_vaults()) or "none"
    return ChaosResult(
        name=name,
        snaps=snaps,
        mapfiles=session.mapfiles,
        injected=[
            f"vault {FEDERATION_VICTIM}: {injected_note}",
            f"federation coverage {report.coverage}; lost vault(s): {lost}",
        ],
        expected_machines=list(MACHINES),
        salvage_notes=salvage_notes,
        vault_dir=vaults["vault-east"].root,
        vault_dirs=[vault.root for vault in vaults.values()],
        federation=report.to_dict(),
    )


def scenario_federated_vault_loss(rng: random.Random) -> ChaosResult:
    """The west vault's query server dies mid-stream: the federated
    answer degrades to ``partial``, names the lost region, and the east
    evidence (including the true first fault) still reconstructs."""
    return _federated_result(
        "federated-vault-loss",
        rng,
        verdict="kill-server",
        injected_note="query server killed mid-stream",
    )


def scenario_slow_vault_timeout(rng: random.Random) -> ChaosResult:
    """Every reply from the west vault lands past the client's deadline:
    retries with backoff exhaust, the vault is reported timed out, and
    the federation degrades to a named partial answer instead of
    hanging."""
    return _federated_result(
        "slow-vault-timeout",
        rng,
        verdict="delay",
        injected_note="responses delayed past every deadline",
    )


SCENARIOS = {
    "corrupt-buffer": scenario_corrupt_buffer,
    "torn-header": scenario_torn_header,
    "truncated-buffer": scenario_truncated_buffer,
    "truncated-archive": scenario_truncated_archive,
    "corrupt-archive": scenario_corrupt_archive,
    "missing-machine": scenario_missing_machine,
    "dropped-sync": scenario_dropped_sync,
    "duplicated-sync": scenario_duplicated_sync,
    "clock-skew": scenario_clock_skew,
    "abrupt-kill": scenario_abrupt_kill,
    "stripped-sync-payload": scenario_stripped_sync_payload,
    "killed-callee": scenario_killed_callee,
    "vault-machine-loss": scenario_vault_machine_loss,
    "federated-vault-loss": scenario_federated_vault_loss,
    "slow-vault-timeout": scenario_slow_vault_timeout,
}


def run_scenario(name: str, seed: int = 0) -> ChaosResult:
    """Build and damage one named scenario, reproducibly."""
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        raise ValueError(
            f"unknown chaos scenario {name!r}; "
            f"choose from {sorted(SCENARIOS)}"
        ) from None
    return scenario(random.Random(seed))
