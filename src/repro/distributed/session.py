"""Convenience builder for distributed traced runs.

Wires the pieces of a multi-machine scenario: machines with skewed
clocks, one TraceBack runtime + service process per machine, MiniC
modules per process, RPC service registration — then runs the network,
snaps every process, and reconstructs the master trace.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.distributed.network import Network
from repro.instrument import InstrumentConfig, Mapfile, instrument_module
from repro.lang.minic import compile_source
from repro.reconstruct import DistributedTrace, Reconstructor
from repro.runtime import (
    RuntimeConfig,
    ServiceProcess,
    SnapFile,
    TraceBackRuntime,
)
from repro.vm import Machine, Process

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fleet.collector import Collector
    from repro.fleet.store import SnapVault


@dataclass
class NodeHandle:
    """One process in the distributed session."""

    process: Process
    runtime: TraceBackRuntime
    entry_module: str | None = None


@dataclass
class DistributedResult:
    """Outcome of a distributed run."""

    status: str
    snaps: list[SnapFile]
    mapfiles: list[Mapfile]
    nodes: dict[str, NodeHandle] = field(default_factory=dict)
    #: The collector the run drained into, when a vault was attached
    #: (the first one, when several shared the load).
    collector: "Collector | None" = None
    #: Every collector that fed the vault, in round-robin order.
    collectors: list["Collector"] = field(default_factory=list)

    def reconstruct(self) -> DistributedTrace:
        """Stitch all snaps into the master trace (§5)."""
        return Reconstructor(self.mapfiles).reconstruct_distributed(self.snaps)


class DistributedSession:
    """Builder for multi-machine TraceBack scenarios."""

    def __init__(
        self,
        rpc_latency: int = 500,
        runtime_config: RuntimeConfig | None = None,
        instrument_config: InstrumentConfig | None = None,
    ):
        self.network = Network(rpc_latency=rpc_latency)
        self.runtime_config = runtime_config or RuntimeConfig()
        self.instrument_config = instrument_config or InstrumentConfig()
        self.mapfiles: list[Mapfile] = []
        self.nodes: dict[str, NodeHandle] = {}
        self.services: dict[Machine, ServiceProcess] = {}
        self.collector: "Collector | None" = None
        self.collectors: list["Collector"] = []
        self._next_collector = 0

    # ------------------------------------------------------------------
    def attach_vault(
        self, vault: "SnapVault", collectors: int = 1, **collector_options
    ) -> "Collector":
        """Drain this session's snaps into ``vault``.

        Creates ``collectors`` :class:`~repro.fleet.collector.Collector`
        instances bound to this session's network (the vault's shard
        locks make concurrent ingest safe), spreads every existing (and
        future) machine's service process over them round-robin, and
        stores the session's mapfiles in the vault so its snaps
        reconstruct standalone.  ``run()`` drains every collector when
        the network quiesces.  Returns the first collector; the full
        set is ``self.collectors``.
        """
        if collectors < 1:
            raise ValueError("collectors must be >= 1")
        from repro.fleet.collector import Collector

        self.collectors = [
            Collector(
                vault,
                network=self.network,
                name=f"tb-collector-{i}",
                **collector_options,
            )
            for i in range(collectors)
        ]
        self.collector = self.collectors[0]
        for service in self.services.values():
            service.forward_to(self._assign_collector())
        for mapfile in self.mapfiles:
            vault.put_mapfile(mapfile)
        return self.collector

    def _assign_collector(self) -> "Collector":
        collector = self.collectors[self._next_collector % len(self.collectors)]
        self._next_collector += 1
        return collector

    # ------------------------------------------------------------------
    def add_machine(self, name: str, clock_skew: int = 0) -> Machine:
        """A machine with its own (skewed) clock and service process."""
        machine = self.network.add_machine(name, clock_skew=clock_skew)
        self.services[machine] = ServiceProcess(name=f"tb-service@{name}")
        if self.collectors:
            self.services[machine].forward_to(self._assign_collector())
        return machine

    def add_process(
        self,
        machine: Machine,
        name: str,
        source: str,
        module_name: str | None = None,
        services: dict[int, str] | None = None,
        start: bool = False,
    ) -> NodeHandle:
        """A process running instrumented MiniC code.

        ``services`` maps RPC service ids to exported function names.
        ``start`` launches the module's main thread when the run begins.
        """
        process = machine.create_process(name)
        import dataclasses

        config = dataclasses.replace(self.runtime_config)
        runtime = TraceBackRuntime(
            process, config, service=self.services[machine]
        )
        module_name = module_name or name
        compiled = compile_source(source, module_name=module_name,
                                  file_name=f"{module_name}.c")
        result = instrument_module(compiled, self.instrument_config)
        self.mapfiles.append(result.mapfile)
        if self.collector is not None:
            self.collector.vault.put_mapfile(result.mapfile)
        process.load_module(result.module)
        for service_id, func in (services or {}).items():
            process.register_rpc_service(service_id, func)
        handle = NodeHandle(
            process=process,
            runtime=runtime,
            entry_module=module_name if start else None,
        )
        self.nodes[name] = handle
        return handle

    # ------------------------------------------------------------------
    def run(self, max_total_cycles: int = 100_000_000) -> DistributedResult:
        """Start entry processes, run the network, snap everything."""
        for handle in self.nodes.values():
            if handle.entry_module is not None:
                handle.process.start(handle.entry_module)
        status = self.network.run(max_total_cycles=max_total_cycles)
        snaps: list[SnapFile] = []
        for name, handle in self.nodes.items():
            snap = handle.runtime.snap_store.latest()
            if snap is None:
                snap = handle.runtime.snap_external(
                    reason="external", detail={"at": "end-of-run"}
                )
            if snap is not None:
                snaps.append(snap)
        for collector in self.collectors:
            collector.drain()
        return DistributedResult(
            status=status,
            snaps=snaps,
            mapfiles=list(self.mapfiles),
            nodes=dict(self.nodes),
            collector=self.collector,
            collectors=list(self.collectors),
        )
