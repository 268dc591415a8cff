"""Recording side of deterministic replay.

A :class:`ReplayRecorder` rides alongside one :class:`TraceBackRuntime`
(enabled by ``RuntimeConfig.record_replay``) and captures the ndlog
described in :mod:`repro.replay.ndlog`.  It must be registered on the
process hook list *before* the runtime so it observes machine state
(cycle counts, RPC payloads) before the runtime's own record-writing
charges cycles — replay re-applies each forced event and lets the
replayed runtime re-charge identically.

What is deliberately **not** recorded:

* instruction results, allocations, PRNG draws, clock reads — all
  re-derived by executing the same stream on the seeded VM;
* loopback RPCs served by this very process (caller and callee both
  local): the whole send/spawn/complete chain happens inline in the
  caller's slice, deterministically.  Such sends are listed in the
  header's ``loopback_seqs`` so the replay router re-dispatches them
  locally instead of waiting for a recorded reply.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.replay.ndlog import NDLOG_FORMAT, config_to_dict, encode_ndlog
from repro.runtime.sync import PAYLOAD_KEY
from repro.vm.hooks import ProcessHooks

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.runtime.runtime import TraceBackRuntime
    from repro.vm.loader import LoadedModule
    from repro.vm.machine import RpcRequest
    from repro.vm.thread import Thread


class ReplayRecorder(ProcessHooks):
    """Captures one process's nondeterminism log while it runs."""

    def __init__(self, runtime: "TraceBackRuntime"):
        self.runtime = runtime
        self.process = runtime.process
        self.machine = runtime.process.machine
        self.events: list[list] = []
        #: Machine cycles at each slice's end, parallel to ``events``
        #: (None for non-slice events).  Not part of the v1 format: it
        #: feeds the v2 encoder's coalescing check — two same-thread
        #: slices merge only when the second starts on the exact cycle
        #: the first ended (nothing else ran in between).
        self._end_cycles: list[int | None] = []
        self._modules: list[dict] = []
        self._start_threads: list[dict] | None = None
        #: Open slice: (thread, start_cycle, start_instruction_count).
        self._open: tuple = None
        self._rpc_seq: dict[int, int] = {}  # id(request) -> send sequence
        self._next_seq = 0
        self._loopback_seqs: set[int] = set()
        self.process.hooks.add(self)
        self.machine.slice_hooks.append(self)
        self.process._kill_observer = self._on_kill

    # ------------------------------------------------------------------
    # Scheduler slices (machine-level hooks; filter to our process)
    # ------------------------------------------------------------------
    def slice_begin(self, thread: "Thread") -> None:
        if thread.process is not self.process:
            return
        if self._start_threads is None:
            # First time our process is scheduled: every thread that
            # exists now was created host-side before the run and must
            # be re-created explicitly at replay (later threads come
            # from replayed THREAD_CREATE syscalls / inbound RPCs).
            self._snapshot_start_threads()
        self._open = (thread, self.machine.cycles, thread.instructions)

    def slice_end(self, thread: "Thread") -> None:
        if thread.process is not self.process:
            return
        opened, self._open = self._open, None
        if opened is None:
            return
        t, start_cycle, start_instr = opened
        self._append(
            ["s", t.tid, start_cycle, t.instructions - start_instr, t.pc],
            end_cycle=self.machine.cycles,
        )

    def _append(self, event: list, end_cycle: int | None = None) -> None:
        self.events.append(event)
        self._end_cycles.append(end_cycle)

    def _snapshot_start_threads(self) -> None:
        # RPC service threads may already exist (a request can arrive
        # before the process is ever scheduled); those are covered by
        # their "rs" event, which replays through the real spawn path.
        self._start_threads = [
            {
                "tid": t.tid,
                "entry_pc": t.entry_pc,
                "arg": t.regs[0],
                "name": t.name,
                "is_initial": bool(getattr(t, "is_initial", False)),
            }
            for _, t in sorted(self.process.threads.items())
            if getattr(t, "rpc_serving", None) is None
        ]

    # ------------------------------------------------------------------
    # Process hooks
    # ------------------------------------------------------------------
    def module_loaded(self, loaded: "LoadedModule") -> None:
        # Registered before the runtime, so the Module is serialized
        # before any rebasing applies to the loaded copy (the Module
        # object itself is never mutated; order makes that explicit).
        self._modules.append(loaded.module.to_dict())

    def signal(self, thread: "Thread", signum: int) -> None:
        # Delivery point of an externally posted signal: stream-ordered
        # just before the slice that delivers it (slices append at
        # slice_end).
        self._append(["sig", signum])

    def rpc_caller_send(self, thread: "Thread", request: "RpcRequest") -> None:
        self._rpc_seq[id(request)] = self._next_seq
        self._next_seq += 1

    def rpc_callee_enter(self, thread: "Thread", request: "RpcRequest") -> None:
        if request.caller_process is self.process:
            # Loopback: this process serving its own call, inline and
            # deterministic.  Mark the seq so replay dispatches locally.
            seq = self._rpc_seq.get(id(request))
            if seq is not None:
                self._loopback_seqs.add(seq)
            return
        triple = request.extra.get(PAYLOAD_KEY)
        self._append(
            [
                "rs",
                self.machine.cycles,
                request.service,
                [int(w) for w in request.args],
                request.ret_cap,
                dict(triple) if triple is not None else None,
            ]
        )

    def rpc_caller_return(self, thread: "Thread", request: "RpcRequest") -> None:
        seq = self._rpc_seq.pop(id(request), None)
        if seq is None or seq in self._loopback_seqs:
            return  # loopback completion is re-derived, not forced
        reply = request.extra_reply.get(PAYLOAD_KEY)
        self._append(
            [
                "rr",
                seq,
                self.machine.cycles,
                request.status,
                [int(w) for w in request.result],
                dict(reply) if reply is not None else None,
            ]
        )

    # ------------------------------------------------------------------
    # Host-side taps (not ProcessHooks)
    # ------------------------------------------------------------------
    def note_external_snap(self, reason: str, detail: dict) -> None:
        """Called by the runtime just before a host-initiated snap."""
        self._append(["x", self.machine.cycles, reason, dict(detail)])

    def _on_kill(self) -> None:
        self._append(["k", self.machine.cycles])

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self, version: int = 2) -> dict:
        """The ndlog as of this instant (called from ``build_snap``).

        A slice may be open — the snap is usually taken from a hook in
        the middle of one — so a synthetic partial slice (trailing
        ``1``) covers the instructions executed so far, ending with the
        faulting instruction itself.

        ``version`` selects the wire format: 2 (default) packs slices
        into the columnar ``tb-ndlog/2`` encoding; 1 emits the plain
        JSON ``tb-ndlog/1`` event list.  Both describe the same run and
        replay identically.
        """
        if version not in (1, 2):
            raise ValueError(f"unknown ndlog version: {version!r}")
        if self._start_threads is None:
            self._snapshot_start_threads()
        events = list(self.events)
        end_cycles = list(self._end_cycles)
        if self._open is not None:
            t, start_cycle, start_instr = self._open
            events.append(
                ["s", t.tid, start_cycle, t.instructions - start_instr, t.pc, 1]
            )
            end_cycles.append(None)  # partial: never coalesced into
        header = {
            "pid": self.process.pid,
            "process_name": self.process.name,
            "machine": self.machine.name,
            "clock_skew": self.machine.clock_skew,
            "io_latency": self.machine.io_latency,
            "runtime_id": self.runtime.runtime_id,
            "config": config_to_dict(self.runtime.config),
            "modules": self._modules,
            "start_threads": self._start_threads,
            "rpc_services": {
                str(k): v for k, v in self.process.rpc_services.items()
            },
            "loopback_seqs": sorted(self._loopback_seqs),
            "dagbase": self.runtime.config.dagbase is not None,
        }
        if version == 2:
            return encode_ndlog(header, events, end_cycles)
        return {
            "format": NDLOG_FORMAT,
            "header": header,
            "events": events,
            "n_events": len(events),
        }
