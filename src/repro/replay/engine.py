"""Deterministic time-travel replay of a recorded snap.

:class:`ReplayEngine` rebuilds the recorded process from the ndlog
header (same machine identity, pid, runtime id, modules, start
threads), then re-executes the run on Machine's default engine (or the
one ``engine=`` names), forcing each recorded nondeterminism point:

* **slices** — the machine clock is forced to the recorded slice start
  (other processes on the recorded machine advanced it in between) and
  the recorded thread runs exactly the recorded instruction count;
* **signals** — re-posted just before their delivering slice;
* **RPC replies** (``rr``) — the recorded result words / status / SYNC
  triple complete the captured outbound request, bypassing the network;
* **inbound RPCs** (``rs``) — re-injected through the real
  ``spawn_service_thread`` path so callee-side allocations, thread ids,
  and SYNC records re-derive exactly;
* **external snaps / kill** — re-applied at their recorded cycles.

Everything else — arithmetic, memory, the per-process PRNG, clock
reads, trace-buffer writes, snap policy decisions — re-derives by
executing the same instruction stream on the seeded VM.  Divergence
(instruction-count or end-pc mismatch, a replay clock running ahead of
the recording, an unknown thread) raises :class:`ReplayDivergence`
rather than silently producing a different history.

The engine doubles as a debugger: breakpoints, single-stepping, and
register/memory/backtrace inspection between forced events.
"""

from __future__ import annotations

from repro.isa.module import Module
from repro.replay.ndlog import (
    ReplayDivergence,
    ReplayUnavailable,
    config_from_dict,
    decode_events,
)
from repro.runtime.runtime import TraceBackRuntime
from repro.runtime.snap import SnapFile
from repro.runtime.sync import PAYLOAD_KEY, LogicalThreadManager
from repro.vm.errors import VMFault
from repro.vm.machine import (
    ExitState,
    Machine,
    RpcRequest,
    spawn_service_thread,
)
from repro.vm.thread import Thread


class ReplayEngine:
    """Re-execute one snap's recorded run, stopping exactly at the fault."""

    def __init__(
        self, snap: SnapFile, breakpoints=None, engine: str | None = None
    ):
        replay = getattr(snap, "replay", None) or {}
        #: Which interpreter tier re-executes the run (``engine=None``
        #: means Machine's default, so ``TBVM_ENGINE`` applies).  Replay is
        #: engine-agnostic: both tiers retire instructions on identical
        #: boundaries (tier-3 units run partially where a slice ends
        #: mid-unit), so forced slices and breakpoints land on the same
        #: instruction under either of them.
        self.engine = engine
        ndlog = replay.get("ndlog")
        if not isinstance(ndlog, dict):
            raise ReplayUnavailable(
                "ndlog",
                "snap carries no nondeterminism log (recorded without "
                "record_replay, or a legacy snap)",
            )
        # decode_events validates either format and hands back the
        # v1-layout event stream (v2 columns unpacked in one pass).
        decoded = decode_events(ndlog)
        header = decoded["header"]
        if header.get("dagbase"):
            raise ReplayUnavailable(
                "header.dagbase",
                "recorded run used a dagbase file, which replay does not force",
            )
        self.source_snap = snap
        self.header = header
        self._events: list = decoded["events"]
        self.breakpoints: set[int] = set(breakpoints or [])
        self._loopback = {int(s) for s in header.get("loopback_seqs", [])}
        self._idx = 0
        self._slice: dict | None = None
        self._skip_bp_once = False
        self._sent: dict[int, RpcRequest] = {}
        self._pending_rr: dict[int, list] = {}
        self._next_seq = 0
        self._stub_process = None
        self._last_thread: Thread | None = None
        self.status: dict | None = None
        self._build()

    # ------------------------------------------------------------------
    # Reconstruction of the initial state
    # ------------------------------------------------------------------
    def _build(self) -> None:
        h = self.header
        machine = Machine(
            name=h["machine"],
            clock_skew=h["clock_skew"],
            io_latency=h["io_latency"],
            engine=self.engine,
        )
        self.engine = machine.engine
        machine._next_pid = int(h["pid"])
        process = machine.create_process(h["process_name"])
        config = config_from_dict(h["config"])
        runtime = TraceBackRuntime(process, config, service=None)
        # The recorded runtime id must be reproduced exactly: SYNC
        # records embed it.  Safe to override here — nothing has been
        # written yet.
        runtime.runtime_id = int(h["runtime_id"])
        runtime.logical = LogicalThreadManager(runtime.runtime_id)
        for service_id, func in h["rpc_services"].items():
            process.register_rpc_service(int(service_id), func)
        try:
            for mdict in h["modules"]:
                process.load_module(Module.from_dict(mdict))
        except (KeyError, TypeError, ValueError) as exc:
            raise ReplayUnavailable(
                "header.modules", f"recorded module unusable: {exc}"
            ) from exc
        for t in h["start_threads"]:
            try:
                thread = process.create_thread(
                    int(t["entry_pc"]), arg=int(t["arg"]), name=t.get("name")
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ReplayUnavailable(
                    "header.start_threads", f"recorded thread unusable: {exc}"
                ) from exc
            if t.get("is_initial"):
                thread.is_initial = True
            if thread.tid != t["tid"]:
                raise ReplayDivergence(
                    f"start thread got tid {thread.tid}, recorded {t['tid']}"
                )
        machine.rpc_router = self._route_outbound
        self.machine = machine
        self.process = process
        self.runtime = runtime

    # ------------------------------------------------------------------
    # Outbound RPC routing during replay
    # ------------------------------------------------------------------
    def _route_outbound(self, request: RpcRequest) -> None:
        seq = self._next_seq
        self._next_seq += 1
        if seq in self._loopback:
            # Served by this very process at record time: re-dispatch
            # locally so the spawn happens inline, as recorded.
            self.machine.deliver_rpc_locally(request)
            return
        pending = self._pending_rr.pop(seq, None)
        if pending is not None:
            # Completed synchronously at record time (e.g. no server
            # found): apply the recorded completion right now, mid-slice.
            self._complete(request, pending)
            return
        self._sent[seq] = request  # completion (if any) arrives as "rr"

    def _complete(self, request: RpcRequest, ev: list) -> None:
        _, _seq, _cycle, status, result, triple = ev
        request.result = [int(w) & 0xFFFFFFFF for w in result]
        if triple is not None:
            request.extra_reply[PAYLOAD_KEY] = dict(triple)
        self.machine.complete_rpc(request, int(status))

    # ------------------------------------------------------------------
    # Forced-event application
    # ------------------------------------------------------------------
    def _force_cycles(self, cycle: int, what: str) -> None:
        if self.machine.cycles > cycle:
            raise ReplayDivergence(
                f"{what}: replay clock {self.machine.cycles} ran ahead of "
                f"recorded cycle {cycle}"
            )
        self.machine.cycles = cycle

    def _open_slice(self, ev: list) -> None:
        tag, tid, start_cycle, n, end_pc = ev[:5]
        partial = len(ev) > 5 and bool(ev[5])
        thread = self.process.threads.get(tid)
        if thread is None:
            raise ReplayDivergence(f"slice for unknown thread {tid}")
        self._force_cycles(start_cycle, f"slice tid={tid}")
        self.machine._wake_sleepers()
        if not thread.runnable():
            raise ReplayDivergence(
                f"recorded slice for thread {tid} but it is "
                f"{thread.state.value} ({thread.block_reason})"
            )
        self._last_thread = thread
        if n == 0:
            # Prologue-only slice (thread_started hook, signal death).
            self.machine.run_thread_slice(thread, 0)
            self._check_slice_end(thread, 0, 0, end_pc, partial)
            return
        self._slice = {
            "thread": thread,
            "n": int(n),
            "end_pc": int(end_pc),
            "partial": partial,
            "consumed": 0,
        }

    def _check_slice_end(
        self, thread: Thread, consumed: int, n: int, end_pc: int, partial: bool
    ) -> None:
        if consumed != n:
            raise ReplayDivergence(
                f"thread {thread.tid}: replayed {consumed} instructions "
                f"where the recording has {n}"
            )
        if not partial and thread.pc != end_pc:
            raise ReplayDivergence(
                f"thread {thread.tid}: slice ended at pc {thread.pc:#x}, "
                f"recorded {end_pc:#x}"
            )

    def _stub(self) -> tuple:
        """Lazy stand-in for remote RPC callers (created after the
        target process, so its pid never perturbs the target's)."""
        if self._stub_process is None:
            stub = self.machine.create_process("tb-replay-stub")
            caller = stub.create_thread(0, name="stub-caller")
            caller.block("replay-stub")
            self._stub_process = (stub, caller)
        return self._stub_process

    def _apply_rs(self, ev: list) -> None:
        _, cycle, service, args, ret_cap, triple = ev
        self._force_cycles(cycle, f"inbound rpc service={service}")
        stub, caller = self._stub()
        ret_addr = stub.alloc_words(max(1, int(ret_cap)), name="replay-rpc-ret")
        request = RpcRequest(
            service=int(service),
            args=[int(w) for w in args],
            caller_thread=caller,
            caller_process=stub,
            ret_addr=ret_addr,
            ret_cap=int(ret_cap),
        )
        if triple is not None:
            request.extra[PAYLOAD_KEY] = dict(triple)
        if int(service) not in self.process.rpc_services:
            raise ReplayDivergence(
                f"inbound rpc for unregistered service {service}"
            )
        spawn_service_thread(self.process, request)

    def _apply_rr(self, ev: list) -> None:
        seq = ev[1]
        request = self._sent.pop(seq, None)
        if request is None:
            # Not sent yet: the send happens inside an upcoming slice
            # (the recording completed it synchronously, mid-slice).
            self._pending_rr[seq] = ev
            return
        self._force_cycles(ev[2], f"rpc reply seq={seq}")
        self._complete(request, ev)

    def _apply_x(self, ev: list) -> None:
        _, cycle, reason, detail = ev
        self._force_cycles(cycle, f"external snap {reason!r}")
        self.runtime.snap_external(reason=reason, detail=dict(detail))

    def _apply_k(self, ev: list) -> None:
        self._force_cycles(ev[1], "kill")
        self.process.kill()

    # ------------------------------------------------------------------
    # The drive loop
    # ------------------------------------------------------------------
    def _drive(self, budget: int | None, honor_breakpoints: bool) -> dict:
        machine = self.machine
        executed = 0
        skip_bp = self._skip_bp_once
        self._skip_bp_once = False
        while True:
            if self._slice is None:
                if self._idx >= len(self._events):
                    return self._stop(
                        "fault" if self._faulted() else "end"
                    )
                ev = self._events[self._idx]
                self._idx += 1
                tag = ev[0]
                if tag == "s":
                    self._open_slice(ev)
                elif tag == "sig":
                    self.process.pending_signals.append(int(ev[1]))
                elif tag == "rr":
                    self._apply_rr(ev)
                elif tag == "rs":
                    self._apply_rs(ev)
                elif tag == "x":
                    self._apply_x(ev)
                else:  # "k" (tags are validated up front)
                    self._apply_k(ev)
                continue
            sl = self._slice
            thread = sl["thread"]
            if sl["consumed"] >= sl["n"]:
                self._slice = None
                self._check_slice_end(
                    thread, sl["consumed"], sl["n"], sl["end_pc"], sl["partial"]
                )
                continue
            if budget is not None and executed >= budget:
                return self._stop("step")
            if (
                honor_breakpoints
                and self.breakpoints
                and thread.pc in self.breakpoints
                and not skip_bp
            ):
                self._skip_bp_once = True
                return self._stop("breakpoint")
            skip_bp = False
            chunk = sl["n"] - sl["consumed"]
            if budget is not None:
                chunk = min(chunk, budget - executed)
            if honor_breakpoints and self.breakpoints:
                chunk = 1
            before = thread.instructions
            machine.run_thread_slice(thread, chunk)
            delta = thread.instructions - before
            sl["consumed"] += delta
            executed += delta
            if delta < chunk:
                # The thread stopped (blocked, exited, or the process
                # died) earlier than the recording says it should have.
                self._slice = None
                self._check_slice_end(
                    thread, sl["consumed"], sl["n"], sl["end_pc"], sl["partial"]
                )

    def _faulted(self) -> bool:
        return self.process.exit_state in (
            ExitState.FAULTED,
            ExitState.SIGNALED,
            ExitState.KILLED,
        )

    def _stop(self, reason: str) -> dict:
        thread = self.current_thread()
        fault = self.process.fault
        self.status = {
            "reason": reason,
            "pc": thread.pc if thread is not None else None,
            "tid": thread.tid if thread is not None else None,
            "cycle": self.machine.cycles,
            "events_applied": self._idx,
            "events_total": len(self._events),
            "exit_state": self.process.exit_state,
            "fault": (
                {"code": fault.code, "pc": fault.pc, "detail": fault.detail}
                if fault is not None
                else None
            ),
        }
        return self.status

    # ------------------------------------------------------------------
    # Debugger surface
    # ------------------------------------------------------------------
    @property
    def finished(self) -> bool:
        """True once every recorded event has been applied."""
        return self._slice is None and self._idx >= len(self._events)

    def add_breakpoint(self, pc: int) -> None:
        self.breakpoints.add(pc)

    def remove_breakpoint(self, pc: int) -> None:
        self.breakpoints.discard(pc)

    def step(self, n: int = 1) -> dict:
        """Execute up to ``n`` replayed instructions."""
        return self._drive(budget=n, honor_breakpoints=True)

    def cont(self) -> dict:
        """Run until a breakpoint, the fault, or the end of the log."""
        return self._drive(budget=None, honor_breakpoints=True)

    def run_to_fault(self) -> dict:
        """Replay every recorded event, ignoring breakpoints."""
        return self._drive(budget=None, honor_breakpoints=False)

    def current_thread(self) -> Thread | None:
        """The thread of the open (or most recent) slice."""
        if self._slice is not None:
            return self._slice["thread"]
        return self._last_thread

    def registers(self, tid: int | None = None) -> dict:
        """Architectural state of one thread (default: current)."""
        thread = self._thread(tid)
        return {
            "tid": thread.tid,
            "name": thread.name,
            "state": thread.state.value,
            "pc": thread.pc,
            "regs": list(thread.regs),
            "instructions": thread.instructions,
        }

    def read_memory(self, addr: int, count: int = 1) -> list[int | None]:
        """Read ``count`` words; unmapped words come back as ``None``."""
        words: list[int | None] = []
        for offset in range(count):
            try:
                words.append(self.process.memory.load(addr + offset))
            except VMFault:
                words.append(None)
        return words

    def backtrace(self, tid: int | None = None) -> list[dict]:
        """Source-resolved call stack, innermost frame first."""
        thread = self._thread(tid)
        pcs = [thread.pc]
        frames = thread.frames
        for idx in range(len(frames) - 1, 0, -1):
            pcs.append(frames[idx].return_pc - 1)
        return [self.resolve_pc(pc) for pc in pcs]

    def resolve_pc(self, pc: int) -> dict:
        """Map a pc to module/function/source line (best effort)."""
        out: dict = {"pc": pc}
        loaded = self.process.loader.find_code(pc)
        if loaded is None:
            return out
        rel = pc - loaded.code_base
        out["module"] = loaded.module.name
        func = loaded.module.func_at(rel)
        if func is not None:
            out["func"] = func.name
        line = loaded.module.line_at(rel)
        if line is not None:
            out["file"] = line.file
            out["line"] = line.line
        return out

    def threads(self) -> list[dict]:
        """Summaries of every thread in the replayed process."""
        return [
            {
                "tid": t.tid,
                "name": t.name,
                "state": t.state.value,
                "pc": t.pc,
                "block_reason": t.block_reason,
            }
            for _, t in sorted(self.process.threads.items())
        ]

    def _thread(self, tid: int | None) -> Thread:
        if tid is None:
            thread = self.current_thread()
            if thread is None:
                thread = self.process.main_thread()
            if thread is None and self.process.threads:
                thread = self.process.threads[min(self.process.threads)]
            if thread is None:
                raise ReplayDivergence("replayed process has no threads")
            return thread
        thread = self.process.threads.get(tid)
        if thread is None:
            raise ReplayDivergence(f"no thread {tid} in replayed process")
        return thread

    # ------------------------------------------------------------------
    def replayed_snap(self) -> SnapFile:
        """The snap the replayed run produced (for signature compare).

        The replayed runtime evaluates the same policy at the same hook
        points, so normally this is the exact counterpart of the source
        snap.  If policy produced nothing (snapless recording), build
        one at the stop point with the recorded reason/detail.
        """
        snap = self.runtime.snap_store.latest()
        if snap is not None:
            return snap
        return self.runtime.build_snap(
            self.source_snap.reason, dict(self.source_snap.detail)
        )
