"""The TraceBack runtime library (paper §3).

One :class:`TraceBackRuntime` attaches to one process.  It owns the
trace buffers, performs buffer assignment and reuse, handles probe
``buffer_wrap`` upcalls, rebases DAG ids at module load, writes event
records (timestamps, exceptions, thread lifecycle, SYNC), evaluates snap
policy with duplicate suppression, and cooperates with a per-machine
:class:`~repro.runtime.service.ServiceProcess` for group snaps and hang
detection.

Runtime-entry hygiene (§3.7): guest-context upcalls set the thread's
``in_runtime`` flag so exceptions raised inside the runtime are
surfaced as host bugs rather than re-entering tracing, and runtime work
never writes through guest probes — host-side record writes go straight
to the mapped buffer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.runtime.abi import BUFFER_WRAP_IMPORT, CATCH_IMPORT
from repro.runtime.buffers import BufferFlags, TraceBuffer
from repro.runtime.clock import Clock, HardwareClock, LogicalClock, split64
from repro.runtime.rebasing import DagAllocator, DagRange, rewrite_tls_slots
from repro.runtime.records import SENTINEL, ExtKind, ExtRecord
from repro.runtime.snap import (
    BufferDump,
    ModuleDump,
    SnapFile,
    SnapPolicy,
    SnapStore,
    Suppressor,
    ThreadDump,
)
from repro.runtime.sync import PAYLOAD_KEY, LogicalThreadManager, next_runtime_id
from repro.runtime.records import MAX_DAG_ID
from repro.vm.errors import VMFault
from repro.vm.hooks import ProcessHooks
from repro.vm.loader import LoadedModule
from repro.vm.machine import Process, RpcRequest
from repro.vm.syscalls import Sys
from repro.vm.thread import TLS_PROBE_SPILL, TLS_TRACE_PTR, Thread, ThreadState

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.instrument.dagbase import DagBaseFile
    from repro.runtime.service import ServiceProcess

#: Syscalls that get timestamp records ("synchronization or OS service"
#: artifacts, §3.5).
TIMESTAMPED_SYSCALLS = frozenset(
    {
        Sys.SLEEP,
        Sys.IO_READ,
        Sys.IO_WRITE,
        Sys.LOCK,
        Sys.UNLOCK,
        Sys.THREAD_CREATE,
        Sys.RPC_CALL,
    }
)

#: Cycle cost charged for a buffer_wrap upcall (runtime work).
WRAP_COST = 40


@dataclass
class RuntimeConfig:
    """Startup configuration ("the runtime obtains configuration
    information that specifies how much memory it should allocate for
    trace buffers, and how many buffers to create", §3.1)."""

    sub_buffer_words: int = 256  # per sub-buffer, including its sentinel
    sub_buffers: int = 4
    main_buffers: int = 2  # allocated eagerly at startup
    max_buffers: int = 8  # growth cap; beyond it threads share desperation
    clock: str = "hardware"  # or "logical"
    policy: SnapPolicy = field(default_factory=SnapPolicy)
    snap_store: SnapStore | None = None
    timestamp_syscalls: bool = True
    #: TLS slots actually available in this process; when they differ
    #: from the compiled-in 60/61, probes are rewritten at load (§2.5).
    trace_slot: int = TLS_TRACE_PTR
    spill_slot: int = TLS_PROBE_SPILL
    #: Simulate dynamic allocation failure: only the static buffer exists.
    fail_dynamic_buffers: bool = False
    static_buffer_words: int = 64
    max_dag_id: int = MAX_DAG_ID
    dagbase: "DagBaseFile | None" = None
    scavenge_interval: int = 32  # wraps between dead-thread scans
    include_memory: bool | None = None  # None = follow policy
    #: Record a nondeterminism log so snaps taken by this runtime can
    #: be deterministically replayed (repro.replay).
    record_replay: bool = False
    #: Which ndlog wire format snaps embed: 2 = packed columnar
    #: ``tb-ndlog/2`` (default), 1 = plain-JSON ``tb-ndlog/1``.  Replay
    #: accepts both; this only sets what new snaps carry.
    ndlog_version: int = 2


@dataclass
class RuntimeStats:
    """Counters for tests and the evaluation harness."""

    wraps: int = 0
    sub_wraps: int = 0
    full_wraps: int = 0
    records_written: int = 0
    threads_seen: int = 0
    buffers_allocated: int = 0
    buffers_reused: int = 0
    desperation_entries: int = 0
    snaps: int = 0
    scavenged: int = 0


class TraceBackRuntime(ProcessHooks):
    """The per-process runtime; install before loading instrumented
    modules (its host functions must resolve at load time)."""

    def __init__(
        self,
        process: Process,
        config: RuntimeConfig | None = None,
        service: "ServiceProcess | None" = None,
    ):
        self.process = process
        self.config = config or RuntimeConfig()
        self.service = service
        self.runtime_id = next_runtime_id()
        self.stats = RuntimeStats()
        self.snap_store = (
            self.config.snap_store
            if self.config.snap_store is not None
            else SnapStore()
        )
        self.suppressor = Suppressor(self.config.policy.suppress_duplicates)
        self.logical = LogicalThreadManager(self.runtime_id)
        self.allocator = DagAllocator(
            max_dag_id=self.config.max_dag_id, dagbase=self.config.dagbase
        )
        self.clock: Clock = (
            HardwareClock(process.machine)
            if self.config.clock == "hardware"
            else LogicalClock()
        )
        #: checksum -> (LoadedModule | None, DagRange); survives unload.
        self.module_table: dict[str, tuple[LoadedModule | None, DagRange]] = {}
        self._pending: dict[int, list[ExtRecord]] = {}
        self._assignment: dict[int, TraceBuffer] = {}
        self._free_buffers: list[TraceBuffer] = []
        self._all_buffers: list[TraceBuffer] = []

        process.loader.register_host_function(BUFFER_WRAP_IMPORT, self._buffer_wrap)
        process.loader.register_host_function(CATCH_IMPORT, self._catch_upcall)
        self.recorder = None
        if self.config.record_replay:
            # Imported lazily (repro.replay imports this module).  The
            # recorder registers its hooks first, before the runtime's,
            # so it observes machine state (cycles, RPC payloads) before
            # the runtime's record writes charge cycles.
            from repro.replay.record import ReplayRecorder

            self.recorder = ReplayRecorder(self)
        process.hooks.add(self)

        self._allocate_buffers()
        # Thread discovery (§3.7.1): the runtime may be attached to a
        # process that already has running threads.
        for thread in process.threads.values():
            if thread.alive():
                self._park_on_probation(thread)
        if service is not None:
            service.register(self)

    # ------------------------------------------------------------------
    # Buffer pool
    # ------------------------------------------------------------------
    def _allocate_buffers(self) -> None:
        cfg = self.config
        self.probation = TraceBuffer.probation(self.process)
        self._all_buffers.append(self.probation)
        self.static_buffer = TraceBuffer.allocate(
            self.process,
            index=0xFFFE,
            sub_count=1,
            sub_size=cfg.static_buffer_words,
            flags=BufferFlags.STATIC | BufferFlags.SHARED,
            name="tbtrace-static",
        )
        self._all_buffers.append(self.static_buffer)
        if cfg.fail_dynamic_buffers:
            self.desperation = self.static_buffer
            return
        self.desperation = TraceBuffer.allocate(
            self.process,
            index=0xFFFD,
            sub_count=cfg.sub_buffers,
            sub_size=cfg.sub_buffer_words,
            flags=BufferFlags.SHARED,
            name="tbtrace-desperation",
        )
        self._all_buffers.append(self.desperation)
        for _ in range(cfg.main_buffers):
            self._new_main_buffer()

    def _new_main_buffer(self) -> TraceBuffer:
        buf = TraceBuffer.allocate(
            self.process,
            index=len([b for b in self._all_buffers if not b.flags]),
            sub_count=self.config.sub_buffers,
            sub_size=self.config.sub_buffer_words,
        )
        self._all_buffers.append(buf)
        self._free_buffers.append(buf)
        self.stats.buffers_allocated += 1
        return buf

    def _main_buffer_count(self) -> int:
        return len([b for b in self._all_buffers if not b.flags])

    def _buffer_of_addr(self, addr: int) -> TraceBuffer | None:
        for buf in self._all_buffers:
            if buf.contains_addr(addr):
                return buf
        return None

    def buffer_of_thread(self, thread: Thread) -> TraceBuffer | None:
        """The buffer ``thread``'s trace pointer currently lives in."""
        return self._buffer_of_addr(thread.tls[self.config.trace_slot])

    # ------------------------------------------------------------------
    # Probe upcalls (guest context)
    # ------------------------------------------------------------------
    def _buffer_wrap(self, thread: Thread) -> int:
        """The ``buffer_wrap`` import: a probe hit a sentinel (§3.1)."""
        thread.in_runtime = True
        try:
            self.clock.tick()
            self.stats.wraps += 1
            addr = thread.regs[11]
            buf = self._buffer_of_addr(addr)
            if buf is None or buf.flags & BufferFlags.PROBATION:
                self._assign_buffer(thread)
            elif buf.flags & BufferFlags.SHARED:
                self._wrap_shared(thread, buf)
            else:
                rel = buf.to_rel(addr)
                if buf.sub_of(rel) == buf.sub_count - 1:
                    self.stats.full_wraps += 1
                else:
                    self.stats.sub_wraps += 1
                slot = buf.wrap_from(rel)
                self._point_thread(thread, buf, slot)
            if self.stats.wraps % self.config.scavenge_interval == 0:
                self.scavenge()
        finally:
            thread.in_runtime = False
        return WRAP_COST

    def _catch_upcall(self, thread: Thread) -> int:
        """The IL-mode injected catch-all stub called the runtime with
        the exception code in r0 (§3.7.2).  Policy + suppression decide
        whether this propagation step snaps again."""
        thread.in_runtime = True
        try:
            code = thread.regs[0]
            if self.config.policy.wants_exception(code):
                self._snap(
                    reason="exception",
                    detail={"code": code, "pc": thread.pc, "leg": "catch"},
                    key=("exception", code, self._module_key(thread.pc)),
                )
        finally:
            thread.in_runtime = False
        return 10

    # ------------------------------------------------------------------
    def _park_on_probation(self, thread: Thread) -> None:
        slot = self.probation.to_addr(self.probation.sub_start(0))
        thread.tls[self.config.trace_slot] = slot - 1

    def _point_thread(self, thread: Thread, buf: TraceBuffer, slot_rel: int) -> None:
        addr = buf.to_addr(slot_rel)
        thread.tls[self.config.trace_slot] = addr
        thread.regs[11] = addr

    def _next_slot(self, buf: TraceBuffer, cursor_rel: int) -> int:
        pos = cursor_rel + 1
        if buf.mapped.words[pos] == SENTINEL:
            pos = buf.wrap_from(pos)
        return pos

    def _assign_buffer(self, thread: Thread) -> None:
        """First-come buffer assignment off probation (§3.1.1)."""
        cfg = self.config
        buf: TraceBuffer | None = None
        if self._free_buffers:
            buf = self._free_buffers.pop(0)
            if buf.owner_tid is not None or buf.commit_count or buf.write_cursor != buf.sub_start(0) - 1:
                self.stats.buffers_reused += 1
        elif (
            not cfg.fail_dynamic_buffers
            and self._main_buffer_count() < cfg.max_buffers
        ):
            buf = self._new_main_buffer()
            self._free_buffers.remove(buf)
        if buf is None:
            # No main buffer available: desperation (§3.1).
            self.stats.desperation_entries += 1
            self._point_thread(
                thread, self.desperation, self.desperation.sub_start(0)
            )
            return
        buf.owner_tid = thread.tid
        self._assignment[thread.tid] = buf
        cursor = buf.write_cursor
        cursor = self._append(buf, cursor, self._thread_start_record(thread))
        for record in self._pending.pop(thread.tid, []):
            cursor = self._append(buf, cursor, record)
        slot = self._next_slot(buf, cursor)
        self._point_thread(thread, buf, slot)

    def _wrap_shared(self, thread: Thread, buf: TraceBuffer) -> None:
        """A thread in the desperation/static buffer hit the sentinel:
        try to leave; otherwise restart at the front (§3.1)."""
        if self._free_buffers or (
            not self.config.fail_dynamic_buffers
            and self._main_buffer_count() < self.config.max_buffers
        ):
            self._assign_buffer(thread)
        else:
            self._point_thread(thread, buf, buf.sub_start(0))

    # ------------------------------------------------------------------
    # Host-side record writing
    # ------------------------------------------------------------------
    #: Cycles charged per host-written event record (runtime work the
    #: paper's runtime performs in guest time).
    RECORD_COST = 12

    def _append(self, buf: TraceBuffer, cursor: int, record: ExtRecord) -> int:
        self.stats.records_written += 1
        self.process.machine.cycles += self.RECORD_COST + record.size
        self.process.cycles_used += self.RECORD_COST + record.size
        return buf.append(cursor, record)

    def write_record(self, thread: Thread, record: ExtRecord) -> bool:
        """Write an event record into ``thread``'s trace stream.

        Threads still on probation queue the record until a buffer is
        assigned; threads in shared buffers get best-effort writes.
        Returns True when the record landed (or was queued).
        """
        buf = self.buffer_of_thread(thread)
        if buf is None or buf.flags & BufferFlags.PROBATION:
            self._pending.setdefault(thread.tid, []).append(record)
            return True
        cursor = buf.to_rel(thread.tls[self.config.trace_slot])
        cursor = self._append(buf, cursor, record)
        thread.tls[self.config.trace_slot] = buf.to_addr(cursor)
        return True

    def _now_payload(self) -> tuple[int, int]:
        return split64(self.clock.now())

    def _thread_start_record(self, thread: Thread) -> ExtRecord:
        lo, hi = self._now_payload()
        return ExtRecord(ExtKind.THREAD_START, inline=0, payload=(thread.tid, lo, hi))

    # ------------------------------------------------------------------
    # Module lifecycle (§2.3, §3.7.1)
    # ------------------------------------------------------------------
    def module_loaded(self, loaded: LoadedModule) -> None:
        module = loaded.module
        if not module.instrumented:
            return
        rng = self.allocator.assign(loaded)
        rewrite_tls_slots(
            loaded,
            trace_slot=self.config.trace_slot,
            spill_slot=self.config.spill_slot,
            compiled_trace_slot=TLS_TRACE_PTR,
            compiled_spill_slot=TLS_PROBE_SPILL,
        )
        self.module_table[module.checksum()] = (loaded, rng)

    def module_unloaded(self, loaded: LoadedModule) -> None:
        checksum = loaded.module.checksum()
        if checksum in self.module_table:
            _, rng = self.module_table[checksum]
            self.module_table[checksum] = (None, rng)

    def _module_key(self, pc: int) -> tuple:
        loaded = self.process.loader.find_code(pc)
        if loaded is None:
            return ("<unknown>", pc)
        return (loaded.module.checksum(), pc - loaded.code_base)

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------
    def thread_started(self, thread: Thread) -> None:
        self.clock.tick()
        self.stats.threads_seen += 1
        self._park_on_probation(thread)

    def thread_exited(self, thread: Thread) -> None:
        self.clock.tick()
        buf = self.buffer_of_thread(thread)
        lo, hi = self._now_payload()
        record = ExtRecord(
            ExtKind.THREAD_END,
            inline=(thread.exit_code or 0) & 0xFFFF,
            payload=(thread.tid, lo, hi),
        )
        if buf is not None and not buf.flags:
            cursor = buf.to_rel(thread.tls[self.config.trace_slot])
            cursor = self._append(buf, cursor, record)
            buf.write_cursor = cursor
            buf.owner_tid = None
            self._assignment.pop(thread.tid, None)
            self._free_buffers.append(buf)  # reuse (§3.1.2)
        self._pending.pop(thread.tid, None)

    def process_exit(self, process: Process, code: int) -> None:
        """Graceful process exit (HALT / EXIT_PROCESS): a graceful
        detach for every still-attached thread.

        Threads that end individually persist their cursor in
        :meth:`thread_exited`, but a process-wide exit stops the
        remaining threads without that path running, which used to leave
        header word 8 stale.  Persist each attached thread's cursor so a
        reattach or offline recovery sees exactly where its trace ends.
        """
        self.clock.tick()
        for tid, buf in list(self._assignment.items()):
            thread = process.threads.get(tid)
            if thread is None or buf.flags:
                continue
            buf.write_cursor = buf.to_rel(thread.tls[self.config.trace_slot])

    def scavenge(self) -> int:
        """Dead-thread scavenging (§3.1.2): reclaim buffers owned by
        threads that terminated without notifying the runtime."""
        reclaimed = 0
        for tid, buf in list(self._assignment.items()):
            thread = self.process.threads.get(tid)
            if thread is None or not thread.alive():
                lo, hi = self._now_payload()
                cursor = buf.write_cursor
                if thread is not None:
                    cursor = buf.to_rel(thread.tls[self.config.trace_slot])
                cursor = self._append(
                    buf,
                    cursor,
                    ExtRecord(ExtKind.THREAD_END, inline=0, payload=(tid, lo, hi)),
                )
                buf.write_cursor = cursor
                buf.owner_tid = None
                del self._assignment[tid]
                self._free_buffers.append(buf)
                reclaimed += 1
        self.stats.scavenged += reclaimed
        return reclaimed

    # ------------------------------------------------------------------
    # Exceptions and signals (§2.4, §3.7.2, §3.7.3)
    # ------------------------------------------------------------------
    def first_chance(self, thread: Thread, fault: VMFault) -> None:
        self.clock.tick()
        lo, hi = self._now_payload()
        self.write_record(
            thread,
            ExtRecord(
                ExtKind.EXCEPTION,
                inline=fault.code & 0xFFFF,
                payload=(fault.code, fault.pc, lo, hi),
            ),
        )
        if self.config.policy.wants_exception(fault.code):
            self._snap(
                reason="exception",
                detail={"code": fault.code, "pc": fault.pc},
                key=("exception", fault.code, self._module_key(fault.pc)),
            )

    def unhandled(self, thread: Thread, fault: VMFault) -> None:
        if self.config.policy.unhandled:
            self._snap(
                reason="unhandled",
                detail={"code": fault.code, "pc": fault.pc},
                key=("unhandled", fault.code, self._module_key(fault.pc)),
            )

    def signal(self, thread: Thread, signum: int) -> None:
        self.clock.tick()
        lo, hi = self._now_payload()
        self.write_record(
            thread,
            ExtRecord(
                ExtKind.EXCEPTION,
                inline=signum & 0xFFFF,
                payload=(signum, thread.pc, lo, hi),
            ),
        )
        if self.config.policy.wants_signal(signum):
            self._snap(
                reason="signal",
                detail={"signum": signum, "pc": thread.pc},
                key=("signal", signum, self._module_key(thread.pc)),
            )

    def signal_return(self, thread: Thread, signum: int) -> None:
        lo, hi = self._now_payload()
        self.write_record(
            thread,
            ExtRecord(
                ExtKind.EXCEPTION_END,
                inline=signum & 0xFFFF,
                payload=(thread.pc, lo, hi),
            ),
        )

    # ------------------------------------------------------------------
    # Timestamps (§3.5)
    # ------------------------------------------------------------------
    def syscall(self, thread: Thread, number: int) -> None:
        if not self.config.timestamp_syscalls:
            return
        if number not in TIMESTAMPED_SYSCALLS:
            return
        self.clock.tick()
        lo, hi = self._now_payload()
        self.write_record(
            thread,
            ExtRecord(ExtKind.TIMESTAMP, inline=number, payload=(lo, hi)),
        )

    # ------------------------------------------------------------------
    # RPC / logical threads (§5.1)
    # ------------------------------------------------------------------
    def rpc_caller_send(self, thread: Thread, request: RpcRequest) -> None:
        record, triple = self.logical.caller_send(thread.tid, self.clock.now())
        request.extra[PAYLOAD_KEY] = triple
        self.write_record(thread, record)

    def rpc_callee_enter(self, thread: Thread, request: RpcRequest) -> None:
        triple = request.extra.get(PAYLOAD_KEY)
        if triple is None:
            return  # caller was not instrumented
        record = self.logical.callee_enter(thread.tid, triple, self.clock.now())
        self.write_record(thread, record)

    def rpc_callee_exit(self, thread: Thread, request: RpcRequest) -> None:
        if thread.tid not in self.logical.bindings:
            return
        record, triple = self.logical.callee_exit(thread.tid, self.clock.now())
        request.extra_reply[PAYLOAD_KEY] = triple
        self.write_record(thread, record)

    def rpc_caller_return(self, thread: Thread, request: RpcRequest) -> None:
        if thread.tid not in self.logical.bindings:
            return
        reply = request.extra_reply.get(PAYLOAD_KEY)
        record = self.logical.caller_return(thread.tid, reply, self.clock.now())
        self.write_record(thread, record)

    # ------------------------------------------------------------------
    # Snaps (§3.6)
    # ------------------------------------------------------------------
    def snap_request(self, thread: Thread, reason: int) -> None:
        """Guest snap API (SYS SNAP)."""
        if self.config.policy.api:
            lo, hi = self._now_payload()
            self.write_record(
                thread,
                ExtRecord(ExtKind.SNAP_MARK, inline=reason & 0xFFFF,
                          payload=(reason, lo, hi)),
            )
            self._snap(
                reason="api",
                detail={"code": reason},
                key=("api", reason, self._module_key(thread.pc)),
            )

    def snap_external(self, reason: str = "external", detail: dict | None = None) -> SnapFile | None:
        """Host-initiated snap: the external snap utility / hang path."""
        if self.recorder is not None:
            # External snaps are nondeterminism (a host decision): note
            # the event *before* building the snap so it lands in the
            # snap's own ndlog and replay re-takes the snap here.
            self.recorder.note_external_snap(reason, detail or {})
        return self._snap(reason=reason, detail=detail or {}, key=None)

    def _snap(self, reason: str, detail: dict, key: tuple | None) -> SnapFile | None:
        if self.stats.snaps >= self.config.policy.max_snaps:
            return None
        if key is not None and not self.suppressor.should_snap(key):
            return None
        snap = self.build_snap(reason, detail)
        self.stats.snaps += 1
        self.snap_store.add(snap)
        if self.service is not None:
            self.service.notify_snap(self, snap)
        return snap

    def build_snap(self, reason: str, detail: dict) -> SnapFile:
        """Collect buffers + metadata into a snap artifact.

        Threads are implicitly suspended: the VM is single-stepped, so a
        hook-context snap is globally consistent by construction — the
        simulation analog of §3.6's suspend-all-threads.
        """
        process = self.process
        modules = []
        for checksum, (loaded, rng) in self.module_table.items():
            modules.append(
                ModuleDump(
                    name=rng.module_name,
                    checksum=checksum,
                    dag_base_default=(loaded.module.dag_base if loaded else 0) or 0,
                    dag_base_actual=rng.base,
                    dag_count=rng.count,
                    code_base=loaded.code_base if loaded else -1,
                    loaded=loaded is not None,
                    data_base=loaded.data_base if loaded else -1,
                    rodata_base=loaded.rodata_base if loaded else -1,
                )
            )
        buffers = [
            BufferDump(
                index=buf.index,
                flags=buf.flags,
                base=buf.base,
                sub_count=buf.sub_count,
                sub_size=buf.sub_size,
                owner_tid=buf.owner_tid,
                words=buf.snapshot(),
            )
            for buf in self._all_buffers
        ]
        threads = [
            ThreadDump(
                tid=t.tid,
                name=t.name,
                state=t.state.value,
                pc=t.pc,
                trace_ptr=t.tls[self.config.trace_slot],
                block_reason=t.block_reason,
            )
            for t in process.threads.values()
        ]
        memory: dict[str, tuple[int, list[int]]] = {}
        include_memory = (
            self.config.include_memory
            if self.config.include_memory is not None
            else self.config.policy.include_memory
        )
        if include_memory:
            for seg in process.memory.segments():
                if seg.writable and seg.mapped_file is None:
                    memory[seg.name] = (seg.base, list(seg.words))
        replay: dict = {
            # The reproducibility seed rides every runtime-taken snap,
            # even without an ndlog: enough for `tbtrace info` to report
            # seed-only status, and for audits of the deterministic
            # inputs (machine identity, pid-derived PRNG seed).  The
            # interpreter tier is not one: every tier runs the same
            # program to the same evidence, so the content digest must
            # not tell them apart.
            "seed": {
                "machine": process.machine.name,
                "clock_skew": process.machine.clock_skew,
                "pid": process.pid,
                "rand_seed": 0x1234_5678 ^ process.pid,
                "runtime_id": self.runtime_id,
            }
        }
        if self.recorder is not None:
            replay["ndlog"] = self.recorder.to_dict(
                version=self.config.ndlog_version
            )
        return SnapFile(
            reason=reason,
            detail=detail,
            process_name=process.name,
            pid=process.pid,
            machine_name=process.machine.name,
            clock=self.clock.now(),
            modules=modules,
            buffers=buffers,
            threads=threads,
            memory=memory,
            replay=replay,
        )

    # ------------------------------------------------------------------
    def heartbeat(self) -> bool:
        """The event-thread STATUS reply (§3.7.5): False = looks hung."""
        if not self.process.alive:
            return False
        for thread in self.process.threads.values():
            if thread.runnable():
                return True
            if thread.state is ThreadState.BLOCKED and thread.wake_cycle is not None:
                return True
        return False
