"""The TBVM process virtual machine: processes, threads, scheduling,
exceptions, signals, and RPC plumbing.

A :class:`Machine` models one computer: a single CPU executing the
threads of its processes under a deterministic round-robin preemptive
scheduler, with a cycle counter that doubles as the real-time clock
(the RDTSC analog; distributed setups give each machine an independent
skew).  A :class:`Process` owns memory, loaded modules, threads, and the
hook list through which the TraceBack runtime gains control.

Faithfulness notes relative to the paper:

* Exceptions are dispatched **first-chance** to hooks before any handler
  search, then unwound through per-function handler ranges (the SEH
  analog).  Partially executed basic blocks at the fault point are real:
  the interpreter stops mid-block wherever the faulting instruction is.
* ``kill()`` is ``kill -9``: the process is torn down with no hooks and
  no guest cleanup.  Trace buffers survive because they live in
  host-owned :class:`~repro.vm.memory.MappedFile` objects.
* Blocking syscalls (sleep, I/O, locks, RPC) let the clock run while the
  CPU does other work — or fast-forward it when everything is blocked —
  so I/O-bound workloads dilute instrumentation overhead exactly the way
  the paper's SPECweb99 numbers show.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

from repro.isa.instructions import Op
from repro.isa.module import Module
from repro.vm.blocks import bind_units
from repro.vm.dispatch import (
    ALU_I as _ALU_I,
    ALU_R as _ALU_R,
    BRANCH as _BRANCH,
    HOST_CALL_COST,
    _s32,
)
from repro.vm.errors import (
    EngineSelectionError,
    ExcCode,
    Signal,
    VMError,
    VMFault,
)
from repro.vm.hooks import HookList, ProcessHooks
from repro.vm.loader import LoadedModule, Loader
from repro.vm.memory import MappedFile, Memory, Segment
from repro.vm.syscalls import COSTS, DEFAULT_COST, Sys
from repro.vm.thread import (
    SIGRET_RA,
    TRAMPOLINE_RA,
    Frame,
    Thread,
    ThreadState,
)

WORD_MASK = 0xFFFFFFFF

#: The execution engine tiers a Machine can run (see ``Machine.engine``).
#: ``block`` (the default) is the tier-3 block-compiled engine
#: (:mod:`repro.vm.blocks`); ``reference`` is the tier-1 ``step()``
#: if/elif interpreter, kept as the oracle the differential tests
#: compare against.
ENGINES = ("block", "reference")

#: Environment variable overriding the default engine for new Machines.
ENGINE_ENV_VAR = "TBVM_ENGINE"

#: Default per-thread stack size in words.
STACK_WORDS = 8192

#: Scheduler quantum in instructions.
QUANTUM = 40


@dataclass
class RpcRequest:
    """One RPC in flight: the unit distributed tracing correlates.

    ``extra`` is the out-of-band payload channel the TraceBack runtime
    augments with its (runtime id, logical thread id, sequence) triple —
    the analog of a COM payload extension or JNI side channel (§5.1).
    """

    service: int
    args: list[int]
    caller_thread: Thread
    caller_process: "Process"
    ret_addr: int
    ret_cap: int
    extra: dict = field(default_factory=dict)
    #: Filled by the callee side on completion.
    extra_reply: dict = field(default_factory=dict)
    status: int | None = None
    result: list[int] = field(default_factory=list)
    callee_thread: Thread | None = None
    callee_process: "Process | None" = None
    #: Callee-side addresses of the marshaled argument and reply buffers.
    callee_arg_addr: int = 0
    callee_ret_addr: int = 0


class ExitState:
    """How a process ended."""

    RUNNING = "running"
    EXITED = "exited"  # HALT / EXIT_PROCESS
    FAULTED = "faulted"  # unhandled exception
    SIGNALED = "signaled"  # fatal signal default action
    KILLED = "killed"  # SIGKILL, nothing ran


class Process:
    """One guest process."""

    def __init__(self, machine: "Machine", name: str, pid: int):
        self.machine = machine
        self.name = name
        self.pid = pid
        self.memory = Memory()
        self.loader = Loader(self.memory)
        self.hooks = HookList()
        self.threads: dict[int, Thread] = {}
        self.output: list[str] = []
        self.mutex_owner: dict[int, int] = {}
        self.mutex_waiters: dict[int, list[Thread]] = {}
        self.rpc_services: dict[int, str] = {}
        self.signal_handlers: dict[int, int] = {}
        self.pending_signals: list[int] = []
        self.exit_state = ExitState.RUNNING
        self.exit_code: int | None = None
        self.fault: VMFault | None = None
        self.cycles_used = 0
        self._next_tid = 0
        self._alloc_base = 0x0100_0000
        self._rand_state = 0x1234_5678 ^ pid

    # ------------------------------------------------------------------
    # Setup API (host side)
    # ------------------------------------------------------------------
    def load_module(self, module: Module) -> LoadedModule:
        """Load a module, running module-load hooks before execution."""
        return self.loader.load(module, on_loaded=self.hooks.module_loaded)

    def unload_module(self, loaded: LoadedModule) -> None:
        """Unload a module (long-running-server scenario, §2.3)."""
        self.hooks.module_unloaded(loaded)
        self.loader.unload(loaded)

    def start(self, module_name: str | None = None) -> Thread:
        """Create the main thread at a loaded module's entry point."""
        modules = self.loader.modules()
        if not modules:
            raise VMError("no modules loaded")
        if module_name is None:
            loaded = modules[0]
        else:
            found = self.loader.module_named(module_name)
            if found is None:
                raise VMError(f"module {module_name!r} not loaded")
            loaded = found
        entry = loaded.code_base + loaded.module.entry_offset()
        thread = self.create_thread(entry, name="main")
        thread.is_initial = True
        return thread

    def create_thread(self, entry_pc: int, arg: int = 0, name: str | None = None) -> Thread:
        """Create a new thread (host side or THREAD_CREATE syscall)."""
        stack_base = self.alloc_words(STACK_WORDS)
        stack = self.memory.segment_at(stack_base)
        assert stack is not None
        tid = self._next_tid
        self._next_tid += 1
        thread = Thread(tid, self, entry_pc, stack, arg=arg, name=name)
        self.threads[tid] = thread
        self.machine.spawn_epoch += 1
        return thread

    def register_rpc_service(self, service: int, func_name: str) -> None:
        """Expose exported function ``func_name`` as RPC service ``service``."""
        self.rpc_services[service] = func_name

    def alloc_words(self, count: int, name: str = "heap") -> int:
        """Map a fresh zeroed segment of ``count`` words; returns its base."""
        base = self._alloc_base
        self._alloc_base = (base + count + 16) & ~15
        self.memory.map_segment(Segment(base=base, size=count, name=f"{name}@{base:#x}"))
        return base

    def map_buffer(self, name: str, size: int) -> tuple[int, MappedFile]:
        """Map a host-owned buffer (the runtime's trace-buffer mapping).

        Returns ``(base_address, mapped_file)``.  The mapped file is the
        host's handle: it remains readable after the process dies.
        """
        mapped = MappedFile.zeroed(name, size)
        base = self._alloc_base
        self._alloc_base = (base + size + 16) & ~15
        self.memory.map_segment(
            Segment(base=base, size=size, name=name, mapped_file=mapped)
        )
        return base, mapped

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the process can still run."""
        return self.exit_state == ExitState.RUNNING

    def kill(self) -> None:
        """``kill -9``: immediate teardown, no hooks, no guest cleanup."""
        observer = getattr(self, "_kill_observer", None)
        if observer is not None and self.exit_state == ExitState.RUNNING:
            # Host-side tap (replay recording): guest hooks stay silent,
            # but the kill itself is external nondeterminism.
            observer()
        self.exit_state = ExitState.KILLED
        for thread in self.threads.values():
            if thread.alive():
                thread.kill()

    def post_signal(self, signum: int) -> None:
        """Queue an asynchronous signal (KILL acts immediately)."""
        if signum == Signal.KILL:
            self.kill()
        else:
            self.pending_signals.append(signum)

    def exit_normally(self, code: int) -> None:
        """HALT / EXIT_PROCESS path."""
        self.hooks.process_exit(self, code)
        self.exit_state = ExitState.EXITED
        self.exit_code = code
        self._stop_threads()

    def die_from_fault(self, fault: VMFault) -> None:
        """Unhandled-exception death (hooks already notified)."""
        self.exit_state = ExitState.FAULTED
        self.fault = fault
        self.exit_code = fault.code
        self._stop_threads()

    def die_from_signal(self, signum: int) -> None:
        """Fatal signal default action."""
        self.exit_state = ExitState.SIGNALED
        self.exit_code = signum
        self._stop_threads()

    def _stop_threads(self) -> None:
        for thread in self.threads.values():
            if thread.alive():
                thread.state = ThreadState.DONE

    # ------------------------------------------------------------------
    def thread_finished(self, thread: Thread, code: int) -> None:
        """Common normal-termination path for threads."""
        thread.finish(code)
        if thread.rpc_serving is not None:
            request = thread.rpc_serving
            thread.rpc_serving = None
            self.hooks.rpc_callee_exit(thread, request)
            self.hooks.thread_exited(thread)
            self.machine.complete_rpc(request, status=0)
        else:
            self.hooks.thread_exited(thread)
        if getattr(thread, "is_initial", False) and self.alive:
            # The initial thread returning from its entry function ends
            # the process (C `main` semantics).
            self.exit_normally(code)

    def rand(self) -> int:
        """Deterministic per-process PRNG (31-bit)."""
        self._rand_state = (1103515245 * self._rand_state + 12345) & 0x7FFFFFFF
        return self._rand_state

    def main_thread(self) -> Thread | None:
        """Lowest-tid living thread (signal delivery target)."""
        for tid in sorted(self.threads):
            if self.threads[tid].alive():
                return self.threads[tid]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Process {self.pid} {self.name!r} {self.exit_state}>"


class Machine:
    """One simulated computer: CPU, clock, processes.

    ``engine`` selects the interpreter: ``"block"`` (the default) runs
    the tier-3 block-compiled engine in :mod:`repro.vm.blocks` (fused
    straight-line units, enterable at any instruction, with the tier-2
    handlers of :mod:`repro.vm.dispatch` as terminators); ``"reference"``
    runs the original ``step()`` if/elif interpreter, the oracle.  Both
    tiers are bit-identical in architectural state, cycle counts, and
    trace output (enforced by ``tests/vm/test_differential.py``); tier 3
    exists purely for throughput.  The ``TBVM_ENGINE`` environment
    variable overrides the default for debugging; an unknown value
    raises :class:`~repro.vm.errors.EngineSelectionError`.
    """

    def __init__(
        self,
        name: str = "machine",
        clock_skew: int = 0,
        io_latency: int = 2000,
        engine: str | None = None,
    ):
        if engine is None:
            source = f"${ENGINE_ENV_VAR}"
            engine = os.environ.get(ENGINE_ENV_VAR, ENGINES[0])
        else:
            source = "Machine(engine=...)"
        if engine not in ENGINES:
            raise EngineSelectionError(engine, ENGINES, source)
        self.name = name
        self.engine = engine
        self.cycles = 0
        self.clock_skew = clock_skew
        self.io_latency = io_latency
        self.processes: list[Process] = []
        self._next_pid = 1
        self._rr_index = 0
        #: Bumped on every process/thread creation anywhere on the
        #: machine — the scheduler fast path's O(1) population guard.
        self.spawn_epoch = 0
        #: Set by a Network to route RPC off-machine; None = local only.
        self.rpc_router: Callable[[RpcRequest], None] | None = None
        #: Observers with slice_begin/slice_end methods, called around
        #: every scheduler slice (the replay recorder's capture point).
        self.slice_hooks: list = []

    # ------------------------------------------------------------------
    def now(self) -> int:
        """The machine's real-time clock (cycles + skew)."""
        return self.cycles + self.clock_skew

    def create_process(self, name: str) -> Process:
        """Create an empty process on this machine."""
        process = Process(self, name, self._next_pid)
        self._next_pid += 1
        self.processes.append(process)
        self.spawn_epoch += 1
        return process

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _live_threads(self) -> list[Thread]:
        return [
            thread
            for process in self.processes
            if process.alive
            for thread in process.threads.values()
            if thread.alive()
        ]

    def _wake_sleepers(self) -> None:
        for thread in self._live_threads():
            if (
                thread.state is ThreadState.BLOCKED
                and thread.wake_cycle is not None
                and thread.wake_cycle <= self.cycles
            ):
                thread.unblock()

    def run(self, max_cycles: int | None = None, quantum: int = QUANTUM) -> str:
        """Run until completion, deadlock, or the cycle limit.

        Returns ``"done"`` (no live threads remain), ``"stalled"``
        (live threads exist but none can ever run — a hang/deadlock, the
        case the paper's external snap utility exists for), or
        ``"limit"``.
        """
        while True:
            if max_cycles is not None and self.cycles >= max_cycles:
                return "limit"
            self._wake_sleepers()
            live = self._live_threads()
            if not live:
                return "done"
            runnable = [t for t in live if t.runnable()]
            if not runnable:
                timed = [
                    t.wake_cycle
                    for t in live
                    if t.state is ThreadState.BLOCKED and t.wake_cycle is not None
                ]
                if timed:
                    # Everything is waiting on the clock: fast-forward.
                    self.cycles = max(self.cycles, min(timed))
                    continue
                return "stalled"
            self._rr_index %= len(runnable)
            thread = runnable[self._rr_index]
            self._rr_index += 1
            # Spawn epoch *before* the slice: any creation during it
            # (thread_create, a new process, an RPC service thread in
            # another process) bumps the counter and must send us back
            # to the full scheduler.
            epoch = self.spawn_epoch
            self._observed_slice(thread, quantum)
            if len(live) != 1:
                continue
            # Single-thread fast path: while this thread is the whole
            # machine (no other thread to wake, schedule, or prefer)
            # and stays runnable, re-slice without rebuilding the
            # bookkeeping lists — the round-robin outcome is forced.
            # Any change in the thread/process population falls back to
            # the full scheduler.
            process = thread.process
            while (
                process.exit_state == ExitState.RUNNING
                and thread.runnable()
                and self.spawn_epoch == epoch
                and not (max_cycles is not None and self.cycles >= max_cycles)
            ):
                # What the full path's modulo arithmetic leaves behind
                # for a single runnable thread.
                self._rr_index = 1
                self._observed_slice(thread, quantum)

    def _observed_slice(self, thread: Thread, quantum: int) -> None:
        """One scheduler slice, with the slice hooks around it."""
        hooks = self.slice_hooks
        for hook in hooks:
            hook.slice_begin(thread)
        self.run_thread_slice(thread, quantum)
        for hook in hooks:
            hook.slice_end(thread)

    def run_thread_slice(self, thread: Thread, quantum: int) -> None:
        """Run up to ``quantum`` instructions of one thread."""
        process = thread.process
        if not thread.started:
            thread.started = True
            process.hooks.thread_started(thread)
            if not thread.alive():  # a hook may have killed the process
                return
        if process.pending_signals and thread is process.main_thread():
            self._deliver_signal(thread, process.pending_signals.pop(0))
            if not thread.runnable():
                return
        if self.engine == "block":
            self._run_slice_block(thread, process, quantum)
            return
        for _ in range(quantum):
            if not process.alive or not thread.runnable():
                return
            self.step(thread)

    def _run_slice_block(
        self, thread: Thread, process: Process, quantum: int
    ) -> None:
        """The tier-3 hot loop: compiled-unit dispatch.

        Each iteration runs one compiled unit from the pc on: the whole
        unit when the pc is its first instruction and it fits the
        remaining quantum, else a partial run from the pc's index in the
        unit up to the unit's end or the quantum's, whichever comes
        first.  So a slice retires exactly ``quantum`` instructions
        (unless the thread blocks, ends or faults), and replay's forced
        slices and ``chunk=1`` breakpoint stepping stay exact.  The unit
        table covers every code word; it is bound lazily on first
        execution and re-read through the attribute every iteration, so
        a decode-cache refresh (code rewriting) takes effect immediately.
        """
        loader = process.loader
        loaded: LoadedModule | None = thread.code_hint
        if loaded is not None and not loaded.unloaded:
            code_base = loaded.code_base
            code_end = loaded.code_end
        else:
            code_base = 1
            code_end = 0
        ready = ThreadState.READY
        running = ExitState.RUNNING
        remaining = quantum
        while remaining > 0:
            if process.exit_state != running or thread.state is not ready:
                return
            pc = thread.pc
            if pc < code_base or pc >= code_end or loaded.unloaded:
                loaded = loader.find_code(pc)
                thread.code_hint = loaded
                if loaded is None:
                    self._fault(
                        thread,
                        VMFault(ExcCode.ACCESS_VIOLATION, pc,
                                f"execute of unmapped {pc:#x}"),
                    )
                    code_base = 1
                    code_end = 0
                    remaining -= 1
                    continue
                code_base = loaded.code_base
                code_end = loaded.code_end
            table = loaded.block_table
            if table is None:
                table = bind_units(loaded)
            offset = pc - code_base
            start, count, whole, part = table[offset]
            before = thread.instructions
            try:
                if offset == start and count <= remaining:
                    whole(self, thread)
                    remaining -= count
                else:
                    k = offset - start
                    stop = k + remaining
                    if stop > count:
                        stop = count
                    part(self, thread, k, stop)
                    remaining -= stop - k
            except VMFault as fault:
                remaining -= thread.instructions - before
                self._fault(thread, fault)

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def _deliver_signal(self, thread: Thread, signum: int) -> None:
        process = thread.process
        process.hooks.signal(thread, signum)
        if not process.alive:
            return  # a hook (e.g. snap policy) terminated the process
        handler = process.signal_handlers.get(signum)
        if handler is None:
            process.die_from_signal(signum)
            return
        # Synthesize a call to the guest handler; RET through SIGRET_RA
        # resumes the interrupted context.
        thread.interrupted_pc = thread.pc
        thread.current_signum = signum
        thread.sp -= 1
        thread.process.memory.store(thread.sp, SIGRET_RA)
        thread.frames.append(
            Frame(entry_pc=handler, return_pc=SIGRET_RA, entry_sp=thread.sp)
        )
        thread.regs[0] = signum
        thread.pc = handler

    # ------------------------------------------------------------------
    # RPC
    # ------------------------------------------------------------------
    def dispatch_rpc(self, request: RpcRequest) -> None:
        """Route an outgoing RPC: via the network if attached, else to a
        local process registering the service."""
        if self.rpc_router is not None:
            self.rpc_router(request)
            return
        self.deliver_rpc_locally(request)

    def deliver_rpc_locally(self, request: RpcRequest) -> None:
        """Find a local process serving the request and start a service
        thread in it."""
        for process in self.processes:
            if process.alive and request.service in process.rpc_services:
                spawn_service_thread(process, request)
                return
        self.complete_rpc(request, status=ExcCode.RPC_SERVER_FAULT)

    def complete_rpc(self, request: RpcRequest, status: int) -> None:
        """Finish an RPC: copy the reply, set status, wake the caller."""
        if request.status is not None:
            return  # already completed (e.g. fault after exit)
        request.status = status
        if request.callee_process is not None and request.ret_cap > 0:
            try:
                request.result = request.callee_process.memory.read_block(
                    request.callee_ret_addr, request.ret_cap
                )
            except VMFault:
                request.result = []
        caller = request.caller_thread
        if request.result and request.ret_cap:
            words = request.result[: request.ret_cap]
            for i, word in enumerate(words):
                request.caller_process.memory.store(request.ret_addr + i, word)
        caller.regs[0] = status
        request.caller_process.hooks.rpc_caller_return(caller, request)
        caller.rpc_waiting = None
        caller.unblock()

    # ------------------------------------------------------------------
    # Reference interpreter
    # ------------------------------------------------------------------
    def step(self, thread: Thread) -> None:
        """Execute one instruction of ``thread``.

        This is the **reference interpreter**: one if/elif dispatch per
        instruction.  The tier-2 handlers (:mod:`repro.vm.dispatch`) and
        the tier-3 units (:mod:`repro.vm.blocks`) must stay bit-identical
        to it; change semantics here first, then mirror them in both
        code generators.
        """
        process = thread.process
        loaded = process.loader.find_code(thread.pc)
        if loaded is None:
            self._fault(thread, VMFault(ExcCode.ACCESS_VIOLATION, thread.pc,
                                        f"execute of unmapped {thread.pc:#x}"))
            return
        instr = loaded.decoded[thread.pc - loaded.code_base]
        self.cycles += 1
        process.cycles_used += 1
        thread.instructions += 1
        try:
            self._exec(thread, process, loaded, instr)
        except VMFault as fault:
            self._fault(thread, fault)

    def _exec(
        self, thread: Thread, process: Process, loaded: LoadedModule, instr: Instr_t
    ) -> None:
        op = instr.op
        regs = thread.regs
        pc = thread.pc
        mem = process.memory

        if op is Op.ADDI:
            regs[instr.rd] = (regs[instr.rs] + instr.imm) & WORD_MASK
        elif op is Op.LDW:
            regs[instr.rd] = mem.load((regs[instr.rs] + instr.imm) & WORD_MASK, pc)
        elif op is Op.STW:
            mem.store((regs[instr.rs] + instr.imm) & WORD_MASK, regs[instr.rd], pc)
        elif op is Op.MOVI:
            regs[instr.rd] = instr.imm & WORD_MASK
        elif op is Op.MOV:
            regs[instr.rd] = regs[instr.rs]
        elif op is Op.MOVHI:
            regs[instr.rd] = (instr.imm & 0xFFFF) << 16
        elif op in _ALU_R:
            regs[instr.rd] = _ALU_R[op](regs[instr.rs], regs[instr.rt], pc)
        elif op in _ALU_I:
            regs[instr.rd] = _ALU_I[op](regs[instr.rs], instr.imm)
        elif op is Op.PUSH:
            thread.sp -= 1
            mem.store(thread.sp, regs[instr.rd], pc)
        elif op is Op.POP:
            regs[instr.rd] = mem.load(thread.sp, pc)
            thread.sp += 1
        elif op is Op.BR:
            thread.pc = pc + 1 + instr.imm
            return
        elif op in _BRANCH:
            if _BRANCH[op](regs[instr.rd], regs[instr.rs]):
                thread.pc = pc + 1 + instr.imm
                return
        elif op is Op.JMP:
            thread.pc = regs[instr.rd]
            return
        elif op is Op.JTAB:
            thread.pc = mem.load((regs[instr.rs] + regs[instr.rd]) & WORD_MASK, pc)
            return
        elif op is Op.CALL:
            self._do_call(thread, mem, pc + 1 + instr.imm, pc)
            return
        elif op is Op.CALLR:
            self._do_call(thread, mem, regs[instr.rd], pc)
            return
        elif op is Op.CALLX:
            binding = loaded.import_bindings[instr.imm]
            if callable(binding):
                cost = binding(thread)
                self.cycles += cost if cost is not None else HOST_CALL_COST
            else:
                self._do_call(thread, mem, binding, pc)
                return
        elif op is Op.RET:
            self._do_ret(thread, mem, pc)
            return
        elif op is Op.SYS:
            self._syscall(thread, process, instr.imm)
            if not thread.runnable() or thread.pc != pc:
                return
        elif op is Op.THROW:
            raise VMFault(regs[instr.rd], pc, "THROW")
        elif op is Op.HALT:
            process.exit_normally(regs[0])
            return
        elif op is Op.NOP:
            pass
        elif op is Op.TLSLD:
            regs[instr.rd] = thread.tls[instr.imm]
        elif op is Op.TLSST:
            thread.tls[instr.imm] = regs[instr.rd]
        elif op is Op.ORM:
            mem.or_word(regs[instr.rd], instr.imm & 0xFFFF, pc)
        elif op is Op.STDAG:
            mem.store(regs[instr.rd], 0x80000000 | ((instr.imm & 0xFFFFF) << 11), pc)
        elif op is Op.BSENT:
            if mem.load(regs[instr.rd], pc) == 0xFFFFFFFF:
                thread.pc = pc + 1 + instr.imm
                return
        else:  # pragma: no cover - every opcode is handled above
            raise VMFault(ExcCode.ILLEGAL_INSTRUCTION, pc, f"{op.name}")
        thread.pc = pc + 1

    # ------------------------------------------------------------------
    def _do_call(self, thread: Thread, mem: Memory, target: int, pc: int) -> None:
        thread.sp -= 1
        mem.store(thread.sp, pc + 1, pc)
        thread.frames.append(
            Frame(entry_pc=target, return_pc=pc + 1, entry_sp=thread.sp)
        )
        thread.pc = target

    def _do_ret(self, thread: Thread, mem: Memory, pc: int) -> None:
        ra = mem.load(thread.sp, pc)
        thread.sp += 1
        if thread.frames:
            thread.frames.pop()
        if ra == TRAMPOLINE_RA:
            thread.process.thread_finished(thread, thread.regs[0])
            return
        if ra == SIGRET_RA:
            signum = getattr(thread, "current_signum", 0)
            thread.process.hooks.signal_return(thread, signum)
            assert thread.interrupted_pc is not None
            thread.pc = thread.interrupted_pc
            thread.interrupted_pc = None
            return
        thread.pc = ra

    # ------------------------------------------------------------------
    # Exception dispatch (first-chance -> handler search -> unwinding)
    # ------------------------------------------------------------------
    def _fault(self, thread: Thread, fault: VMFault) -> None:
        process = thread.process
        if thread.in_runtime:
            # Exceptions raised while inside the TraceBack runtime are
            # suppressed (§3.7) — here that is a host bug, so surface it.
            raise VMError(f"runtime code faulted: {fault}")
        process.hooks.first_chance(thread, fault)
        if not process.alive or not thread.alive():
            return  # a snap policy terminated the process

        if self._unwind_to_handler(thread, fault):
            return

        if thread.rpc_serving is not None:
            # A service thread died: the RPC layer converts the fault to
            # a server-fault status for the caller (Figure 6 scenario).
            request = thread.rpc_serving
            thread.rpc_serving = None
            thread.finish(-fault.code)
            process.hooks.rpc_callee_exit(thread, request)
            process.hooks.thread_exited(thread)
            self.complete_rpc(request, status=ExcCode.RPC_SERVER_FAULT)
            return

        process.hooks.unhandled(thread, fault)
        if process.alive:
            process.die_from_fault(fault)

    def _unwind_to_handler(self, thread: Thread, fault: VMFault) -> bool:
        process = thread.process
        frames = thread.frames
        # Candidate (frame index, pc-in-frame): innermost first.
        candidates: list[tuple[int, int]] = []
        if frames:
            candidates.append((len(frames) - 1, thread.pc))
            for idx in range(len(frames) - 1, 0, -1):
                candidates.append((idx - 1, frames[idx].return_pc - 1))
        for frame_idx, pc in candidates:
            loaded = process.loader.find_code(pc)
            if loaded is None:
                continue
            rel = pc - loaded.code_base
            func = loaded.module.func_at(rel)
            if func is None:
                continue
            for handler in func.handlers:
                if handler.matches(rel, fault.code):
                    frame = frames[frame_idx]
                    del frames[frame_idx + 1 :]
                    thread.sp = frame.entry_sp - func.frame_size
                    thread.regs[0] = fault.code
                    thread.pc = loaded.code_base + handler.handler
                    return True
        return False

    # ------------------------------------------------------------------
    # Syscalls
    # ------------------------------------------------------------------
    def _syscall(self, thread: Thread, process: Process, number: int) -> None:
        process.hooks.syscall(thread, number)
        cost = COSTS.get(number, DEFAULT_COST)
        self.cycles += cost
        process.cycles_used += cost
        regs = thread.regs
        pc = thread.pc

        if number == Sys.PRINT_INT:
            process.output.append(str(_s32(regs[0])))
        elif number == Sys.PRINT_STR:
            process.output.append(process.memory.read_cstr(regs[0]))
        elif number == Sys.PUTC:
            process.output.append(chr(regs[0] & 0x10FFFF))
        elif number == Sys.EXIT_THREAD:
            process.thread_finished(thread, _s32(regs[0]))
            return
        elif number == Sys.EXIT_PROCESS:
            process.exit_normally(_s32(regs[0]))
            return
        elif number == Sys.SBRK:
            regs[0] = process.alloc_words(max(1, regs[0]))
        elif number == Sys.CLOCK:
            regs[0] = self.now() & WORD_MASK
        elif number == Sys.SLEEP:
            duration = _s32(regs[0])
            if duration < 0:
                raise VMFault(ExcCode.ILLEGAL_ARGUMENT, pc,
                              f"sleep({duration})")
            thread.pc = pc + 1
            thread.block("sleep", wake_cycle=self.cycles + duration)
            return
        elif number in (Sys.IO_READ, Sys.IO_WRITE):
            units = max(1, regs[0])
            thread.pc = pc + 1
            thread.block("io", wake_cycle=self.cycles + self.io_latency * units)
            return
        elif number == Sys.THREAD_CREATE:
            child = process.create_thread(regs[0], arg=regs[1])
            regs[0] = child.tid
        elif number == Sys.LOCK:
            self._lock(thread, process, regs[0])
            if not thread.runnable():
                thread.pc = pc + 1
                return
        elif number == Sys.UNLOCK:
            self._unlock(process, regs[0])
        elif number == Sys.RPC_CALL:
            self._rpc_call(thread, process)
            thread.pc = pc + 1
            return
        elif number == Sys.YIELD:
            pass
        elif number == Sys.RAND:
            regs[0] = process.rand()
        elif number == Sys.GETTID:
            regs[0] = thread.tid
        elif number == Sys.SIGNAL:
            process.signal_handlers[regs[0]] = regs[1]
        elif number == Sys.SNAP:
            process.hooks.snap_request(thread, regs[0])
        elif number == Sys.ARG:
            pass  # the argument is already in r0 at thread start
        else:
            raise VMFault(ExcCode.ILLEGAL_INSTRUCTION, pc, f"syscall {number}")
        thread.pc = pc + 1

    def _lock(self, thread: Thread, process: Process, mutex: int) -> None:
        owner = process.mutex_owner.get(mutex)
        if owner is None:
            process.mutex_owner[mutex] = thread.tid
        elif owner == thread.tid:
            pass  # recursive acquire is a no-op
        else:
            process.mutex_waiters.setdefault(mutex, []).append(thread)
            thread.block(f"lock-{mutex}")

    def _unlock(self, process: Process, mutex: int) -> None:
        waiters = process.mutex_waiters.get(mutex, [])
        if waiters:
            waiter = waiters.pop(0)
            process.mutex_owner[mutex] = waiter.tid
            waiter.unblock()
        else:
            process.mutex_owner.pop(mutex, None)

    def _rpc_call(self, thread: Thread, process: Process) -> None:
        regs = thread.regs
        arg_len = regs[2]
        args = process.memory.read_block(regs[1], arg_len) if arg_len else []
        request = RpcRequest(
            service=regs[0],
            args=args,
            caller_thread=thread,
            caller_process=process,
            ret_addr=regs[3],
            ret_cap=regs[4],
        )
        process.hooks.rpc_caller_send(thread, request)
        thread.rpc_waiting = request
        thread.block(f"rpc-{request.service}")
        self.dispatch_rpc(request)


# Type alias used in _exec's signature without importing at module top.
from repro.isa.instructions import Instr as Instr_t  # noqa: E402


def spawn_service_thread(process: Process, request: RpcRequest) -> Thread:
    """Start a thread in ``process`` to serve ``request``.

    Marshals the argument words into callee memory, allocates a reply
    buffer, and launches the registered handler with the guest calling
    convention ``handler(arg_addr, arg_len, ret_addr, ret_cap)``.
    """
    func_name = process.rpc_services[request.service]
    addr = process.loader.find_export(func_name)
    if addr is None:
        raise VMError(
            f"process {process.name!r}: RPC service {request.service} refers "
            f"to unknown export {func_name!r}"
        )
    arg_addr = process.alloc_words(max(1, len(request.args)), name="rpc-args")
    process.memory.write_block(arg_addr, request.args)
    ret_addr = process.alloc_words(max(1, request.ret_cap), name="rpc-ret")

    thread = process.create_thread(addr, name=f"rpc-svc-{request.service}")
    thread.regs[0] = arg_addr
    thread.regs[1] = len(request.args)
    thread.regs[2] = ret_addr
    thread.regs[3] = request.ret_cap
    thread.rpc_serving = request
    request.callee_thread = thread
    request.callee_process = process
    request.callee_arg_addr = arg_addr
    request.callee_ret_addr = ret_addr
    process.hooks.rpc_callee_enter(thread, request)
    return thread


