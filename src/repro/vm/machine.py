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

import math
import os
from dataclasses import dataclass, field
from typing import Callable

from repro.isa.instructions import Op
from repro.isa.module import Module
from repro.vm.blocks import HOST_CALL_COST, _div, _mod, _s32, bind_units
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

# The reference interpreter's ALU and conditional-branch tables
# (``Machine._exec``); compiled units inline their own expressions.
_ALU_R = {
    Op.ADD: lambda a, b, pc: (a + b) & WORD_MASK,
    Op.SUB: lambda a, b, pc: (a - b) & WORD_MASK,
    Op.MUL: lambda a, b, pc: (a * b) & WORD_MASK,
    Op.DIV: _div,
    Op.MOD: _mod,
    Op.AND: lambda a, b, pc: a & b,
    Op.OR: lambda a, b, pc: a | b,
    Op.XOR: lambda a, b, pc: a ^ b,
    Op.SHL: lambda a, b, pc: (a << (b & 31)) & WORD_MASK,
    Op.SHR: lambda a, b, pc: (a & WORD_MASK) >> (b & 31),
    Op.SLT: lambda a, b, pc: 1 if _s32(a) < _s32(b) else 0,
    Op.SLE: lambda a, b, pc: 1 if _s32(a) <= _s32(b) else 0,
    Op.SEQ: lambda a, b, pc: 1 if a == b else 0,
    Op.SNE: lambda a, b, pc: 1 if a != b else 0,
}

_ALU_I = {
    Op.ANDI: lambda a, imm: a & (imm & 0xFFFF),
    Op.ORI: lambda a, imm: a | (imm & 0xFFFF),
    Op.XORI: lambda a, imm: a ^ (imm & 0xFFFF),
    Op.SHLI: lambda a, imm: (a << (imm & 31)) & WORD_MASK,
    Op.SHRI: lambda a, imm: (a & WORD_MASK) >> (imm & 31),
    Op.SLTI: lambda a, imm: 1 if _s32(a) < imm else 0,
    Op.MULI: lambda a, imm: (a * imm) & WORD_MASK,
}

_BRANCH = {
    Op.BZ: lambda a, b: a == 0,
    Op.BNZ: lambda a, b: a != 0,
    Op.BEQ: lambda a, b: a == b,
    Op.BNE: lambda a, b: a != b,
    Op.BLT: lambda a, b: _s32(a) < _s32(b),
    Op.BGE: lambda a, b: _s32(a) >= _s32(b),
}


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
        self.machine.sched_epoch += 1
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
        self.machine.sched_epoch += 1
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
        self.machine.sched_epoch += 1
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
    straight-line units, enterable at any instruction, each compiling
    its own terminator); ``"reference"`` runs the original ``step()``
    if/elif interpreter, the oracle.  The two engines are the only
    implementations of the ISA and are bit-identical in architectural
    state, cycle counts, and trace output (enforced by
    ``tests/vm/test_differential.py``); tier 3 exists purely for
    throughput.  The ``TBVM_ENGINE`` environment variable overrides the
    default for debugging; an unknown value raises
    :class:`~repro.vm.errors.EngineSelectionError`.
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
        #: Bumped by every change that can alter which threads are live,
        #: runnable, or waiting on the clock: thread and process
        #: creation, and every thread state change (``Thread.block``/
        #: ``unblock``/``finish``/``kill``, ``Process.kill``/
        #: ``_stop_threads``).
        self.sched_epoch = 0
        # The scheduler's cached lists, built at epoch ``_sched_at``:
        # live threads, runnable threads, and the earliest timed wake
        # (None when no live thread waits on the clock).
        self._sched_at = -1
        self._live: list[Thread] = []
        self._runnable: list[Thread] = []
        self._next_wake: int | None = None
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
        self.sched_epoch += 1
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

    def thread_lists(self) -> tuple[list[Thread], list[Thread]]:
        """The live and the runnable threads, after waking due sleepers.

        Served from the cached lists while nothing has bumped
        ``sched_epoch`` and no timed wake is due, so a slice costs O(1)
        whatever the thread count; otherwise they are rebuilt first.
        """
        wake = self._next_wake
        if self._sched_at != self.sched_epoch or (
            wake is not None and wake <= self.cycles
        ):
            self._rebuild_thread_lists()
        return self._live, self._runnable

    def _rebuild_thread_lists(self) -> None:
        """Unblock every live thread whose wake cycle has come, then
        rebuild the cached lists at the current epoch."""
        live = self._live = self._live_threads()
        for thread in live:  # a woken thread stays live
            if (
                thread.state is ThreadState.BLOCKED
                and thread.wake_cycle is not None
                and thread.wake_cycle <= self.cycles
            ):
                thread.unblock()
        self._runnable = [t for t in live if t.runnable()]
        self._next_wake = min(
            (
                t.wake_cycle
                for t in live
                if t.state is ThreadState.BLOCKED and t.wake_cycle is not None
            ),
            default=None,
        )
        self._sched_at = self.sched_epoch

    def run(self, max_cycles: int | None = None, quantum: int = QUANTUM) -> str:
        """Run until completion, deadlock, or the cycle limit.

        Returns ``"done"`` (no live threads remain), ``"stalled"``
        (live threads exist but none can ever run — a hang/deadlock, the
        case the paper's external snap utility exists for), or
        ``"limit"``.  Threads take turns in round-robin order, one
        ``quantum`` of instructions each; when every live thread is
        blocked and some wait on the clock, the clock fast-forwards to
        the earliest wake.  The thread lists are :meth:`thread_lists`'s
        cached ones, so one thread or many, a slice costs the same.

        When one thread is runnable and no slice hooks are attached, the
        scheduler would pick it again at every quantum boundary until
        the clock reaches ``max_cycles`` or the earliest timed wake, or
        something moves ``sched_epoch`` or posts a signal.  So it gets
        one slice with that cycle horizon, and the block engine runs its
        quanta back to back (:meth:`_run_slice_block`).  Every boundary
        stays where it was: the run stops, wakes threads, and switches
        threads on the same instruction as with one slice per quantum.
        """
        if quantum < 1:
            raise ValueError(f"quantum must be at least 1 instruction, got {quantum}")
        while True:
            if max_cycles is not None and self.cycles >= max_cycles:
                return "limit"
            # thread_lists(), inlined: this runs once per slice.
            wake = self._next_wake
            if self._sched_at != self.sched_epoch or (
                wake is not None and wake <= self.cycles
            ):
                self._rebuild_thread_lists()
            runnable = self._runnable
            if not runnable:
                if not self._live:
                    return "done"
                if self._next_wake is not None:
                    # Everything is waiting on the clock: fast-forward.
                    self.cycles = max(self.cycles, self._next_wake)
                    continue
                return "stalled"
            self._rr_index %= len(runnable)
            thread = runnable[self._rr_index]
            self._rr_index += 1
            if self.slice_hooks or len(runnable) > 1:
                self._observed_slice(thread, quantum)
                continue
            horizon = self._next_wake
            if max_cycles is not None and (horizon is None or max_cycles < horizon):
                horizon = max_cycles
            self.run_thread_slice(
                thread, quantum, horizon=math.inf if horizon is None else horizon
            )

    def _observed_slice(self, thread: Thread, quantum: int) -> None:
        """One scheduler slice, with the slice hooks around it."""
        hooks = self.slice_hooks
        for hook in hooks:
            hook.slice_begin(thread)
        self.run_thread_slice(thread, quantum)
        for hook in hooks:
            hook.slice_end(thread)

    def run_thread_slice(
        self, thread: Thread, quantum: int, *, horizon: float | None = None
    ) -> None:
        """Run up to ``quantum`` instructions of one thread.

        ``horizon`` is :meth:`run`'s cycle horizon for a lone runnable
        thread: the block engine then goes on past each quantum boundary
        the clock reaches before it, as long as nothing moved
        ``sched_epoch`` or posted a signal.  The reference engine
        ignores it and keeps one quantum per slice, the oracle the merged
        slices are checked against.  Without one, as replay's forced
        slices call it, the slice ends after ``quantum`` instructions
        (none for a prologue-only ``quantum`` of 0).
        """
        process = thread.process
        memory = process.memory
        if memory._cache_owner is not thread:
            memory.switch_caches(thread)
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
            self._run_slice_block(thread, process, quantum, horizon)
            return
        for _ in range(quantum):
            if not process.alive or not thread.runnable():
                return
            self.step(thread)

    def _run_slice_block(
        self,
        thread: Thread,
        process: Process,
        quantum: int,
        horizon: float | None,
    ) -> None:
        """The tier-3 hot loop: compiled-unit dispatch.

        Each iteration runs one compiled unit from the pc on: the whole
        unit when the pc is its first instruction and its span (the most
        instructions its whole run can retire, an inlined probe call's
        helper included) fits the remaining quantum, counting what the
        run returns it retired, else a partial run from the pc's index in
        the unit up to the unit's end or the quantum's, whichever comes
        first.  So a slice without a ``horizon`` retires exactly
        ``quantum`` instructions (unless the thread blocks, ends or
        faults), and replay's forced slices and ``chunk=1`` breakpoint
        stepping stay exact.

        With a ``horizon`` the slice crosses a quantum boundary wherever
        the scheduler would pick this thread again: the clock is below
        the horizon, ``sched_epoch`` is where it was when the slice
        began, and no signal is pending.  A unit that straddles a
        boundary then runs to its end when its last instruction retires
        by the horizon, since the boundary falls in its fused part or its
        inlined helper, which charge one cycle per instruction and run no
        hooks; the whole run is tried first, so a probe call crossing a
        boundary keeps its helper inline.  ``remaining`` stays the count
        to the next boundary (modulo the quantum: one unit can cross
        several), also after a fault, so the slice ends on the boundary a
        per-quantum run would stop at.

        The unit table covers every code word; it is bound lazily on
        first execution and re-read through the attribute every
        iteration, so a decode-cache refresh (code rewriting) takes
        effect immediately.
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
        epoch = self.sched_epoch
        remaining = quantum
        while True:
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
                start, count, span, whole, part = table[offset]
                before = thread.instructions
                try:
                    if offset == start:
                        if span <= remaining:
                            remaining -= whole(self, thread)
                            continue
                        if (
                            horizon is not None
                            and self.cycles + span <= horizon
                            and self.sched_epoch == epoch
                            and not process.pending_signals
                        ):  # straddles boundaries the slice would cross
                            remaining = (remaining - whole(self, thread)) % quantum
                            continue
                    k = offset - start
                    if k + remaining >= count:
                        part(self, thread, k, count)
                        remaining -= count - k
                    elif (
                        horizon is None
                        or self.cycles + count - k > horizon
                        or self.sched_epoch != epoch
                        or process.pending_signals
                    ):
                        part(self, thread, k, k + remaining)
                        remaining = 0
                    else:  # straddles boundaries the slice would cross
                        part(self, thread, k, count)
                        remaining = (remaining - count + k) % quantum
                except VMFault as fault:
                    remaining -= thread.instructions - before
                    if remaining < 0:
                        remaining %= quantum
                    self._fault(thread, fault)
            # A quantum boundary: cross it only where the scheduler
            # would pick this thread again.
            if (
                horizon is None
                or self.cycles >= horizon
                or self.sched_epoch != epoch
                or process.pending_signals
            ):
                return
            remaining = quantum

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
        instruction.  The tier-3 units (:mod:`repro.vm.blocks`) must stay
        bit-identical to it; change semantics here first, then mirror
        them in the unit compiler.
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
        """Run syscall ``number`` for the ``SYS`` at ``thread.pc``.  Moves
        the pc past the ``SYS`` unless the call ends the thread or
        faults, so both engines call it as the whole instruction."""
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


