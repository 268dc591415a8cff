"""Threads of a TBVM process.

Each thread has its own registers, program counter, stack segment, and a
64-slot thread-local-storage array — the analog of the Windows TIB that
TraceBack's probes address through the FS segment register.  TraceBack
reserves TLS slot 60 for the per-thread trace-buffer pointer and slot 61
as the probe-register spill slot.

Threads also carry a *shadow call stack* of :class:`Frame` records.  The
guest's real stack holds return addresses (pushed by ``CALL``), but the
VM additionally tracks frames so the exception unwinder can walk
activation records the way a real SEH / signal-frame walker does.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.vm.memory import Segment

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.vm.machine import Process

#: Number of TLS slots per thread (Windows guarantees 64 fast slots).
TLS_SLOTS = 64

#: TLS slot holding the trace-buffer pointer (the paper's FS:0xF00).
TLS_TRACE_PTR = 60

#: TLS slot probes spill the probe register into when it is live.
TLS_PROBE_SPILL = 61

#: Sentinel return address: a RET to this ends the thread normally.
TRAMPOLINE_RA = 0x7FFFFFF0

#: Sentinel return address marking the return from a signal handler.
SIGRET_RA = 0x7FFFFFF1


class ThreadState(enum.Enum):
    """Lifecycle of a thread."""

    READY = "ready"
    BLOCKED = "blocked"
    DONE = "done"
    KILLED = "killed"  # torn down by SIGKILL; no exit hooks ran


@dataclass
class Frame:
    """One shadow activation record.

    ``entry_sp`` is the stack pointer at function entry (just after the
    return address was pushed); the unwinder restores
    ``entry_sp - frame_size`` when dispatching to a handler in this
    frame.
    """

    entry_pc: int
    return_pc: int
    entry_sp: int


class Thread:
    """One guest thread."""

    def __init__(
        self,
        tid: int,
        process: "Process",
        entry_pc: int,
        stack: Segment,
        arg: int = 0,
        name: str | None = None,
    ):
        self.tid = tid
        self.process = process
        self.name = name or f"thread-{tid}"
        self.regs = [0] * 16
        self.pc = entry_pc
        self.entry_pc = entry_pc
        self.tls = [0] * TLS_SLOTS
        self.stack = stack
        self.state = ThreadState.READY
        self.frames: list[Frame] = []
        self.exit_code: int | None = None
        self.started = False
        self.instructions = 0
        self.wake_cycle: int | None = None
        self.block_reason: str | None = None
        #: The outgoing RPC this thread is blocked on, if any.
        self.rpc_waiting: object | None = None
        #: True for the process's initial ("main") thread: its return
        #: from the entry function exits the whole process.
        self.is_initial = False
        #: The incoming RPC this (service) thread was spawned to serve.
        #: Distinct from ``rpc_waiting``: a service thread may itself
        #: issue RPCs (nested call chains, §5.1).
        self.rpc_serving: object | None = None
        #: pc to resume at after a signal handler returns via SIGRET_RA.
        self.interrupted_pc: int | None = None
        #: True while the thread is executing inside the TraceBack
        #: runtime (exceptions it causes there are suppressed, §3.7).
        self.in_runtime = False
        #: Last module this thread executed in — seeds the slice loops'
        #: module lookup so consecutive slices skip ``find_code``.
        #: Purely an optimization: stale values are caught by the pc
        #: range / ``unloaded`` checks.
        self.code_hint = None
        #: This thread's saved memory hit-cache entries, kept while
        #: another thread runs (see ``Memory.switch_caches``).
        self.hit_caches: tuple | None = None

        # Initial stack: sp at the top of the stack segment; entry arg
        # in r0; returning from the entry function ends the thread.
        sp = stack.end
        sp -= 1
        stack.words[sp - stack.base] = TRAMPOLINE_RA
        self.regs[12] = sp
        self.regs[0] = arg
        self.frames.append(Frame(entry_pc=entry_pc, return_pc=TRAMPOLINE_RA, entry_sp=sp))

    # ------------------------------------------------------------------
    @property
    def sp(self) -> int:
        """Current stack pointer."""
        return self.regs[12]

    @sp.setter
    def sp(self, value: int) -> None:
        self.regs[12] = value & 0xFFFFFFFF

    def runnable(self) -> bool:
        """Whether the scheduler may pick this thread."""
        return self.state is ThreadState.READY

    def alive(self) -> bool:
        """Whether the thread has not terminated."""
        return self.state in (ThreadState.READY, ThreadState.BLOCKED)

    # Every state change bumps the machine's scheduling epoch, so the
    # scheduler's cached thread lists are rebuilt before the next slice.
    def block(self, reason: str, wake_cycle: int | None = None) -> None:
        """Move to BLOCKED, optionally with a timed wake-up."""
        self.state = ThreadState.BLOCKED
        self.block_reason = reason
        self.wake_cycle = wake_cycle
        self.process.machine.sched_epoch += 1

    def unblock(self) -> None:
        """Return a blocked thread to the ready queue."""
        if self.state is ThreadState.BLOCKED:
            self.state = ThreadState.READY
            self.block_reason = None
            self.wake_cycle = None
            self.process.machine.sched_epoch += 1

    def finish(self, code: int) -> None:
        """Normal thread termination."""
        self.state = ThreadState.DONE
        self.exit_code = code
        self.process.machine.sched_epoch += 1

    def kill(self) -> None:
        """Abrupt termination: no cleanup, no hooks (SIGKILL semantics)."""
        self.state = ThreadState.KILLED
        self.process.machine.sched_epoch += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Thread {self.tid} {self.name!r} pc={self.pc} "
            f"state={self.state.value}>"
        )
