"""Syscall numbers and kernel-time costs for TBVM.

Syscalls take arguments in ``r0``..``r5`` and return a result in ``r0``.
Each has a *cost* in machine cycles, charged when it executes — this is
how the simulation models the paper's observation that "real
applications have more system calls, more disk accesses ... all of these
factors reduce the impact of instrumentation on performance": cycles
spent in the kernel or blocked on I/O dilute the relative cost of probe
instructions.
"""

from __future__ import annotations


class Sys:
    """Syscall numbers (the ``imm16`` of the ``SYS`` instruction)."""

    PRINT_INT = 1  # print r0 as a decimal integer
    PRINT_STR = 2  # print NUL-terminated string at address r0
    PUTC = 3  # print the character code in r0
    EXIT_THREAD = 4  # end this thread with code r0
    EXIT_PROCESS = 5  # end the process with code r0
    SBRK = 6  # allocate r0 words of heap; returns base address
    CLOCK = 7  # returns the machine real-time clock (RDTSC analog)
    SLEEP = 8  # block for r0 cycles; r0 < 0 raises ILLEGAL_ARGUMENT
    IO_READ = 9  # simulated input of r0 units; blocks for I/O latency
    IO_WRITE = 10  # simulated output of r0 units; blocks for I/O latency
    THREAD_CREATE = 11  # start thread at address r0 with argument r1
    LOCK = 12  # acquire mutex r0 (blocking)
    UNLOCK = 13  # release mutex r0
    RPC_CALL = 14  # r0=service, r1=arg addr, r2=arg len, r3=ret addr,
    #                r4=ret capacity; returns 0 or an exception code
    YIELD = 15  # no-op costing its 3 cycles; the slice does not end
    RAND = 16  # deterministic per-process PRNG; returns 31-bit value
    GETTID = 17  # returns this thread's id
    SIGNAL = 18  # register handler address r1 for signal r0
    SNAP = 19  # TraceBack snap API (paper §3.6): request a snap, r0=reason
    ARG = 20  # returns the thread start argument


#: Kernel cycles charged per syscall (on top of any blocking latency).
COSTS: dict[int, int] = {
    Sys.PRINT_INT: 10,
    Sys.PRINT_STR: 20,
    Sys.PUTC: 5,
    Sys.EXIT_THREAD: 20,
    Sys.EXIT_PROCESS: 50,
    Sys.SBRK: 50,
    Sys.CLOCK: 5,
    Sys.SLEEP: 10,
    Sys.IO_READ: 60,
    Sys.IO_WRITE: 60,
    Sys.THREAD_CREATE: 200,
    Sys.LOCK: 12,
    Sys.UNLOCK: 10,
    Sys.RPC_CALL: 150,
    Sys.YIELD: 3,
    Sys.RAND: 6,
    Sys.GETTID: 3,
    Sys.SIGNAL: 15,
    Sys.SNAP: 300,
    Sys.ARG: 2,
}

#: Default cost for syscalls missing from COSTS.
DEFAULT_COST = 20
