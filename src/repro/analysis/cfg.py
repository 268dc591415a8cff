"""Control-flow graph recovery from TBVM binary code.

TraceBack "separates code from data" and "lifts code and data to an
abstract graph representation" before instrumenting (§2).  For TBVM the
separation is structural (sections), but CFG recovery is real work:
leaders come from branch targets, call return points, exception handler
entries, and *indirect* branch targets recovered from jump-table
relocations — the conservative set of places control can enter.

Blocks are intervals of code offsets relative to the module.  Each block
knows its successors and the kind of its terminator; the DAG tiling pass
(:mod:`repro.instrument.tiling`) consumes exactly this structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.encoding import decode
from repro.isa.instructions import (
    CALLS,
    CONDITIONAL_BRANCHES,
    UNCONDITIONAL_TRANSFERS,
    Instr,
    Op,
)
from repro.isa.module import FuncInfo, Module


@dataclass
class BasicBlock:
    """One basic block: code offsets ``[start, end)`` of its module."""

    start: int
    end: int
    instrs: list[Instr]
    #: Successor block start offsets, in (taken..., fallthrough) order.
    succs: list[int] = field(default_factory=list)
    #: Block starts that can branch here (filled by CFG construction).
    preds: list[int] = field(default_factory=list)
    #: True when the terminator is a call: the sole successor is the
    #: return point, which TraceBack forces to start a new DAG (§2.2).
    ends_with_call: bool = False
    #: True when the terminator is a syscall: the successor starts a new
    #: DAG so runtime event records can follow the completed record.
    ends_with_syscall: bool = False
    #: True when the terminator is an indirect multiway branch (JTAB/JMP):
    #: all targets are forced to DAG headers (§2.1).
    ends_with_multiway: bool = False

    @property
    def terminator(self) -> Instr:
        """The last instruction of the block."""
        return self.instrs[-1]

    def __len__(self) -> int:
        return self.end - self.start


@dataclass
class CFG:
    """Control-flow graph of one function."""

    module: Module
    func: FuncInfo
    blocks: dict[int, BasicBlock]
    #: External entry points: function entry, handler entries, indirect
    #: branch targets.  Every one must carry a heavyweight probe.
    entries: list[int]

    def block_order(self) -> list[int]:
        """Block starts in ascending code order."""
        return sorted(self.blocks)

    def reverse_postorder(self) -> list[int]:
        """Blocks in reverse postorder from all entries (forward
        dataflow order; unreachable blocks appended at the end)."""
        seen: set[int] = set()
        post: list[int] = []

        def visit(start: int) -> None:
            stack = [(start, iter(self.blocks[start].succs))]
            seen.add(start)
            while stack:
                node, it = stack[-1]
                advanced = False
                for succ in it:
                    if succ not in seen:
                        seen.add(succ)
                        stack.append((succ, iter(self.blocks[succ].succs)))
                        advanced = True
                        break
                if not advanced:
                    post.append(node)
                    stack.pop()

        for entry in self.entries:
            if entry not in seen:
                visit(entry)
        for start in self.block_order():
            if start not in seen:
                visit(start)
        return list(reversed(post))


def indirect_targets(module: Module) -> set[int]:
    """Code offsets reachable through pointers: jump-table entries and
    any code symbol whose address is materialized into data.

    This is the conservative recovery a binary instrumenter must do:
    every address that escapes into data may come back as a JTAB or
    CALLR target, so it must be treated as an entry point.
    """
    targets: set[int] = set()
    for reloc in module.relocs:
        if reloc.symbol in module.symbols:
            section, offset = module.symbols[reloc.symbol]
            if section == "code":
                targets.add(offset)
    return targets


def build_cfg(module: Module, func: FuncInfo, split_at_lines: bool = False) -> CFG:
    """Recover the CFG of ``func`` within ``module``.

    ``split_at_lines`` additionally makes every source-line boundary a
    block leader — the IL-mode (Java/MSIL analog) refinement of §2.4
    that buys exact exception line numbers at the cost of more probes.
    """
    instrs = [decode(module.code[i]) for i in range(func.start, func.end)]

    def instr_at(offset: int) -> Instr:
        return instrs[offset - func.start]

    pointer_targets = {
        t for t in indirect_targets(module) if func.start <= t < func.end
    }
    handler_entries = [h.handler for h in func.handlers
                       if func.start <= h.handler < func.end]

    # --- Pass 1: leaders. ---
    leaders: set[int] = {func.start}
    leaders.update(pointer_targets)
    leaders.update(handler_entries)
    if split_at_lines:
        leaders.update(
            entry.start
            for entry in module.lines
            if func.start <= entry.start < func.end
        )
    for offset in range(func.start, func.end):
        instr = instr_at(offset)
        if instr.op in CONDITIONAL_BRANCHES or instr.op is Op.BR:
            target = offset + 1 + instr.imm
            if func.start <= target < func.end:
                leaders.add(target)
        if instr.ends_block() and offset + 1 < func.end:
            leaders.add(offset + 1)

    # --- Pass 2: blocks. ---
    starts = sorted(leaders)
    blocks: dict[int, BasicBlock] = {}
    for idx, start in enumerate(starts):
        end = starts[idx + 1] if idx + 1 < len(starts) else func.end
        blocks[start] = BasicBlock(
            start=start, end=end, instrs=[instr_at(i) for i in range(start, end)]
        )

    # --- Pass 3: edges. ---
    for block in blocks.values():
        term = block.terminator
        op = term.op
        term_offset = block.end - 1
        if op in CONDITIONAL_BRANCHES:
            taken = term_offset + 1 + term.imm
            if taken in blocks:
                block.succs.append(taken)
            if block.end in blocks:
                block.succs.append(block.end)
        elif op is Op.BR:
            target = term_offset + 1 + term.imm
            if target in blocks:
                block.succs.append(target)
        elif op in CALLS:
            block.ends_with_call = True
            if block.end in blocks:
                block.succs.append(block.end)
        elif op in (Op.JMP, Op.JTAB):
            block.ends_with_multiway = True
            block.succs.extend(sorted(pointer_targets))
        elif op in UNCONDITIONAL_TRANSFERS:
            pass  # RET / HALT / THROW: no intra-function successor
        else:
            if op is Op.SYS:
                block.ends_with_syscall = True
            # The block ends because the next offset is a leader.
            if block.end in blocks:
                block.succs.append(block.end)

    for block in blocks.values():
        for succ in block.succs:
            blocks[succ].preds.append(block.start)

    entries = [func.start]
    entries.extend(sorted((set(handler_entries) | pointer_targets) - {func.start}))
    # Call return points are also DAG entries, but they are *internal*
    # to the function; tiling handles them via ends_with_call.
    return CFG(module=module, func=func, blocks=blocks, entries=entries)


def build_all_cfgs(module: Module) -> dict[str, CFG]:
    """CFGs for every function in the module, keyed by function name."""
    return {func.name: build_cfg(module, func) for func in module.funcs}
