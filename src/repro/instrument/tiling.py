"""DAG tiling: heavyweight-probe placement and path-bit assignment (§2.1).

The heavyweight probes tile each function's control-flow graph into
directed acyclic subgraphs (DAGs), each headed by one heavyweight probe;
lightweight probes inside a DAG set per-block bits in the current trace
record.  Headers are *forced* at:

* every external entry point: function entry, exception handler entries,
  and indirect-branch targets (§2.1, §2.4);
* every target of a retreating edge, so each cycle contains a header;
* every call return point (§2.2) — calls end DAGs;
* any block whose predecessors span multiple DAGs, or whose DAG ran out
  of path bits (the run-length limit).

Bit assignment implements the paper's "blocks that end in unconditional
branches do not require lightweight probes" optimization in its sound
form: a member block needs no bit when it is the *unique successor of
its unique in-DAG predecessor* — its execution is implied, and
:func:`decode_path` reconstitutes it.  Every other member gets a
distinct bit; the 11-bit budget bounds DAG size.

``decode_path`` is the inverse used at reconstruction: the executed
blocks of a record are the header, the bit-set blocks, and the implied
closure — emitted in topological order, which for a path through a DAG
*is* execution order.  The round-trip invariant (any feasible path
encodes and decodes to itself) is property-tested in
``tests/instrument/test_tiling_properties.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.cfg import CFG
from repro.analysis.dominators import loop_headers
from repro.runtime.records import PATH_BITS


@dataclass
class DagPlan:
    """One DAG: a header block plus bit-carrying / implied members.

    ``members`` maps block start -> bit index, ``None`` for implied
    (elided-probe) members, and is ordered topologically (insertion
    order follows reverse postorder).  The header block itself is the
    first member and has no bit.
    """

    index: int
    entry: int
    members: dict[int, int | None] = field(default_factory=dict)
    bits_used: int = 0

    def add_member(self, block: int, bit: int | None) -> None:
        """Append a member (tiling-internal)."""
        self.members[block] = bit
        if bit is not None:
            self.bits_used = max(self.bits_used, bit + 1)


@dataclass
class TilingPlan:
    """Tiling of one function: DAGs plus the per-block probe decisions."""

    func_name: str
    dags: list[DagPlan]
    #: block start -> ("header", dag_index) | ("light", dag_index, bit)
    #: | ("none", dag_index)  (implied member, no probe at all)
    block_probe: dict[int, tuple]
    #: block start -> its DagPlan index
    dag_of: dict[int, int]


def required_headers(cfg: CFG) -> set[int]:
    """Block starts that must carry heavyweight probes."""
    headers: set[int] = set(cfg.entries)
    headers |= loop_headers(cfg)
    for block in cfg.blocks.values():
        if block.ends_with_call and block.end in cfg.blocks:
            headers.add(block.end)  # call return point (§2.2)
        if block.ends_with_syscall and block.end in cfg.blocks:
            headers.add(block.end)  # runtime may append records here (§3.5)
        if block.ends_with_multiway:
            headers.update(block.succs)  # multiway targets end traces
    return headers


def tile(cfg: CFG, path_bits: int = PATH_BITS, elide_implied: bool = True) -> TilingPlan:
    """Tile ``cfg`` into DAGs.

    Processes blocks in reverse postorder, so every forward predecessor
    is placed before its successors; retreating edges always target
    forced headers, so DAG membership never creates a cycle.

    ``elide_implied`` enables the paper's "blocks that end in
    unconditional branches do not require lightweight probes"
    optimization.  IL mode turns it off: line-boundary blocks must carry
    real probes so exception reporting can select the exact source line
    without a usable fault address (§2.4).
    """
    headers = required_headers(cfg)
    dags: list[DagPlan] = []
    dag_of: dict[int, int] = {}
    block_probe: dict[int, tuple] = {}

    def new_dag(entry: int) -> DagPlan:
        dag = DagPlan(index=len(dags), entry=entry)
        dag.add_member(entry, None)
        dags.append(dag)
        dag_of[entry] = dag.index
        block_probe[entry] = ("header", dag.index)
        return dag

    for start in cfg.reverse_postorder():
        block = cfg.blocks[start]
        if start in dag_of:
            continue  # already placed (headers are placed on sight)
        preds = block.preds
        if start in headers or not preds:
            new_dag(start)
            continue
        pred_dags = {dag_of.get(p) for p in preds}
        if len(pred_dags) != 1 or None in pred_dags:
            # Predecessors span DAGs (or include an unplaced block):
            # promote to a header.
            new_dag(start)
            continue
        dag = dags[pred_dags.pop()]
        sole_pred = cfg.blocks[preds[0]] if len(preds) == 1 else None
        implied = (
            elide_implied
            and sole_pred is not None
            and len(sole_pred.succs) == 1
        )
        if implied:
            dag.add_member(start, None)
            dag_of[start] = dag.index
            block_probe[start] = ("none", dag.index)
        elif dag.bits_used < path_bits:
            bit = dag.bits_used
            dag.add_member(start, bit)
            dag_of[start] = dag.index
            block_probe[start] = ("light", dag.index, bit)
        else:
            new_dag(start)  # path-bit budget exhausted: start a new run

    return TilingPlan(
        func_name=cfg.func.name, dags=dags, block_probe=block_probe, dag_of=dag_of
    )


# ----------------------------------------------------------------------
# Path encoding/decoding over a tiled DAG
# ----------------------------------------------------------------------
def encode_path(dag: DagPlan, path: list[int]) -> int:
    """The path-bit word a run through ``dag`` produces.

    ``path`` must start at the DAG entry; used by tests and by the
    trace-synthesis utilities.
    """
    if not path or path[0] != dag.entry:
        raise ValueError("path must start at the DAG entry")
    bits = 0
    for block in path[1:]:
        bit = dag.members.get(block)
        if bit is not None:
            bits |= 1 << bit
    return bits


def decode_path(
    dag: DagPlan, path_bits: int, succs: dict[int, list[int]]
) -> list[int]:
    """Reconstruct the executed block sequence from a DAG record.

    ``succs`` maps member block -> in-DAG successors.  The executed set
    is the entry, the blocks whose bits are set, and the implied closure
    (a bitless member executed iff its unique in-DAG predecessor did);
    emitted in topological (= member insertion) order.
    """
    member_order = list(dag.members)
    in_dag = set(member_order)
    preds: dict[int, list[int]] = {m: [] for m in member_order}
    for block, targets in succs.items():
        for target in targets:
            if target in in_dag and block in in_dag:
                preds[target].append(block)

    executed = {dag.entry}
    for block in member_order[1:]:
        bit = dag.members[block]
        if bit is not None:
            if path_bits & (1 << bit):
                executed.add(block)
        else:
            # Implied member: executes iff its unique predecessor did.
            block_preds = preds[block]
            if len(block_preds) == 1 and block_preds[0] in executed:
                executed.add(block)
    return [block for block in member_order if block in executed]


def feasible_paths(
    dag: DagPlan, succs: dict[int, list[int]], limit: int = 2000
) -> list[list[int]]:
    """Enumerate paths through ``dag`` from its entry (test helper).

    A path ends when it reaches a block with no in-DAG successors, and
    every proper prefix is also a legal partial execution (exceptions
    can cut a run anywhere), but for round-trip testing the maximal
    paths suffice.
    """
    in_dag = set(dag.members)
    paths: list[list[int]] = []
    stack: list[list[int]] = [[dag.entry]]
    while stack and len(paths) < limit:
        path = stack.pop()
        nexts = [s for s in succs.get(path[-1], []) if s in in_dag]
        if not nexts:
            paths.append(path)
            continue
        for nxt in nexts:
            stack.append(path + [nxt])
    return paths
