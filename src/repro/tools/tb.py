"""``tbtrace`` — the TraceBack command line.

Usage::

    python -m repro.tools.tb run app.c              # trace a MiniC program
    python -m repro.tools.tb run app.c --mode il --tree
    python -m repro.tools.tb run app.c --save-snap crash.json \\
                                       --save-mapfile app.map.json
    python -m repro.tools.tb view crash.json app.map.json
    python -m repro.tools.tb tile app.c             # show CFGs + DAG tiling
    python -m repro.tools.tb disasm app.c --instrument

The ``run``/``view`` split mirrors production use: instrumented programs
run and snap in one place; mapfiles + snap files travel to wherever the
engineer reconstructs them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from repro.analysis import build_all_cfgs
from repro.api import TraceSession
from repro.instrument import (
    InstrumentConfig,
    Mapfile,
    instrument_module,
    tile,
)
from repro.isa import disassemble
from repro.lang.minic import compile_source, compile_to_asm
from repro.reconstruct import (
    Reconstructor,
    RecoveryError,
    render_degradation,
    render_distributed,
    render_flat,
    render_tree,
    select_view,
)
from repro.runtime import (
    ArchiveError,
    RuntimeConfig,
    SnapFile,
    SnapPolicy,
    salvage_decompress,
)
from repro.runtime.archive import load_compressed


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _fail(message: str) -> int:
    """One-line diagnosis on stderr, nonzero exit — never a traceback."""
    print(f"tbtrace: error: {message}", file=sys.stderr)
    return 1


def _load_snap(path: str, salvage: bool = False) -> tuple[SnapFile, list[str]]:
    """Read a snap artifact — JSON or a TBSZ2 compressed container.

    Returns ``(snap, notes)``; raises ``ArchiveError`` / ``ValueError``
    / ``OSError`` with a human message on damage in strict mode.  Under
    ``salvage`` either kind loads tolerantly, damage becoming notes.
    """
    with open(path, "rb") as fh:
        head = fh.read(8)
    if head.startswith(b"TBSZ"):
        if not salvage:
            return load_compressed(path), []
        with open(path, "rb") as fh:
            snap, notes = salvage_decompress(fh.read())
        if snap is None:
            raise ArchiveError(
                "; ".join(notes) or "container unrecoverable"
            )
        return snap, notes
    if salvage:
        with open(path) as fh:
            return SnapFile.from_dict_salvage(json.load(fh))
    return SnapFile.load(path), []


def cmd_run(args: argparse.Namespace) -> int:
    source = _read(args.source)
    policy = (
        SnapPolicy.load(args.policy) if args.policy else SnapPolicy()
    )
    session = TraceSession(
        process_name=args.name,
        runtime_config=RuntimeConfig(policy=policy),
        instrument_config=InstrumentConfig(mode=args.mode),
    )
    session.add_minic(source, name=args.name, file_name=args.source)
    run = session.run(max_cycles=args.max_cycles)

    print(f"status: {run.status}; process {run.process.exit_state}")
    if run.output:
        print("output:", " ".join(run.output))
    if run.snap is not None:
        print(f"snap: {run.snap.reason} {run.snap.detail}")
        print()
        trace = run.trace()
        if args.tree and trace.threads:
            print(render_tree(trace.threads[-1]))
        else:
            print(select_view(trace))
        if args.save_snap:
            run.snap.save(args.save_snap)
            print(f"\nsnap written to {args.save_snap}")
    else:
        print("no snap was taken (clean run; use --policy to snap more)")
    if args.save_mapfile:
        run.mapfiles[0].save(args.save_mapfile)
        print(f"mapfile written to {args.save_mapfile}")
    return 0 if run.process.exit_state == "exited" else 1


def cmd_view(args: argparse.Namespace) -> int:
    try:
        snap, load_notes = _load_snap(args.snap, salvage=args.salvage)
    except (RecoveryError, ArchiveError, ValueError, OSError) as exc:
        return _fail(f"cannot load snap {args.snap}: {exc}")
    try:
        mapfiles = [Mapfile.load(path) for path in args.mapfiles]
    except (ValueError, KeyError, OSError) as exc:
        return _fail(f"cannot load mapfiles: {exc}")
    try:
        trace = Reconstructor(mapfiles).reconstruct(
            snap, strict=not args.salvage
        )
    except (RecoveryError, ValueError) as exc:
        return _fail(
            f"reconstruction failed: {exc} (re-run with --salvage to "
            "recover what survives)"
        )
    print(f"snap: {snap.reason} in {snap.process_name} on {snap.machine_name}")
    for note in load_notes:
        print(f"note: {note}")
    for note in trace.notes:
        print(f"note: {note}")
    if args.salvage:
        from repro.reconstruct.model import DegradationSummary

        # Load losses are losses too, as an incident's archive notes are.
        lost = [r.summary() for r in trace.salvage if r.loss is not None]
        summary = DegradationSummary(losses=load_notes + lost)
        print(render_degradation(summary))
    if args.flat:
        for thread in trace.threads:
            print()
            print(render_flat(thread))
    else:
        print()
        print(select_view(trace))
    return 0


def cmd_info(args: argparse.Namespace) -> int:
    """``tbtrace info <archive>``: structural report, no reconstruction."""
    from repro.runtime.archive import inspect_container

    try:
        with open(args.archive, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        return _fail(f"cannot read {args.archive}: {exc}")
    info = inspect_container(data)
    if info["version"] is None:
        return _fail(
            f"{args.archive}: {'; '.join(info['problems']) or 'not a container'}"
        )
    print(f"archive: {args.archive}")
    print(f"  container: TBSZ{info['version']}, {info['size']} bytes")
    if info["length_ok"] is not None:
        print(f"  length check: {'ok' if info['length_ok'] else 'FAILED'}")
    crc = info["crc_ok"]
    crc_text = "ok" if crc else "unchecked" if crc is None else "FAILED"
    print(f"  blobs: {len(info['blobs'])}, CRC {crc_text}")
    for blob in info["blobs"]:
        print(
            f"    buffer {blob['index']}: {blob['present']}/{blob['bytes']} "
            f"bytes, crc {blob['crc']}"
        )
    meta = info["meta"]
    if meta is not None:
        print(
            f"  snap: {meta['reason']} in {meta['process_name']} "
            f"on {meta['machine_name']} at clock {meta['clock']}"
        )
        print(
            f"  contents: {meta['modules']} module(s), "
            f"{meta['threads']} thread(s), {meta['buffers']} buffer(s)"
        )
        if meta.get("ndlog_format"):
            print(
                f"  replayable: {meta['replayable']} "
                f"({meta['ndlog_format']})"
            )
        else:
            print(f"  replayable: {meta['replayable']}")
    for problem in info["problems"]:
        print(f"  problem: {problem}")
    return 0 if not info["problems"] else 1


class CommandError(Exception):
    """A one-line diagnosis: :func:`main` prints it and exits 1."""


def _open_vaults(roots: list[str]) -> list:
    """Open existing vaults.  Only ``collect`` creates one: any other
    command names every root that is not an existing directory."""
    from repro.fleet import SnapVault

    missing = [root for root in roots if not os.path.isdir(root)]
    if missing:
        raise CommandError(
            f"no vault at {', '.join(missing)} (not an existing directory)"
        )
    vaults = []
    for root in roots:
        try:
            vaults.append(SnapVault(root))
        except (OSError, ValueError) as exc:
            raise CommandError(f"cannot open vault {root}: {exc}") from exc
    return vaults


def _federation(args: argparse.Namespace):
    """One :class:`~repro.fleet.FederatedQuery` over every ``--vault``
    root, each queried in place or, with ``--remote``, served over the
    simulated wire (the full protocol, just without a socket under it).
    One root is a federation of one, whose answers are the vault's own.
    """
    from repro.distributed.network import Network
    from repro.fleet import FederatedQuery, RemoteVaultClient, VaultQuery
    from repro.fleet.remote import DEFAULT_DEADLINE, VaultService

    if args.timeout is not None and not args.remote:
        raise CommandError("--timeout only applies with --remote")
    network = Network()
    sources: dict = {}
    for root, vault in zip(args.vault, _open_vaults(args.vault)):
        if not args.remote:
            sources[root] = VaultQuery(vault)
            continue
        network.register_vault_service(VaultService(vault, name=root))
        sources[root] = RemoteVaultClient(
            network, service=root, deadline=args.timeout or DEFAULT_DEADLINE
        )
    return FederatedQuery(sources)


def _ask(federation, op: str, **args):
    """One federated query -> ``(items, report)``; an answer no vault
    served is an error, not an empty listing."""
    from repro.fleet.federation import COVERAGE_DEGRADED

    items, report = getattr(federation, op)(**args)
    if report.coverage == COVERAGE_DEGRADED:
        raise CommandError(
            "no vault answered: "
            + "; ".join(status.describe() for status in report.vaults)
        )
    return items, report


def _print_coverage(federation, report, as_json: bool) -> None:
    """Per-vault coverage after the answer — unless one vault answered
    in full, when the answer is simply that vault's."""
    from repro.fleet.federation import COVERAGE_FULL

    if len(federation.sources) == 1 and report.coverage == COVERAGE_FULL:
        return
    if as_json:
        print(json.dumps({"federation": report.to_dict()}, sort_keys=True))
    else:
        print("\n".join(report.describe()))


def _resolve(federation, prefix: str):
    """The one stored snap whose digest starts with ``prefix``."""
    entries, _report = _ask(federation, "select")
    matches = [e for e in entries if e.digest.startswith(prefix)]
    if not matches:
        raise CommandError(f"no stored snap matches digest {prefix!r}")
    if len(matches) > 1:
        raise CommandError(f"digest prefix {prefix!r} is ambiguous")
    return matches[0]


def cmd_collect(args: argparse.Namespace) -> int:
    """``tbtrace collect``: run the three-machine incident demo into a
    vault — crash, group fan-out, uploads (optionally chaos-dropped),
    and a mid-run machine kill that the vault makes survivable."""
    import random as random_mod

    from repro.chaos.scenarios import build_vault_run

    rng = random_mod.Random(args.seed)
    upload_chaos = None
    if args.drop_rate > 0:

        def upload_chaos(machine, snap, attempt):
            return "drop" if rng.random() < args.drop_rate else None

    vault, collector, session = build_vault_run(
        vault_root=args.vault,
        upload_chaos=upload_chaos,
        collector_options={
            "batch_size": args.batch_size,
            "queue_limit": args.queue_limit,
            "seed": args.seed,
        },
    )
    uploaded = len(vault)
    if args.kill_machine:
        killed = False
        for machine in session.network.machines:
            if machine.name == args.kill_machine:
                for process in machine.processes:
                    process.kill()
                killed = True
        if not killed:
            return _fail(f"no machine named {args.kill_machine!r} in the run")
        print(
            f"killed {args.kill_machine} mid-run "
            f"({uploaded} snap(s) already uploaded)"
        )
    session.network.run()
    collector.drain()
    print(f"vault {vault.root}: {len(vault)} snap(s) stored")
    for entry in vault.select():
        print(
            f"  {entry.digest[:12]}  seq {entry.seq}  {entry.machine}/"
            f"{entry.process}  {entry.reason}  clock {entry.clock}"
        )
    if collector.dead:
        print(f"  {len(collector.dead)} upload(s) dead-lettered")
    print()
    print(vault.metrics.render())
    return 0


def cmd_query(args: argparse.Namespace) -> int:
    """``tbtrace query``: filter the vaults; --show reconstructs one."""
    from repro.fleet.remote import RemoteQueryError

    federation = _federation(args)
    if args.show:
        entry = _resolve(federation, args.show)
        try:
            trace, notes = federation.reconstruct_entry(
                entry, salvage=args.salvage
            )
        except (RemoteQueryError, ValueError, OSError) as exc:
            return _fail(
                f"reconstruction failed: {exc} (re-run with --salvage "
                "to recover what survives)"
            )
        print(
            f"snap: {entry.reason} in {entry.process} on {entry.machine} "
            f"(digest {entry.digest})"
        )
        for note in notes + trace.notes:
            print(f"note: {note}")
        print()
        print(select_view(trace))
        return 0
    entries, report = _ask(
        federation,
        "select",
        machine=args.machine,
        process=args.process,
        reason=args.reason,
        since=args.since,
        until=args.until,
        group=args.group,
    )
    if args.json:
        for entry in entries:
            print(json.dumps(entry.to_dict(), sort_keys=True))
    else:
        print(f"{len(entries)} snap(s) match")
        for entry in entries:
            tags = []
            if entry.group:
                tags.append(f"group={entry.group} initiator={entry.initiator}")
            if entry.sync_ids:
                tags.append(f"{len(entry.sync_ids)} sync id(s)")
            print(
                f"  {entry.digest[:12]}  seq {entry.seq}  {entry.machine}/"
                f"{entry.process}  {entry.reason}  clock {entry.clock}  "
                f"{entry.size}B  {' '.join(tags)}"
            )
    _print_coverage(federation, report, args.json)
    return 0


def cmd_incidents(args: argparse.Namespace) -> int:
    """``tbtrace incidents``: group the vaults' snaps and reconstruct."""
    from repro.fleet.remote import RemoteQueryError

    federation = _federation(args)
    window = {} if args.window is None else {"window": args.window}
    try:
        incidents, report = _ask(federation, "incidents", **window)
    except ValueError as exc:  # a negative window, or one over several vaults
        raise CommandError(f"--{exc}") from None
    if args.json:
        for incident in incidents:
            print(json.dumps(incident.to_dict(), sort_keys=True))
        _print_coverage(federation, report, as_json=True)
        return 0
    print(f"{len(incidents)} incident(s) in {', '.join(federation.sources)}")
    for incident in incidents:
        print(incident.describe())
        for entry in incident.entries:
            print(
                f"    {entry.digest[:12]}  {entry.machine}/{entry.process}  "
                f"{entry.reason}"
            )
        if args.list:
            continue
        try:
            trace = federation.reconstruct_incident(
                incident, salvage=not args.strict
            )
        except (RemoteQueryError, ValueError, OSError) as exc:
            print(f"    reconstruction failed: {exc}")
            continue
        print(render_distributed(trace))
    _print_coverage(federation, report, as_json=False)
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """``tbtrace top``: ranked crash buckets — the fleet's top crashers."""
    federation = _federation(args)
    buckets, report = _ask(federation, "top", limit=args.limit)
    if args.json:
        for bucket in buckets:
            print(json.dumps(bucket.to_dict(), sort_keys=True))
        _print_coverage(federation, report, as_json=True)
        return 0
    entries, _report = _ask(federation, "select")
    bucketed = sum(1 for e in entries if e.sig is not None)
    print(
        f"{len(buckets)} crash bucket(s) in {', '.join(federation.sources)} "
        f"({bucketed}/{len(entries)} snap(s) bucketed)"
    )
    for rank, bucket in enumerate(buckets, start=1):
        print(f"  #{rank} {bucket.describe()}")
    _print_coverage(federation, report, as_json=False)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``tbtrace serve``: host a vault behind the query protocol.

    The network is simulated, so "serving" registers the vault's
    :class:`~repro.fleet.remote.VaultService` and proves the wire works
    end to end: a client performs the full hello / select / paginate
    exchange through CRC-checked frames and the summary is printed.
    """
    from repro.distributed.network import Network
    from repro.fleet.remote import (
        PROTOCOL,
        RemoteQueryError,
        RemoteVaultClient,
        VaultService,
    )

    (vault,) = _open_vaults([args.vault])
    network = Network()
    server = VaultService(vault, name=args.name, page_limit=args.page_limit)
    network.register_vault_service(server)
    client = RemoteVaultClient(network, service=args.name)
    try:
        hello = client.hello()
        entries = client.select()
    except RemoteQueryError as exc:
        return _fail(f"protocol self-check failed: {exc}")
    print(f"serving vault {vault.root} as service {args.name!r} ({PROTOCOL})")
    print(
        f"  {hello.get('snaps', 0)} snap(s) from machines: "
        f"{', '.join(hello.get('machines', [])) or 'none'}"
    )
    print(f"  page limit {hello.get('page_limit')}")
    pages = -(-len(entries) // server.page_limit) if entries else 0
    print(
        f"  self-check: {server.requests_served} request(s) served, "
        f"{len(entries)} entr(ies) over {pages} page(s), frames CRC-clean"
    )
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``tbtrace report``: the full triage report (text/JSON/HTML)."""
    from repro.fleet import VaultQuery
    from repro.fleet.triage import (
        build_report,
        render_report_html,
        render_report_text,
    )

    (vault,) = _open_vaults([args.vault])
    report = build_report(
        VaultQuery(vault),
        limit=args.limit,
        exemplar_lines=args.exemplar_lines,
        verify=args.verify,
    )
    if args.html:
        html_text = render_report_html(report)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(html_text)
            print(f"report written to {args.out}")
        else:
            print(html_text, end="")
        return 0
    if args.json:
        text = json.dumps(report, indent=2, sort_keys=True)
    else:
        text = "\n".join(render_report_text(report))
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


def _replay_frame_line(frame: dict) -> str:
    where = f"pc {frame['pc']:#x}"
    if "func" in frame:
        where += f"  {frame.get('module', '?')}.{frame['func']}"
    if "file" in frame:
        where += f" ({frame['file']}:{frame['line']})"
    return where


def _replay_print_stop(engine, stop: dict) -> None:
    print(
        f"stopped: {stop['reason']}  tid {stop['tid']}  cycle "
        f"{stop['cycle']}  event {stop['events_applied']}/"
        f"{stop['events_total']}"
    )
    if stop["pc"] is not None:
        print(f"  at {_replay_frame_line(engine.resolve_pc(stop['pc']))}")
    if stop["fault"] is not None:
        fault = stop["fault"]
        print(
            f"  fault: code {fault['code']} at pc {fault['pc']:#x}: "
            f"{fault['detail']}"
        )


def _replay_interactive(engine) -> int:
    """The stdin debugger loop behind ``tbtrace replay -i``."""
    print(
        "commands: step [N] | continue | run | break PC | unbreak PC | "
        "regs [TID] | bt [TID] | mem ADDR [N] | threads | info | quit"
    )
    while True:
        try:
            line = input("(tb-replay) ").strip()
        except EOFError:
            return 0
        if not line:
            continue
        words = line.split()
        op, rest = words[0], words[1:]
        try:
            if op in ("q", "quit", "exit"):
                return 0
            elif op in ("s", "step"):
                stop = engine.step(int(rest[0], 0) if rest else 1)
                _replay_print_stop(engine, stop)
            elif op in ("c", "continue"):
                _replay_print_stop(engine, engine.cont())
            elif op == "run":
                _replay_print_stop(engine, engine.run_to_fault())
            elif op in ("b", "break"):
                engine.add_breakpoint(int(rest[0], 0))
                print(f"breakpoint at pc {int(rest[0], 0):#x}")
            elif op == "unbreak":
                engine.remove_breakpoint(int(rest[0], 0))
            elif op == "regs":
                regs = engine.registers(int(rest[0]) if rest else None)
                print(
                    f"tid {regs['tid']} ({regs['name']}) {regs['state']}  "
                    f"pc {regs['pc']:#x}  {regs['instructions']} instr"
                )
                for base in range(0, len(regs["regs"]), 8):
                    row = regs["regs"][base : base + 8]
                    print(
                        f"  r{base:<2}: "
                        + " ".join(f"{w:>10}" for w in row)
                    )
            elif op == "bt":
                for frame in engine.backtrace(int(rest[0]) if rest else None):
                    print(f"  {_replay_frame_line(frame)}")
            elif op == "mem":
                addr = int(rest[0], 0)
                count = int(rest[1], 0) if len(rest) > 1 else 8
                words_out = engine.read_memory(addr, count)
                print(
                    f"  {addr:#x}: "
                    + " ".join(
                        "????????" if w is None else f"{w:>10}"
                        for w in words_out
                    )
                )
            elif op == "threads":
                for t in engine.threads():
                    blocked = (
                        f" ({t['block_reason']})" if t["block_reason"] else ""
                    )
                    print(
                        f"  tid {t['tid']:<3} {t['state']:<8} pc "
                        f"{t['pc']:#x}  {t['name']}{blocked}"
                    )
            elif op == "info":
                print(
                    f"  {'done' if engine.finished else 'replaying'}; "
                    f"breakpoints: "
                    + (
                        ", ".join(
                            f"{pc:#x}" for pc in sorted(engine.breakpoints)
                        )
                        or "none"
                    )
                )
            else:
                print(f"unknown command {op!r}")
        except (ValueError, IndexError) as exc:
            print(f"error: {exc}")


def cmd_replay(args: argparse.Namespace) -> int:
    """``tbtrace replay <digest>``: time-travel debug a stored snap."""
    from repro.fleet.remote import RemoteQueryError
    from repro.replay import ReplayDivergence, ReplayUnavailable
    from repro.replay.engine import ReplayEngine

    federation = _federation(args)
    digest = _resolve(federation, args.digest).digest
    try:
        snap, _notes = federation.load(digest, salvage=True)
    except (OSError, ValueError, RemoteQueryError) as exc:
        return _fail(f"cannot load {digest[:12]}: {exc}")
    if snap is None:
        return _fail(f"snap {digest[:12]} unrecoverable")
    print(
        f"replaying {digest[:12]}: {snap.reason} in {snap.process_name} "
        f"on {snap.machine_name} (replayable: {snap.replayable})"
    )
    try:
        engine = ReplayEngine(snap, breakpoints=args.breakpoints)
    except ReplayUnavailable as exc:
        return _fail(f"cannot replay {digest[:12]}: {exc}")
    try:
        if args.interactive:
            return _replay_interactive(engine)
        if args.step is not None:
            stop = engine.step(args.step)
        elif args.breakpoints:
            stop = engine.cont()
        else:
            stop = engine.run_to_fault()
    except ReplayDivergence as exc:
        return _fail(f"replay diverged from the recording: {exc}")
    except ReplayUnavailable as exc:
        return _fail(f"cannot replay {digest[:12]}: {exc}")
    _replay_print_stop(engine, stop)
    print("backtrace:")
    for frame in engine.backtrace():
        print(f"  {_replay_frame_line(frame)}")
    print("threads:")
    for t in engine.threads():
        blocked = f" ({t['block_reason']})" if t["block_reason"] else ""
        print(
            f"  tid {t['tid']:<3} {t['state']:<8} pc {t['pc']:#x}  "
            f"{t['name']}{blocked}"
        )
    return 0


def cmd_gc(args: argparse.Namespace) -> int:
    """``tbtrace gc``: apply a retention policy to a vault.

    ``--dry-run`` prints the exact plan a real pass would apply —
    header line ``plan: delete N snap(s), reclaim B bytes, keep M,
    P pin(s) honored`` followed by one indented line per victim
    (``digest  seq  machine/process  reason  clock  size``) — and
    deletes nothing.
    """
    from repro.fleet.retention import RetentionError, RetentionPolicy

    (vault,) = _open_vaults([args.vault])
    try:
        policy = RetentionPolicy(
            max_age=args.max_age,
            max_entries_per_shard=args.max_per_shard,
            max_bytes_per_shard=args.max_bytes_per_shard,
            pin_open_incidents=not args.no_pin_incidents,
            pin_bucket_exemplars=not args.no_pin_buckets,
        )
        plan = vault.plan_compaction(policy, now=args.now)
    except RetentionError as exc:
        return _fail(str(exc))
    if args.json:
        report = plan.to_dict()
        report["dry_run"] = bool(args.dry_run)
        print(json.dumps(report, sort_keys=True))
        if args.dry_run:
            return 0
    else:
        for line in plan.describe():
            print(line)
        if args.dry_run:
            print("dry run: nothing deleted")
            return 0
    vault.compact(plan=plan)
    if not args.json:
        print(
            f"gc: deleted {len(plan.victims)} snap(s), reclaimed "
            f"{plan.reclaimed_bytes} bytes, {len(vault)} snap(s) remain"
        )
        print()
        print(vault.metrics.render())
    return 0


def cmd_tile(args: argparse.Namespace) -> int:
    module = compile_source(_read(args.source), "app", file_name=args.source,
                            bounds_checks=(args.mode == "il"))
    for name, cfg in build_all_cfgs(module).items():
        plan = tile(cfg)
        print(f"function {name}: {len(cfg.blocks)} blocks, "
              f"{len(plan.dags)} DAGs")
        for dag in plan.dags:
            members = ", ".join(
                f"{block}"
                + (f"[bit {bit}]" if bit is not None else
                   "[hdr]" if block == dag.entry else "[implied]")
                for block, bit in dag.members.items()
            )
            print(f"  DAG {dag.index}: {members}")
    return 0


def cmd_dagbase(args: argparse.Namespace) -> int:
    from repro.instrument import DagBaseFile

    sizes: dict[str, int] = {}
    for path in args.sources:
        name = os.path.splitext(os.path.basename(path))[0]
        result = instrument_module(
            compile_source(_read(path), name, file_name=path)
        )
        sizes[name] = result.module.dag_count
    dagbase = DagBaseFile()
    dagbase.allocate(sizes)
    text = dagbase.render()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        print(text, end="")
    return 0


def cmd_disasm(args: argparse.Namespace) -> int:
    module = compile_source(_read(args.source), "app", file_name=args.source)
    if args.asm:
        print(compile_to_asm(_read(args.source), "app", file_name=args.source))
        return 0
    if args.instrument:
        result = instrument_module(module, InstrumentConfig(mode=args.mode))
        module = result.module
        print(f"; instrumented: {result.stats}")
    print("\n".join(disassemble(module)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tbtrace", description="TraceBack first-fault diagnosis tools"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="compile, instrument, run, snap")
    run.add_argument("source", help="MiniC source file")
    run.add_argument("--name", default="app")
    run.add_argument("--mode", choices=["native", "il"], default="native")
    run.add_argument("--max-cycles", type=int, default=50_000_000)
    run.add_argument("--policy", help="snap policy file (§3.6 format)")
    run.add_argument("--tree", action="store_true", help="call-tree view")
    run.add_argument("--save-snap", help="write the snap file here")
    run.add_argument("--save-mapfile", help="write the mapfile here")
    run.set_defaults(fn=cmd_run)

    view = sub.add_parser("view", help="reconstruct a snap from files")
    view.add_argument("snap", help="snap file (JSON or TBSZ container)")
    view.add_argument("mapfiles", nargs="+", help="mapfile JSON files")
    view.add_argument("--flat", action="store_true")
    view.add_argument(
        "--salvage",
        action="store_true",
        help="recover what survives from a damaged snap instead of "
        "failing on the first integrity error",
    )
    view.set_defaults(fn=cmd_view)

    info = sub.add_parser(
        "info", help="archive version, blobs, CRC status, snap metadata"
    )
    info.add_argument("archive", help="TBSZ2 compressed snap container")
    info.set_defaults(fn=cmd_info)

    collect = sub.add_parser(
        "collect", help="run the fleet incident demo into a snap vault"
    )
    collect.add_argument("--vault", required=True, help="vault root directory")
    collect.add_argument("--seed", type=int, default=0)
    collect.add_argument(
        "--drop-rate", type=float, default=0.0,
        help="probability each upload is lost in transit (retried)",
    )
    collect.add_argument(
        "--kill-machine", default="machine-b",
        help="machine to kill -9 mid-run ('' to kill nobody)",
    )
    collect.add_argument("--batch-size", type=int, default=2)
    collect.add_argument("--queue-limit", type=int, default=8)
    collect.set_defaults(fn=cmd_collect)

    def add_vault_flags(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--vault", required=True, action="append",
            help="vault root directory; repeat to query several vaults "
            "as one federation (lost vaults degrade the answer instead "
            "of failing it)",
        )
        cmd.add_argument(
            "--remote", action="store_true",
            help="serve each vault over the wire protocol and query "
            "through it instead of opening the store directly",
        )
        cmd.add_argument(
            "--timeout", type=int,
            help="cycles: deadline of each wire request (--remote)",
        )

    query = sub.add_parser("query", help="filter stored snaps in a vault")
    add_vault_flags(query)
    query.add_argument("--machine")
    query.add_argument("--process")
    query.add_argument("--reason")
    query.add_argument("--since", type=int, help="min snap clock (inclusive)")
    query.add_argument("--until", type=int, help="max snap clock (inclusive)")
    query.add_argument("--group", help="group-snap fan-out name")
    query.add_argument(
        "--show", metavar="DIGEST",
        help="reconstruct one stored snap (digest prefix ok)",
    )
    query.add_argument("--salvage", action="store_true")
    query.add_argument(
        "--json", action="store_true",
        help="one JSON object per matching snap (JSON lines)",
    )
    query.set_defaults(fn=cmd_query)

    incidents = sub.add_parser(
        "incidents", help="group a vault's snaps into incidents"
    )
    add_vault_flags(incidents)
    incidents.add_argument(
        "--window", type=int,
        help="only link snaps within this many ingest sequence numbers",
    )
    incidents.add_argument(
        "--list", action="store_true", help="list only, skip reconstruction"
    )
    incidents.add_argument(
        "--strict", action="store_true",
        help="strict reconstruction (default is salvage + banner)",
    )
    incidents.add_argument(
        "--json", action="store_true",
        help="one JSON object per incident (JSON lines), no reconstruction",
    )
    incidents.set_defaults(fn=cmd_incidents)

    top = sub.add_parser(
        "top", help="rank a vault's crash buckets (top crashers)"
    )
    add_vault_flags(top)
    top.add_argument(
        "--limit", type=int, help="show at most this many buckets"
    )
    top.add_argument(
        "--json", action="store_true",
        help="one JSON object per bucket (JSON lines)",
    )
    top.set_defaults(fn=cmd_top)

    serve = sub.add_parser(
        "serve", help="host a vault behind the query protocol (self-check)"
    )
    serve.add_argument("--vault", required=True, help="vault root directory")
    serve.add_argument(
        "--name", default="vault", help="service id clients connect to"
    )
    serve.add_argument(
        "--page-limit", type=int, default=64,
        help="server-side bound on list-response pages",
    )
    serve.set_defaults(fn=cmd_serve)

    replay = sub.add_parser(
        "replay",
        help="deterministically re-execute a stored snap to its fault",
    )
    replay.add_argument(
        "digest", help="content digest prefix of the stored snap"
    )
    add_vault_flags(replay)
    replay.add_argument(
        "--break", dest="breakpoints", action="append", default=[],
        type=lambda s: int(s, 0), metavar="PC",
        help="stop when the replayed pc reaches PC (repeatable)",
    )
    replay.add_argument(
        "--step", type=int, metavar="N",
        help="execute only the first N replayed instructions",
    )
    replay.add_argument(
        "-i", "--interactive", action="store_true",
        help="drive the replay from a debugger prompt on stdin",
    )
    replay.set_defaults(fn=cmd_replay)

    report = sub.add_parser(
        "report", help="full triage report with exemplar traces"
    )
    report.add_argument("--vault", required=True, help="vault root directory")
    report.add_argument(
        "--limit", type=int, help="report at most this many buckets"
    )
    report.add_argument(
        "--exemplar-lines", type=int, default=30,
        help="max rendered trace rows per exemplar (tail-clipped)",
    )
    report.add_argument(
        "--verify", action="store_true",
        help="replay each bucket's exemplar and stamp replay_verified",
    )
    report.add_argument(
        "--json", action="store_true", help="canonical JSON document"
    )
    report.add_argument(
        "--html", action="store_true", help="self-contained HTML page"
    )
    report.add_argument("--out", help="write the report here instead of stdout")
    report.set_defaults(fn=cmd_report)

    gc = sub.add_parser(
        "gc", help="apply a retention policy to a vault (compaction)"
    )
    gc.add_argument("--vault", required=True, help="vault root directory")
    gc.add_argument(
        "--max-age", type=int,
        help="expire snaps whose clock is older than NOW - MAX_AGE",
    )
    gc.add_argument(
        "--max-per-shard", type=int,
        help="keep at most this many snaps per shard (newest first)",
    )
    gc.add_argument(
        "--max-bytes-per-shard", type=int,
        help="keep at most this many compressed bytes per shard",
    )
    gc.add_argument(
        "--now", type=int,
        help="reference clock for --max-age (default: newest snap clock)",
    )
    gc.add_argument(
        "--no-pin-incidents", action="store_true",
        help="allow collecting part of an incident (default keeps whole "
        "incidents alive while any member is retained)",
    )
    gc.add_argument(
        "--no-pin-buckets", action="store_true",
        help="allow collecting triage-bucket exemplars (default keeps "
        "one exemplar snap per open crash bucket)",
    )
    gc.add_argument(
        "--dry-run", action="store_true",
        help="print the plan and delete nothing",
    )
    gc.add_argument(
        "--json", action="store_true",
        help="one JSON object describing the plan",
    )
    gc.set_defaults(fn=cmd_gc)

    tile_cmd = sub.add_parser("tile", help="show CFGs and DAG tiling")
    tile_cmd.add_argument("source")
    tile_cmd.add_argument("--mode", choices=["native", "il"], default="native")
    tile_cmd.set_defaults(fn=cmd_tile)

    dagbase_cmd = sub.add_parser(
        "dagbase", help="emit a DAG base file for a set of sources (§2.3)"
    )
    dagbase_cmd.add_argument("sources", nargs="+", help="MiniC source files")
    dagbase_cmd.add_argument("--out", help="write the base file here")
    dagbase_cmd.set_defaults(fn=cmd_dagbase)

    disasm_cmd = sub.add_parser("disasm", help="disassemble compiled code")
    disasm_cmd.add_argument("source")
    disasm_cmd.add_argument("--instrument", action="store_true")
    disasm_cmd.add_argument("--asm", action="store_true",
                            help="show compiler assembly output instead")
    disasm_cmd.add_argument("--mode", choices=["native", "il"], default="native")
    disasm_cmd.set_defaults(fn=cmd_disasm)
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except CommandError as exc:
        return _fail(str(exc))
    except BrokenPipeError:
        # `tbtrace query ... | head` closes our stdout mid-print; die
        # quietly like other Unix tools instead of dumping a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
