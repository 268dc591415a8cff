#!/usr/bin/env bash
# Repo check entry points.
#
# Every lane that runs a trend benchmark also runs its guard: the run
# appends one entry to its section of BENCH_interpreter.json or
# BENCH_fleet.json, then `--check` compares the newest entry's guarded
# keys with the median of up to five earlier entries and fails on a
# >25% regression (benchmarks/_harness.py).
#
#   scripts/check.sh test-fast   default lane: everything not marked slow
#                                (the tier-1 gate: 1576 tests, 43 s,
#                                44 s wall on a 2-core host)
#   scripts/check.sh test-all    full lane: fast tests + slow tests +
#                                every paper-table benchmark
#   scripts/check.sh chaos       fault-injection suite: every chaos
#                                scenario plus the full seeded fuzz
#                                sweep (includes the slow lane); per
#                                snap and per distributed trace, strict
#                                raises if and only if salvage records
#                                a loss, naming the first, and
#                                otherwise returns salvage's answer
#   scripts/check.sh fleet       snap-vault subsystem: store/collector/
#                                incident/index/parallel tests plus the
#                                vault ingest benchmark and its guard
#                                (BENCH_fleet.json ingest)
#   scripts/check.sh gc          retention/compaction subsystem: the
#                                policy + pin tests, the crash-injection
#                                fuzz sweep (200+ seeded kills), and the
#                                GC benchmark (reclaim rate + ingest
#                                throughput under compaction) and its
#                                guard (BENCH_fleet.json gc)
#   scripts/check.sh triage      crash-signature triage subsystem: the
#                                signature/bucket/report unit tests, the
#                                cross-seed differential against chaos
#                                ground truth (precision == 1.0), the
#                                signature-stability fuzz sweep, the
#                                golden report regression, the oracle
#                                differential (the faulting-span signer
#                                against full salvage reconstruction:
#                                62 crashers, a multi-thread catcher at
#                                20 stages, fuzz seeds 0-299, every chaos
#                                scenario at seeds 0-2) and the one-
#                                recovery test (each store path recovers
#                                a fresh snap once) (all slow lanes
#                                included)
#   scripts/check.sh remote      remote-query + federation subsystem:
#                                the wire-protocol/client tests, the
#                                federated scatter-gather tests, the
#                                incident grouper the merge runs (the
#                                index-vs-oracle differential, unions
#                                with colliding seqs, and the incident
#                                link rules), the vault CLI tests
#                                (local vs --remote output parity,
#                                cross-vault incidents, missing roots),
#                                the seeded query-chaos fuzz sweep
#                                (120+ seeds), and the federation
#                                benchmark (fan-out latency +
#                                one-slow-vault overhead) and its guard
#                                (BENCH_fleet.json federation)
#   scripts/check.sh replay      time-travel replay subsystem: the
#                                ndlog/engine/CLI/vault-verify unit
#                                tests, the full differential sweep
#                                (examples + 60+ seeded random
#                                multithreaded crashers, instrumented
#                                and bare), the 62-seed sweep replaying
#                                each crasher's coalesced and
#                                uncoalesced log, the ndlog damage
#                                fuzz, and the replay benchmark
#                                (ndlog overhead + replay and record
#                                throughput) and its guard
#                                (BENCH_interpreter.json replay)
#   scripts/check.sh tier3       block-compiled engine subsystem: the
#                                two-engine differential suite, the
#                                tier-3 unit tests (the CALL, CALLR,
#                                CALLX, SYS and HALT terminators
#                                checked against the reference in
#                                partial runs), the inlined probe-call
#                                tests (the helper's fast path and its
#                                side exits, faults at and inside the
#                                call, chunks and laps across it, per-
#                                thread trace hit caches, and counts
#                                proving the fast path is taken on
#                                parser and gzip), the lap-stop sweep
#                                (a lone thread's merged slices stop
#                                where per-quantum slices do: kernels,
#                                crashers and the transitions program
#                                in max_cycles laps at four quanta, on
#                                both engines), the full cross-engine
#                                replay sweep (62 seeded crashers
#                                recorded on block and replayed on
#                                reference, and the other way round),
#                                the scheduling-order golden with its
#                                slow seeds (126 entries on both
#                                engines: the compiled SYS terminator
#                                is what blocks, sleeps and hands off
#                                locks), and the interpreter benchmark
#                                (engine speedup + decode throughput)
#                                and its guard (BENCH_interpreter.json
#                                engines)
#   scripts/check.sh perf        pipeline benchmark smoke: one traced
#                                crash-triage run (1 s window, at least
#                                four full-scale cycles), one traced
#                                traced-kernels run (1 s window, two
#                                passes over the five kernels) and one
#                                traced replay-debug run (1 s window,
#                                two record -> store -> open -> replay
#                                cycles of the 3-thread crasher, the
#                                only timed path with several guest
#                                threads); fails unless all three
#                                result lines read correct: true —
#                                ground-truth bucket signatures, chain
#                                incidents, the faulting line shown;
#                                traced kernel output equal to the bare
#                                run's and repeatable cycle counts; the
#                                replay stopping at the fault with the
#                                recorded signature and the recording
#                                repeating
#   scripts/check.sh bench       the five trend benchmarks: interpreter,
#                                replay, fleet ingest, fleet GC and
#                                federation; each appends one entry,
#                                then the one guard checks all five:
#                                block geo-mean and decode speedup,
#                                replay and record ips and packed ndlog
#                                bytes/event, parallel ingest snaps/s,
#                                reclaim B/s, federated queries/s
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

case "${1:-test-fast}" in
  test-fast)
    exec python -m pytest -x -q
    ;;
  test-all)
    # A trailing -m overrides the default "not slow" from pyproject.
    exec python -m pytest -q -m "slow or not slow"
    ;;
  chaos)
    exec python -m pytest -q tests/chaos -m "slow or not slow"
    ;;
  fleet)
    python -m pytest -q tests/fleet -m "slow or not slow"
    python benchmarks/bench_fleet_ingest.py
    exec python benchmarks/bench_fleet_ingest.py --check
    ;;
  gc)
    python -m pytest -q tests/fleet/test_retention.py \
      tests/fleet/test_gc_fuzz.py -m "slow or not slow"
    python benchmarks/bench_fleet_gc.py
    exec python benchmarks/bench_fleet_gc.py --check
    ;;
  triage)
    exec python -m pytest -q tests/fleet/test_triage.py \
      tests/fleet/test_triage_differential.py \
      tests/fleet/test_signature_stability.py \
      tests/fleet/test_triage_golden.py \
      tests/fleet/test_signature_oracle.py \
      tests/fleet/test_one_recovery.py -m "slow or not slow"
    ;;
  remote)
    python -m pytest -q tests/fleet/test_remote.py \
      tests/fleet/test_federation.py tests/fleet/test_index.py \
      tests/fleet/test_incidents.py tests/fleet/test_cli_vaults.py \
      tests/fleet/test_federation_fuzz.py -m "slow or not slow"
    python benchmarks/bench_fleet_federation.py
    exec python benchmarks/bench_fleet_federation.py --check
    ;;
  replay)
    # Full replay suite: engine + the tb-ndlog/2 codec/golden tests and
    # the 62-seed coalesced-vs-uncoalesced differential sweep, plus the
    # ndlog damage fuzz (coalesced and uncoalesced logs).
    python -m pytest -q tests/replay -m "slow or not slow"
    python -m pytest -q tests/chaos/test_fuzz.py -k ndlog -m "slow or not slow"
    python benchmarks/bench_replay.py
    exec python benchmarks/bench_replay.py --check
    ;;
  tier3)
    python -m pytest -q tests/vm/test_differential.py tests/vm/test_blocks.py \
      tests/vm/test_probe_units.py \
      tests/vm/test_lap_stops.py tests/replay/test_cross_engine.py \
      tests/replay/test_schedule_golden.py -m "slow or not slow"
    python benchmarks/bench_interpreter.py
    exec python benchmarks/bench_interpreter.py --check
    ;;
  perf)
    for workload in crash-triage traced-kernels replay-debug; do
      # The result object is the last line of standard output.
      result=$(python3 perfbench/run.py --workload "$workload" --seed 1 \
        --seconds 1 --trace 1 | tail -n 1)
      correct=$(python3 -c \
        'import json, sys; print(json.loads(sys.argv[1])["correct"])' "$result")
      if [ "$correct" != True ]; then
        echo "perf: $workload result not correct: ${result:0:300}" >&2
        exit 1
      fi
      echo "perf: $workload correct"
    done
    ;;
  bench)
    python benchmarks/bench_interpreter.py
    python benchmarks/bench_fleet_ingest.py
    python benchmarks/bench_fleet_gc.py
    python benchmarks/bench_fleet_federation.py
    python benchmarks/bench_replay.py
    python benchmarks/bench_interpreter.py --check
    python benchmarks/bench_fleet_ingest.py --check
    python benchmarks/bench_fleet_gc.py --check
    python benchmarks/bench_fleet_federation.py --check
    exec python benchmarks/bench_replay.py --check
    ;;
  *)
    echo "usage: $0 {test-fast|test-all|chaos|fleet|gc|triage|remote|replay|tier3|perf|bench}" >&2
    exit 2
    ;;
esac
