#!/usr/bin/env python3
"""Engine-rate regression gate (stdlib only).

Compares a fresh bench/engine_rate summary against the committed baseline
(BENCH_engine.json at the repo root) and fails on:

  1. regression: any benchmark present in BOTH summaries whose fresh
     events/sec falls below ``--min-ratio`` (default 0.80, i.e. a >20%
     drop) of the committed figure. CI runners are noisy, which is why the
     bar is 20% and not 5%; a real engine regression (an O(n) scan in the
     event loop, an accidental allocation per event) blows straight
     through it.
  2. power overhead: the energy-accounting run (BM_ClusterEnginePower)
     must stay within ``--max-power-overhead`` (default 0.10) of its plain
     twin, which the same benchmark times in alternation with it and
     reports as ``plain_events_per_s`` — side by side, both see the same
     host speed, so this ratio is far less noisy than the cross-commit
     one. This holds the per-event power bookkeeping at O(1).
  3. coverage: the fresh summary must contain every hot-path microbench
     (REQUIRED_RUNS below). A bench binary that silently dropped the queue,
     dispatch, placement, backfill, mailbox, collective or compute
     benchmarks would otherwise pass the gate trivially.
  4. dispatch speedup: BM_ScheduleDispatch (4-ary queue + InlineFunction
     engine) must stay at least ``--min-dispatch-speedup`` (default 1.8)
     times faster than BM_ScheduleDispatchLegacy (the in-tree pre-refactor
     twin: std::priority_queue of std::function events, copy-then-pop) at
     16 timers — the shallow-queue shape where the old per-event heap
     traffic dominated. The measured ratio is 2.2-2.3x (docs/ENGINE.md);
     the floor sits ~20% under that for the same noise headroom the
     cross-commit gate gets, and anything that reintroduces a per-event
     allocation or copy lands the ratio near 1.0 — far below either bar.
     Both rows must be medians of at least MIN_GATE_REPETITIONS
     repetitions (engine_rate pins them), as for gate 5.
  5. delivery memo: BM_MailboxPingPong/384 (delivery offsets reused) must
     stay at least MIN_MEMO_SPEEDUP times faster than
     BM_MailboxPingPongComputed/384, the same World with a factor-1.0
     receive window that turns the memo off. A memo that never hits lands
     near 1.0. Both rows must be medians of at least MIN_GATE_REPETITIONS
     repetitions (engine_rate pins them), so one slow repetition of either
     cannot fail the gate.

Usage:
  python3 tools/perf/check_engine_rate.py \
      --baseline BENCH_engine.json --fresh BENCH_fresh.json
"""

import argparse
import json
import sys

# Hot-path microbenches every fresh summary must carry (gate 3). Names match
# bench/engine_rate.cpp registrations exactly.
REQUIRED_RUNS = (
    "BM_EventQueuePushPop/64",
    "BM_EventQueuePushPop/1024",
    "BM_EventQueuePushPop/16384",
    "BM_EventQueuePushPop/262144",
    "BM_ScheduleDispatch/16",
    "BM_ScheduleDispatch/256",
    "BM_ScheduleDispatchLegacy/16",
    "BM_ScheduleDispatchLegacy/256",
    "BM_SpawnResume",
    "BM_TorusHops",
    "BM_AllocateContiguous/192",
    "BM_AllocateContiguous/1536",
    "BM_AllocateContiguous/12288",
    "BM_AllocateContiguousNearFull/192",
    "BM_AllocateContiguousSparse/192",
    "BM_LargestFreeBlock/192/8",
    "BM_LargestFreeBlock/192/90",
    "BM_BackfillScan/256",
    "BM_MailboxPingPong/384",
    "BM_MailboxPingPongComputed/384",
    "BM_MailboxPingPong/9216",
    "BM_Collective/allreduce/384",
    "BM_Collective/allreduce/9216",
    "BM_Collective/alltoall/192",
    "BM_RankCompute/384",
    "BM_ClusterEngine/150",
    "BM_ClusterEngine/600",
    "BM_ClusterEnginePower/600",
)

# Floor of the gate-5 ratio. The measured ratio is 1.35-2.03x, median 1.59x
# (docs/ENGINE.md section 7); the floor sits ~20% under the median.
MIN_MEMO_SPEEDUP = 1.25
# Repetitions each row of a ratio gate (4 and 5) must be the median of.
MIN_GATE_REPETITIONS = 3


def load_summary(path):
    """Return the runs of an engine_rate summary."""
    with open(path, "r", encoding="utf-8") as f:
        summary = json.load(f)
    if summary.get("bench") != "engine_rate":
        raise SystemExit(f"{path}: not an engine_rate summary")
    if not summary.get("runs"):
        raise SystemExit(f"{path}: no runs in summary")
    return summary["runs"]


def load_runs(path):
    """Return {benchmark name: events_per_s} from an engine_rate summary."""
    runs = {}
    for run in load_summary(path):
        name = run["name"]
        rate = float(run["events_per_s"])
        if rate <= 0.0:
            raise SystemExit(f"{path}: {name} has non-positive events_per_s")
        runs[name] = rate
    return runs


def repetitions(path):
    """Return {benchmark name: repetitions its row is the median of}."""
    return {run["name"]: int(run.get("repetitions", 1))
            for run in load_summary(path)}


def check_medians(reps, names, gate, failures):
    """Fail `gate` for each of `names` that is a median of too few runs."""
    for name in names:
        if name in reps and reps[name] < MIN_GATE_REPETITIONS:
            failures.append(
                f"{name} is the median of {reps[name]} repetition(s); "
                f"the {gate} gate needs at least {MIN_GATE_REPETITIONS}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_engine.json")
    parser.add_argument("--fresh", required=True,
                        help="summary from the current build")
    parser.add_argument("--min-ratio", type=float, default=0.80,
                        help="fresh/baseline events-per-sec floor "
                             "(default: 0.80)")
    parser.add_argument("--max-power-overhead", type=float, default=0.10,
                        help="allowed slowdown of BM_ClusterEnginePower vs "
                             "its plain twin in the fresh summary "
                             "(default: 0.10)")
    parser.add_argument("--min-dispatch-speedup", type=float, default=1.8,
                        help="required BM_ScheduleDispatch/16 over "
                             "BM_ScheduleDispatchLegacy/16 ratio in the "
                             "fresh summary (default: 1.8)")
    args = parser.parse_args()

    baseline = load_runs(args.baseline)
    fresh = load_runs(args.fresh)
    failures = []

    shared = sorted(set(baseline) & set(fresh))
    if not shared:
        raise SystemExit("no benchmark names shared between baseline and "
                         "fresh summaries — wrong files?")
    for name in shared:
        ratio = fresh[name] / baseline[name]
        verdict = "ok" if ratio >= args.min_ratio else "REGRESSION"
        print(f"  {name}: {fresh[name]:.0f} vs baseline "
              f"{baseline[name]:.0f} events/s (x{ratio:.2f}) {verdict}")
        if ratio < args.min_ratio:
            failures.append(
                f"{name}: fresh rate is x{ratio:.2f} of baseline "
                f"(floor x{args.min_ratio:.2f})")
    for name in sorted(set(fresh) - set(baseline)):
        print(f"  {name}: {fresh[name]:.0f} events/s (no baseline yet)")

    missing = [name for name in REQUIRED_RUNS if name not in fresh]
    if missing:
        failures.append("fresh summary is missing required runs: " +
                        ", ".join(missing))

    reps = repetitions(args.fresh)
    check_medians(reps, ("BM_ScheduleDispatch/16",
                         "BM_ScheduleDispatchLegacy/16"), "dispatch", failures)
    new = fresh.get("BM_ScheduleDispatch/16")
    legacy = fresh.get("BM_ScheduleDispatchLegacy/16")
    if new is not None and legacy is not None:
        speedup = new / legacy
        verdict = ("ok" if speedup >= args.min_dispatch_speedup
                   else "TOO SLOW")
        print(f"  dispatch speedup vs legacy engine: x{speedup:.2f} "
              f"({new:.0f} vs {legacy:.0f} events/s, medians) {verdict}")
        if speedup < args.min_dispatch_speedup:
            failures.append(
                f"BM_ScheduleDispatch/16 is only x{speedup:.2f} of the "
                f"legacy engine (required: "
                f"x{args.min_dispatch_speedup:.2f})")

    memo = fresh.get("BM_MailboxPingPong/384")
    computed = fresh.get("BM_MailboxPingPongComputed/384")
    check_medians(reps, ("BM_MailboxPingPong/384",
                         "BM_MailboxPingPongComputed/384"), "memo", failures)
    if memo is not None and computed is not None:
        speedup = memo / computed
        verdict = ("ok" if speedup >= MIN_MEMO_SPEEDUP
                   else "TOO SLOW")
        print(f"  delivery memo speedup vs computed: x{speedup:.2f} "
              f"({memo:.0f} vs {computed:.0f} messages/s, medians) "
              f"{verdict}")
        if speedup < MIN_MEMO_SPEEDUP:
            failures.append(
                f"BM_MailboxPingPong/384 is only x{speedup:.2f} of its "
                f"computed twin (required: x{MIN_MEMO_SPEEDUP:.2f})")

    plain = None
    for run in load_summary(args.fresh):
        if run["name"] == "BM_ClusterEnginePower/600":
            plain = float(run.get("plain_events_per_s", 0.0)) or None
    powered = fresh.get("BM_ClusterEnginePower/600")
    if plain is None or powered is None:
        failures.append("fresh summary is missing BM_ClusterEnginePower/600 "
                        "or its plain_events_per_s — cannot check the "
                        "energy-accounting overhead")
    else:
        overhead = 1.0 - powered / plain
        floor = (1.0 - args.max_power_overhead) * plain
        verdict = "ok" if powered >= floor else "TOO SLOW"
        print(f"  power accounting overhead: {overhead * 100.0:+.1f}% "
              f"({powered:.0f} vs {plain:.0f} events/s) {verdict}")
        if powered < floor:
            failures.append(
                f"BM_ClusterEnginePower/600 runs {overhead * 100.0:.1f}% "
                f"slower than its plain twin (allowed: "
                f"{args.max_power_overhead * 100.0:.0f}%)")

    if failures:
        print("check_engine_rate: FAIL", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("check_engine_rate: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
