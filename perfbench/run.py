"""Host-time benchmark for lockstepsim.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scenario_files --seed 1 --seconds 20 --trace 0

Single process, single thread.  The program is imported from ``src/`` of the
checkout.  Set-up (import plus building the workload's inputs) is done
several times and its median reported; then whole rounds of the workload's
operations run until ``--seconds`` have passed and at least two rounds are
done, every output is checked, and the last line of standard output is one
JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: work completed per
CPU second of this process over the whole timed run, set-up time and peak
memory.  Times are the process's CPU time (user plus system): the program
is single-threaded and does no I/O once set up, so on an idle host this is
its wall time, and on a shared virtual machine it leaves out the time the
hypervisor gives to other tenants.  With ``--trace 1`` rounds alternate
between untraced and traced, the metrics are per layer (see README.md), and
the spans are written to ``perfbench/out/spans-<workload>-<seed>.jsonl``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "setup_s": "s",
    "scenarios_per_s": "1/s",
    "points_per_s": "1/s",
    "sim_cycles_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Per-layer timings: metric, span name, unit.  Each is the mean self time
# per call of that span over the traced part of the run.
LAYER_TIMES = (
    ("scenario.load_ms", "scenario.load", "ms"),
    ("scenario.validate_ms", "scenario.validate", "ms"),
    ("scenario.digest_ms", "scenario.digest", "ms"),
    ("engine.world_init_ms", "engine.world_init", "ms"),
    ("engine.report_ms", "engine.run", "ms"),
    ("engine.step_self_us", "engine.step", "us"),
    ("block.tick_us", "block.tick", "us"),
    ("faults.cycle_start_us", "faults.cycle_start", "us"),
    ("faults.filter_tx_us", "faults.filter_tx", "us"),
    ("faults.stochastic_us", "faults.stochastic", "us"),
    ("monitor.vote_us", "monitor.vote", "us"),
    ("monitor.rendezvous_us", "monitor.rendezvous", "us"),
    ("monitor.observe_us", "monitor.observe", "us"),
    ("bus.issue_us", "bus.issue", "us"),
    ("trace.emit_ms", "trace.emit", "ms"),
    ("sweep.self_ms", "sweep.sweep", "ms"),
    ("sweep.check_ms", "sweep.check", "ms"),
)
# Per-layer counts: metric, span name.  Calls per round.
LAYER_CALLS = (
    ("scenario.digest_calls", "scenario.digest"),
    ("engine.step_calls", "engine.step"),
    ("block.tick_calls", "block.tick"),
    ("monitor.vote_calls", "monitor.vote"),
    ("bus.issue_calls", "bus.issue"),
)
SCALE = {"ms": 1e3, "us": 1e6}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:  # the generated scenarios carry it as their seed
        parser.error("--seed must be in 0 .. 2**63-1")
    return args


def fresh_import():
    """Import ``lockstepsim`` as the ``lockstepsim`` command does, dropping
    any copy an earlier set-up imported so that each set-up pays the import."""
    for name in [m for m in sys.modules if m == "lockstepsim" or m.startswith("lockstepsim.")]:
        del sys.modules[name]
    importlib.import_module("lockstepsim.cli")
    return sys.modules["lockstepsim"]


def run_op(op, fn, tally, counts, problems) -> None:
    try:
        fn(tally)
    except workloads.KnownFault as exc:
        counts["failed"] += op.weight
        if op.label not in counts["known"]:
            counts["known"].add(op.label)
            print(f"counted failure: {op.label}: {exc}", file=sys.stderr)
    except workloads.CheckFailed as exc:
        counts["failed"] += op.weight
        problems.append(f"{op.label}: {exc}")
    except Exception:  # an unexpected crash is a wrong output, not a benchmark crash
        counts["failed"] += op.weight
        problems.append(f"{op.label}: {traceback.format_exc()}")
    else:
        counts["points"] += op.weight
    counts["attempted"] += op.weight


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "lockstepsim" / "__init__.py").is_file():
        print(f"error: no lockstepsim sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    setup = workloads.WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    setup_times, import_times = [], []
    for i in range(SETUP_REPEATS):
        t0 = process_time()
        api = fresh_import()
        t1 = process_time()
        traced_setup = tracer is not None and i == SETUP_REPEATS - 1
        if traced_setup:
            tracer.install(api)
        ops = setup(api, args.seed, ROOT)
        t2 = process_time()
        if traced_setup:
            tracer.uninstall()
        import_times.append(t1 - t0)
        setup_times.append(t2 - t0)
    if not Path(api.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported lockstepsim from {api.__file__}, not {src}", file=sys.stderr)
        return 2

    setup_calls = {name: tracer.calls(name) for name in tracer.stats} if tracer else {}
    if tracer:
        traced_fns = [tracer.span("bench.op", op.fn) for op in ops]
    counts = {"attempted": 0, "failed": 0, "points": 0, "known": set()}
    problems = []
    rounds = []  # (traced, CPU seconds, work done in the round)
    op_id = 0
    start = perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.install(api)
        tally = workloads.Tally()
        before = counts["points"]
        r0 = process_time()
        for k, op in enumerate(ops):
            if traced:
                tracer.op = op_id
            run_op(op, traced_fns[k] if traced else op.fn, tally, counts, problems)
            op_id += 1
        r1 = process_time()
        if traced:
            tracer.uninstall()
        work = dict(vars(tally))
        work["points"] = counts["points"] - before
        rounds.append((traced, r1 - r0, work))
        # At least two rounds: a traced run needs one of each kind, and the
        # longest round (acceptance_sweeps, about 20 s) needs the repeat to
        # average over the host's slow phases.
        if perf_counter() - start >= args.seconds and len(rounds) >= 2:
            break

    if any(w != rounds[0][2] for _, _, w in rounds):
        problems.append(f"rounds did different work: {[w for _, _, w in rounds]}")
    work = rounds[0][2]
    plain = [s for traced, s, _ in rounds if not traced]
    plain_time = sum(plain)

    if tracer is None:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "scenarios_per_s": work["scenarios"] * len(plain) / plain_time,
            "points_per_s": work["points"] * len(plain) / plain_time,
            "sim_cycles_per_s": work["cycles"] * len(plain) / plain_time,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
    else:
        traced_times = [s for traced, s, _ in rounds if traced]
        n_traced = len(traced_times)
        metrics, units = {}, {}
        for metric, span, unit in LAYER_TIMES:
            metrics[metric], units[metric] = tracer.mean_self(span) * SCALE[unit], unit
        for metric, span in LAYER_CALLS:
            calls = tracer.calls(span) - setup_calls.get(span, 0)
            metrics[metric], units[metric] = calls // n_traced, "count"
        metrics["engine.steps_per_cycle"] = metrics["engine.step_calls"] / max(work["cycles"], 1)
        units["engine.steps_per_cycle"] = "ratio"
        metrics["trace.events"], units["trace.events"] = work["events"], "count"
        metrics["trace.bytes"], units["trace.bytes"] = work["trace_bytes"], "count"
        metrics["cli.import_ms"], units["cli.import_ms"] = statistics.median(import_times) * 1e3, "ms"
        overhead = (sum(traced_times) / n_traced) / (plain_time / len(plain)) - 1
        metrics["bench.trace_overhead_pct"], units["bench.trace_overhead_pct"] = overhead * 100, "%"
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        tracer.write_spans(spans_path)
        print(f"spans written to {spans_path.relative_to(ROOT)}", file=sys.stderr)

    for problem in problems[:10]:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print(f"{len(rounds)} rounds of {len(ops)} ops in {perf_counter() - start:.2f} s", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
