"""The four workloads: set-up, one round of operations, output checks.

A workload's set-up takes the freshly imported ``lockstepsim`` package, the
seed and the checkout root, builds its inputs and returns one round: a list
of operations.  Every run repeats whole rounds, so the share of failed
operations is the same in every run.  An operation reports work into a
``Tally`` and raises ``KnownFault`` when it hits one of the program faults
the benchmark keeps as counted failures, or ``CheckFailed`` when an output
is wrong.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List

import gen
import oracles

HERE = Path(__file__).resolve().parent

# The bundled scenarios and the final state each one documents.
BUNDLED = {
    "boot_fail.scn": "safe_state",
    "detect_divergent.scn": "safe_state",
    "exit_timeout.scn": "safe_state",
    "fig5.scn": "normal_processing",
    "masking_2oo3.scn": "normal_processing",
    "random_tiebreak.scn": "normal_processing",
    "rendezvous.scn": "normal_processing",
    "soak_noise.scn": "normal_processing",
    "timeout.scn": "safe_state",
}

# The sweeps behind acceptance criteria 2 and 6.
FAULT_SWEEPS = ((3, 2, 1, 1), (5, 3, 2, 2))  # n_required, m_agree, spares, max_simultaneous
ARRIVAL_SWEEPS = ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3))  # n_blocks, n_required
ARRIVAL_LATENCY_MAX = 3


class KnownFault(Exception):
    """The operation hit a program fault the benchmark counts as failed."""


class CheckFailed(Exception):
    """An output of the program is wrong."""


@dataclass
class Tally:
    scenarios: int = 0  # run() calls that returned
    cycles: int = 0  # simulated cycles of those runs
    events: int = 0  # trace events they recorded
    trace_bytes: int = 0  # bytes of serialized trace


@dataclass
class Op:
    label: str
    weight: int  # points this operation stands for
    fn: Callable[[Tally], None]


def _check(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def _writes(api, program) -> List[tuple]:
    return [(i.address, i.data) for i in program if isinstance(i, api.Write)]


def _audit(api, trace) -> None:
    """The program's own trace audits, plus the sync-register read rule."""
    try:
        api.audit_event_order(trace)
        api.trace.audit_system_path(trace)
    except AssertionError as exc:
        raise CheckFailed(f"trace audit: {exc}") from None
    problems = oracles.session_read_problems(api.audit_sessions(trace))
    _check(not problems, "; ".join(problems[:3]))


def _check_report_json(report, text: str) -> None:
    doc = json.loads(text)
    _check(doc["cycles_run"] == report.cycles_run, "report JSON cycles_run")
    _check(len(doc["sessions"]) == len(report.sessions), "report JSON sessions")
    last = report.trace[-1] if report.trace else None
    _check(last is not None and last.kind == "halt" and last.cycle == report.cycles_run,
           "trace does not end in the halt marker on the last cycle")


# -- scenario_files ------------------------------------------------------------


def setup_scenario_files(api, seed: int, root: Path) -> List[Op]:
    scen_dir = root / "src" / "lockstepsim" / "scenarios"
    texts = {name: (scen_dir / name).read_text(encoding="utf-8") for name in BUNDLED}
    golden = (root / "tests" / "golden" / "fig5_trace.jsonl").read_bytes()
    bad_text = (HERE / "bad_fault_bit.scn").read_text(encoding="utf-8")
    first: Dict[str, tuple] = {}

    def full_check(name, scenario, report, trace_bytes, report_json):
        _check(report.final_state == BUNDLED[name], f"final state {report.final_state}")
        _audit(api, report.trace)
        _check_report_json(report, report_json)
        _check(trace_bytes.count(b"\n") == len(report.trace), "trace lines != events")
        if name == "fig5.scn":
            _check(trace_bytes == golden, "fig5 trace differs from tests/golden/fig5_trace.jsonl")
        if report.final_state == "normal_processing":
            want = oracles.safe_image(_writes(api, scenario.safe_program), report.sessions_completed)
            _check((report.ls_ram, report.io_log) == want, "voted memory differs from the safe program's writes")

    def file_op(name):
        text = texts[name]

        def op(tally: Tally) -> None:
            scenario = api.load_scenario(text)
            report = api.run(scenario)
            trace_bytes = api.emit_trace(report.trace, "jsonl")
            report_json = report.to_json()
            tally.scenarios += 1
            tally.cycles += report.cycles_run
            tally.events += len(report.trace)
            tally.trace_bytes += len(trace_bytes)
            # Later repeats must be byte-identical to the first, fully checked one.
            if name not in first:
                full_check(name, scenario, report, trace_bytes, report_json)
                first[name] = (trace_bytes, report_json)
            else:
                _check(first[name] == (trace_bytes, report_json), "repeat run is not byte-identical")

        return op

    def bad_bit_op(tally: Tally) -> None:
        try:
            api.load_scenario(bad_text)
        except api.ScenarioError:
            return
        except TypeError as exc:
            raise KnownFault(f"faults[].bit \"x\" raises TypeError, not ScenarioError: {exc}") from None
        raise CheckFailed("a scenario with faults[].bit \"x\" was accepted")

    ops = [Op(name, 1, file_op(name)) for name in BUNDLED]
    ops.append(Op("bad_fault_bit.scn", 1, bad_bit_op))
    random.Random(f"scenario_files:{seed}").shuffle(ops)
    return ops


# -- acceptance_sweeps -----------------------------------------------------------


def setup_acceptance_sweeps(api, seed: int, root: Path) -> List[Op]:
    sweep = api.sweep
    safe = sweep.DEFAULT_SAFE_PROGRAM
    image = oracles.safe_image(_writes(api, safe), 1)

    def observed(call):
        """Run ``call`` while recording every (scenario, report) the sweep
        module's ``run`` produces, so each point can be checked."""
        seen = []
        inner = sweep.run

        def run(scenario, *args, **kwargs):
            report = inner(scenario, *args, **kwargs)
            seen.append((scenario, report))
            return report

        sweep.run = run
        try:
            return call(), seen
        finally:
            sweep.run = inner

    def account(tally, seen):
        tally.scenarios += len(seen)
        for _, report in seen:
            tally.cycles += report.cycles_run
            tally.events += len(report.trace)

    def fault_op(n, m, spares, max_sim, points):
        def op(tally: Tally) -> None:
            result, seen = observed(lambda: sweep.fault_sweep(n, m, spares, max_sim, "full"))
            account(tally, seen)
            _check(len(result.points) == points, f"{len(result.points)} points, formula gives {points}")
            _check(result.ok, f"unmasked: {[p.describe() for p in result.failures[:3]]}")
            _check(len(seen) >= points, f"saw {len(seen)} runs for {points} points")
            for _, report in seen:
                _check((report.ls_ram, report.io_log) == image,
                       "masked image differs from the safe program's writes")

        return op

    def arrival_op(n_blocks, n_required, points):
        def op(tally: Tally) -> None:
            result, seen = observed(
                lambda: sweep.arrival_sweep(n_blocks, n_required, 2, ARRIVAL_LATENCY_MAX))
            account(tally, seen)
            _check(len(result.points) == points, f"{len(result.points)} points, formula gives {points}")
            _check(result.ok, f"admission: {[p.describe() for p in result.failures[:3]]}")
            _check(len(seen) == points, f"saw {len(seen)} runs for {points} points")
            for scenario, report in seen:
                check_admission(scenario, report, n_required)

        return op

    def check_admission(scenario, report, n_required):
        # Block 0 raises the request on the tick after its leading computes;
        # a block at an instruction boundary reads the sync register on the
        # cycle after its interrupt latch lands.
        lead = 0
        for instr in scenario.programs[0]:
            if not isinstance(instr, api.Compute):
                break
            lead += instr.duration
        gather = lead + 1
        arrivals = [gather + lat + 1 for lat in scenario.irq_latency]
        admitted, rejected, entry = oracles.admission(arrivals, n_required)
        sessions = report.sessions
        _check(len(sessions) == 1, f"{len(sessions)} sessions")
        s = sessions[0]
        _check((s["gather_cycle"], s["lockstep_cycle"]) == (gather, entry),
               f"latencies {scenario.irq_latency}: gather/entry {s['gather_cycle']}/{s['lockstep_cycle']}, "
               f"expected {gather}/{entry}")
        got = (sorted(s["accepted"]), sorted(s["rejected"]))
        _check(got == (admitted, rejected),
               f"latencies {scenario.irq_latency}: admitted/rejected {got}, expected {(admitted, rejected)}")
        _check(s["outcome"] == "completed" and report.final_state == "normal_processing",
               f"latencies {scenario.irq_latency}: session {s['outcome']}, {report.final_state}")
        _audit(api, report.trace)

    def addr31_op(scenario):
        def op(tally: Tally) -> None:
            try:
                report = api.run(scenario, trace_enabled=False)
            except api.UnmappedAddress as exc:
                raise KnownFault(f"voted commit to an unmapped address crashes the run: {exc}") from None
            tally.scenarios += 1
            tally.cycles += report.cycles_run
            _check(report.final_state == "safe_state" and report.availability_errors >= 1,
                   "two agreeing corrupt addresses did not end in the safe state")

        return op

    safe_len = len(safe)
    ops = [
        Op(f"fault_sweep{args}", pts, fault_op(*args, pts))
        for args in FAULT_SWEEPS
        for pts in [oracles.fault_sweep_points(args[0], safe_len, args[3])]
    ]
    ops += [
        Op(f"arrival_sweep({nb}, {nr})", pts, arrival_op(nb, nr, pts))
        for nb, nr in ARRIVAL_SWEEPS
        for pts in [oracles.arrival_sweep_points(nb, ARRIVAL_LATENCY_MAX)]
    ]
    # 2oo3 points whose two faulty ports flip address bit 31 at the same safe
    # instruction, so the voted majority agrees on an unmapped address.
    for k in range(safe_len):
        for a, b in ((0, 1), (0, 2), (1, 2)):
            faults = [api.FaultSpec(target=t, kind=api.FaultKind.BIT_FLIP_ADDRESS, at_safe_instr=k, bit=31)
                      for t in (a, b)]
            scenario = sweep.build_masking_scenario(3, 3, 2, faults=faults)
            ops.append(Op(f"addr31 ports {a},{b} at {k}", 1, addr31_op(scenario)))
    random.Random(f"acceptance_sweeps:{seed}").shuffle(ops)
    return ops


# -- long_idle -------------------------------------------------------------------


def setup_long_idle(api, seed: int, root: Path) -> List[Op]:
    layout = gen.long_idle(seed)
    scenario = api.load_scenario(layout.text)
    n = gen.IDLE_BLOCKS
    want_sessions = [
        {"gather_cycle": g, "lockstep_cycle": e, "release_cycle": r,
         "accepted": list(range(n)), "rejected": [], "outcome": "completed"}
        for g, e, r in zip(layout.triggers, layout.entries, layout.releases)
    ]
    want_image = oracles.safe_image(layout.safe_writes, len(layout.triggers))

    def op(tally: Tally) -> None:
        report = api.run(scenario)
        tally.scenarios += 1
        tally.cycles += report.cycles_run
        tally.events += len(report.trace)
        _check(report.cycles_run == layout.cycles, f"{report.cycles_run} cycles, expected {layout.cycles}")
        _check(len(report.trace) == layout.events, f"{len(report.trace)} events, expected {layout.events}")
        _check((report.final_state, report.end_reason) == ("normal_processing", "all_halted"),
               f"ended {report.final_state}/{report.end_reason}")
        _check(report.sessions == want_sessions, f"sessions {report.sessions}")
        _check((report.ls_ram, report.io_log) == want_image, "voted memory differs from the safe program's writes")
        _audit(api, report.trace)

    return [Op("long_idle", 1, op)]


# -- long_soak -------------------------------------------------------------------


def setup_long_soak(api, seed: int, root: Path) -> List[Op]:
    layout = gen.long_soak(seed)
    scenario = api.load_scenario(layout.text)
    want_image = oracles.safe_image(layout.safe_writes, len(layout.triggers))
    first: List[tuple] = []

    def full_check(report, trace_bytes):
        _check(report.final_state == "normal_processing", f"ended {report.final_state}")
        _check([s["gather_cycle"] for s in report.sessions] == layout.triggers,
               "a trigger did not start its own session")
        everyone = list(range(gen.SOAK_BLOCKS))
        for s in report.sessions:
            _check(s["outcome"] == "completed" and s["accepted"] == everyone,
                   f"session at {s['gather_cycle']}: {s['outcome']}, admitted {s['accepted']}")
        _check((report.ls_ram, report.io_log) == want_image, "voted memory differs from the safe program's writes")
        _check(trace_bytes.count(b"\n") == len(report.trace), "trace lines != events")
        _audit(api, report.trace)

    def op(tally: Tally) -> None:
        report = api.run(scenario)
        trace_bytes = api.emit_trace(report.trace, "jsonl")
        report_json = report.to_json()
        tally.scenarios += 1
        tally.cycles += report.cycles_run
        tally.events += len(report.trace)
        tally.trace_bytes += len(trace_bytes)
        if not first:
            full_check(report, trace_bytes)
            first.append((trace_bytes, report_json))
        else:
            _check(first[0] == (trace_bytes, report_json), "repeat run is not byte-identical")

    return [Op("long_soak", 1, op)]


WORKLOADS = {
    "scenario_files": setup_scenario_files,
    "acceptance_sweeps": setup_acceptance_sweeps,
    "long_idle": setup_long_idle,
    "long_soak": setup_long_soak,
}
