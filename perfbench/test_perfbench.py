"""Fast tests for the benchmark's own oracles, generators and tracer.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
import run as bench  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_safe_image_keeps_last_ram_value_and_every_output_write():
    writes = [(0x10000, 7), (0x20000, 99), (0x10000, 8), (0x200FF, 1)]
    assert oracles.safe_image(writes, 2) == ({0x10000: 8}, [99, 1, 99, 1])
    assert oracles.safe_image(writes, 0) == ({}, [])
    with pytest.raises(ValueError):
        oracles.safe_image([(0x100, 1)], 1)


def test_admission_orders_by_arrival_then_block_id():
    # blocks 1 and 3 arrive first; block 0 wins the tie at cycle 5 over block 2
    assert oracles.admission([5, 4, 5, 4], 3) == ([0, 1, 3], [2], 5)
    assert oracles.admission([3, 3], 2) == ([0, 1], [], 3)


def test_sweep_point_formulas_match_the_acceptance_counts():
    assert oracles.fault_sweep_points(3, 4, 1) == 54
    assert oracles.fault_sweep_points(5, 4, 2) == 3330
    assert sum(oracles.arrival_sweep_points(nb, 3) for nb, _ in workloads.ARRIVAL_SWEEPS) == 656


def test_session_read_rule():
    ok = types.SimpleNamespace(completed=True, gather_cycle=1, accepted=[0], rejected=[1],
                               sync_reads={0: 1, 1: 1}, exit_reads={0: 1})
    bad = types.SimpleNamespace(completed=True, gather_cycle=1, accepted=[0], rejected=[1],
                                sync_reads={0: 1, 1: 1}, exit_reads={0: 1, 1: 1})
    open_session = types.SimpleNamespace(completed=False, gather_cycle=1, accepted=[0], rejected=[],
                                         sync_reads={}, exit_reads={})
    assert oracles.session_read_problems([ok, open_session]) == []
    assert len(oracles.session_read_problems([bad])) == 1


def test_generators_are_seeded_and_keep_the_work_fixed():
    a, b, c = gen.long_idle(1), gen.long_idle(1), gen.long_idle(2)
    assert a.text == b.text and a.text != c.text
    assert sum(a.durations) == sum(c.durations) == gen.IDLE_TOTAL_COMPUTE
    assert a.cycles == c.cycles and a.events == c.events
    assert min(a.durations) >= gen.IDLE_MIN_COMPUTE
    s1, s2 = gen.long_soak(1), gen.long_soak(2)
    assert s1.text == gen.long_soak(1).text and s1.text != s2.text
    assert len(s1.triggers) == len(s2.triggers)


def test_idle_analytic_counts_match_a_simulated_run():
    import lockstepsim

    layout = gen.long_idle(7)
    report = lockstepsim.run(lockstepsim.load_scenario(layout.text))
    assert report.cycles_run == layout.cycles
    assert len(report.trace) == layout.events
    assert [s["lockstep_cycle"] for s in report.sessions] == layout.entries


def test_soak_scenario_loads_with_noise_on():
    import lockstepsim

    scenario = lockstepsim.load_scenario(gen.long_soak(3).text)
    assert scenario.noise_flip_probability == pytest.approx(gen.SOAK_FLIP_PROBABILITY)
    assert len(scenario.triggers) == len(gen.long_soak(3).triggers)


def test_tracer_self_time_excludes_children_and_uninstall_restores():
    def emit():
        return 1

    def run():
        return api.emit_trace() + api.emit_trace()

    # a stand-in package with two of the traced bindings; the rest are skipped
    api = types.SimpleNamespace(run=run, emit_trace=emit)
    tracer = Tracer(span_cap=2)
    tracer.install(api)
    assert api.run() == 2
    tracer.uninstall()
    assert (api.run, api.emit_trace) == (run, emit)
    assert tracer.calls("engine.run") == 1 and tracer.calls("trace.emit") == 2
    # span ids are given at entry (run 0, emits 1 and 2); the cap keeps two
    spans = sorted(tracer.spans)
    assert [(s[0], s[1], s[4]) for s in spans] == [(0, "engine.run", -1), (1, "trace.emit", 0)]
    run_start, run_end = spans[0][2:4]
    assert tracer.self_seconds("engine.run") < run_end - run_start


def test_op_outcomes_are_classified():
    counts = {"attempted": 0, "failed": 0, "points": 0, "known": set()}
    problems = []
    tally = workloads.Tally()

    def known(t):
        raise workloads.KnownFault("named fault")

    def wrong(t):
        raise workloads.CheckFailed("wrong output")

    for fn, weight in ((lambda t: None, 3), (known, 2), (wrong, 1)):
        op = workloads.Op("op", weight, fn)
        bench.run_op(op, fn, tally, counts, problems)
    assert (counts["attempted"], counts["failed"], counts["points"]) == (6, 3, 3)
    assert problems == ["op: wrong output"]
