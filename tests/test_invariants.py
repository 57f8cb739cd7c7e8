"""Protocol invariants on generated scenarios.

Every scenario the trace-identity corpus draws from ``random_scenario``, and
its widened ``wide_scenario`` variant, is run with the trace on and off, and
each run must keep the protocol's invariants: events in order, only allowed
system-state arcs, a report that does not depend on the trace, counters that
agree with the session records and the trace, reject contexts from the three
the monitor gives, exit reads only from members of the open session, and the
sync-register read counts of every completed session.  Runs the identity
corpus leaves out (a corrupted address its bus cannot serve) are skipped.
Every point of a 2-of-3 fault sweep with pairs keeps the same invariants.

The generated scenarios, noisy ones included, also check ``World.run()``
against an oracle that calls the public ``World.step()`` on every cycle up to
the cycle the run ended on: the events, the memory image and the session
records must agree.  The oracle steps a traced world and, under the
``full_step`` ids, an untraced one, whose sink must stay empty while its
cycle, memory image, session records and any ``UnmappedAddress`` agree with
the traced ``run()``.
"""

from __future__ import annotations

import pytest

import lockstepsim.sweep
from generated import random_scenario, run_unless_unmapped, wide_scenario
from lockstepsim import SystemState, UnmappedAddress, World, audit_event_order, audit_sessions, run
from lockstepsim.sweep import fault_sweep
from lockstepsim.trace import audit_system_path


@pytest.mark.parametrize("index", range(200))
def test_generated_run_keeps_the_protocol_invariants(index):
    check_invariants(random_scenario(index), rejected_once=True)


@pytest.mark.parametrize("index", range(200))
def test_wide_run_keeps_the_protocol_invariants(index):
    # a block that still holds an IRQ latched for an earlier session reads,
    # and is rejected, once per latch
    check_invariants(wide_scenario(index), rejected_once=False)


def test_every_fault_point_keeps_the_protocol_invariants(monkeypatch):
    # the vote and forward events, whose details an untraced run does not
    # build, are emitted on paths only fault points reach
    scenarios = []
    inner = lockstepsim.sweep.run

    def recording(scenario, **kwargs):
        scenarios.append(scenario)
        return inner(scenario, **kwargs)

    monkeypatch.setattr(lockstepsim.sweep, "run", recording)
    points = fault_sweep(3, 2, 1, 2, "representative").points
    assert len(scenarios) == len(points) + 1  # and the fault-free reference
    for scenario in scenarios:
        check_invariants(scenario, rejected_once=True)


def check_invariants(scenario, rejected_once):
    report = run_unless_unmapped(scenario)
    if report is None:
        pytest.skip("corrupted address its bus cannot serve")
    trace = report.trace
    audit_event_order(trace)
    audit_system_path(trace)
    assert run(scenario, trace_enabled=False).to_json() == report.to_json()

    kinds = [e.kind for e in trace]
    assert report.accepted == sum(len(s["accepted"]) for s in report.sessions)
    assert report.accepted == kinds.count("accept")
    assert report.availability_errors == (report.final_state == "safe_state")
    assert report.availability_errors == kinds.count("availability_error")
    assert report.no_majority_cycles == kinds.count("no_majority")
    # a voted cycle with an outvoted port is masked unless no class won
    dissent = sum(any("0" in row for row in e.detail["matrix"]) for e in trace if e.kind == "vote")
    assert report.masked_fault_cycles == dissent - kinds.count("no_majority")
    rejects = [e for e in trace if e.kind == "reject"]
    assert report.rejected == len(rejects)
    assert {e.detail["context"] for e in rejects} <= {"surplus", "session_running", "no_session"}

    members = set()  # of the open session, from its admission to its release
    for e in trace:
        if e.kind == "accept":
            members.add(e.detail["block"])
        elif e.kind == "release":
            members = set()
        elif e.kind == "exit_read":
            assert int(e.entity) in members, e

    for session in audit_sessions(trace):
        if not session.completed:
            continue
        for b in session.accepted:
            assert (session.sync_reads.get(b, 0), session.exit_reads.get(b, 0)) == (1, 1), b
        if rejected_once:
            assert len(set(session.rejected)) == len(session.rejected)
        for b in session.rejected:
            want = (session.rejected.count(b), 0)
            assert (session.sync_reads.get(b, 0), session.exit_reads.get(b, 0)) == want, b


# the untraced ids keep the name "full_step" of an earlier path, so that
# every id of this oracle stays what it was
@pytest.mark.parametrize("traced", [True, False], ids=["step", "full_step"])
@pytest.mark.parametrize("make, index", [(random_scenario, i) for i in range(200)]
                         + [(wide_scenario, i) for i in range(200)],
                         ids=lambda v: getattr(v, "__name__", v))
def test_stepping_every_cycle_gives_the_events_of_run(make, index, traced):
    scenario = make(index)
    ran = World(scenario)
    try:
        ran.run()
    except UnmappedAddress as exc:
        aborted = str(exc)
    else:
        aborted = None
        assert ran.trace.pop().kind == "halt"  # the end marker run() adds
    stepped = World(scenario, trace_enabled=traced)
    try:
        while stepped.system_state is not SystemState.SAFE_STATE and stepped.cycle < ran.cycle:
            stepped.step()
    except UnmappedAddress as exc:
        assert str(exc) == aborted
    else:
        assert aborted is None
    assert stepped.cycle == ran.cycle
    assert stepped.trace == (ran.trace if traced else [])
    assert (stepped.memory.ls_ram, stepped.memory.io_log) == (ran.memory.ls_ram, ran.memory.io_log)
    assert stepped.monitor.sessions == ran.monitor.sessions
