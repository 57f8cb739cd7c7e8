"""Protocol invariants on generated scenarios.

Every scenario the trace-identity corpus draws from ``random_scenario`` is
run with the trace on and off, and each run must keep the protocol's
invariants: events in order, only allowed system-state arcs, a report that
does not depend on the trace, counters that agree with the session records
and the trace, and the sync-register read counts of every completed session.
Runs the identity corpus leaves out (a corrupted address its bus cannot
serve) are skipped.
"""

from __future__ import annotations

import pytest

from generated import random_scenario, run_unless_unmapped
from lockstepsim import audit_event_order, audit_sessions, run
from lockstepsim.trace import audit_system_path


@pytest.mark.parametrize("index", range(200))
def test_generated_run_keeps_the_protocol_invariants(index):
    scenario = random_scenario(index)
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

    for session in audit_sessions(trace):
        if not session.completed:
            continue
        for b in session.accepted:
            assert (session.sync_reads.get(b, 0), session.exit_reads.get(b, 0)) == (1, 1), b
        for b in session.rejected:
            assert (session.sync_reads.get(b, 0), session.exit_reads.get(b, 0)) == (1, 0), b
