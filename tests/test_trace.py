"""Trace serialization, ordering audits, and session reconstruction."""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import pytest

from lockstepsim import (
    TraceEvent,
    IOFailure,
    audit_event_order,
    audit_sessions,
    emit_trace,
    load_scenario_file,
    run,
    write_trace,
)
from lockstepsim.sweep import build_rendezvous_scenario
from lockstepsim.trace import (
    ALLOWED_SYSTEM_ARCS,
    EVENT_KINDS,
    Trace,
    audit_system_path,
    entity_order,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "lockstepsim" / "scenarios"


def fig5_report():
    return run(load_scenario_file(str(SCENARIO_DIR / "fig5.scn")))


# -- the sink ----------------------------------------------------------------------


def test_an_untraced_sink_records_nothing():
    trace = Trace(False)
    trace.emit(3, 4, "monitor", "irq_deassert", {})
    assert trace == [] and not trace.traced


def test_a_traced_sink_appends_one_event_with_the_given_fields():
    trace = Trace()
    detail = {"source": "app_timed"}
    trace.emit(5, 3, 2, "trigger", detail)
    assert trace == [TraceEvent(5, 3, 2, "trigger", detail)]
    assert trace[0].detail is detail


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.stem)
def test_an_untraced_run_reports_an_empty_trace(path):
    scenario = load_scenario_file(str(path))
    assert run(scenario, trace_enabled=False).trace == []
    assert run(scenario).trace != []


# -- event ordering ----------------------------------------------------------------


def test_entity_order_blocks_then_monitor_then_system():
    assert entity_order(0) < entity_order(7) < entity_order("monitor") < entity_order("system")


def test_live_trace_passes_the_order_audit():
    audit_event_order(fig5_report().trace)


def test_order_audit_rejects_a_swap():
    events = list(fig5_report().trace)
    events[3], events[10] = events[10], events[3]
    with pytest.raises(AssertionError):
        audit_event_order(events)


def test_order_audit_rejects_unknown_kinds_and_phases():
    with pytest.raises(AssertionError):
        audit_event_order([TraceEvent(1, 1, 0, "teleport", {})])
    with pytest.raises(AssertionError):
        audit_event_order([TraceEvent(1, 8, 0, "halt", {})])


def test_every_emitted_kind_is_declared():
    kinds = {e.kind for e in fig5_report().trace}
    assert kinds <= EVENT_KINDS


# -- serialization -----------------------------------------------------------------------


def test_empty_trace_serializes_to_header_or_nothing():
    assert emit_trace([], "jsonl") == b""
    assert emit_trace([], "csv") == b"cycle,phase,entity,kind,detail\n"


def test_unknown_format_rejected():
    with pytest.raises(ValueError):
        emit_trace([], "xml")


def test_jsonl_records_have_fixed_key_order():
    events = fig5_report().trace
    for line in emit_trace(events, "jsonl").decode().splitlines():
        assert list(json.loads(line)) == sorted(json.loads(line))
        assert line.startswith('{"cycle":')


def test_jsonl_round_trips_the_records():
    events = fig5_report().trace
    lines = emit_trace(events, "jsonl").decode().splitlines()
    assert len(lines) == len(events)
    for line, ev in zip(lines, events):
        record = {"cycle": ev.cycle, "phase": ev.phase, "entity": ev.entity, "kind": ev.kind}
        assert json.loads(line) == dict(record, detail=ev.detail)


def test_csv_has_one_row_per_event_plus_header():
    events = fig5_report().trace
    rows = emit_trace(events, "csv").decode().splitlines()
    assert rows[0] == "cycle,phase,entity,kind,detail"
    assert len(rows) == len(events) + 1


def test_serialization_is_repeatable():
    a = fig5_report()
    b = fig5_report()
    for fmt in ("jsonl", "csv"):
        assert emit_trace(a.trace, fmt) == emit_trace(b.trace, fmt)


def test_write_trace_and_read_back(tmp_path):
    events = fig5_report().trace
    path = tmp_path / "out.jsonl"
    write_trace(events, str(path))
    assert path.read_bytes() == emit_trace(events, "jsonl")


def test_write_trace_wraps_os_errors(tmp_path):
    with pytest.raises(IOFailure):
        write_trace([], str(tmp_path))  # a directory is not writable as a file


# -- session reconstruction ---------------------------------------------------------------


def test_fig5_session_audit():
    sessions = audit_sessions(fig5_report().trace)
    assert len(sessions) == 1
    s = sessions[0]
    assert s.completed
    assert s.accepted == [1, 2]
    assert s.rejected == [0]
    assert s.sync_reads == {0: 1, 1: 1, 2: 1}
    assert s.exit_reads == {1: 1, 2: 1}
    assert s.gather_cycle < s.lockstep_cycle < s.release_cycle


def test_aborted_session_audit_is_open_ended():
    report = run(load_scenario_file(str(SCENARIO_DIR / "timeout.scn")))
    sessions = audit_sessions(report.trace)
    assert len(sessions) == 1
    assert not sessions[0].completed
    assert sessions[0].release_cycle is None


def assert_records_match_audit(report):
    """The monitor's session records agree with the sessions rebuilt from
    the trace on cycles, members and rejections."""
    audit = audit_sessions(report.trace)
    assert len(report.sessions) == len(audit)
    for record, seen in zip(report.sessions, audit):
        cycles = (record["gather_cycle"], record["lockstep_cycle"], record["release_cycle"])
        assert cycles == (seen.gather_cycle, seen.lockstep_cycle, seen.release_cycle)
        assert record["accepted"] == seen.accepted
        assert sorted(record["rejected"]) == sorted(seen.rejected)


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.stem)
def test_session_records_match_the_trace_audit(path, seed):
    assert_records_match_audit(run(load_scenario_file(str(path)), seed=seed))


def test_session_records_match_the_trace_audit_over_an_arrival_sweep():
    # the points of arrival_sweep(3, 2, 2, latency_max=5)
    for latencies in itertools.product(range(6), repeat=3):
        assert_records_match_audit(run(build_rendezvous_scenario(3, 2, 2, latencies)))


def test_empty_trace_audits_to_no_sessions():
    assert audit_sessions([]) == []


# -- system state path ------------------------------------------------------------------------


def test_fig5_system_path():
    assert audit_system_path(fig5_report().trace) == [
        "boot",
        "normal_processing",
        "synchronizing",
        "safe_processing_mode",
        "normal_processing",
    ]


def test_timeout_system_path_ends_in_safe_state():
    report = run(load_scenario_file(str(SCENARIO_DIR / "timeout.scn")))
    path = audit_system_path(report.trace)
    assert path[-1] == "safe_state"


def test_system_path_audit_rejects_illegal_arcs():
    events = [
        TraceEvent(0, 7, "system", "state_change", {"from": "boot", "to": "normal_processing"}),
        TraceEvent(1, 7, "system", "state_change", {"from": "normal_processing", "to": "safe_state"}),
    ]
    with pytest.raises(AssertionError):
        audit_system_path(events)


def test_safe_state_is_a_sink_in_the_arc_set():
    assert not any(a == "safe_state" for a, _ in ALLOWED_SYSTEM_ARCS)
