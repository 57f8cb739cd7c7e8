"""Whole-world behavior: boot, the cycle loop, session lifecycle, lockstep
transparency, and termination rules.

The transparency check uses an independent oracle: a plain sequential walk of
the safe program computes the memory image a single flawless processor would
produce; a fault-free lockstep group must commit exactly that image once,
regardless of group size."""

from __future__ import annotations

import dataclasses
import gc
import json
import weakref
from pathlib import Path

import pytest

from lockstepsim import (
    IO_BASE,
    IO_LAST,
    LS_RAM_BASE,
    LS_RAM_LAST,
    Compute,
    FaultEngine,
    Halt,
    MoonConfig,
    ProcessingBlock,
    Read,
    Scenario,
    SimInternalError,
    SystemState,
    TriggerSource,
    TriggerSP,
    World,
    Write,
    load_scenario_file,
    run,
    scenario_digest,
)
import lockstepsim.monitor as monitor_module
import lockstepsim.scenario as scenario_module
from lockstepsim.faults import FaultKind, FaultSpec
from lockstepsim.monitor import SessionRecord, SyncState
from lockstepsim.scenario import ExternalTrigger
from lockstepsim.sweep import build_masking_scenario
from lockstepsim.trace import audit_event_order, audit_system_path

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "lockstepsim" / "scenarios"


def group_scenario(
    n_blocks=3,
    n=3,
    m=2,
    safe_program=None,
    irq_latency=None,
    triggers=(),
    requester=0,
    seed=0,
    max_cycles=60,
):
    """Blocks idle at compute-1 boundaries; one of them requests a session."""
    programs = []
    for i in range(n_blocks):
        body = [Compute(1)] * 14
        if i == requester and not triggers:
            body[1] = TriggerSP(TriggerSource.APP_TRIGGERED)
        programs.append(body + [Halt()])
    return Scenario(
        name="engine-test",
        seed=seed,
        n_blocks=n_blocks,
        moon=MoonConfig(n_required=n, m_agree=m, t_gather=10, t_exec=20),
        boot_check="pass",
        programs=programs,
        safe_program=safe_program
        or [Write(LS_RAM_BASE, 7), Write(IO_BASE, 99), Compute(2), Read(LS_RAM_BASE)],
        triggers=list(triggers),
        max_cycles=max_cycles,
        irq_latency=irq_latency,
    )


# -- the transparency oracle -----------------------------------------------------


def single_walk(safe_program):
    """What one flawless processor would leave behind."""
    ram, io = {}, []
    for instr in safe_program:
        if isinstance(instr, Write):
            if LS_RAM_BASE <= instr.address <= LS_RAM_LAST:
                ram[instr.address] = instr.data
            elif IO_BASE <= instr.address <= IO_LAST:
                io.append(instr.data)
        # reads and computes leave no trace in the image
    return ram, io


SAFE_PROGRAMS = [
    [Write(LS_RAM_BASE, 7)],
    [Write(LS_RAM_BASE, 7), Read(LS_RAM_BASE)],
    [Write(LS_RAM_BASE, 1), Write(LS_RAM_BASE, 2), Write(LS_RAM_BASE + 4, 3)],
    [Write(IO_BASE, 5), Write(IO_BASE, 6), Compute(3), Write(IO_BASE, 7)],
    [Compute(1), Write(LS_RAM_BASE, 9), Compute(2), Write(IO_BASE, 1), Read(LS_RAM_BASE)],
]


@pytest.mark.parametrize("safe_program", SAFE_PROGRAMS)
@pytest.mark.parametrize("n_blocks,n,m", [(2, 2, 2), (3, 3, 2), (5, 5, 3)])
def test_lockstep_group_commits_one_transparent_image(safe_program, n_blocks, n, m):
    report = run(group_scenario(n_blocks=n_blocks, n=n, m=m, safe_program=safe_program))
    want_ram, want_io = single_walk(safe_program)
    assert report.final_state == "normal_processing"
    assert report.sessions_completed == 1
    assert report.ls_ram == want_ram
    assert report.io_log == want_io
    assert report.masked_fault_cycles == 0  # fault-free: never a disagreement
    assert report.no_majority_cycles == 0


# -- boot -----------------------------------------------------------------------------


def test_boot_emits_configuration_and_state():
    world = World(group_scenario())
    assert world.system_state is SystemState.NORMAL_PROCESSING
    kinds = [(e.kind, e.entity) for e in world.trace]
    assert kinds == [("boot", "system"), ("state_change", "system")]
    assert world.trace[0].detail["result"] == "pass"
    assert world.trace[0].detail["mode"] == "voting"
    assert world.trace[1].detail == {"from": "boot", "to": "normal_processing"}


def test_failed_boot_check_goes_straight_to_safe_state():
    scenario = dataclasses.replace(group_scenario(), boot_check="fail")
    report = run(scenario)
    assert report.final_state == "safe_state"
    assert report.cycles_run == 0
    assert report.end_reason == "safe_state"
    assert report.sessions == []


def test_step_after_safe_state_is_an_internal_error():
    scenario = dataclasses.replace(group_scenario(), boot_check="fail")
    world = World(scenario)
    with pytest.raises(SimInternalError):
        world.step()


def test_session_transition_from_the_wrong_state_is_an_internal_error():
    world = World(group_scenario(triggers=[ExternalTrigger(1, TriggerSource.EXTERNAL_IN_SCOPE)]))
    world.system_state = SystemState.SAFE_PROCESSING_MODE  # out of step with the monitor
    with pytest.raises(SimInternalError, match="illegal system transition safe_processing_mode -> synchronizing"):
        world.step()


def test_monitor_skipping_gathering_is_an_internal_error(monkeypatch):
    world = World(group_scenario(triggers=[ExternalTrigger(1, TriggerSource.EXTERNAL_IN_SCOPE)]))
    monitor = world.monitor

    def request_straight_to_lockstep(cycle, origin, source):  # a monitor bug: idle -> lockstep
        monitor.sync_state = SyncState.LOCKSTEP
        monitor.sessions.append(SessionRecord(gather_cycle=cycle, lockstep_cycle=cycle))
        return True

    monkeypatch.setattr(monitor, "request_sp", request_straight_to_lockstep)
    with pytest.raises(
        SimInternalError,
        match="illegal system transition normal_processing -> safe_processing_mode",
    ):
        world.step()


def test_max_cycles_zero_runs_no_cycle():
    report = run(group_scenario(), max_cycles=0)
    assert report.cycles_run == 0
    assert report.end_reason == "max_cycles"
    assert report.final_state == "normal_processing"


# -- session lifecycle ------------------------------------------------------------------


def test_session_record_matches_trace():
    report = run(group_scenario(n_blocks=4, n=3, m=2))
    assert len(report.sessions) == 1
    session = report.sessions[0]
    assert session["outcome"] == "completed"
    assert session["accepted"] == [0, 1, 2]
    assert session["rejected"] == [3]
    assert session["gather_cycle"] <= session["lockstep_cycle"] <= session["release_cycle"]
    assert report.accepted == 3
    assert report.rejected == 1


def test_rejected_requester_resumes_and_finishes_its_program():
    # the requester's own program writes to system RAM after the trigger, so
    # the write proves the resume really happened at the saved pc
    scenario = group_scenario(n_blocks=3, n=2, m=2, irq_latency=[5, 0, 0])
    requester = scenario.programs[0]
    scenario = dataclasses.replace(
        scenario, programs=(requester[:2] + (Write(0x44, 123),) + requester[3:],) + scenario.programs[1:]
    )
    world = World(scenario)
    world.run()
    session = world.monitor.sessions[0]
    assert session.accepted == [1, 2]
    assert session.rejected == [0]
    assert world.memory.system_ram.get(0x44) == 123
    assert world.system_state is SystemState.NORMAL_PROCESSING


def test_external_trigger_opens_a_session():
    scenario = group_scenario(triggers=[ExternalTrigger(3, TriggerSource.EXTERNAL_IN_SCOPE)])
    report = run(scenario)
    assert report.sessions_completed == 1
    trig = [e for e in report.trace if e.kind == "trigger" and e.phase == 2]
    assert len(trig) == 1 and trig[0].cycle == 3
    assert report.sessions[0]["gather_cycle"] == 3


def test_same_cycle_triggers_are_requested_in_declaration_order():
    """Triggers due in one cycle are requested in declaration order, whatever
    was declared before them: the first opens the session and the second is
    ignored.  The one request latches each block's IRQ after its latency."""
    scenario = group_scenario(
        n_blocks=3,
        n=2,
        m=2,
        irq_latency=[0, 2, 0],
        triggers=[
            ExternalTrigger(9, TriggerSource.EXTERNAL_IN_SCOPE),
            ExternalTrigger(3, TriggerSource.EXTERNAL_OUT_OF_SCOPE),
            ExternalTrigger(3, TriggerSource.EXTERNAL_IN_SCOPE),
        ],
    )
    report = run(scenario)
    requested = [(e.cycle, e.detail["source"]) for e in report.trace if e.phase == 2]
    assert requested == [
        (3, "external_out_of_scope"),
        (3, "external_in_scope"),
        (9, "external_in_scope"),
    ]
    asserted = [e for e in report.trace if e.kind == "irq_assert"]
    assert [(e.cycle, e.detail["source"]) for e in asserted] == [(3, "external_out_of_scope")]
    ignored = [(e.cycle, e.detail["source"]) for e in report.trace if "ignored" in e.detail]
    assert ignored == [(3, "external_in_scope"), (9, "external_in_scope")]
    sync_reads = {e.entity: e.cycle for e in report.trace if e.kind == "sync_read"}
    assert sync_reads == {0: 4, 1: 6, 2: 4}


@pytest.mark.parametrize("offset", range(13))
def test_double_request_interleavings_never_deadlock(offset):
    """Two requesters firing at every relative offset: each request either
    opens its own session or is dropped against the running one; the world
    always quiesces in normal processing."""
    scenario = group_scenario(
        n_blocks=3,
        n=2,
        m=2,
        triggers=[
            ExternalTrigger(2, TriggerSource.EXTERNAL_IN_SCOPE),
            ExternalTrigger(2 + offset, TriggerSource.EXTERNAL_IN_SCOPE),
        ],
        max_cycles=120,
    )
    report = run(scenario)
    assert report.final_state == "normal_processing"
    assert report.end_reason == "all_halted"
    assert 1 <= len(report.sessions) <= 2
    assert all(s["outcome"] == "completed" for s in report.sessions)
    dropped = [
        e for e in report.trace
        if e.kind == "trigger" and e.detail.get("ignored") == "session_active"
    ]
    assert len(report.sessions) + len(dropped) == 2
    audit_event_order(report.trace)
    audit_system_path(report.trace)


@pytest.mark.parametrize("n_blocks,n", [(2, 2), (3, 3)])
def test_back_to_back_sessions_reuse_the_monitor(n_blocks, n):
    scenario = group_scenario(
        n_blocks=n_blocks,
        n=n,
        m=2 if n > 2 else 2,
        triggers=[
            ExternalTrigger(2, TriggerSource.EXTERNAL_IN_SCOPE),
            ExternalTrigger(30, TriggerSource.EXTERNAL_IN_SCOPE),
        ],
        max_cycles=120,
    )
    scenario = dataclasses.replace(
        scenario, programs=[[Compute(1)] * 40 + [Halt()] for _ in range(n_blocks)]
    )
    report = run(scenario)
    assert len(report.sessions) == 2
    assert report.sessions_completed == 2
    assert report.sessions[1]["gather_cycle"] == 30


# -- cycles in which the monitor moves more than one step ------------------------------
#
# Phase 4 runs requests, then entry, then exit, so one cycle can move the
# monitor through two states.  The system path must still use allowed arcs.


def steps_in_cycle(trace, entity, cycle):
    return [
        (e.detail["from"], e.detail["to"])
        for e in trace
        if e.cycle == cycle and e.entity == entity and e.kind == "state_change"
    ]


def test_session_requested_and_admitted_in_one_cycle_passes_through_synchronizing():
    """Blocks 2 and 3 latch the first session's IRQ inside a long Compute and
    issue their sync reads after it ended, in the cycle a second request
    arrives.  The request opens gathering before entry admits them."""
    scenario = group_scenario(
        n_blocks=4,
        n=2,
        m=2,
        triggers=[
            ExternalTrigger(2, TriggerSource.EXTERNAL_IN_SCOPE),
            ExternalTrigger(22, TriggerSource.EXTERNAL_IN_SCOPE),
        ],
        max_cycles=80,
    )
    scenario = dataclasses.replace(
        scenario,
        programs=[[Compute(1)] * 40 + [Halt()] for _ in range(2)]
        + [[Compute(1), Compute(20)] + [Compute(1)] * 20 + [Halt()] for _ in range(2)],
    )
    report = run(scenario)
    second = report.sessions[1]
    assert (second["gather_cycle"], second["lockstep_cycle"]) == (22, 22)
    assert second["accepted"] == [2, 3]
    assert steps_in_cycle(report.trace, "monitor", 22) == [
        ("idle", "gathering"),
        ("gathering", "lockstep"),
    ]
    assert steps_in_cycle(report.trace, "system", 22) == [
        ("normal_processing", "synchronizing"),
        ("synchronizing", "safe_processing_mode"),
    ]
    assert report.sessions_completed == 2
    audit_event_order(report.trace)
    audit_system_path(report.trace)


def test_group_exiting_together_is_released_in_one_arc():
    report = run(group_scenario(n_blocks=4, n=2, m=2))
    release = report.sessions[0]["release_cycle"]
    assert steps_in_cycle(report.trace, "monitor", release) == [
        ("lockstep", "releasing"),
        ("releasing", "idle"),
    ]
    assert steps_in_cycle(report.trace, "system", release) == [
        ("safe_processing_mode", "normal_processing")
    ]


def test_exit_read_and_availability_error_in_one_cycle():
    # block 1 skips the whole safe program and exits while block 0 writes
    scenario = group_scenario(n_blocks=4, n=2, m=2)
    scenario = dataclasses.replace(
        scenario,
        faults=[FaultSpec(target=1, kind=FaultKind.DIVERGENT_PROGRAM, at_safe_instr=0, program=[])],
    )
    report = run(scenario)
    session = report.sessions[0]
    assert session["accepted"] == [0, 1]
    assert session["outcome"] == "no_majority"
    error = next(e for e in report.trace if e.kind == "availability_error")
    assert steps_in_cycle(report.trace, "monitor", error.cycle) == [("lockstep", "releasing")]
    assert steps_in_cycle(report.trace, "system", error.cycle) == [
        ("safe_processing_mode", "safe_state")
    ]
    audit_system_path(report.trace)


# -- a silenced port ------------------------------------------------------------------------
# Each member's vote input is what it put on the bus.  A stuck-silent member
# suppresses its exit read too, so the voter sees an absent port.


def silenced_member_scenario(n_blocks, n, m):
    """Block 0 falls silent at safe instruction 1 and never issues its exit read."""
    scenario = build_masking_scenario(
        n_blocks, n, m, faults=[FaultSpec(target=0, kind=FaultKind.STUCK_SILENT, at_safe_instr=1)]
    )
    return dataclasses.replace(scenario, safe_program=(Write(LS_RAM_BASE, 7), Compute(3)))


def test_comparison_fails_at_the_partners_exit_read_when_a_member_is_silent():
    report = run(silenced_member_scenario(2, 2, 2))
    exit_read = next(e for e in report.trace if e.kind == "exit_read")
    assert (exit_read.cycle, exit_read.entity) == (8, 1)
    vote = [e for e in report.trace if e.kind == "vote"][-1]
    assert (vote.cycle, vote.detail) == (8, {"ports": [0, 1], "matrix": ["10", "01"]})
    assert report.sessions[0]["outcome"] == "no_majority"
    assert report.cycles_run == 8
    assert report.final_state == "safe_state"


def test_majority_outvotes_a_silent_member_at_exit():
    report = run(silenced_member_scenario(4, 3, 2))
    exit_cycles = [e.cycle for e in report.trace if e.kind == "vote" and e.cycle >= 8]
    assert exit_cycles == list(range(8, 17))
    for cycle in exit_cycles:
        vote, forward = [e for e in report.trace if e.cycle == cycle and e.phase == 5]
        assert vote.detail == {"ports": [0, 1, 2], "matrix": ["100", "011", "011"]}
        assert forward.detail == {"block": 1, "tx": "R:FFFF0000:00000000", "stalled": 1}
    assert report.masked_fault_cycles == 9
    assert report.sessions[0]["outcome"] == "exec_timeout"
    assert report.cycles_run == 16


def test_held_exit_reads_are_voted_every_cycle_while_no_block_acts():
    """Without a spare, no block acts after the partners' exit reads at 8:
    the silent member and both partners wait for answers.  The held exit
    reads are still voted in every cycle up to the execution timeout at 16."""
    report = run(silenced_member_scenario(3, 3, 2))
    assert [e.cycle for e in report.trace if e.kind == "vote"] == [4] + list(range(8, 17))
    assert report.masked_fault_cycles == 9
    assert report.sessions[0]["outcome"] == "exec_timeout"


# -- termination --------------------------------------------------------------------------


def test_all_halted_ends_the_run():
    scenario = dataclasses.replace(group_scenario(), programs=[[Compute(2), Halt()] for _ in range(3)])
    report = run(scenario)
    assert report.end_reason == "all_halted"
    assert report.trace[-1].kind == "halt"
    assert report.trace[-1].entity == "system"
    assert report.trace[-1].detail == {"reason": "all_halted"}


def test_request_against_halted_blocks_times_out():
    """All blocks halt before the scheduled request; gathering still opens
    and the timeout path decides the outcome."""
    scenario = group_scenario(
        triggers=[ExternalTrigger(5, TriggerSource.EXTERNAL_IN_SCOPE)],
        max_cycles=40,
    )
    scenario = dataclasses.replace(scenario, programs=[[Halt()] for _ in range(3)])
    report = run(scenario)
    assert report.final_state == "safe_state"
    errors = [e for e in report.trace if e.kind == "availability_error"]
    assert len(errors) == 1
    assert errors[0].detail["reason"] == "gather_timeout"
    assert errors[0].cycle == 5 + scenario.moon.t_gather + 1


def test_execution_budget_lapses_inside_a_safe_compute():
    """fig5's pair is admitted at 5 and computes 50 cycles in the safe
    program; its execution budget of 10 lapses at 16 while both members
    sleep, with no transaction on the voted bus."""
    fig5 = load_scenario_file(str(SCENARIO_DIR / "fig5.scn"))
    scenario = dataclasses.replace(
        fig5,
        safe_program=(Write(LS_RAM_BASE, 1), Compute(50), Read(LS_RAM_BASE)),
        moon=dataclasses.replace(fig5.moon, t_exec=10),
    )
    report = run(scenario)
    errors = [(e.cycle, e.detail) for e in report.trace if e.kind == "availability_error"]
    assert errors == [(16, {"reason": "exec_timeout", "budget": 10})]
    assert report.sessions[0]["lockstep_cycle"] == 5
    assert (report.final_state, report.cycles_run) == ("safe_state", 16)


# -- blocks asleep until they have input --------------------------------------------
# The engine ticks a block only at the end of a sleep (a Compute, a start
# jitter) or when the transaction it issued is answered.


def sleeper_scenario(faults=()):
    """Three blocks in one Compute(50) from cycle 2 to cycle 51; an external
    trigger at cycle 10 latches every IRQ in the middle of it."""
    scenario = group_scenario(
        n_blocks=3,
        n=2,
        m=2,
        triggers=[ExternalTrigger(10, TriggerSource.EXTERNAL_IN_SCOPE)],
        max_cycles=120,
    )
    return dataclasses.replace(
        scenario,
        programs=[[Compute(1), Compute(50)] + [Compute(1)] * 30 + [Halt()] for _ in range(3)],
        moon=MoonConfig(n_required=2, m_agree=2, t_gather=60, t_exec=20),
        faults=faults,
    )


def sync_read_cycles(trace):
    return {e.entity: e.cycle for e in trace if e.kind == "sync_read"}


def test_irq_latched_inside_a_compute_is_read_after_its_last_tick():
    report = run(sleeper_scenario())
    assert sync_read_cycles(report.trace) == {0: 52, 1: 52, 2: 52}
    assert (report.sessions[0]["lockstep_cycle"], report.sessions[0]["accepted"]) == (52, [0, 1])
    audit_event_order(report.trace)


def test_irq_delivered_inside_a_compute_is_read_after_its_last_tick():
    """The IRQ latencies put the latches of blocks 0 and 2 at 17 and 40, in
    the middle of their Compute(50); they are read at its end all the same."""
    scenario = dataclasses.replace(sleeper_scenario(), irq_latency=[7, 0, 30])
    report = run(scenario)
    assert sync_read_cycles(report.trace) == {0: 52, 1: 52, 2: 52}
    assert (report.sessions[0]["lockstep_cycle"], report.sessions[0]["accepted"]) == (52, [0, 1])


def test_a_no_show_keeps_the_latch_raised_before_it():
    """Modelling choice: a no-show ignores only the IRQs raised after it
    activates.  Block 1 turns no-show at 20, after the latch at 10, and still
    shows up at the end of its compute."""
    report = run(sleeper_scenario(faults=[FaultSpec(target=1, kind=FaultKind.NO_SHOW, at_cycle=20)]))
    assert [(e.cycle, e.entity) for e in report.trace if e.kind == "fault_applied"] == [(20, 1)]
    assert sync_read_cycles(report.trace) == {0: 52, 1: 52, 2: 52}
    assert (report.sessions[0]["lockstep_cycle"], report.sessions[0]["accepted"]) == (52, [0, 1])


def test_faults_activated_inside_a_compute_act_at_its_boundary():
    """A no-show before the trigger keeps block 1 out; a start jitter after
    the latch delays block 2's sync read by its delay from the boundary."""
    report = run(
        sleeper_scenario(
            faults=[
                FaultSpec(target=1, kind=FaultKind.NO_SHOW, at_cycle=5),
                FaultSpec(target=2, kind=FaultKind.START_JITTER, at_cycle=20, delay=3),
            ]
        )
    )
    applied = [(e.cycle, e.entity) for e in report.trace if e.kind == "fault_applied"]
    assert applied == [(5, 1), (20, 2)]
    assert sync_read_cycles(report.trace) == {0: 52, 2: 55}
    assert (report.sessions[0]["lockstep_cycle"], report.sessions[0]["accepted"]) == (55, [0, 2])
    assert report.sessions_completed == 1


def late_third_programs():
    """Blocks 0 and 1 compute in steps of 1; block 2 is inside a Compute(12)
    from cycle 2 to 13."""
    return [[Compute(1)] * 40 + [Halt()] for _ in range(2)] + [
        [Compute(1), Compute(12)] + [Compute(1)] * 30 + [Halt()]
    ]


def jitter_scenario(faults):
    """Blocks 0 and 1 form a 2-of-2 group; block 2 is inside a Compute(12)
    from cycle 2 to 13.  The trigger at 5 latches every IRQ; the group runs
    from 6 to 13 without block 2, which takes the latch at its boundary at 14.
    The trigger at 15 opens a second session that runs from 16 to 23, and
    latches block 2 again at 15."""
    scenario = group_scenario(
        n_blocks=3,
        n=2,
        m=2,
        safe_program=[Write(LS_RAM_BASE, 7), Compute(5)],
        triggers=[ExternalTrigger(c, TriggerSource.EXTERNAL_IN_SCOPE) for c in (5, 15)],
        max_cycles=80,
    )
    first = FaultSpec(target=2, kind=FaultKind.START_JITTER, at_cycle=3, delay=5)
    return dataclasses.replace(scenario, programs=late_third_programs(), faults=[first] + faults)


def block_answers(trace, block):
    """(cycle, kind, context) of every sync read and answer of one block."""
    return [
        (e.cycle, e.kind, e.detail.get("context"))
        for e in trace
        if (e.kind == "sync_read" and e.entity == block)
        or (e.kind in ("accept", "reject") and e.detail["block"] == block)
    ]


def test_an_irq_latched_during_a_start_jitter_is_taken_after_the_sync_read():
    """The jitter of 5 from the boundary at 14 puts the sync read at 19; the
    latch at 15 stays pending and is taken, without jitter, when the
    rejection is answered at 20."""
    report = run(jitter_scenario([]))
    assert [e.cycle for e in report.trace if e.kind == "irq_assert"] == [5, 15]
    assert block_answers(report.trace, 2) == [
        (19, "sync_read", None),
        (19, "reject", "session_running"),
        (20, "sync_read", None),
        (20, "reject", "session_running"),
    ]
    assert [s["accepted"] for s in report.sessions] == [[0, 1], [0, 1]]


def test_a_start_jitter_activated_during_another_delays_the_next_latch():
    """A second jitter of 2 at cycle 16 leaves the read at 19 as it was and
    delays the read of the latch taken at 20 to 22."""
    second = FaultSpec(target=2, kind=FaultKind.START_JITTER, at_cycle=16, delay=2)
    report = run(jitter_scenario([second]))
    applied = [(e.cycle, e.entity) for e in report.trace if e.kind == "fault_applied"]
    assert applied == [(3, 2), (16, 2)]
    assert block_answers(report.trace, 2) == [
        (19, "sync_read", None),
        (19, "reject", "session_running"),
        (22, "sync_read", None),
        (22, "reject", "session_running"),
    ]


def test_a_latch_raised_in_the_cycle_of_a_sync_read_outlives_the_session():
    """Modelling choice: an IRQ latched in the cycle a block issues its sync
    read stays latched through the session it joins.  Block 2 leaves its
    Compute(12) at 14 and reads on the first session's latch; the second
    request, also at 14, latches it again.  Admitted at 15 and released at
    22, it reads again on that latch at 23, when no session is open."""
    scenario = group_scenario(
        n_blocks=3,
        n=2,
        m=2,
        safe_program=[Write(LS_RAM_BASE, 7), Compute(5)],
        triggers=[ExternalTrigger(c, TriggerSource.EXTERNAL_IN_SCOPE) for c in (5, 14)],
        max_cycles=80,
    )
    report = run(dataclasses.replace(scenario, programs=late_third_programs()))
    assert [e.cycle for e in report.trace if e.kind == "irq_assert"] == [5, 14]
    assert block_answers(report.trace, 2) == [
        (14, "sync_read", None),
        (15, "accept", None),
        (23, "sync_read", None),
        (23, "reject", "no_session"),
    ]
    assert [(s["accepted"], s["release_cycle"]) for s in report.sessions] == [([0, 1], 13), ([0, 2], 22)]


RUN = (1, 3, 2, 5, 1, 1)  # a run of computes from cycle 1 to 13


@pytest.mark.parametrize("trigger", range(1, 1 + sum(RUN)))
def test_a_latch_inside_a_run_of_computes_is_read_at_its_next_boundary(monkeypatch, trigger):
    """Each block sleeps through the whole run from its tick at 1, and the
    latch of the trigger's cycle wakes it at the run's first boundary after
    that cycle, 1 + RUN[0] + ... + RUN[k-1], to read with saved pc k."""
    boundary, pc = next(
        (1 + sum(RUN[:k]), k) for k in range(1, len(RUN) + 1) if 1 + sum(RUN[:k]) > trigger
    )
    scenario = dataclasses.replace(
        group_scenario(triggers=[ExternalTrigger(trigger, TriggerSource.EXTERNAL_IN_SCOPE)]),
        programs=[[Compute(d) for d in RUN] + [Halt()] for _ in range(3)],
    )
    world, ticks = run_counting_ticks(monkeypatch, scenario)
    assert sync_read_cycles(world.trace) == {0: boundary, 1: boundary, 2: boundary}
    assert world.monitor.sessions[0].lockstep_cycle == boundary
    assert all(t[:2] == [1, boundary] for t in ticks.values())
    assert [b.saved_pc for b in world.blocks] == [None] * 3  # resumed at release
    assert world.monitor.sessions[0].outcome == "completed"
    halts = [e.cycle for e in world.trace if e.kind == "halt" and e.entity != "system"]
    # from its resume, each block computes the rest of the run, then halts
    release = world.monitor.sessions[0].release_cycle
    assert halts == [release + 1 + sum(RUN[pc:])] * 3


def run_counting_ticks(monkeypatch, scenario):
    """Run ``scenario``; return its world and the cycles each block was ticked in."""
    world = World(scenario)
    ticks = {b: [] for b in range(scenario.n_blocks)}
    tick = ProcessingBlock.tick

    def counted(self, cycle):
        ticks[self.block_id].append(world.cycle)
        return tick(self, cycle)

    monkeypatch.setattr(ProcessingBlock, "tick", counted)
    world.run()
    return world, ticks


def test_blocks_sleep_through_their_computes(monkeypatch):
    """Two computes in a row are one sleep, from the tick at 1 to the halt at 20,001."""
    scenario = dataclasses.replace(
        group_scenario(max_cycles=30_000),
        programs=[[Compute(10_000), Compute(10_000), Halt()] for _ in range(3)],
    )
    world, ticks = run_counting_ticks(monkeypatch, scenario)
    assert (world.end_reason, world.cycle) == ("all_halted", 20_001)
    assert ticks == {b: [1, 20_001] for b in range(3)}


def test_halted_and_silenced_blocks_are_not_ticked_again(monkeypatch):
    """The spare, block 3, halts at cycle 4 when it resumes from its
    rejection.  Block 0 falls silent at its first safe write, issued at 4,
    and is not ticked again while the session runs into its execution
    timeout at 16.  Its partners sleep through their idle computes from 1
    until the latch of cycle 2 cuts that sleep at 3, where they read; they
    compute and issue their exit reads at 8."""
    scenario = build_masking_scenario(
        4, 3, 2, faults=[FaultSpec(target=0, kind=FaultKind.STUCK_SILENT, at_safe_instr=0)]
    )
    scenario = dataclasses.replace(
        scenario,
        safe_program=(Write(LS_RAM_BASE, 7), Compute(3)),
        programs=scenario.programs[:3] + ((Compute(2), Halt()),),
    )
    world, ticks = run_counting_ticks(monkeypatch, scenario)
    assert ticks == {0: [1, 2, 3, 4], 1: [1, 3, 4, 5, 8], 2: [1, 3, 4, 5, 8], 3: [1, 3, 4]}
    assert world.monitor.sessions[0].outcome == "exec_timeout"
    assert world.cycle == 16


@pytest.mark.parametrize("noise", [0.0, 0.05])
def test_step_runs_on_due_cycles_and_soak_noise_only_on_upset_cycles(monkeypatch, noise):
    """Most cycles of the sleeper run have no input.  ``run()`` calls
    ``World.step`` on the due cycles only, so a cycle it does not step emits
    nothing; ``on_cycle_start`` runs only on the cycles an upset falls due,
    and each upset drawn there is emitted in phase 1 of its own cycle,
    sleeping blocks or not."""
    scenario = dataclasses.replace(sleeper_scenario(), noise_flip_probability=noise)
    world = World(scenario)
    steps, draws, armed = [], [], []
    step, cycle_start = World.step, FaultEngine.on_cycle_start

    def counted_step(self):
        assert self.cycle + 1 >= self._due  # only a due cycle is stepped
        steps.append(self.cycle + 1)
        step(self)

    def counted_cycle_start(self, cycle, blocks):
        assert self.next_cycle == cycle  # due now, and not called before
        draws.append(cycle)
        emitted = len(self.trace)
        cycle_start(self, cycle, blocks)
        armed.extend((cycle, e.entity, e.detail["bit"]) for e in self.trace[emitted:])

    monkeypatch.setattr(World, "step", counted_step)
    monkeypatch.setattr(FaultEngine, "on_cycle_start", counted_cycle_start)
    world.run()
    cycles = list(range(1, world.cycle + 1))
    assert world.cycle > 52 and steps == sorted(set(steps)) and len(steps) < len(cycles)
    *events, halt = world.trace
    assert halt.kind == "halt"
    assert {e.cycle for e in events} <= {0, *steps}  # boot events fall on cycle 0
    assert draws == sorted(set(draws))
    assert bool(noise) == (0 < len(draws) < len(cycles) / 2)
    upsets = [e for e in world.trace if e.detail.get("window") == "stochastic"]
    assert all(e.phase == 1 for e in upsets)
    assert [(e.cycle, e.entity, e.detail["bit"]) for e in upsets] == armed
    assert bool(noise) == any(2 < e.cycle < 52 and e.cycle != 10 for e in upsets)


@pytest.mark.parametrize("bit", [16, 31])  # into system RAM, out of every region
def test_agreeing_corrupt_addresses_are_a_modelled_bus_error(bit):
    # two of three ports flip the same address bit of the first safe write
    faults = [
        FaultSpec(target=t, kind=FaultKind.BIT_FLIP_ADDRESS, at_safe_instr=0, bit=bit)
        for t in (1, 2)
    ]
    report = run(build_masking_scenario(3, 3, 2, faults=faults))
    forward = [e for e in report.trace if e.kind == "forward"]
    tx = f"W:{LS_RAM_BASE ^ (1 << bit):08X}:00000007"
    assert forward[-1].detail == {"block": 1, "tx": tx, "unmapped": 1}
    errors = [e for e in report.trace if e.kind == "availability_error"]
    assert [(e.cycle, e.detail) for e in errors] == [(forward[-1].cycle, {"reason": "unmapped_address"})]
    assert report.final_state == "safe_state"
    assert report.sessions[0]["outcome"] == "unmapped_address"
    assert report.ls_ram == {} and report.io_log == []
    audit_system_path(report.trace)


def test_max_cycles_caps_the_run():
    scenario = dataclasses.replace(
        group_scenario(),
        programs=[[Compute(1)] * 200 for _ in range(3)],  # never halts
        triggers=(),
    )
    report = run(scenario, max_cycles=17)
    assert report.cycles_run == 17
    assert report.end_reason == "max_cycles"


def test_open_session_at_cycle_cap_is_reported_incomplete():
    scenario = group_scenario(
        triggers=[ExternalTrigger(2, TriggerSource.EXTERNAL_IN_SCOPE)]
    )
    scenario = dataclasses.replace(scenario, programs=[[Compute(1)] * 200 for _ in range(3)])
    report = run(scenario, max_cycles=4)  # stops mid-session
    assert report.sessions[0]["outcome"] == "incomplete"


def test_safe_state_is_absorbing_and_final():
    report = run(load_scenario_file(str(SCENARIO_DIR / "timeout.scn")))
    assert report.final_state == "safe_state"
    last_real = report.trace[-2]
    assert last_real.kind == "state_change" and last_real.detail["to"] == "safe_state"
    assert report.trace[-1].kind == "halt"  # only the terminal marker follows


# -- seeding --------------------------------------------------------------------------------


def test_seed_defaults_to_scenario_and_override_wins():
    scenario = group_scenario(seed=42)
    assert run(scenario).effective_seed == 42
    assert run(scenario, seed=99).effective_seed == 99


def test_identical_runs_share_identical_session_history():
    scenario = group_scenario(n_blocks=4, n=3, m=2)
    a = run(scenario)
    b = run(scenario)
    assert a.sessions == b.sessions
    assert a.memory_digest == b.memory_digest


def test_scenario_digest_is_computed_on_first_read_only(monkeypatch):
    """Once per ``Scenario`` value, however many reports of it are serialized."""
    calls = []
    serialize = scenario_module.serialize_scenario

    def counting_serialize(scenario):
        calls.append(scenario)
        return serialize(scenario)

    monkeypatch.setattr(scenario_module, "serialize_scenario", counting_serialize)
    scenario = load_scenario_file(str(SCENARIO_DIR / "fig5.scn"))
    first, second = run(scenario), run(scenario)
    assert calls == []
    text = first.to_json()
    assert len(calls) == 1
    assert second.to_json() == first.to_json() == text
    assert json.loads(text)["scenario_hash"] == scenario_digest(scenario)
    assert calls == [scenario]
    again = dataclasses.replace(scenario)  # an equal value of its own
    assert run(again).scenario_hash == first.scenario_hash
    assert len(calls) == 2


def test_the_report_digest_is_of_the_scenario_that_ran():
    scenario = load_scenario_file(str(SCENARIO_DIR / "fig5.scn"))
    report = run(scenario)
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.name = "renamed"
    with pytest.raises(dataclasses.FrozenInstanceError):
        scenario.seed = 999
    assert (report.scenario_name, report.effective_seed) == ("fig5", 1)
    assert report.scenario_hash == scenario_digest(scenario)


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("name", ["fig5", "masking_2oo3", "soak_noise", "exit_timeout"])
def test_a_finished_world_is_freed_by_reference_counting(name, traced):
    """No part of a world refers back to it, so a finished world and its
    trace do not wait for the cyclic collector."""
    world = World(load_scenario_file(str(SCENARIO_DIR / f"{name}.scn")), trace_enabled=traced)
    gc.disable()
    try:
        world.run()
        ref = weakref.ref(world)
        del world
        assert ref() is None
    finally:
        gc.enable()


# -- structural audits over every bundled scenario ----------------------------------------------


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.scn")), ids=lambda p: p.stem)
def test_bundled_scenario_traces_are_well_formed(path):
    report = run(load_scenario_file(str(path)))
    audit_event_order(report.trace)
    states = audit_system_path(report.trace)
    assert states[0] == "boot"
    assert report.cycles_run <= load_scenario_file(str(path)).max_cycles


# -- an untraced run builds nothing that only a trace reads -------------------------------------


def no_vote_result(*args, **kwargs):
    raise AssertionError("an untraced vote built a VoteResult")


@pytest.mark.parametrize(
    "name", [p.name for p in sorted(SCENARIO_DIR.glob("*.scn"))] + ["masking_point"]
)
def test_an_untraced_run_builds_no_vote_result(name, monkeypatch):
    if name == "masking_point":
        fault = FaultSpec(1, FaultKind.BIT_FLIP_DATA, at_safe_instr=0, bit=5)
        scenario = build_masking_scenario(4, 3, 2, (fault,))
    else:
        scenario = load_scenario_file(str(SCENARIO_DIR / name))
    monkeypatch.setattr(monitor_module, "VoteResult", no_vote_result)
    report = run(scenario, trace_enabled=False)
    assert report.trace == []
    if name == "masking_point":
        assert report.masked_fault_cycles > 0  # it voted, and outvoted block 1


def test_only_the_blocks_a_fetch_fault_can_reach_get_the_fetch_hook():
    faults = (
        FaultSpec(0, FaultKind.BIT_FLIP_DATA, at_safe_instr=1, bit=2),
        FaultSpec(1, FaultKind.NO_SHOW, at_cycle=1),
        FaultSpec(2, FaultKind.DIVERGENT_PROGRAM, at_cycle=3, program=(Write(LS_RAM_BASE, 5),)),
        FaultSpec(3, FaultKind.START_JITTER, at_cycle=1, delay=2),
        FaultSpec(4, FaultKind.BIT_FLIP_ADDRESS, at_cycle=2, bit=3),
    )
    world = World(build_masking_scenario(5, 3, 2, faults))
    hooked = [b.block_id for b in world.blocks if b.safe_fetch_hook is not None]
    assert hooked == [0, 2]
    assert world.fault_engine.fetch_targets == {0, 2}


def test_the_worlds_of_the_last_scenario_built_share_its_run_tables():
    scenario = build_masking_scenario(4, 3, 2, faults=())  # its programs were given as tuples
    first, second = World(scenario), World(scenario)
    assert all(a._cum is b._cum for a, b in zip(first.blocks, second.blocks))
