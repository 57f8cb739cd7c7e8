#!/usr/bin/env python3
"""Annotated walkthrough of one on-demand lockstep session.

Runs the bundled ``fig5.scn`` scenario — three blocks, a 2-of-2 group, one
late requester — and narrates every trace event in plain language, grouped
by cycle.  Good first contact with the simulator's event vocabulary.

Usage::

    python3 demos/walkthrough_session.py [path/to/scenario.scn]
"""

from __future__ import annotations

import sys
from importlib import resources

from lockstepsim import load_scenario_file, run


def _who(entity) -> str:
    return f"block {entity}" if isinstance(entity, int) else str(entity)


def narrate(event) -> str:
    """One plain-language sentence for a trace event."""
    d = event.detail
    kind = event.kind
    if kind == "boot":
        return (
            f"self-check {d['result']}: {d['n_required']} ports must rendezvous, "
            f"{d['m_agree']} must agree ({d['mode']} mode)"
        )
    if kind == "trigger":
        return f"{_who(event.entity)} raises a session request ({d['source']})"
    if kind == "irq_assert":
        return f"monitor latches the request from block {d['origin']} and interrupts every block"
    if kind == "irq_deassert":
        return "join window closed; the interrupt line drops"
    if kind == "sync_read":
        return f"{_who(event.entity)} reads the sync register at {d['address']} and stalls"
    if kind == "exit_read":
        return f"{_who(event.entity)} reads the sync register again, asking to leave"
    if kind == "accept":
        return f"monitor admits block {d['block']} into the group (response 0x01)"
    if kind == "reject":
        return f"monitor turns block {d['block']} away: {d['context']} (response 0x00)"
    if kind == "vote":
        return f"ports {d['ports']} compare outputs; agreement matrix {d['matrix']}"
    if kind == "forward":
        if "stalled" in d:
            return f"majority exit read {d['tx']} waits at the monitor for the whole group"
        if "unmapped" in d:
            return f"majority transaction {d['tx']} targets an address the voted bus cannot serve"
        return f"majority transaction {d['tx']} commits for the group (reply {d['response']})"
    if kind == "release":
        return f"blocks {d['blocks']} released together; private contexts restored"
    if kind == "fault_applied":
        extras = ", ".join(f"{k}={v}" for k, v in d.items() if k != "fault")
        return f"fault '{d['fault']}' takes effect on {_who(event.entity)} ({extras})"
    if kind == "no_majority":
        return "no set of ports large enough agrees — the vote is lost"
    if kind == "availability_error":
        return f"availability error: {d['reason']}"
    if kind == "state_change":
        return f"{_who(event.entity)}: {d['from']} -> {d['to']}"
    if kind == "halt":
        if event.entity == "system":
            return f"system stops ({d['reason']})"
        return f"{_who(event.entity)} halts at the end of its program"
    return f"{_who(event.entity)} {kind} {d}"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv:
        path = argv[0]
    else:
        path = str(resources.files("lockstepsim") / "scenarios" / "fig5.scn")
    scenario = load_scenario_file(path)
    report = run(scenario)

    title = f"walkthrough: {scenario.name}"
    print(title)
    print("=" * len(title))
    print(
        f"{scenario.n_blocks} blocks; a session needs {scenario.moon.n_required} of them, "
        f"{scenario.moon.m_agree} must agree; budgets: gather {scenario.moon.t_gather}, "
        f"execute {scenario.moon.t_exec} cycles"
    )
    print()

    last_cycle = None
    for event in report.trace:
        if event.cycle != last_cycle:
            print(f"cycle {event.cycle:>3}")
            last_cycle = event.cycle
        print(f"  phase {event.phase} | {narrate(event)}")

    print()
    print(f"final state:   {report.final_state} ({report.end_reason}, {report.cycles_run} cycles)")
    for i, s in enumerate(report.sessions):
        print(
            f"session {i}:     gather at {s['gather_cycle']}, lockstep at "
            f"{s['lockstep_cycle']}, release at {s['release_cycle']}; "
            f"accepted {s['accepted']}, rejected {s['rejected']} ({s['outcome']})"
        )
    ram = ", ".join(f"{a}: {v}" for a, v in report.to_dict()["ls_ram"].items()) or "empty"
    print(f"shared memory: {ram}")
    print(f"output log:    {report.io_log or 'empty'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
