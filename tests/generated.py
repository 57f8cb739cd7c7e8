"""Seeded random scenarios shared by the trace-identity corpus and the
protocol-invariant tests.

``random_scenario(index)`` draws one scenario from ``random.Random(index)``:
a group from ``GROUPS`` with up to one spare block, short random normal and
safe programs, external triggers, mixed faults (a corrupted address is
sometimes copied onto a second port so two ports can agree on it), IRQ
latencies, random selection and soak noise.  The identity test pins the hash
of indexes 0-199, so any change here that moves a drawn value moves it.

``wide_scenario(index)`` widens ``random_scenario(index)`` from a second
``Random``: spare blocks that trigger and arrive late, more external
triggers and random selection on half the indexes, so that every reject
context (``surplus``, ``session_running``, ``no_session``) and random
surplus admissions occur often.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Optional

from lockstepsim import (
    IO_BASE,
    LS_RAM_BASE,
    Compute,
    FaultKind,
    FaultSpec,
    Halt,
    MoonConfig,
    Read,
    Report,
    Scenario,
    TriggerSource,
    TriggerSP,
    UnmappedAddress,
    Write,
    run,
)
from lockstepsim.block import EXTERNAL_SOURCES
from lockstepsim.faults import INSTRUCTION_WINDOW_KINDS
from lockstepsim.scenario import ExternalTrigger, Flags
from lockstepsim.sweep import DIVERGENT_STREAM

GROUPS = ((2, 2), (3, 2), (3, 3), (5, 3), (5, 4))
FLIP_BITS = (0, 3, 5, 16, 31)
EXTERNAL = sorted(EXTERNAL_SOURCES, key=lambda s: s.value)


def random_scenario(index: int) -> Scenario:
    rng = random.Random(index)
    n_required, m_agree = rng.choice(GROUPS)
    n_blocks = n_required + rng.randint(0, 1)
    safe = []
    for _ in range(rng.randint(1, 5)):
        pick = rng.random()
        if pick < 0.4:
            safe.append(Write(LS_RAM_BASE + rng.randrange(4), rng.randrange(100)))
        elif pick < 0.55:
            safe.append(Write(IO_BASE, rng.randrange(100)))
        elif pick < 0.8:
            safe.append(Read(LS_RAM_BASE + rng.randrange(4)))
        else:
            safe.append(Compute(rng.randint(1, 3)))
    programs = [normal_program(rng, b == 0) for b in range(n_blocks)]
    triggers = external_triggers(rng, rng.randint(0, 2), 40)
    faults = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(list(FaultKind))
        extra = {"target": rng.randrange(n_blocks), "kind": kind}
        if kind in INSTRUCTION_WINDOW_KINDS and rng.random() < 0.6:
            extra["at_safe_instr"] = rng.randrange(len(safe))
        else:
            extra["at_cycle"] = rng.randint(0, 30)
        if kind in (FaultKind.BIT_FLIP_DATA, FaultKind.BIT_FLIP_ADDRESS):
            extra["bit"] = rng.choice(FLIP_BITS)
        elif kind is FaultKind.START_JITTER:
            extra["delay"] = rng.randint(1, 6)
        elif kind is FaultKind.DIVERGENT_PROGRAM:
            extra["program"] = DIVERGENT_STREAM
        faults.append(FaultSpec(**extra))
        if kind is FaultKind.BIT_FLIP_ADDRESS and rng.random() < 0.5:
            # the same upset on a second port, so two ports can agree on it
            faults.append(FaultSpec(**dict(extra, target=(extra["target"] + 1) % n_blocks)))
    return Scenario(
        name=f"identity-{index}",
        seed=index,
        n_blocks=n_blocks,
        moon=MoonConfig(n_required, m_agree, t_gather=rng.randint(4, 12), t_exec=rng.randint(8, 20)),
        boot_check="pass",
        programs=programs,
        safe_program=safe,
        triggers=triggers,
        faults=faults,
        max_cycles=120,
        flags=Flags(random_selection=rng.random() < 0.3),
        irq_latency=[rng.randint(0, 3) for _ in range(n_blocks)] if rng.random() < 0.5 else None,
        noise_flip_probability=0.02 if rng.random() < 0.2 else 0.0,
    )


def normal_program(rng: random.Random, requester: bool) -> list:
    """A short normal program; a requester always triggers where a
    non-requester draws whether to."""
    prog = []
    for _ in range(rng.randint(3, 8)):
        pick = rng.random()
        if pick < 0.5:
            prog.append(Compute(rng.randint(1, 6)))
        elif pick < 0.7:
            prog.append(Write(rng.randrange(16), rng.randrange(100)))
        elif pick < 0.85:
            prog.append(Read(rng.randrange(16)))
        elif requester or rng.random() < 0.3:
            prog.append(TriggerSP(TriggerSource.APP_TRIGGERED))
    prog.append(Halt())
    return prog


def external_triggers(rng: random.Random, count: int, last_cycle: int) -> list:
    return sorted(
        (ExternalTrigger(rng.randint(1, last_cycle), rng.choice(EXTERNAL)) for _ in range(count)),
        key=lambda t: t.cycle,
    )


def wide_scenario(index: int) -> Scenario:
    """``random_scenario(index)`` plus 1 to ``n_required + 2`` spare blocks
    with IRQ latencies up to 6, up to six more external triggers, and random
    selection on half the indexes.  The base scenario's draws are untouched."""
    base = random_scenario(index)
    rng = random.Random(1_000_000 + index)
    extra = rng.randint(1, base.moon.n_required + 2)
    latencies = base.irq_latency or (0,) * base.n_blocks
    return replace(
        base,
        name=f"wide-{index}",
        n_blocks=base.n_blocks + extra,
        programs=base.programs + tuple(normal_program(rng, rng.random() < 0.5) for _ in range(extra)),
        triggers=sorted(
            base.triggers + tuple(external_triggers(rng, rng.randint(0, 6), 80)), key=lambda t: t.cycle
        ),
        max_cycles=160,
        flags=Flags(random_selection=rng.random() < 0.5),
        irq_latency=latencies + tuple(rng.randint(0, 6) for _ in range(extra)),
    )


def run_unless_unmapped(scenario: Scenario, **kwargs) -> Optional[Report]:
    """The report of one run, or None when the run corrupts an address into a
    region its bus cannot serve: on the system bus that aborts with
    ``UnmappedAddress``, on the voted bus it ends in the safe state with the
    session outcome ``unmapped_address``."""
    try:
        report = run(scenario, **kwargs)
    except UnmappedAddress:
        return None
    if any(s["outcome"] == "unmapped_address" for s in report.sessions):
        return None
    return report
