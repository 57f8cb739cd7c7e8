"""Seeded scenario generators for the two long workloads.

Both return the scenario as YAML text, which the benchmark loads through
``load_scenario`` in its set-up, together with the facts the benchmark
checks the run against.  The same seed always gives the same text, and the
amount of simulated work does not depend on the seed: only the placement of
instructions, triggers and values does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Tuple

# long_idle: three blocks run the same program of long computes, so they
# reach every instruction boundary together; three rare external triggers
# each gather all of them into one 2-of-3 voted session.
IDLE_BLOCKS = 3
IDLE_COMPUTES = 20
IDLE_TOTAL_COMPUTE = 100_000
IDLE_MIN_COMPUTE = 2_000
IDLE_SESSIONS = 3

# long_soak: five blocks in a 3-of-5 voted group, each writing system RAM
# between computes, with a session every ~2000 cycles and seeded upsets.
SOAK_BLOCKS = 5
SOAK_MIN_CYCLES = 100_000
SOAK_COMPUTE = (100, 300)
SOAK_PERIOD = 2_000
SOAK_TRIGGER_JITTER = 500
SOAK_FLIP_PROBABILITY = 2e-5


@dataclass
class IdleLayout:
    text: str
    durations: List[int]
    triggers: List[int]  # cycle of each external trigger
    entries: List[int]  # cycle each session's sync reads arrive and are accepted
    releases: List[int]  # cycle each session's exit reads arrive and it is released
    safe_writes: List[Tuple[int, int]]  # the safe program's (address, value) writes
    cycles: int  # analytic length of the run
    events: int  # analytic number of trace events


@dataclass
class SoakLayout:
    text: str
    triggers: List[int]
    safe_writes: List[Tuple[int, int]]


def _flow(items: List[str]) -> str:
    return "[" + ", ".join(f'"{x}"' for x in items) + "]"


def idle_events(n_blocks: int, sessions: int, safe_bus_ops: int) -> int:
    """Trace events of a run in which every session gathers all blocks at
    once and runs a safe program of bus operations only.

    Outside sessions: boot and the boot state change, a state change and a
    halt per block, and the final halt marker.  Per session: the trigger,
    the monitor's gathering change, the IRQ and the system change (4); per
    block a state change and a sync read, then an accept each, the IRQ
    release and the lockstep changes of monitor and system (3n + 3); per
    block the change into safe processing (n); a vote and a forward per bus
    operation (2L); per block a change and an exit read, then the monitor's
    two changes, the release and the system change (2n + 4); per block the
    change back to normal processing (n).
    """
    per_session = 4 + (3 * n_blocks + 3) + n_blocks + 2 * safe_bus_ops + (2 * n_blocks + 4) + n_blocks
    return 3 + 2 * n_blocks + sessions * per_session


def long_idle(seed: int) -> IdleLayout:
    rng = random.Random(f"long_idle:{seed}")
    spare = IDLE_TOTAL_COMPUTE - IDLE_COMPUTES * IDLE_MIN_COMPUTE
    cuts = sorted(rng.sample(range(1, spare), IDLE_COMPUTES - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [spare])]
    durations = [IDLE_MIN_COMPUTE + p for p in parts]
    ls_address = 0x10000 + rng.randrange(0x10000)
    ls_value = rng.randrange(1 << 32)
    safe = [f"write 0x{ls_address:X} {ls_value}", f"read 0x{ls_address:X}"]
    # A session costs the program the sync read, one cycle per safe bus
    # operation and the exit read: the resumed compute starts L + 2 later.
    delay = len(safe) + 2
    chosen = sorted(rng.sample(range(1, IDLE_COMPUTES), IDLE_SESSIONS))
    triggers, entries = [], []
    for k, i in enumerate(chosen):
        start = 1 + sum(durations[:i]) + k * delay  # first tick of compute i
        triggers.append(start - rng.randrange(1, durations[i - 1]))
        entries.append(start)
    releases = [e + len(safe) + 1 for e in entries]
    program = [f"compute {d}" for d in durations] + ["halt"]
    text = "\n".join([
        f"name: long-idle-{seed}",
        f"seed: {seed}",
        f"n_blocks: {IDLE_BLOCKS}",
        f"max_cycles: {2 * IDLE_TOTAL_COMPUTE}",
        f"moon: {{n_required: {IDLE_BLOCKS}, m_agree: 2, t_gather: {max(durations)}, t_exec: 20}}",
        "programs:",
        *[f"  - {_flow(program)}" for _ in range(IDLE_BLOCKS)],
        f"safe_program: {_flow(safe)}",
        "triggers:",
        *[f"  - {{cycle: {c}, source: external_in_scope}}" for c in triggers],
        "",
    ])
    return IdleLayout(
        text=text,
        durations=durations,
        triggers=triggers,
        entries=entries,
        releases=releases,
        safe_writes=[(ls_address, ls_value)],
        cycles=1 + sum(durations) + IDLE_SESSIONS * delay,
        events=idle_events(IDLE_BLOCKS, IDLE_SESSIONS, len(safe)),
    )


def long_soak(seed: int) -> SoakLayout:
    rng = random.Random(f"long_soak:{seed}")
    programs = []
    for _ in range(SOAK_BLOCKS):
        prog, cycles = [], 0
        while cycles < SOAK_MIN_CYCLES:
            compute = rng.randint(*SOAK_COMPUTE)
            prog += [f"write 0x{rng.randrange(0x10000):X} {rng.randrange(1 << 32)}", f"compute {compute}"]
            cycles += 1 + compute
        programs.append(prog + ["halt"])
    ls_address = 0x10000 + rng.randrange(0x10000)
    ls_value = rng.randrange(1 << 32)
    io_address = 0x20000 + rng.randrange(0x100)
    io_value = rng.randrange(1 << 32)
    safe = [
        f"write 0x{ls_address:X} {ls_value}",
        f"write 0x{io_address:X} {io_value}",
        "compute 2",
        f"read 0x{ls_address:X}",
    ]
    n_triggers = (SOAK_MIN_CYCLES - SOAK_PERIOD) // SOAK_PERIOD
    triggers = [SOAK_PERIOD // 2 + k * SOAK_PERIOD + rng.randrange(SOAK_TRIGGER_JITTER) for k in range(n_triggers)]
    text = "\n".join([
        f"name: long-soak-{seed}",
        f"seed: {seed}",
        f"n_blocks: {SOAK_BLOCKS}",
        f"max_cycles: {2 * SOAK_MIN_CYCLES}",
        f"moon: {{n_required: {SOAK_BLOCKS}, m_agree: 3, t_gather: {SOAK_COMPUTE[1] + 100}, t_exec: 40}}",
        f"noise: {{flip_probability: {SOAK_FLIP_PROBABILITY:.6f}}}",
        "programs:",
        *[f"  - {_flow(p)}" for p in programs],
        f"safe_program: {_flow(safe)}",
        "triggers:",
        *[f"  - {{cycle: {c}, source: external_in_scope}}" for c in triggers],
        "",
    ])
    return SoakLayout(text=text, triggers=triggers, safe_writes=[(ls_address, ls_value), (io_address, io_value)])
