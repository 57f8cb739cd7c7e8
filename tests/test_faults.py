"""Fault engine unit behavior plus two whole-world integration checks."""

from __future__ import annotations

import math

import pytest

from lockstepsim import (
    LOCKSTEP_SYNC_ADDRESS,
    BusTransaction,
    Compute,
    FaultEngine,
    FaultKind,
    FaultSpec,
    Halt,
    MoonConfig,
    ProcessingBlock,
    Read,
    Scenario,
    TriggerSource,
    TriggerSP,
    TxKind,
    Write,
    run,
)
from lockstepsim.trace import Trace

SAFE = [Write(0x10000, 7), Read(0x10000)]


def make_blocks(n=2):
    return [
        ProcessingBlock(i, [Compute(8), Halt()], SAFE) for i in range(n)
    ]


def data_tx(data=7, address=0x10000):
    return BusTransaction(TxKind.WRITE, address, data)


def traced_engine(specs, *args, **kwargs):
    """A fault engine whose events go to a sink of its own."""
    return FaultEngine(specs, *args, trace=Trace(), **kwargs)


def drain(eng):
    """Take the engine's ``fault_applied`` events so far as (target, detail)."""
    events = [(e.entity, e.detail) for e in eng.trace]
    eng.trace.clear()
    return events


# -- activation windows -----------------------------------------------------------


def test_cycle_window_activates_at_its_cycle():
    eng = traced_engine([FaultSpec(target=0, kind=FaultKind.NO_SHOW, at_cycle=3)])
    blocks = make_blocks()
    eng.on_cycle_start(2, blocks)
    assert drain(eng) == []
    eng.on_cycle_start(3, blocks)
    assert drain(eng) == [(0, {"fault": "no_show", "window": "cycle"})]
    assert blocks[0].ignore_irq
    assert not blocks[1].ignore_irq
    eng.on_cycle_start(4, blocks)
    assert drain(eng) == []  # one-shot


def test_next_cycle_is_the_earliest_cycle_window_left():
    eng = traced_engine(
        [
            FaultSpec(target=0, kind=FaultKind.NO_SHOW, at_cycle=7),
            FaultSpec(target=1, kind=FaultKind.STUCK_SILENT, at_safe_instr=0),
            FaultSpec(target=1, kind=FaultKind.NO_SHOW, at_cycle=3),
        ]
    )
    blocks = make_blocks()
    assert eng.next_cycle == 3
    eng.on_cycle_start(3, blocks)
    assert eng.next_cycle == 7
    eng.on_cycle_start(7, blocks)
    assert eng.next_cycle == math.inf  # the instruction window is not on the cycle schedule


def test_start_jitter_sets_the_delay_knob():
    eng = traced_engine(
        [FaultSpec(target=1, kind=FaultKind.START_JITTER, at_cycle=1, delay=4)]
    )
    blocks = make_blocks()
    eng.on_cycle_start(1, blocks)
    assert blocks[1].sync_delay == 4
    assert drain(eng)[0][1]["delay"] == 4


def test_stuck_silent_suppresses_every_later_tx():
    eng = traced_engine([FaultSpec(target=0, kind=FaultKind.STUCK_SILENT, at_cycle=1)])
    blocks = make_blocks()
    eng.on_cycle_start(1, blocks)
    drain(eng)
    assert eng.filter_tx(0, 0, data_tx()) is None
    assert drain(eng) == []
    sync = BusTransaction(TxKind.READ, LOCKSTEP_SYNC_ADDRESS)
    assert eng.filter_tx(0, 0, sync) is None  # silence covers protocol reads too
    assert eng.filter_tx(0, 1, data_tx()) is not None  # other blocks unaffected


def test_instruction_window_activates_via_fetch_hook():
    eng = traced_engine(
        [FaultSpec(target=0, kind=FaultKind.BIT_FLIP_DATA, at_safe_instr=1, bit=2)]
    )
    blocks = make_blocks()
    eng.on_safe_fetch(blocks[0], 0, 0)
    assert drain(eng) == []  # wrong index: not yet
    eng.on_safe_fetch(blocks[0], 1, 0)
    events = drain(eng)
    assert events[0][1]["window"] == "safe_instr"
    tx = eng.filter_tx(0, 0, data_tx(7))
    assert tx.data == 7 ^ 4
    flip_events = drain(eng)
    assert flip_events[0][1]["before"] != flip_events[0][1]["after"]


def test_due_faults_activate_in_target_then_declaration_order():
    eng = traced_engine(
        [
            FaultSpec(target=2, kind=FaultKind.NO_SHOW, at_cycle=3),
            FaultSpec(target=1, kind=FaultKind.START_JITTER, at_cycle=0, delay=2),
            FaultSpec(target=2, kind=FaultKind.BIT_FLIP_DATA, at_cycle=1, bit=0),
            FaultSpec(target=0, kind=FaultKind.STUCK_SILENT, at_cycle=3),
            FaultSpec(target=1, kind=FaultKind.NO_SHOW, at_cycle=2),
            FaultSpec(target=0, kind=FaultKind.NO_SHOW, at_cycle=9),
        ]
    )
    blocks = make_blocks(3)
    # the first call comes at cycle 3: the faults of cycles 0..2 are overdue
    eng.on_cycle_start(3, blocks)
    assert [(target, d["fault"]) for target, d in drain(eng)] == [
        (0, "stuck_silent"),
        (1, "start_jitter"),
        (1, "no_show"),
        (2, "no_show"),
        (2, "bit_flip_data"),
    ]
    eng.on_cycle_start(4, blocks)
    assert drain(eng) == []
    eng.on_cycle_start(9, blocks)
    assert drain(eng) == [(0, {"fault": "no_show", "window": "cycle"})]


def test_instruction_window_fires_on_first_fetch_only():
    alt = (Write(0x10004, 9),)
    eng = traced_engine(
        [
            FaultSpec(target=0, kind=FaultKind.BIT_FLIP_DATA, at_safe_instr=1, bit=2),
            FaultSpec(
                target=1, kind=FaultKind.DIVERGENT_PROGRAM, at_safe_instr=1, program=alt
            ),
        ]
    )
    blocks = make_blocks()
    eng.on_safe_fetch(blocks[0], 1, 0)
    eng.on_safe_fetch(blocks[0], 1, 0)  # fetched again while the flip is still armed
    assert len(drain(eng)) == 1
    assert eng.filter_tx(0, 0, data_tx(7)).data == 7 ^ 4
    assert len(drain(eng)) == 1
    eng.on_safe_fetch(blocks[0], 1, 0)  # a later session fetches the same instruction
    assert drain(eng) == []
    assert eng.filter_tx(0, 0, data_tx(7)).data == 7
    assert drain(eng) == []

    eng.on_safe_fetch(blocks[1], 1, 0)
    assert blocks[1].safe_override == (1, alt)
    blocks[1].safe_override = None
    eng.on_safe_fetch(blocks[1], 1, 0)
    assert blocks[1].safe_override is None
    assert len(drain(eng)) == 1


# -- bit flips -----------------------------------------------------------------------


def test_data_flip_is_single_shot():
    eng = traced_engine(
        [FaultSpec(target=0, kind=FaultKind.BIT_FLIP_DATA, at_cycle=1, bit=0)]
    )
    blocks = make_blocks()
    eng.on_cycle_start(1, blocks)
    assert eng.filter_tx(0, 0, data_tx(6)).data == 7
    drain(eng)
    assert eng.filter_tx(0, 0, data_tx(6)).data == 6
    assert drain(eng) == []  # consumed


def test_a_flip_builds_its_own_transaction():
    """A transaction is shared by every block that executes its instruction,
    so a flip on one port leaves it as it was."""
    eng = traced_engine([FaultSpec(target=0, kind=FaultKind.BIT_FLIP_DATA, at_cycle=1, bit=0)])
    eng.on_cycle_start(1, make_blocks())
    shared = data_tx(6)
    flipped = eng.filter_tx(0, 0, shared)
    assert (flipped.data, shared.data) == (7, 6)
    assert eng.filter_tx(0, 1, shared) is shared  # no flip armed: passed through


def test_address_flip_touches_the_address_word():
    eng = traced_engine(
        [FaultSpec(target=0, kind=FaultKind.BIT_FLIP_ADDRESS, at_cycle=1, bit=3)]
    )
    blocks = make_blocks()
    eng.on_cycle_start(1, blocks)
    tx = eng.filter_tx(0, 0, data_tx(7, address=0x10000))
    assert tx.address == 0x10008
    assert tx.data == 7


def test_flips_never_touch_protocol_reads():
    eng = traced_engine(
        [FaultSpec(target=0, kind=FaultKind.BIT_FLIP_DATA, at_cycle=1, bit=0)]
    )
    blocks = make_blocks()
    eng.on_cycle_start(1, blocks)
    drain(eng)
    sync = BusTransaction(TxKind.READ, LOCKSTEP_SYNC_ADDRESS)
    assert eng.filter_tx(0, 0, sync) is sync
    assert drain(eng) == []
    # the flip stays armed for the next data transaction
    assert eng.filter_tx(0, 0, data_tx(6)).data == 7


def test_cycle_flip_armed_for_many_cycles_fires_once():
    eng = traced_engine(
        [FaultSpec(target=0, kind=FaultKind.BIT_FLIP_DATA, at_cycle=2, bit=0)]
    )
    blocks = make_blocks()
    for c in range(1, 40):
        eng.on_cycle_start(c, blocks)
    assert drain(eng) == [(0, {"fault": "bit_flip_data", "window": "cycle", "bit": 0})]
    flipped = [eng.filter_tx(0, 0, data_tx(6)).data for _ in range(3)]
    assert flipped == [7, 6, 6]
    assert len(drain(eng)) == 1
    for c in range(40, 60):
        eng.on_cycle_start(c, blocks)
    assert drain(eng) == []


def test_two_armed_flips_stack_on_one_transaction():
    eng = traced_engine(
        [
            FaultSpec(target=0, kind=FaultKind.BIT_FLIP_DATA, at_cycle=1, bit=0),
            FaultSpec(target=0, kind=FaultKind.BIT_FLIP_DATA, at_cycle=1, bit=1),
        ]
    )
    blocks = make_blocks()
    eng.on_cycle_start(1, blocks)
    drain(eng)
    assert eng.filter_tx(0, 0, data_tx(0)).data == 3
    assert len(drain(eng)) == 2


# -- divergent program -----------------------------------------------------------------


def test_divergent_at_instruction_swaps_remaining_stream():
    alt = (Write(0x10004, 9),)
    eng = traced_engine(
        [
            FaultSpec(
                target=0, kind=FaultKind.DIVERGENT_PROGRAM, at_safe_instr=1, program=alt
            )
        ]
    )
    blocks = make_blocks()
    eng.on_safe_fetch(blocks[0], 1, 0)
    assert blocks[0].safe_override == (1, alt)


def test_divergent_at_cycle_defers_to_next_fetch():
    alt = (Write(0x10004, 9),)
    eng = traced_engine(
        [FaultSpec(target=0, kind=FaultKind.DIVERGENT_PROGRAM, at_cycle=1, program=alt)]
    )
    blocks = make_blocks()
    eng.on_cycle_start(1, blocks)
    assert drain(eng)[0][1].get("deferred") == 1
    assert blocks[0].safe_override is None
    eng.on_safe_fetch(blocks[0], 0, 0)
    assert blocks[0].safe_override == (0, alt)
    assert drain(eng)[0][1]["applied_at"] == 0


# -- stochastic soak mode -----------------------------------------------------------------


def test_stochastic_flips_off_by_default():
    eng = traced_engine([], 0.0, seed=0, n_blocks=2)
    assert eng.next_cycle == math.inf
    eng.on_cycle_start(1, make_blocks())
    assert drain(eng) == []


def test_stochastic_flips_deterministic_per_seed():
    def roll(seed):
        eng = traced_engine([], 0.3, seed=seed, n_blocks=4)
        blocks = make_blocks(4)
        out = []
        for c in range(1, 20):
            eng.on_cycle_start(c, blocks)
            for b in blocks:
                eng.filter_tx(c, b.block_id, data_tx())
            out.extend(drain(eng))
        return out

    assert roll(7) == roll(7)
    assert roll(7) != roll(8)


def test_each_block_draws_from_its_own_stream():
    """A block's upsets depend on the seed and its own id only, not on how
    many blocks share the engine."""

    def upsets(n_blocks):
        eng = traced_engine([], 0.3, seed=5, n_blocks=n_blocks)
        blocks = make_blocks(n_blocks)
        out = []
        for c in range(1, 40):
            eng.on_cycle_start(c, blocks)
            for b in blocks:
                eng.filter_tx(c, b.block_id, data_tx())
            out.extend((c, d["bit"]) for target, d in drain(eng) if target == 0 and "window" in d)
        return out

    assert upsets(1) == upsets(4) != []


def test_stochastic_flip_arms_at_most_one_per_block():
    eng = traced_engine([], 1.0, seed=1, n_blocks=1)  # an upset every cycle
    blocks = make_blocks(1)
    for c in range(1, 50):
        eng.on_cycle_start(c, blocks)
        assert len(eng._armed_flips[0]) == 1  # still only one pending
        assert eng.next_cycle == c + 1
    assert len(drain(eng)) == 1  # armed once
    eng.filter_tx(0, 0, data_tx(0))
    assert len(drain(eng)) == 1  # exactly one upset applied


def test_an_upset_due_on_a_block_with_an_armed_flip_is_dropped_without_a_bit():
    """At p = 1 a block's stream gives bits only.  The upset dropped at cycle
    2 draws none, so the one armed at cycle 3 takes the stream's second bit."""

    def bits(consume_at):
        eng = traced_engine([], 1.0, seed=3, n_blocks=1)
        blocks = make_blocks(1)
        out = []
        for c in range(1, 4):
            eng.on_cycle_start(c, blocks)
            out.extend(d["bit"] for _, d in drain(eng))
            if c in consume_at:
                eng.filter_tx(c, 0, data_tx())
                drain(eng)
        return out

    dropped, every_cycle = bits(consume_at={2}), bits(consume_at={1, 2})
    assert len(dropped) == 2 and len(every_cycle) == 3
    assert dropped == every_cycle[:2]


def test_a_halted_block_drops_its_upset_and_draws_no_more():
    eng = traced_engine([], 1.0, seed=0, n_blocks=2)
    blocks = make_blocks(2)
    blocks[0].state = blocks[0].state.HALTED
    eng.on_cycle_start(1, blocks)
    assert [target for target, _ in drain(eng)] == [1]
    blocks[1].state = blocks[1].state.HALTED
    eng.on_cycle_start(2, blocks)
    assert drain(eng) == []
    assert eng.next_cycle == math.inf


def test_a_gap_too_large_for_a_float_is_never():
    assert FaultEngine([], 5e-324, seed=0, n_blocks=3).next_cycle == math.inf


@pytest.mark.parametrize("p", [1e-4, 1e-3, 0.02])
def test_upset_counts_follow_the_per_cycle_law(p):
    """Over 10^6 cycles each block's upset count lies within five standard
    deviations of its Bernoulli(p) mean, p * cycles, and no block is upset
    twice in one cycle.  Every armed flip is cleared at once, so no upset is
    dropped."""
    cycles, n_blocks = 1_000_000, 2
    eng = traced_engine([], p, seed=11, n_blocks=n_blocks)
    blocks = make_blocks(n_blocks)
    counts = [0] * n_blocks
    while eng.next_cycle <= cycles:
        cycle = eng.next_cycle
        eng.on_cycle_start(cycle, blocks)
        assert eng.next_cycle > cycle
        for target, _ in drain(eng):
            counts[target] += 1
        eng._armed_flips.clear()
    mean, spread = p * cycles, 5 * math.sqrt(cycles * p * (1 - p))
    assert all(mean - spread < n < mean + spread for n in counts), counts


def test_drain_orders_one_cycle_start_by_block():
    """A soak flip on a lower block comes before a scheduled fault on a
    higher one; within one block the declared faults come first."""
    eng = traced_engine(
        [
            FaultSpec(target=0, kind=FaultKind.NO_SHOW, at_cycle=1),
            FaultSpec(target=2, kind=FaultKind.START_JITTER, at_cycle=1, delay=2),
        ],
        1.0,
        seed=0,
        n_blocks=3,
    )
    blocks = make_blocks(3)
    eng.on_cycle_start(1, blocks)
    assert [(target, d["window"]) for target, d in drain(eng)] == [
        (0, "cycle"),
        (0, "stochastic"),
        (1, "stochastic"),
        (2, "cycle"),
        (2, "stochastic"),
    ]


def test_an_upset_due_with_a_declared_flip_comes_after_it():
    """At p = 1 block 0's upset falls due at cycle 1, as does its declared
    flip.  The declared flip arms first, so the upset is dropped without a
    bit, and the block's next upset is still due at cycle 2 with the
    stream's first bit."""
    flip = FaultSpec(target=0, kind=FaultKind.BIT_FLIP_DATA, at_cycle=1, bit=5)
    eng = traced_engine([flip], 1.0, seed=4, n_blocks=1)
    blocks = make_blocks(1)
    eng.on_cycle_start(1, blocks)
    assert [(e.cycle, e.phase, e.entity, e.detail) for e in eng.trace] == [
        (1, 1, 0, {"fault": "bit_flip_data", "window": "cycle", "bit": 5})
    ]
    assert eng.next_cycle == 2
    assert eng.filter_tx(1, 0, data_tx(0)).data == 1 << 5
    drain(eng)
    eng.on_cycle_start(2, blocks)
    quiet = traced_engine([], 1.0, seed=4, n_blocks=1)
    quiet.on_cycle_start(1, make_blocks(1))
    assert drain(eng) == drain(quiet) != []


def test_events_carry_the_cycle_and_phase_of_their_hook():
    """Cycle-start events are phase 1; fetch-time and wire events are phase
    3; an untraced engine records none."""
    specs = [
        FaultSpec(target=0, kind=FaultKind.BIT_FLIP_DATA, at_cycle=2, bit=0),
        FaultSpec(target=1, kind=FaultKind.NO_SHOW, at_safe_instr=0),
    ]
    eng = traced_engine(specs)
    blocks = make_blocks()
    eng.on_cycle_start(2, blocks)
    eng.on_safe_fetch(blocks[1], 0, 5)
    eng.filter_tx(7, 0, data_tx(6))
    assert [(e.cycle, e.phase, e.entity, e.kind) for e in eng.trace] == [
        (2, 1, 0, "fault_applied"),
        (5, 3, 1, "fault_applied"),
        (7, 3, 0, "fault_applied"),
    ]
    untraced = FaultEngine(specs)
    untraced.on_cycle_start(2, blocks)
    assert untraced.filter_tx(7, 0, data_tx(6)).data == 7
    assert untraced.trace == []


# -- whole-world integration ---------------------------------------------------------------


def _group_scenario(n_blocks, n, m, faults, t_gather=6):
    programs = [[Compute(1), TriggerSP(TriggerSource.APP_TRIGGERED)]
                + [Compute(1)] * 10 + [Halt()]]
    programs += [[Compute(1)] * 12 + [Halt()] for _ in range(n_blocks - 1)]
    return Scenario(
        name="fault-integration",
        seed=0,
        n_blocks=n_blocks,
        moon=MoonConfig(n_required=n, m_agree=m, t_gather=t_gather, t_exec=12),
        boot_check="pass",
        programs=programs,
        safe_program=SAFE,
        faults=faults,
        max_cycles=50,
    )


def test_two_no_shows_starve_the_rendezvous():
    faults = [
        FaultSpec(target=1, kind=FaultKind.NO_SHOW, at_cycle=1),
        FaultSpec(target=2, kind=FaultKind.NO_SHOW, at_cycle=1),
    ]
    report = run(_group_scenario(3, 3, 2, faults))
    assert report.final_state == "safe_state"
    assert report.availability_errors == 1
    errors = [e for e in report.trace if e.kind == "availability_error"]
    assert errors[0].detail["reason"] == "gather_timeout"


def test_single_flip_is_masked_in_2oo3():
    faults = [
        FaultSpec(target=2, kind=FaultKind.BIT_FLIP_DATA, at_safe_instr=0, bit=1)
    ]
    clean = run(_group_scenario(3, 3, 2, []))
    faulty = run(_group_scenario(3, 3, 2, faults))
    assert faulty.ls_ram == clean.ls_ram
    assert faulty.io_log == clean.io_log
    assert faulty.masked_fault_cycles >= 1
    assert faulty.final_state == "normal_processing"
