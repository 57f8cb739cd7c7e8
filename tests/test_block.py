"""Processing block timing and state machine, driven cycle by cycle.

The harness below plays the engine's side: it ticks the block when the
block's own wake comes, and decides when each answer comes.  The block gives
its sink its own events, and the harness rebuilds each tick's record from what
the tick returned, the wake it set and the state changes it emitted.  An answer given
in cycle t is consumed at the block's tick in t+1, with the fall-through into
the next instruction, so an unstalled bus operation costs one cycle.  Its IRQ
delivery is the engine's phase 4: a latch that takes during a run of computes
wakes the block at the run's first boundary after the latch cycle."""

from __future__ import annotations

import math
import random
from typing import List, NamedTuple, Optional, Tuple

import pytest

from lockstepsim import (
    LOCKSTEP_SYNC_ADDRESS,
    SAFECODE_START,
    BlockState,
    BusTransaction,
    Compute,
    FaultEngine,
    FaultKind,
    FaultSpec,
    Halt,
    ProcessingBlock,
    Read,
    TriggerSource,
    TriggerSP,
    TxKind,
    Write,
)
from lockstepsim.block import SYNC_READ
from lockstepsim.trace import Trace

SAFE = [Write(0x10000, 7), Read(0x10000)]


class Tick(NamedTuple):
    """What one tick produced."""

    tx: Optional[BusTransaction]
    trigger: Optional[TriggerSource]
    sleep: int  # cycles with nothing to do before the next tick
    state_changes: List[Tuple[BlockState, BlockState]]


def tick(block, cycle):
    """Tick ``block`` in ``cycle`` and rebuild what the tick produced: the
    transaction or trigger source it returned, the sleep its new wake sets (0
    when it waits for an answer or has halted) and its ``state_change``
    events in the block's sink."""
    start = len(block.trace)
    out = block.tick(cycle)
    changes = [
        (BlockState(e.detail["from"]), BlockState(e.detail["to"]))
        for e in block.trace[start:]
        if e.kind == "state_change"
    ]
    sleep = 0 if block.wake == math.inf else block.wake - cycle - 1
    return Tick(
        out if isinstance(out, BusTransaction) else None,
        out if isinstance(out, TriggerSource) else None,
        sleep,
        changes,
    )


class EngineSide:
    """Ticks one block as ``World.step`` does and keeps what each tick produced."""

    def __init__(self, program, safe=SAFE):
        self.block = ProcessingBlock(0, program, safe, Trace())
        self.cycle = 0
        self.ticks = {}  # cycle -> Tick

    def run(self, until, answers=None):
        """Advance through cycle ``until``.  ``answers`` maps a cycle to the
        value the block's outstanding transaction is answered with in it."""
        answers = answers or {}
        while True:
            c = self.cycle
            if c in answers:  # phases 4-5 of cycle c
                assert self.block.wake == math.inf and self.block.state is not BlockState.HALTED
                self.block.answer(answers[c], c)
            if c == until:
                break
            self.cycle = c = c + 1
            if self.block.wake <= c:  # phase 3
                self.ticks[c] = tick(self.block, c)
        return self

    def latch(self):
        """Phase 4 of the current cycle: deliver the IRQ."""
        return self.block.raise_irq(self.cycle)

    def issued(self):
        """(cycle, address) of every transaction issued so far."""
        return [(c, out.tx.address) for c, out in self.ticks.items() if out.tx is not None]


# -- compute timing ---------------------------------------------------------------


@pytest.mark.parametrize("duration", [1, 2, 3, 7])
def test_compute_occupies_exactly_d_ticks(duration):
    side = EngineSide([Compute(duration), Halt()]).run(duration + 5)
    assert list(side.ticks) == [1, 1 + duration]
    assert side.ticks[1 + duration].state_changes == [
        (BlockState.NORMAL_PROCESSING, BlockState.HALTED)
    ]


def test_back_to_back_computes():
    """A run of computes is one sleep: the halt at 6 is where it was when
    each compute took a tick."""
    side = EngineSide([Compute(2), Compute(3), Halt()]).run(10)
    assert list(side.ticks) == [1, 6]
    assert (side.ticks[1].sleep, side.block.run_pc) == (4, 0)
    assert side.ticks[6].state_changes == [(BlockState.NORMAL_PROCESSING, BlockState.HALTED)]
    assert side.block.state is BlockState.HALTED


@pytest.mark.parametrize("duration", [1, 2, 7])
def test_a_compute_advances_the_pc_at_once_and_sleeps_the_rest(duration):
    block = ProcessingBlock(0, [Compute(duration), Write(0x100, 1), Halt()], SAFE, Trace())
    out = tick(block, 1)
    assert (out.tx, out.sleep, block.pc) == (None, duration - 1, 1)
    assert block.wake == 1 + duration
    assert tick(block, 1 + duration).tx == BusTransaction(TxKind.WRITE, 0x100, 1)


def test_bus_op_issue_then_one_cycle_stall():
    side = EngineSide([Write(0x100, 1), Write(0x101, 2), Halt()])
    side.run(2, answers={2: 0})
    assert side.issued() == [(1, 0x100)]  # not ticked while waiting
    assert side.block.state is BlockState.NORMAL_PROCESSING  # a system-bus transaction
    side.run(4, answers={3: 0})
    assert side.issued() == [(1, 0x100), (3, 0x101)]  # completion + fall-through
    assert list(side.ticks) == [1, 3, 4]
    assert side.block.state is BlockState.HALTED


def test_unstalled_bus_ops_issue_every_cycle():
    side = EngineSide([Write(0x100, 1), Write(0x101, 2), Read(0x100), Halt()])
    side.run(5, answers={1: 0, 2: 0, 3: 0})
    assert side.issued() == [(1, 0x100), (2, 0x101), (3, 0x100)]
    assert side.block.state is BlockState.HALTED


def test_program_end_halts():
    side = EngineSide([Compute(1)]).run(10)
    assert list(side.ticks) == [1, 2]
    assert side.ticks[2].state_changes == [(BlockState.NORMAL_PROCESSING, BlockState.HALTED)]


# -- interrupt handling -----------------------------------------------------------


def test_irq_taken_at_instruction_boundary_only():
    """An IRQ latched mid-compute is honored only when the compute ends."""
    side = EngineSide([Compute(10), Halt()]).run(1)
    assert side.latch()
    side.run(12)
    assert list(side.ticks) == [1, 11]
    assert side.block.state is BlockState.AWAITING_SYNC
    assert side.ticks[11].tx == BusTransaction(TxKind.READ, LOCKSTEP_SYNC_ADDRESS)
    assert side.block.saved_pc == 1  # compute already retired


def test_irq_at_boundary_preempts_next_instruction():
    side = EngineSide([Compute(1), Write(0x100, 9), Halt()]).run(1)
    side.latch()
    side.run(2)
    assert side.block.state is BlockState.AWAITING_SYNC  # the write at pc=1 is deferred
    assert side.issued() == [(2, LOCKSTEP_SYNC_ADDRESS)]
    assert side.block.saved_pc == 1


def test_halted_block_ignores_irq():
    side = EngineSide([Halt()]).run(1)
    assert side.block.state is BlockState.HALTED
    assert not side.latch()
    side.run(5)
    assert list(side.ticks) == [1]


def test_no_show_knob_ignores_irq():
    block = ProcessingBlock(0, [Compute(5), Halt()], SAFE)
    block.ignore_irq = True
    assert not block.raise_irq(1)
    assert not block.pending_irq


# -- a run of computes is one sleep ------------------------------------------------

RUN = (1, 3, 2, 5)  # durations of a run that starts at cycle 1 and ends at 11


def run_program():
    return [Compute(d) for d in RUN] + [Halt()]


def first_boundary_after(cycle):
    """(cycle, pc) of the run's first instruction boundary after ``cycle``:
    the boundary before the instruction at pc k is 1 + RUN[0] + ... + RUN[k-1]."""
    return next((1 + sum(RUN[:k]), k) for k in range(1, len(RUN) + 1) if 1 + sum(RUN[:k]) > cycle)


@pytest.mark.parametrize("latch", range(1, 1 + sum(RUN)))
def test_a_latch_inside_a_run_is_taken_at_the_first_boundary_after_it(latch):
    boundary, pc = first_boundary_after(latch)
    side = EngineSide(run_program()).run(latch)
    assert side.block.wake == 1 + sum(RUN)  # one sleep through the whole run
    assert side.latch()
    assert side.block.wake == boundary
    side.run(boundary + 3)
    assert list(side.ticks) == [1, boundary]
    assert side.issued() == [(boundary, LOCKSTEP_SYNC_ADDRESS)]
    assert side.block.saved_pc == pc


def test_a_no_show_latch_does_not_move_the_wake():
    side = EngineSide(run_program()).run(3)
    side.block.ignore_irq = True
    assert not side.latch()
    assert side.block.wake == 12
    side.run(15)
    assert list(side.ticks) == [1, 12]
    assert side.block.state is BlockState.HALTED


def test_a_latch_on_the_last_boundary_does_not_move_the_wake():
    """A latch in cycle 11 is taken at the run's own end, 12."""
    side = EngineSide(run_program()).run(11)
    assert side.latch()
    assert (side.block.wake, side.block.pc) == (12, len(RUN))
    side.run(14)
    assert list(side.ticks) == [1, 12]
    assert side.issued() == [(12, LOCKSTEP_SYNC_ADDRESS)]
    assert side.block.saved_pc == len(RUN)


def test_a_rejected_block_resumes_mid_run_and_halts_when_it_would_have():
    """Latched at 3, the block reads at the boundary at 5 (saved pc 2) and is
    rejected; from 6 it sleeps through the rest of the run, 2 + 5 cycles, and
    halts at 13, as it would after a compute at 6 and another at 8."""
    side = EngineSide(run_program()).run(3)
    side.latch()
    side.run(14, answers={5: 0})
    assert side.issued() == [(5, LOCKSTEP_SYNC_ADDRESS)]
    assert (BlockState.REJECTED, BlockState.NORMAL_PROCESSING) in side.ticks[6].state_changes
    assert (side.ticks[6].sleep, side.block.run_pc) == (2 + 5 - 1, 2)
    assert list(side.ticks) == [1, 5, 6, 13]
    assert side.ticks[13].state_changes == [(BlockState.NORMAL_PROCESSING, BlockState.HALTED)]


def test_a_latch_while_waiting_for_an_answer_keeps_the_wake():
    side = EngineSide([Write(0x100, 1), Compute(3), Halt()]).run(2)
    assert side.latch() and side.block.wake == math.inf
    side.run(4)
    side.block.answer(0, 4)
    assert side.block.wake == 5
    side.run(6)
    assert list(side.ticks) == [1, 5]
    assert side.issued() == [(1, 0x100), (5, LOCKSTEP_SYNC_ADDRESS)]  # the boundary after the write
    assert side.block.saved_pc == 1


def test_a_latch_while_sleeping_in_a_safe_compute_keeps_the_wake():
    side = EngineSide([Compute(1), Halt()], safe=[Compute(4), Write(0x10000, 7)]).run(1)
    side.latch()
    side.run(4, answers={2: 1})  # accepted; the safe compute from 3 sleeps to 7
    assert side.block.wake == 7
    assert side.latch() and side.block.wake == 7
    side.run(7)
    assert side.issued() == [(2, LOCKSTEP_SYNC_ADDRESS), (7, 0x10000)]
    side.block.answer(0, 7)
    assert side.block.wake == 8


def test_a_latch_while_sleeping_in_a_start_jitter_keeps_the_wake():
    side = EngineSide([Compute(1), Compute(1), Halt()])
    side.block.sync_delay = 3
    side.run(1)
    side.latch()
    side.run(3)  # the boundary at 2 takes the latch and sleeps through the delay
    assert side.block.wake == 5
    assert side.latch() and side.block.wake == 5
    side.run(5)
    assert side.issued() == [(5, LOCKSTEP_SYNC_ADDRESS)]
    side.block.answer(0, 5)
    assert side.block.wake == 6


# -- the run table against the scan and walk it replaced --------------------------


def scanned_run(program, pc):
    """The pc past the run of computes from ``pc`` and the run's length in
    cycles, scanned instruction by instruction."""
    cycles = 0
    while pc < len(program) and isinstance(program[pc], Compute):
        cycles += program[pc].duration
        pc += 1
    return pc, cycles


def walked_cut(program, run_pc, run_start, cycle):
    """(pc, wake) of a run from ``run_pc`` started in ``run_start`` and cut by
    a latch in ``cycle``: its first boundary after ``cycle``, walked to."""
    pc, boundary = run_pc, run_start
    while boundary <= cycle:
        boundary += program[pc].duration
        pc += 1
    return pc, boundary


def mixed_program(rng):
    """Up to 14 instructions: runs of computes between the other kinds."""
    others = (Write(0x100, 1), Read(0x100), TriggerSP(TriggerSource.APP_TRIGGERED), Halt())
    return [
        Compute(rng.randint(1, 5)) if rng.random() < 0.7 else rng.choice(others)
        for _ in range(rng.randint(1, 14))
    ]


@pytest.mark.parametrize("seed", range(40))
def test_the_run_table_gives_the_scan_and_the_walk(seed):
    """For every pc that starts a run and every latch cycle inside the run,
    the table's sleep and cut give the pc, wake and sleep length of the scan
    and the walk."""
    rng = random.Random(seed)
    program = mixed_program(rng)
    start = rng.randint(1, 9)
    for pc in [pc for pc, instr in enumerate(program) if isinstance(instr, Compute)]:
        def started():
            block = ProcessingBlock(0, program, SAFE)
            block.pc, block.wake = pc, start
            assert block.tick(start) is None
            return block

        end, cycles = scanned_run(program, pc)
        block = started()
        assert (block.pc, block.wake - start, block.run_pc) == (end, cycles, pc)
        for latch in range(start, start + cycles):
            block = started()
            assert block.raise_irq(latch)
            assert (block.pc, block.wake) == walked_cut(program, pc, start, latch)


# -- acceptance / rejection / release ----------------------------------------------


def accepted_block():
    """A block that issued its sync read at cycle 2 (saved_pc = 1)."""
    side = EngineSide([Compute(1), Write(0x55, 5), Halt()]).run(1)
    side.latch()
    side.run(2)
    assert side.block.state is BlockState.AWAITING_SYNC
    assert side.issued() == [(2, LOCKSTEP_SYNC_ADDRESS)]
    return side


def test_accept_falls_through_into_safe_program():
    side = accepted_block().run(3, answers={2: 1})
    out = side.ticks[3]
    assert (BlockState.AWAITING_SYNC, BlockState.SAFE_PROCESSING) in out.state_changes
    assert side.block.pc == SAFECODE_START
    # the same tick already executes safe instruction 0
    assert side.block.state is BlockState.SAFE_PROCESSING  # a voted data transaction
    assert out.tx == BusTransaction(TxKind.WRITE, 0x10000, 7)


def test_reject_resumes_saved_pc_same_tick():
    side = accepted_block().run(3, answers={2: 0})
    out = side.ticks[3]
    assert (BlockState.AWAITING_SYNC, BlockState.REJECTED) in out.state_changes
    assert (BlockState.REJECTED, BlockState.NORMAL_PROCESSING) in out.state_changes
    assert side.block.state is BlockState.NORMAL_PROCESSING
    assert side.block.saved_pc is None
    # fall-through: the deferred own-program write issues this very tick
    assert out.tx is not None and out.tx.address == 0x55


def test_stall_while_awaiting_sync():
    side = accepted_block().run(8)
    assert list(side.ticks) == [1, 2], "a block waiting for its answer is not ticked"
    assert side.block.state is BlockState.AWAITING_SYNC


def test_safe_program_end_issues_exit_read():
    # safe instr 0 (write) issued at 3, safe instr 1 (read) at 4, stream exhausted at 5
    side = accepted_block().run(5, answers={2: 1, 3: 0, 4: 0})
    assert side.block.state is BlockState.AWAITING_EXIT
    assert side.ticks[5].tx.address == LOCKSTEP_SYNC_ADDRESS
    assert side.block.saved_pc == 1  # still remembered across the whole session


def test_release_resumes_own_program():
    side = accepted_block().run(7, answers={2: 1, 3: 0, 4: 0, 6: 1})
    assert 6 not in side.ticks  # stalled awaiting release
    out = side.ticks[7]
    assert (BlockState.AWAITING_EXIT, BlockState.NORMAL_PROCESSING) in out.state_changes
    # fall-through executes the deferred own-program write
    assert out.tx is not None and out.tx.address == 0x55
    assert side.block.saved_pc is None


@pytest.mark.parametrize("value", [1, 7, 255])
def test_release_value_is_ignored_beyond_arrival(value):
    side = accepted_block().run(6, answers={2: 1, 3: 0, 4: 0, 5: value})
    assert side.block.state is BlockState.NORMAL_PROCESSING
    assert side.ticks[6].tx.address == 0x55


# -- start jitter --------------------------------------------------------------------


@pytest.mark.parametrize("delay", [1, 2, 5])
def test_sync_delay_postpones_the_sync_read(delay):
    side = EngineSide([Compute(1), Compute(1), Halt()])
    side.block.sync_delay = delay
    side.run(1)
    assert side.latch()  # cuts the run of two computes at its boundary at 2
    # the boundary at cycle 2 consumes the latch and sleeps through the delay
    side.run(2 + delay + 3)
    assert list(side.ticks) == [1, 2, 2 + delay]
    assert side.issued() == [(2 + delay, LOCKSTEP_SYNC_ADDRESS)]
    assert side.block.state is BlockState.AWAITING_SYNC


def test_sync_delay_is_one_shot():
    side = EngineSide([Compute(1), Compute(1), Compute(1), Halt()])
    side.block.sync_delay = 2
    side.run(1)
    side.latch()
    side.run(5, answers={4: 0})  # read at 4, rejected; the run from pc 1 starts at 5
    assert side.block.sync_delay == 0
    side.latch()  # cuts that run at its boundary at 6
    side.run(8)
    assert side.issued() == [(4, LOCKSTEP_SYNC_ADDRESS), (6, LOCKSTEP_SYNC_ADDRESS)]


# -- safe-program fetch plumbing -------------------------------------------------------


def test_fetch_hook_sees_each_safe_index():
    seen = []
    side = accepted_block()
    side.block.safe_fetch_hook = lambda blk, idx, cycle: seen.append(idx)
    side.run(5, answers={2: 1, 3: 0, 4: 0})  # index 2 is the end-of-stream probe
    assert seen == [0, 1, 2]


def test_fetch_hook_sees_each_safe_compute():
    """Safe-program computes are not folded into one sleep: each is fetched,
    and seen by the hook, at its own tick."""
    seen = []
    side = EngineSide([Compute(1), Halt()], safe=[Compute(3), Compute(1), Write(0x10000, 7)]).run(1)
    side.latch()
    side.run(2)
    side.block.safe_fetch_hook = lambda blk, idx, cycle: seen.append(idx)
    side.run(9, answers={2: 1, 7: 0})  # index 3 is the end-of-stream probe
    assert seen == [0, 1, 2, 3]
    assert list(side.ticks) == [1, 2, 3, 6, 7, 8]
    assert side.ticks[3].sleep == 2
    assert side.issued() == [(2, LOCKSTEP_SYNC_ADDRESS), (7, 0x10000), (8, LOCKSTEP_SYNC_ADDRESS)]


def test_safe_override_swaps_the_remaining_stream():
    side = accepted_block()
    side.block.safe_override = (1, [Write(0x10004, 9)])
    side.run(5, answers={2: 1, 3: 0, 4: 0})
    assert side.ticks[3].tx == BusTransaction(TxKind.WRITE, 0x10000, 7)  # the shared stream
    assert side.ticks[4].tx == BusTransaction(TxKind.WRITE, 0x10004, 9)  # the override
    assert side.block.state is BlockState.AWAITING_EXIT  # override exhausted -> exit read
    assert side.ticks[5].tx.address == LOCKSTEP_SYNC_ADDRESS


def test_blocks_that_execute_one_instruction_issue_one_transaction():
    """The voter counts equal ports by identity first, so lockstep members
    that execute one instruction object issue one transaction object; every
    sync and exit read is one object too."""
    write = Write(0x10000, 7)
    sides = [EngineSide([Compute(1), Halt()], safe=[write]) for _ in range(2)]
    for side in sides:
        side.run(1)
        side.latch()
        side.run(4, answers={2: 1, 3: 0})
    assert [side.ticks[2].tx for side in sides] == [SYNC_READ, SYNC_READ]
    assert sides[0].ticks[3].tx is sides[1].ticks[3].tx == BusTransaction(TxKind.WRITE, 0x10000, 7)
    assert sides[0].ticks[4].tx is sides[1].ticks[4].tx is SYNC_READ  # the exit reads
    # normal code shares one path: one write object issues one transaction
    # object, and an equal write built anew issues its own
    normal = Write(0x100, 1)
    first, second = (EngineSide([normal, Halt()]).run(1).ticks[1].tx for _ in range(2))
    assert first is second is normal.tx == BusTransaction(TxKind.WRITE, 0x100, 1)
    anew = EngineSide([Write(0x100, 1), Halt()]).run(1).ticks[1].tx
    assert anew == first and anew is not first


def test_determinism_two_identical_blocks():
    def walk():
        side = EngineSide([Compute(2), Write(0x10, 1), Halt()]).run(6, answers={3: 0})
        return [
            (c, out.tx.short() if out.tx else None, out.sleep, out.state_changes)
            for c, out in side.ticks.items()
        ]

    assert walk() == walk()


# -- the order of a tick's own events ----------------------------------------------------


def tick_events(side, cycle):
    """(kind, detail) of the events the block's sink holds for ``cycle``."""
    return [(e.kind, e.detail) for e in side.block.trace if e.cycle == cycle]


def test_an_admitted_tick_emits_its_fetch_hook_event_before_its_state_change():
    """The hook fires at the first safe fetch, inside the tick that enters
    the group; the tick's own state change follows it."""
    side = accepted_block()
    engine = FaultEngine(
        [FaultSpec(target=0, kind=FaultKind.NO_SHOW, at_safe_instr=0)], trace=side.block.trace
    )
    side.block.safe_fetch_hook = engine.on_safe_fetch
    side.run(3, answers={2: 1})
    assert tick_events(side, 3) == [
        ("fault_applied", {"fault": "no_show", "window": "safe_instr"}),
        ("state_change", {"from": "awaiting_sync", "to": "safe_processing"}),
    ]
    assert all(e.phase == 3 and e.entity == 0 for e in side.block.trace)


def test_a_rejected_tick_that_raises_a_trigger_emits_the_trigger_last():
    side = EngineSide([Compute(1), TriggerSP(TriggerSource.APP_TRIGGERED), Halt()]).run(1)
    side.latch()
    side.run(3, answers={2: 0})  # read at 2, rejected; the trigger executes at 3
    assert side.ticks[3].trigger is TriggerSource.APP_TRIGGERED
    assert tick_events(side, 3) == [
        ("state_change", {"from": "awaiting_sync", "to": "rejected"}),
        ("state_change", {"from": "rejected", "to": "normal_processing"}),
        ("trigger", {"source": "app_triggered"}),
    ]


@pytest.mark.parametrize("rejected", [False, True], ids=["program_end", "after_rejection"])
def test_a_halt_event_directly_follows_its_state_change(rejected):
    side = EngineSide([Compute(1), Halt()]).run(1)
    if rejected:
        side.latch()
        side.run(3, answers={2: 0})  # read at 2, rejected; the halt executes at 3
    else:
        side.run(3)
    resumed = [
        ("state_change", {"from": "awaiting_sync", "to": "rejected"}),
        ("state_change", {"from": "rejected", "to": "normal_processing"}),
    ]
    assert tick_events(side, 2 + rejected) == resumed * rejected + [
        ("state_change", {"from": "normal_processing", "to": "halted"}),
        ("halt", {}),
    ]
