"""Processing block timing and state machine, driven tick by tick.

The harness below plays the monitor/bus side by hand: it decides when a
response arrives and watches the transactions and state changes each tick
produces.  One bus operation costs one stall cycle (issue at t, response
consumed at t+1, fall-through into the next instruction)."""

from __future__ import annotations

import pytest

from lockstepsim import (
    LOCKSTEP_SYNC_ADDRESS,
    SAFECODE_START,
    BlockState,
    BusTransaction,
    Compute,
    Halt,
    ProcessingBlock,
    Read,
    TxKind,
    Write,
)

SAFE = [Write(0x10000, 7), Read(0x10000)]


def make_block(program, safe=SAFE):
    return ProcessingBlock(0, program, safe)


def drain(block, cycles, responses=None):
    """Tick ``cycles`` times; ``responses`` maps cycle -> response value.
    Returns the list of (cycle, TickOutput)."""
    responses = responses or {}
    outs = []
    for c in range(1, cycles + 1):
        outs.append((c, block.tick(responses.get(c))))
    return outs


# -- compute timing ---------------------------------------------------------------


@pytest.mark.parametrize("duration", [1, 2, 3, 7])
def test_compute_occupies_exactly_d_ticks(duration):
    block = make_block([Compute(duration), Halt()])
    for _ in range(duration):
        block.tick()
        assert block.state is BlockState.NORMAL_PROCESSING
    assert block.pc == 1  # compute retired
    block.tick()
    assert block.state is BlockState.HALTED


def test_back_to_back_computes():
    block = make_block([Compute(2), Compute(3), Halt()])
    drain(block, 5)
    assert block.pc == 2
    block.tick()
    assert block.state is BlockState.HALTED


@pytest.mark.parametrize("duration,ticked", [(1, 1), (2, 1), (7, 1), (7, 4), (7, 7)])
def test_retire_compute_lands_where_ticking_it_out_does(duration, ticked):
    program = [Compute(duration), Write(0x100, 1), Halt()]
    ticking, retiring = make_block(program), make_block(program)
    drain(ticking, duration)
    drain(retiring, ticked)
    assert retiring.retire_compute() == duration - ticked
    assert retiring.pc == ticking.pc == 1
    assert retiring.retire_compute() == 0  # outside a compute: nothing to retire
    assert retiring.pc == 1
    assert retiring.tick().tx == ticking.tick().tx == BusTransaction(TxKind.WRITE, 0x100, 1)


def test_bus_op_issue_then_one_cycle_stall():
    block = make_block([Write(0x100, 1), Write(0x101, 2), Halt()])
    out1 = block.tick()
    assert out1.tx is not None and out1.tx.address == 0x100
    assert block.state is BlockState.NORMAL_PROCESSING  # a system-bus transaction
    out2 = block.tick()  # no response yet: still stalled
    assert out2.tx is None
    out3 = block.tick(response=0)  # completion + fall-through
    assert out3.tx is not None and out3.tx.address == 0x101
    block.tick(response=0)
    assert block.state is BlockState.HALTED


def test_unstalled_bus_ops_issue_every_cycle():
    block = make_block([Write(0x100, 1), Write(0x101, 2), Read(0x100), Halt()])
    issued = []
    for c in range(1, 5):
        out = block.tick(response=0 if c > 1 else None)
        if out.tx is not None:
            issued.append((c, out.tx.address))
    assert issued == [(1, 0x100), (2, 0x101), (3, 0x100)]


def test_program_end_halts():
    block = make_block([Compute(1)])
    block.tick()
    out = block.tick()
    assert out.state_changes == [(BlockState.NORMAL_PROCESSING, BlockState.HALTED)]
    assert block.tick().tx is None  # halted blocks do nothing


# -- interrupt handling -----------------------------------------------------------


def test_irq_taken_at_instruction_boundary_only():
    """An IRQ latched mid-compute is honored only after the compute retires."""
    block = make_block([Compute(10), Halt()])
    block.tick()
    assert block.raise_irq()
    for _ in range(2, 11):
        out = block.tick()
        assert out.tx is None  # still computing
    out = block.tick()
    assert block.state is BlockState.AWAITING_SYNC
    assert out.tx.address == LOCKSTEP_SYNC_ADDRESS
    assert out.tx.kind is TxKind.READ
    assert block.saved_pc == 1  # compute already retired


def test_irq_at_boundary_preempts_next_instruction():
    block = make_block([Compute(1), Write(0x100, 9), Halt()])
    block.tick()
    block.raise_irq()
    out = block.tick()
    assert block.state is BlockState.AWAITING_SYNC  # the write at pc=1 is deferred
    assert out.tx.address == LOCKSTEP_SYNC_ADDRESS
    assert block.saved_pc == 1


def test_halted_block_ignores_irq():
    block = make_block([Halt()])
    block.tick()
    assert block.state is BlockState.HALTED
    assert not block.raise_irq()
    assert block.tick().tx is None


def test_no_show_knob_ignores_irq():
    block = make_block([Compute(5), Halt()])
    block.ignore_irq = True
    assert not block.raise_irq()
    assert not block.pending_irq


# -- acceptance / rejection / release ----------------------------------------------


def accepted_block():
    """A block already stalled on its sync read (saved_pc = 1)."""
    block = make_block([Compute(1), Write(0x55, 5), Halt()])
    block.tick()
    block.raise_irq()
    out = block.tick()
    assert block.state is BlockState.AWAITING_SYNC
    assert out.tx.address == LOCKSTEP_SYNC_ADDRESS
    return block


def test_accept_falls_through_into_safe_program():
    block = accepted_block()
    out = block.tick(response=1)
    assert (BlockState.AWAITING_SYNC, BlockState.SAFE_PROCESSING) in out.state_changes
    assert block.pc == SAFECODE_START
    # the same tick already executes safe instruction 0
    assert out.tx is not None
    assert block.state is BlockState.SAFE_PROCESSING  # a voted data transaction
    assert out.tx == BusTransaction(TxKind.WRITE, 0x10000, 7)


def test_reject_resumes_saved_pc_same_tick():
    block = accepted_block()
    out = block.tick(response=0)
    assert (BlockState.AWAITING_SYNC, BlockState.REJECTED) in out.state_changes
    assert (BlockState.REJECTED, BlockState.NORMAL_PROCESSING) in out.state_changes
    assert block.state is BlockState.NORMAL_PROCESSING
    assert block.saved_pc is None
    # fall-through: the deferred own-program write issues this very tick
    assert out.tx is not None and out.tx.address == 0x55


def test_stall_while_awaiting_sync():
    block = accepted_block()
    for _ in range(3, 8):
        assert block.tick().tx is None, "no new tx may issue while stalled"
    assert block.state is BlockState.AWAITING_SYNC


def test_safe_program_end_issues_exit_read():
    block = accepted_block()
    block.tick(response=1)  # safe instr 0 (write) issued
    block.tick(response=0)  # completes; safe instr 1 (read) issued
    out = block.tick(response=0)  # completes; stream exhausted -> exit read
    assert block.state is BlockState.AWAITING_EXIT
    assert out.tx.address == LOCKSTEP_SYNC_ADDRESS
    assert block.saved_pc == 1  # still remembered across the whole session


def test_release_resumes_own_program():
    block = accepted_block()
    block.tick(response=1)
    block.tick(response=0)
    block.tick(response=0)
    block.tick()  # stalled awaiting release
    assert block.state is BlockState.AWAITING_EXIT
    out = block.tick(response=1)
    assert (BlockState.AWAITING_EXIT, BlockState.NORMAL_PROCESSING) in out.state_changes
    # fall-through executes the deferred own-program write
    assert out.tx is not None and out.tx.address == 0x55
    assert block.saved_pc is None


def test_release_value_is_ignored_beyond_arrival():
    for value in (1, 7, 255):
        block = accepted_block()
        block.tick(response=1)
        block.tick(response=0)
        block.tick(response=0)
        out = block.tick(response=value)
        assert block.state is BlockState.NORMAL_PROCESSING
        assert out.tx is not None and out.tx.address == 0x55


# -- start jitter --------------------------------------------------------------------


@pytest.mark.parametrize("delay", [1, 2, 5])
def test_sync_delay_postpones_the_sync_read(delay):
    block = make_block([Compute(1), Compute(1), Halt()])
    block.sync_delay = delay
    block.tick()
    block.raise_irq()
    # boundary at tick 2 consumes the latch but starts the jitter countdown
    reads = []
    for c in range(2, 2 + delay + 1):
        out = block.tick()
        if out.tx is not None:
            reads.append(c)
    assert reads == [2 + delay]  # read lands delay cycles after the normal tick
    assert block.state is BlockState.AWAITING_SYNC


def test_sync_delay_is_one_shot():
    block = make_block([Compute(1), Compute(1), Compute(1), Halt()])
    block.sync_delay = 2
    block.tick()
    block.raise_irq()
    drain(block, 3, responses={4: 0})
    assert block.sync_delay == 0


# -- safe-program fetch plumbing -------------------------------------------------------


def test_fetch_hook_sees_each_safe_index():
    seen = []
    block = accepted_block()
    block.safe_fetch_hook = lambda blk, idx: seen.append(idx)
    block.tick(response=1)
    block.tick(response=0)
    block.tick(response=0)  # index 2 is the end-of-stream probe
    assert seen == [0, 1, 2]


def test_safe_override_swaps_the_remaining_stream():
    block = accepted_block()
    block.safe_override = (1, [Write(0x10004, 9)])
    block.tick(response=1)  # instr 0 from the shared stream
    out = block.tick(response=0)  # instr 1 comes from the override
    assert out.tx == BusTransaction(TxKind.WRITE, 0x10004, 9)
    out = block.tick(response=0)  # override exhausted -> exit read
    assert block.state is BlockState.AWAITING_EXIT
    assert out.tx.address == LOCKSTEP_SYNC_ADDRESS


def test_determinism_two_identical_blocks():
    def walk():
        block = make_block([Compute(2), Write(0x10, 1), Halt()])
        log = []
        for c in range(1, 7):
            out = block.tick(response=0 if c == 4 else None)
            log.append((out.tx.short() if out.tx else None, block.state, block.pc))
        return log

    assert walk() == walk()
