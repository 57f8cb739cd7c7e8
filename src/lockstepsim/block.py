"""Processing block: an abstract instruction interpreter with an IRQ port.

A block runs its own program until the lockstep monitor raises the group
interrupt.  At the next instruction boundary it saves its program counter and
issues a blocking read of the synchronization register.  A nonzero response
admits it to the lockstep group (execution continues inside the shared safe
program); a zero response is a rejection and the block resumes where it left
off.  When the safe program ends, the block issues a second read of the same
register and stalls until the whole group is released together.

Timing model: a block keeps its own schedule, ``wake``, the cycle it next acts
in, and is ticked only then: when a sleep ends, or the cycle after the
transaction it issued is answered (``answer``).  Compute(d) occupies d cycles.
In the block's own program a run of consecutive computes, up to the next
instruction of another kind or the program's end, is one sleep: the tick that
meets its first compute advances the pc past the whole run and sleeps the run's
summed duration minus 1, both read off the program's run table
(``compute_runs``).  Only an IRQ latch can need a boundary inside the run;
``raise_irq`` cuts the sleep there when the latch takes, by bisecting the
table's prefix sums: the block wakes at the first boundary after the latch
cycle, with the pc at that boundary's instruction, exactly as if it had ticked
at every compute.  Safe-program computes are fetched one at a time, so that the
fetch hook sees each index: each advances the pc and sleeps d - 1 cycles.  A
start jitter of d sleeps d - 1 cycles from the boundary that took the
interrupt, then issues the sync read.  A bus instruction issues its transaction
in one tick and completes (pc advance plus fall-through into the next
instruction) at the tick its answer arrives, so back-to-back bus operations
issue once per cycle.  Each read and write object builds the transaction it
issues once, as ``tx``: blocks that execute one object issue one transaction
object, which the voter finds equal by identity.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import accumulate
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .bus import LOCKSTEP_SYNC_ADDRESS, SAFECODE_START, BusTransaction, TxKind
from .trace import Trace


class TriggerSource(Enum):
    MONITOR_TIMED = "monitor_timed"
    MONITOR_TRIGGERED = "monitor_triggered"
    APP_TIMED = "app_timed"
    APP_TRIGGERED = "app_triggered"
    EXTERNAL_IN_SCOPE = "external_in_scope"
    EXTERNAL_OUT_OF_SCOPE = "external_out_of_scope"


# the sources the scenario's trigger schedule cites; a program cites the others
EXTERNAL_SOURCES = frozenset(
    {TriggerSource.EXTERNAL_IN_SCOPE, TriggerSource.EXTERNAL_OUT_OF_SCOPE}
)


@dataclass(frozen=True)
class Compute:
    duration: int


@dataclass(frozen=True)
class Read:
    address: int

    @cached_property  # kept in the instance dict, past the frozen guard
    def tx(self) -> BusTransaction:
        return BusTransaction(TxKind.READ, self.address)


@dataclass(frozen=True)
class Write:
    address: int
    data: int

    @cached_property
    def tx(self) -> BusTransaction:
        return BusTransaction(TxKind.WRITE, self.address, self.data)


@dataclass(frozen=True)
class TriggerSP:
    source: TriggerSource


@dataclass(frozen=True)
class Halt:
    pass


Instruction = Union[Compute, Read, Write, TriggerSP, Halt]

# every sync and exit read of every block is this one transaction
SYNC_READ = BusTransaction(TxKind.READ, LOCKSTEP_SYNC_ADDRESS)


def compute_runs(program: Sequence[Instruction]) -> Tuple[List[int], List[int]]:
    """``program``'s run table: ``run_end[pc]``, the first pc at or after ``pc``
    that is not a ``Compute``, and ``cum[pc]``, the summed durations of the
    computes before ``pc``, which rise strictly within a run."""
    cum = [0, *accumulate(x.duration if isinstance(x, Compute) else 0 for x in program)]
    run_end, end = [0] * len(program), len(program)
    for pc in range(len(program) - 1, -1, -1):
        end = run_end[pc] = end if isinstance(program[pc], Compute) else pc
    return run_end, cum


class BlockState(Enum):
    NORMAL_PROCESSING = "normal_processing"
    AWAITING_SYNC = "awaiting_sync"
    SAFE_PROCESSING = "safe_processing"
    AWAITING_EXIT = "awaiting_exit"
    REJECTED = "rejected"  # transient: passed through within one tick
    HALTED = "halted"


class ProcessingBlock:
    def __init__(
        self, block_id: int, program: Sequence[Instruction], safe_program: Sequence[Instruction],
        trace: Optional[Trace] = None, runs: Optional[Tuple[List[int], List[int]]] = None,
    ):
        self.block_id = block_id
        self.program = program  # shared, read-only
        self.safe_program = safe_program  # shared, read-only
        self.state = BlockState.NORMAL_PROCESSING
        self.pc = 0
        self.saved_pc: Optional[int] = None
        self.pending_irq = False
        # fault knobs (set by the fault engine)
        self.ignore_irq = False
        self.sync_delay = 0
        self.safe_override: Optional[Tuple[int, Sequence[Instruction]]] = None
        self.safe_fetch_hook: Optional[Callable[["ProcessingBlock", int, int], None]] = None
        self._sync_on_wake = False  # a start jitter is delaying the sync read
        # the cycle the block next acts in: the end of a sleep, the cycle after
        # an answer, or never while it waits for one or once it halts
        self.wake: float = 0
        self._answer: Optional[int] = None
        self._run_end, self._cum = compute_runs(program) if runs is None else runs
        # the run of computes it sleeps through: its first pc and start cycle (None: no run)
        self.run_pc = 0
        self._run_start: Optional[int] = None
        self.trace = Trace(False) if trace is None else trace
        self._changes: List[Tuple[BlockState, BlockState]] = []  # emitted at a traced tick's end

    # -- external stimulus ------------------------------------------------

    def raise_irq(self, cycle: int) -> bool:
        """Latch the group interrupt in ``cycle``.  Halted blocks and no-show
        faulted blocks ignore it.  A latch that takes during a run of computes
        ends the run at its first boundary after ``cycle``, where the latch is
        taken: the block wakes there, with the pc at that boundary's
        instruction.  Returns whether the latch took."""
        if self.state is BlockState.HALTED or self.ignore_irq:
            return False
        self.pending_irq = True
        if self._run_start is not None:
            # the run's boundary before pc k falls on cycle origin + cum[k]
            cum, origin = self._cum, self._run_start - self._cum[self.run_pc]
            pc = self.pc = bisect_right(cum, cycle - origin, self.run_pc + 1)
            self.wake, self._run_start = origin + cum[pc], None
        return True

    def answer(self, response: int, cycle: int) -> None:
        """Answer the block's transaction in ``cycle`` (sync/exit release value
        or data answer); the block acts on it at its tick in the next cycle."""
        self._answer = response
        self.wake = cycle + 1

    # -- helpers -----------------------------------------------------------

    def _change(self, new: BlockState):
        if self.trace.traced:
            self._changes.append((self.state, new))
        self.state = new

    def _enter_sync(self) -> BusTransaction:
        self.saved_pc = self.pc
        self._change(BlockState.AWAITING_SYNC)
        return SYNC_READ

    def _resume(self):
        self._change(BlockState.NORMAL_PROCESSING)
        self.pc, self.saved_pc = self.saved_pc, None

    def _fetch_safe(self, cycle: int) -> Optional[Instruction]:
        idx = self.pc - SAFECODE_START
        if self.safe_fetch_hook is not None:
            self.safe_fetch_hook(self, idx, cycle)
        if self.safe_override is not None:
            start, alt = self.safe_override
            if idx >= start:
                off = idx - start
                return alt[off] if off < len(alt) else None
        return self.safe_program[idx] if idx < len(self.safe_program) else None

    # -- the tick ----------------------------------------------------------

    def tick(self, cycle: int) -> Union[BusTransaction, TriggerSource, None]:
        """Act in ``cycle``, the block's wake: on the answer to its
        transaction when one came, else at the end of a sleep.  Returns the
        transaction the tick issues or the trigger source it raises, if any,
        and sets the next wake: the end of the sleep the tick starts, or never
        while the block waits for an answer or once it halts.  The tick emits
        its events at its end, after its fetch hook's: each state change, a
        halt right after the change into it, then the trigger."""
        response, self._answer = self._answer, None
        self._run_start = None
        self.wake = cycle + 1  # unless the tick sleeps, issues or halts
        out = None
        if response is not None:
            if self.state is BlockState.AWAITING_SYNC and response & 0xFF:
                self._change(BlockState.SAFE_PROCESSING)
                self.pc = SAFECODE_START
            elif self.state is BlockState.AWAITING_SYNC:
                self._change(BlockState.REJECTED)
                self._resume()
            elif self.state is BlockState.AWAITING_EXIT:
                self._resume()  # release value is ignored beyond arrival itself
            else:  # a bus operation completed
                self.pc += 1
            # fall through: execute this tick from the new pc

        if self._sync_on_wake and response is None:
            self._sync_on_wake = False
            out = self._enter_sync()
        elif self.pending_irq and self.state is BlockState.NORMAL_PROCESSING:
            # an instruction boundary takes the latch
            self.pending_irq = False
            if self.sync_delay > 0:
                self.wake = cycle + self.sync_delay
                self.sync_delay = 0
                self._sync_on_wake = True
            else:
                out = self._enter_sync()
        else:
            out = self._execute(cycle)
        for old, new in self._changes:
            detail = {"from": old.value, "to": new.value}
            self.trace.emit(cycle, 3, self.block_id, "state_change", detail)
            if new is BlockState.HALTED:
                self.trace.emit(cycle, 3, self.block_id, "halt", {})
        self._changes.clear()
        if isinstance(out, TriggerSource):
            self.trace.emit(cycle, 3, self.block_id, "trigger", {"source": out.value})
        elif out is not None or self.state is BlockState.HALTED:
            self.wake = math.inf  # until its answer comes, or for good
        return out

    def _execute(self, cycle: int) -> Union[BusTransaction, TriggerSource, None]:
        safe = self.state is BlockState.SAFE_PROCESSING
        if safe:
            instr = self._fetch_safe(cycle)
            if instr is None:
                self._change(BlockState.AWAITING_EXIT)
                return SYNC_READ
        else:
            if self.pc >= len(self.program):
                self._change(BlockState.HALTED)
                return None
            instr = self.program[self.pc]

        if isinstance(instr, Compute):
            if safe:
                self.pc += 1
                self.wake = cycle + instr.duration
            else:  # sleep through the run of computes that starts here
                pc = self.run_pc = self.pc
                self.pc, self._run_start = self._run_end[pc], cycle
                self.wake = cycle + self._cum[self.pc] - self._cum[pc]
        elif isinstance(instr, (Read, Write)):
            return instr.tx
        elif isinstance(instr, TriggerSP):
            self.pc += 1
            return instr.source
        elif isinstance(instr, Halt):
            self._change(BlockState.HALTED)
        else:  # pragma: no cover - closed instruction set
            raise TypeError(f"unknown instruction {instr!r}")
        return None
