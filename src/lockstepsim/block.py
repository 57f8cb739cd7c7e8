"""Processing block: an abstract instruction interpreter with an IRQ port.

A block runs its own program until the lockstep monitor raises the group
interrupt.  At the next instruction boundary it saves its program counter and
issues a blocking read of the synchronization register.  A nonzero response
admits it to the lockstep group (execution continues inside the shared safe
program); a zero response is a rejection and the block resumes where it left
off.  When the safe program ends, the block issues a second read of the same
register and stalls until the whole group is released together.

Timing model: Compute(d) occupies d ticks; a bus instruction issues its
transaction in one tick and completes (pc advance plus fall-through into the
next instruction) at the tick its response arrives, so back-to-back bus
operations issue once per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, List, Optional, Sequence, Tuple, Union

from .bus import LOCKSTEP_SYNC_ADDRESS, SAFECODE_START, BusTransaction, TxKind


class TriggerSource(Enum):
    MONITOR_TIMED = "monitor_timed"
    MONITOR_TRIGGERED = "monitor_triggered"
    APP_TIMED = "app_timed"
    APP_TRIGGERED = "app_triggered"
    EXTERNAL_IN_SCOPE = "external_in_scope"
    EXTERNAL_OUT_OF_SCOPE = "external_out_of_scope"


# Sources a program's trigger instruction may cite vs. the scenario schedule.
PROGRAM_SOURCES = frozenset(
    {
        TriggerSource.MONITOR_TIMED,
        TriggerSource.MONITOR_TRIGGERED,
        TriggerSource.APP_TIMED,
        TriggerSource.APP_TRIGGERED,
    }
)
EXTERNAL_SOURCES = frozenset(
    {TriggerSource.EXTERNAL_IN_SCOPE, TriggerSource.EXTERNAL_OUT_OF_SCOPE}
)


@dataclass(frozen=True)
class Compute:
    duration: int


@dataclass(frozen=True)
class Read:
    address: int


@dataclass(frozen=True)
class Write:
    address: int
    data: int


@dataclass(frozen=True)
class TriggerSP:
    source: TriggerSource


@dataclass(frozen=True)
class Halt:
    pass


Instruction = Union[Compute, Read, Write, TriggerSP, Halt]


class BlockState(Enum):
    NORMAL_PROCESSING = "normal_processing"
    AWAITING_SYNC = "awaiting_sync"
    SAFE_PROCESSING = "safe_processing"
    AWAITING_EXIT = "awaiting_exit"
    REJECTED = "rejected"  # transient: passed through within one tick
    HALTED = "halted"


@dataclass
class TickOutput:
    """Everything a single tick produced, for the engine to route."""

    tx: Optional[BusTransaction] = None  # its role is the state the tick ends in
    trigger: Optional[TriggerSource] = None
    state_changes: List[Tuple[BlockState, BlockState]] = field(default_factory=list)


class ProcessingBlock:
    def __init__(
        self,
        block_id: int,
        program: Sequence[Instruction],
        safe_program: Sequence[Instruction],
    ):
        self.block_id = block_id
        self.program = list(program)
        self.safe_program = safe_program  # shared, read-only
        self.state = BlockState.NORMAL_PROCESSING
        self.pc = 0
        self.saved_pc: Optional[int] = None
        self.pending_irq = False
        # fault knobs (set by the fault engine)
        self.ignore_irq = False
        self.sync_delay = 0
        self.safe_override: Optional[Tuple[int, List[Instruction]]] = None
        self.safe_fetch_hook: Optional[Callable[["ProcessingBlock", int], None]] = None
        # execution internals
        self._compute_left = 0
        self._waiting = False
        self._jitter_left: Optional[int] = None

    # -- external stimulus ------------------------------------------------

    def raise_irq(self) -> bool:
        """Latch the group interrupt.  Halted blocks and no-show faulted
        blocks ignore it.  Returns whether the latch took."""
        if self.state is BlockState.HALTED or self.ignore_irq:
            return False
        self.pending_irq = True
        return True

    # -- helpers -----------------------------------------------------------

    def _change(self, out: TickOutput, new: BlockState):
        out.state_changes.append((self.state, new))
        self.state = new

    def _enter_sync(self, out: TickOutput):
        self.saved_pc = self.pc
        self._change(out, BlockState.AWAITING_SYNC)
        out.tx = BusTransaction(TxKind.READ, LOCKSTEP_SYNC_ADDRESS)

    def _enter_exit(self, out: TickOutput):
        self._change(out, BlockState.AWAITING_EXIT)
        out.tx = BusTransaction(TxKind.READ, LOCKSTEP_SYNC_ADDRESS)

    def _safe_index(self) -> int:
        return self.pc - SAFECODE_START

    def _fetch_safe(self) -> Optional[Instruction]:
        idx = self._safe_index()
        if self.safe_fetch_hook is not None:
            self.safe_fetch_hook(self, idx)
        if self.safe_override is not None:
            start, alt = self.safe_override
            if idx >= start:
                off = idx - start
                return alt[off] if off < len(alt) else None
        return self.safe_program[idx] if idx < len(self.safe_program) else None

    # -- the tick ----------------------------------------------------------

    def tick(self, response: Optional[int] = None) -> TickOutput:
        """Advance one cycle.  ``response`` carries the completion of a bus
        transaction issued earlier (sync/exit release value or data answer)."""
        out = TickOutput()
        if self.state is BlockState.HALTED:
            return out

        if self.state is BlockState.AWAITING_SYNC:
            if response is None:
                return out  # still stalled at the monitor
            if response & 0xFF:
                self._change(out, BlockState.SAFE_PROCESSING)
                self.pc = SAFECODE_START
            else:
                self._change(out, BlockState.REJECTED)
                self._change(out, BlockState.NORMAL_PROCESSING)
                self.pc = self.saved_pc
                self.saved_pc = None
            # fall through: execute this tick from the new pc
        elif self.state is BlockState.AWAITING_EXIT:
            if response is None:
                return out
            # release value is ignored beyond arrival itself
            self._change(out, BlockState.NORMAL_PROCESSING)
            self.pc = self.saved_pc
            self.saved_pc = None

        if self._waiting:
            if response is None:
                return out  # bus op still outstanding
            self._waiting = False
            self.pc += 1

        if self._compute_left > 0:
            self._compute_left -= 1
            if self._compute_left == 0:
                self.pc += 1
            return out

        if self._jitter_left is not None:
            self._jitter_left -= 1
            if self._jitter_left > 0:
                return out
            self._jitter_left = None
            self._enter_sync(out)
            return out

        # instruction boundary
        if self.pending_irq and self.state is BlockState.NORMAL_PROCESSING:
            self.pending_irq = False
            if self.sync_delay > 0:
                self._jitter_left = self.sync_delay
                self.sync_delay = 0
                return out
            self._enter_sync(out)
            return out

        return self._execute(out)

    def retire_compute(self) -> int:
        """Finish the ``Compute`` in progress at once and return the ticks it
        had left, 0 outside a compute.  Those ticks would change nothing that
        anyone outside the block reads, so the caller need not tick the block
        again until they are over."""
        left = self._compute_left
        if left:
            self._compute_left = 0
            self.pc += 1
        return left

    def _execute(self, out: TickOutput) -> TickOutput:
        if self.state is BlockState.SAFE_PROCESSING:
            instr = self._fetch_safe()
            if instr is None:
                self._enter_exit(out)
                return out
        else:
            if self.pc >= len(self.program):
                self._change(out, BlockState.HALTED)
                return out
            instr = self.program[self.pc]

        if isinstance(instr, Compute):
            self._compute_left = instr.duration
            self._compute_left -= 1
            if self._compute_left == 0:
                self.pc += 1
        elif isinstance(instr, Read):
            out.tx = BusTransaction(TxKind.READ, instr.address)
            self._waiting = True
        elif isinstance(instr, Write):
            out.tx = BusTransaction(TxKind.WRITE, instr.address, instr.data)
            self._waiting = True
        elif isinstance(instr, TriggerSP):
            out.trigger = instr.source
            self.pc += 1
        elif isinstance(instr, Halt):
            self._change(out, BlockState.HALTED)
        else:  # pragma: no cover - closed instruction set
            raise TypeError(f"unknown instruction {instr!r}")
        return out
