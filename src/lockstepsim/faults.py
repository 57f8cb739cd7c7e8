"""Deterministic fault injection.

Faults perturb a block's outward behaviour only - emitted transactions, IRQ
reaction, sync-read timing or its copy of the safe instruction stream.  The
voter, the lockstep RAM and the trace writer are never touched, so masking
and detection outcomes are attributable to the architecture, not the harness.

Activation windows are either an absolute cycle or "when the target is about
to execute the k-th safe-program instruction".  Each scheduled fault fires
once.  Bit flips are single upsets: armed by their window, consumed by the
next data transaction, then gone.

Soak noise shares the cycle schedule.  Each live block is upset on a cycle
with probability ``flip_probability``, independently of every other cycle
and block.  Rather than one Bernoulli draw per block and cycle, each block
keeps the cycle of its next upset on the schedule: after an upset at cycle t
(or from cycle 0) the next one is ``t + 1 + floor(log(1 - U) / log1p(-p))``,
the geometric inter-arrival time of the same law (Devroye 1986), drawn from
the block's own stream ``random.Random(f"noise:{seed}:{block_id}")``.  An
upset comes after the block's declared faults of its cycle.
"""

from __future__ import annotations

import math
import random
from bisect import insort
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .block import BlockState, Instruction, ProcessingBlock
from .bus import LOCKSTEP_SYNC_ADDRESS, BusTransaction
from .trace import Trace


class FaultKind(Enum):
    BIT_FLIP_DATA = "bit_flip_data"
    BIT_FLIP_ADDRESS = "bit_flip_address"
    DIVERGENT_PROGRAM = "divergent_program"
    STUCK_SILENT = "stuck_silent"
    NO_SHOW = "no_show"
    START_JITTER = "start_jitter"


# kinds whose window may name a safe-program instruction: all but the two
# that act before lockstep
INSTRUCTION_WINDOW_KINDS = frozenset(FaultKind) - {FaultKind.NO_SHOW, FaultKind.START_JITTER}


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.  Exactly one of at_cycle / at_safe_instr is set."""

    target: int
    kind: FaultKind
    at_cycle: Optional[int] = None
    at_safe_instr: Optional[int] = None
    bit: Optional[int] = None
    delay: Optional[int] = None
    program: Optional[Tuple[Instruction, ...]] = None


class FaultEngine:
    """Holds all fault state for one world and exposes the three hook points
    the engine drives: cycle-start activation, safe-instruction-fetch
    activation, and outgoing-transaction filtering.

    Each scheduled fault sits in one schedule until it activates and leaves
    it then, so every fault fires once.  Soak noise, when ``flip_probability``
    is above zero, upsets blocks ``0 .. n_blocks - 1`` on the cycles drawn
    from their streams, which ``seed`` names; each block's next upset sits on
    the schedule of the cycle-windowed faults.  ``trace`` is the run's sink,
    which the ``fault_applied`` events go to (an untraced one when not given);
    every hook takes the cycle it runs in."""

    def __init__(
        self, specs: List[FaultSpec], flip_probability: float = 0.0, seed: int = 0,
        n_blocks: int = 0, trace: Optional[Trace] = None,
    ):
        self.trace = Trace(False) if trace is None else trace
        # the cycle schedule, ascending: (at_cycle, target, declaration index,
        # spec) per cycle-windowed fault and (cycle, target, inf, None) per
        # block's next upset, which comes after the block's declared faults
        self._schedule: List[Tuple[int, int, float, Optional[FaultSpec]]] = []
        # instruction-windowed faults by (target, safe index), declaration order
        self._by_fetch: Dict[Tuple[int, int], List[FaultSpec]] = {}
        for i, s in enumerate(specs):
            if s.at_cycle is not None:
                self._schedule.append((s.at_cycle, s.target, i, s))
            else:
                self._by_fetch.setdefault((s.target, s.at_safe_instr), []).append(s)
        self._schedule.sort()
        # the blocks whose safe fetches a fault can act on: only they get the fetch hook
        divergent = FaultKind.DIVERGENT_PROGRAM
        self.fetch_targets = {s.target for s in specs if s.at_cycle is None or s.kind is divergent}
        # soak noise, per block: its stream; at p = 1 there is no log1p(-p),
        # and every cycle is an upset
        self._log_q = math.log1p(-flip_probability) if flip_probability < 1.0 else None
        self._noise: List[random.Random] = []
        if flip_probability > 0.0:
            self._noise = [random.Random(f"noise:{seed}:{b_id}") for b_id in range(n_blocks)]
        for b_id in range(len(self._noise)):
            self._schedule_upset(0, b_id)
        self.suppressed: set = set()
        self._armed_flips: Dict[int, List[FaultSpec]] = {}
        self._pending_divergent: Dict[int, FaultSpec] = {}

    # -- activation ----------------------------------------------------------

    def _activate(
        self, cycle: int, spec: FaultSpec, block: ProcessingBlock, via: str = "cycle", safe_idx=None
    ):
        """Apply one fault: in phase 1 from the cycle schedule, or in phase 3
        at the fetch of safe index ``safe_idx``."""
        detail = {"fault": spec.kind.value, "window": via}
        if spec.kind is FaultKind.NO_SHOW:
            block.ignore_irq = True
        elif spec.kind is FaultKind.START_JITTER:
            block.sync_delay = spec.delay or 1
            detail["delay"] = block.sync_delay
        elif spec.kind is FaultKind.STUCK_SILENT:
            self.suppressed.add(block.block_id)
        elif spec.kind is FaultKind.DIVERGENT_PROGRAM:
            if safe_idx is None:
                # cycle-windowed: take effect at the next safe fetch
                self._pending_divergent[block.block_id] = spec
                detail["deferred"] = 1
            else:
                block.safe_override = (safe_idx, spec.program or ())
                detail["at_safe_instr"] = safe_idx
        else:  # bit flips: arm for the next data transaction
            self._armed_flips.setdefault(block.block_id, []).append(spec)
            detail["bit"] = spec.bit
        phase = 1 if safe_idx is None else 3
        self.trace.emit(cycle, phase, block.block_id, "fault_applied", detail)

    @property
    def next_cycle(self) -> float:
        """The first cycle a cycle-windowed fault or an upset falls due,
        infinite when the schedule is empty."""
        return self._schedule[0][0] if self._schedule else math.inf

    def on_cycle_start(self, cycle: int, blocks: List[ProcessingBlock]) -> None:
        """Activate every cycle-windowed fault and upset whose time has come,
        in (target, order) order: a block's declared faults, then its upset."""
        schedule = self._schedule
        due = []
        while schedule and schedule[0][0] <= cycle:
            due.append(schedule.pop(0))
        due.sort(key=itemgetter(1, 2))
        for _, target, _, spec in due:
            if spec is not None:
                self._activate(cycle, spec, blocks[target])
            else:
                self._upset(cycle, blocks[target])

    def on_safe_fetch(self, block: ProcessingBlock, safe_idx: int, cycle: int) -> None:
        """Fetch-time hook for instruction-windowed activation, installed on
        the blocks of ``fetch_targets``; fires just before the k-th safe
        instruction executes."""
        pending = self._pending_divergent.pop(block.block_id, None)
        if pending is not None:
            block.safe_override = (safe_idx, pending.program or ())
            detail = {"fault": pending.kind.value, "window": "cycle", "applied_at": safe_idx}
            self.trace.emit(cycle, 3, block.block_id, "fault_applied", detail)
        for spec in self._by_fetch.pop((block.block_id, safe_idx), ()):
            self._activate(cycle, spec, block, "safe_instr", safe_idx)

    # -- transaction filtering -------------------------------------------------

    def filter_tx(self, cycle: int, block_id: int, tx: BusTransaction) -> Optional[BusTransaction]:
        """Apply suppression and armed single-upset flips to one outgoing
        transaction; None when it never reaches the wire.  Flips touch data
        transactions only; the rendezvous and release reads of the sync
        register are protocol, not voted payload."""
        if block_id in self.suppressed:
            return None
        if tx.address == LOCKSTEP_SYNC_ADDRESS:
            return tx
        for spec in self._armed_flips.pop(block_id, ()):
            if spec.kind is FaultKind.BIT_FLIP_DATA:
                flipped = BusTransaction(tx.kind, tx.address, tx.data ^ (1 << spec.bit))
            else:
                flipped = BusTransaction(tx.kind, tx.address ^ (1 << spec.bit), tx.data)
            if self.trace.traced:
                self.trace.emit(cycle, 3, block_id, "fault_applied", {
                    "fault": spec.kind.value, "bit": spec.bit,
                    "before": tx.short(), "after": flipped.short(),
                })
            tx = flipped
        return tx

    # -- soak noise --------------------------------------------------------------

    def _schedule_upset(self, cycle: int, b_id: int) -> None:
        """Put the block's first upset after ``cycle`` on the schedule: every
        cycle at p = 1, never when the gap is too large for a float."""
        if self._log_q is None:
            due = cycle + 1
        else:
            gap = math.log(1.0 - self._noise[b_id].random()) / self._log_q
            if gap == math.inf:
                return
            due = cycle + 1 + math.floor(gap)
        insort(self._schedule, (due, b_id, math.inf, None))

    def _upset(self, cycle: int, block: ProcessingBlock) -> None:
        """Arm a random data-bit upset, for its next data transaction, then
        schedule the block's next upset.  A halted block's upset is dropped
        and it draws no more; so is the upset of a block whose flip is still
        armed, without a bit, so that at most one stochastic flip is pending
        per block."""
        b_id = block.block_id
        if block.state is BlockState.HALTED:
            return
        if not self._armed_flips.get(b_id):
            bit = self._noise[b_id].randrange(32)
            spec = FaultSpec(b_id, FaultKind.BIT_FLIP_DATA, at_cycle=cycle, bit=bit)
            self._activate(cycle, spec, block, via="stochastic")
        self._schedule_upset(cycle, b_id)
