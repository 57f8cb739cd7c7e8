"""Deterministic fault injection.

Faults perturb a block's outward behaviour only - emitted transactions, IRQ
reaction, sync-read timing or its copy of the safe instruction stream.  The
voter, the lockstep RAM and the trace writer are never touched, so masking
and detection outcomes are attributable to the architecture, not the harness.

Activation windows are either an absolute cycle or "when the target is about
to execute the k-th safe-program instruction".  Each scheduled fault fires
once.  Bit flips are single upsets: armed by their window, consumed by the
next data transaction, then gone.

Soak noise is a schedule too.  Each live block is upset on a cycle with
probability ``flip_probability``, independently of every other cycle and
block.  Rather than one Bernoulli draw per block and cycle, each block keeps
the cycle of its next upset: after an upset at cycle t (or from cycle 0) the
next one is ``t + 1 + floor(log(1 - U) / log1p(-p))``, the geometric
inter-arrival time of the same law (Devroye 1986), drawn from the block's own
stream ``random.Random(f"noise:{seed}:{block_id}")``.

Every activation and flip queues a (target, detail) event; the engine drains
the one queue after each hook and emits each drain in block order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from .block import BlockState, Instruction, ProcessingBlock
from .bus import LOCKSTEP_SYNC_ADDRESS, BusTransaction


class FaultKind(Enum):
    BIT_FLIP_DATA = "bit_flip_data"
    BIT_FLIP_ADDRESS = "bit_flip_address"
    DIVERGENT_PROGRAM = "divergent_program"
    STUCK_SILENT = "stuck_silent"
    NO_SHOW = "no_show"
    START_JITTER = "start_jitter"


# kinds whose window may name a safe-program instruction
INSTRUCTION_WINDOW_KINDS = frozenset(
    {
        FaultKind.BIT_FLIP_DATA,
        FaultKind.BIT_FLIP_ADDRESS,
        FaultKind.DIVERGENT_PROGRAM,
        FaultKind.STUCK_SILENT,
    }
)


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
    from their streams, which ``seed`` names."""

    def __init__(
        self, specs: List[FaultSpec], flip_probability: float = 0.0, seed: int = 0, n_blocks: int = 0
    ):
        # soak noise, per block: its stream and the cycle of its next upset;
        # at p = 1 there is no log1p(-p), and every cycle is an upset
        self._log_q = math.log1p(-flip_probability) if flip_probability < 1.0 else None
        self._noise: List[random.Random] = []
        if flip_probability > 0.0:
            self._noise = [random.Random(f"noise:{seed}:{b_id}") for b_id in range(n_blocks)]
        self._upsets: List[float] = [self._upset_after(0, rng) for rng in self._noise]
        # the first cycle a block is due an upset; infinite without noise
        self.next_upset: float = min(self._upsets, default=math.inf)
        # cycle-windowed faults as (at_cycle, target, declaration index, spec),
        # latest first so that the due ones pop off the end
        self._by_cycle: List[Tuple[int, int, int, FaultSpec]] = []
        # instruction-windowed faults by (target, safe index), declaration order
        self._by_fetch: Dict[Tuple[int, int], List[FaultSpec]] = {}
        for i, s in enumerate(specs):
            if s.at_cycle is not None:
                self._by_cycle.append((s.at_cycle, s.target, i, s))
            else:
                self._by_fetch.setdefault((s.target, s.at_safe_instr), []).append(s)
        self._by_cycle.sort(reverse=True)
        self.suppressed: set = set()
        self._armed_flips: Dict[int, List[FaultSpec]] = {}
        self._pending_divergent: Dict[int, FaultSpec] = {}
        self.pending_events: List[Tuple[int, dict]] = []  # (target, detail)

    # -- activation ----------------------------------------------------------

    def _activate(self, spec: FaultSpec, block: ProcessingBlock, via: str, safe_idx=None):
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
        self.pending_events.append((block.block_id, detail))

    @property
    def next_cycle(self) -> Optional[int]:
        """The cycle of the next cycle-windowed activation, None when none is left."""
        return self._by_cycle[-1][0] if self._by_cycle else None

    def on_cycle_start(self, cycle: int, blocks: List[ProcessingBlock]) -> None:
        """Activate every cycle-windowed fault whose time has come, in
        (target, declaration) order."""
        due = []
        while self._by_cycle and self._by_cycle[-1][0] <= cycle:
            due.append(self._by_cycle.pop())
        due.sort(key=lambda entry: entry[1:3])  # (target, declaration index)
        for _, target, _, spec in due:
            self._activate(spec, blocks[target], via="cycle")

    def on_safe_fetch(self, block: ProcessingBlock, safe_idx: int) -> None:
        """Fetch-time hook for instruction-windowed activation, installed on
        each block; fires just before the k-th safe instruction executes."""
        pending = self._pending_divergent.pop(block.block_id, None)
        if pending is not None:
            block.safe_override = (safe_idx, pending.program or ())
            self.pending_events.append(
                (block.block_id, {"fault": pending.kind.value, "window": "cycle", "applied_at": safe_idx})
            )
        for spec in self._by_fetch.pop((block.block_id, safe_idx), ()):
            self._activate(spec, block, via="safe_instr", safe_idx=safe_idx)

    # -- transaction filtering -------------------------------------------------

    def filter_tx(self, block_id: int, tx: BusTransaction) -> Optional[BusTransaction]:
        """Apply suppression and armed single-upset flips to one outgoing
        transaction; None when it never reaches the wire.  Flips touch data
        transactions only; the rendezvous and release reads of the sync
        register are protocol, not voted payload."""
        if block_id in self.suppressed:
            return None
        if tx.address == LOCKSTEP_SYNC_ADDRESS:
            return tx
        for spec in self._armed_flips.pop(block_id, ()):
            before = tx.short()
            if spec.kind is FaultKind.BIT_FLIP_DATA:
                tx = BusTransaction(tx.kind, tx.address, tx.data ^ (1 << spec.bit))
            else:
                tx = BusTransaction(tx.kind, tx.address ^ (1 << spec.bit), tx.data)
            self.pending_events.append(
                (
                    block_id,
                    {
                        "fault": spec.kind.value,
                        "bit": spec.bit,
                        "before": before,
                        "after": tx.short(),
                    },
                )
            )
        return tx

    def drain_events(self) -> List[Tuple[int, dict]]:
        """Take the queued (target, detail) events, ordered by target; the
        sort is stable, so one block's events keep their queue order."""
        events, self.pending_events = self.pending_events, []
        events.sort(key=itemgetter(0))
        return events

    def _upset_after(self, cycle: int, rng: random.Random) -> float:
        """The cycle of the first upset after ``cycle``: every cycle at p = 1,
        never when the gap is too large for a float."""
        if self._log_q is None:
            return cycle + 1
        gap = math.log(1.0 - rng.random()) / self._log_q
        return cycle + 1 + math.floor(gap) if gap < math.inf else math.inf

    def stochastic_flips(self, cycle: int, blocks: List[ProcessingBlock]) -> None:
        """Seeded soak mode: arm a random data-bit upset, for its next data
        transaction, on each block whose upset is due at ``cycle``, then draw
        the block's next upset.  A halted block's upset is dropped and it
        draws no more; so is the upset of a block whose flip is still armed,
        without a bit, so that at most one stochastic flip is pending per block."""
        upsets = self._upsets
        for b_id, due in enumerate(upsets):
            if due > cycle:
                continue
            if blocks[b_id].state is BlockState.HALTED:
                upsets[b_id] = math.inf
                continue
            rng = self._noise[b_id]
            if not self._armed_flips.get(b_id):
                bit = rng.randrange(32)
                spec = FaultSpec(b_id, FaultKind.BIT_FLIP_DATA, at_cycle=cycle, bit=bit)
                self._armed_flips.setdefault(b_id, []).append(spec)
                self.pending_events.append(
                    (b_id, {"fault": spec.kind.value, "window": "stochastic", "bit": bit})
                )
            upsets[b_id] = self._upset_after(cycle, rng)
        self.next_upset = min(upsets, default=math.inf)
