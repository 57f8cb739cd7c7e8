"""System controller and cycle engine.

One world = blocks + memory map + monitor + fault engine + trace.  Each cycle
executes seven phases in a fixed order:

1. the fault engine's cycle schedule: the cycle-windowed faults and the
   soak-noise upsets due, a block's declared faults before its upset
2. scheduled external triggers
3. block ticks, ascending block id, of the blocks that have input
   (transactions collected, not yet served; the state a tick ends in names
   its transaction: a sync read, an exit read, voted data or a system-bus
   access).  Each block keeps its own ``wake``, the cycle it next acts in
   (see ``block``), and is ticked only then.  What it latches meanwhile (an
   IRQ, a fault knob) it reads when it wakes; an IRQ latch that takes during
   a run of computes cuts the run at its first instruction boundary after
   the latch cycle, in phase 4.
4. rendezvous work: the monitor takes the session requests, then the world
   delivers the IRQ latches due (latency 0 included), then the monitor takes
   the entry arrivals (admission) and the exit arrivals (group release)
5. bus commit: system RAM (serialized by ascending block id), then, while a
   voted port holds a transaction, the monitor's vote and voted-bus commit
   (compare, select, forward, answer the data ports).  A member's port holds
   the transaction it put on the bus, exit reads included, until it is
   answered or released; a silenced port presents nothing.
6. the monitor's availability observer
7. system-level state transitions

Every part writes its own events to the run's one ``Trace``: the fault engine
in phase 1, and in phase 3 at a block's safe fetch or on its outgoing
transaction; a block at the end of its tick, after its fetch hook's.  The
monitor returns each step's ``(block, response)`` answers, which the world
gives its blocks.  Answers produced in phases 4-5 of cycle t wake the issuing
block for its tick in cycle t+1, so an unstalled bus operation costs one cycle.

Every step ends by setting ``World._due``: the first cycle on which any
phase can have input.  That is the earliest block wake, trigger,
cycle-windowed fault or soak-noise upset, IRQ delivery or session budget, or
the next cycle while a voted port holds a transaction.  A cycle before it has
no input at all.  ``step()`` always runs the seven phases of one cycle; on a
quiet cycle each finds no input and emits nothing, and ``_due`` keeps its
value.  ``run()`` advances a quiet cycle itself, with no ``step()`` call.
Within a step, a phase with no input is skipped.

The world boots when it is built: Boot, then NormalProcessing (or SafeState
on a failed boot check).  From then on phase 7 reads the system state off the
monitor: SafeState once an availability error has frozen the monitor,
otherwise idle -> NormalProcessing, gathering -> Synchronizing, lockstep and
releasing -> SafeProcessingMode.
Requests run before entry, so a session can be requested and admitted in one
phase 4 (sync reads on IRQs latched earlier); it is entered through
Synchronizing.
Timed inputs are fixed when the world is built: triggers and IRQ deliveries
are schedules that the phases consume, and no phase reads the scenario.
Every change is checked against ``trace.ALLOWED_SYSTEM_ARCS``; an arc outside
it is a simulator bug.  SafeState is absorbing and ends the simulation; only
the terminal marker event may follow.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from . import __version__ as VERSION
from .block import BlockState, ProcessingBlock, TriggerSource
from .bus import BusTransaction, MemoryMap, UnmappedAddress
from .faults import FaultEngine
from .monitor import LockstepMonitor, SyncState
from .scenario import Scenario, check_int, check_seed, program_runs, scenario_digest
from .trace import ALLOWED_SYSTEM_ARCS, Trace, TraceEvent


class SimInternalError(Exception):
    """A simulator invariant broke; maps to exit code 4."""


class SystemState(Enum):
    BOOT = "boot"
    SAFE_STATE = "safe_state"
    NORMAL_PROCESSING = "normal_processing"
    SYNCHRONIZING = "synchronizing"
    SAFE_PROCESSING_MODE = "safe_processing_mode"


# the system state of each monitor state while the monitor is not frozen
_SYSTEM_STATE_OF = {
    SyncState.IDLE: SystemState.NORMAL_PROCESSING,
    SyncState.GATHERING: SystemState.SYNCHRONIZING,
    SyncState.LOCKSTEP: SystemState.SAFE_PROCESSING_MODE,
    SyncState.RELEASING: SystemState.SAFE_PROCESSING_MODE,
}


class World:
    """All mutable state of one simulation; independent worlds never share."""

    def __init__(self, scenario: Scenario, seed: Optional[int] = None, trace_enabled: bool = True):
        self.scenario = scenario
        self.effective_seed = scenario.seed if seed is None else check_seed(seed, "seed override")
        self.cycle = 0
        self.system_state = SystemState.BOOT
        self.memory = MemoryMap()
        # the parts get the run's one sink, not the world: a finished world is
        # then freed by reference counting alone.  The seed's own stream drives
        # random selection only; soak noise has its own.
        trace = self.trace = Trace(trace_enabled)
        self.monitor = LockstepMonitor(
            scenario.moon,
            random.Random(self.effective_seed) if scenario.flags.random_selection else None,
            trace,
        )
        self.blocks = [
            ProcessingBlock(i, program, scenario.safe_program, trace, program_runs(program))
            for i, program in enumerate(scenario.programs)
        ]
        self.fault_engine = FaultEngine(
            scenario.faults, scenario.noise_flip_probability, self.effective_seed, scenario.n_blocks,
            trace,
        )
        for b_id in self.fault_engine.fetch_targets:
            self.blocks[b_id].safe_fetch_hook = self.fault_engine.on_safe_fetch
        # latest first, so the due ones pop off the end in declaration order
        self.triggers = sorted(scenario.triggers, key=attrgetter("cycle"))[::-1]
        self.irq_latency = scenario.irq_latency or [0] * scenario.n_blocks
        self.pending_irq: Dict[int, List[int]] = {}  # deliver_cycle -> block ids
        self.end_reason = "max_cycles"
        # the first cycle any phase can have input; set by every full step,
        # and the first step is one
        self._due = 1
        moon = scenario.moon
        trace.emit(0, 1, "system", "boot", {
            "result": scenario.boot_check,
            "n_required": moon.n_required,
            "m_agree": moon.m_agree,
            "mode": moon.validate().value,
        })
        failed = scenario.boot_check == "fail"
        self._set_system_state(SystemState.SAFE_STATE if failed else SystemState.NORMAL_PROCESSING)

    def _set_system_state(self, new: SystemState) -> None:
        old = self.system_state
        if (old.value, new.value) not in ALLOWED_SYSTEM_ARCS:
            raise SimInternalError(
                f"illegal system transition {old.value} -> {new.value} (cycle {self.cycle})"
            )
        self.system_state = new
        if self.trace.traced:
            detail = {"from": old.value, "to": new.value}
            self.trace.emit(self.cycle, 7, "system", "state_change", detail)

    # -- one cycle -------------------------------------------------------------

    def step(self) -> None:
        """Run the seven phases of the next cycle."""
        if self.system_state is SystemState.SAFE_STATE:
            raise SimInternalError("step after safe state")
        self.cycle += 1
        c = self.cycle
        faults = self.fault_engine
        monitor = self.monitor
        trace = self.trace

        # phase 1: the cycle-windowed faults and soak-noise upsets due
        if faults.next_cycle <= c:
            faults.on_cycle_start(c, self.blocks)

        # phase 2: scheduled external triggers
        requests: List[Tuple[object, TriggerSource]] = []
        triggers = self.triggers
        while triggers and triggers[-1].cycle <= c:
            source = triggers.pop().source
            trace.emit(c, 2, "system", "trigger", {"source": source.value})
            requests.append(("external", source))

        # phase 3: ticks of the blocks that have input, which emit their own events
        sync_arrivals: List[int] = []
        exit_arrivals: List[int] = []
        system_queue: List[Tuple[int, BusTransaction]] = []
        held = monitor.held
        for b in self.blocks:
            if b.wake > c:
                continue  # asleep, or waiting for an answer
            out = b.tick(c)
            if out is None:
                continue
            if isinstance(out, TriggerSource):
                requests.append((b.block_id, out))
                continue
            tx = faults.filter_tx(c, b.block_id, out)
            if tx is None:
                continue  # suppressed on the wire; the block stays stalled
            if b.state is BlockState.AWAITING_SYNC:
                if trace.traced:
                    trace.emit(c, 3, b.block_id, "sync_read", {"address": f"0x{tx.address:08X}"})
                sync_arrivals.append(b.block_id)
            elif b.state is BlockState.NORMAL_PROCESSING:
                system_queue.append((b.block_id, tx))
            else:  # voted-bus port: data or the exit read, held until served or released
                held[b.block_id] = tx
                if b.state is BlockState.AWAITING_EXIT:
                    if trace.traced:
                        detail = {"address": f"0x{tx.address:08X}"}
                        trace.emit(c, 3, b.block_id, "exit_read", detail)
                    exit_arrivals.append(b.block_id)

        # phase 4: rendezvous work; its answers and phase 5's are given at
        # the end of phase 5
        before = monitor.sync_state
        answers: List[Tuple[int, int]] = []
        for origin, source in requests:
            if monitor.request_sp(c, origin, source):
                for b_id, latency in enumerate(self.irq_latency):
                    self.pending_irq.setdefault(c + latency, []).append(b_id)
        if self.pending_irq:
            for b_id in self.pending_irq.pop(c, ()):
                self.blocks[b_id].raise_irq(c)
        gathering = monitor.sync_state is SyncState.GATHERING
        if sync_arrivals:
            answers += monitor.finalize_rendezvous(sync_arrivals, c)
        if exit_arrivals:
            answers += monitor.finalize_release(exit_arrivals, c)

        # phase 5: bus commit: system RAM, then the voted bus while a port holds
        # a transaction (only members do, and only until their release)
        for b_id, tx in system_queue:
            try:
                answers.append((b_id, self.memory.issue(tx, voted=False)))
            except UnmappedAddress as exc:
                raise UnmappedAddress(exc.address, f"cycle {c}, block {b_id}: {exc.context}") from None
        if held:
            answers += monitor.vote(c, self.memory)
        for b_id, response in answers:  # each block acts on its answer next cycle
            self.blocks[b_id].answer(response, c)

        # phase 6: observer; every budget and bus fault arises outside idle
        if monitor.sync_state is not SyncState.IDLE:
            monitor.observe(c)

        # phase 7: the system state follows the monitor's, which only phases 4 and 6 move
        if monitor.sync_state is not before or monitor.frozen:
            if gathering and self.system_state is SystemState.NORMAL_PROCESSING:
                self._set_system_state(SystemState.SYNCHRONIZING)
            if monitor.frozen:
                new = SystemState.SAFE_STATE
            else:
                new = _SYSTEM_STATE_OF[monitor.sync_state]
            if new is not self.system_state:
                self._set_system_state(new)
        self._due = self._next_due()

    def _next_due(self) -> float:
        """The first cycle after this one on which any phase can have input:
        the vote of a held transaction, a block's wake, a trigger, a
        cycle-windowed fault or soak-noise upset, an IRQ delivery or a
        budget's lapse."""
        due = min([b.wake for b in self.blocks])
        if due == self.cycle + 1 or self.monitor.held:
            # nothing is due sooner; only voted ports hold a transaction, and
            # it is voted every cycle
            return self.cycle + 1
        if self.triggers:
            due = min(due, self.triggers[-1].cycle)
        due = min(due, self.fault_engine.next_cycle)
        if self.pending_irq:
            due = min(due, min(self.pending_irq))
        deadline = self.monitor.deadline
        if deadline is not None:
            due = min(due, deadline)
        return due

    # -- whole runs -----------------------------------------------------------

    def quiescent(self) -> bool:
        """Nothing can ever happen again: all blocks halted, no session in
        flight, no scheduled trigger still to come (a request raised against
        halted blocks must still run into its gathering timeout)."""
        return (
            not self.triggers
            and self.monitor.sync_state is SyncState.IDLE
            and all(b.state is BlockState.HALTED for b in self.blocks)
        )

    def run(self, max_cycles: Optional[int] = None) -> None:
        """Run to ``max_cycles``, the safe state or quiescence.  A cycle
        before ``_due`` has no input, so it is advanced here with no step:
        it would emit nothing and change nothing that ``quiescent()`` tests."""
        if max_cycles is None:
            max_cycles = self.scenario.max_cycles
        else:
            check_int(max_cycles, "max_cycles override", minimum=0)
        while self.system_state is not SystemState.SAFE_STATE and self.cycle < max_cycles:
            if self.cycle + 1 < self._due:
                self.cycle += 1
                continue
            self.step()
            if self.quiescent():
                self.end_reason = "all_halted"
                break
        if self.system_state is SystemState.SAFE_STATE:
            self.end_reason = "safe_state"
        self.trace.emit(self.cycle, 7, "system", "halt", {"reason": self.end_reason})


@dataclass
class Report:
    """Run summary; the full trace rides along but serializes separately.
    The scenario hash and the memory digest are derived when read, so a
    run whose report is never serialized does not pay for them."""

    scenario_name: str
    effective_seed: int
    version: str
    scenario: Scenario = field(repr=False, compare=False)
    boot_result: str
    final_state: str
    end_reason: str
    cycles_run: int
    sessions: List[Dict]
    sessions_completed: int
    accepted: int
    rejected: int
    masked_fault_cycles: int
    no_majority_cycles: int
    availability_errors: int
    ls_ram: Dict[int, int]
    io_log: List[int]
    trace: List[TraceEvent] = field(repr=False, default_factory=list)

    @property
    def scenario_hash(self) -> str:
        """The scenario's digest, computed on its first read for that scenario
        value: sweeps never read it, and repeated runs of one value share it."""
        return scenario_digest(self.scenario)

    @property
    def memory_digest(self) -> str:
        """sha256 of the committed memory image, ``ls_ram`` and ``io_log``."""
        return memory_digest(self.ls_ram, self.io_log)

    def to_dict(self) -> Dict:
        return {
            "scenario_name": self.scenario_name,
            "effective_seed": self.effective_seed,
            "version": self.version,
            "scenario_hash": self.scenario_hash,
            "boot_result": self.boot_result,
            "final_state": self.final_state,
            "end_reason": self.end_reason,
            "cycles_run": self.cycles_run,
            "sessions": self.sessions,
            "sessions_completed": self.sessions_completed,
            "accepted": self.accepted,
            "rejected": self.rejected,
            "masked_fault_cycles": self.masked_fault_cycles,
            "no_majority_cycles": self.no_majority_cycles,
            "availability_errors": self.availability_errors,
            "ls_ram": {f"0x{addr:08X}": value for addr, value in sorted(self.ls_ram.items())},
            "io_log": list(self.io_log),
            "memory_digest": self.memory_digest,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=False) + "\n"


def memory_digest(ls_ram: Dict[int, int], io_log: List[int]) -> str:
    canon = json.dumps(
        {"ls_ram": sorted(ls_ram.items()), "io_log": list(io_log)},
        separators=(",", ":"),
    )
    return hashlib.sha256(canon.encode("ascii")).hexdigest()


def run(
    scenario: Scenario,
    seed: Optional[int] = None,
    max_cycles: Optional[int] = None,
    trace_enabled: bool = True,
) -> Report:
    """Run a scenario to completion and summarize."""
    world = World(scenario, seed=seed, trace_enabled=trace_enabled)
    world.run(max_cycles=max_cycles)
    sessions = world.monitor.sessions
    return Report(
        scenario_name=scenario.name,
        effective_seed=world.effective_seed,
        version=VERSION,
        scenario=scenario,
        boot_result=scenario.boot_check,
        final_state=world.system_state.value,
        end_reason=world.end_reason,
        cycles_run=world.cycle,
        # asdict(s) without its recursive copy: the id lists are its only containers
        sessions=[
            dict(vars(s), accepted=list(s.accepted), rejected=list(s.rejected)) for s in sessions
        ],
        sessions_completed=sum(s.completed for s in sessions),
        accepted=sum(len(s.accepted) for s in sessions),
        rejected=world.monitor.rejected,
        masked_fault_cycles=world.monitor.masked_fault_cycles,
        # the first availability error freezes the monitor and ends the run
        no_majority_cycles=sum(s.outcome == "no_majority" for s in sessions),
        availability_errors=int(world.monitor.frozen),
        ls_ram=dict(world.memory.ls_ram),
        io_log=list(world.memory.io_log),
        trace=world.trace,
    )
