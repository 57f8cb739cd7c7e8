"""Lockstep monitor: group controller, rendezvous synchronizer, majority
voter and availability observer.

One session at a time, and one call per protocol step and cycle, which emits
the step's events and returns its ``(block, response)`` answers.  A session
request asserts the group IRQ; blocking reads of the synchronization register stall
at the monitor until the first ``n_required`` responders are admitted
together (ties within one cycle break by ascending block id, or by the seeded
``rng`` when given).  Everything arriving later, or while no session is
gathering, is answered zero at once.

While the group runs the safe program the monitor holds each member's voted
port: the transaction it put on the bus, exit reads included, until it is
answered or released.  The voter counts each port's equals among them (the
n x n compare matrix is derived only when a traced vote reads it), commits
the lowest port whose equality class reaches ``m_agree`` to the voted bus,
answers every pending data port with the response, and keeps the voted bus
idle when the winning class is "no transaction".  A cycle with
no class at ``m_agree`` is a no-majority fault.  Controlled release stalls
every exit read until all group members have issued theirs, then answers
them together.

The observer raises an availability error when gathering or execution outlive
their cycle budgets, or at once on a no-majority cycle or a voted commit to
an address the voted bus cannot serve; after that the monitor is frozen and
the system-level safe-state transition ends the run.

The monitor owns the session records: one per session request, filled in as
the session is admitted, rejects late readers, is released or fails.  The
record of the current session is ``sessions[-1]``; its ``accepted`` list is
the group membership and its cycles are the observer's budget origins.  It
also counts what no record holds: the rejected sync reads and the voted
cycles in which a port disagreed and a majority still won.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Sequence, Tuple

from .bus import LOCKSTEP_SYNC_ADDRESS, BusTransaction, MemoryMap, UnmappedAddress
from .trace import Trace

Answers = List[Tuple[int, int]]  # (block id, response) pairs


class InvalidConfig(ValueError):
    """Group-size configuration that cannot satisfy the agreement rule."""


class MoonMode(Enum):
    VOTING = "voting"
    COMPARISON = "comparison"


@dataclass(frozen=True)
class MoonConfig:
    """M-out-of-N group configuration plus the observer's cycle budgets."""

    n_required: int
    m_agree: int
    t_gather: int
    t_exec: int

    def validate(self) -> MoonMode:
        if self.t_gather < 1 or self.t_exec < 1:
            raise InvalidConfig("cycle budgets must be at least 1")
        n, m = self.n_required, self.m_agree
        if n == 2 and m == 2:
            return MoonMode.COMPARISON  # plain dual lockstep: detect, not vote
        if n >= 3 and n % 2 == 1 and n >= m > n // 2:
            return MoonMode.VOTING
        raise InvalidConfig(
            f"n_required={n}, m_agree={m}: need 2-out-of-2 or odd n >= 3 "
            "with a strict majority m"
        )


class SyncState(Enum):
    IDLE = "idle"
    GATHERING = "gathering"
    LOCKSTEP = "lockstep"
    RELEASING = "releasing"


@dataclass
class VoteResult:
    """Outcome of one compare-and-select cycle.

    ``ports`` lists the enabled block ids in matrix order and ``inputs``
    their transactions; ``selected`` is an index into them and is present
    exactly when a real transaction was forwarded.  ``idle_majority`` marks a
    winning absence class (bus kept idle, not a fault).  ``disagreement`` is
    true when at least one port fell outside the winning class.
    """

    ports: List[int]
    inputs: Sequence[Optional[BusTransaction]]
    selected: Optional[int]
    forwarded: Optional[BusTransaction]
    idle_majority: bool = False
    no_majority: bool = False
    disagreement: bool = False

    @property
    def matrix(self) -> List[List[bool]]:
        """The n x n compare matrix of the inputs, built when read: the vote
        itself needs only each input's count of equals."""
        return [[a == b for b in self.inputs] for a in self.inputs]


def _winner(inputs: Sequence[Optional[BusTransaction]], m_agree: int) -> Tuple[Optional[int], int]:
    """The lowest port whose equality class reaches ``m_agree`` and the class's
    size, else ``(None, 0)``.  Absence (None) equals only absences; list.count
    tests identity before equality, and lockstep members issue one object."""
    for winner, tx in enumerate(inputs):
        agree = inputs.count(tx)
        if agree >= m_agree:
            return winner, agree
    return None, 0


def run_vote(
    inputs: Sequence[Optional[BusTransaction]], m_agree: int, ports: Optional[Sequence[int]] = None
) -> VoteResult:
    """Pure compare-and-select over one cycle's per-port inputs."""
    winner, agree = _winner(inputs, m_agree)
    fwd = None if winner is None else inputs[winner]
    return VoteResult(
        list(range(len(inputs)) if ports is None else ports), inputs,
        None if fwd is None else winner, fwd, idle_majority=winner is not None and fwd is None,
        no_majority=winner is None, disagreement=winner is None or agree < len(inputs),
    )


@dataclass
class SessionRecord:
    """One session from its request on.  ``rejected`` lists the sync reads
    turned away while the session is open: the same-cycle surplus at
    admission and readers arriving during lockstep or release, not readers
    arriving after it ended.  ``outcome`` stays "incomplete" until release
    completes the session or an availability error names its failure."""

    gather_cycle: int
    lockstep_cycle: Optional[int] = None
    release_cycle: Optional[int] = None
    accepted: List[int] = field(default_factory=list)
    rejected: List[int] = field(default_factory=list)
    outcome: str = "incomplete"


class LockstepMonitor:
    """Session state machine shared by the controller, synchronizer, voter
    and observer roles.  ``rng``, when given, breaks admission ties at
    random instead of by block id.  ``trace`` is the run's sink, which the
    monitor's events go to (an untraced one when not given); the caller
    passes the cycle into every step."""

    ACCEPT = 0x01
    REJECT = 0x00

    def __init__(self, config: MoonConfig, rng: Optional[random.Random] = None, trace=None):
        self.config = config
        self.rng = rng
        self.trace = Trace(False) if trace is None else trace
        self.sync_state = SyncState.IDLE
        self.sessions: List[SessionRecord] = []
        self.arrived: List[int] = []  # gathered block ids of earlier cycles
        self.exited: set = set()
        # the voted ports: each member's transaction, held until it is
        # answered or the group is released
        self.held: Dict[int, BusTransaction] = {}
        self.rejected = 0
        self.masked_fault_cycles = 0
        self.frozen = False
        self._bus_fault: Optional[str] = None  # reason for the observer

    def _set_state(self, cycle: int, new: SyncState) -> None:
        if self.trace.traced:
            detail = {"from": self.sync_state.value, "to": new.value}
            self.trace.emit(cycle, 4, "monitor", "state_change", detail)
        self.sync_state = new

    # -- controller --------------------------------------------------------

    def request_sp(self, cycle: int, origin, source) -> bool:
        """Start a session if idle and assert the group IRQ; returns whether
        it did.  While a session runs the request from ``origin`` (a block id
        or "external") is ignored."""
        detail = {"origin": origin, "source": source.value}
        if self.sync_state is not SyncState.IDLE:
            self.trace.emit(cycle, 4, "monitor", "trigger", dict(detail, ignored="session_active"))
            return False
        self._set_state(cycle, SyncState.GATHERING)
        self.trace.emit(cycle, 4, "monitor", "irq_assert", detail)
        self.sessions.append(SessionRecord(gather_cycle=cycle))
        return True

    # -- synchronizer: entry -----------------------------------------------

    def _reject(self, cycle: int, readers: List[int], context: str) -> Answers:
        self.rejected += len(readers)
        for b in readers if self.trace.traced else ():
            detail = {"block": b, "response": self.REJECT, "context": context}
            self.trace.emit(cycle, 4, "monitor", "reject", detail)
        return [(b, self.REJECT) for b in readers]

    def finalize_rendezvous(self, readers: List[int], cycle: int) -> Answers:
        """Answer this cycle's sync readers; none is answered while too few
        have arrived.  Outside gathering all are rejected: "no_session" when
        idle, else "session_running".  Once n_required have arrived they are
        admitted together and the IRQ is deasserted: earlier cycles keep
        first-come priority, this cycle's cohort is tie-broken by block id or
        sampled with ``rng``, and its rest is rejected as "surplus"."""
        if self.sync_state is SyncState.IDLE:
            return self._reject(cycle, readers, "no_session")
        record = self.sessions[-1]
        if self.sync_state is not SyncState.GATHERING:
            record.rejected.extend(readers)
            return self._reject(cycle, readers, "session_running")
        slots = self.config.n_required - len(self.arrived)
        if len(readers) < slots:
            self.arrived.extend(readers)
            return []
        cohort = sorted(readers)
        if self.rng is not None and len(cohort) > slots:
            chosen = set(self.rng.sample(cohort, slots))
        else:
            chosen = set(cohort[:slots])
        record.lockstep_cycle = cycle
        record.accepted = sorted(self.arrived + [b for b in cohort if b in chosen])
        record.rejected = [b for b in cohort if b not in chosen]
        self.arrived = []
        for b in record.accepted if self.trace.traced else ():
            self.trace.emit(cycle, 4, "monitor", "accept", {"block": b, "response": self.ACCEPT})
        answers = [(b, self.ACCEPT) for b in record.accepted]
        answers += self._reject(cycle, record.rejected, "surplus")
        self.trace.emit(cycle, 4, "monitor", "irq_deassert", {})
        self._set_state(cycle, SyncState.LOCKSTEP)
        return answers

    # -- synchronizer: exit -------------------------------------------------

    def finalize_release(self, readers: List[int], cycle: int) -> Answers:
        """Stall this cycle's exit readers, all group members, and release
        the whole group once every member has issued its exit read; all of
        them are answered together and their held ports cleared.  The first
        exit read starts releasing."""
        if not readers:
            return []
        if self.sync_state is SyncState.LOCKSTEP:
            self._set_state(cycle, SyncState.RELEASING)
        self.exited.update(readers)
        record = self.sessions[-1]
        if not self.exited.issuperset(record.accepted):
            return []
        record.release_cycle = cycle
        record.outcome = "completed"
        self.exited = set()
        self.held.clear()
        detail = {"blocks": list(record.accepted), "response": self.ACCEPT}
        self.trace.emit(cycle, 4, "monitor", "release", detail)
        self._set_state(cycle, SyncState.IDLE)
        return [(b, self.ACCEPT) for b in record.accepted]

    # -- voter ---------------------------------------------------------------

    def vote(self, cycle: int, bus: MemoryMap) -> Answers:
        """Vote the members' held transactions, commit the winner to the
        voted ``bus`` and answer the data ports it completes: every member
        that holds a transaction and has not issued its exit read.  Called
        only in a cycle in which a port holds a transaction."""
        held = self.held
        members = self.sessions[-1].accepted
        inputs = [held.get(b) for b in members]
        winner, agree = _winner(inputs, self.config.m_agree)
        tracing = self.trace.traced  # an event's detail is built only when recorded
        if tracing:
            matrix = ["".join("1" if a == b else "0" for b in inputs) for a in inputs]
            self.trace.emit(cycle, 5, "monitor", "vote", {"ports": list(members), "matrix": matrix})
        if winner is None:  # at most once a run: the observer then freezes the monitor
            self.trace.emit(cycle, 5, "monitor", "no_majority", {"ports": list(members)})
            self._bus_fault = "no_majority"
            return []
        if agree < len(inputs):
            self.masked_fault_cycles += 1
        fwd = inputs[winner]
        if fwd is None:
            return []  # winning class is "no transaction": voted bus stays idle
        answers: Answers = []
        if fwd.address == LOCKSTEP_SYNC_ADDRESS:
            # exit reads win votes but stall at the monitor; release answers them
            outcome = {"stalled": 1}
        else:
            try:
                response = bus.issue(fwd, voted=True)
            except UnmappedAddress:
                # the majority agreed on an address the voted bus cannot serve
                self._bus_fault = "unmapped_address"
                outcome = {"unmapped": 1}
            else:
                outcome = {"response": response}
                # shared-bus acknowledge: every live pending data transaction completes
                exited = self.exited
                answers = [(b, response) for b in members if b in held and b not in exited]
                for b, _ in answers:
                    del held[b]
        if tracing:
            detail = {"block": members[winner], "tx": fwd.short(), **outcome}
            self.trace.emit(cycle, 5, "monitor", "forward", detail)
        return answers

    # -- observer -------------------------------------------------------------

    @property
    def deadline(self) -> Optional[int]:
        """The cycle on which the running session's budget lapses: gathering's
        ``t_gather`` or execution's ``t_exec``.  None while idle."""
        if self.sync_state is SyncState.IDLE:
            return None
        record = self.sessions[-1]
        if self.sync_state is SyncState.GATHERING:
            return record.gather_cycle + self.config.t_gather + 1
        return record.lockstep_cycle + self.config.t_exec + 1

    def observe(self, cycle: int) -> Optional[Tuple[str, Optional[int]]]:
        """Availability check for this cycle; returns ``(reason, lapsed budget
        or None)`` and freezes the monitor when an error fires.  A frozen
        monitor ends the run, so nothing calls the monitor after that."""
        reason, budget = self._bus_fault, None
        if reason is None:
            deadline = self.deadline
            if deadline is None or cycle < deadline:
                return None
            if self.sync_state is SyncState.GATHERING:
                reason, budget = "gather_timeout", self.config.t_gather
            else:
                reason, budget = "exec_timeout", self.config.t_exec
        self.frozen = True
        self.sessions[-1].outcome = reason
        detail = {"reason": reason} if budget is None else {"reason": reason, "budget": budget}
        self.trace.emit(cycle, 6, "monitor", "availability_error", detail)
        return reason, budget
