"""Lockstep monitor: group controller, rendezvous synchronizer, majority
voter and availability observer.

One session at a time.  A session request asserts the group IRQ; blocking
reads of the synchronization register stall at the monitor until the first
``n_required`` responders are admitted together (ties within one cycle break
by ascending block id, or by seeded random choice when enabled).  Everything
arriving later, or while no session is gathering, is answered zero at once.

While the group runs the safe program the voter compares the per-port
transaction streams pairwise (an n x n boolean matrix), forwards the lowest
port whose equality class reaches ``m_agree``, and keeps the voted bus idle
when the winning class is "no transaction".  A cycle with no class at
``m_agree`` is a no-majority fault.  Controlled release stalls every exit
read until all group members have issued theirs, then answers them together.

The observer raises an availability error when gathering or execution outlive
their cycle budgets, or at once on a no-majority cycle or a voted commit to
an address the voted bus cannot serve; after that the monitor freezes and
defers to the system-level safe-state transition.

The monitor owns the session records: one per session request, filled in as
the session is admitted, rejects late readers, is released or fails.  The
record of the current session is ``sessions[-1]``; its ``accepted`` list is
the group membership and its cycles are the observer's budget origins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .bus import BusTransaction


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

    ``ports`` lists the enabled block ids in matrix order; ``selected`` is an
    index into it and is present exactly when a real transaction was
    forwarded.  ``idle_majority`` marks a winning absence class (bus kept
    idle, not a fault).  ``disagreement`` is true when at least one port fell
    outside the winning class.
    """

    ports: List[int]
    matrix: List[List[bool]]
    selected: Optional[int]
    forwarded: Optional[BusTransaction]
    idle_majority: bool = False
    no_majority: bool = False
    disagreement: bool = False

    @property
    def selected_block(self) -> Optional[int]:
        return None if self.selected is None else self.ports[self.selected]


def run_vote(
    inputs: Sequence[Optional[BusTransaction]],
    m_agree: int,
    ports: Optional[Sequence[int]] = None,
) -> VoteResult:
    """Pure compare-and-select over one cycle's per-port inputs."""
    n = len(inputs)
    if ports is None:
        ports = list(range(n))
    # absence (None) is a value equal only to other absences
    matrix = [[a == b for b in inputs] for a in inputs]
    counts = [sum(row) for row in matrix]
    winner = next((i for i in range(n) if counts[i] >= m_agree), None)
    result = VoteResult(ports=list(ports), matrix=matrix, selected=None, forwarded=None)
    if winner is None:
        result.no_majority = True
        result.disagreement = True
        return result
    result.disagreement = counts[winner] < n
    if inputs[winner] is None:
        result.idle_majority = True
    else:
        result.selected = winner
        result.forwarded = inputs[winner]
    return result


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
    and observer roles."""

    ACCEPT = 0x01
    REJECT = 0x00

    def __init__(self, config: MoonConfig):
        self.config = config
        self.sync_state = SyncState.IDLE
        self.sessions: List[SessionRecord] = []
        self.arrived: List[Tuple[int, int]] = []  # (cycle, block_id) in order
        self.exited: set = set()
        self.frozen = False
        # (cycle, reason) of a voted-bus fault for the observer to report
        self._bus_fault: Optional[Tuple[int, str]] = None

    # -- controller --------------------------------------------------------

    def request_sp(self, cycle: int) -> bool:
        """Start a session if idle.  Returns False when a session already
        runs (the request is dropped with a warning upstream)."""
        if self.frozen or self.sync_state is not SyncState.IDLE:
            return False
        self.sync_state = SyncState.GATHERING
        self.sessions.append(SessionRecord(gather_cycle=cycle))
        self.arrived = []
        self.exited = set()
        return True

    # -- synchronizer: entry -----------------------------------------------

    def on_sync_read(self, block_id: int, cycle: int) -> str:
        """Record one arriving sync read.  Returns "stalled" or "rejected"
        (rejections are answered zero the same cycle).  Admission happens in
        :meth:`finalize_rendezvous` once the whole cycle has arrived."""
        if self.frozen or self.sync_state is not SyncState.GATHERING:
            if not self.frozen and self.sync_state is not SyncState.IDLE:
                self.sessions[-1].rejected.append(block_id)
            return "rejected"
        self.arrived.append((cycle, block_id))
        return "stalled"

    def finalize_rendezvous(
        self, cycle: int, rng: Optional[random.Random] = None, random_selection: bool = False
    ) -> Optional[SessionRecord]:
        """Admit the first n_required arrivals once present and return the
        session record, whose ``rejected`` list is then the same-cycle
        surplus.  Earlier-cycle arrivals keep strict first-come priority; the
        cohort of the crossing cycle is tie-broken by ascending block id, or
        sampled with ``rng`` when random selection is enabled."""
        if self.sync_state is not SyncState.GATHERING:
            return None
        n = self.config.n_required
        if len(self.arrived) < n:
            return None
        prior = [b for (c, b) in self.arrived if c < cycle]
        cohort = [b for (c, b) in self.arrived if c == cycle]
        assert len(prior) < n, "rendezvous should have closed earlier"
        slots = n - len(prior)
        if random_selection and rng is not None and len(cohort) > slots:
            chosen = set(rng.sample(sorted(cohort), slots))
        else:
            chosen = set(sorted(cohort)[:slots])
        record = self.sessions[-1]
        record.lockstep_cycle = cycle
        record.accepted = sorted(prior + [b for b in cohort if b in chosen])
        record.rejected = sorted(b for b in cohort if b not in chosen)
        self.arrived = []
        self.sync_state = SyncState.LOCKSTEP
        return record

    # -- synchronizer: exit -------------------------------------------------

    def on_exit_read(self, block_id: int, cycle: int) -> str:
        if (
            self.frozen
            or self.sync_state not in (SyncState.LOCKSTEP, SyncState.RELEASING)
            or block_id not in self.sessions[-1].accepted
        ):
            return "rejected"
        self.exited.add(block_id)
        if self.sync_state is SyncState.LOCKSTEP:
            self.sync_state = SyncState.RELEASING
        return "stalled"

    def finalize_release(self, cycle: int) -> Optional[List[int]]:
        """Release the whole group once every member has issued its exit
        read; all of them are answered together."""
        if self.sync_state is not SyncState.RELEASING or self.frozen:
            return None
        record = self.sessions[-1]
        if set(record.accepted) - self.exited:
            return None
        record.release_cycle = cycle
        record.outcome = "completed"
        self.exited = set()
        self.sync_state = SyncState.IDLE
        return list(record.accepted)

    # -- voter ---------------------------------------------------------------

    def vote(self, port_inputs: List[Tuple[int, Optional[BusTransaction]]], cycle: int) -> VoteResult:
        ports = [b for b, _ in port_inputs]
        result = run_vote([tx for _, tx in port_inputs], self.config.m_agree, ports)
        if result.no_majority:
            self.report_bus_fault(cycle, "no_majority")
        return result

    def report_bus_fault(self, cycle: int, reason: str) -> None:
        """Mark a voted-bus fault of this cycle for the observer."""
        self._bus_fault = (cycle, reason)

    # -- observer -------------------------------------------------------------

    def observe(self, cycle: int) -> Optional[str]:
        """Availability check for this cycle; returns the error reason and
        freezes the monitor when one fires."""
        if self.frozen:
            return None
        reason = None
        if self._bus_fault is not None and self._bus_fault[0] == cycle:
            reason = self._bus_fault[1]
        elif (
            self.sync_state is SyncState.GATHERING
            and cycle > self.sessions[-1].gather_cycle + self.config.t_gather
        ):
            reason = "gather_timeout"
        elif (
            self.sync_state in (SyncState.LOCKSTEP, SyncState.RELEASING)
            and cycle > self.sessions[-1].lockstep_cycle + self.config.t_exec
        ):
            reason = "exec_timeout"
        if reason is not None:
            self.frozen = True
            self.sessions[-1].outcome = reason
        return reason
