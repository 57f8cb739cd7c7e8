"""Lockstep monitor: group controller, rendezvous synchronizer, majority
voter and availability observer.

One session at a time, and one call per protocol step and cycle that returns
every answer.  A session request asserts the group IRQ; blocking reads of the
synchronization register stall at the monitor until the first ``n_required``
responders are admitted together (ties within one cycle break by ascending
block id, or by the seeded ``rng`` when given).  Everything arriving later,
or while no session is gathering, is answered zero at once.

While the group runs the safe program the voter counts each port's equals
among the per-port transactions (the n x n compare matrix is derived only
when a traced vote reads it), forwards the lowest port whose equality class
reaches ``m_agree``, and keeps the voted bus idle when the winning class is
"no transaction".  A cycle with no class at ``m_agree`` is a no-majority
fault.  Controlled release stalls every exit read until all group members
have issued theirs, then answers them together.

The observer raises an availability error when gathering or execution outlive
their cycle budgets, or at once on a no-majority cycle or a voted commit to
an address the voted bus cannot serve; after that the monitor is frozen and
the system-level safe-state transition ends the run.

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
    def selected_block(self) -> Optional[int]:
        return None if self.selected is None else self.ports[self.selected]

    @property
    def matrix(self) -> List[List[bool]]:
        """The n x n compare matrix of the inputs, built when read: the vote
        itself needs only each input's count of equals."""
        return [[a == b for b in self.inputs] for a in self.inputs]


def run_vote(
    inputs: Sequence[Optional[BusTransaction]],
    m_agree: int,
    ports: Optional[Sequence[int]] = None,
) -> VoteResult:
    """Pure compare-and-select over one cycle's per-port inputs."""
    n = len(inputs)
    if ports is None:
        ports = list(range(n))
    result = VoteResult(ports=list(ports), inputs=inputs, selected=None, forwarded=None)
    # absence (None) is a value equal only to other absences; list.count
    # tests identity before equality, and lockstep members issue one object
    for winner, tx in enumerate(inputs):
        agree = inputs.count(tx)
        if agree >= m_agree:
            break
    else:
        result.no_majority = True
        result.disagreement = True
        return result
    result.disagreement = agree < n
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
    and observer roles.  ``rng``, when given, breaks admission ties at
    random instead of by block id."""

    ACCEPT = 0x01
    REJECT = 0x00

    def __init__(self, config: MoonConfig, rng: Optional[random.Random] = None):
        self.config = config
        self.rng = rng
        self.sync_state = SyncState.IDLE
        self.sessions: List[SessionRecord] = []
        self.arrived: List[int] = []  # gathered block ids of earlier cycles
        self.exited: set = set()
        self.frozen = False
        self._bus_fault: Optional[str] = None  # reason for the observer

    # -- controller --------------------------------------------------------

    def request_sp(self, cycle: int) -> bool:
        """Start a session if idle.  Returns False when a session already
        runs (the request is dropped with a warning upstream)."""
        if self.sync_state is not SyncState.IDLE:
            return False
        self.sync_state = SyncState.GATHERING
        self.sessions.append(SessionRecord(gather_cycle=cycle))
        return True

    # -- synchronizer: entry -----------------------------------------------

    def finalize_rendezvous(
        self, readers: List[int], cycle: int
    ) -> Optional[Tuple[List[int], List[int], str]]:
        """Answer this cycle's sync readers with ``(accepted, rejected,
        context)``, or None while none gets an answer.  Outside gathering all
        are rejected: "no_session" when idle, else "session_running".  Once
        n_required have arrived they are admitted together: earlier cycles
        keep first-come priority, this cycle's cohort is tie-broken by block
        id or sampled with ``rng``, and its rest is rejected as "surplus"."""
        if not readers:
            return None
        if self.sync_state is SyncState.IDLE:
            return [], readers, "no_session"
        record = self.sessions[-1]
        if self.sync_state is not SyncState.GATHERING:
            record.rejected.extend(readers)
            return [], readers, "session_running"
        slots = self.config.n_required - len(self.arrived)
        if len(readers) < slots:
            self.arrived.extend(readers)
            return None
        cohort = sorted(readers)
        if self.rng is not None and len(cohort) > slots:
            chosen = set(self.rng.sample(cohort, slots))
        else:
            chosen = set(cohort[:slots])
        record.lockstep_cycle = cycle
        record.accepted = sorted(self.arrived + [b for b in cohort if b in chosen])
        record.rejected = [b for b in cohort if b not in chosen]
        self.arrived = []
        self.sync_state = SyncState.LOCKSTEP
        return record.accepted, record.rejected, "surplus"

    # -- synchronizer: exit -------------------------------------------------

    def finalize_release(self, readers: List[int], cycle: int) -> Optional[List[int]]:
        """Stall this cycle's exit readers, all group members, and release
        the whole group once every member has issued its exit read; all of
        them are answered together.  The first exit read starts releasing."""
        if not readers:
            return None
        self.sync_state = SyncState.RELEASING
        self.exited.update(readers)
        record = self.sessions[-1]
        if not self.exited.issuperset(record.accepted):
            return None
        record.release_cycle = cycle
        record.outcome = "completed"
        self.exited = set()
        self.sync_state = SyncState.IDLE
        return list(record.accepted)

    # -- voter ---------------------------------------------------------------

    def vote(self, port_inputs: List[Tuple[int, Optional[BusTransaction]]]) -> VoteResult:
        ports = [b for b, _ in port_inputs]
        result = run_vote([tx for _, tx in port_inputs], self.config.m_agree, ports)
        if result.no_majority:
            self.report_bus_fault("no_majority")
        return result

    def report_bus_fault(self, reason: str) -> None:
        """Mark a voted-bus fault for this cycle's observer."""
        self._bus_fault = reason

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
        return reason, budget
