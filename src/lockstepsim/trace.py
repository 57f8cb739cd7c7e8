"""Trace events and their byte-deterministic serializations.

Every observable step of a run is one event: (cycle, phase, entity, kind,
detail), emitted into the run's one ``Trace``.  Phases follow the fixed
intra-cycle order (1 faults, 2 external triggers, 3 block ticks, 4
rendezvous, 5 vote/commit, 6 observer, 7 system transitions).  Entities are
a block id, "monitor" or "system"; within one (cycle, phase) blocks order by
id and precede the monitor, which precedes the system.  Serializations carry
no timestamps and use a fixed key order, so a given scenario+seed always
produces the identical byte stream.
"""

from __future__ import annotations

import csv
import io
import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

Entity = Union[int, str]

EVENT_KINDS = frozenset(
    {
        "trigger",
        "irq_assert",
        "irq_deassert",
        "sync_read",
        "accept",
        "reject",
        "vote",
        "forward",
        "no_majority",
        "exit_read",
        "release",
        "state_change",
        "fault_applied",
        "availability_error",
        "boot",
        "halt",
    }
)

_MONITOR_ORDER = 1_000_000
_SYSTEM_ORDER = 1_000_001


class IOFailure(Exception):
    """Wraps an OS-level error while writing a trace or report."""


@dataclass
class TraceEvent:
    cycle: int
    phase: int
    entity: Entity
    kind: str
    detail: Dict = field(default_factory=dict)

    def sort_key(self) -> Tuple[int, int, int]:
        return (self.cycle, self.phase, entity_order(self.entity))

    def to_record(self) -> Dict:
        return {
            "cycle": self.cycle,
            "phase": self.phase,
            "entity": self.entity,
            "kind": self.kind,
            "detail": self.detail,
        }


class Trace(list):
    """The one sink of a run's events: the world, its blocks, its monitor and
    its fault engine all emit into it.  An untraced sink records nothing and
    stays empty; a caller that builds a costly detail tests ``traced`` first."""

    __slots__ = ("traced",)

    def __init__(self, traced: bool = True):
        super().__init__()
        self.traced = traced

    def emit(self, cycle: int, phase: int, entity: Entity, kind: str, detail: Dict) -> None:
        if self.traced:
            self.append(TraceEvent(cycle, phase, entity, kind, detail))


def entity_order(entity: Entity) -> int:
    if entity == "monitor":
        return _MONITOR_ORDER
    if entity == "system":
        return _SYSTEM_ORDER
    return int(entity)


def audit_event_order(events: Iterable[TraceEvent]) -> None:
    """Raise AssertionError unless sort keys are nondecreasing."""
    prev = None
    for ev in events:
        key = ev.sort_key()
        assert 1 <= ev.phase <= 7, f"phase out of range: {ev}"
        assert ev.kind in EVENT_KINDS, f"unknown kind: {ev}"
        if prev is not None:
            assert key >= prev, f"events out of order at {ev}"
        prev = key


def emit_trace(events: List[TraceEvent], fmt: str = "jsonl") -> bytes:
    """Serialize to line-delimited JSON or a CSV table (detail as canonical
    JSON in the last column).  Empty event lists yield the bare header (csv)
    or nothing (jsonl)."""
    if fmt == "jsonl":
        lines = [
            json.dumps(ev.to_record(), sort_keys=True, separators=(",", ":"))
            for ev in events
        ]
        return ("\n".join(lines) + ("\n" if lines else "")).encode("ascii")
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["cycle", "phase", "entity", "kind", "detail"])
        for ev in events:
            writer.writerow(
                [
                    ev.cycle,
                    ev.phase,
                    str(ev.entity),
                    ev.kind,
                    json.dumps(ev.detail, sort_keys=True, separators=(",", ":")),
                ]
            )
        return buf.getvalue().encode("ascii")
    raise ValueError(f"unknown trace format: {fmt!r}")


def write_trace(events: List[TraceEvent], path: str, fmt: str = "jsonl") -> None:
    try:
        with open(path, "wb") as fh:
            fh.write(emit_trace(events, fmt))
    except OSError as exc:
        raise IOFailure(f"cannot write trace to {path}: {exc}") from exc


# -- audits used by tests and the sweep runner --------------------------------


@dataclass
class SessionAudit:
    gather_cycle: int
    lockstep_cycle: Optional[int] = None
    release_cycle: Optional[int] = None
    accepted: List[int] = field(default_factory=list)
    rejected: List[int] = field(default_factory=list)
    sync_reads: Counter = field(default_factory=Counter)
    exit_reads: Counter = field(default_factory=Counter)

    @property
    def completed(self) -> bool:
        return self.release_cycle is not None


def audit_sessions(events: List[TraceEvent]) -> List[SessionAudit]:
    """Reconstruct sessions from a trace: membership, rejections and the
    per-block counts of synchronization-register reads.  A sync read traced
    in phase 3 of the cycle whose phase 4 opens a session is gathered by it."""
    sessions: List[SessionAudit] = []
    current: Optional[SessionAudit] = None
    idle_reads: List[TraceEvent] = []  # sync reads while no session is open
    for ev in events:
        if ev.entity == "monitor" and ev.kind == "state_change":
            to = ev.detail.get("to")
            if to == "gathering":
                current = SessionAudit(gather_cycle=ev.cycle)
                current.sync_reads.update(int(r.entity) for r in idle_reads if r.cycle == ev.cycle)
                sessions.append(current)
                idle_reads = []
            elif to == "lockstep" and current is not None:
                current.lockstep_cycle = ev.cycle
            elif to == "idle" and current is not None:
                current.release_cycle = ev.cycle
                current = None
        elif ev.kind == "sync_read":
            if current is None:
                idle_reads.append(ev)
            else:
                current.sync_reads[int(ev.entity)] += 1
        elif current is not None:
            if ev.kind == "exit_read":
                current.exit_reads[int(ev.entity)] += 1
            elif ev.kind == "accept":
                current.accepted.append(ev.detail["block"])
            elif ev.kind == "reject":
                current.rejected.append(ev.detail["block"])
    return sessions


# the only table of system-state arcs: the engine refuses any other change
ALLOWED_SYSTEM_ARCS = frozenset(
    {
        ("boot", "normal_processing"),
        ("boot", "safe_state"),
        ("normal_processing", "synchronizing"),
        ("synchronizing", "safe_processing_mode"),
        ("synchronizing", "safe_state"),
        ("safe_processing_mode", "normal_processing"),
        ("safe_processing_mode", "safe_state"),
    }
)


def audit_system_path(events: List[TraceEvent]) -> List[str]:
    """The system-level state sequence, starting at boot, with every
    transition checked against the allowed arc set."""
    changes = (ev for ev in events if ev.entity == "system" and ev.kind == "state_change")
    path = ["boot"] + [ev.detail["to"] for ev in changes]
    for a, b in zip(path, path[1:]):
        assert (a, b) in ALLOWED_SYSTEM_ARCS, f"illegal system transition {a} -> {b}"
    return path
