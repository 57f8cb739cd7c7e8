"""Expected outcomes the benchmark computes on its own.

These functions take plain numbers and lists, not simulator objects, so the
benchmark's checks do not rest on the code they check.  The memory map is
restated from the README.
"""

from __future__ import annotations

from math import comb
from typing import Dict, Iterable, List, Sequence, Tuple

LS_RAM = (0x1_0000, 0x1_FFFF)
IO = (0x2_0000, 0x2_00FF)


def safe_image(writes: Iterable[Tuple[int, int]], sessions: int) -> Tuple[Dict[int, int], List[int]]:
    """Voted memory after ``sessions`` clean runs of a safe program whose
    writes are ``(address, value)`` in program order: the last value per
    lockstep-RAM word, and every output-device write appended in order."""
    writes = list(writes)
    ls_ram: Dict[int, int] = {}
    io_log: List[int] = []
    for _ in range(sessions):
        for address, value in writes:
            if LS_RAM[0] <= address <= LS_RAM[1]:
                ls_ram[address] = value
            elif IO[0] <= address <= IO[1]:
                io_log.append(value)
            else:
                raise ValueError(f"safe write outside the voted regions: 0x{address:X}")
    return ls_ram, io_log


def admission(arrivals: Sequence[int], n_required: int) -> Tuple[List[int], List[int], int]:
    """Rendezvous rule from arrival cycles alone: the first ``n_required``
    blocks by (arrival cycle, block id) are admitted together on the cycle
    the last of them arrives; the rest are rejected.  Returns (admitted ids,
    rejected ids, entry cycle)."""
    order = sorted((cycle, block) for block, cycle in enumerate(arrivals))
    admitted = sorted(block for _, block in order[:n_required])
    rejected = sorted(block for _, block in order[n_required:])
    return admitted, rejected, order[n_required - 1][0]


def fault_sweep_points(n_required: int, safe_len: int, max_simultaneous: int) -> int:
    """Points of a full-placement masking sweep: per group member, four
    instruction-windowed fault kinds at every safe instruction plus the two
    pre-entry kinds; singles on every member, then every pair of members
    with every pair of placements."""
    per_target = 4 * safe_len + 2
    points = n_required * per_target
    if max_simultaneous >= 2:
        points += comb(n_required, 2) * per_target**2
    return points


def arrival_sweep_points(n_blocks: int, latency_max: int) -> int:
    """Points of an arrival sweep: every latency vector in {0..max}^blocks."""
    return (latency_max + 1) ** n_blocks


def session_read_problems(sessions) -> List[str]:
    """Protocol rule over reconstructed sessions (``audit_sessions``): in a
    completed session each admitted block reads the sync register once to
    enter and once to leave, and each rejected block reads it once."""
    problems = []
    for s in sessions:
        if not s.completed:
            continue
        for b in s.accepted:
            if s.sync_reads.get(b, 0) != 1 or s.exit_reads.get(b, 0) != 1:
                problems.append(f"session at {s.gather_cycle}: admitted block {b} read counts")
        for b in s.rejected:
            if s.sync_reads.get(b, 0) != 1 or s.exit_reads.get(b, 0) != 0:
                problems.append(f"session at {s.gather_cycle}: rejected block {b} read counts")
    return problems
