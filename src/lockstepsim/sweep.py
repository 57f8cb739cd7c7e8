"""Parameter sweeps: rendezvous arrival orderings and fault masking.

Two sweep families, each a stream of generated scenarios that one loop runs,
checks and records, so every point is self-contained and reproducible:

* Arrival sweep - for a group size N out of B blocks, enumerate per-block
  IRQ latencies and check the admission rule on every ordering: exactly N
  blocks accepted, acceptance simultaneous, the accepted set is the first N
  in (arrival cycle, block id) order, everyone else rejected, and the
  session still completes.

* Fault sweep - inject single faults (and optionally pairs on distinct
  blocks) into a group with spares and demand that the committed memory
  image (voted RAM plus the I/O log) is identical to a fault-free reference
  run.  Silenced blocks cannot leave the group, so those points end in the
  safe state (by exec timeout, or by a failed 2-of-2 comparison) - their
  memory image must still match.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .block import Compute, Halt, Instruction, Read, TriggerSP, TriggerSource, Write
from .bus import IO_BASE, LS_RAM_BASE
from .engine import Report, run
from .faults import FaultKind, FaultSpec
from .monitor import InvalidConfig, MoonConfig
from .scenario import Scenario, ValidationError, _int_field, _mapping, parse_yaml, read_text

DEFAULT_SAFE_PROGRAM: Tuple[Instruction, ...] = (
    Write(LS_RAM_BASE, 7),
    Write(IO_BASE, 99),
    Compute(2),
    Read(LS_RAM_BASE),
)

DIVERGENT_STREAM: Tuple[Instruction, ...] = (
    Write(LS_RAM_BASE, 5),
    Read(LS_RAM_BASE),
)


@dataclass
class SweepPoint:
    params: Dict
    ok: bool
    detail: str = ""

    def describe(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.params.items())
        status = "ok" if self.ok else f"FAIL ({self.detail})"
        return f"[{parts}] {status}"


@dataclass
class SweepResult:
    mode: str
    points: List[SweepPoint] = field(default_factory=list)

    @property
    def failures(self) -> List[SweepPoint]:
        return [p for p in self.points if not p.ok]

    @property
    def ok(self) -> bool:
        return not self.failures

    def summary(self) -> str:
        return (
            f"{self.mode} sweep: {len(self.points)} points, "
            f"{len(self.failures)} failing"
        )


# ---------------------------------------------------------------------------
# scenario builders and the point loop
# ---------------------------------------------------------------------------


def _group_programs(length: int) -> Tuple[Tuple[Instruction, ...], Tuple[Instruction, ...]]:
    """A requester's and an idle block's programs, ``length`` long: block 0
    requests after one compute."""
    idle = (Compute(1),) * (length - 1) + (Halt(),)
    return (Compute(1), TriggerSP(TriggerSource.APP_TRIGGERED)) + idle[2:], idle


# built once, so every point shares their instruction objects and a scenario
# checks each of them on its first build only
_RENDEZVOUS_PROGRAMS = _group_programs(24)
_MASKING_PROGRAMS = _group_programs(16)
_RENDEZVOUS_SAFE_PROGRAM = (Write(LS_RAM_BASE, 1), Read(LS_RAM_BASE))


def _group_scenario(n_blocks: int, programs, **fields) -> Scenario:
    """Block 0 runs the requester's program of ``programs``, the others the idle one."""
    requester, idle = programs
    return Scenario(
        seed=1,
        n_blocks=n_blocks,
        boot_check="pass",
        programs=(requester,) + (idle,) * (n_blocks - 1),
        **fields,
    )


def build_rendezvous_scenario(
    n_blocks: int,
    n_required: int,
    m_agree: int,
    irq_latency: Sequence[int],
    name: str = "rendezvous-sweep",
) -> Scenario:
    """Blocks at an instruction boundary every cycle; block 0 requests."""
    return _group_scenario(
        n_blocks, _RENDEZVOUS_PROGRAMS, name=name,
        moon=MoonConfig(n_required, m_agree, t_gather=15, t_exec=15),
        safe_program=_RENDEZVOUS_SAFE_PROGRAM, max_cycles=80, irq_latency=irq_latency,
    )


def build_masking_scenario(
    n_blocks: int,
    n_required: int,
    m_agree: int,
    faults: Sequence[FaultSpec],
    name: str = "masking-sweep",
) -> Scenario:
    """Uniform zero-latency arrivals so the lowest block ids form the group."""
    return _group_scenario(
        n_blocks, _MASKING_PROGRAMS, name=name,
        moon=MoonConfig(n_required, m_agree, t_gather=10, t_exec=12),
        safe_program=DEFAULT_SAFE_PROGRAM, max_cycles=60, faults=faults,
    )


def _run_points(mode: str, points: Iterable, trace: bool, check: Callable) -> SweepResult:
    """Run each (params, scenario) point and record ``check(report, params)``'s complaint."""
    result = SweepResult(mode=mode)
    for params, scenario in points:
        complaint = check(run(scenario, trace_enabled=trace), params)
        result.points.append(SweepPoint(params=params, ok=not complaint, detail=complaint))
    return result


# ---------------------------------------------------------------------------
# arrival sweep
# ---------------------------------------------------------------------------


def expected_admission(
    gather_cycle: int, latencies: Sequence[int], n_required: int
) -> Tuple[List[int], List[int], int]:
    """Admission oracle from latencies alone.

    A block at a permanent instruction boundary issues its sync read on the
    cycle after its IRQ latch lands, so it arrives at gather + latency + 1.
    Returns (accepted ids, rejected ids, entry cycle).
    """
    arrivals = sorted(
        (gather_cycle + lat + 1, b) for b, lat in enumerate(latencies)
    )
    accepted = sorted(b for _, b in arrivals[:n_required])
    rejected = sorted(b for _, b in arrivals[n_required:])
    entry = arrivals[n_required - 1][0]
    return accepted, rejected, entry


def check_arrival_point(report: Report, latencies: Sequence[int], n_required: int) -> str:
    """Return '' if the run honors the admission rule, else a complaint.

    Reads the trace, not ``report.sessions``: a session record lists only the
    rejections made while the session is open, so a block whose latency
    brings it to the sync register after release (rejected "no_session")
    is in the trace alone."""
    gather = [
        e.cycle
        for e in report.trace
        if e.entity == "monitor"
        and e.kind == "state_change"
        and e.detail.get("to") == "gathering"
    ]
    if len(gather) != 1:
        return f"expected one gathering entry, saw {len(gather)}"
    accepted_events = [e for e in report.trace if e.kind == "accept"]
    accepted = sorted(e.detail["block"] for e in accepted_events)
    accept_cycles = {e.cycle for e in accepted_events}
    rejected = sorted(e.detail["block"] for e in report.trace if e.kind == "reject")
    want_accept, want_reject, want_entry = expected_admission(
        gather[0], latencies, n_required
    )
    if accepted != want_accept:
        return f"accepted {accepted}, expected {want_accept}"
    if rejected != want_reject:
        return f"rejected {rejected}, expected {want_reject}"
    if len(accept_cycles) > 1:
        return f"acceptance not simultaneous: cycles {sorted(accept_cycles)}"
    if accept_cycles and accept_cycles != {want_entry}:
        return f"entry at {sorted(accept_cycles)}, expected {want_entry}"
    releases = [e for e in report.trace if e.kind == "release"]
    if len(releases) != 1:
        return f"expected one release, saw {len(releases)}"
    if sorted(releases[0].detail["blocks"]) != want_accept:
        return f"released {releases[0].detail['blocks']}, expected {want_accept}"
    if report.final_state != "normal_processing":
        return f"ended in {report.final_state}"
    return ""


def arrival_sweep(
    n_blocks: int,
    n_required: int,
    m_agree: int,
    latency_max: int = 3,
) -> SweepResult:
    name = f"arrivals-{n_blocks}b-{n_required}oo"
    points = (
        ({"latencies": latencies},
         build_rendezvous_scenario(n_blocks, n_required, m_agree, latencies, name=name))
        for latencies in itertools.product(range(latency_max + 1), repeat=n_blocks)
    )
    return _run_points(
        "arrivals", points, True,
        lambda report, params: check_arrival_point(report, params["latencies"], n_required),
    )


# ---------------------------------------------------------------------------
# fault sweep
# ---------------------------------------------------------------------------


def placement_catalog(
    target: int, safe_len: int, placements: str = "full"
) -> List[Tuple[str, FaultSpec]]:
    """All injection points for one block: (label, spec) pairs."""
    out: List[Tuple[str, FaultSpec]] = []
    instr_kinds = (
        (FaultKind.BIT_FLIP_DATA, {"bit": 5}),
        (FaultKind.BIT_FLIP_ADDRESS, {"bit": 3}),
        (FaultKind.DIVERGENT_PROGRAM, {"program": DIVERGENT_STREAM}),
        (FaultKind.STUCK_SILENT, {}),
    )
    if placements == "full":
        spots: Iterable[Tuple[int, Tuple[FaultKind, Dict]]] = (
            (k, kind) for k in range(safe_len) for kind in instr_kinds
        )
    else:  # one representative spot per kind
        spots = ((i % safe_len, kind) for i, kind in enumerate(instr_kinds))
    for k, (kind, extra) in spots:
        label = f"{kind.value}@{k}"
        out.append((label, FaultSpec(target=target, kind=kind, at_safe_instr=k, **extra)))
    out.append((
        "no_show",
        FaultSpec(target=target, kind=FaultKind.NO_SHOW, at_cycle=1),
    ))
    out.append((
        "start_jitter",
        FaultSpec(target=target, kind=FaultKind.START_JITTER, at_cycle=1, delay=5),
    ))
    return out


def masking_reference(n_blocks: int, n_required: int, m_agree: int) -> Report:
    scenario = build_masking_scenario(
        n_blocks, n_required, m_agree, faults=(), name="masking-reference"
    )
    return run(scenario, trace_enabled=False)


def check_masking_point(report: Report, reference: Report) -> str:
    if report.ls_ram != reference.ls_ram:
        return "voted RAM differs from reference"
    if report.io_log != reference.io_log:
        return "I/O log differs from reference"
    return ""


def fault_sweep(
    n_required: int,
    m_agree: int,
    spares: int = 1,
    max_simultaneous: int = 1,
    placements: str = "full",
) -> SweepResult:
    """Sweep tolerated fault combinations; every point must mask cleanly.

    Faults are placed only on blocks that join the group under fault-free
    arrival order (ids 0..N-1); spares make the group whole when a fault
    keeps its target out of the rendezvous entirely.
    """
    n_blocks = n_required + spares
    reference = masking_reference(n_blocks, n_required, m_agree)
    group = range(n_required)
    singles = {
        t: placement_catalog(t, len(DEFAULT_SAFE_PROGRAM), placements) for t in group
    }
    points = (
        ({"targets": targets, "faults": tuple(label for label, _ in picks)},
         build_masking_scenario(n_blocks, n_required, m_agree, tuple(spec for _, spec in picks)))
        for size in ((1, 2) if max_simultaneous >= 2 else (1,))
        for targets in itertools.combinations(group, size)
        for picks in itertools.product(*(singles[t] for t in targets))
    )
    return _run_points(
        "faults", points, False, lambda report, params: check_masking_point(report, reference)
    )


# ---------------------------------------------------------------------------
# sweep specification files
# ---------------------------------------------------------------------------

_ARRIVAL_KEYS = {"mode", "n_blocks", "n_required", "m_agree", "latency_max"}
_FAULT_KEYS = {"mode", "n_required", "m_agree", "spares", "max_simultaneous", "placements"}


def sweep_from_dict(doc: Dict) -> SweepResult:
    """Run the sweep a spec describes.  Every rejection names the spec key."""
    mode = doc.get("mode") if isinstance(doc, dict) else None
    if mode == "arrivals":
        _mapping(doc, "", _ARRIVAL_KEYS)
        n_blocks = _small_int(doc, "n_blocks", 2, 6)
        n_required, m_agree = _group(doc, n_blocks)
        latency_max = _small_int(doc, "latency_max", 0, 5, default=3)
        return arrival_sweep(n_blocks, n_required, m_agree, latency_max)
    if mode == "faults":
        _mapping(doc, "", _FAULT_KEYS)
        n_required, m_agree = _group(doc, 7)
        spares = _small_int(doc, "spares", 0, 4, default=1)
        max_simultaneous = _small_int(doc, "max_simultaneous", 1, 2, default=1)
        placements = doc.get("placements", "full")
        if placements not in ("full", "representative"):
            raise ValidationError("placements", "must be 'full' or 'representative'")
        return fault_sweep(n_required, m_agree, spares, max_simultaneous, placements)
    raise ValidationError("mode", "must be 'arrivals' or 'faults'")


def _small_int(doc: Dict, key: str, lo: int, hi: int, default: Optional[int] = None) -> int:
    if key not in doc and default is not None:
        return default
    value = _int_field(doc, key, "")
    if not lo <= value <= hi:
        raise ValidationError(key, f"must be in {lo}..{hi}")
    return value


def _group(doc: Dict, most: int) -> Tuple[int, int]:
    """``n_required`` and ``m_agree``, checked as a pair before any point runs."""
    n_required = _small_int(doc, "n_required", 2, most)
    m_agree = _small_int(doc, "m_agree", 2, n_required)
    try:
        MoonConfig(n_required, m_agree, t_gather=1, t_exec=1).validate()
    except InvalidConfig as exc:
        raise ValidationError("m_agree", str(exc)) from None
    return n_required, m_agree


def load_sweep_file(path: str) -> SweepResult:
    return sweep_from_dict(parse_yaml(read_text(path, "sweep spec"), "sweep spec"))
