"""Deterministic cycle simulator for on-demand MooN lockstep groups.

Processing blocks run independent programs until a safe-function request
gathers N of them at a sync register; the group executes a shared safe
program under a compare-and-vote monitor and is released as one.  Fault
injection exercises masking, rejection, timeout and safe-state paths.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .block import (  # noqa: E402
    BlockState,
    Compute,
    Halt,
    Instruction,
    ProcessingBlock,
    Read,
    TriggerSource,
    TriggerSP,
    Write,
)
from .bus import (  # noqa: E402
    IO_BASE,
    IO_LAST,
    LOCKSTEP_SYNC_ADDRESS,
    LS_RAM_BASE,
    LS_RAM_LAST,
    SAFECODE_START,
    SYSTEM_RAM_BASE,
    SYSTEM_RAM_LAST,
    BusTransaction,
    MemoryMap,
    Region,
    TxKind,
    UnmappedAddress,
    classify_address,
)
from .engine import (  # noqa: E402
    Report,
    SimInternalError,
    SystemState,
    World,
    run,
)
from .faults import FaultEngine, FaultKind, FaultSpec  # noqa: E402
from .monitor import (  # noqa: E402
    InvalidConfig,
    LockstepMonitor,
    MoonConfig,
    MoonMode,
    SyncState,
    VoteResult,
    run_vote,
)
from .scenario import (  # noqa: E402
    ExternalTrigger,
    Flags,
    ParseError,
    Scenario,
    ScenarioError,
    ValidationError,
    load_scenario,
    load_scenario_file,
    parse_instruction,
    scenario_digest,
    serialize_scenario,
)
from .trace import (  # noqa: E402
    IOFailure,
    TraceEvent,
    audit_event_order,
    audit_sessions,
    emit_trace,
    write_trace,
)


def __getattr__(name: str):
    """Import ``sweep`` the first time ``lockstepsim.sweep`` is read: only the
    ``sweep`` command needs it, so the others do not pay for its import."""
    if name == "sweep":
        import importlib

        return importlib.import_module(".sweep", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    # bus
    "BusTransaction",
    "MemoryMap",
    "Region",
    "TxKind",
    "UnmappedAddress",
    "classify_address",
    "LOCKSTEP_SYNC_ADDRESS",
    "SAFECODE_START",
    "SYSTEM_RAM_BASE",
    "SYSTEM_RAM_LAST",
    "LS_RAM_BASE",
    "LS_RAM_LAST",
    "IO_BASE",
    "IO_LAST",
    # blocks
    "BlockState",
    "ProcessingBlock",
    "Instruction",
    "Compute",
    "Read",
    "Write",
    "TriggerSP",
    "Halt",
    "TriggerSource",
    # monitor
    "MoonConfig",
    "MoonMode",
    "InvalidConfig",
    "LockstepMonitor",
    "SyncState",
    "VoteResult",
    "run_vote",
    # faults
    "FaultEngine",
    "FaultKind",
    "FaultSpec",
    # engine
    "World",
    "SystemState",
    "Report",
    "SimInternalError",
    "run",
    # scenarios
    "Scenario",
    "ExternalTrigger",
    "Flags",
    "ScenarioError",
    "ParseError",
    "ValidationError",
    "load_scenario",
    "load_scenario_file",
    "parse_instruction",
    "serialize_scenario",
    "scenario_digest",
    # trace
    "TraceEvent",
    "IOFailure",
    "emit_trace",
    "write_trace",
    "audit_event_order",
    "audit_sessions",
]
