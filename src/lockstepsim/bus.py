"""Bus primitives shared by every other module.

The simulated machine is word addressed (32-bit words, 32-bit addresses) and
has two disjoint bus domains:

* the system bus, which independent blocks use to reach system RAM, and
* the voted safe bus, which only post-vote transactions travel to reach the
  lockstep RAM and the output device.

The monitor-owned synchronization register sits outside both RAM regions;
reads of it are rendezvous/release protocol and never hit a store.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

WORD_MASK = 0xFFFF_FFFF

SYSTEM_RAM_BASE = 0x0000_0000
SYSTEM_RAM_LAST = 0x0000_FFFF
LS_RAM_BASE = 0x0001_0000
LS_RAM_LAST = 0x0001_FFFF
IO_BASE = 0x0002_0000
IO_LAST = 0x0002_00FF

# Monitor register polled for lockstep entry and controlled release.
LOCKSTEP_SYNC_ADDRESS = 0xFFFF_0000

# Instruction-space origin of the shared safe program.  It coincides with the
# first lockstep-RAM word (safe code lives at the start of the monitor's
# private RAM); pc space and data space are separate namespaces.
SAFECODE_START = LS_RAM_BASE

assert LOCKSTEP_SYNC_ADDRESS != SAFECODE_START


class TxKind(Enum):
    READ = "read"
    WRITE = "write"


class Region(Enum):
    SYSTEM_RAM = "system_ram"
    LS_RAM = "ls_ram"
    IO = "io"


def classify_address(address: int) -> Optional[Region]:
    if SYSTEM_RAM_BASE <= address <= SYSTEM_RAM_LAST:
        return Region.SYSTEM_RAM
    if LS_RAM_BASE <= address <= LS_RAM_LAST:
        return Region.LS_RAM
    if IO_BASE <= address <= IO_LAST:
        return Region.IO
    return None


class UnmappedAddress(Exception):
    """A transaction reached an address its bus cannot serve."""

    def __init__(self, address: int, context: str):
        self.address = address
        self.context = context
        super().__init__(f"unmapped address 0x{address:08X} ({context})")


@dataclass(frozen=True)
class BusTransaction:
    """One bus transfer as seen on a block's port; a value that never changes.

    ``data`` is the write payload and is forced to zero for reads, so that
    equality over (kind, address, data), the voter's compare-matrix
    equality, is well defined.
    """

    kind: TxKind
    address: int
    data: int = 0

    def __post_init__(self):
        # normalized once, past the frozen dataclass's guard
        object.__setattr__(self, "address", self.address & WORD_MASK)
        object.__setattr__(self, "data", 0 if self.kind is TxKind.READ else self.data & WORD_MASK)

    def short(self) -> str:
        tag = "R" if self.kind is TxKind.READ else "W"
        return f"{tag}:{self.address:08X}:{self.data:08X}"


@dataclass
class MemoryMap:
    """Sparse word stores for both bus domains plus the append-only output log.

    Unwritten words read as zero.  The ``voted`` flag on :meth:`issue` selects
    the bus domain: lockstep RAM and the output device answer only the voted
    safe bus, system RAM only the system bus.
    """

    system_ram: dict = field(default_factory=dict)
    ls_ram: dict = field(default_factory=dict)
    io_log: list = field(default_factory=list)

    def issue(self, tx: BusTransaction, voted: bool = False) -> int:
        region = classify_address(tx.address)
        if region is Region.SYSTEM_RAM:
            if voted:
                raise UnmappedAddress(tx.address, "system RAM not on the voted bus")
            store = self.system_ram
        elif region is Region.LS_RAM:
            if not voted:
                raise UnmappedAddress(tx.address, "lockstep RAM not on the system bus")
            store = self.ls_ram
        elif region is Region.IO:
            if not voted:
                raise UnmappedAddress(tx.address, "output device not on the system bus")
            if tx.kind is TxKind.WRITE:
                self.io_log.append(tx.data)
                return 0
            return 0  # write-only device: reads float to zero
        else:
            raise UnmappedAddress(tx.address, "outside every mapped region")

        if tx.kind is TxKind.READ:
            return store.get(tx.address, 0)
        store[tx.address] = tx.data
        return 0
