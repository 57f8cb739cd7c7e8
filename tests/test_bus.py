"""Bus primitives: address classification, transaction equality, the two
store domains, and same-cycle write serialization through the engine."""

from __future__ import annotations

import dataclasses
import itertools

import pytest

from lockstepsim import (
    IO_BASE,
    IO_LAST,
    LOCKSTEP_SYNC_ADDRESS,
    LS_RAM_BASE,
    LS_RAM_LAST,
    SYSTEM_RAM_BASE,
    SYSTEM_RAM_LAST,
    BusTransaction,
    Compute,
    Halt,
    MemoryMap,
    MoonConfig,
    Region,
    Scenario,
    TxKind,
    UnmappedAddress,
    Write,
    classify_address,
    run,
)


# -- address classification ----------------------------------------------------


@pytest.mark.parametrize(
    "address,region",
    [
        (SYSTEM_RAM_BASE, Region.SYSTEM_RAM),
        (0x1234, Region.SYSTEM_RAM),
        (SYSTEM_RAM_LAST, Region.SYSTEM_RAM),
        (LS_RAM_BASE, Region.LS_RAM),
        (LS_RAM_LAST, Region.LS_RAM),
        (IO_BASE, Region.IO),
        (IO_LAST, Region.IO),
        (IO_LAST + 1, None),
        (LOCKSTEP_SYNC_ADDRESS, None),  # monitor register, not a store
        (0xDEAD_BEEF, None),
    ],
)
def test_classify_address(address, region):
    assert classify_address(address) is region


def test_regions_are_disjoint_and_adjacent():
    assert SYSTEM_RAM_LAST + 1 == LS_RAM_BASE
    assert LS_RAM_LAST + 1 == IO_BASE
    assert LOCKSTEP_SYNC_ADDRESS > IO_LAST


# -- transaction equality --------------------------------------------------------


@pytest.mark.parametrize(
    "kind,address,data",
    list(itertools.product([TxKind.READ, TxKind.WRITE], [0x10000, 0x10001], [0, 7])),
)
def test_tx_equal_differs_on_any_vote_field(kind, address, data):
    base = BusTransaction(TxKind.WRITE, 0x10000, 7)
    other = BusTransaction(kind, address, data)
    same = (
        kind is TxKind.WRITE and address == 0x10000 and data == 7
    )
    assert (base == other) == same


def test_read_data_forced_to_zero():
    tx = BusTransaction(TxKind.READ, 0x10000, 12345)
    assert tx.data == 0
    assert tx == BusTransaction(TxKind.READ, 0x10000, 0)


def test_a_transaction_never_changes():
    tx = BusTransaction(TxKind.WRITE, 0x1_0001_0000, 7)
    with pytest.raises(dataclasses.FrozenInstanceError):
        tx.data = 8
    assert (tx.address, tx.data) == (0x10000, 7)  # normalized when built


def test_short_form():
    w = BusTransaction(TxKind.WRITE, 0x10000, 7)
    r = BusTransaction(TxKind.READ, 0x10000)
    assert w.short() == "W:00010000:00000007"
    assert r.short() == "R:00010000:00000000"


# -- memory map domains ----------------------------------------------------------


def _write(address, data):
    return BusTransaction(TxKind.WRITE, address, data)


def _read(address):
    return BusTransaction(TxKind.READ, address)


def test_system_ram_store_and_load():
    mem = MemoryMap()
    assert mem.issue(_read(0x42)) == 0  # unwritten words read as zero
    mem.issue(_write(0x42, 17))
    assert mem.issue(_read(0x42)) == 17
    assert mem.system_ram == {0x42: 17}
    assert mem.ls_ram == {}


def test_ls_ram_store_and_load_voted_only():
    mem = MemoryMap()
    mem.issue(_write(LS_RAM_BASE, 7), voted=True)
    assert mem.issue(_read(LS_RAM_BASE), voted=True) == 7
    with pytest.raises(UnmappedAddress):
        mem.issue(_read(LS_RAM_BASE), voted=False)
    with pytest.raises(UnmappedAddress):
        mem.issue(_write(0x42, 1), voted=True)


def test_io_is_append_only_and_write_only():
    mem = MemoryMap()
    mem.issue(_write(IO_BASE, 5), voted=True)
    mem.issue(_write(IO_BASE, 6), voted=True)
    mem.issue(_write(IO_BASE + 3, 7), voted=True)
    assert mem.io_log == [5, 6, 7]
    # reads of the write-only device float to zero, log untouched
    assert mem.issue(_read(IO_BASE), voted=True) == 0
    assert mem.io_log == [5, 6, 7]
    with pytest.raises(UnmappedAddress):
        mem.issue(_write(IO_BASE, 1), voted=False)


def test_unmapped_raises_on_both_domains():
    mem = MemoryMap()
    for voted in (False, True):
        with pytest.raises(UnmappedAddress) as exc:
            mem.issue(_write(0x9999_0000, 1), voted=voted)
        assert exc.value.address == 0x9999_0000


def test_unmapped_error_carries_context():
    err = UnmappedAddress(0xABC, "why")
    assert err.address == 0xABC
    assert err.context == "why"
    assert "0x00000ABC" in str(err)


# -- same-cycle system-RAM serialization -----------------------------------------


def _two_writer_scenario(first, second):
    """Two independent blocks write the same word on the same cycle."""
    return Scenario(
        name="write-race",
        seed=0,
        n_blocks=2,
        moon=MoonConfig(n_required=2, m_agree=2, t_gather=5, t_exec=5),
        boot_check="pass",
        programs=[[Write(0x100, first), Halt()], [Write(0x100, second), Halt()]],
        safe_program=[Compute(1)],
        max_cycles=10,
    )


def test_same_cycle_writes_serialize_by_ascending_block_id():
    report = run(_two_writer_scenario(3, 5))
    world_final = [
        e for e in report.trace if e.kind == "halt" and e.entity == "system"
    ]
    assert world_final, "run should terminate"
    # block 1's write lands second, so its value survives
    assert report.end_reason == "all_halted"


def test_same_cycle_write_winner_is_highest_id():
    # run twice with swapped payloads: the surviving value follows block 1
    from lockstepsim import World

    for first, second in ((3, 5), (5, 3)):
        world = World(_two_writer_scenario(first, second))
        world.run()
        assert world.memory.system_ram[0x100] == second
