"""Monitor roles in isolation: configuration rules, rendezvous admission,
the compare-and-select voter, controlled release, and the observer."""

from __future__ import annotations

import itertools
import random

import pytest

from lockstepsim import (
    BusTransaction,
    InvalidConfig,
    LockstepMonitor,
    MoonConfig,
    MoonMode,
    SyncState,
    TxKind,
    run_vote,
)


def cfg(n, m, t_gather=10, t_exec=10):
    return MoonConfig(n_required=n, m_agree=m, t_gather=t_gather, t_exec=t_exec)


def monitor(n=3, m=2, **kw):
    return LockstepMonitor(cfg(n, m, **kw))


def wtx(data, address=0x10000):
    return BusTransaction(TxKind.WRITE, address, data)


# -- configuration ---------------------------------------------------------------


@pytest.mark.parametrize(
    "n,m,mode",
    [
        (2, 2, MoonMode.COMPARISON),
        (3, 2, MoonMode.VOTING),
        (3, 3, MoonMode.VOTING),
        (5, 3, MoonMode.VOTING),
        (5, 4, MoonMode.VOTING),
        (5, 5, MoonMode.VOTING),
        (7, 4, MoonMode.VOTING),
    ],
)
def test_valid_configurations(n, m, mode):
    assert cfg(n, m).validate() is mode


@pytest.mark.parametrize(
    "n,m",
    [
        (1, 1),   # no redundancy
        (2, 1),   # 2oo2 is compare-only, m must be 2
        (3, 1),   # not a strict majority
        (4, 2),   # even group of more than two
        (4, 3),
        (5, 2),   # 2 of 5 cannot outvote 3
        (6, 4),
        (3, 4),   # m exceeds n
    ],
)
def test_rejected_configurations(n, m):
    with pytest.raises(InvalidConfig):
        cfg(n, m).validate()


@pytest.mark.parametrize("t_gather,t_exec", [(0, 5), (5, 0), (-1, 5)])
def test_budgets_must_be_positive(t_gather, t_exec):
    with pytest.raises(InvalidConfig):
        cfg(3, 2, t_gather=t_gather, t_exec=t_exec).validate()


# -- session requests and the IRQ line ----------------------------------------------


def test_request_starts_gathering_and_asserts_irq():
    mon = monitor()
    assert mon.sync_state is SyncState.IDLE
    assert mon.request_sp(5)
    assert mon.sync_state is SyncState.GATHERING  # the IRQ line is up while gathering
    assert [s.gather_cycle for s in mon.sessions] == [5]
    assert mon.sessions[-1].outcome == "incomplete"


def test_second_request_is_dropped_while_busy():
    mon = monitor()
    assert mon.request_sp(5)
    assert not mon.request_sp(6)
    assert [s.gather_cycle for s in mon.sessions] == [5]  # no second record


# -- rendezvous admission --------------------------------------------------------------


def finalize(mon, cycle):
    return mon.finalize_rendezvous(cycle)


def test_admission_waits_for_n_arrivals():
    mon = monitor(n=3)
    mon.request_sp(1)
    assert mon.on_sync_read(0, 10) == "stalled"
    assert mon.on_sync_read(1, 10) == "stalled"
    assert finalize(mon, 10) is None  # only two of three present
    assert mon.sync_state is SyncState.GATHERING
    assert mon.on_sync_read(2, 12) == "stalled"
    result = finalize(mon, 12)
    assert result is not None
    assert result.accepted == [0, 1, 2]
    assert result.rejected == []
    assert mon.sync_state is SyncState.LOCKSTEP
    assert result is mon.sessions[-1]
    assert (result.gather_cycle, result.lockstep_cycle) == (1, 12)


def test_same_cycle_ties_break_by_block_id():
    mon = monitor(n=3)
    mon.request_sp(1)
    for b in (3, 1, 0, 2):  # arrival order within the cycle is irrelevant
        mon.on_sync_read(b, 2)
    result = finalize(mon, 2)
    assert result.accepted == [0, 1, 2]
    assert result.rejected == [3]


def test_earlier_cycle_beats_lower_id():
    mon = monitor(n=2)
    mon.request_sp(1)
    mon.on_sync_read(3, 2)
    assert finalize(mon, 2) is None
    mon.on_sync_read(0, 3)
    mon.on_sync_read(1, 3)
    result = finalize(mon, 3)
    # block 3 arrived a cycle earlier and keeps its slot; block 0 wins the tie
    assert result.accepted == [0, 3]
    assert result.rejected == [1]


def test_random_selection_samples_only_the_crossing_cohort():
    seen = set()
    for seed in range(12):
        mon = monitor(n=3)
        mon.request_sp(1)
        mon.on_sync_read(0, 2)  # early bird: always admitted
        for b in (1, 2, 3):
            mon.on_sync_read(b, 3)
        result = mon.finalize_rendezvous(3, random.Random(seed), random_selection=True)
        assert 0 in result.accepted
        assert len(result.accepted) == 3
        assert sorted(result.accepted + result.rejected) == [0, 1, 2, 3]
        seen.add(tuple(result.accepted))
    assert len(seen) > 1  # the seed really steers the tie-break


def test_record_lists_rejections_only_while_the_session_is_open():
    mon = monitor(n=2)
    assert mon.on_sync_read(3, 1) == "rejected"  # before any session
    mon.request_sp(2)
    for b in (0, 1, 2):
        mon.on_sync_read(b, 3)
    record = finalize(mon, 3)
    assert (record.accepted, record.rejected) == ([0, 1], [2])  # same-cycle surplus
    assert mon.on_sync_read(3, 4) == "rejected"  # during lockstep: listed
    assert mon.on_exit_read(3, 4) == "rejected"  # exit reads are never listed
    for b in (0, 1):
        mon.on_exit_read(b, 5)
    assert mon.finalize_release(5) == [0, 1]
    assert mon.on_sync_read(2, 6) == "rejected"  # after release: not listed
    assert record.rejected == [2, 3]


def test_reads_outside_gathering_are_rejected():
    mon = monitor(n=2)
    assert mon.on_sync_read(0, 1) == "rejected"  # idle: no session
    mon.request_sp(2)
    mon.on_sync_read(0, 3)
    mon.on_sync_read(1, 3)
    finalize(mon, 3)
    assert mon.on_sync_read(2, 4) == "rejected"  # session already running


# -- controlled release -----------------------------------------------------------------


def locked_monitor():
    mon = monitor(n=3)
    mon.request_sp(1)
    for b in (0, 1, 2):
        mon.on_sync_read(b, 2)
    finalize(mon, 2)
    return mon


def test_release_waits_for_every_member():
    mon = locked_monitor()
    assert mon.on_exit_read(0, 5) == "stalled"
    assert mon.sync_state is SyncState.RELEASING
    assert mon.finalize_release(5) is None
    assert mon.on_exit_read(2, 6) == "stalled"
    assert mon.finalize_release(6) is None
    assert mon.on_exit_read(1, 7) == "stalled"
    assert mon.finalize_release(7) == [0, 1, 2]
    assert mon.sync_state is SyncState.IDLE
    record = mon.sessions[-1]
    assert (record.release_cycle, record.outcome) == (7, "completed")


def test_exit_read_from_outsider_is_rejected():
    mon = locked_monitor()
    assert mon.on_exit_read(3, 5) == "rejected"  # never admitted
    assert mon.sync_state is SyncState.LOCKSTEP


def test_monitor_is_reusable_after_release():
    mon = locked_monitor()
    for b in (0, 1, 2):
        mon.on_exit_read(b, 5)
    mon.finalize_release(5)
    assert mon.request_sp(8)
    assert [s.gather_cycle for s in mon.sessions] == [1, 8]
    assert mon.on_exit_read(0, 9) == "rejected"  # the old group is not a member


# -- voter -------------------------------------------------------------------------------


def test_unanimous_vote_forwards_without_disagreement():
    result = run_vote([wtx(7), wtx(7), wtx(7)], m_agree=2)
    assert result.selected == 0
    assert result.forwarded == BusTransaction(TxKind.WRITE, 0x10000, 7)
    assert not result.disagreement
    assert not result.no_majority
    assert not result.idle_majority


def test_majority_with_disagreement_masks():
    # matrix rows: 110 / 110 / 001
    result = run_vote([wtx(7), wtx(7), wtx(5)], m_agree=2)
    assert result.matrix == [
        [True, True, False],
        [True, True, False],
        [False, False, True],
    ]
    assert result.selected == 0
    assert result.disagreement
    assert not result.no_majority


def test_winner_is_lowest_port_of_the_winning_class():
    result = run_vote([wtx(5), wtx(7), wtx(7)], m_agree=2)
    assert result.selected == 1
    assert result.forwarded.data == 7


def test_pairwise_divergence_is_no_majority():
    result = run_vote([wtx(1), wtx(2), wtx(3)], m_agree=2)
    assert result.no_majority
    assert result.disagreement
    assert result.selected is None
    assert result.forwarded is None


def test_absence_equals_only_absence():
    result = run_vote([None, wtx(7), None], m_agree=2)
    assert result.idle_majority  # the absent class wins
    assert result.selected is None
    assert result.forwarded is None
    assert result.disagreement  # port 1 fell outside the winning class
    assert not result.no_majority


def test_absent_winner_never_forwards_even_unanimously():
    result = run_vote([None, None, None], m_agree=3)
    assert result.idle_majority
    assert not result.disagreement
    assert result.forwarded is None


def test_ports_map_matrix_indices_to_block_ids():
    result = run_vote([wtx(7), wtx(7)], m_agree=2, ports=[2, 4])
    assert result.ports == [2, 4]
    assert result.selected == 0
    assert result.selected_block == 2


def test_vote_matrix_symmetry_small():
    pool = [wtx(1), wtx(2), None]
    for inputs in itertools.product(pool, repeat=3):
        result = run_vote(list(inputs), m_agree=2)
        for i in range(3):
            assert result.matrix[i][i]
            for j in range(3):
                assert result.matrix[i][j] == result.matrix[j][i]


def test_vote_records_no_majority_cycle_for_observer():
    mon = locked_monitor()
    result = mon.vote([(0, wtx(1)), (1, wtx(2)), (2, wtx(3))], cycle=9)
    assert result.no_majority
    assert mon.observe(9) == "no_majority"
    assert mon.frozen
    assert mon.sessions[-1].outcome == "no_majority"


def test_reported_bus_fault_is_raised_on_its_cycle_only():
    mon = locked_monitor()
    mon.report_bus_fault(9, "unmapped_address")
    assert mon.observe(8) is None
    assert mon.observe(9) == "unmapped_address"
    assert mon.sessions[-1].outcome == "unmapped_address"


# -- observer ----------------------------------------------------------------------------


def test_gather_timeout_fires_one_cycle_past_budget():
    mon = monitor(n=3, t_gather=4)
    mon.request_sp(10)
    for c in range(11, 15):
        assert mon.observe(c) is None
    assert mon.observe(15) == "gather_timeout"  # 10 + 4 + 1
    assert mon.frozen
    assert mon.sessions[-1].outcome == "gather_timeout"


def test_exec_timeout_covers_lockstep_and_releasing():
    mon = monitor(n=3, t_exec=5)
    mon.request_sp(1)
    for b in range(3):
        mon.on_sync_read(b, 2)
    mon.finalize_rendezvous(2)
    mon.on_exit_read(0, 4)  # releasing, but block 1 and 2 never exit
    assert mon.sync_state is SyncState.RELEASING
    for c in range(3, 8):
        assert mon.observe(c) is None
    assert mon.observe(8) == "exec_timeout"  # 2 + 5 + 1, budget not restarted
    assert mon.sessions[-1].outcome == "exec_timeout"


def test_idle_monitor_never_times_out():
    mon = monitor(t_gather=1, t_exec=1)
    for c in range(1, 30):
        assert mon.observe(c) is None


def test_frozen_monitor_rejects_everything():
    mon = monitor(n=3, t_gather=1)
    mon.request_sp(1)
    assert mon.observe(3) == "gather_timeout"
    assert mon.on_sync_read(0, 4) == "rejected"
    assert mon.on_exit_read(0, 4) == "rejected"
    assert not mon.request_sp(5)
    assert mon.finalize_release(5) is None
    assert mon.observe(6) is None  # reported once, then silent
