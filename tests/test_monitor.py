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


def enter(mon, readers, cycle):
    return mon.finalize_rendezvous(list(readers), cycle)


def test_admission_waits_for_n_arrivals():
    mon = monitor(n=3)
    mon.request_sp(1)
    assert enter(mon, [], 9) is None  # nobody read the sync register
    assert enter(mon, [0, 1], 10) is None  # only two of three present: both stall
    assert mon.sync_state is SyncState.GATHERING
    assert mon.arrived == [0, 1]
    accepted, rejected, context = enter(mon, [2], 12)
    assert (accepted, rejected, context) == ([0, 1, 2], [], "surplus")
    assert mon.sync_state is SyncState.LOCKSTEP
    assert mon.arrived == []
    record = mon.sessions[-1]
    assert (record.accepted, record.rejected) == ([0, 1, 2], [])
    assert (record.gather_cycle, record.lockstep_cycle) == (1, 12)


def test_same_cycle_ties_break_by_block_id():
    mon = monitor(n=3)
    mon.request_sp(1)
    # arrival order within the cycle is irrelevant
    assert enter(mon, [3, 1, 0, 2], 2) == ([0, 1, 2], [3], "surplus")


def test_earlier_cycle_beats_lower_id():
    mon = monitor(n=2)
    mon.request_sp(1)
    assert enter(mon, [3], 2) is None
    # block 3 arrived a cycle earlier and keeps its slot; block 0 wins the tie
    assert enter(mon, [0, 1], 3) == ([0, 3], [1], "surplus")


def test_random_selection_samples_only_the_crossing_cohort():
    seen = set()
    for seed in range(12):
        mon = LockstepMonitor(cfg(3, 2), rng=random.Random(seed))
        mon.request_sp(1)
        enter(mon, [0], 2)  # early bird: always admitted
        accepted, rejected, _ = enter(mon, [1, 2, 3], 3)
        assert 0 in accepted
        assert len(accepted) == 3
        assert sorted(accepted + rejected) == [0, 1, 2, 3]
        seen.add(tuple(accepted))
    assert len(seen) > 1  # the seed really steers the tie-break


def test_record_lists_rejections_only_while_the_session_is_open():
    mon = monitor(n=2)
    assert enter(mon, [3], 1) == ([], [3], "no_session")  # before any session
    mon.request_sp(2)
    record = mon.sessions[-1]
    enter(mon, [0, 1, 2], 3)
    assert (record.accepted, record.rejected) == ([0, 1], [2])  # same-cycle surplus
    assert enter(mon, [3], 4) == ([], [3], "session_running")  # during lockstep: listed
    assert mon.finalize_release([0, 1], 5) == [0, 1]
    assert enter(mon, [2], 6) == ([], [2], "no_session")  # after release: not listed
    assert record.rejected == [2, 3]


def test_reads_outside_gathering_are_rejected():
    mon = monitor(n=2)
    assert enter(mon, [0], 1) == ([], [0], "no_session")
    mon.request_sp(2)
    enter(mon, [0, 1], 3)
    assert enter(mon, [2, 3], 4) == ([], [2, 3], "session_running")
    assert mon.finalize_release([0], 5) is None
    assert enter(mon, [2], 6) == ([], [2], "session_running")  # releasing too


# -- controlled release -----------------------------------------------------------------


def locked_monitor():
    mon = monitor(n=3)
    mon.request_sp(1)
    enter(mon, [0, 1, 2], 2)
    return mon


def test_release_waits_for_every_member():
    mon = locked_monitor()
    assert mon.finalize_release([], 4) is None
    assert mon.sync_state is SyncState.LOCKSTEP
    assert mon.finalize_release([0], 5) is None  # the first exit read starts releasing
    assert mon.sync_state is SyncState.RELEASING
    assert mon.finalize_release([2], 6) is None
    assert mon.finalize_release([1], 7) == [0, 1, 2]
    assert mon.sync_state is SyncState.IDLE
    record = mon.sessions[-1]
    assert (record.release_cycle, record.outcome) == (7, "completed")


def test_monitor_is_reusable_after_release():
    mon = locked_monitor()
    assert mon.finalize_release([0, 1, 2], 5) == [0, 1, 2]
    assert mon.request_sp(8)
    assert [s.gather_cycle for s in mon.sessions] == [1, 8]
    assert (mon.arrived, mon.exited) == ([], set())  # the old group left nothing behind
    assert enter(mon, [2, 0, 1], 9) == ([0, 1, 2], [], "surplus")
    assert mon.finalize_release([1], 10) is None  # the new session needs every exit read


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
    result = mon.vote([(0, wtx(1)), (1, wtx(2)), (2, wtx(3))])
    assert result.no_majority
    assert mon.observe(9) == ("no_majority", None)
    assert mon.frozen
    assert mon.sessions[-1].outcome == "no_majority"


def test_reported_bus_fault_is_raised_on_its_cycle_only():
    mon = locked_monitor()
    assert mon.observe(8) is None
    mon.report_bus_fault("unmapped_address")
    assert mon.observe(9) == ("unmapped_address", None)  # the observer of the reporting cycle
    assert mon.frozen
    assert mon.sessions[-1].outcome == "unmapped_address"


# -- observer ----------------------------------------------------------------------------


def test_gather_timeout_fires_one_cycle_past_budget():
    mon = monitor(n=3, t_gather=4)
    mon.request_sp(10)
    assert mon.deadline == 15
    for c in range(11, 15):
        assert mon.observe(c) is None
    assert mon.observe(15) == ("gather_timeout", 4)  # 10 + 4 + 1
    assert mon.frozen
    assert mon.sessions[-1].outcome == "gather_timeout"


def test_exec_timeout_covers_lockstep_and_releasing():
    mon = monitor(n=3, t_exec=5)
    mon.request_sp(1)
    enter(mon, range(3), 2)
    mon.finalize_release([0], 4)  # releasing, but block 1 and 2 never exit
    assert mon.sync_state is SyncState.RELEASING
    assert mon.deadline == 8
    for c in range(3, 8):
        assert mon.observe(c) is None
    assert mon.observe(8) == ("exec_timeout", 5)  # 2 + 5 + 1, budget not restarted
    assert mon.sessions[-1].outcome == "exec_timeout"


def test_idle_monitor_never_times_out():
    mon = monitor(t_gather=1, t_exec=1)
    assert mon.deadline is None
    for c in range(1, 30):
        assert mon.observe(c) is None
