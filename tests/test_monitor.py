"""Monitor roles in isolation: configuration rules, rendezvous admission,
the compare-and-select voter and its voted-bus commit, controlled release,
and the observer.  Each step's answers are checked, and so are the events
the monitor emits into its trace."""

from __future__ import annotations

import itertools
import random

import pytest

from lockstepsim import (
    LOCKSTEP_SYNC_ADDRESS,
    BusTransaction,
    InvalidConfig,
    LockstepMonitor,
    MemoryMap,
    MoonConfig,
    MoonMode,
    SyncState,
    TriggerSource,
    TxKind,
    run_vote,
)
from lockstepsim.trace import Trace

ACCEPT, REJECT = LockstepMonitor.ACCEPT, LockstepMonitor.REJECT
SOURCE = TriggerSource.EXTERNAL_IN_SCOPE


def cfg(n, m, t_gather=10, t_exec=10):
    return MoonConfig(n_required=n, m_agree=m, t_gather=t_gather, t_exec=t_exec)


def monitor(n=3, m=2, rng=None, **kw):
    return LockstepMonitor(cfg(n, m, **kw), rng=rng, trace=Trace())


def wtx(data, address=0x10000):
    return BusTransaction(TxKind.WRITE, address, data)


def request(mon, cycle, origin="external"):
    return mon.request_sp(cycle, origin, SOURCE)


def drain(mon):
    """(cycle, phase, kind, detail) of the monitor's events since the last drain."""
    assert all(e.entity == "monitor" for e in mon.trace)
    events = [(e.cycle, e.phase, e.kind, e.detail) for e in mon.trace]
    mon.trace.clear()
    return events


def accepts(blocks):
    return [(b, ACCEPT) for b in blocks]


def rejects(blocks):
    return [(b, REJECT) for b in blocks]


def traced_rejects(mon):
    """(block, context) of the reject events since the last drain."""
    return [(d["block"], d["context"]) for _, _, kind, d in drain(mon) if kind == "reject"]


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
    assert request(mon, 5)
    assert mon.sync_state is SyncState.GATHERING  # the IRQ line is up while gathering
    assert [s.gather_cycle for s in mon.sessions] == [5]
    assert mon.sessions[-1].outcome == "incomplete"
    assert drain(mon) == [
        (5, 4, "state_change", {"from": "idle", "to": "gathering"}),
        (5, 4, "irq_assert", {"origin": "external", "source": "external_in_scope"}),
    ]


def test_second_request_is_dropped_while_busy():
    mon = monitor()
    assert request(mon, 5)
    drain(mon)
    assert not request(mon, 6, origin=2)
    assert [s.gather_cycle for s in mon.sessions] == [5]  # no second record
    detail = {"origin": 2, "source": "external_in_scope", "ignored": "session_active"}
    assert drain(mon) == [(6, 4, "trigger", detail)]


# -- rendezvous admission --------------------------------------------------------------


def enter(mon, readers, cycle):
    return mon.finalize_rendezvous(list(readers), cycle)


def test_admission_waits_for_n_arrivals():
    mon = monitor(n=3)
    request(mon, 1)
    drain(mon)
    assert enter(mon, [], 9) == []  # nobody read the sync register
    assert enter(mon, [0, 1], 10) == []  # only two of three present: both stall
    assert drain(mon) == []
    assert mon.sync_state is SyncState.GATHERING
    assert mon.arrived == [0, 1]
    assert enter(mon, [2], 12) == accepts([0, 1, 2])
    assert drain(mon) == [
        (12, 4, "accept", {"block": 0, "response": 1}),
        (12, 4, "accept", {"block": 1, "response": 1}),
        (12, 4, "accept", {"block": 2, "response": 1}),
        (12, 4, "irq_deassert", {}),
        (12, 4, "state_change", {"from": "gathering", "to": "lockstep"}),
    ]
    assert mon.sync_state is SyncState.LOCKSTEP
    assert mon.arrived == []
    record = mon.sessions[-1]
    assert (record.accepted, record.rejected) == ([0, 1, 2], [])
    assert (record.gather_cycle, record.lockstep_cycle) == (1, 12)


def test_same_cycle_ties_break_by_block_id():
    mon = monitor(n=3)
    request(mon, 1)
    # arrival order within the cycle is irrelevant
    assert enter(mon, [3, 1, 0, 2], 2) == accepts([0, 1, 2]) + rejects([3])
    assert traced_rejects(mon) == [(3, "surplus")]
    assert mon.rejected == 1


def test_earlier_cycle_beats_lower_id():
    mon = monitor(n=2)
    request(mon, 1)
    assert enter(mon, [3], 2) == []
    # block 3 arrived a cycle earlier and keeps its slot; block 0 wins the tie
    assert enter(mon, [0, 1], 3) == accepts([0, 3]) + rejects([1])
    assert traced_rejects(mon) == [(1, "surplus")]


def test_random_selection_samples_only_the_crossing_cohort():
    seen = set()
    for seed in range(12):
        mon = monitor(3, 2, rng=random.Random(seed))
        request(mon, 1)
        enter(mon, [0], 2)  # early bird: always admitted
        answers = enter(mon, [1, 2, 3], 3)
        accepted = [b for b, response in answers if response == ACCEPT]
        rejected = [b for b, response in answers if response == REJECT]
        assert [b for b, _ in traced_rejects(mon)] == rejected
        assert 0 in accepted
        assert len(accepted) == 3
        assert sorted(accepted + rejected) == [0, 1, 2, 3]
        seen.add(tuple(accepted))
    assert len(seen) > 1  # the seed really steers the tie-break


def test_record_lists_rejections_only_while_the_session_is_open():
    mon = monitor(n=2)
    assert enter(mon, [3], 1) == rejects([3])  # before any session
    assert traced_rejects(mon) == [(3, "no_session")]
    request(mon, 2)
    record = mon.sessions[-1]
    enter(mon, [0, 1, 2], 3)
    assert (record.accepted, record.rejected) == ([0, 1], [2])  # same-cycle surplus
    assert enter(mon, [3], 4) == rejects([3])  # during lockstep: listed
    assert traced_rejects(mon) == [(2, "surplus"), (3, "session_running")]
    assert mon.finalize_release([0, 1], 5) == accepts([0, 1])
    assert enter(mon, [2], 6) == rejects([2])  # after release: not listed
    assert traced_rejects(mon) == [(2, "no_session")]
    assert record.rejected == [2, 3]
    assert mon.rejected == 4  # the count has every rejected read, listed or not


def test_reads_outside_gathering_are_rejected():
    mon = monitor(n=2)
    assert enter(mon, [0], 1) == rejects([0])
    request(mon, 2)
    enter(mon, [0, 1], 3)
    assert enter(mon, [2, 3], 4) == rejects([2, 3])
    assert mon.finalize_release([0], 5) == []
    assert enter(mon, [2], 6) == rejects([2])  # releasing too
    contexts = ["no_session", "session_running", "session_running", "session_running"]
    assert traced_rejects(mon) == list(zip([0, 2, 3, 2], contexts))


# -- controlled release -----------------------------------------------------------------


def locked_monitor():
    mon = monitor(n=3)
    request(mon, 1)
    enter(mon, [0, 1, 2], 2)
    drain(mon)
    return mon


def hold(mon, *txs):
    """Put one transaction on each voted port, in member order."""
    mon.held.update(zip(mon.sessions[-1].accepted, txs))


def test_release_waits_for_every_member():
    mon = locked_monitor()
    assert mon.finalize_release([], 4) == []
    assert mon.sync_state is SyncState.LOCKSTEP
    assert mon.finalize_release([0], 5) == []  # the first exit read starts releasing
    assert mon.sync_state is SyncState.RELEASING
    assert drain(mon) == [(5, 4, "state_change", {"from": "lockstep", "to": "releasing"})]
    assert mon.finalize_release([2], 6) == []
    assert drain(mon) == []
    assert mon.finalize_release([1], 7) == accepts([0, 1, 2])
    assert mon.sync_state is SyncState.IDLE
    assert drain(mon) == [
        (7, 4, "release", {"blocks": [0, 1, 2], "response": 1}),
        (7, 4, "state_change", {"from": "releasing", "to": "idle"}),
    ]
    record = mon.sessions[-1]
    assert (record.release_cycle, record.outcome) == (7, "completed")


def test_monitor_is_reusable_after_release():
    mon = locked_monitor()
    hold(mon, *[BusTransaction(TxKind.READ, LOCKSTEP_SYNC_ADDRESS)] * 3)
    assert mon.finalize_release([0, 1, 2], 5) == accepts([0, 1, 2])
    assert request(mon, 8)
    assert [s.gather_cycle for s in mon.sessions] == [1, 8]
    # the old group left nothing behind
    assert (mon.arrived, mon.exited, mon.held) == ([], set(), {})
    assert enter(mon, [2, 0, 1], 9) == accepts([0, 1, 2])
    assert mon.finalize_release([1], 10) == []  # the new session needs every exit read


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
    assert result.ports[result.selected] == 2


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
    hold(mon, wtx(1), wtx(2), wtx(3))
    assert mon.vote(9, MemoryMap()) == []  # no port is answered
    assert drain(mon) == [
        (9, 5, "vote", {"ports": [0, 1, 2], "matrix": ["100", "010", "001"]}),
        (9, 5, "no_majority", {"ports": [0, 1, 2]}),
    ]
    assert mon.masked_fault_cycles == 0  # nothing was masked
    assert mon.observe(9) == ("no_majority", None)
    assert mon.frozen
    assert mon.sessions[-1].outcome == "no_majority"
    assert drain(mon) == [(9, 6, "availability_error", {"reason": "no_majority"})]


def test_reported_bus_fault_is_raised_on_its_cycle_only():
    mon = locked_monitor()
    assert mon.observe(8) is None
    unserved = wtx(7, address=0x100)  # system RAM: not on the voted bus
    hold(mon, unserved, unserved, unserved)
    assert mon.vote(9, MemoryMap()) == []  # the commit failed: no port is answered
    assert drain(mon)[-1] == (9, 5, "forward", {"block": 0, "tx": unserved.short(), "unmapped": 1})
    assert mon.observe(9) == ("unmapped_address", None)  # the observer of the reporting cycle
    assert mon.frozen
    assert mon.sessions[-1].outcome == "unmapped_address"
    assert drain(mon) == [(9, 6, "availability_error", {"reason": "unmapped_address"})]


def test_vote_commits_the_winner_and_answers_the_data_ports():
    mon = locked_monitor()
    bus = MemoryMap()
    # the shared-bus acknowledge answers the outvoted port too
    hold(mon, wtx(7), wtx(7), wtx(5))
    assert mon.vote(4, bus) == [(0, 0), (1, 0), (2, 0)]
    assert (bus.ls_ram, mon.held, mon.masked_fault_cycles) == ({0x10000: 7}, {}, 1)
    assert drain(mon) == [
        (4, 5, "vote", {"ports": [0, 1, 2], "matrix": ["110", "110", "001"]}),
        (4, 5, "forward", {"block": 0, "tx": wtx(7).short(), "response": 0}),
    ]
    # a port that issued its exit read waits for release
    exit_read = BusTransaction(TxKind.READ, LOCKSTEP_SYNC_ADDRESS)
    hold(mon, exit_read, wtx(8), wtx(8))
    assert mon.finalize_release([0], 6) == []
    assert mon.vote(6, bus) == [(1, 0), (2, 0)]
    assert (mon.held, mon.masked_fault_cycles) == ({0: exit_read}, 2)
    # a winning exit read stalls at the monitor
    mon.held[1] = exit_read
    assert mon.finalize_release([1], 8) == []
    drain(mon)
    assert mon.vote(8, bus) == []
    assert drain(mon)[-1] == (8, 5, "forward", {"block": 0, "tx": exit_read.short(), "stalled": 1})
    assert mon.held == {0: exit_read, 1: exit_read}


# -- observer ----------------------------------------------------------------------------


def test_gather_timeout_fires_one_cycle_past_budget():
    mon = monitor(n=3, t_gather=4)
    request(mon, 10)
    drain(mon)
    assert mon.deadline == 15
    for c in range(11, 15):
        assert mon.observe(c) is None
    assert drain(mon) == []
    assert mon.observe(15) == ("gather_timeout", 4)  # 10 + 4 + 1
    assert mon.frozen
    assert mon.sessions[-1].outcome == "gather_timeout"
    assert drain(mon) == [(15, 6, "availability_error", {"reason": "gather_timeout", "budget": 4})]


def test_exec_timeout_covers_lockstep_and_releasing():
    mon = monitor(n=3, t_exec=5)
    request(mon, 1)
    enter(mon, range(3), 2)
    mon.finalize_release([0], 4)  # releasing, but block 1 and 2 never exit
    assert mon.sync_state is SyncState.RELEASING
    assert mon.deadline == 8
    for c in range(3, 8):
        assert mon.observe(c) is None
    assert mon.observe(8) == ("exec_timeout", 5)  # 2 + 5 + 1, budget not restarted
    assert mon.sessions[-1].outcome == "exec_timeout"
    assert drain(mon)[-1] == (8, 6, "availability_error", {"reason": "exec_timeout", "budget": 5})


def test_idle_monitor_never_times_out():
    mon = monitor(t_gather=1, t_exec=1)
    assert mon.deadline is None
    for c in range(1, 30):
        assert mon.observe(c) is None
