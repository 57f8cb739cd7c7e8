"""Acceptance suite: the eight published pass/fail gates for this simulator.

Each gate is one test that prints a single verdict line (written through the
real stdout so it is visible even under pytest's capture):

1.  Reference session replication against a frozen golden trace.
2.  Exhaustive fault-masking sweep for 2oo3 singles and 3oo5 singles+doubles.
3.  Pairwise divergence beyond the tolerance is detected and ends in the
    safe state with exit code 2.
4.  Gathering timeout fires at exactly entry + t_gather + 1.
5.  The voter equals a brute-force oracle on every input partition, n <= 5.
6.  Exhaustive rendezvous admission sweep over a 4-cycle arrival window.
7.  Byte-identical traces at fixed seed; seed changes only the random
    tie-break choice, never the admission cardinalities.
8.  Accepted blocks read the synchronization register exactly twice per
    completed session, rejected blocks exactly once.
"""

from __future__ import annotations

import collections
import itertools
import sys
import tempfile
import time
from pathlib import Path

import pytest

from lockstepsim import (
    LS_RAM_BASE,
    BusTransaction,
    Compute,
    FaultKind,
    FaultSpec,
    Halt,
    MoonConfig,
    Scenario,
    TriggerSource,
    TriggerSP,
    TxKind,
    emit_trace,
    load_scenario_file,
    run,
    run_vote,
)
from lockstepsim.cli import main as cli_main
from lockstepsim.scenario import serialize_scenario
from lockstepsim.sweep import (
    DEFAULT_SAFE_PROGRAM,
    arrival_sweep,
    build_masking_scenario,
    fault_sweep,
)
from lockstepsim.trace import audit_sessions

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "lockstepsim" / "scenarios"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
BUNDLED = sorted(SCENARIO_DIR.glob("*.scn"))


def criterion(num: int, title: str):
    """Print one verdict line per gate, pass or fail, bypassing capture."""

    def wrap(fn):
        def inner(request):
            capture = request.config.pluginmanager.getplugin("capturemanager")
            verdict = "FAIL"
            try:
                fn()
                verdict = "PASS"
            finally:
                line = f"[criterion {num}] {title}: {verdict}\n"
                if capture is not None:
                    with capture.global_and_fixture_disabled():
                        sys.stdout.write(line)
                        sys.stdout.flush()
                else:  # pragma: no cover - plain python invocation
                    sys.stdout.write(line)

        inner.__name__ = fn.__name__
        inner.__doc__ = fn.__doc__
        return inner

    return wrap


def bundled_report(name):
    return run(load_scenario_file(str(SCENARIO_DIR / name)))


# ---------------------------------------------------------------------------
# 1. reference session replication
# ---------------------------------------------------------------------------


@criterion(1, "reference session trace replication")
def test_criterion_1_reference_trace():
    report = bundled_report("fig5.scn")
    golden = (GOLDEN_DIR / "fig5_trace.jsonl").read_bytes()
    assert emit_trace(report.trace, "jsonl") == golden, "trace drifted from golden file"

    # milestone order: trigger -> IRQ -> two stalled sync reads -> simultaneous
    # accepts -> lockstep -> requester's late sync read rejected -> two exit
    # reads -> release
    events = report.trace

    def first(pred, after=-1):
        for i, e in enumerate(events):
            if i > after and pred(e):
                return i
        raise AssertionError("milestone missing")

    i_trig = first(lambda e: e.kind == "trigger" and e.entity == 0)
    i_irq = first(lambda e: e.kind == "irq_assert", i_trig)
    i_sync1 = first(lambda e: e.kind == "sync_read" and e.entity == 1, i_irq)
    i_sync2 = first(lambda e: e.kind == "sync_read" and e.entity == 2, i_sync1)
    i_acc1 = first(lambda e: e.kind == "accept" and e.detail["block"] == 1, i_sync2)
    i_acc2 = first(lambda e: e.kind == "accept" and e.detail["block"] == 2, i_acc1)
    i_lock = first(
        lambda e: e.kind == "state_change" and e.detail.get("to") == "lockstep", i_acc2
    )
    i_sync0 = first(lambda e: e.kind == "sync_read" and e.entity == 0, i_lock)
    i_rej = first(
        lambda e: e.kind == "reject" and e.detail["block"] == 0, i_sync0
    )
    i_exit1 = first(lambda e: e.kind == "exit_read" and e.entity == 1, i_rej)
    i_exit2 = first(lambda e: e.kind == "exit_read" and e.entity == 2, i_rej)
    i_rel = first(lambda e: e.kind == "release", max(i_exit1, i_exit2))
    assert events[i_rej].detail["context"] == "session_running"
    assert events[i_acc1].cycle == events[i_acc2].cycle, "accepts must be simultaneous"
    assert sorted(events[i_rel].detail["blocks"]) == [1, 2]

    # both sync reads stalled: the responses (accepts) land on a later cycle
    assert events[i_acc1].cycle > events[i_sync1].cycle

    # the requester executes no safe-program instruction
    assert not any(
        e.kind == "state_change"
        and e.entity == 0
        and e.detail.get("to") == "safe_processing"
        for e in events
    )
    for e in events:
        if e.kind == "vote":
            assert 0 not in e.detail["ports"]
        if e.kind == "forward":
            assert e.detail["block"] != 0
    assert report.sessions[0]["accepted"] == [1, 2]
    assert report.sessions[0]["rejected"] == [0]


# Traces of the bundled scenarios that inject faults, frozen like fig5's so
# that a change to the fault engine cannot move a byte unnoticed.
FAULT_GOLDENS = ("masking_2oo3", "detect_divergent", "exit_timeout", "timeout", "soak_noise")


@pytest.mark.parametrize("name", FAULT_GOLDENS)
def test_fault_scenario_trace_matches_golden(name):
    report = bundled_report(f"{name}.scn")
    golden = (GOLDEN_DIR / f"{name}_trace.jsonl").read_bytes()
    assert emit_trace(report.trace, "jsonl") == golden, f"{name}: trace drifted from golden file"


# ---------------------------------------------------------------------------
# 2. exhaustive masking sweep
# ---------------------------------------------------------------------------


@criterion(2, "masking sweep, 2oo3 singles and 3oo5 singles+doubles")
def test_criterion_2_masking_sweep():
    t0 = time.monotonic()
    safe_len = len(DEFAULT_SAFE_PROGRAM)
    per_target = 4 * safe_len + 2  # four windowed kinds everywhere + two pre-entry kinds

    small = fault_sweep(3, 2, spares=1, max_simultaneous=1, placements="full")
    assert len(small.points) == 3 * per_target
    assert small.ok, f"unmasked single faults: {[p.describe() for p in small.failures[:5]]}"

    large = fault_sweep(5, 3, spares=2, max_simultaneous=2, placements="full")
    expect_singles = 5 * per_target
    expect_doubles = len(list(itertools.combinations(range(5), 2))) * per_target**2
    assert len(large.points) == expect_singles + expect_doubles
    assert large.ok, f"unmasked faults: {[p.describe() for p in large.failures[:5]]}"

    elapsed = time.monotonic() - t0
    assert elapsed <= 60.0, f"sweep took {elapsed:.1f}s, budget is 60s"


# ---------------------------------------------------------------------------
# 3. pairwise divergence is detected
# ---------------------------------------------------------------------------


def _data_commit_cycles(report):
    """Cycle of every voted data commit, in program order."""
    return [
        e.cycle
        for e in report.trace
        if e.kind == "forward" and "response" in e.detail
    ]


@criterion(3, "divergence beyond tolerance ends in the safe state")
def test_criterion_3_detection():
    bus_indices = [
        k for k, instr in enumerate(DEFAULT_SAFE_PROGRAM) if not isinstance(instr, Compute)
    ]
    for n, m in ((2, 2), (3, 2)):
        reference = run(build_masking_scenario(n, n, m, faults=()))
        commit_cycles = _data_commit_cycles(reference)
        assert len(commit_cycles) == len(bus_indices)
        for k_pos, k in enumerate(bus_indices):
            for faulty in range(n - m + 1, n + 1):  # > N - M divergent blocks
                # address flips diverge for reads and writes alike; distinct
                # bits keep the corrupted ports pairwise divergent too
                faults = [
                    FaultSpec(
                        target=t, kind=FaultKind.BIT_FLIP_ADDRESS, at_safe_instr=k, bit=t
                    )
                    for t in range(faulty)
                ]
                scenario = build_masking_scenario(n, n, m, faults=faults)
                report = run(scenario)
                hits = [e for e in report.trace if e.kind == "no_majority"]
                assert hits, f"{n}oo{m} k={k} f={faulty}: divergence went unnoticed"
                assert hits[0].cycle == commit_cycles[k_pos], (
                    f"{n}oo{m} k={k} f={faulty}: no_majority at {hits[0].cycle}, "
                    f"first affected cycle is {commit_cycles[k_pos]}"
                )
                errors = [e for e in report.trace if e.kind == "availability_error"]
                assert errors and errors[0].cycle == hits[0].cycle
                assert errors[0].detail["reason"] == "no_majority"
                assert report.final_state == "safe_state"
                # earlier instructions committed exactly as the reference did
                assert _data_commit_cycles(report) == commit_cycles[:k_pos]

                with tempfile.NamedTemporaryFile("w", suffix=".scn") as fh:
                    fh.write(serialize_scenario(scenario))
                    fh.flush()
                    assert cli_main(["run", fh.name, "--quiet"]) == 2


# ---------------------------------------------------------------------------
# 4. gathering timeout arithmetic
# ---------------------------------------------------------------------------


def _short_group(n_blocks, n, m, t_gather, faults):
    programs = [[Compute(1), TriggerSP(TriggerSource.APP_TRIGGERED)]
                + [Compute(1)] * 20 + [Halt()]]
    programs += [[Compute(1)] * 22 + [Halt()] for _ in range(n_blocks - 1)]
    return Scenario(
        name=f"gather-timeout-{t_gather}",
        seed=0,
        n_blocks=n_blocks,
        moon=MoonConfig(n_required=n, m_agree=m, t_gather=t_gather, t_exec=20),
        boot_check="pass",
        programs=programs,
        safe_program=list(DEFAULT_SAFE_PROGRAM),
        faults=faults,
        max_cycles=60,
    )


@criterion(4, "gathering timeout at exactly entry + t_gather + 1")
def test_criterion_4_timeout():
    # the bundled scenario first
    bundled = load_scenario_file(str(SCENARIO_DIR / "timeout.scn"))
    report = run(bundled)
    gather = next(
        e.cycle
        for e in report.trace
        if e.kind == "state_change" and e.detail.get("to") == "gathering"
    )
    errors = [e for e in report.trace if e.kind == "availability_error"]
    assert len(errors) == 1
    assert errors[0].detail["reason"] == "gather_timeout"
    assert errors[0].cycle == gather + bundled.moon.t_gather + 1
    assert report.final_state == "safe_state"
    assert cli_main(["run", str(SCENARIO_DIR / "timeout.scn"), "--quiet"]) == 2

    # generated variants: one no-show leaves exactly N-1 willing blocks
    for n, m in ((2, 2), (3, 2)):
        for t_gather in (3, 8, 13):
            scenario = _short_group(
                n, n, m, t_gather,
                faults=[FaultSpec(target=n - 1, kind=FaultKind.NO_SHOW, at_cycle=1)],
            )
            rep = run(scenario)
            g = next(
                e.cycle
                for e in rep.trace
                if e.kind == "state_change" and e.detail.get("to") == "gathering"
            )
            errs = [e for e in rep.trace if e.kind == "availability_error"]
            assert len(errs) == 1 and errs[0].detail["reason"] == "gather_timeout"
            assert errs[0].cycle == g + t_gather + 1, (
                f"{n}oo{m} t_gather={t_gather}: error at {errs[0].cycle}, "
                f"expected {g + t_gather + 1}"
            )
            assert rep.final_state == "safe_state"


# ---------------------------------------------------------------------------
# 5. voter oracle equivalence
# ---------------------------------------------------------------------------


def set_partitions(items):
    """Every partition of ``items`` into nonempty classes."""
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


def vote_oracle(inputs, m):
    """Brute-force majority selection via class counting."""

    def key(tx):
        return "absent" if tx is None else (tx.kind, tx.address, tx.data)

    counts = collections.Counter(key(tx) for tx in inputs)
    winner = next((i for i, tx in enumerate(inputs) if counts[key(tx)] >= m), None)
    if winner is None:
        return {"no_majority": True, "idle": False, "selected": None, "disagree": True}
    k = key(inputs[winner])
    return {
        "no_majority": False,
        "idle": k == "absent",
        "selected": None if k == "absent" else winner,
        "disagree": counts[k] < len(inputs),
    }


@criterion(5, "voter equals the brute-force oracle for every partition, n <= 5")
def test_criterion_5_voter_oracle():
    t0 = time.monotonic()
    checked = 0
    for n in range(1, 6):
        for partition in set_partitions(list(range(n))):
            # each equality class gets its own distinct payload; optionally one
            # class is "absent" instead
            for absent in [None] + list(range(len(partition))):
                inputs = [None] * n
                for ci, members in enumerate(partition):
                    tx = (
                        None
                        if ci == absent
                        else BusTransaction(TxKind.WRITE, LS_RAM_BASE, 100 + ci)
                    )
                    for i in members:
                        inputs[i] = tx
                for m in range(1, n + 1):
                    want = vote_oracle(inputs, m)
                    got = run_vote(inputs, m)
                    assert got.no_majority == want["no_majority"]
                    assert got.idle_majority == want["idle"]
                    assert got.selected == want["selected"]
                    assert got.disagreement == want["disagree"]
                    if want["selected"] is None:
                        assert got.forwarded is None
                    else:
                        assert got.forwarded is inputs[want["selected"]]
                    for i in range(n):
                        assert got.matrix[i][i] is True
                        for j in range(n):
                            assert got.matrix[i][j] == got.matrix[j][i]
                    checked += 1
    elapsed = time.monotonic() - t0
    # sum over n of n * sum over partitions of (classes + 1), Bell(1..5)
    assert checked == 1280
    assert elapsed < 5.0, f"oracle sweep took {elapsed:.1f}s, budget is 5s"


# ---------------------------------------------------------------------------
# 6. rendezvous admission sweep
# ---------------------------------------------------------------------------


@criterion(6, "rendezvous admission over every 4-cycle arrival assignment")
def test_criterion_6_rendezvous_sweep():
    total = 0
    for n_blocks, n_required in ((2, 2), (3, 2), (3, 3), (4, 2), (4, 3)):
        result = arrival_sweep(n_blocks, n_required, m_agree=2, latency_max=3)
        assert len(result.points) == 4**n_blocks
        assert result.ok, (
            f"{n_required} of {n_blocks}: "
            f"{[p.describe() for p in result.failures[:5]]}"
        )
        total += len(result.points)
    assert total == 16 + 64 + 64 + 256 + 256


# ---------------------------------------------------------------------------
# 7. determinism
# ---------------------------------------------------------------------------


@criterion(7, "byte-identical traces per seed; seeds steer only the tie-break")
def test_criterion_7_determinism():
    assert BUNDLED, "no bundled scenarios found"
    for path in BUNDLED:
        scenario = load_scenario_file(str(path))
        streams = {
            emit_trace(run(scenario).trace, "jsonl") for _ in range(10)
        }
        assert len(streams) == 1, f"{path.name}: trace bytes varied between runs"

    # random selection: the accepted set may move with the seed, the
    # admission cardinalities may not
    scenario = load_scenario_file(str(SCENARIO_DIR / "random_tiebreak.scn"))
    n = scenario.moon.n_required
    accepted_sets = set()
    for seed in range(20):
        report = run(scenario, seed=seed)
        assert report.effective_seed == seed
        session = report.sessions[0]
        assert session["outcome"] == "completed"
        assert len(session["accepted"]) == n
        assert len(session["rejected"]) == scenario.n_blocks - n
        accepted_sets.add(tuple(session["accepted"]))
    assert len(accepted_sets) > 1, "seed never changed the tie-break choice"


# ---------------------------------------------------------------------------
# 8. synchronization-register read counts
# ---------------------------------------------------------------------------


@criterion(8, "accepted blocks read the sync register twice, rejected once")
def test_criterion_8_read_counts():
    audited_completed = 0
    audited_rejections = 0
    for path in BUNDLED:
        report = run(load_scenario_file(str(path)))
        for session in audit_sessions(report.trace):
            for b in session.accepted:
                total = session.sync_reads.get(b, 0) + session.exit_reads.get(b, 0)
                if session.completed:
                    assert session.sync_reads.get(b, 0) == 1, (path.name, b)
                    assert session.exit_reads.get(b, 0) == 1, (path.name, b)
                else:
                    # a session cut short by the safe state may catch an
                    # accepted block before its exit read
                    assert total <= 2 and session.sync_reads.get(b, 0) == 1
            for b in session.rejected:
                assert session.sync_reads.get(b, 0) == 1, (path.name, b)
                assert session.exit_reads.get(b, 0) == 0, (path.name, b)
                audited_rejections += 1
            audited_completed += int(session.completed)
    assert audited_completed >= 1, "corpus has no completed session to audit"
    assert audited_rejections >= 1, "corpus has no rejection to audit"
