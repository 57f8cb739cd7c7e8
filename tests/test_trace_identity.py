"""Trace identity: a fixed corpus of runs hashes to a pinned sha256.

Every run contributes its jsonl trace, its csv trace and its JSON report, so
any moved byte in the event stream, the report or the session records
changes the digest.  The corpus:

* every bundled scenario at seeds 0-4;
* every point of ``fault_sweep(3, 2, 1, 1)``, built as the sweep builds it;
* the 2-of-3 arrival sweep with latencies 0-5;
* 200 seeded random scenarios with mixed faults, triggers, latencies and
  noise, from ``generated.random_scenario``.

A run that corrupts an address into a region its bus cannot serve is left
out: on the system bus it aborts with ``UnmappedAddress``, on the voted bus
it ends in the safe state with the session outcome ``unmapped_address``.
The counts of hashed and left-out runs are pinned beside the digest.

A second pinned digest covers ``generated.wide_scenario`` indexes 0-199,
traced and untraced: spare blocks, IRQ latencies up to 6, more triggers and
random selection.  It was taken before the engine began to tick a block only
when it has input (the end of a sleep or an answer), and held since, until
soak noise became a schedule drawn from per-block streams: both digests were
re-pinned then, for the noisy runs only.  Under the new streams the noisy
``wide-154`` corrupts an address its bus cannot serve, so it is left out too.

A third pinned digest covers the sweeps themselves: every point's params,
verdict and complaint in order, and the serialized scenario and run arguments
of every run a sweep makes (the reference run too), recorded by rebinding the
sweep module's ``run``.  It was taken before the arrival and fault sweeps were
folded into one point loop.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

from generated import random_scenario, run_unless_unmapped, wide_scenario
import lockstepsim.sweep
from lockstepsim import Scenario, emit_trace, load_scenario_file
from lockstepsim.scenario import serialize_scenario
from lockstepsim.sweep import (
    DEFAULT_SAFE_PROGRAM,
    arrival_sweep,
    build_masking_scenario,
    build_rendezvous_scenario,
    fault_sweep,
    placement_catalog,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "lockstepsim" / "scenarios"

CORPUS_SHA256 = "c12d032bfb7e3193d2aafefd138bf00a1d5ca077f8f8590e3da9000a234d4a4d"
CORPUS_HASHED = 511
CORPUS_LEFT_OUT = 4

WIDE_SHA256 = "87bb67ba65a53d5af88d4c290a7a6d21f36b68dd3c1c479cf7308e1250a83690"
WIDE_HASHED = 392
WIDE_LEFT_OUT = 8

SWEEP_SHA256 = "acb95e4e9e6d0fb08fb38807e582ffcff50f328b27ebaee81494ff22ec6dfcd8"
SWEEP_RUNS = 392
SWEEP_POINTS = 388


def corpus():
    """(scenario, seed) pairs in a fixed order."""
    for path in sorted(SCENARIO_DIR.glob("*.scn")):
        scenario = load_scenario_file(str(path))
        for seed in range(5):
            yield scenario, seed
    safe_len = len(DEFAULT_SAFE_PROGRAM)
    for target in range(3):
        for _, spec in placement_catalog(target, safe_len):
            yield build_masking_scenario(4, 3, 2, faults=(spec,)), None
    for latencies in itertools.product(range(6), repeat=3):
        yield build_rendezvous_scenario(3, 2, 2, latencies, name="arrivals-3b-2oo"), None
    for index in range(200):
        yield random_scenario(index), None


def run_bytes(scenario: Scenario, seed=None, traced=True):
    """jsonl + csv + report bytes of one run, or None for a run left out."""
    report = run_unless_unmapped(scenario, seed=seed, trace_enabled=traced)
    if report is None:
        return None
    return emit_trace(report.trace, "jsonl") + emit_trace(report.trace, "csv") + report.to_json().encode()


def pinned_digest(runs):
    """(sha256 over the bytes of the runs not left out, hashed, left out)."""
    digest = hashlib.sha256()
    hashed = left_out = 0
    for data in runs:
        if data is None:
            left_out += 1
            continue
        hashed += 1
        digest.update(data)
    return digest.hexdigest(), hashed, left_out


def test_corpus_hash_is_pinned():
    runs = (run_bytes(scenario, seed) for scenario, seed in corpus())
    assert pinned_digest(runs) == (CORPUS_SHA256, CORPUS_HASHED, CORPUS_LEFT_OUT)


def test_wide_corpus_hash_is_pinned():
    runs = (
        run_bytes(wide_scenario(index), traced=traced)
        for traced in (True, False)
        for index in range(200)
    )
    assert pinned_digest(runs) == (WIDE_SHA256, WIDE_HASHED, WIDE_LEFT_OUT)


def test_sweep_hash_is_pinned(monkeypatch):
    digest = hashlib.sha256()
    inner = lockstepsim.sweep.run
    runs = 0

    def recording(scenario, seed=None, max_cycles=None, trace_enabled=True):
        nonlocal runs
        runs += 1
        digest.update(repr((serialize_scenario(scenario), seed, max_cycles, trace_enabled)).encode())
        return inner(scenario, seed=seed, max_cycles=max_cycles, trace_enabled=trace_enabled)

    monkeypatch.setattr(lockstepsim.sweep, "run", recording)
    sweeps = (
        lambda: fault_sweep(3, 2, 1, 1),
        lambda: fault_sweep(3, 2, 1, 2, "representative"),
        lambda: fault_sweep(5, 3, 2, 1),
        lambda: fault_sweep(3, 3, 1, 1),  # 24 of its 54 points fail
        lambda: arrival_sweep(3, 2, 2, 3),
    )
    points = 0
    for sweep in sweeps:
        for point in sweep().points:
            points += 1
            digest.update(repr((point.params, point.ok, point.detail)).encode())
    assert (digest.hexdigest(), runs, points) == (SWEEP_SHA256, SWEEP_RUNS, SWEEP_POINTS)
