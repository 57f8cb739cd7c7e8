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

The engine does not tick a block inside a ``Compute`` until it ends; a
second check runs generated scenarios with that on and off and compares
their bytes.
"""

from __future__ import annotations

import hashlib
import itertools
from pathlib import Path

import pytest

from generated import random_scenario, run_unless_unmapped, wide_scenario
from lockstepsim import ProcessingBlock, Scenario, emit_trace, load_scenario_file
from lockstepsim.sweep import (
    DEFAULT_SAFE_PROGRAM,
    build_masking_scenario,
    build_rendezvous_scenario,
    placement_catalog,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "lockstepsim" / "scenarios"

CORPUS_SHA256 = "d94ac42e3270d73f79a9f2454a78d99f778d194eae7b8d75dc8bcac22bebb52c"
CORPUS_HASHED = 511
CORPUS_LEFT_OUT = 4


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


def test_corpus_hash_is_pinned():
    digest = hashlib.sha256()
    hashed = left_out = 0
    for scenario, seed in corpus():
        data = run_bytes(scenario, seed)
        if data is None:
            left_out += 1
            continue
        hashed += 1
        digest.update(data)
    assert (hashed, left_out) == (CORPUS_HASHED, CORPUS_LEFT_OUT)
    assert digest.hexdigest() == CORPUS_SHA256


@pytest.mark.parametrize("traced", [True, False], ids=["traced", "untraced"])
@pytest.mark.parametrize("generate", [random_scenario, wide_scenario], ids=lambda g: g.__name__)
def test_sleeping_through_computes_moves_no_byte(monkeypatch, generate, traced):
    asleep = [run_bytes(generate(index), traced=traced) for index in range(200)]
    # retiring nothing, every block counts its computes down tick by tick
    monkeypatch.setattr(ProcessingBlock, "retire_compute", lambda self: 0)
    ticked = [run_bytes(generate(index), traced=traced) for index in range(200)]
    assert [i for i in range(200) if asleep[i] != ticked[i]] == []
