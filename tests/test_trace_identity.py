"""Trace identity: a fixed corpus of runs hashes to a pinned sha256.

Every run contributes its jsonl trace, its csv trace and its JSON report, so
any moved byte in the event stream, the report or the session records
changes the digest.  The corpus:

* every bundled scenario at seeds 0-4;
* every point of ``fault_sweep(3, 2, 1, 1)``, built as the sweep builds it;
* the 2-of-3 arrival sweep with latencies 0-5;
* 200 seeded random scenarios with mixed faults, triggers, latencies and
  noise.

A run that corrupts an address into a region its bus cannot serve is left
out: on the system bus it aborts with ``UnmappedAddress``, on the voted bus
it ends in the safe state with the session outcome ``unmapped_address``.
The counts of hashed and left-out runs are pinned beside the digest.
"""

from __future__ import annotations

import hashlib
import itertools
import random
from pathlib import Path

from lockstepsim import (
    IO_BASE,
    LS_RAM_BASE,
    Compute,
    FaultKind,
    FaultSpec,
    Halt,
    MoonConfig,
    Read,
    Scenario,
    TriggerSource,
    TriggerSP,
    UnmappedAddress,
    Write,
    emit_trace,
    load_scenario_file,
    run,
)
from lockstepsim.block import EXTERNAL_SOURCES
from lockstepsim.faults import INSTRUCTION_WINDOW_KINDS
from lockstepsim.scenario import ExternalTrigger, Flags
from lockstepsim.sweep import (
    DEFAULT_SAFE_PROGRAM,
    DIVERGENT_STREAM,
    build_masking_scenario,
    build_rendezvous_scenario,
    placement_catalog,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "lockstepsim" / "scenarios"

CORPUS_SHA256 = "60e8d7a67488789c1fb17a464746399c925f9a493023b4d26172e94f0f6b6331"
CORPUS_HASHED = 511
CORPUS_LEFT_OUT = 4

GROUPS = ((2, 2), (3, 2), (3, 3), (5, 3), (5, 4))
FLIP_BITS = (0, 3, 5, 16, 31)
EXTERNAL = sorted(EXTERNAL_SOURCES, key=lambda s: s.value)


def random_scenario(index: int) -> Scenario:
    rng = random.Random(index)
    n_required, m_agree = rng.choice(GROUPS)
    n_blocks = n_required + rng.randint(0, 1)
    safe = []
    for _ in range(rng.randint(1, 5)):
        pick = rng.random()
        if pick < 0.4:
            safe.append(Write(LS_RAM_BASE + rng.randrange(4), rng.randrange(100)))
        elif pick < 0.55:
            safe.append(Write(IO_BASE, rng.randrange(100)))
        elif pick < 0.8:
            safe.append(Read(LS_RAM_BASE + rng.randrange(4)))
        else:
            safe.append(Compute(rng.randint(1, 3)))
    programs = []
    for b in range(n_blocks):
        prog = []
        for _ in range(rng.randint(3, 8)):
            pick = rng.random()
            if pick < 0.5:
                prog.append(Compute(rng.randint(1, 6)))
            elif pick < 0.7:
                prog.append(Write(rng.randrange(16), rng.randrange(100)))
            elif pick < 0.85:
                prog.append(Read(rng.randrange(16)))
            elif b == 0 or rng.random() < 0.3:
                prog.append(TriggerSP(TriggerSource.APP_TRIGGERED))
        prog.append(Halt())
        programs.append(prog)
    triggers = sorted(
        (ExternalTrigger(rng.randint(1, 40), rng.choice(EXTERNAL)) for _ in range(rng.randint(0, 2))),
        key=lambda t: t.cycle,
    )
    faults = []
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(list(FaultKind))
        extra = {"target": rng.randrange(n_blocks), "kind": kind}
        if kind in INSTRUCTION_WINDOW_KINDS and rng.random() < 0.6:
            extra["at_safe_instr"] = rng.randrange(len(safe))
        else:
            extra["at_cycle"] = rng.randint(0, 30)
        if kind in (FaultKind.BIT_FLIP_DATA, FaultKind.BIT_FLIP_ADDRESS):
            extra["bit"] = rng.choice(FLIP_BITS)
        elif kind is FaultKind.START_JITTER:
            extra["delay"] = rng.randint(1, 6)
        elif kind is FaultKind.DIVERGENT_PROGRAM:
            extra["program"] = DIVERGENT_STREAM
        faults.append(FaultSpec(**extra))
        if kind is FaultKind.BIT_FLIP_ADDRESS and rng.random() < 0.5:
            # the same upset on a second port, so two ports can agree on it
            faults.append(FaultSpec(**dict(extra, target=(extra["target"] + 1) % n_blocks)))
    return Scenario(
        name=f"identity-{index}",
        seed=index,
        n_blocks=n_blocks,
        moon=MoonConfig(n_required, m_agree, t_gather=rng.randint(4, 12), t_exec=rng.randint(8, 20)),
        boot_check="pass",
        programs=programs,
        safe_program=safe,
        triggers=triggers,
        faults=faults,
        max_cycles=120,
        flags=Flags(random_selection=rng.random() < 0.3),
        irq_latency=[rng.randint(0, 3) for _ in range(n_blocks)] if rng.random() < 0.5 else None,
        noise_flip_probability=0.02 if rng.random() < 0.2 else 0.0,
    )


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


def run_bytes(scenario: Scenario, seed):
    """jsonl + csv + report bytes of one run, or None for a run left out."""
    try:
        report = run(scenario, seed=seed)
    except UnmappedAddress:
        return None
    if any(s["outcome"] == "unmapped_address" for s in report.sessions):
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
