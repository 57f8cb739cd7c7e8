"""Sweep machinery: the admission oracle, point checkers, spec-file parsing
and a couple of quick end-to-end sweeps at reduced scale."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest
import yaml

import lockstepsim.scenario
import lockstepsim.sweep
from lockstepsim.block import Compute, Halt
from lockstepsim.scenario import (
    Loader,
    ParseError,
    ScenarioError,
    ValidationError,
    load_scenario,
    make_loader,
)
from lockstepsim.sweep import (
    DEFAULT_SAFE_PROGRAM,
    DIVERGENT_STREAM,
    SweepPoint,
    SweepResult,
    arrival_sweep,
    build_masking_scenario,
    build_rendezvous_scenario,
    check_arrival_point,
    check_masking_point,
    expected_admission,
    fault_sweep,
    load_sweep_file,
    masking_reference,
    placement_catalog,
    sweep_from_dict,
)
from lockstepsim import run

SWEEP_DIR = Path(__file__).resolve().parents[1] / "src" / "lockstepsim" / "scenarios" / "sweeps"


# -- admission oracle (hand-checked examples) ----------------------------------------


@pytest.mark.parametrize(
    "latencies,n,accepted,rejected,entry",
    [
        # arrival = gather + latency + 1; gather fixed at 3 below
        ([0, 0, 0], 2, [0, 1], [2], 4),     # tie broken by id
        ([2, 0, 1], 2, [1, 2], [0], 5),     # order by latency
        ([4, 0, 1], 2, [1, 2], [0], 5),     # straggler rejected later
        ([1, 1, 0, 0], 3, [0, 2, 3], [1], 5),  # mixed cycles + tie
        ([3, 2, 1, 0], 4, [0, 1, 2, 3], [], 7),  # everyone joins
    ],
)
def test_expected_admission(latencies, n, accepted, rejected, entry):
    got_a, got_r, got_e = expected_admission(3, latencies, n)
    assert got_a == accepted
    assert got_r == rejected
    assert got_e == entry


def test_checker_accepts_a_clean_run():
    latencies = (2, 0, 1)
    scenario = build_rendezvous_scenario(3, 2, 2, latencies)
    report = run(scenario)
    assert check_arrival_point(report, latencies, 2) == ""


def test_checker_spots_a_wrong_expectation():
    latencies = (2, 0, 1)
    scenario = build_rendezvous_scenario(3, 2, 2, latencies)
    report = run(scenario)
    complaint = check_arrival_point(report, (0, 0, 0), 2)
    assert complaint != ""


def events(report, kind):
    return [e for e in report.trace if e.kind == kind]


def duplicate_gathering(report):
    report.trace.append(next(e for e in report.trace if e.detail.get("to") == "gathering"))


def drop_rejects(report):
    report.trace = [e for e in report.trace if e.kind != "reject"]


def delay_first_accept(report):
    events(report, "accept")[0].cycle += 1


def delay_every_accept(report):
    for e in events(report, "accept"):
        e.cycle += 1


def drop_release(report):
    report.trace = [e for e in report.trace if e.kind != "release"]


def release_one_member(report):
    events(report, "release")[0].detail["blocks"] = [1]


def end_in_safe_state(report):
    report.final_state = "safe_state"


# latencies (2, 0, 1) with n_required 2: gathering at cycle 2, blocks 1 and 2
# admitted at cycle 4, block 0 rejected, the group released at cycle 7
DOCTORED_ARRIVALS = [
    (duplicate_gathering, "expected one gathering entry, saw 2"),
    (drop_rejects, "rejected [], expected [0]"),
    (delay_first_accept, "acceptance not simultaneous: cycles [4, 5]"),
    (delay_every_accept, "entry at [5], expected 4"),
    (drop_release, "expected one release, saw 0"),
    (release_one_member, "released [1], expected [1, 2]"),
    (end_in_safe_state, "ended in safe_state"),
]


@pytest.mark.parametrize(
    "doctor,complaint", DOCTORED_ARRIVALS, ids=[d.__name__ for d, _ in DOCTORED_ARRIVALS]
)
def test_arrival_checker_names_each_departure_from_the_rule(doctor, complaint):
    latencies = (2, 0, 1)
    report = run(build_rendezvous_scenario(3, 2, 2, latencies))
    assert check_arrival_point(report, latencies, 2) == ""
    doctor(report)
    assert check_arrival_point(report, latencies, 2) == complaint


@pytest.mark.parametrize(
    "field,value,complaint",
    [
        ("ls_ram", {}, "voted RAM differs from reference"),
        ("io_log", [], "I/O log differs from reference"),
    ],
    ids=["ls_ram", "io_log"],
)
def test_masking_checker_names_the_differing_memory(field, value, complaint):
    reference = masking_reference(4, 3, 2)
    report = run(build_masking_scenario(4, 3, 2, faults=()), trace_enabled=False)
    assert check_masking_point(report, reference) == ""
    setattr(report, field, value)
    assert check_masking_point(report, reference) == complaint


# -- arrival sweep -------------------------------------------------------------------


def test_small_arrival_sweep_is_clean():
    result = arrival_sweep(n_blocks=3, n_required=2, m_agree=2, latency_max=1)
    assert result.ok
    assert len(result.points) == 2 ** 3


# -- fault placement catalogue -----------------------------------------------------------


def test_full_catalog_covers_every_instruction_and_kind():
    catalog = placement_catalog(target=1, safe_len=4, placements="full")
    labels = [label for label, _ in catalog]
    # four instruction-windowed kinds on each of four instructions, plus the
    # two pre-entry kinds once each
    assert len(catalog) == 4 * 4 + 2
    assert "bit_flip_data@0" in labels
    assert "divergent_program@3" in labels
    assert "no_show" in labels
    assert "start_jitter" in labels
    assert all(spec.target == 1 for _, spec in catalog)


def test_representative_catalog_is_one_spot_per_kind():
    catalog = placement_catalog(target=0, safe_len=4, placements="representative")
    assert len(catalog) == 4 + 2


def test_representative_fault_sweep_masks_everything():
    result = fault_sweep(3, 2, spares=1, placements="representative")
    assert result.ok, result.failures[:3]
    assert len(result.points) == 3 * 6  # three group members, six placements


def test_fault_sweep_point_params_name_targets_and_faults():
    result = fault_sweep(3, 2, spares=1, placements="representative")
    point = result.points[0]
    assert set(point.params) == {"targets", "faults"}


def test_masking_scenario_reference_is_reusable():
    a = run(build_masking_scenario(4, 3, 2, faults=()), trace_enabled=False)
    b = run(build_masking_scenario(4, 3, 2, faults=()), trace_enabled=False)
    assert a.ls_ram == b.ls_ram and a.io_log == b.io_log


# -- instruction checks -------------------------------------------------------------------------


@pytest.fixture
def instruction_checks(monkeypatch):
    """Per-instruction checks made while the test runs, by role; ``checked``
    lists the checked instruction objects in order."""
    counts = {"normal": 0, "safe": 0}
    checked = []
    for role in counts:
        name = f"_check_{role}_instruction"
        inner = getattr(lockstepsim.scenario, name)

        def counting(instr, inner=inner, role=role):
            counts[role] += 1
            checked.append(instr)
            return inner(instr)

        monkeypatch.setattr(lockstepsim.scenario, name, counting)
    return counts, checked


def test_a_program_object_is_checked_once_per_role(instruction_checks):
    counts, _ = instruction_checks
    idle = (Compute(1),) * 15 + (Halt(),)  # a tuple fresh to this test
    safe = tuple(replace(instr) for instr in DEFAULT_SAFE_PROGRAM)  # equal values, new objects
    base = build_masking_scenario(4, 3, 2, faults=())
    counts.update(normal=0, safe=0)  # whatever building the base checked
    replace(base, programs=(idle,) * 4, safe_program=safe)
    assert counts == {"normal": 16, "safe": 4}  # one idle tuple for four blocks
    longer = safe + idle[:1]
    replace(base, programs=(idle,) * 4, safe_program=longer)
    assert counts == {"normal": 16, "safe": 9}  # a new tuple, with Compute(1) now as safe code
    replace(base, programs=(list(idle),) * 4, safe_program=longer)
    assert counts == {"normal": 16 + 4 * 16, "safe": 9}  # a list is checked at each use


def test_a_sweep_point_checks_only_a_divergent_program_the_point_before_it_lacked(
    instruction_checks,
):
    counts, checked = instruction_checks
    fault_sweep(3, 2, 1, 1)  # every masking point's program objects have passed by now
    counts.update(normal=0, safe=0)
    for pairs in (1, 2):
        checked.clear()
        assert len(fault_sweep(3, 2, 1, pairs).points) == {1: 54, 2: 1026}[pairs]
        assert checked and all(any(i is x for x in DIVERGENT_STREAM) for i in checked)
    assert counts["normal"] == 0


# -- sweep result plumbing ------------------------------------------------------------------


def test_sweep_result_summary_counts_failures():
    result = SweepResult(
        mode="faults",
        points=[
            SweepPoint(params={"x": 1}, ok=True),
            SweepPoint(params={"x": 2}, ok=False, detail="boom"),
        ],
    )
    assert not result.ok
    assert len(result.failures) == 1
    assert "1 failing" in result.summary()
    assert "FAIL (boom)" in result.points[1].describe()


# -- sweep specification files ------------------------------------------------------------------


def test_arrival_spec_runs():
    result = sweep_from_dict(
        {"mode": "arrivals", "n_blocks": 2, "n_required": 2, "m_agree": 2, "latency_max": 1}
    )
    assert result.mode == "arrivals"
    assert result.ok


@pytest.mark.parametrize(
    "doc,path",
    [
        ("not a mapping", "mode"),
        ({}, "mode"),
        ({"mode": "nonsense"}, "mode"),
        ({"mode": "arrivals", "n_blocks": 2, "n_required": 2}, "m_agree"),  # m_agree missing
        ({"mode": "arrivals", "n_blocks": 99, "n_required": 2, "m_agree": 2}, "n_blocks"),
        ({"mode": "arrivals", "n_blocks": 2, "n_required": 2, "m_agree": 2, "zz": 1}, "zz"),
        ({"mode": "arrivals", "n_blocks": True, "n_required": 2, "m_agree": 2}, "n_blocks"),
        ({"mode": "faults", "n_required": 3, "m_agree": 2, "placements": "some"}, "placements"),
        ({"mode": "faults", "n_required": 3, "m_agree": 2, "latency_max": 1}, "latency_max"),
        ({"mode": "faults", "n_required": 3, "m_agree": 2, "spares": 9}, "spares"),
        ({"mode": "faults", "n_required": 3, "m_agree": 2, "max_simultaneous": 3}, "max_simultaneous"),
        # unknown keys that do not sort against each other; the first one is named
        ({"mode": "arrivals", "n_blocks": 2, "n_required": 2, "m_agree": 2, 1: 1, "zz": 1}, "1"),
        # legal ranges, illegal pair: rejected before the reference run
        ({"mode": "faults", "n_required": 4, "m_agree": 3}, "m_agree"),
        ({"mode": "arrivals", "n_blocks": 4, "n_required": 4, "m_agree": 3}, "m_agree"),
    ],
)
def test_bad_sweep_specs_are_rejected(doc, path):
    with pytest.raises(ValidationError) as exc:
        sweep_from_dict(doc)
    assert exc.value.field_path == path


def test_load_sweep_file(tmp_path):
    spec = tmp_path / "mini.sweep"
    spec.write_text(
        "mode: arrivals\nn_blocks: 2\nn_required: 2\nm_agree: 2\nlatency_max: 0\n"
    )
    result = load_sweep_file(str(spec))
    assert result.ok and len(result.points) == 1


def test_load_sweep_file_errors(tmp_path):
    with pytest.raises(ScenarioError):
        load_sweep_file(str(tmp_path / "absent.sweep"))
    bad = tmp_path / "bad.sweep"
    bad.write_text("mode: [unclosed\n")
    with pytest.raises(ScenarioError):
        load_sweep_file(str(bad))


@pytest.mark.parametrize("loader", [Loader, make_loader(yaml.SafeLoader)], ids=["default", "pure_python"])
def test_sweep_parse_errors_are_located_like_scenario_errors(tmp_path, monkeypatch, loader):
    monkeypatch.setattr("lockstepsim.scenario.Loader", loader)
    text = "mode: arrivals\nn_blocks: [2\nn_required: 2\n"
    spec = tmp_path / "bad.sweep"
    spec.write_text(text)
    with pytest.raises(ParseError) as from_spec:
        load_sweep_file(str(spec))
    with pytest.raises(ParseError) as from_scenario:
        load_scenario(text)
    assert (from_spec.value.line, from_spec.value.column) == (3, 11)
    assert str(from_spec.value) == str(from_scenario.value)
    assert str(from_spec.value).endswith(": ':'")


@pytest.mark.parametrize(
    "text,diagnostic",
    [
        ("mode: arrivals\nn_blocks: \x01\n", "line 2, column 11: "),
        # without the check this runs the 3-of-3 sweep, 24 of whose 54 points fail
        ("mode: faults\nn_required: 3\nm_agree: 2\nm_agree: 3\n", "line 4, column 1: duplicate key: 'm_agree'"),
    ],
    ids=["control_character", "repeated_key"],
)
@pytest.mark.parametrize("loader", [Loader, make_loader(yaml.SafeLoader)], ids=["default", "pure_python"])
def test_sweep_spec_reader_and_key_errors_are_located(tmp_path, monkeypatch, loader, text, diagnostic):
    monkeypatch.setattr("lockstepsim.scenario.Loader", loader)
    spec = tmp_path / "bad.sweep"
    spec.write_text(text)
    with pytest.raises(ParseError) as exc:
        load_sweep_file(str(spec))
    assert str(exc.value).startswith(diagnostic)


def test_empty_sweep_file_is_a_parse_error(tmp_path):
    spec = tmp_path / "empty.sweep"
    spec.write_text("# nothing here\n")
    with pytest.raises(ParseError, match="empty sweep spec"):
        load_sweep_file(str(spec))


def test_bundled_3oo5_pairs_spec_is_the_3330_point_sweep(monkeypatch):
    monkeypatch.setattr(lockstepsim.sweep, "fault_sweep", lambda *args: args)
    args = load_sweep_file(str(SWEEP_DIR / "faults_3oo5_pairs.sweep"))
    assert args == (5, 3, 2, 2, "full")
    per_block = len(placement_catalog(0, len(DEFAULT_SAFE_PROGRAM)))
    assert 5 * per_block + 10 * per_block**2 == 3330
