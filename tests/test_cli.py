"""Command-line harness: subcommands, exit codes, and output plumbing.

Everything goes through ``main(argv)`` so the tests exercise exactly what the
installed console script runs."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from lockstepsim import emit_trace, load_scenario_file, run
from lockstepsim.cli import (
    EXIT_INTERNAL,
    EXIT_OK,
    EXIT_SAFE_STATE,
    EXIT_SCENARIO_ERROR,
    EXIT_SWEEP_FAIL,
    main,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "lockstepsim" / "scenarios"
FIG5 = str(SCENARIO_DIR / "fig5.scn")
TIMEOUT = str(SCENARIO_DIR / "timeout.scn")

UNMAPPED_MAJORITY = """\
name: unmapped-majority
seed: 0
n_blocks: 2
moon: {n_required: 2, m_agree: 2, t_gather: 6, t_exec: 10}
programs:
  - ["compute 1", "trigger_sp app_triggered", "compute 1", "halt"]
  - ["compute 1", "compute 1", "compute 1", "halt"]
safe_program: ["write 0x10000 7"]
faults:
  - {target: 0, kind: bit_flip_address, at_safe_instr: 0, bit: 17}
  - {target: 1, kind: bit_flip_address, at_safe_instr: 0, bit: 17}
max_cycles: 30
"""

UNMAPPED_SYSTEM_BUS = """\
name: unmapped-system-bus
seed: 0
n_blocks: 2
moon: {n_required: 2, m_agree: 2, t_gather: 6, t_exec: 10}
programs:
  - ["compute 1", "write 0x40 5", "halt"]
  - ["compute 1", "halt"]
safe_program: ["write 0x10000 7"]
faults:
  - {target: 0, kind: bit_flip_address, at_cycle: 1, bit: 16}
max_cycles: 30
"""


# -- run ------------------------------------------------------------------------


def test_run_clean_scenario_exits_zero(capsys):
    assert main(["run", FIG5]) == EXIT_OK
    out = capsys.readouterr().out
    assert "final state:          normal_processing" in out
    assert "sessions:             1 started, 1 completed" in out


def test_run_safe_state_exits_two(capsys):
    assert main(["run", TIMEOUT]) == EXIT_SAFE_STATE
    assert "safe_state" in capsys.readouterr().out


def test_run_failed_boot_exits_two():
    assert main(["run", str(SCENARIO_DIR / "boot_fail.scn"), "--quiet"]) == EXIT_SAFE_STATE


def test_run_missing_file_exits_three(capsys):
    assert main(["run", "no/such/file.scn"]) == EXIT_SCENARIO_ERROR
    assert "scenario error" in capsys.readouterr().err


def test_run_invalid_scenario_exits_three(tmp_path, capsys):
    bad = tmp_path / "broken.scn"
    bad.write_text("name: broken\nseed: 0\nn_blocks: 1\n"
                   "moon: {n_required: 2, m_agree: 2, t_gather: 5, t_exec: 5}\n"
                   "programs: [['halt']]\nsafe_program: ['write 0x10000 1']\n")
    assert main(["run", str(bad)]) == EXIT_SCENARIO_ERROR
    assert "n_blocks" in capsys.readouterr().err  # field path in the diagnostic


def test_run_mistyped_fault_field_exits_three(tmp_path, capsys):
    bad = tmp_path / "bad_bit.scn"
    bad.write_text(Path(TIMEOUT).read_text().replace(
        "{target: 2, kind: no_show, at_cycle: 1}",
        '{target: 2, kind: bit_flip_data, at_cycle: 1, bit: "x"}',
    ))
    assert main(["run", str(bad)]) == EXIT_SCENARIO_ERROR
    assert "faults[0].bit" in capsys.readouterr().err


def test_run_non_mapping_flags_exits_three(tmp_path, capsys):
    bad = tmp_path / "flags_zero.scn"
    bad.write_text(Path(TIMEOUT).read_text() + "flags: 0\n")
    assert main(["run", str(bad)]) == EXIT_SCENARIO_ERROR
    assert "flags: must be a mapping" in capsys.readouterr().err


FIG5_TEXT = Path(FIG5).read_text(encoding="utf-8")
ARRIVALS_SPEC = "mode: arrivals\nn_blocks: 2\nn_required: 2\nm_agree: 2\n"


# inputs that exited 4 or were accepted before the loaders were merged:
# file name -> (subcommand, bytes, diagnostic)
LOADER_HOLES = {
    "latin1.scn": (
        "run", FIG5_TEXT.replace("name: fig5", "name: fig\xe9").encode("latin-1"),
        "line 12, column 10: not valid UTF-8: byte 0xE9",
    ),
    "latin1.sweep": (
        "sweep", (ARRIVALS_SPEC + "# caf\xe9\n").encode("latin-1"),
        "line 5, column 6: not valid UTF-8: byte 0xE9",
    ),
    "mixed_keys.sweep": ("sweep", (ARRIVALS_SPEC + "1: 1\nzz: 1\n").encode(), "1: unknown field"),
    "trigger_key.scn": (
        "run", (FIG5_TEXT + "triggers: [{cycle: 3, source: external_in_scope, bogus: 1}]\n").encode(),
        "triggers[0].bogus: unknown field",
    ),
    "huge_noise.scn": (
        "run", (FIG5_TEXT + f"noise: {{flip_probability: {10**400}}}\n").encode(),
        "noise.flip_probability: must be within 0..1",
    ),
    "long_seed.scn": (
        "run", FIG5_TEXT.replace("seed: 1", "seed: " + "1" * 5000).encode(),
        "line 13, column 7: Exceeds the limit (4300 digits)",
    ),
    "month_13.scn": (
        "run", FIG5_TEXT.replace("seed: 1", "seed: 2001-13-01").encode(),
        "line 13, column 7: month must be in 1..12",
    ),
}


@pytest.mark.parametrize("name", sorted(LOADER_HOLES))
def test_loader_holes_exit_three(tmp_path, capsys, name):
    command, data, diagnostic = LOADER_HOLES[name]
    path = tmp_path / name
    path.write_bytes(data)
    assert main([command, str(path)]) == EXIT_SCENARIO_ERROR
    assert diagnostic in capsys.readouterr().err


def test_run_voted_unmapped_address_exits_two(tmp_path, capsys):
    # both halves of a 2oo2 group corrupt the same address bit, so the voted
    # bus unanimously agrees on an unmapped address: a modelled bus error
    scn = tmp_path / "unmapped.scn"
    scn.write_text(UNMAPPED_MAJORITY)
    trace_path, report_path = tmp_path / "t.jsonl", tmp_path / "r.json"
    assert main(["run", str(scn), "--quiet", "--trace", str(trace_path),
                 "--report", str(report_path)]) == EXIT_SAFE_STATE
    assert capsys.readouterr().err == ""
    events = [json.loads(line) for line in trace_path.read_text().splitlines()]
    tail = [(e["phase"], e["kind"], e["detail"]) for e in events[-4:]]
    assert tail == [
        (5, "forward", {"block": 0, "tx": "W:00030000:00000007", "unmapped": 1}),
        (6, "availability_error", {"reason": "unmapped_address"}),
        (7, "state_change", {"from": "safe_processing_mode", "to": "safe_state"}),
        (7, "halt", {"reason": "safe_state"}),
    ]
    doc = json.loads(report_path.read_text())
    assert [s["outcome"] for s in doc["sessions"]] == ["unmapped_address"]
    assert doc["ls_ram"] == {} and doc["availability_errors"] == 1


def test_run_system_bus_unmapped_address_exits_four(tmp_path, capsys):
    # a normal-program write to system RAM with address bit 16 flipped lands
    # in lockstep RAM, which the system bus does not reach
    scn = tmp_path / "system_unmapped.scn"
    scn.write_text(UNMAPPED_SYSTEM_BUS)
    assert main(["run", str(scn), "--quiet"]) == EXIT_INTERNAL
    assert "lockstep RAM not on the system bus" in capsys.readouterr().err


def test_quiet_suppresses_the_summary(capsys):
    assert main(["run", FIG5, "--quiet"]) == EXIT_OK
    assert capsys.readouterr().out == ""


# -- run: seed and cycle overrides ---------------------------------------------------


def test_seed_override_is_echoed_in_the_report(tmp_path):
    report_path = tmp_path / "r.json"
    main(["run", str(SCENARIO_DIR / "random_tiebreak.scn"), "--quiet",
          "--seed", "123", "--report", str(report_path)])
    doc = json.loads(report_path.read_text())
    assert doc["effective_seed"] == 123


def test_default_seed_comes_from_the_scenario(tmp_path):
    report_path = tmp_path / "r.json"
    main(["run", FIG5, "--quiet", "--report", str(report_path)])
    doc = json.loads(report_path.read_text())
    assert doc["effective_seed"] == load_scenario_file(FIG5).seed


def test_max_cycles_override(tmp_path):
    report_path = tmp_path / "r.json"
    main(["run", FIG5, "--quiet", "--max-cycles", "3", "--report", str(report_path)])
    doc = json.loads(report_path.read_text())
    assert doc["cycles_run"] == 3


# a negative seed override would alias its absolute value, one past 64 bits is
# refused in the scenario file, and a negative cycle limit would run no cycle
@pytest.mark.parametrize(
    "option,value,diagnostic",
    [
        ("--seed", "-5", "seed override: must be in 0..2**64-1"),
        ("--seed", str(2**64), "seed override: must be in 0..2**64-1"),
        ("--max-cycles", "-3", "max_cycles override: must be >= 0"),
    ],
)
def test_out_of_range_override_exits_three(capsys, option, value, diagnostic):
    assert main(["run", FIG5, "--quiet", "--trace", "-", option, value]) == EXIT_SCENARIO_ERROR
    captured = capsys.readouterr()
    assert diagnostic in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "option,value", [("--seed", "0"), ("--seed", str(2**64 - 1)), ("--max-cycles", "0")]
)
def test_override_range_ends_are_legal(option, value):
    assert main(["run", FIG5, "--quiet", option, value]) == EXIT_OK


# -- run: trace and report sinks ----------------------------------------------------------


def test_trace_file_matches_direct_emission(tmp_path):
    trace_path = tmp_path / "t.jsonl"
    main(["run", FIG5, "--quiet", "--trace", str(trace_path)])
    direct = emit_trace(run(load_scenario_file(FIG5)).trace, "jsonl")
    assert trace_path.read_bytes() == direct


def test_trace_to_stdout(capsys):
    main(["run", FIG5, "--quiet", "--trace", "-"])
    out = capsys.readouterr().out
    first = json.loads(out.splitlines()[0])
    assert first["kind"] == "boot"


def test_trace_csv_format(tmp_path):
    trace_path = tmp_path / "t.csv"
    main(["run", FIG5, "--quiet", "--trace", str(trace_path), "--format", "csv"])
    assert trace_path.read_text().splitlines()[0] == "cycle,phase,entity,kind,detail"


def test_report_to_stdout(capsys):
    main(["run", FIG5, "--quiet", "--report", "-"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["scenario_name"] == "fig5"
    assert "version" in doc and "scenario_hash" in doc


def test_unwritable_trace_sink_exits_four(tmp_path, capsys):
    assert main(["run", FIG5, "--quiet", "--trace", str(tmp_path)]) == EXIT_INTERNAL
    assert "fatal" in capsys.readouterr().err


def test_unwritable_report_sink_exits_four(tmp_path):
    assert main(["run", FIG5, "--quiet", "--report", str(tmp_path)]) == EXIT_INTERNAL


# -- validate ---------------------------------------------------------------------------------


def test_validate_all_bundled_scenarios(capsys):
    paths = [str(p) for p in sorted(SCENARIO_DIR.glob("*.scn"))]
    assert main(["validate", *paths]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("ok: ") == len(paths)
    assert "digest" in out


def test_validate_broken_scenario_exits_three(tmp_path, capsys):
    bad = tmp_path / "broken.scn"
    bad.write_text("seed: 0\n")
    assert main(["validate", str(bad)]) == EXIT_SCENARIO_ERROR
    assert "name" in capsys.readouterr().err


def test_validate_a_repeated_key_exits_three_with_its_location(tmp_path, capsys):
    bad = tmp_path / "repeated.scn"
    bad.write_text(FIG5_TEXT + "seed: 2\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == EXIT_SCENARIO_ERROR
    line = FIG5_TEXT.count("\n") + 1
    assert f"line {line}, column 1: duplicate key: 'seed'" in capsys.readouterr().err


def test_validate_stops_at_the_first_failure(tmp_path, capsys):
    bad = tmp_path / "broken.scn"
    bad.write_text("nonsense: true\n")
    assert main(["validate", FIG5, str(bad)]) == EXIT_SCENARIO_ERROR
    assert "ok: " in capsys.readouterr().out  # the good one was reported first


# -- sweep ---------------------------------------------------------------------------------------


def test_sweep_spec_file_runs_clean(tmp_path, capsys):
    spec = tmp_path / "mini.sweep"
    spec.write_text("mode: arrivals\nn_blocks: 2\nn_required: 2\nm_agree: 2\nlatency_max: 1\n")
    assert main(["sweep", str(spec)]) == EXIT_OK
    out = capsys.readouterr().out
    assert "arrivals sweep: 4 points, 0 failing" in out


def test_sweep_verbose_lists_every_point(tmp_path, capsys):
    spec = tmp_path / "mini.sweep"
    spec.write_text("mode: arrivals\nn_blocks: 2\nn_required: 2\nm_agree: 2\nlatency_max: 1\n")
    assert main(["sweep", str(spec), "--verbose"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert len([l for l in out if l.startswith("[latencies=")]) == 4


def test_sweep_bad_spec_exits_three(tmp_path, capsys):
    spec = tmp_path / "bad.sweep"
    spec.write_text("mode: arrivals\nn_blocks: 99\nn_required: 2\nm_agree: 2\n")
    assert main(["sweep", str(spec)]) == EXIT_SCENARIO_ERROR
    assert "n_blocks" in capsys.readouterr().err


def test_bundled_sweep_specs(capsys):
    for name in ("sweeps/arrivals_2oo3.sweep", "sweeps/faults_2oo3.sweep"):
        assert main(["sweep", str(SCENARIO_DIR / name)]) == EXIT_OK
    assert "0 failing" in capsys.readouterr().out


# -- parser plumbing -------------------------------------------------------------------------------


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "lockstepsim" in capsys.readouterr().out


def test_no_command_is_a_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2  # argparse usage failure


def test_exit_code_constants_are_distinct():
    codes = [EXIT_OK, EXIT_SWEEP_FAIL, EXIT_SAFE_STATE, EXIT_SCENARIO_ERROR, EXIT_INTERNAL]
    assert codes == [0, 1, 2, 3, 4]
