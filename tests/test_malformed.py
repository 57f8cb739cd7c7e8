"""Generated malformed input: every field the loaders know, each wrong value.

The scenario fields come from the dataclasses the loader reads them from, so
a field added there is probed here without a new case.  A scenario load must
succeed or raise ``ScenarioError``; a sweep spec must be rejected with a
``ValidationError`` that names the key, and so must a wrong ``run()`` override
or a wrong field of a ``Scenario`` built in code."""

from __future__ import annotations

import copy
import math
from dataclasses import fields, replace
from pathlib import Path

import pytest
import yaml

import lockstepsim.scenario
from lockstepsim import (
    LS_RAM_BASE,
    Compute,
    ExternalTrigger,
    FaultSpec,
    Flags,
    Halt,
    MoonConfig,
    Scenario,
    TriggerSource,
    TriggerSP,
    Write,
    run,
)
from lockstepsim.cli import EXIT_SCENARIO_ERROR, main
from lockstepsim.faults import FaultKind
from lockstepsim.scenario import (
    _SCENARIO_KEYS,
    ScenarioError,
    ValidationError,
    load_scenario,
    parse_yaml,
)
from lockstepsim.sweep import sweep_from_dict

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "lockstepsim" / "scenarios"
SWEEP_SPECS = ("arrivals_2oo3.sweep", "faults_2oo3.sweep")

WRONG_VALUES = (True, 1.5, "x", [1], {"a": 1}, None, 10**400, -1, 2**64, math.nan, math.inf)


def base_scenario() -> dict:
    """fig5 with every optional part present once."""
    doc = yaml.safe_load((SCENARIO_DIR / "fig5.scn").read_text(encoding="utf-8"))
    doc["flags"] = {"random_selection": False}
    doc["noise"] = {"flip_probability": 0.1}
    doc["triggers"] = [{"cycle": 3, "source": "external_in_scope"}]
    doc["faults"] = [{"target": 2, "kind": "bit_flip_data", "bit": 1, "at_safe_instr": 0}]
    return doc


def names(cls) -> list:
    return [f.name for f in fields(cls)]


# a field path is a tuple of keys and indexes into the document
SCENARIO_PATHS = (
    [(key,) for key in sorted(_SCENARIO_KEYS)]
    + [("moon", key) for key in names(MoonConfig)]
    + [("flags", key) for key in names(Flags)]
    + [("noise", "flip_probability")]
    + [("triggers", 0, key) for key in names(ExternalTrigger)]
    + [("faults", 0, key) for key in names(FaultSpec)]
    + [("programs", 0), ("programs", 0, 0), ("safe_program", 0), ("irq_latency", 0)]
)


def substituted(doc, path, value) -> str:
    doc = copy.deepcopy(doc)
    inner = doc
    for step in path[:-1]:
        inner = inner[step]
    inner[path[-1]] = value
    return yaml.safe_dump(doc)


def spelled(path) -> str:
    return "".join(f"[{step}]" if isinstance(step, int) else f".{step}" for step in path)[1:]


def test_base_scenario_loads():
    load_scenario(yaml.safe_dump(base_scenario()))


@pytest.mark.parametrize("path", SCENARIO_PATHS, ids=spelled)
def test_a_wrong_scenario_value_is_a_scenario_error_or_accepted(path):
    base = base_scenario()
    escaped = []
    for value in WRONG_VALUES:
        try:
            load_scenario(substituted(base, path, value))
        except ScenarioError:
            pass
        except Exception as exc:  # noqa: BLE001 - the point of the test
            escaped.append(f"{value!r:.40}: {exc!r:.200}")
    assert escaped == []


@pytest.mark.parametrize("name", SWEEP_SPECS)
def test_a_wrong_sweep_value_is_rejected_by_key(name):
    base = yaml.safe_load((SCENARIO_DIR / "sweeps" / name).read_text(encoding="utf-8"))
    for key in base:
        for value in WRONG_VALUES:
            text = substituted(base, (key,), value)
            with pytest.raises(ValidationError) as exc:
                sweep_from_dict(parse_yaml(text, "sweep spec"))
            assert exc.value.field_path == key, (value, str(exc.value))


@pytest.mark.parametrize(
    "path,value",
    [
        (("noise", "flip_probability"), 10**400),
        (("triggers", 0, "bogus"), 1),
        (("faults", 0, "bit"), math.nan),
        (("moon", "t_exec"), [1]),
        (("programs", 0, 0), None),
    ],
    ids=lambda v: spelled(v) if isinstance(v, tuple) else None,
)
def test_wrong_scenario_values_exit_three(tmp_path, capsys, path, value):
    scn = tmp_path / "bad.scn"
    scn.write_text(substituted(base_scenario(), path, value))
    assert main(["validate", str(scn)]) == EXIT_SCENARIO_ERROR
    assert spelled(path) in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("mode", [1]), ("m_agree", math.inf), ("n_required", 10**400)])
def test_wrong_sweep_values_exit_three(tmp_path, capsys, key, value):
    base = yaml.safe_load((SCENARIO_DIR / "sweeps" / "faults_2oo3.sweep").read_text(encoding="utf-8"))
    spec = tmp_path / "bad.sweep"
    spec.write_text(substituted(base, (key,), value))
    assert main(["sweep", str(spec)]) == EXIT_SCENARIO_ERROR
    assert f"scenario error: {key}: " in capsys.readouterr().err


def short_repr(value) -> str:
    return f"{value!r:.20}"


# None keeps the scenario's value; run() takes only an integer in range instead
@pytest.mark.parametrize("value", [v for v in WRONG_VALUES if v is not None], ids=short_repr)
def test_a_wrong_seed_override_is_rejected(value):
    scenario = load_scenario((SCENARIO_DIR / "fig5.scn").read_text(encoding="utf-8"))
    with pytest.raises(ValidationError) as exc:
        run(scenario, seed=value)
    assert exc.value.field_path == "seed override"


@pytest.mark.parametrize(
    "value",
    [v for v in WRONG_VALUES if v is not None and not (type(v) is int and v >= 0)],
    ids=short_repr,
)
def test_a_wrong_max_cycles_override_is_rejected(value):
    scenario = load_scenario((SCENARIO_DIR / "fig5.scn").read_text(encoding="utf-8"))
    with pytest.raises(ValidationError) as exc:
        run(scenario, max_cycles=value)
    assert exc.value.field_path == "max_cycles override"


def built_cases():
    """(field, wrong value, the field path its error names) for fig5 built in
    code, as the sweeps build theirs; a large count is a valid one."""
    for name in ("seed", "n_blocks", "max_cycles"):
        for v in WRONG_VALUES:
            if name == "seed" or not (type(v) is int and v >= 1):
                yield name, v, name
    in_scope = TriggerSource.EXTERNAL_IN_SCOPE
    yield from [
        ("name", 5, "name"),
        ("name", "", "name"),
        ("moon", "x", "moon"),
        ("moon", MoonConfig(2, 2, 20, "x"), "moon.t_exec"),
        ("programs", [["x"]] * 3, "programs[0][0]"),
        ("programs", [[Compute("x")]] * 3, "programs[0][0].duration"),
        ("programs", [[TriggerSP("x")]] * 3, "programs[0][0]"),
        ("programs", "x", "programs"),
        ("safe_program", "x", "safe_program"),
        ("safe_program", ["x"], "safe_program[0]"),
        ("triggers", ["x"], "triggers[0]"),
        ("triggers", [ExternalTrigger("x", in_scope)], "triggers[0].cycle"),
        ("triggers", [ExternalTrigger(3, "x")], "triggers[0].source"),
        ("faults", ["x"], "faults[0]"),
        ("faults", [FaultSpec("x", FaultKind.NO_SHOW, at_cycle=1)], "faults[0].target"),
        ("faults", [FaultSpec(0, "x", at_cycle=1)], "faults[0].kind"),
        ("faults", [FaultSpec(0, FaultKind.NO_SHOW, at_cycle="x")], "faults[0].at_cycle"),
        ("flags", None, "flags"),
        ("flags", Flags(random_selection="x"), "flags.random_selection"),
        ("irq_latency", ["a", 0, 1], "irq_latency"),
        ("irq_latency", 5, "irq_latency"),
        ("noise_flip_probability", "x", "noise.flip_probability"),
        ("noise_flip_probability", True, "noise.flip_probability"),
    ]


@pytest.mark.parametrize(
    "name,value,path",
    [pytest.param(*case, id=f"{case[0]}={short_repr(case[1])}") for case in built_cases()],
)
def test_a_wrong_field_of_a_built_scenario_is_rejected(name, value, path):
    scenario = load_scenario((SCENARIO_DIR / "fig5.scn").read_text(encoding="utf-8"))
    with pytest.raises(ValidationError) as exc:
        replace(scenario, **{name: value})
    assert exc.value.field_path == path


def rebuilt(obj, path, value):
    """``obj`` with the field or entry at ``path`` replaced by ``value``."""
    if not path:
        return value
    step, rest = path[0], path[1:]
    if isinstance(step, int):
        return [*obj[:step], rebuilt(obj[step], rest, value), *obj[step + 1 :]]
    return replace(obj, **{step: rebuilt(getattr(obj, step), rest, value)})


# the fields of a built scenario and of the dataclasses it holds
BUILT_PATHS = (
    [(key,) for key in names(Scenario)]
    + [("moon", key) for key in names(MoonConfig)]
    + [("flags", key) for key in names(Flags)]
    + [("triggers", 0, key) for key in names(ExternalTrigger)]
    + [("faults", 0, key) for key in names(FaultSpec)]
    + [("programs", 0), ("programs", 0, 0), ("programs", 0, 0, "duration")]
    + [("safe_program", 0), ("safe_program", 0, "address"), ("irq_latency", 0)]
)


@pytest.mark.parametrize("path", BUILT_PATHS, ids=spelled)
def test_a_wrong_value_in_a_built_scenario_is_rejected_or_runs(path):
    base = load_scenario(yaml.safe_dump(base_scenario()))
    escaped = []
    for value in WRONG_VALUES:
        try:
            run(rebuilt(base, path, value), trace_enabled=False)
        except ValidationError:
            pass
        except Exception as exc:  # noqa: BLE001 - the point of the test
            escaped.append(f"{value!r:.40}: {exc!r:.200}")
    assert escaped == []


# -- instructions are checked once per object and role ---------------------------


def with_first_instruction(scenario, instr):
    """``scenario`` with ``instr`` put before block 0's program."""
    return replace(scenario, programs=[(instr,) + scenario.programs[0], *scenario.programs[1:]])


def divergent_at_0(scenario, instr):
    fault = FaultSpec(2, FaultKind.DIVERGENT_PROGRAM, at_safe_instr=0, program=(instr,))
    return replace(scenario, faults=[fault])


def first_safe(scenario, instr):
    return replace(scenario, safe_program=(instr,) + scenario.safe_program[1:])


@pytest.mark.parametrize(
    "twin,impostor,path",
    [
        (Compute(1), Compute(True), "programs[0][0].duration"),
        (Compute(1), Compute(1.0), "programs[0][0].duration"),
        (Write(0x40, 5), Write(0x40, 5.0), "programs[0][0].data"),
    ],
    ids=short_repr,
)
def test_an_equal_impostor_of_a_passed_instruction_is_rejected(twin, impostor, path):
    scenario = load_scenario((SCENARIO_DIR / "fig5.scn").read_text(encoding="utf-8"))
    with_first_instruction(scenario, twin)  # the twin passes, and is not checked again
    assert impostor == twin
    with pytest.raises(ValidationError) as exc:
        with_first_instruction(scenario, impostor)
    assert exc.value.field_path == path


@pytest.mark.parametrize(
    "instr,passes,fails,path",
    [
        (Write(0x40, 5), with_first_instruction, first_safe, "safe_program[0]"),
        (Write(0x40, 5), with_first_instruction, divergent_at_0, "faults[0].program[0]"),
        (Write(LS_RAM_BASE, 7), first_safe, with_first_instruction, "programs[0][0]"),
    ],
    ids=["normal_then_safe", "normal_then_divergent", "safe_then_normal"],
)
def test_an_instruction_passed_in_one_role_is_checked_in_the_other(instr, passes, fails, path):
    scenario = load_scenario((SCENARIO_DIR / "fig5.scn").read_text(encoding="utf-8"))
    passes(scenario, instr)
    with pytest.raises(ValidationError) as exc:
        fails(scenario, instr)
    assert exc.value.field_path == path


# -- a program tuple is trusted by object, in its role, and only for a while -----------


def program_first(scenario, program):
    return replace(scenario, programs=[program, *scenario.programs[1:]])


def divergent_program(scenario, program):
    fault = FaultSpec(2, FaultKind.DIVERGENT_PROGRAM, at_safe_instr=0, program=program)
    return replace(scenario, faults=[fault])


def safe_program(scenario, program):
    return replace(scenario, safe_program=program)


@pytest.mark.parametrize(
    "twin,impostor,path",
    [
        ((Compute(1), Halt()), (Compute(True), Halt()), "programs[0][0].duration"),
        ((Write(0x40, 5), Halt()), (Write(0x40, 5.0), Halt()), "programs[0][0].data"),
    ],
    ids=short_repr,
)
def test_an_equal_impostor_of_a_passed_program_is_rejected(twin, impostor, path):
    scenario = load_scenario((SCENARIO_DIR / "fig5.scn").read_text(encoding="utf-8"))
    program_first(scenario, twin)  # the twin passes, and is trusted while it is the last
    assert impostor == twin
    with pytest.raises(ValidationError) as exc:
        program_first(scenario, impostor)
    assert exc.value.field_path == path


@pytest.mark.parametrize(
    "fails,path",
    [(safe_program, "safe_program[0]"), (divergent_program, "faults[0].program[0]")],
    ids=["as_safe_program", "as_divergent_program"],
)
def test_a_program_passed_as_normal_code_is_checked_as_safe_code(fails, path):
    scenario = load_scenario((SCENARIO_DIR / "fig5.scn").read_text(encoding="utf-8"))
    program = (Write(0x40, 5), Compute(1))
    program_first(scenario, program)
    with pytest.raises(ValidationError) as exc:
        fails(scenario, program)
    assert exc.value.field_path == path


def test_the_trusted_programs_are_those_of_the_last_scenario_built():
    """200 builds, each with a fresh tuple: the cache holds one entry per
    program and role of the last build, and none of the build before it."""
    scenario = load_scenario((SCENARIO_DIR / "fig5.scn").read_text(encoding="utf-8"))
    previous = None
    for i in range(200):
        program = (Compute(1 + i), Halt())
        built = program_first(scenario, program)
        bound = {(id(p), False) for p in built.programs} | {(id(built.safe_program), True)}
        bound |= {(id(f.program), True) for f in built.faults if f.program is not None}
        passed = lockstepsim.scenario._passed
        assert passed[(id(program), False)][0] is program and set(passed) <= bound
        assert all(entry[0] is not previous for entry in passed.values())
        previous = program
