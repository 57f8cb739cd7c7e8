"""Scenario text format: parsing, validation errors with located field paths,
the serialize/load round trip, and the checked, immutable value a scenario is."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import pytest
import yaml

import lockstepsim.scenario as scenario_module
from generated import random_scenario, wide_scenario
from lockstepsim import (
    Compute,
    FaultKind,
    FaultSpec,
    Flags,
    Halt,
    ParseError,
    Read,
    Scenario,
    ScenarioError,
    TriggerSource,
    TriggerSP,
    ValidationError,
    World,
    Write,
    load_scenario,
    load_scenario_file,
    parse_instruction,
    run,
    scenario_digest,
    serialize_scenario,
)
from lockstepsim.scenario import Loader, format_instruction, make_loader, scenario_to_dict
from lockstepsim.sweep import (
    DEFAULT_SAFE_PROGRAM,
    build_masking_scenario,
    build_rendezvous_scenario,
    placement_catalog,
)

SCENARIO_DIR = Path(__file__).resolve().parents[1] / "src" / "lockstepsim" / "scenarios"

MINIMAL = """
name: minimal
seed: 0
n_blocks: 2
moon: {n_required: 2, m_agree: 2, t_gather: 5, t_exec: 5}
programs:
  - ["compute 1", "halt"]
  - ["compute 1", "halt"]
safe_program: ["write 0x10000 1"]
"""


def variant(**overrides) -> str:
    """MINIMAL with whole lines replaced or appended."""
    doc = yaml.safe_load(MINIMAL)
    doc.update(overrides)
    return yaml.safe_dump(doc)


# -- instruction strings --------------------------------------------------------------


@pytest.mark.parametrize(
    "text,instr",
    [
        ("compute 3", Compute(3)),
        ("read 0x10", Read(0x10)),
        ("read 16", Read(16)),
        ("write 0x10000 7", Write(0x10000, 7)),
        ("write 66 0xFF", Write(66, 255)),
        ("trigger_sp app_triggered", TriggerSP(TriggerSource.APP_TRIGGERED)),
        ("halt", Halt()),
    ],
)
def test_parse_instruction(text, instr):
    assert parse_instruction(text, "here") == instr


@pytest.mark.parametrize(
    "text",
    [
        "",
        "fly 1",
        "compute",
        "compute 1 2",
        "read",
        "read zz",
        "write 0x10",
        "trigger_sp nowhere",
        "halt 1",
    ],
)
def test_parse_instruction_rejects(text):
    with pytest.raises(ValidationError):
        parse_instruction(text, "here")


@pytest.mark.parametrize(
    "instr",
    [Compute(4), Read(0x10000), Write(0x20000, 99), TriggerSP(TriggerSource.APP_TIMED), Halt()],
)
def test_instruction_text_round_trip(instr):
    assert parse_instruction(format_instruction(instr), "rt") == instr


# -- parse errors -----------------------------------------------------------------------


def test_empty_file_is_a_parse_error_at_line_one():
    with pytest.raises(ParseError) as exc:
        load_scenario("")
    assert exc.value.line == 1


def test_non_mapping_document_rejected():
    with pytest.raises(ParseError):
        load_scenario("- 1\n- 2\n")


def test_yaml_syntax_error_carries_location():
    with pytest.raises(ParseError) as exc:
        load_scenario("name: [unclosed\nseed: 1\n")
    assert exc.value.line >= 1
    assert "line" in str(exc.value)


@pytest.mark.parametrize(
    "text,line,column,char",
    [
        ("name: [unclosed\nseed: 1\n", 2, 5, ":"),
        ("a: b: c\n", 1, 5, ":"),
        ("x:\n  - 1\n - 2\n", 3, 2, "-"),
        ("\t- a\n", 1, 1, "\t"),
        ("a: 'x\n", 2, 1, None),  # end of input: no character to name
        ("seed: @1\n", 1, 7, "@"),
        ("a: `x`\n", 1, 4, "`"),
        ("x: 1\r\nb: \u00e9\r\nc: [@]\n", 3, 5, "@"),
        ("name: x\nseed: 2001-13-01\n", 2, 7, "2"),  # a value the constructor cannot build
        ("name: x\nseed: \x01\n", 2, 7, "\x01"),  # a character the reader rejects
        ("name: \u00e9\u00e9\r\nseed: \x01\n", 2, 7, "\x01"),  # libyaml counts UTF-8 bytes
        ("name: x\nseed: \ud800\n", 2, 7, "\ud800"),  # libyaml cannot encode a lone surrogate
    ],
)
@pytest.mark.parametrize("loader", [Loader, make_loader(yaml.SafeLoader)], ids=["default", "pure_python"])
def test_parse_error_location_is_exact(monkeypatch, loader, text, line, column, char):
    monkeypatch.setattr("lockstepsim.scenario.Loader", loader)
    with pytest.raises(ParseError) as exc:
        load_scenario(text)
    message = str(exc.value)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert message.startswith(f"line {line}, column {column}: ")
    assert "\n" not in message
    if char is None:
        assert not message.endswith("'")
    else:
        assert message.endswith(f": {char!r}")


@pytest.mark.parametrize(
    "text,line,column,key",
    [
        ("name: x\nseed: 1\nseed: 2\n", 3, 1, "'seed'"),
        ('name: x\nseed: 1\n"seed": 2\n', 3, 1, "'seed'"),  # another spelling of one key
        ("moon: {n_required: 2, n_required: 3}\n", 1, 23, "'n_required'"),
        ("programs:\n  - {a: 1,\n     a: 1}\n", 3, 6, "'a'"),
        ("x: &m {a: 1}\ny:\n  <<: *m\n  b: 1\n  b: 2\n", 5, 3, "'b'"),
        ("0x1: a\n1: b\n", 2, 1, "1"),
    ],
)
@pytest.mark.parametrize("loader", [Loader, make_loader(yaml.SafeLoader)], ids=["default", "pure_python"])
def test_a_repeated_key_is_rejected_where_it_repeats(monkeypatch, loader, text, line, column, key):
    monkeypatch.setattr("lockstepsim.scenario.Loader", loader)
    with pytest.raises(ParseError) as exc:
        load_scenario(text)
    assert str(exc.value) == f"line {line}, column {column}: duplicate key: {key}"


@pytest.mark.parametrize("loader", [Loader, make_loader(yaml.SafeLoader)], ids=["default", "pure_python"])
def test_merge_keys_still_override_and_unhashable_keys_keep_their_error(monkeypatch, loader):
    monkeypatch.setattr("lockstepsim.scenario.Loader", loader)
    text = "a: &a {x: 1, y: 1}\nb: &b {y: 2, z: 2}\nc:\n  <<: [*a, *b]\n  x: 3\n"
    doc = scenario_module.parse_yaml(text, "scenario")
    assert doc["c"] == {"x": 3, "y": 1, "z": 2}
    with pytest.raises(ParseError) as exc:
        load_scenario("a: {[b]: 1}\n")
    assert str(exc.value) == "line 1, column 5: found unhashable key: '['"


def test_missing_file(tmp_path):
    with pytest.raises(ScenarioError):
        load_scenario_file(str(tmp_path / "nope.scn"))


# -- field validation ---------------------------------------------------------------------


def test_minimal_scenario_loads():
    s = load_scenario(MINIMAL)
    assert s.n_blocks == 2
    assert s.moon.n_required == 2
    assert s.boot_check == "pass"
    assert s.max_cycles == 1000  # default
    assert s.noise_flip_probability == 0.0


@pytest.mark.parametrize(
    "text,path_fragment",
    [
        (variant(extra_field=1), "extra_field"),
        (variant(name=""), "name"),
        (variant(seed=-1), "seed"),
        (variant(seed="one"), "seed"),
        (variant(n_blocks=1), "n_blocks"),  # below n_required
        (variant(boot_check="maybe"), "boot_check"),
        (variant(max_cycles=0), "max_cycles"),
        (variant(moon={"n_required": 2, "m_agree": 2, "t_gather": 5}), "t_exec"),
        (variant(moon={"n_required": 2, "m_agree": 2, "t_gather": 5, "t_exec": 5, "x": 1}), "moon.x"),
        (variant(moon={"n_required": 4, "m_agree": 3, "t_gather": 5, "t_exec": 5}), "moon"),
        (variant(programs=[["compute 1", "halt"]]), "programs"),  # one per block
        (variant(programs="oops"), "programs"),
        (variant(programs=[["compute 0", "halt"], ["halt"]]), "programs[0][0]"),
        (
            variant(programs=[["trigger_sp app_timed extra"], ["halt"]]),
            "programs[0][0]: trigger_sp takes one source",
        ),
        (
            variant(programs=[["write 0x40 0x100000000"], ["halt"]]),
            "programs[0][0]: data must fit in 32 bits",
        ),
        (variant(safe_program=["compute 0"]), "safe_program[0]: compute duration must be >= 1"),
        (
            variant(safe_program=["write 0x10000 0x100000000"]),
            "safe_program[0]: data must fit in 32 bits",
        ),
        (variant(safe_program=["halt"]), "safe_program[0]"),
        (variant(safe_program=["trigger_sp app_timed"]), "safe_program[0]"),
        (variant(flags={"unknown": True}), "flags.unknown"),
        (variant(irq_latency=[0]), "irq_latency"),
        (variant(irq_latency=[0, -1]), "irq_latency"),
        (variant(irq_latency="zero"), "irq_latency"),
        (variant(noise={"flip_probability": 1.5}), "noise.flip_probability"),
        (variant(noise={"flip_probability": True}), "noise.flip_probability"),
        (variant(noise={"prob": 0.1}), "noise.prob"),
        (variant(triggers=[{"cycle": 0, "source": "external_in_scope"}]), "triggers[0]"),
        (variant(triggers=[{"cycle": 5, "source": "app_triggered"}]), "triggers[0]"),
        (variant(triggers=[{"cycle": 5, "source": "martian"}]), "triggers[0]"),
        (variant(triggers=5), "triggers: must be a list"),
        (variant(faults=5), "faults: must be a list"),
        (variant(flags={"random_selection": "no"}), "flags.random_selection"),
        (variant(flags=[]), "flags: must be a mapping"),
        (variant(flags=0), "flags: must be a mapping"),
        (variant(noise=0), "noise: must be a mapping"),
        (variant(noise=[]), "noise: must be a mapping"),
    ],
)
def test_validation_errors_name_the_field(text, path_fragment):
    with pytest.raises(ValidationError) as exc:
        load_scenario(text)
    assert path_fragment in str(exc.value)


def test_null_optional_fields_are_absent():
    s = load_scenario(variant(flags=None, noise=None, triggers=None, faults=None))
    assert s.flags.random_selection is False
    assert s.noise_flip_probability == 0.0
    assert (s.triggers, s.faults) == ((), ())


def test_n_blocks_below_n_required_names_n_blocks():
    text = variant(
        n_blocks=2,
        moon={"n_required": 3, "m_agree": 2, "t_gather": 5, "t_exec": 5},
        programs=[["halt"], ["halt"]],
    )
    with pytest.raises(ValidationError) as exc:
        load_scenario(text)
    assert exc.value.field_path == "n_blocks"


# -- program region rules ------------------------------------------------------------------


def test_normal_programs_stay_in_system_ram():
    with pytest.raises(ValidationError) as exc:
        load_scenario(variant(programs=[["read 0x10000", "halt"], ["halt"]]))
    assert "programs[0][0]" in str(exc.value)
    with pytest.raises(ValidationError):
        load_scenario(variant(programs=[["write 0x20000 1", "halt"], ["halt"]]))


def test_safe_program_region_rules():
    load_scenario(variant(safe_program=["write 0x20000 1", "read 0x1FFFF"]))  # fine
    with pytest.raises(ValidationError):
        load_scenario(variant(safe_program=["read 0x100"]))  # system RAM read
    with pytest.raises(ValidationError):
        load_scenario(variant(safe_program=["read 0x20000"]))  # output device read
    with pytest.raises(ValidationError):
        load_scenario(variant(safe_program=["write 0x100 1"]))  # system RAM write


def test_external_trigger_sources_rejected_inside_programs():
    with pytest.raises(ValidationError):
        load_scenario(variant(programs=[["trigger_sp external_in_scope", "halt"], ["halt"]]))


# -- fault validation -------------------------------------------------------------------------


def fault_variant(fault):
    return variant(faults=[fault])


@pytest.mark.parametrize(
    "fault,fragment",
    [
        ({"target": 9, "kind": "no_show", "at_cycle": 1}, "target"),
        ({"target": 0, "kind": "sneeze", "at_cycle": 1}, "kind"),
        ({"target": 0, "kind": "no_show"}, "faults[0]"),  # no window
        ({"target": 0, "kind": "no_show", "at_cycle": 1, "at_safe_instr": 0}, "faults[0]"),
        ({"target": 0, "kind": "no_show", "at_safe_instr": 0}, "at_safe_instr"),
        ({"target": 0, "kind": "bit_flip_data", "at_cycle": 1}, "bit"),
        ({"target": 0, "kind": "bit_flip_data", "at_cycle": 1, "bit": 32}, "bit"),
        ({"target": 0, "kind": "no_show", "at_cycle": 1, "bit": 3}, "bit"),
        ({"target": 0, "kind": "start_jitter", "at_cycle": 1}, "delay"),
        ({"target": 0, "kind": "start_jitter", "at_cycle": 1, "delay": 0}, "delay"),
        ({"target": 0, "kind": "no_show", "at_cycle": 1, "delay": 2}, "delay"),
        ({"target": 0, "kind": "divergent_program", "at_cycle": 1}, "program"),
        ({"target": 0, "kind": "stuck_silent", "at_cycle": 1, "program": ["halt"]}, "program"),
        (
            {"target": 0, "kind": "divergent_program", "at_cycle": 1, "program": ["halt"]},
            "program[0]",
        ),
        ({"target": 0, "kind": "bit_flip_data", "at_safe_instr": 5, "bit": 1}, "at_safe_instr"),
        ({"target": 0, "kind": "bit_flip_data", "at_cycle": 1, "bit": 1, "zz": 1}, "zz"),
        ({"target": 0, "kind": "bit_flip_data", "at_cycle": 1, "bit": "x"}, "faults[0].bit"),
        ({"target": 0, "kind": "bit_flip_data", "at_cycle": 1, "bit": True}, "faults[0].bit"),
        ({"target": 0, "kind": "no_show", "at_cycle": "1"}, "faults[0].at_cycle"),
        ({"target": 0, "kind": "no_show", "at_cycle": -1}, "faults[0].at_cycle: must be >= 0"),
        ({"target": 0, "kind": "start_jitter", "at_cycle": 1, "delay": 2.5}, "faults[0].delay"),
        (
            {"target": 0, "kind": "bit_flip_data", "at_safe_instr": 0.5, "bit": 1},
            "faults[0].at_safe_instr",
        ),
        (
            {"target": 0, "kind": "divergent_program", "at_cycle": 1, "program": [5]},
            "faults[0].program[0]",
        ),
    ],
)
def test_fault_validation(fault, fragment):
    with pytest.raises(ValidationError) as exc:
        load_scenario(fault_variant(fault))
    assert fragment in str(exc.value)


def test_valid_fault_catalogue_loads():
    faults = [
        {"target": 0, "kind": "bit_flip_data", "at_safe_instr": 0, "bit": 31},
        {"target": 1, "kind": "bit_flip_address", "at_cycle": 4, "bit": 0},
        {"target": 0, "kind": "stuck_silent", "at_safe_instr": 0},
        {"target": 1, "kind": "no_show", "at_cycle": 0},
        {"target": 0, "kind": "start_jitter", "at_cycle": 2, "delay": 3},
        {
            "target": 1,
            "kind": "divergent_program",
            "at_safe_instr": 0,
            "program": ["write 0x10000 2"],
        },
    ]
    s = load_scenario(variant(faults=faults))
    assert len(s.faults) == 6


# -- round trip and digest ----------------------------------------------------------------------


# sha256 of each bundled scenario's serialized text, as computed with PyYAML's
# pure-Python SafeDumper; the digest must not depend on which dumper is used.
BUNDLED_DIGESTS = {
    "boot_fail.scn": "2f23386b2ca08cdb66187b0c449f863b46c50c6828f40eb8b8331705e3af1c65",
    "detect_divergent.scn": "83ac35bc67b3ff6e9ce363520db2f1e7f1e5ea9802720456ee67afa09fea5a12",
    "exit_timeout.scn": "eb4045cef93b1348464132b359523a653ca06eba91a2a1e9a52b401f61d85f7d",
    "fig5.scn": "e9b9810625f55fbbfba03bfa5cac76d0ed6d0506daf0e8b22a0b5b41316d0ff9",
    "masking_2oo3.scn": "4cd526fb0257360fd8ccf3377d161691a26fb7628393a2459f6f378a48c678c0",
    "random_tiebreak.scn": "994ea787c275f0b6f7f45d5a6e13ee822e24fdd4b1e8eeb01bfbd6836c4c6a5c",
    "rendezvous.scn": "eccc135b15e7bbc197aa74cee2c656e4581115fc8bb2395eb46133c984449742",
    "soak_noise.scn": "6ab42a09b67fca1ebe0e7b6b28b460bfb0776b4a5a62be2754714ecd605ce4a0",
    "timeout.scn": "1926e78bea8a5113f07f6f4bae13202f91441e595d6fea6739493710c78cf1a3",
}


def bundled(name):
    return load_scenario_file(str(SCENARIO_DIR / name))


def sweep_scenarios():
    """Scenarios built in code, covering every fault kind and IRQ latencies."""
    catalog = [spec for _, spec in placement_catalog(0, len(DEFAULT_SAFE_PROGRAM))]
    other = placement_catalog(1, len(DEFAULT_SAFE_PROGRAM))[0][1]
    yield from (build_masking_scenario(4, 3, 2, faults=(spec,)) for spec in catalog)
    yield build_masking_scenario(7, 5, 3, faults=(catalog[2], other))
    yield replace(build_rendezvous_scenario(3, 2, 2, (0, 3, 1)), flags=Flags(random_selection=True))


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_bundled_scenarios_round_trip(name):
    original = bundled(name)
    reloaded = load_scenario(serialize_scenario(original))
    assert scenario_to_dict(reloaded) == scenario_to_dict(original)
    assert scenario_digest(reloaded) == scenario_digest(original)


@pytest.mark.parametrize("generator", [random_scenario, wide_scenario])
def test_generated_scenarios_round_trip(generator):
    for index in range(200):
        original = generator(index)
        reloaded = load_scenario(serialize_scenario(original))
        assert reloaded == original, index
        assert scenario_digest(reloaded) == scenario_digest(original), index


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_bundled_scenario_digest_is_pinned(name):
    assert scenario_digest(bundled(name)) == BUNDLED_DIGESTS[name]


def test_serialization_matches_the_pure_python_dumper():
    scenarios = [bundled(name) for name in sorted(BUNDLED_DIGESTS)] + list(sweep_scenarios())
    assert {f.kind for s in scenarios for f in s.faults} == set(FaultKind)
    for s in scenarios:
        pure = yaml.dump(
            scenario_to_dict(s), Dumper=yaml.SafeDumper, sort_keys=False, default_flow_style=False
        )
        assert serialize_scenario(s) == pure


@pytest.mark.parametrize("name", sorted(BUNDLED_DIGESTS))
def test_loader_matches_the_pure_python_loader(name):
    text = (SCENARIO_DIR / name).read_text(encoding="utf-8")
    assert yaml.load(text, Loader=Loader) == yaml.load(text, Loader=yaml.SafeLoader)


def test_digest_changes_with_content():
    a = load_scenario(MINIMAL)
    b = load_scenario(variant(seed=1))
    assert scenario_digest(a) != scenario_digest(b)


def test_noise_field_round_trips():
    s = load_scenario(variant(noise={"flip_probability": 0.25}))
    assert s.noise_flip_probability == 0.25
    again = load_scenario(serialize_scenario(s))
    assert again.noise_flip_probability == 0.25


def test_fig5_shape():
    s = bundled("fig5.scn")
    assert s.n_blocks == 3
    assert (s.moon.n_required, s.moon.m_agree) == (2, 2)


# -- a scenario is a checked, immutable value ------------------------------------------


def built_and_loaded():
    yield bundled("fig5.scn")
    yield from sweep_scenarios()


@pytest.mark.parametrize("field", [f.name for f in fields(Scenario)])
def test_a_field_of_a_built_or_loaded_scenario_cannot_be_assigned(field):
    for s in built_and_loaded():
        with pytest.raises(FrozenInstanceError):
            setattr(s, field, getattr(s, field))


def test_a_world_runs_the_scenario_it_was_given():
    s = bundled("fig5.scn")
    world = World(s)
    with pytest.raises(FrozenInstanceError):
        s.max_cycles = 2.5
    world.run()
    assert s.max_cycles == 60 and world.cycle <= 60


def test_sequence_fields_are_tuples():
    s = random_scenario(7)  # built from lists
    assert s.irq_latency is not None and s.triggers and s.faults
    for value in (s.programs, *s.programs, s.safe_program, s.triggers, s.faults, s.irq_latency):
        assert type(value) is tuple
    with pytest.raises(TypeError):
        s.programs[0][0] = Halt()
    with pytest.raises(TypeError):
        bundled("fig5.scn").programs[0][0] = Halt()
    divergent = FaultSpec(target=0, kind=FaultKind.DIVERGENT_PROGRAM, at_safe_instr=0, program=[])
    assert build_masking_scenario(3, 3, 2, faults=[divergent]).faults[0].program == ()


def test_an_integer_noise_probability_is_stored_as_a_float():
    s = replace(bundled("fig5.scn"), noise_flip_probability=1)
    assert type(s.noise_flip_probability) is float
    assert scenario_to_dict(s)["noise"] == {"flip_probability": 1.0}


def test_a_scenario_is_validated_once_when_it_is_built(monkeypatch):
    calls = []
    validate = scenario_module.validate_scenario

    def counted(s):
        calls.append(s.name)
        validate(s)

    monkeypatch.setattr(scenario_module, "validate_scenario", counted)
    s = load_scenario((SCENARIO_DIR / "fig5.scn").read_text(encoding="utf-8"))
    assert calls == ["fig5"]
    run(s)
    assert calls == ["fig5"]
    replace(s, seed=2)
    assert calls == ["fig5", "fig5"]
