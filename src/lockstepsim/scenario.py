"""Scenario files: a human-writable YAML mapping describing one simulated world.

Its keys are the fields of the dataclasses below (``noise_flip_probability``
is written ``noise: {flip_probability: p}``); README's "Scenario files"
section is the reference, and ``tests/test_readme.py`` holds it to them.

Instructions are compact strings: ``compute <n>``, ``read <addr>``,
``write <addr> <word>``, ``trigger_sp <source>``, ``halt``.  Numbers accept
0x-prefixed hex.  Normal programs may touch system RAM only; the safe program
(and divergent fault programs) may read/write lockstep RAM and write the
output device, and may not trigger or halt.
"""

from __future__ import annotations

import hashlib
import re
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, partial
from typing import Dict, List, Optional, Tuple

import yaml

from .block import (
    EXTERNAL_SOURCES,
    Compute,
    Halt,
    Instruction,
    Read,
    TriggerSP,
    TriggerSource,
    Write,
    compute_runs,
)
from .bus import (
    IO_BASE,
    IO_LAST,
    LS_RAM_BASE,
    LS_RAM_LAST,
    SYSTEM_RAM_BASE,
    SYSTEM_RAM_LAST,
    WORD_MASK,
    Region,
    classify_address,
)
from .faults import INSTRUCTION_WINDOW_KINDS, FaultKind, FaultSpec
from .monitor import InvalidConfig, MoonConfig


def make_loader(base: type) -> type:
    """``base`` locating a scalar its constructor cannot build (an integer past
    Python's digit limit, a timestamp with month 13) or a repeated mapping key."""

    class Loader(base):
        def construct_object(self, node, deep=False):
            try:
                return super().construct_object(node, deep)
            except ValueError as exc:
                mark = node.start_mark
                raise yaml.constructor.ConstructorError(None, None, str(exc), mark) from exc

        def construct_mapping(self, node, deep=False):
            # a key merged in by << may be overridden; the mapping's own may not repeat
            own_keys = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            mapping = super().construct_mapping(node, deep)
            seen = set()
            for key_node in own_keys:  # each built, and found hashable, by the base
                key = self.constructed_objects[key_node]
                if key in seen:
                    mark = key_node.start_mark
                    raise ParseError(f"duplicate key: {key!r}", mark.line + 1, mark.column + 1)
                seen.add(key)
            return mapping

    return Loader


# libyaml when PyYAML was built with it; both give the same documents and the
# same dumped bytes, so digests do not depend on which one is present.
Loader = make_loader(getattr(yaml, "CSafeLoader", yaml.SafeLoader))
Dumper = getattr(yaml, "CSafeDumper", yaml.SafeDumper)

# the line breaks YAML counts when it reports an error's line
_YAML_LINE_BREAK = re.compile("\r\n|[\r\n\x85\u2028\u2029]")


class ScenarioError(Exception):
    """Base for everything the CLI maps to exit code 3."""


class ParseError(ScenarioError):
    def __init__(self, message: str, line: int = 1, column: int = 1):
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class ValidationError(ScenarioError):
    def __init__(self, field_path: str, message: str):
        self.field_path = field_path
        self.message = message
        super().__init__(f"{field_path}: {message}")


@dataclass(frozen=True)
class ExternalTrigger:
    cycle: int
    source: TriggerSource


@dataclass(frozen=True)
class Flags:
    random_selection: bool = False


@dataclass(frozen=True)
class Scenario:
    """A checked, immutable world: ``validate_scenario`` runs once per build,
    ``dataclasses.replace`` included, and sequences are stored as tuples.  A
    build that reuses the program tuples of the build before it, as a sweep's
    points do, checks only what is new (see ``_check_program``)."""

    name: str
    seed: int
    n_blocks: int
    moon: MoonConfig
    boot_check: str
    programs: Tuple[Tuple[Instruction, ...], ...]
    safe_program: Tuple[Instruction, ...]
    triggers: Tuple[ExternalTrigger, ...] = ()
    faults: Tuple[FaultSpec, ...] = ()
    max_cycles: int = 1000
    flags: Flags = Flags()
    irq_latency: Optional[Tuple[int, ...]] = None
    # seeded soak mode: per-block per-cycle chance of a random data-bit upset
    noise_flip_probability: float = 0.0

    def __post_init__(self):
        validate_scenario(self)
        store = partial(object.__setattr__, self)
        store("programs", tuple(map(tuple, self.programs)))
        for key in ("safe_program", "triggers"):
            store(key, tuple(getattr(self, key)))
        faults = (f if f.program is None or type(f.program) is tuple
                  else replace(f, program=tuple(f.program)) for f in self.faults)
        store("faults", tuple(faults))
        if self.irq_latency is not None:
            store("irq_latency", tuple(self.irq_latency))
        # within 0..1 now, so an integer too large for a float cannot reach float()
        store("noise_flip_probability", float(self.noise_flip_probability))

    @cached_property
    def digest(self) -> str:
        """See ``scenario_digest``; a scenario never changes, so it is computed on first read."""
        return hashlib.sha256(serialize_scenario(self).encode("utf-8")).hexdigest()


# -- instruction text ----------------------------------------------------------


# each mnemonic's class, whose fields are its operands in order: a ``source``
# is a trigger source's value, an ``address`` is written in hex, and every
# other operand is an integer
MNEMONICS = {"compute": Compute, "read": Read, "write": Write, "trigger_sp": TriggerSP,
             "halt": Halt}
# each class's mnemonic and operand names
_FORMS = {cls: (op, [f.name for f in fields(cls)]) for op, cls in MNEMONICS.items()}


def parse_instruction(text: str, where: str) -> Instruction:
    parts = text.split()
    if not parts:
        raise ValidationError(where, "empty instruction")
    op, *args = parts
    cls = MNEMONICS.get(op)
    if cls is None:
        raise ValidationError(where, f"unknown instruction: {op!r}")
    names = _FORMS[cls][1]
    if len(args) != len(names):
        wanted = f"one {names[0]}" if len(names) == 1 else " and ".join(names) or "no arguments"
        raise ValidationError(where, f"{op} takes {wanted}")
    for i, name in enumerate(names):  # each word becomes its operand's value
        try:
            args[i] = TriggerSource(args[i]) if name == "source" else int(args[i], 0)
        except ValueError:
            what = "unknown trigger source" if name == "source" else f"bad {name}"
            raise ValidationError(where, f"{what}: {args[i]!r}") from None
    return cls(*args)


def format_instruction(instr: Instruction) -> str:
    form = _FORMS.get(type(instr))
    if form is None:
        raise TypeError(f"unknown instruction {instr!r}")
    op, names = form
    words = [op]
    for name in names:
        value = getattr(instr, name)
        words.append(value.value if name == "source" else f"0x{value:X}" if name == "address"
                     else str(value))
    return " ".join(words)


# -- loading -------------------------------------------------------------------

_SCENARIO_KEYS = {f.name for f in fields(Scenario)} - {"noise_flip_probability"} | {"noise"}
_MOON_FIELDS = [f.name for f in fields(MoonConfig)]
_TRIGGER_KEYS = {f.name for f in fields(ExternalTrigger)}
_FLAG_KEYS = {f.name for f in fields(Flags)}
_NOISE_KEYS = {"flip_probability"}
_FAULT_FIELDS = [f.name for f in fields(FaultSpec)]
_FAULT_NUMBERS = ("at_cycle", "at_safe_instr", "bit", "delay")  # optional integers


def _require(mapping: Dict, key: str, path: str):
    if key not in mapping:
        raise ValidationError(f"{path}{key}", "missing")
    return mapping[key]


def check_int(value, where: str, minimum: Optional[int] = None) -> int:
    """``value`` if it is an integer (a bool is not one) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(where, f"expected integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValidationError(where, f"must be >= {minimum}")
    return value


def _int_field(mapping: Dict, key: str, path: str) -> int:
    return check_int(_require(mapping, key, path), f"{path}{key}")


def check_seed(seed, where: str) -> int:
    """``seed`` if an integer in range; ``random.Random`` would seed ``-s`` as ``s``."""
    if not (0 <= check_int(seed, where) < 2**64):
        raise ValidationError(where, "must be in 0..2**64-1")
    return seed


def _mapping(value, where: str, known) -> Dict:
    """``value`` if it is a mapping whose keys are all in ``known``.  ``where``
    is its field path, empty for a whole document."""
    if not isinstance(value, dict):
        raise ValidationError(where, "must be a mapping")
    prefix = f"{where}." if where else ""
    for key in value:
        if key not in known:
            raise ValidationError(f"{prefix}{key}", "unknown field")
    return value


def _optional_field(mapping: Dict, key: str, kind: type):
    """An optional top-level list or dict: missing or null is empty."""
    value = mapping.get(key)
    if value is None:
        return kind()
    if not isinstance(value, kind):
        raise ValidationError(key, "must be a list" if kind is list else "must be a mapping")
    return value


def _program(value, where: str) -> List[Instruction]:
    if not isinstance(value, list):
        raise ValidationError(where, "must be a list of instruction strings")
    instrs = []
    for j, raw in enumerate(value):
        if not isinstance(raw, str):
            raise ValidationError(f"{where}[{j}]", "must be a string")
        instrs.append(parse_instruction(raw, f"{where}[{j}]"))
    return instrs


def read_text(path: str, what: str) -> str:
    """The text of a scenario or sweep-spec file, which must be UTF-8."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ScenarioError(f"cannot read {what} {path}: {exc}") from exc
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lines = _YAML_LINE_BREAK.split(data[: exc.start].decode("utf-8"))
        raise ParseError(
            f"not valid UTF-8: byte 0x{data[exc.start]:02X}", len(lines), len(lines[-1]) + 1
        ) from None


def parse_yaml(text: str, what: str) -> Dict:
    """One YAML document that must be a mapping; ``what`` names it in errors."""
    try:
        doc = yaml.load(text, Loader=Loader)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        message = exc.problem or "malformed YAML"
        if mark is None:
            raise ParseError(message) from exc
        # libyaml does not name the offending character; name it here
        lines = _YAML_LINE_BREAK.split(text)
        if mark.line < len(lines) and mark.column < len(lines[mark.line]):
            message += f": {lines[mark.line][mark.column]!r}"
        raise ParseError(message, mark.line + 1, mark.column + 1) from exc
    except (yaml.reader.ReaderError, UnicodeEncodeError) as exc:
        # PyYAML counts characters, libyaml bytes; both stop at the char's first occurrence
        char = exc.object[exc.start] if isinstance(exc, UnicodeEncodeError) else chr(exc.character)
        lines = _YAML_LINE_BREAK.split(text[: text.index(char)])
        raise ParseError(f"{exc.reason}: {char!r}", len(lines), len(lines[-1]) + 1) from exc
    if doc is None:
        raise ParseError(f"empty {what}")
    if not isinstance(doc, dict):
        raise ParseError(f"{what} must be a mapping")
    return doc


def load_scenario(text: str) -> Scenario:
    """Parse and fully validate scenario text."""
    return scenario_from_dict(parse_yaml(text, "scenario"))


def load_scenario_file(path: str) -> Scenario:
    return load_scenario(read_text(path, "scenario"))


def _enum_or_raw(enum: type, value):
    """The member of ``enum`` named by ``value``, else ``value`` for
    ``validate_scenario`` to reject."""
    try:
        return enum(value)
    except ValueError:
        return value


def scenario_from_dict(doc: Dict) -> Scenario:
    """Build a scenario from a document's shape; the ``Scenario`` it builds
    checks the values the document gave."""
    _mapping(doc, "", _SCENARIO_KEYS)
    for key in ("name", "seed", "n_blocks", "moon", "programs", "safe_program"):
        _require(doc, key, "")

    moon_doc = _mapping(doc["moon"], "moon", _MOON_FIELDS)
    moon = MoonConfig(**{key: _require(moon_doc, key, "moon.") for key in _MOON_FIELDS})

    programs_doc = doc["programs"]
    if not isinstance(programs_doc, list):
        raise ValidationError("programs", "must be a list of programs")
    programs = [_program(prog, f"programs[{i}]") for i, prog in enumerate(programs_doc)]
    safe_program = _program(doc["safe_program"], "safe_program")

    triggers = []
    for i, trig in enumerate(_optional_field(doc, "triggers", list)):
        trig = _mapping(trig, f"triggers[{i}]", _TRIGGER_KEYS)
        cycle = _require(trig, "cycle", f"triggers[{i}].")
        source = _enum_or_raw(TriggerSource, _require(trig, "source", f"triggers[{i}]."))
        triggers.append(ExternalTrigger(cycle=cycle, source=source))

    faults_doc = _optional_field(doc, "faults", list)
    faults = [_fault_from_dict(fdoc, i) for i, fdoc in enumerate(faults_doc)]

    flags_doc = _mapping(_optional_field(doc, "flags", dict), "flags", _FLAG_KEYS)
    noise_doc = _mapping(_optional_field(doc, "noise", dict), "noise", _NOISE_KEYS)
    return Scenario(
        name=doc["name"],
        seed=doc["seed"],
        n_blocks=doc["n_blocks"],
        moon=moon,
        boot_check=doc.get("boot_check", "pass"),
        programs=programs,
        safe_program=safe_program,
        triggers=triggers,
        faults=faults,
        max_cycles=doc.get("max_cycles", 1000),
        flags=Flags(random_selection=flags_doc.get("random_selection", False)),
        irq_latency=doc.get("irq_latency"),
        noise_flip_probability=noise_doc.get("flip_probability", 0.0),
    )


def _fault_from_dict(fdoc, i: int) -> FaultSpec:
    where = f"faults[{i}]"
    _mapping(fdoc, where, _FAULT_FIELDS)
    target = _require(fdoc, "target", where + ".")
    kind = _enum_or_raw(FaultKind, _require(fdoc, "kind", where + "."))
    program = None
    if fdoc.get("program") is not None:
        program = _program(fdoc["program"], f"{where}.program")
    numbers = {key: fdoc[key] for key in _FAULT_NUMBERS if fdoc.get(key) is not None}
    return FaultSpec(target=target, kind=kind, program=program, **numbers)


# -- validation ----------------------------------------------------------------


def _sequence(value, where: str, what: str):
    """``value`` if it is a list or a tuple; ``what`` names its entries."""
    if not isinstance(value, (list, tuple)):
        raise ValidationError(where, f"must be a list of {what}")
    return value


def _instance(value, cls: type, where: str):
    if not isinstance(value, cls):
        raise ValidationError(where, f"expected {cls.__name__}, got {value!r}")
    return value


def _check_instruction(instr):
    """What normal and safe code share: an instruction whose operands are
    integers, a trigger's source a member, and a compute at least 1 long.
    The instruction checks name field paths relative to the instruction."""
    form = _FORMS.get(type(instr))
    if form is None:
        raise ValidationError("", f"expected instruction, got {instr!r}")
    for name in form[1]:
        if name != "source":
            check_int(getattr(instr, name), f".{name}")
        elif not isinstance(instr.source, TriggerSource):
            raise ValidationError("", f"unknown trigger source: {instr.source!r}")
    if isinstance(instr, Compute) and instr.duration < 1:
        raise ValidationError("", "compute duration must be >= 1")


def _check_normal_instruction(instr: Instruction):
    _check_instruction(instr)
    if isinstance(instr, (Read, Write)):
        if classify_address(instr.address) is not Region.SYSTEM_RAM:
            raise ValidationError(
                "",
                f"address 0x{instr.address:X} outside system RAM "
                f"(0x{SYSTEM_RAM_BASE:X}..0x{SYSTEM_RAM_LAST:X}); lockstep regions "
                "are not reachable from normal code",
            )
    if isinstance(instr, Write) and not (0 <= instr.data <= WORD_MASK):
        raise ValidationError("", "data must fit in 32 bits")
    if isinstance(instr, TriggerSP) and instr.source in EXTERNAL_SOURCES:
        raise ValidationError(
            "", f"programs may not cite external trigger source {instr.source.value}"
        )


def _check_safe_instruction(instr: Instruction):
    _check_instruction(instr)
    if isinstance(instr, (TriggerSP, Halt)):
        raise ValidationError("", "safe program may not trigger or halt")
    if isinstance(instr, Read):
        if not (LS_RAM_BASE <= instr.address <= LS_RAM_LAST):
            raise ValidationError("", "safe code reads lockstep RAM only")
    if isinstance(instr, Write):
        region = classify_address(instr.address)
        if region not in (Region.LS_RAM, Region.IO):
            raise ValidationError(
                "",
                f"address 0x{instr.address:X} outside lockstep RAM "
                f"(0x{LS_RAM_BASE:X}..0x{LS_RAM_LAST:X}) and output range "
                f"(0x{IO_BASE:X}..0x{IO_LAST:X})",
            )
        if not (0 <= instr.data <= WORD_MASK):
            raise ValidationError("", "data must fit in 32 bits")


# (id, role) -> (program, run table or None) of the last build's tuples; True is safe code
_passed: Dict[Tuple[int, bool], tuple] = {}


def _check_program(program, where: str, safe: bool, kept: Dict) -> None:
    """Check each instruction of ``program`` as safe or as normal code, and table
    a normal program's runs (``block.compute_runs``).  A tuple that passed in a
    role is trusted in it while the last scenario built holds its entry, which
    keeps it alive; ``kept`` collects this build's.  Never trusted: a list, which
    can change, or an equal value (``Compute(True) == Compute(1)``)."""
    key = (id(program), safe)
    entry = kept.get(key) or _passed.get(key)
    if entry is None or entry[0] is not program:
        for j, instr in enumerate(_sequence(program, where, "instructions")):
            try:
                (_check_safe_instruction if safe else _check_normal_instruction)(instr)
            except ValidationError as exc:
                raise ValidationError(f"{where}[{j}]{exc.field_path}", exc.message) from None
        if type(program) is not tuple:
            return
        entry = (program, None if safe else compute_runs(program))
    kept[key] = entry


def program_runs(program) -> Tuple[List[int], List[int]]:
    """``program``'s run table: its check's, while the last scenario built holds it."""
    entry = _passed.get((id(program), False))
    return entry[1] if entry is not None and entry[0] is program else compute_runs(program)


def validate_scenario(s: Scenario) -> None:
    """Every check of a scenario's values, whether loaded or built in code."""
    if not isinstance(s.name, str) or not s.name:
        raise ValidationError("name", "must be a non-empty string")
    check_seed(s.seed, "seed")
    check_int(s.n_blocks, "n_blocks", minimum=1)
    check_int(s.max_cycles, "max_cycles", minimum=1)
    if s.boot_check not in ("pass", "fail"):
        raise ValidationError("boot_check", "must be 'pass' or 'fail'")
    for key in _MOON_FIELDS:
        check_int(getattr(_instance(s.moon, MoonConfig, "moon"), key), f"moon.{key}")
    try:
        s.moon.validate()
    except InvalidConfig as exc:
        raise ValidationError("moon", str(exc)) from None
    if s.n_blocks < s.moon.n_required:
        raise ValidationError(
            "n_blocks", f"must be >= moon.n_required ({s.moon.n_required})"
        )
    if len(_sequence(s.programs, "programs", "programs")) != s.n_blocks:
        raise ValidationError(
            "programs", f"expected {s.n_blocks} programs, got {len(s.programs)}"
        )
    kept: Dict = {}
    for i, prog in enumerate(s.programs):
        _check_program(prog, f"programs[{i}]", False, kept)
    _check_program(s.safe_program, "safe_program", True, kept)
    for i, trig in enumerate(_sequence(s.triggers, "triggers", "triggers")):
        where = f"triggers[{i}]"
        check_int(_instance(trig, ExternalTrigger, where).cycle, f"{where}.cycle", minimum=1)
        if not isinstance(trig.source, TriggerSource):
            raise ValidationError(f"{where}.source", f"unknown source {trig.source!r}")
        if trig.source not in EXTERNAL_SOURCES:
            raise ValidationError(
                f"{where}.source", "scheduled triggers must use an external source"
            )
    if not isinstance(_instance(s.flags, Flags, "flags").random_selection, bool):
        raise ValidationError("flags.random_selection", "must be true or false")
    if s.irq_latency is not None:
        latencies = _sequence(s.irq_latency, "irq_latency", "integers")
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in latencies):
            raise ValidationError("irq_latency", "must be a list of integers")
        if len(s.irq_latency) != s.n_blocks:
            raise ValidationError("irq_latency", f"expected {s.n_blocks} entries")
        if any(x < 0 for x in s.irq_latency):
            raise ValidationError("irq_latency", "latencies must be >= 0")
    noise = s.noise_flip_probability
    if isinstance(noise, bool) or not isinstance(noise, (int, float)):
        raise ValidationError("noise.flip_probability", "must be a number")
    if not (0.0 <= noise <= 1.0):
        raise ValidationError("noise.flip_probability", "must be within 0..1")
    for i, f in enumerate(_sequence(s.faults, "faults", "faults")):
        _validate_fault(_instance(f, FaultSpec, f"faults[{i}]"), i, s, kept)
    global _passed
    _passed = kept


def _validate_fault(f: FaultSpec, i: int, s: Scenario, kept: Dict) -> None:
    where = f"faults[{i}]"
    if not isinstance(f.kind, FaultKind):
        raise ValidationError(f"{where}.kind", f"unknown fault kind {f.kind!r}")
    for key in _FAULT_NUMBERS:
        if getattr(f, key) is not None:
            check_int(getattr(f, key), f"{where}.{key}")
    if not (0 <= check_int(f.target, f"{where}.target") < s.n_blocks):
        raise ValidationError(f"{where}.target", f"no such block {f.target}")
    windows = [w for w in (f.at_cycle, f.at_safe_instr) if w is not None]
    if len(windows) != 1:
        raise ValidationError(where, "exactly one of at_cycle / at_safe_instr required")
    if f.at_cycle is not None and f.at_cycle < 0:
        raise ValidationError(f"{where}.at_cycle", "must be >= 0")
    if f.at_safe_instr is not None:
        if f.kind not in INSTRUCTION_WINDOW_KINDS:
            raise ValidationError(
                f"{where}.at_safe_instr",
                f"{f.kind.value} activates before lockstep; give at_cycle",
            )
        if not (0 <= f.at_safe_instr < max(len(s.safe_program), 1)):
            raise ValidationError(
                f"{where}.at_safe_instr",
                f"safe program has {len(s.safe_program)} instructions",
            )
    if f.kind in (FaultKind.BIT_FLIP_DATA, FaultKind.BIT_FLIP_ADDRESS):
        if f.bit is None or not (0 <= f.bit < 32):
            raise ValidationError(f"{where}.bit", "bit index 0..31 required")
    elif f.bit is not None:
        raise ValidationError(f"{where}.bit", f"not a {f.kind.value} parameter")
    if f.kind is FaultKind.START_JITTER:
        if f.delay is None or f.delay < 1:
            raise ValidationError(f"{where}.delay", "delay >= 1 required")
    elif f.delay is not None:
        raise ValidationError(f"{where}.delay", f"not a {f.kind.value} parameter")
    if f.kind is FaultKind.DIVERGENT_PROGRAM:
        if f.program is None:
            raise ValidationError(f"{where}.program", "alternate program required")
        _check_program(f.program, f"{where}.program", True, kept)
    elif f.program is not None:
        raise ValidationError(f"{where}.program", f"not a {f.kind.value} parameter")


# -- serialization --------------------------------------------------------------


def scenario_to_dict(s: Scenario) -> Dict:
    doc: Dict = {
        "name": s.name,
        "seed": s.seed,
        "n_blocks": s.n_blocks,
        "moon": asdict(s.moon),
        "boot_check": s.boot_check,
        "max_cycles": s.max_cycles,
        "flags": asdict(s.flags),
        "programs": [[format_instruction(x) for x in prog] for prog in s.programs],
        "safe_program": [format_instruction(x) for x in s.safe_program],
    }
    if s.irq_latency is not None:
        doc["irq_latency"] = list(s.irq_latency)
    if s.noise_flip_probability > 0.0:
        doc["noise"] = {"flip_probability": s.noise_flip_probability}
    if s.triggers:
        doc["triggers"] = [
            {"cycle": t.cycle, "source": t.source.value} for t in s.triggers
        ]
    if s.faults:
        doc["faults"] = [_fault_to_dict(f) for f in s.faults]
    return doc


def _fault_to_dict(f: FaultSpec) -> Dict:
    """Set fields only, in field order."""
    fd: Dict = {}
    for key in _FAULT_FIELDS:
        value = getattr(f, key)
        if value is not None:
            fd[key] = value
    fd["kind"] = f.kind.value
    if f.program is not None:
        fd["program"] = [format_instruction(x) for x in f.program]
    return fd


def serialize_scenario(s: Scenario) -> str:
    return yaml.dump(scenario_to_dict(s), Dumper=Dumper, sort_keys=False, default_flow_style=False)


def scenario_digest(s: Scenario) -> str:
    """sha256 of ``serialize_scenario(s)``, the canonical text: equal scenarios
    have equal digests, whatever the comments, layout or key order of the
    files they came from.  It is computed once per ``Scenario`` value and kept
    on it as ``Scenario.digest``; an equal value built anew computes it again."""
    return s.digest
