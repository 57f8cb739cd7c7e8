"""README's reference sections checked against the code they describe: the
scenario example and the fault table against the loader's dataclasses, the
sweep-spec examples against the sweep loader's keys, and the exit-code table
against ``cli``."""

from __future__ import annotations

import re
from dataclasses import fields
from pathlib import Path

import yaml

from lockstepsim import FaultKind, FaultSpec, MoonConfig, cli
from lockstepsim.scenario import _SCENARIO_KEYS
from lockstepsim.sweep import _ARRIVAL_KEYS, _FAULT_KEYS

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def section(title: str) -> str:
    """The text under a ``## title`` heading, up to the next one."""
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end if end != -1 else None]


def yaml_blocks(text: str) -> list:
    return [yaml.safe_load(block) for block in re.findall(r"```yaml\n(.*?)```", text, re.S)]


def table_rows(text: str, header: str) -> list:
    """Cells of each body row of the markdown table whose header starts with ``header``."""
    lines = text[text.index(header):].splitlines()[2:]
    rows = []
    for line in lines:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def exit_codes() -> set:
    return {value for name, value in vars(cli).items() if name.startswith("EXIT_")}


def test_scenario_example_uses_every_loader_field():
    (example,) = yaml_blocks(section("Scenario files"))
    assert set(example) == _SCENARIO_KEYS
    assert list(example["moon"]) == [f.name for f in fields(MoonConfig)]


def test_fault_table_matches_the_fault_kinds_and_fields():
    rows = table_rows(section("Scenario files"), "| kind ")
    assert {kind.strip("`") for kind, _, _ in rows} == {k.value for k in FaultKind}
    extra = {cell.strip("`") for _, cell, _ in rows} - {"—"}
    assert extra and extra <= {f.name for f in fields(FaultSpec)}


def test_sweep_spec_examples_use_the_loader_keys():
    arrivals, faults = yaml_blocks(section("Sweep specifications"))
    assert (arrivals["mode"], set(arrivals)) == ("arrivals", _ARRIVAL_KEYS)
    assert (faults["mode"], set(faults)) == ("faults", _FAULT_KEYS)


def test_exit_code_table_is_the_cli_table():
    rows = table_rows(section("Command line"), "| exit code ")
    assert {int(code) for code, _ in rows} == exit_codes()


def test_cli_docstring_names_every_exit_code():
    listed = cli.__doc__.split("Exit codes:", 1)[1]
    assert {int(part.split()[0]) for part in listed.split(";")} == exit_codes()
