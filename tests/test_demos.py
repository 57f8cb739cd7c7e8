"""The demos run in-process and exit cleanly on every bundled scenario."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCENARIOS = sorted((ROOT / "src" / "lockstepsim" / "scenarios").glob("*.scn"))


def load_demo(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "demos" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_fault_gallery_runs(capsys):
    assert load_demo("fault_gallery").main() == 0
    assert "masking_2oo3" in capsys.readouterr().out


@pytest.mark.parametrize("path", [None] + SCENARIOS, ids=lambda p: p.stem if p else "default")
def test_walkthrough_runs(path, capsys):
    argv = [] if path is None else [str(path)]
    assert load_demo("walkthrough_session").main(argv) == 0
    assert "final state:" in capsys.readouterr().out


def test_walkthrough_narrates_a_voted_bus_error(tmp_path, capsys):
    scn = tmp_path / "unmapped.scn"
    scn.write_text(
        "name: unmapped-majority\n"
        "seed: 0\n"
        "n_blocks: 2\n"
        "moon: {n_required: 2, m_agree: 2, t_gather: 6, t_exec: 10}\n"
        "programs: [[compute 1, trigger_sp app_triggered, halt], [compute 3, halt]]\n"
        "safe_program: [write 0x10000 7]\n"
        "faults:\n"
        "  - {target: 0, kind: bit_flip_address, at_safe_instr: 0, bit: 31}\n"
        "  - {target: 1, kind: bit_flip_address, at_safe_instr: 0, bit: 31}\n"
    )
    assert load_demo("walkthrough_session").main([str(scn)]) == 0
    out = capsys.readouterr().out
    assert "cannot serve" in out and "availability error: unmapped_address" in out
