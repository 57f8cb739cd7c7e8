"""The package's public names: every export resolves and is listed once, and
the ``sweep`` module is imported on first use."""

from __future__ import annotations

import collections
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lockstepsim


def test_every_exported_name_resolves():
    missing = [name for name in lockstepsim.__all__ if not hasattr(lockstepsim, name)]
    assert missing == []


def test_every_exported_name_is_listed_once():
    counts = collections.Counter(lockstepsim.__all__)
    assert [name for name, n in counts.items() if n > 1] == []


def test_sweep_is_imported_on_first_use():
    """``lockstepsim.cli`` leaves the sweep module out until something reads
    ``lockstepsim.sweep``; a fresh interpreter shows what an import loads."""
    code = (
        "import sys, lockstepsim.cli\n"
        "assert 'lockstepsim.sweep' not in sys.modules\n"
        "import lockstepsim\n"
        "assert callable(lockstepsim.sweep.fault_sweep)\n"
        "assert lockstepsim.sweep is sys.modules['lockstepsim.sweep']\n"
    )
    src = str(Path(lockstepsim.__file__).parents[1])
    subprocess.run([sys.executable, "-c", code], check=True, env={**os.environ, "PYTHONPATH": src})


def test_an_unknown_attribute_still_raises():
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        lockstepsim.nope
