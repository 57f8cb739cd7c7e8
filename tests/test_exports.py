"""The package's public names: every export resolves and is listed once."""

from __future__ import annotations

import collections

import lockstepsim


def test_every_exported_name_resolves():
    missing = [name for name in lockstepsim.__all__ if not hasattr(lockstepsim, name)]
    assert missing == []


def test_every_exported_name_is_listed_once():
    counts = collections.Counter(lockstepsim.__all__)
    assert [name for name, n in counts.items() if n > 1] == []
