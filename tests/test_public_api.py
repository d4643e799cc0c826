"""Every name a ``gprime`` module exports resolves, and is exported once.

A deletion that leaves a stale ``__all__`` entry breaks ``from gprime.<module>
import *``; this test names the entry instead.
"""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import gprime

MODULES = [importlib.import_module(f"gprime.{info.name}")
           for info in pkgutil.iter_modules(gprime.__path__)]


def test_every_module_is_covered():
    assert {m.__name__ for m in MODULES} >= {
        "gprime.cli", "gprime.errors", "gprime.fuzz", "gprime.grading", "gprime.groupoid",
        "gprime.instances", "gprime.partial", "gprime.primeness", "gprime.rings"}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_all_entries_resolve_and_appear_once(module):
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
    assert sorted(name for name in set(exported) if exported.count(name) > 1) == []
