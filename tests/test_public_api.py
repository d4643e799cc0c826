"""Every name a ``gprime`` module exports resolves, and is exported once.

A deletion that leaves a stale ``__all__`` entry breaks ``from gprime.<module>
import *``; this test names the entry instead.  Only the functions that make
an object keeping a carrier bound take one.
"""

from __future__ import annotations

import importlib
import inspect
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


#: the functions that make an object keeping a carrier bound: the instance,
#: a partial action, or the groupoid ring's action; and fuzz's entry points
TAKE_A_BOUND = {
    "gprime.instances": {"build_instance"},
    "gprime.partial": {"validate_partial_action", "groupoid_ring_action",
                       "build_groupoid_ring"},
    "gprime.grading": set(),
    "gprime.primeness": set(),
    "gprime.fuzz": {"generate_instance", "run_fuzz"},
}


@pytest.mark.parametrize("name", sorted(TAKE_A_BOUND))
def test_only_object_makers_take_a_bound(name):
    """The bound is kept on the object it bounds, so every other public
    function reads it from there and takes neither ``bound`` nor
    ``max_ring``."""
    public = [fn for attr, fn in vars(importlib.import_module(name)).items()
              if inspect.isfunction(fn) and fn.__module__ == name
              and not attr.startswith("_")]
    takers = {fn.__name__ for fn in public
              if {"bound", "max_ring"} & set(inspect.signature(fn).parameters)}
    assert takers == TAKE_A_BOUND[name]
