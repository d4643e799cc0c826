"""Every name a ``gprime`` module exports resolves, and is exported once.

A deletion that leaves a stale ``__all__`` entry breaks ``from gprime.<module>
import *``; this test names the entry instead.  Only the functions that make
an object keeping a carrier bound take one.  Every public module-level
function and class has a reader in the package besides its own definition
and its ``__all__`` entry.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

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


#: public names that need no reader in the package: the console script
#: ``gprime`` of pyproject.toml
ENTRY_POINTS = {"gprime.cli.main"}


def test_every_public_definition_has_a_reader():
    """A name counts as read where some other top-level statement of the
    package loads it, by name or as an attribute; imports, ``__all__``
    strings and a definition's own body do not count."""
    statements = [(f"gprime.{path.stem}", node)
                  for path in sorted(Path(gprime.__file__).parent.glob("*.py"))
                  for node in ast.parse(path.read_text()).body]
    unread = []
    for module, definition in statements:
        if not isinstance(definition, (ast.FunctionDef, ast.ClassDef)) \
                or definition.name.startswith("_"):
            continue
        readers = (node for _, stmt in statements if stmt is not definition
                   for node in ast.walk(stmt))
        if not any(isinstance(node, ast.Name) and node.id == definition.name
                   or isinstance(node, ast.Attribute) and node.attr == definition.name
                   for node in readers):
            unread.append(f"{module}.{definition.name}")
    assert sorted(set(unread) - ENTRY_POINTS) == []
