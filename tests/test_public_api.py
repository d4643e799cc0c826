"""Every name a ``gprime`` module exports resolves, and is exported once.

A deletion that leaves a stale ``__all__`` entry breaks ``from gprime.<module>
import *``; this test names the entry instead.  Only the functions that make
an object keeping a carrier bound take one.  Every public module-level
function and class has a reader in the package besides its own definition
and its ``__all__`` entry, and every defaulted parameter of a public
function or method is passed by some call in the package.
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


#: defaulted parameters that need no caller in the package: the console
#: script's ``argv``
UNPASSED_DEFAULTS = {"gprime.cli.main(argv)"}


def test_every_defaulted_parameter_is_passed_by_the_package():
    """A parameter whose default every call in the package takes is a knob
    only tests turn.  A call passes a parameter by keyword, by position
    (``self`` not counted), or through ``*args`` or ``**kwargs``; a
    constructor's calls are the calls of its class."""
    trees = {f"gprime.{path.stem}": ast.parse(path.read_text())
             for path in sorted(Path(gprime.__file__).parent.glob("*.py"))}
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)]
    defined = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defined.append((f"{module}.{node.name}", node.name, node, False))
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and (
                            item.name == "__init__" or not item.name.startswith("_")):
                        static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                     for d in item.decorator_list)
                        called = node.name if item.name == "__init__" else item.name
                        defined.append((f"{module}.{node.name}.{item.name}", called, item,
                                        not static))
    unpassed = []
    for qualname, called, fn, bound in defined:
        mine = [c for c in calls if getattr(c.func, "id", getattr(c.func, "attr", None)) == called]
        positional = (fn.args.posonlyargs + fn.args.args)[1 if bound else 0:]
        defaulted = [(p.arg, positional.index(p))
                     for p in positional[len(positional) - len(fn.args.defaults):]]
        defaulted += [(p.arg, None) for p, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                      if d is not None]
        for name, place in defaulted:
            if not any(any(k.arg in (name, None) for k in c.keywords)
                       or place is not None and (len(c.args) > place or any(
                           isinstance(a, ast.Starred) for a in c.args))
                       for c in mine):
                unpassed.append(f"{qualname}({name})")
    assert sorted(set(unpassed) - UNPASSED_DEFAULTS) == []
