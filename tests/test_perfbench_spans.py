"""Every callable the traced benchmark patches must exist in the package.

``perfbench/tracer.py`` wraps each ``(module, qualname)`` of its ``SPANS``
from the outside; a span whose target was renamed or removed breaks the
traced run.  The tracer module is loaded from its file and only read.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import gprime.cli  # noqa: F401  (imports every other module)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_spans():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


def resolves(module_name: str, qualname: str) -> bool:
    """Whether the tracer can patch the span: a function of the module, or a
    method defined on the class itself (the tracer reads the class dict)."""
    home = importlib.import_module(f"gprime.{module_name}")
    if "." in qualname:
        cls_name, attr = qualname.split(".")
        cls = getattr(home, cls_name, None)
        return cls is not None and callable(vars(cls).get(attr))
    return callable(getattr(home, qualname, None))


def test_every_traced_span_resolves():
    spans = traced_spans()
    assert spans
    missing = [f"{m}.{q}" for m, q in spans if not resolves(m, q)]
    assert missing == []
