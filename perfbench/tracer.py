"""Outside-in tracing of gprime's public functions.

The program carries no tracer of its own, so this module patches it from the
outside: every function in ``SPANS`` is wrapped in its defining module and in
every ``gprime`` module that imported it by name, and each call becomes a span
(name, start, end, parent span, request id).  Spans stay in memory, in flat
arrays, until the run ends.  A span's self time is its duration minus the
durations of its direct child spans.

Some spans also feed counters, read from the call's arguments or result
(``COUNTERS``).  Ring products are counted, not spanned: every concrete ring
class gets a counting ``mul``, since products run in the tens of millions.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Tuple

# (module, qualified name) of every traced callable; a dotted name is a method.
SPANS: Tuple[Tuple[str, str], ...] = (
    ("cli", "main"),
    ("instances", "parse"),
    ("instances", "build_instance"),
    ("instances", "validation_document"),
    ("instances", "analysis_document"),
    ("instances", "primeness_document"),
    ("instances", "equivalence_document"),
    ("instances", "verify_witnesses"),
    ("instances", "render_report"),
    ("fuzz", "generate_instance"),
    ("fuzz", "check_instance"),
    ("primeness", "equivalence_report"),
    ("primeness", "evaluate_condition"),
    ("primeness", "torsion_free_shortcut"),
    ("partial", "validate_partial_action"),
    ("partial", "build_skew_ring"),
    ("partial", "restrict_to_isotropy"),
    ("partial", "skew_prime_verdict"),
    ("partial", "is_A_G_prime"),
    ("partial", "sufficient_conditions_report"),
    ("partial", "psi_check"),
    ("partial", "connell_check"),
    ("grading", "validate_grading"),
    ("grading", "is_nearly_epsilon_strong"),
    ("grading", "is_graded_prime"),
    ("grading", "is_G_prime_principal"),
    ("grading", "is_support_hub"),
    ("grading", "isotropy_component"),
    ("grading", "invariant_closure"),
    ("grading", "psi"),
    ("rings", "validate_ring"),
    ("rings", "is_prime_bruteforce"),
    ("rings", "enumerate_ideals"),
    ("rings", "principal_ideal"),
    ("rings", "ideal_generated"),
    ("rings", "is_zero_product"),
    ("rings", "is_s_unital"),
    ("rings", "SubRing.__init__"),
    ("groupoid", "validate_groupoid"),
    ("groupoid", "subgroups"),
)


# Counters that may stay at zero on a workload; listed so they are reported.
COUNTER_NAMES = (
    "rings.validate_ring.elements", "rings.principal_ideal.distinct",
    "rings.principal_ideal.span_elements", "rings.mul.calls",
    "partial.build_skew_ring.elements", "partial.build_skew_ring.refused",
    "instances.witnesses_replayed", "instances.report_bytes",
    "fuzz.instances", "fuzz.checks", "fuzz.carrier_elements",
    "cli.exit.0", "cli.exit.1", "cli.exit.2", "cli.exit.3",
)


class Tracer:
    """Span recorder and counters for one process."""

    def __init__(self):
        self.names: List[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name_id = array("l")
        self.parent = array("l")
        self.request_id = array("l")
        self.stack: List[int] = []
        self.request = 0
        self.counts: Dict[str, int] = dict.fromkeys(COUNTER_NAMES, 0)
        self.distinct_ideals: set = set()

    def new_request(self, request: int) -> None:
        """Later spans belong to ``request``; per-request dedup starts over."""
        self.request = request
        self.distinct_ideals = set()

    def add(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name: str, fn: Callable, observe=None) -> Callable:
        nid = len(self.names)
        self.names.append(name)
        clock = time.perf_counter
        start, end, name_id = self.start, self.end, self.name_id
        parent, request_id, stack = self.parent, self.request_id, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            start.append(clock())
            end.append(0.0)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            request_id.append(self.request)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if observe is not None:
                    observe(self, args, None, exc)
                raise
            finally:
                stack.pop()
                end[idx] = clock()
            if observe is not None:
                observe(self, args, result, None)
            return result

        return traced

    def layers(self) -> Dict[str, float]:
        """Every per-layer metric: the counters, and per span name its calls
        and self time (``init_s`` for a constructor, ``self_s`` otherwise)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        for i in range(n):
            if self.parent[i] >= 0:
                child[self.parent[i]] += self.end[i] - self.start[i]
        self_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            self_s[self.name_id[i]] += self.end[i] - self.start[i] - child[i]
            calls[self.name_id[i]] += 1
        out: Dict[str, float] = dict(self.counts)
        for nid, name in enumerate(self.names):
            base, _, method = name.rpartition(".")
            if method == "__init__":
                out[f"{base}.init_s"] = self_s[nid]
                out[f"{base}.calls"] = calls[nid]
            else:
                out[f"{name}.self_s"] = self_s[nid]
                out[f"{name}.calls"] = calls[nid]
        out["trace.spans"] = n
        return out

    def write(self, path) -> None:
        """All spans as tab-separated lines: name, start, end, parent, request."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\trequest\n")
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.names[self.name_id[i]]}\t{self.start[i]:.9f}"
                         f"\t{self.end[i]:.9f}\t{self.parent[i]}\t{self.request_id[i]}\n")


# -- counters fed by spans ---------------------------------------------------

def _validate_ring(t, args, result, exc):
    if exc is None:
        t.add("rings.validate_ring.elements", args[0].size)


def _principal_ideal(t, args, result, exc):
    if exc is None:
        t.add("rings.principal_ideal.span_elements", len(result.elements))
        key = (args[0], result.elements)
        if key not in t.distinct_ideals:
            t.distinct_ideals.add(key)
            t.add("rings.principal_ideal.distinct")


def _build_skew_ring(t, args, result, exc):
    from gprime.errors import BoundExceeded
    if exc is None:
        t.add("partial.build_skew_ring.elements", result.ring.size)
    elif isinstance(exc, BoundExceeded):
        t.add("partial.build_skew_ring.refused")


def _verify_witnesses(t, args, result, exc):
    if exc is None:
        t.add("instances.witnesses_replayed", result)


def _render_report(t, args, result, exc):
    if exc is None:
        t.add("instances.report_bytes", len(result.encode()))


def _check_instance(t, args, result, exc):
    if exc is None:
        t.add("fuzz.instances")
        t.add("fuzz.checks", result[1])
        t.add("fuzz.carrier_elements", args[1].size)


def _cli_main(t, args, result, exc):
    if exc is None:
        t.add(f"cli.exit.{result}")


COUNTERS = {
    "rings.validate_ring": _validate_ring,
    "rings.principal_ideal": _principal_ideal,
    "partial.build_skew_ring": _build_skew_ring,
    "instances.verify_witnesses": _verify_witnesses,
    "instances.render_report": _render_report,
    "fuzz.check_instance": _check_instance,
    "cli.main": _cli_main,
}


def _count_mul(tracer: Tracer, fn: Callable) -> Callable:
    counts = tracer.counts

    @functools.wraps(fn)
    def mul(self, a, b):
        counts["rings.mul.calls"] += 1
        return fn(self, a, b)

    return mul


def install(tracer: Tracer) -> None:
    """Patch every traced callable of the imported ``gprime`` package."""
    import gprime.cli  # noqa: F401  (imports every other module)
    from gprime.rings import FiniteRing

    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("gprime.") and m is not None]
    for module_name, qualname in SPANS:
        home = sys.modules[f"gprime.{module_name}"]
        name = f"{module_name}.{qualname}"
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            cls = getattr(home, cls_name)
            setattr(cls, attr, tracer.wrap(name, cls.__dict__[attr],
                                           COUNTERS.get(name)))
            continue
        original = getattr(home, qualname)
        traced = tracer.wrap(name, original, COUNTERS.get(name))
        for module in modules:
            if getattr(module, qualname, None) is original:
                setattr(module, qualname, traced)

    pending = list(FiniteRing.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "mul" in cls.__dict__:
            cls.mul = _count_mul(tracer, cls.__dict__["mul"])
