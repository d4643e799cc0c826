"""Command-line front end: batch checks on instance files plus the fuzzer.

    gprime validate FILE             every axiom and schema check
    gprime analyze FILE              structure facts: support, hubs, isotropy
    gprime prime FILE                primeness verdict and witnesses
    gprime equivalence FILE          the seven-way harness on the product ring
    gprime fuzz --seed N --count K   random instances, every cross-check

All commands print one report document to stdout and accept ``--output
json|text`` (text is the default).  Reports are byte-identical across runs
on the same input, which is why wall-clock timings only appear when asked
for with ``--timings``.  Witnesses inside prime and equivalence reports are
replayed against the instance before the report is printed, and the count
of replayed witnesses is part of the report.

The product-ring carrier bound resolves in order: ``--max-ring`` flag, the
``GPRIME_MAX_RING`` environment variable, the instance file's ``bounds``
section, then the built-in default of 4096.  The flag and the variable take
positive integers, as ``bounds.max_ring`` does; ``fuzz --count`` takes a
non-negative one.

Exit codes: 0 success, 1 invalid input (bad file, bad schema, bad flags),
2 a carrier bound was exceeded, 3 internal disagreement, 4 resources
exhausted (MemoryError or RecursionError).  Exit 3 means two routes that
must agree returned different answers or a reported witness failed to
replay; it signals a bug in the tool, never a property of the instance,
and a green build must never produce it.  Exit 4 says nothing about the
input's validity: the run needed more memory or stack than it had.

On exits 1 to 4 stdout stays empty.  In text mode stderr carries a
``gprime: error:`` line, and a ``gprime: details:`` line when the error has
details; with ``--output json`` it carries one JSON document instead, with
``exit_code``, ``error`` (the exception's class name), ``message`` and
``details`` (a JSON value, or null).  Usage errors are found by argparse
before ``--output`` is read and stay plain text.

The argument parser is built on the first ``main`` call and reused by every
later call in the same process; nothing in it varies between calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from contextlib import suppress

from . import __version__
from .errors import (BoundExceeded, GprimeError, InternalDisagreement,
                     MalformedInput, Record)
from .fuzz import run_fuzz
from .instances import (_tool_section, _append_timings, analysis_document,
                        build_instance, carrier_grading, equivalence_document,
                        parse, primeness_document, render_report,
                        validation_document, verify_witnesses)
from .partial import SKEW_RING_BOUND
from .primeness import StageClock
from .rings import AdditiveSubgroup

TYPE_CHECKING = False
if TYPE_CHECKING:
    from typing import Any, Dict, Optional, Sequence

__all__ = ["main"]


class _ArgumentParser(argparse.ArgumentParser):
    """argparse reserves exit status 2 for usage errors, but here 2 means a
    carrier bound was exceeded; usage errors exit 1 like other bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _int_at_least(least: int, what: str):
    """An argparse ``type=`` reading an integer no smaller than ``least``."""
    def convert(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return convert


_positive_int = _int_at_least(1, "a positive integer")


@functools.cache
def _build_parser() -> _ArgumentParser:
    parser = _ArgumentParser(
        prog="gprime",
        description="Primeness checks for groupoid-graded rings, partial "
                    "actions and groupoid rings.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")

    common = _ArgumentParser(add_help=False)
    common.add_argument("--output", choices=("json", "text"), default="text",
                        help="report format (default: text)")
    common.add_argument("--max-ring", type=_positive_int, default=None,
                        metavar="N",
                        help="largest product-ring carrier to build "
                             "(default: 4096, or GPRIME_MAX_RING)")

    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    instance_commands = {
        "validate": "build the instance and re-run every axiom check",
        "analyze": "emit structure facts without a verdict",
        "prime": "decide primeness and emit replayable witnesses",
        "equivalence": "evaluate all seven conditions on the product ring "
                       "and check they agree"}
    on_file = {}
    for name, text in instance_commands.items():
        on_file[name] = sub.add_parser(name, parents=[common], help=text)
        on_file[name].add_argument("file", help="instance JSON file")
    on_file["prime"].add_argument(
        "--method", choices=("oracle", "theorem", "all"), default="all",
        help="decision route; 'all' cross-checks both (default: all)")
    for name in on_file:
        on_file[name].add_argument(
            "--timings", action="store_true",
            help="include wall-clock timings (breaks byte-identical output)")

    p = sub.add_parser("fuzz", parents=[common],
                       help="generate random instances and assert every "
                            "library invariant on them")
    p.add_argument("--seed", type=int, required=True,
                   help="generator seed; the whole run is reproducible")
    p.add_argument("--count", type=_int_at_least(0, "a non-negative integer"),
                   required=True,
                   help="number of instances to generate")

    return parser


def _carrier_bound(args) -> Optional[int]:
    """The flag's bound, else the environment's; None leaves it to the file."""
    if args.max_ring is not None:
        return args.max_ring
    env = os.environ.get("GPRIME_MAX_RING")
    if env is not None:
        try:
            return _positive_int(env)
        except argparse.ArgumentTypeError as exc:
            raise MalformedInput(f"GPRIME_MAX_RING {exc}") from None
    return None


def _cmd_instance(args) -> Dict:
    """validate, analyze, prime and equivalence: parse the file, build the
    instance under its bound, then emit the command's document; prime and
    equivalence reports are replayed before they are returned.  One clock
    times parse and validate on every command, then each command's own
    stages: carrier and analysis for analyze, the decision stages and the
    witness replay for prime and equivalence."""
    clock = StageClock(args.timings)
    instance = clock("parse", lambda: parse(args.file))
    bound = _carrier_bound(args)
    built = clock("validate", lambda: build_instance(instance, bound))
    if args.command == "validate":
        doc = validation_document(built)
    elif args.command == "analyze":
        if clock.timings is not None:
            with suppress(BoundExceeded):
                clock("carrier", lambda: carrier_grading(built))
        doc = clock("analysis", lambda: analysis_document(built))
    else:
        if args.command == "prime":
            doc = primeness_document(built, args.method, clock)
        else:
            doc = equivalence_document(built, clock)
        replayed = clock("replay", lambda: verify_witnesses(built, doc))
        doc["witness_verification"] = {"replayed": replayed, "ok": True}
    return _append_timings(doc, clock)


def _cmd_fuzz(args) -> Dict:
    progress = None
    if sys.stderr.isatty():
        def progress(record):
            print(f"[{record.index + 1}/{args.count}] {record.kind} "
                  f"carrier={record.carrier} size={record.size} "
                  f"checks={record.checks}", file=sys.stderr)
    report = run_fuzz(args.seed, args.count, _carrier_bound(args) or SKEW_RING_BOUND,
                      progress=progress)
    doc = {"tool": _tool_section()}
    doc.update(report.summary())
    doc["disagreements"] = 0  # run_fuzz raises on the first one
    return doc


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        doc = _cmd_fuzz(args) if args.command == "fuzz" else _cmd_instance(args)
    except InternalDisagreement as exc:
        return _report_error(args, exc, 3)
    except BoundExceeded as exc:
        return _report_error(args, exc, 2)
    except (GprimeError, OSError) as exc:
        return _report_error(args, exc, 1)
    except (MemoryError, RecursionError) as exc:
        return _report_error(args, exc, 4,
                             f"resources exhausted ({type(exc).__name__})")
    sys.stdout.write(render_report(doc, args.output))
    return 0


def _report_error(args, exc: BaseException, code: int,
                  message: Optional[str] = None) -> int:
    """Print ``exc`` on stderr, as text lines or as one JSON document, and
    return the exit code."""
    message = str(exc) if message is None else message
    details = getattr(exc, "details", None)
    if args.output == "json":
        print(json.dumps({"exit_code": code, "error": type(exc).__name__,
                          "message": message, "details": _json_value(details)},
                         sort_keys=True), file=sys.stderr)
        return code
    print(f"gprime: error: {message}", file=sys.stderr)
    if details is not None:
        print(f"gprime: details: {details}", file=sys.stderr)
    return code


def _json_value(value: Any) -> Any:
    """``value`` as plain JSON data: records and dicts become objects
    with string keys, lists and tuples become arrays, an additive subgroup
    becomes its generators and size, and anything else that JSON has no
    type for becomes its ``str``."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, AdditiveSubgroup):
        return {"generators": list(value.gens), "size": len(value)}
    if isinstance(value, Record):
        return {name: _json_value(getattr(value, name)) for name in value._fields}
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    return str(value)


if __name__ == "__main__":
    raise SystemExit(main())
