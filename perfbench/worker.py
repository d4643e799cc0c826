"""One workload, run in a process of its own; ``run.py`` starts it.

    python3 perfbench/worker.py WORKLOAD --seed N --out FILE
        [--seconds S | --passes K] [--trace] [--setup-only]

The process prepares the workload's inputs, then runs passes over the
workload's fixed list of requests, one client in a closed loop: a request
starts when the previous one returns.  Every request is checked against the
golden record.  ``--seconds`` runs as many whole passes as fit in S seconds
(at least two); ``--passes`` runs exactly K.  ``--setup-only`` stops where
the first request would start.  ``--trace`` patches gprime with the span
recorder of ``tracer.py`` first.  The result goes to FILE as JSON.

A request is one ``gprime.cli.main([...])`` call, or one instance of
``run_fuzz``, timed through its public ``progress`` callback.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import random
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
GOLDEN = HERE / "golden.json"

WORKLOADS = ("cli-fixtures", "fuzz", "ladder")

# The fixtures bundled when the benchmark was defined, each run under every
# command below; a fixture added later does not change the workload.
FIXTURES = ("block_diagonal", "disconnected_groupoid_ring",
            "f2_p2_groupoid_ring", "f2_z2_group_ring", "g8_groupoid_ring",
            "gf4_frobenius_group_type", "global_flip_partial_action",
            "m3_pair_groupoid", "zero_component_partial_action")
COMMANDS = (("validate",), ("analyze",), ("prime",),
            ("prime", "--method", "oracle"), ("prime", "--method", "theorem"),
            ("equivalence",))
# Left out: the two gf4 requests that build its isotropy skew rings take
# about 6 s each, so a run could time them only two or three times, and
# their fastest time would follow the machine's drift.  The same path
# (build_skew_ring, then validate_ring) is timed on the fuzz workload's
# 256-element partial action.
LEFT_OUT = ("gf4_frobenius_group_type prime",
            "gf4_frobenius_group_type prime --method theorem")

# Ladder rungs: GF(p) coefficients over the pair groupoid on ``objects``
# objects with cyclic isotropy of order ``isotropy``; the carrier has
# p ** (objects**2 * isotropy) elements.  Two prime rungs with trivial
# isotropy load the carrier oracle's principal-ideal pair search; GF(3)[C4]
# and GF(2)[C7], not prime, load the isotropy component (its SubRing
# closure check) and witness replay.  Every rung takes at most about two
# seconds, so that each is timed many times in one run.
LADDER = (("m2_gf3", 2, 1, 3),      # M2(GF(3)), 81 elements
          ("m3_gf2", 3, 1, 2),      # M3(GF(2)), 512
          ("gf3_c4", 1, 4, 3),      # GF(3)[C4], 81
          ("gf2_c7", 1, 7, 2))      # GF(2)[C7], 128

# The fuzz workload is run_fuzz(2, 8), run_fuzz(5, 8), run_fuzz(32, 1) and
# run_fuzz(38, 1): all three generator families on carriers of 2 to 256
# elements, a 256-element partial action for build_skew_ring and
# validate_ring, and two M2(GF(3)) matrix gradings whose graded-prime search
# makes about 13k is_zero_product calls each.  The M3(GF(2)) gradings of
# seeds 4, 6 and 7 make 522k such calls in 3 to 6 s, too long to be timed
# many times in one run; no instance here takes much more than a second.
FUZZ_RUNS = ((2, 8), (5, 8), (32, 1), (38, 1))

# A measuring run makes at least this many passes, so that every request's
# time is the least of more than one sample even when a pass outlasts
# --seconds.
MIN_PASSES = 2


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- inputs -----------------------------------------------------------------

def groupoid_document(groupoid) -> dict:
    """The instance-format description of a built groupoid."""
    names, objects = groupoid.morphisms, groupoid.objects
    arrows = range(groupoid.n_objects, groupoid.n_morphisms)
    return {
        "objects": list(objects),
        "morphisms": [{"name": names[g], "src": objects[groupoid.src[g]],
                       "rng": objects[groupoid.rng[g]]} for g in arrows],
        "compose": [[names[g], names[h], names[groupoid.compose(g, h)]]
                    for g in arrows for h in arrows if groupoid.composable(g, h)],
        "inverse": {names[g]: names[groupoid.inv[g]] for g in arrows},
    }


def write_ladder():
    from gprime.groupoid import FiniteGroup, pair_groupoid

    folder = WORK / "ladder"
    folder.mkdir(parents=True, exist_ok=True)
    requests = []
    for name, n_objects, isotropy, p in LADDER:
        groupoid = pair_groupoid([f"o{i}" for i in range(n_objects)],
                                 FiniteGroup.cyclic(isotropy))
        doc = {"description": f"ladder rung {name}",
               "groupoid": groupoid_document(groupoid),
               "groupoid_ring": {"base": {"field": p}}}
        path = folder / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        requests.append((f"equivalence {name}",
                         ["equivalence", str(path.relative_to(ROOT))]))
    return requests


def prepare(workload: str):
    """Import gprime and make the inputs; returns the request list
    (id, argv) in canonical order, or None for the fuzz workload.  Every
    instance file is parsed and built once here, so that a missing or
    invalid input stops the run before it is timed."""
    import gprime.cli  # noqa: F401
    import gprime.fuzz  # noqa: F401
    from gprime import instances

    if workload == "fuzz":
        return None
    if workload == "cli-fixtures":
        requests = []
        for name in FIXTURES:
            for command in COMMANDS:
                rid = f"{name} {' '.join(command)}"
                if rid not in LEFT_OUT:
                    argv = [command[0], f"fixtures/{name}.json", *command[1:]]
                    requests.append((rid, argv))
    else:
        requests = write_ladder()
    for path in sorted({argv[1] for _, argv in requests}):
        instances.build_instance(instances.parse(ROOT / path))
    return requests


# -- requests ---------------------------------------------------------------

class Pass:
    """Outcome of one pass over the request list."""

    def __init__(self, ids):
        self.ids = list(ids)     # every request of the pass, in order
        self.times = {}          # request id -> seconds
        self.observed = {}       # request id -> what the program produced
        self.wall = 0.0

    def record(self, rid, seconds, observation):
        self.times[rid] = seconds
        self.observed[rid] = observation

    def failed(self, golden):
        """Requests whose outcome differs from the golden record, or that
        never completed."""
        return [rid for rid in self.ids
                if rid not in self.observed
                or self.observed[rid] != golden.get(rid)]

    def report_ok(self, golden) -> bool:
        """Whether the pass-level reports (the fuzz summaries) match."""
        return all(self.observed.get(key) == value
                   for key, value in golden.items() if key.endswith("summary"))


def cli_pass(requests, tracer) -> Pass:
    from gprime import cli

    out = Pass(rid for rid, _ in requests)
    clock = time.perf_counter
    for number, (rid, argv) in enumerate(requests, 1):
        if tracer is not None:
            tracer.new_request(number)
        stdout, stderr = io.StringIO(), io.StringIO()
        # Each request starts with the garbage of the previous ones
        # collected, as a fresh ``gprime`` process would; this is not timed.
        gc.collect()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(stdout), \
                    contextlib.redirect_stderr(stderr):
                code = cli.main(argv)
        except (Exception, SystemExit) as exc:
            code = f"escaped {type(exc).__name__}"
        seconds = clock() - t0
        out.record(rid, seconds, {"exit": code,
                                  "report_sha256": sha256(stdout.getvalue())})
    out.wall = sum(out.times.values())
    return out


def fuzz_pass(tracer) -> Pass:
    """One ``run_fuzz`` call per entry of ``FUZZ_RUNS``; each instance is a
    request, timed from the previous ``progress`` callback to its own, and
    the digest of each report summary is checked as one more outcome."""
    from gprime import fuzz

    out = Pass(f"seed {seed} instance {i}"
               for seed, count in FUZZ_RUNS for i in range(count))
    clock = time.perf_counter
    last = 0.0

    def begin():
        # As on cli-fixtures, the garbage of the previous request is
        # collected before the next one is timed.
        nonlocal last
        if tracer is not None:
            tracer.new_request(len(out.times) + 1)
        gc.collect()
        last = clock()

    for seed, count in FUZZ_RUNS:
        def progress(rec, seed=seed):
            out.record(f"seed {seed} instance {rec.index}", clock() - last,
                       {"index": rec.index, "kind": rec.kind,
                        "carrier": rec.carrier, "size": rec.size,
                        "verdict": rec.verdict, "checks": rec.checks})
            begin()

        begin()
        try:
            report = fuzz.run_fuzz(seed, count, progress=progress)
            summary = sha256(json.dumps(report.summary(), sort_keys=True))
        except Exception as exc:
            summary = f"escaped {type(exc).__name__}"
        out.observed[f"seed {seed} summary"] = {"sha256": summary}
    out.wall = sum(out.times.values())
    return out


def run_pass(requests, order, tracer) -> Pass:
    if requests is None:
        return fuzz_pass(tracer)
    shuffled = list(requests)
    order.shuffle(shuffled)
    return cli_pass(shuffled, tracer)


# -- main -------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--passes", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    golden = json.loads(GOLDEN.read_text())[args.workload]
    requests = prepare(args.workload)
    if args.setup_only:
        ready = time.monotonic()
        Path(args.out).write_text(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    order = random.Random(f"{args.workload}:{args.seed}")
    passes = []
    ready = time.monotonic()
    cpus = sorted(os.sched_getaffinity(0))
    while True:
        # Passes take the CPUs given to the process in turn, so that each
        # request's fastest time is taken over all of them: on a shared host
        # one CPU can run slower than another for minutes.
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        done = run_pass(requests, order, tracer)
        passes.append(done)
        elapsed = time.monotonic() - ready
        if args.passes:
            if len(passes) >= args.passes:
                break
        elif len(passes) >= MIN_PASSES and elapsed + done.wall > args.seconds:
            break

    import gprime
    result = {
        "ready": ready,
        "gprime": str(Path(gprime.__file__).resolve().parent),
        "passes": [{"wall_s": p.wall, "requests": len(p.ids),
                    "times": p.times, "failed": p.failed(golden),
                    "report_ok": p.report_ok(golden)}
                   for p in passes],
        "observed": passes[0].observed,
    }
    if tracer is not None:
        result["layers"] = tracer.layers()
        tracer.write(Path(args.out).with_suffix(".spans.tsv"))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
