"""The gprime benchmark: one workload, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every workload runs in child processes of
its own (``worker.py``) with ``src/`` first on the import path, so that peak
memory and set-up time belong to that workload.  gprime needs only the
standard library, so the children start with ``python3 -S``: the host's
site-packages are not scanned, and set-up time is gprime's own.  They cache
bytecode under ``perfbench/.work/pycache``, as an installed gprime would
have it compiled.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``:
  setup_s            median over fifteen children of the time from process start
                     to the first timed request (import gprime, make, parse
                     and build the inputs); seven start before the measuring
                     child and seven after it
  wall_s             one pass over the workload's requests: the sum over
                     requests of each request's fastest time; as many whole
                     passes run as fit in S seconds, at least two
  slowest_request_s  the longest request, each request's time being its
                     fastest over the passes
  peak_rss_mb        peak resident memory of the measuring child (wait4)
``--trace 1`` runs one untraced pass and one traced pass, each in its own
child, and reports the per-layer metrics of ``BENCHMARK.json``: self times
and calls of gprime's public functions, counters, and the tracing overhead.
The traced outcomes must equal the untraced ones.  ``suite.py --traced``
checks that the counts repeat exactly across traced runs.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  Lines before it give the same figures for a reader, with
failed_ratio, nproc, the Python version and the commit measured.  Each
request's fastest time is taken because its work is fixed: a slower sample
only shows that the machine was busier.  Requests are kept short (about two
seconds at most) so that a run samples each of them many times.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
WORKER = HERE / "worker.py"

SETUP_PROBES = 14     # set-up-only children; the measuring child is one more
RUN_DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True, timeout=10)
        commit_id = commit.stdout.strip() if commit.returncode == 0 else None
    except OSError:
        commit_id = None
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gprime").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "commit": commit_id, "source_sha256": source.hexdigest()}


def run_child(args, out: Path, deadline: float):
    """Run worker.py; returns (result, peak RSS in MB, seconds from spawn)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONHASHSEED"] = "0"     # set iteration order, hence counts, repeat
    # Bytecode is cached under .work whatever the caller's environment says,
    # so that only the first child of a checkout compiles gprime.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(WORK / "pycache")
    out.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-S", str(WORKER), *args, "--out", str(out)],
        cwd=ROOT, env=env, stdout=sys.stderr)
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.send_signal(signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise BenchError(f"worker {' '.join(args)} ran out of time")
        time.sleep(0.02)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0 or not out.exists():
        raise BenchError(f"worker {' '.join(args)} exited with {proc.returncode}")
    return json.loads(out.read_text()), usage.ru_maxrss / 1024, spawned


def measure(workload, seed, seconds, deadline) -> dict:
    """End-to-end metrics: set-up probes around the measuring child."""
    base = [workload, "--seed", str(seed)]
    setups = []

    def probe(k):
        done, _, spawned = run_child(base + ["--setup-only"],
                                     WORK / f"{workload}.setup{k}.json", deadline)
        setups.append(done["ready"] - spawned)

    for k in range(SETUP_PROBES // 2):
        probe(k)
    result, rss, spawned = run_child(base + ["--seconds", str(seconds)],
                                     WORK / f"{workload}.json", deadline)
    setups.append(result["ready"] - spawned)
    for k in range(SETUP_PROBES // 2, SETUP_PROBES):
        probe(k)
    passes = result["passes"]
    timed = set.intersection(*(set(p["times"]) for p in passes))
    fastest = [min(p["times"][rid] for p in passes) for rid in sorted(timed)]
    return {
        "metrics": {
            "setup_s": statistics.median(setups),
            "wall_s": sum(fastest),
            "slowest_request_s": max(fastest, default=0.0),
            "peak_rss_mb": rss,
        },
        "passes": passes,
        "problems": [],
        "gprime": result["gprime"],
    }


def trace(workload, seed, deadline) -> dict:
    """Per-layer metrics: one untraced pass, then one traced pass."""
    base = [workload, "--seed", str(seed), "--passes", "1"]
    plain, _, _ = run_child(base, WORK / f"{workload}.plain.json", deadline)
    traced, _, _ = run_child(base + ["--trace"], WORK / f"{workload}.traced.json",
                             deadline)
    problems = []
    if traced["observed"] != plain["observed"]:
        problems.append("the traced pass produced other outcomes than the "
                        "untraced pass")
    layers = dict(traced["layers"])
    layers["trace.overhead_s"] = (traced["passes"][0]["wall_s"]
                                  - plain["passes"][0]["wall_s"])
    return {"metrics": layers, "passes": plain["passes"] + traced["passes"],
            "problems": problems, "gprime": plain["gprime"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one gprime benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        if not (ROOT / "src" / "gprime" / "cli.py").is_file() \
                or not (ROOT / "fixtures").is_dir():
            raise BenchError(f"no gprime checkout at {ROOT}: "
                             "src/gprime and fixtures/ are missing")
        env = environment()
        WORK.mkdir(parents=True, exist_ok=True)
        if args.trace:
            run = trace(args.workload, args.seed, deadline)
        else:
            run = measure(args.workload, args.seed, args.seconds, deadline)
    except (BenchError, OSError, ValueError) as exc:
        print(f"perfbench: error: {exc}", file=sys.stderr)
        return 1

    expected = (ROOT / "src" / "gprime").resolve()
    if Path(run["gprime"]) != expected:
        run["problems"].append(f"imported gprime from {run['gprime']}, "
                               f"not from {expected}")
    attempted = sum(p["requests"] for p in run["passes"])
    failed = sum(len(p["failed"]) for p in run["passes"])
    run["problems"] += [f"failed request: {rid}"
                        for p in run["passes"] for rid in p["failed"]]
    run["problems"] += ["the fuzz report summary differs from the golden record"
                        for p in run["passes"] if not p["report_ok"]]

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    run["problems"] += [f"metric {m['name']} is not measured"
                        for m in wanted if m["name"] not in run["metrics"]]
    metrics = {m["name"]: {"value": run["metrics"].get(m["name"], 0),
                           "unit": m["unit"]} for m in wanted}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"passes={len(run['passes'])} nproc={env['nproc']} "
          f"python={env['python']} "
          f"commit={env['commit']} source={env['source_sha256'][:16]}")
    for problem in run["problems"]:
        print(f"  problem: {problem}")
    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  {'failed_ratio':44s} {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} requests)")
    print(json.dumps({"correct": not run["problems"], "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
