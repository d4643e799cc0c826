"""Run the benchmark over every workload and several seeds, and judge it.

    python3 perfbench/suite.py [--runs N] [--sets K] [--traced]

For every workload of ``BENCHMARK.json`` this runs ``run.py`` with seeds
1 to N, and prints per end-to-end metric the median, the quartiles, and the
spread: the distance between the quartiles as a share of the median
(``statistics.quantiles(values, n=4)``).  A spread must stay within the
metric's bound, and should stay below a third of it.  With ``--sets 2`` the
whole thing runs twice and the second median may not be worse than the first
by more than the bound.  ``failed_ratio`` is printed per workload.
``--traced`` instead makes two traced runs per workload, with the seeds of
``TRACED_SEEDS``, which the timed runs never use: every count must repeat
exactly, and every request must match the golden record.  The timed results
are also written to ``perfbench/.work/suite.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Seeds of the traced runs, far from the 1..N of the timed runs.
TRACED_SEEDS = (101, 102)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / statistics.median(values)


def judge_sets(spec, workloads, sets, report) -> bool:
    ok = True
    for workload in workloads:
        results = [s[workload] for s in sets]
        attempted = sum(r["attempted"] for rs in results for r in rs)
        failed = sum(r["failed"] for rs in results for r in rs)
        correct = all(r["correct"] for rs in results for r in rs)
        ok &= correct and failed == 0
        print(f"{workload}: failed_ratio {failed / attempted:g} ratio "
              f"({failed} of {attempted} requests), correct={correct}")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for k, rs in enumerate(results):
                values = [r["metrics"][name]["value"] for r in rs]
                q1, med, q3, width = spread(values)
                medians.append(med)
                if width < bound / 3:
                    verdict = "ok"
                elif width <= bound:
                    verdict = "within bound, above a third"
                else:
                    verdict = "TOO WIDE"
                    ok = False
                print(f"  {name:18s} set {k + 1}: median {med:.6g} "
                      f"{metric['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                      f"spread {width:.3f} of bound {bound}  {verdict}")
                report.append({"workload": workload, "metric": name,
                               "set": k + 1, "values": values, "median": med,
                               "q1": q1, "q3": q3, "spread": width})
            for k in range(1, len(medians)):
                change = medians[k] / medians[0] - 1
                worse = change if metric["better"] == "lower" else -change
                flag = "ok" if worse <= bound else "WORSE THAN BOUND"
                ok &= worse <= bound
                print(f"  {name:18s} set {k + 1} vs set 1: {change:+.3f}  {flag}")
    return ok


def judge_traced(workloads, seconds) -> bool:
    ok = True
    for workload in workloads:
        a, b = (run(workload, seed, seconds, 1) for seed in TRACED_SEEDS)
        counts = [name for name, m in a["metrics"].items()
                  if m["unit"] in ("count", "bytes")]
        differ = [name for name in counts
                  if a["metrics"][name]["value"] != b["metrics"].get(name, {}).get("value")]
        failed = a["failed"] + b["failed"]
        attempted = a["attempted"] + b["attempted"]
        ok &= not differ and a["correct"] and b["correct"] and failed == 0
        print(f"{workload}: {len(counts)} counts, seeds {TRACED_SEEDS[0]} and "
              f"{TRACED_SEEDS[1]}: {'identical' if not differ else 'DIFFER: ' + ', '.join(differ)}; "
              f"failed_ratio {failed / attempted:g} ({failed} of {attempted}); "
              f"correct={a['correct'] and b['correct']}; overhead "
              f"{a['metrics']['trace.overhead_s']['value']:.3f} s, "
              f"{b['metrics']['trace.overhead_s']['value']:.3f} s")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = range(1, args.runs + 1)
    seconds = spec["run_seconds"]
    if args.traced:
        return 0 if judge_traced(workloads, seconds) else 1

    sets = []
    for k in range(args.sets):
        sets.append({})
        for workload in workloads:
            sets[k][workload] = []
            for seed in seeds:
                result = run(workload, seed, seconds, 0)
                sets[k][workload].append(result)
                values = "  ".join(f"{n}={m['value']:.4g}"
                                   for n, m in result["metrics"].items())
                print(f"set {k + 1} {workload} seed {seed}: {values}",
                      flush=True)
    report = []
    ok = judge_sets(spec, workloads, sets, report)
    (HERE / ".work" / "suite.json").write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
