"""Record the golden outcome of every request of every workload.

    python3 perfbench/make_golden.py

Runs one pass of each workload with the gprime in ``src/`` and writes
``perfbench/golden.json``: per request the exit code and the sha256 of the
report (stdout), per fuzz instance its record, and the sha256 of the fuzz
report summary.  Outcomes do not depend on request order, so the
benchmark's seed never changes them.  Re-record only when a change to gprime
is meant to change its reports.
"""

import json
import os
import random
import sys

import worker


def main() -> int:
    sys.path.insert(0, str(worker.ROOT / "src"))
    os.chdir(worker.ROOT)
    golden = {}
    for workload in worker.WORKLOADS:
        requests = worker.prepare(workload)
        done = worker.run_pass(requests, random.Random(0), None)
        escaped = [rid for rid, seen in done.observed.items()
                   if "escaped" in json.dumps(seen)]
        if escaped or len(done.times) != len(done.ids):
            print(f"{workload}: requests failed: {escaped}", file=sys.stderr)
            return 1
        golden[workload] = done.observed
        print(f"{workload}: {len(done.ids)} requests, {done.wall:.1f} s")
    worker.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
