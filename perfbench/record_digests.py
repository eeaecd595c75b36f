"""Record the outcome digest of every op that any seed can draw.

Run from the repository root, at a commit whose outcomes are trusted:

    python3 perfbench/record_digests.py

Each op must also pass its identity check.  The digests go to
perfbench/digests.json; later runs compare every outcome with them.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402


def main():
    digests = {}
    bad = 0
    for workload in workloads.WORKLOADS.values():
        workdir = os.path.join(ROOT, ".perfbench", f"record-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        table = digests[workload.name] = {}
        try:
            for op in workload.all_ops(workdir):
                start = time.perf_counter()
                outcome = op.run()
                elapsed = time.perf_counter() - start
                value = workloads.digest(outcome)
                if not op.check(outcome) or table.setdefault(op.id, value) != value:
                    print(f"{workload.name}: {op.id} fails its check: {outcome[:300]!r}", file=sys.stderr)
                    bad += 1
                if elapsed > 0.5:
                    print(f"{workload.name}: {op.id} took {elapsed:.2f} s")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{workload.name}: {len(table)} ops recorded")
    if bad:
        return 1
    with open(os.path.join(HERE, "digests.json"), "w", encoding="utf-8") as handle:
        json.dump(digests, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
