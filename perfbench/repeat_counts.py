"""Check that the per-layer counts repeat exactly across traced runs.

Usage, from the root of a checkout:

    python3 perfbench/repeat_counts.py WORKLOAD [SEED_A SEED_B]

Runs `run.py --trace 1` on WORKLOAD once per seed (the seeds give different
`PYTHONHASHSEED` values and invocation orders) and prints every count metric
that differs between the two runs.  Exits 1 if one does or if either run was
not correct.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from run import COUNTS, ROOT


def counts(workload: str, seed: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("run.py")), "--workload", workload,
         "--seed", seed, "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300).stdout
    result = json.loads(out.splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"traced run of {workload} with seed {seed} was not correct")
    return {k: v["value"] for k, v in result["metrics"].items() if k in COUNTS}


def main() -> int:
    workload, *seeds = sys.argv[1:]
    a, b = seeds or ("1", "2")
    first, second = counts(workload, a), counts(workload, b)
    differ = sorted(k for k in first.keys() | second.keys() if first.get(k) != second.get(k))
    for k in differ:
        print(f"{workload}: {k} = {first.get(k)} (seed {a}) != {second.get(k)} (seed {b})")
    print(f"{workload}: {len(first) - len(differ)} of {len(first)} counts repeat")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
