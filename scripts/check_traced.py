"""Check the result line of a traced benchmark run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fc-quotient --trace 1 --seconds 1 --seed 1 \
        | python3 scripts/check_traced.py

Exits 1 unless the last line of the run's stdout is one JSON object with
`correct: true` whose metrics hold every per-layer metric that
BENCHMARK.json declares, and the line before it is the run's detail object
with an empty `missing` list: no traced function that `perfbench/run.py`
names has disappeared from the package (a metric such as `trace.form_s` that
sums several functions still reads a value when one of them is gone).
Prints the result line either way.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def main() -> int:
    lines = sys.stdin.read().splitlines()
    declared = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        print(f"error: the last line is not a JSON result: {exc}", file=sys.stderr)
        return 1
    print(lines[-1])
    try:
        gone = json.loads(lines[-2])["missing"]
    except (IndexError, json.JSONDecodeError, TypeError, KeyError) as exc:
        print(f"error: the line before the result holds no missing list: {exc!r}",
              file=sys.stderr)
        return 1
    missing = [name for name in declared if name not in result.get("metrics", {})]
    if result.get("correct") is not True or missing or gone:
        print(f"error: correct is {result.get('correct')!r}; missing per-layer metrics: "
              f"{missing}; traced functions that no longer exist: {gone}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
