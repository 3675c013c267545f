"""Run `perfbench/run.py` on two checkouts in alternating pairs and record
the results in a `BENCH_*.json` file.

Usage, from the root of a checkout:

    python3 scripts/bench_record.py --parent DIR --change DIR \
        --workload products --seeds 1 2 3 4 5 --seconds 40 --out BENCH_6.json

For every seed the two checkouts run the same workload with the same seed
and run length, the side that runs first alternating from seed to seed.
With `--traced SEED` each side also makes one traced run (`--trace 1`).
The output file keeps one entry per workload (other workloads already in it
are left alone): the raw result objects, for every end-to-end metric the
median and quartiles of each side and the number of pairs the change won
(lower is better for all three; ties count for neither side), and each
side's `src_lines`, the line count of `src/tlcox/*.py` (as `wc -l` counts
it), so that code size is tracked beside time.  Each side also records
its bytecode-cache state: whether PYTHONDONTWRITEBYTECODE was set and whether
`src/tlcox/__pycache__` held `.pyc` files before its first run and after its
last.  Without a cache every invocation compiles the package source, which
shows in wall time and peak RSS, so only runs made in the same state compare.
Each side also records, under `load`, what each invocation of the workload
compiles: for every invocation that its `perfbench/run.py` lists in
`WORKLOADS`, the `tlcox` modules a fresh interpreter holds after running it
and the source lines of each, so that compile volume shows beside time.
These runs write no bytecode cache.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

END_TO_END = ("wall_norm", "peak_rss_mb", "setup_s")

# runs one command and prints the file of every tlcox module it loaded
LOAD_SCRIPT = """\
import contextlib, io, json, sys
from tlcox.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    main(sys.argv[1:])
print(json.dumps({name: module.__file__ for name, module in sys.modules.items()
                  if name == "tlcox" or name.startswith("tlcox.")}))
"""


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def lines(path: Path) -> int:
    return path.read_bytes().count(b"\n")


def src_lines(checkout: Path) -> int:
    return sum(map(lines, (checkout / "src" / "tlcox").glob("*.py")))


def load(checkout: Path, workload: str) -> list[dict]:
    """Per invocation of the workload in the checkout's `perfbench/run.py`
    (its `WORKLOADS` literal is read, not run): its arguments, the lines of
    each `tlcox` module a fresh interpreter holds after running it, and
    their sum."""
    tree = ast.parse((checkout / "perfbench" / "run.py").read_text())
    workloads = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and getattr(node.targets[0], "id", None) == "WORKLOADS")
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"), PYTHONDONTWRITEBYTECODE="1")
    out = []
    for argv, _, _ in workloads[workload]:
        proc = subprocess.run([sys.executable, "-c", LOAD_SCRIPT, *argv], cwd=checkout, env=env,
                              capture_output=True, text=True, check=True)
        files = json.loads(proc.stdout)
        modules = {name: lines(Path(files[name])) for name in sorted(files)}
        out.append({"argv": list(argv), "modules": modules, "lines": sum(modules.values())})
    return out


def has_pyc(checkout: Path) -> bool:
    return any((checkout / "src" / "tlcox" / "__pycache__").glob("*.pyc"))


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--traced", type=int, help="seed of one traced run per side")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    sides = {"parent": args.parent, "change": args.change}
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    bytecode = {side: {"PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE")),
                       "pyc_before": has_pyc(path)} for side, path in sides.items()}
    for i, seed in enumerate(args.seeds):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            result = run(sides[side], args.workload, seed, args.seconds, 0)
            runs[side].append(result)
            print(f"{args.workload} seed {seed} {side}: "
                  f"{json.dumps({k: v['value'] for k, v in result['metrics'].items()})}",
                  file=sys.stderr)
    for side, path in sides.items():
        bytecode[side]["pyc_after"] = has_pyc(path)
    entry: dict = {"seeds": args.seeds, "seconds": args.seconds, "runs": runs, "metrics": {},
                   "bytecode": bytecode}
    for name in END_TO_END:
        values = {side: [r["metrics"][name]["value"] for r in runs[side]] for side in sides}
        entry["metrics"][name] = {
            **{side: summary(values[side]) for side in sides},
            "change_wins": sum(c < p for p, c in zip(values["parent"], values["change"])),
            "pairs": len(args.seeds),
        }
    entry["src_lines"] = {side: src_lines(path) for side, path in sides.items()}
    entry["load"] = {side: load(path, args.workload) for side, path in sides.items()}
    entry["correct"] = all(r["correct"] and not r["failed"] for rs in runs.values() for r in rs)
    if args.traced is not None:
        entry["traced"] = {side: run(path, args.workload, args.traced, args.seconds, 1)
                           for side, path in sides.items()}

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    record[args.workload] = entry
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
