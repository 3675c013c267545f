"""Time one `tlcox` call on two checkouts in alternating pairs, each in a
fresh interpreter, and read each call's own peak RSS.

Usage, from anywhere:

    python3 scripts/own_peak.py --parent DIR --change DIR --pairs 5 \
        -- verify S --preset E6 --bound 36

Each call runs `python3 -m tlcox.cli ARGS` with the checkout as working
directory and its `src` first on PYTHONPATH; the side that runs first
alternates from pair to pair.  One line per call gives the side, the wall
time, the own peak RSS (`ru_maxrss` from `os.wait4`), the first 12 hex
digits of the SHA-256 of stdout and the exit code; one line per side then
gives the median wall and peak.  A child's `ru_maxrss` starts from the RSS
of the process that starts it, so the launcher keeps its own RSS low: it
hashes stdout in chunks as it arrives, and it imports neither OpenSSL
(hashlib adds 3.7 MB) nor `statistics`.  Its last line gives its own peak,
the floor below which no call's peak can read.  stderr passes through.
"""

from __future__ import annotations

import argparse
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

try:  # the built-in SHA-256, without the OpenSSL that hashlib loads
    from _sha256 import sha256
except ImportError:
    try:
        from _sha2 import sha256
    except ImportError:
        from hashlib import sha256

CHUNK = 1 << 16


def median(values: list[float]) -> float:
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def launch(cmd: list[str], cwd: Path | None = None, env: dict | None = None):
    """Run `cmd` to completion: (wall s, own peak MB, stdout digest, exit code)."""
    digest = sha256()
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE)
    with proc.stdout:
        while chunk := proc.stdout.read(CHUNK):
            digest.update(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, digest.hexdigest()[:12], proc.returncode


def tlcox_call(checkout: Path, args: list[str]):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(checkout / "src"),
                                                      env.get("PYTHONPATH")]))
    return launch([sys.executable, "-m", "tlcox.cli", *args], cwd=checkout, env=env)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=5)
    ap.add_argument("args", nargs=argparse.REMAINDER, help="the tlcox arguments, after --")
    args = ap.parse_args(argv)
    tlcox_args = args.args[1:] if args.args[:1] == ["--"] else args.args
    if not tlcox_args:
        ap.error("no tlcox arguments")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    results: dict[str, list[tuple]] = {side: [] for side in sides}
    for i in range(args.pairs):
        for side in (("parent", "change") if i % 2 == 0 else ("change", "parent")):
            got = tlcox_call(sides[side], tlcox_args)
            results[side].append(got)
            wall, peak, digest, code = got
            print(f"{side}\t{wall:.3f} s\t{peak:.1f} MB\t{digest}\texit {code}", flush=True)
    for side, got in results.items():
        print(f"{side} median\t{median([g[0] for g in got]):.3f} s\t"
              f"{median([g[1] for g in got]):.1f} MB\t"
              f"{' '.join(sorted({g[2] for g in got}))}\t"
              f"exit {' '.join(str(c) for c in sorted({g[3] for g in got}))}")
    print(f"launcher\t{resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.1f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
