"""Benchmark of the `tlcox` command-line tool.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A workload is a fixed list of `tlcox` invocations.  Every invocation runs in
a fresh interpreter, because CLI users pay cold memo tables on every call and
the package keeps process-global ones.  Each invocation's exit code and the
SHA-256 of its stdout are pinned; a mismatch or a timeout is a failed
operation.  The seed fixes the order of the invocations in each pass and the
`PYTHONHASHSEED` of every child process.

Passes over the workload repeat until the next one would end after S seconds
(at least one pass runs).

--trace 0 reports the end-to-end metrics:

- `wall_norm`: the workload's time in units of `reference.py`.  Each pass
  times `reference.py` before its first invocation and after every
  invocation; an invocation's wall time is divided by the mean of the two
  reference times around it, and `wall_norm` sums, over the workload's
  invocations, the median of these ratios over the passes.  On a shared host
  the speed of this kind of code drifts by 20-40 % within seconds to minutes,
  more than raw seconds of runs made minutes apart can be compared by; the
  reference drifts with it, and the closer it is timed to the invocation the
  better it follows.  The raw times are in the detail line.
- `peak_rss_mb`: the largest peak RSS of any invocation (from `os.wait4`, so
  per process).
- `setup_s`: the time of `tlcox --version` in a fresh interpreter (startup,
  imports, parser), in calibrated seconds: the median over the run of its
  ratio to a bare interpreter start (`python3 -c pass`, same environment)
  timed right beside it, times `BARE_START_S`.  Raw start-up times drift
  with the host as much as the workloads do (runs made minutes apart gave
  medians of 0.12 and 0.17 s); the bare start drifts with them and no change
  to the package moves it.  Pairs are timed before the first pass and after
  every pass, so the median covers the whole run.  The raw times are in the
  detail line.

The invocations take seconds, not tens of seconds, so that a run holds
several passes and the median rejects short bursts of slowness.

--trace 1 alternates untraced passes with passes run under `tracer.py`,
which wraps the package's public functions from the outside, and reports the
per-layer metrics (times as medians over the traced passes, counts from the
first) and `trace_overhead` (traced over untraced pass wall time).
`repeat_counts.py` checks that the counts repeat exactly across seeds.

The last line of stdout is the result object; the line before it holds the
run context and the per-invocation samples.  Exits 2 without a result when
the package source is absent.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (arguments, expected exit code, SHA-256 of stdout), pinned from the outputs
# of the first commit the benchmark measured.
WORKLOADS = {
    # FC quotients: B4 walks all 384 elements through the braid closure to
    # keep the 83 fully commutative ones; ~C3 is infinite, with 4-bonds, and
    # spends its time in q* and the canonical basis.  No oracle.
    "fc-quotient": [
        (("tables", "--preset", "B4"), 0,
         "c86bb4d81e8d851dba127ed6eac0443ecc1b6bb5c3df4f59096a1e8fc9ff726a"),
        (("tables", "--preset", "~C3", "--bound", "9"), 0,
         "0ef92834ca1c6f9885fe8cfb49d2f630e6552567aaf818ffd03f8509ef2a6aab"),
    ],
    # The full group: the oracle's bar-solve and the S and W checks, which
    # cannot restrict themselves to fully commutative elements.  S on D5
    # fails with witnesses (exit 1), a negative control.
    "full-group": [
        (("tables", "--preset", "D4", "--kl"), 0,
         "cba5469307255d697e04be8670654f79e8863b9a6c8101b39bc1884cc1179a41"),
        (("verify", "S", "--preset", "D5", "--bound", "10"), 1,
         "af5b06ac3b1ecabe06710b6234ec230990c716c04df0a8144caa7bb992a15ed9"),
        (("verify", "W", "--preset", "D5", "--bound", "9"), 0,
         "82105046863dd1fa5eaf754a3b041b1160bd3f5fbbdbd840e33ed0f586a1b7df"),
    ],
    # Products in canonical coordinates and the trace forms built on them,
    # over bonds 3, 4 and 5; element enumeration is negligible here.
    "products": [
        (("structure", "--preset", "B4", "--bound", "5"), 0,
         "a61d47daf46585a0ed42d615424d5ac166dd1bae08cb8716401f94f88c371f09"),
        (("structure", "--preset", "H3"), 0,
         "957bbd2dc1a6653e3ca0ffda3b21b41440d6e25ae87f4326954dbfef718e7928"),
        (("mu", "--preset", "A4", "--methods", "all"), 0,
         "80c368d06a708539663daebd70aebeb612ec72635c466961387a7f6cbf5dcb65"),
        (("verify", "B", "--preset", "A4"), 0,
         "16460b07c4e071bf0a1b010dcf831eff04313f9cf8cc8a55f304855ada48bc3a"),
    ],
}

# CLI entry points each workload must reach; one that exists but never fires
# under the tracer means a wrapper was not rebound where the CLI imported it.
ENTRY_POINTS = {
    "fc-quotient": ("coxeter:enumerate_elements", "tl:coeff_tables"),
    "full-group": ("coxeter:enumerate_elements", "hecke:kl_tables",
                   "stars:check_property_S", "tl:check_property_W"),
    "products": ("coxeter:enumerate_elements", "tl:TLAlgebra.c_mul",
                 "trace:mu_report", "trace:verify_property_B"),
}

LAYERS = ("laurent", "coxeter", "stars", "tl", "hecke", "trace", "cli")

# per-layer metric -> the traced functions whose calls it sums
CALLS = {
    "coxeter.normal_form_calls": ("coxeter:CoxeterGraph.normal_form_word",),
    "coxeter.elements_enumerated": ("coxeter:GroupElement.__init__",),
    "tl.lgen_calls": ("tl:TLAlgebra.lgen",),
    "tl.q_poly_calls": ("tl:TLAlgebra.q_poly",),
    "tl.c_mul_calls": ("tl:TLAlgebra.c_mul",),
    "hecke.kl_basis_calls": ("hecke:HeckeAlgebra.kl_basis",),
    "hecke.bar_basis_calls": ("hecke:HeckeAlgebra.bar_basis",),
    "laurent.mul_calls": ("laurent:LaurentPoly.__mul__",),
    "laurent.add_calls": ("laurent:LaurentPoly.__add__",),
    "laurent.bar_calls": ("laurent:LaurentPoly.bar",),
    "trace.form_cc_calls": ("trace:TraceEvaluator.form_cc",),
    "trace.tau_t_calls": ("trace:TraceEvaluator.tau_t",),
    "stars.star_calls": ("stars:star",),
}
# per-layer metric -> the traced functions whose inclusive time it sums
INCLUSIVE = {
    "tl.cbasis_s": ("tl:TLAlgebra.cbasis",),
    "tl.cbasis_recursive_s": ("tl:TLAlgebra.cbasis_recursive",),
    "tl.q_poly_s": ("tl:TLAlgebra.q_poly",),
    "tl.bar_solve_s": ("tl:bar_solve",),
    "tl.c_mul_s": ("tl:TLAlgebra.c_mul",),
    "hecke.kl_basis_s": ("hecke:HeckeAlgebra.kl_basis",),
    "trace.form_s": ("trace:TraceEvaluator.form_cc", "trace:TraceEvaluator.form_tt"),
    "stars.check_s": ("stars:check_property_F", "stars:check_property_S"),
    "cli.render_s": ("tl:CoeffTables.dump_tsv", "hecke:KLTables.dump_tsv",
                     "trace:MuReport.dump_tsv", "stars:PropertyReport.render",
                     "trace:TraceReport.render"),
}
COUNTS = (*CALLS, "coxeter.fc_elements", "coxeter.fc_yield")

# set-up pairs timed before the first pass and after each pass
SETUP_PAIRS_FIRST = 5
SETUP_PAIRS_PER_PASS = 3
# a bare interpreter start on the 2-vCPU host the benchmark was written on
# (Python 3.11); setup_s is in seconds at that speed
BARE_START_S = 0.07
# every process is done well inside the 180 s a run may take
HARD_LIMIT_S = 170.0


def run_child(prefix: list[str], args, env: dict, timeout: float, traced: bool) -> dict:
    """Run `prefix [FD] args` to completion: wall time, exit code, stdout
    digest, the peak RSS of that process alone (from wait4; RUSAGE_CHILDREN
    would be a running maximum over every child reaped so far) and, when
    traced, what the tracer wrote to the pipe FD."""
    rfd = wfd = None
    if traced:
        rfd, wfd = os.pipe()
        prefix = [*prefix, str(wfd)]
    outputs: dict[str, bytes] = {}

    def drain(name, stream):
        with stream:
            outputs[name] = stream.read()

    t0 = time.perf_counter()
    proc = subprocess.Popen([*prefix, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, pass_fds=(wfd,) if traced else ())
    streams = {"out": proc.stdout, "err": proc.stderr}
    if traced:
        os.close(wfd)
        streams["trace"] = os.fdopen(rfd, "rb")
    readers = [threading.Thread(target=drain, args=item) for item in streams.items()]
    for r in readers:
        r.start()
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    killer = threading.Timer(timeout, kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    for r in readers:
        r.join()
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "exit": proc.returncode,
        "sha256": hashlib.sha256(outputs["out"]).hexdigest(),
        "timed_out": timed_out.is_set(),
        "stderr": outputs["err"][-400:].decode(errors="replace"),
        "trace": outputs.get("trace"),
    }


class Run:
    def __init__(self, workload: str, seed: int, seconds: int):
        self.invocations = WORKLOADS[workload]
        self.rng = random.Random(seed)
        self.t_start = time.perf_counter()
        self.soft_end = self.t_start + seconds
        self.hard_end = self.t_start + HARD_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.samples: dict[str, list] = {" ".join(a): [] for a, _, _ in self.invocations}
        self.reference_s: list[float] = []

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        env["PYTHONHASHSEED"] = str(self.rng.randrange(2**32))
        return env

    def remaining(self) -> float:
        return self.hard_end - time.perf_counter()

    def invoke(self, args, traced: bool, env: dict) -> dict | None:
        if self.remaining() <= 0:
            return None
        if traced:
            prefix = [sys.executable, str(HERE / "tracer.py")]
        else:
            prefix = [sys.executable, "-m", "tlcox.cli"]
        return run_child(prefix, args, env, self.remaining(), traced)

    def reference(self) -> float:
        res = run_child([sys.executable, str(HERE / "reference.py")], (), self.env(),
                        max(self.remaining(), 1.0), False)
        if res["exit"] != 0:
            raise SystemExit(f"reference.py failed: {res['stderr']}")
        self.reference_s.append(res["wall_s"])
        return res["wall_s"]

    def one_pass(self, traced: bool, bracket: bool) -> tuple[float, list[dict]] | None:
        """One pass over the workload in a seeded order, with `reference.py`
        timed around every invocation if `bracket`; None once a process
        fails to finish before the hard limit."""
        env = self.env()
        total, traces = 0.0, []
        ref = self.reference() if bracket else None
        for args, code, digest in self.rng.sample(self.invocations, len(self.invocations)):
            res = self.invoke(args, traced, env)
            self.attempted += 1
            if res is None or res["timed_out"]:
                self.failed += 1
                return None
            ok = res["exit"] == code and res["sha256"] == digest \
                and (not traced or bool(res["trace"]))
            if not ok:
                self.failed += 1
                print(f"mismatch: tlcox {' '.join(args)}: exit {res['exit']} "
                      f"(want {code}), sha256 {res['sha256'][:12]} (want {digest[:12]})\n"
                      f"{res['stderr']}", file=sys.stderr)
            sample = {"traced": traced, "wall_s": res["wall_s"], "rss_mb": res["rss_mb"], "ok": ok}
            if bracket:
                after = self.reference()
                sample["norm"] = res["wall_s"] / ((ref + after) / 2)
                ref = after
            self.samples[" ".join(args)].append(sample)
            total += res["wall_s"]
            if traced:
                traces.append(json.loads(res["trace"] or "{}"))
        return total, traces

    def passes(self, traced: bool):
        """Yield untraced passes bracketed by the reference, or untraced and
        traced pairs without it, until the next would end after the run's
        seconds; what the caller does between passes counts towards the
        estimate."""
        while True:
            t0 = time.perf_counter()
            untraced = self.one_pass(False, bracket=not traced)
            if untraced is None:
                return
            paired = self.one_pass(True, bracket=False) if traced else None
            if traced and paired is None:
                return
            yield untraced, paired
            if time.perf_counter() + (time.perf_counter() - t0) > self.soft_end:
                return


class Setup:
    """Times `tlcox --version` against a bare interpreter start, in pairs
    of alternating order, so that each ratio compares two processes run
    within a fraction of a second of each other."""

    def __init__(self, run: Run):
        self.run = run
        self.setup_s: list[float] = []
        self.bare_s: list[float] = []
        self.timed(("--version",))  # the first call also writes the bytecode cache

    def timed(self, args) -> float:
        res = self.run.invoke(args, False, self.run.env())
        if res is None or res["exit"] != 0:
            raise SystemExit(f"tlcox {' '.join(args)} failed: {res and res['stderr']}")
        return res["wall_s"]

    def bare(self) -> float:
        res = run_child([sys.executable, "-c", "pass"], (), self.run.env(),
                        max(self.run.remaining(), 1.0), False)
        if res["exit"] != 0:
            raise SystemExit(f"bare interpreter start failed: {res['stderr']}")
        return res["wall_s"]

    def pairs(self, n: int) -> None:
        for _ in range(n):
            if len(self.setup_s) % 2:
                self.bare_s.append(self.bare())
                self.setup_s.append(self.timed(("--version",)))
            else:
                self.setup_s.append(self.timed(("--version",)))
                self.bare_s.append(self.bare())

    def value(self) -> float:
        return BARE_START_S * statistics.median(
            s / b for s, b in zip(self.setup_s, self.bare_s))


def layer_metrics(traces: list[dict]) -> tuple[dict, list[str]]:
    """Per-layer values of one traced pass (summed over its invocations),
    and the traced functions that no longer exist."""
    functions = [t.get("functions", {}) for t in traces]
    known = set().union(*functions)
    missing = sorted({k for keys in (*CALLS.values(), *INCLUSIVE.values())
                      for k in keys if k not in known})
    values: dict[str, float] = {}
    for layer in LAYERS:
        if any(layer in t.get("self_s", {}) for t in traces):
            values[f"{layer}.self_s"] = sum(t["self_s"].get(layer, 0.0) for t in traces)
        else:
            missing.append(layer)
    for name, keys in CALLS.items():
        if any(k in known for k in keys):
            values[name] = sum(f[k]["calls"] for f in functions for k in keys if k in f)
    for name, keys in INCLUSIVE.items():
        if any(k in known for k in keys):
            values[name] = sum(f[k]["incl_s"] for f in functions for k in keys if k in f)
    values["coxeter.fc_elements"] = sum(t.get("fc_elements", 0) for t in traces)
    if values.get("coxeter.elements_enumerated"):
        values["coxeter.fc_yield"] = (values["coxeter.fc_elements"]
                                      / values["coxeter.elements_enumerated"])
    return values, missing


def unit(name: str) -> str:
    if name == "wall_norm":
        return "ref"
    if name in ("coxeter.fc_yield", "trace_overhead"):
        return "ratio"
    if name.endswith("_mb"):
        return "MB"
    return "s" if name.endswith("_s") else "count"


def context(args) -> dict:
    try:
        # the ceiling keeps git from reading repositories above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(), "git_revision": rev,
            "nproc": os.cpu_count(), "loadavg": os.getloadavg()}


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "tlcox" / "cli.py").is_file():
        print(f"error: no tlcox package under {SRC}", file=sys.stderr)
        return 2

    detail = {"context": context(args)}
    run = Run(args.workload, args.seed, args.seconds)
    correct = True
    metrics: dict[str, float] = {}
    if not args.trace:
        setup = Setup(run)
        setup.pairs(SETUP_PAIRS_FIRST)
        walls = []
        for (wall, _), _ in run.passes(False):
            setup.pairs(SETUP_PAIRS_PER_PASS)
            walls.append(wall)
        rss = [s["rss_mb"] for ss in run.samples.values() for s in ss]
        if walls:
            norm = sum(statistics.median(s["norm"] for s in ss)
                       for ss in run.samples.values())
            metrics = {"wall_norm": norm, "peak_rss_mb": max(rss), "setup_s": setup.value()}
        detail.update(wall_s_samples=walls, reference_s_samples=run.reference_s,
                      setup_s_samples=setup.setup_s, bare_start_s_samples=setup.bare_s)
    else:
        pairs = list(run.passes(True))
        if pairs:
            per_pass = [layer_metrics(t[1]) for _, t in pairs]
            missing = per_pass[0][1]
            values = [v for v, _ in per_pass]
            for name in values[0]:
                series = [v[name] for v in values]
                metrics[name] = series[0] if name in COUNTS else statistics.median(series)
            metrics["trace_overhead"] = (statistics.median(t[0] for _, t in pairs)
                                         / statistics.median(u[0] for u, _ in pairs))
            fired = {k for _, t in pairs for tr in t[1]
                     for k, f in tr.get("functions", {}).items() if f["calls"]}
            known = {k for _, t in pairs for tr in t[1] for k in tr.get("functions", {})}
            silent = [k for k in ENTRY_POINTS[args.workload] if k in known and k not in fired]
            for k in silent:
                print(f"error: traced entry point {k} never fired on {args.workload}",
                      file=sys.stderr)
            correct = not silent
            detail.update(traced_passes=len(pairs), missing=missing, silent=silent)
    detail["invocations"] = run.samples
    print(json.dumps(detail))
    result = {
        "correct": correct and run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
