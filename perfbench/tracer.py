"""Run one `tlcox` command with every public function of the package traced.

Usage: python3 tracer.py FD ARG...

Runs `tlcox.cli.main(ARG...)` in this fresh interpreter, exactly as the
`tlcox` command would, after wrapping from the outside (the package source
is not edited):

- every public module-level function and every public method of every class
  defined in `tlcox.laurent`, `coxeter`, `stars`, `tl`, `hecke`, `trace` and
  `cli`;
- the arithmetic operators of those classes, and `GroupElement.__init__`
  (elements are interned, so its calls count the distinct elements built).

A wrapper around a function is rebound under every name that any `tlcox`
module bound to it, since the CLI and several modules import functions by
name.  Each call is a span of the layer (module) that defines the function,
except the report renderers the CLI prints, which belong to `cli`.  Self time
is a span's duration minus that of its wrapped children; a function's
inclusive time counts its outermost calls only, so recursion is not counted
twice.  After the command the tracer writes one JSON object to file
descriptor FD and exits with the command's exit code; stdout is untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("laurent", "coxeter", "stars", "tl", "hecke", "trace", "cli")
OPERATORS = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
             "__neg__", "__pow__")
EXTRA = {"coxeter:GroupElement.__init__"}
RENDERERS = {"tl:CoeffTables.dump_tsv", "hecke:KLTables.dump_tsv",
             "trace:MuReport.dump_tsv", "stars:PropertyReport.render",
             "trace:TraceReport.render"}
FC_ENUMERATOR = "coxeter:enumerate_elements"


class Tracer:
    def __init__(self) -> None:
        self.stats: dict[str, list] = {}  # key -> [calls, inclusive s, open depth]
        self.layer_self: dict[str, list] = {}  # layer -> [self seconds]
        self.fc_seen: set = set()
        # child time accumulated by each open span; the bottom entry is the
        # untraced caller.
        self._child = [0.0]

    def wrap(self, key: str, layer: str, fn):
        st = self.stats[key] = [0, 0.0, 0]
        own = self.layer_self.setdefault(layer, [0.0])
        child, pc = self._child, time.perf_counter

        if inspect.isgeneratorfunction(fn):
            # each resumption of the generator is one span
            sig = inspect.signature(fn) if key == FC_ENUMERATOR else None
            fc_seen = self.fc_seen

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                st[0] += 1
                sink = None
                if sig is not None:
                    try:
                        if sig.bind(*args, **kwargs).arguments.get("fc_only"):
                            sink = fc_seen
                    except TypeError:
                        pass
                it = fn(*args, **kwargs)
                while True:
                    st[2] += 1
                    child.append(0.0)
                    t0 = pc()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        d = pc() - t0
                        st[2] -= 1
                        own[0] += d - child.pop()
                        child[-1] += d
                        if not st[2]:
                            st[1] += d
                    if sink is not None:
                        sink.add(item)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            st[0] += 1
            st[2] += 1
            child.append(0.0)
            t0 = pc()
            try:
                return fn(*args, **kwargs)
            finally:
                d = pc() - t0
                st[2] -= 1
                own[0] += d - child.pop()
                child[-1] += d
                if not st[2]:
                    st[1] += d

        return wrapper

    def report(self) -> dict:
        return {
            "functions": {k: {"calls": st[0], "incl_s": st[1]}
                          for k, st in sorted(self.stats.items())},
            "self_s": {layer: cell[0] for layer, cell in self.layer_self.items()},
            "fc_elements": len(self.fc_seen),
        }


def _targets(layer: str, module):
    """(key, owner, attribute, function, wrap-kind) for everything traced in one module."""
    for name, obj in list(vars(module).items()):
        if inspect.isfunction(obj) and obj.__module__ == module.__name__ \
                and not name.startswith("_"):
            yield f"{layer}:{name}", module, name, obj, None
        elif inspect.isclass(obj) and obj.__module__ == module.__name__ \
                and not name.startswith("_"):
            for attr, raw in list(vars(obj).items()):
                key = f"{layer}:{name}.{attr}"
                if attr.startswith("_") and attr not in OPERATORS and key not in EXTRA:
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    yield key, obj, attr, raw.__func__, type(raw)
                elif inspect.isfunction(raw):
                    yield key, obj, attr, raw, None


def install(tracer: Tracer) -> None:
    modules = {}
    for layer in LAYERS:
        try:
            modules[layer] = importlib.import_module(f"tlcox.{layer}")
        except ModuleNotFoundError:  # a layer that no longer exists is reported missing
            pass
    wrapped: dict = {}  # original -> wrapper, so aliases share one wrapper
    for layer, module in modules.items():
        tracer.layer_self.setdefault(layer, [0.0])
        for key, owner, attr, fn, kind in _targets(layer, module):
            if fn not in wrapped:
                span_layer = "cli" if key in RENDERERS else layer
                wrapped[fn] = tracer.wrap(key, span_layer, fn)
            setattr(owner, attr, kind(wrapped[fn]) if kind else wrapped[fn])
    # every module is imported before wrapping, so the functions that other
    # modules (the CLI among them) imported by name must be rebound there
    for name, mod in list(sys.modules.items()):
        if name == "tlcox" or name.startswith("tlcox."):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])


def main() -> int:
    fd = int(sys.argv[1])
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    tracer = Tracer()
    install(tracer)
    cli = sys.modules["tlcox.cli"]
    try:
        code = cli.main(sys.argv[2:])
    finally:
        sys.stdout.flush()
        with os.fdopen(fd, "w") as out:
            json.dump(tracer.report(), out)
    return code


if __name__ == "__main__":
    sys.exit(main())
