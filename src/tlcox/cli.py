"""Command-line front end.

Subcommands: `basis` (canonical-basis dump with the two-algorithm agreement
flag), `mu` (cross-method coefficient table), `verify F|S|W|B` (property
checkers; exit status 1 on FAILS), `structure` (structure constants with
positivity verdicts), and `tables` (coefficient-table dumps).  Identical
invocations produce byte-identical output.

Exit codes: 0 success/HOLDS, 1 FAILS with witness, 2 usage or configuration
error, 3 internal consistency failure.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__
from .coxeter import (
    CoxeterGraph,
    GraphError,
    enumerate_elements,
    format_element,
    group_order,
    parse_graph,
    preset,
)
from .stars import check_property_F, check_property_S

# `hecke`, `tl` and `trace` are imported by the commands that use them, so
# start-up (and `tlcox --version`) compiles only what every command needs

DEFAULT_GROUP_CAP = 50_000


class ConfigError(ValueError):
    pass


def _load_graph(args) -> CoxeterGraph:
    if args.preset and args.graph:
        raise ConfigError("--preset and --graph are mutually exclusive")
    if args.preset:
        g = preset(args.preset)
    elif args.graph:
        g = parse_graph(Path(args.graph).read_text())
    else:
        raise ConfigError("one of --preset or --graph is required")
    if args.oracle_cap is not None and args.oracle_cap <= 0:
        raise ConfigError("--oracle-cap must be positive")
    return g


def _oracle(args, graph: CoxeterGraph):
    """The full-group algebra of this run's graph, with --oracle-cap if given."""
    from .hecke import HeckeAlgebra

    alg = HeckeAlgebra.for_graph(graph)
    if args.oracle_cap:
        alg.element_cap = args.oracle_cap
    return alg


def _resolve_bound(args, graph: CoxeterGraph, whole_group: bool) -> int:
    """The --bound, else the longest length of the finite group.  Commands
    that enumerate the whole group (whole_group) refuse groups larger than
    DEFAULT_GROUP_CAP; the others only ever build fully commutative
    elements."""
    if args.bound is not None:
        if args.bound < 0:
            raise ConfigError("--bound must be nonnegative")
        return args.bound
    order = group_order(graph, DEFAULT_GROUP_CAP if whole_group else math.inf)
    if order is None:
        larger = f" or larger than {DEFAULT_GROUP_CAP} elements" if whole_group else ""
        raise ConfigError(f"group is infinite{larger}; an explicit --bound is required")
    return order[1]


def _emit(args, text: str) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _trace_source(args, graph: CoxeterGraph):
    from .trace import builtin_trace, is_linear_bond3, load_trace_table
    if args.trace:
        table = load_trace_table(graph, Path(args.trace).read_text(),
                                 label=Path(args.trace).name)
        return table.homogenized() if not table.is_homogeneous() else table
    if not is_linear_bond3(graph):
        raise ConfigError(
            "the built-in trace covers consecutively numbered simply laced "
            "path graphs only; supply --trace FILE for this graph")
    return builtin_trace(graph)


def cmd_basis(args) -> int:
    from .tl import TLAlgebra
    graph = _load_graph(args)
    bound = _resolve_bound(args, graph, whole_group=args.kl)
    alg = TLAlgebra.for_graph(graph)
    fc = list(enumerate_elements(graph, bound, fc_only=True))
    lines: list[str] = []
    if args.format == "tsv":
        lines.append("w\ty\tp_star\tagree")
    else:
        lines.append(f"# basis graph={graph.describe()} bound={bound} elements={len(fc)}")
    for w in fc:
        cw = alg.cbasis(w)
        agree = cw == alg.cbasis_recursive(w)
        flag = "yes" if agree else "no"
        if args.format == "tsv":
            for y in sorted(cw):
                lines.append(f"{format_element(w)}\t{format_element(y)}\t"
                             f"{cw[y].format()}\t{flag}")
        else:
            lines.append(f"c[{format_element(w)}] agree={flag}")
            for y in sorted(cw):
                lines.append(f"{cw[y].format()} * t[{format_element(y)}]")
            lines.append("")
    if args.kl:
        hk = _oracle(args, graph)
        for w in enumerate_elements(graph, bound):
            klw = hk.kl_basis(w)
            if args.format == "tsv":
                for y in sorted(klw):
                    lines.append(f"C'[{format_element(w)}]\t{format_element(y)}\t"
                                 f"{klw[y].format()}\tyes")
            else:
                lines.append(f"C'[{format_element(w)}]")
                for y in sorted(klw):
                    lines.append(f"{klw[y].format()} * T[{format_element(y)}]")
                lines.append("")
    _emit(args, "\n".join(lines).rstrip("\n") + "\n")
    return 0


def cmd_mu(args) -> int:
    from .trace import mu_report
    graph = _load_graph(args)
    if args.methods == "all":
        methods = ("m", "oracle", "trace")
    else:
        methods = tuple(tok.strip() for tok in args.methods.split(",") if tok.strip())
    valid = {"m", "oracle", "trace"}
    if not methods or not set(methods) <= valid:
        raise ConfigError(f"--methods must name a subset of {sorted(valid)} or 'all'")
    bound = _resolve_bound(args, graph, whole_group="oracle" in methods)
    if "oracle" in methods:
        _oracle(args, graph)
    source = _trace_source(args, graph) if "trace" in methods else None
    report = mu_report(graph, bound, methods, source)
    _emit(args, report.dump_tsv())
    return 0


def cmd_verify(args) -> int:
    graph = _load_graph(args)
    prop = args.property
    bound = _resolve_bound(args, graph, whole_group=prop in ("S", "W"))
    if prop == "F":
        report = check_property_F(graph, bound)
    elif prop == "S":
        report = check_property_S(graph, bound)
    elif prop == "W":
        from .tl import check_property_W
        report = check_property_W(graph, bound)
    elif prop == "B":
        from .trace import verify_property_B
        report = verify_property_B(graph, bound, _trace_source(args, graph))
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown property {prop!r}")
    _emit(args, report.render())
    return 0 if report.holds else 1


def cmd_structure(args) -> int:
    graph = _load_graph(args)
    bound = _resolve_bound(args, graph, whole_group=args.kl_constants)
    lines = ["x\ty\tz\tcoeff\tnonneg"]
    if args.kl_constants:
        hk = _oracle(args, graph)
        els = list(enumerate_elements(graph, bound))
        for x in els:
            for y in els:
                for z, c in sorted(hk.kl_mul(x, y).items()):
                    if not z.is_fully_commutative():
                        continue
                    d = c.to_delta_basis()
                    cell = d.format() if d is not None else c.format()
                    ok = d is not None and d.is_nonneg()
                    lines.append(f"{format_element(x)}\t{format_element(y)}\t"
                                 f"{format_element(z)}\t{cell}\t{str(ok).lower()}")
    else:
        from .tl import TLAlgebra
        alg = TLAlgebra.for_graph(graph)
        fc = list(enumerate_elements(graph, bound, fc_only=True))
        for x in fc:
            for y in fc:
                for z, c in sorted(alg.c_mul(x, y).items()):
                    d = c.to_delta_basis()
                    cell = d.format() if d is not None else c.format()
                    ok = d is not None and d.is_nonneg()
                    lines.append(f"{format_element(x)}\t{format_element(y)}\t"
                                 f"{format_element(z)}\t{cell}\t{str(ok).lower()}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_tables(args) -> int:
    graph = _load_graph(args)
    bound = _resolve_bound(args, graph, whole_group=args.kl)
    if args.kl:
        from .hecke import kl_tables
        _oracle(args, graph)
        tables = kl_tables(graph, bound)
    else:
        from .tl import coeff_tables
        tables = coeff_tables(graph, bound)
    _emit(args, tables.dump_tsv())
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="named graph, e.g. A3, B2, D4, H3, I2(5), ~A2")
    p.add_argument("--graph", help="graph description file")
    p.add_argument("--bound", type=int,
                   help="length bound (defaults to the full group when finite)")
    p.add_argument("--out", help="output path (default: stdout)")
    p.add_argument("--oracle-cap", type=int, help="oracle support element cap")
    p.add_argument("--format", choices=["text", "tsv"], default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tlcox",
        description="Canonical bases, mu-coefficients and Jones-type traces "
                    "for Temperley-Lieb quotients over Coxeter graphs.")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("basis", help="dump the canonical basis (two algorithms)")
    _add_common(p)
    p.add_argument("--kl", action="store_true",
                   help="also dump the full-algebra bar-invariant basis")
    p.set_defaults(func=cmd_basis)

    p = sub.add_parser("mu", help="cross-method mu table on fully commutative pairs")
    _add_common(p)
    p.add_argument("--methods", default="all",
                   help="comma list from m,oracle,trace (default all)")
    p.add_argument("--trace", help="trace table file (for the trace method)")
    p.set_defaults(func=cmd_mu)

    p = sub.add_parser("verify", help="run one property checker")
    p.add_argument("property", choices=["F", "S", "W", "B"])
    _add_common(p)
    p.add_argument("--trace", help="trace table file (property B)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("structure", help="structure constants with positivity verdicts")
    _add_common(p)
    p.add_argument("--kl-constants", action="store_true",
                   help="constants of full-algebra bar-invariant products at "
                        "fully commutative indices")
    p.set_defaults(func=cmd_structure)

    p = sub.add_parser("tables", help="coefficient table dumps")
    _add_common(p)
    p.add_argument("--kl", action="store_true",
                   help="dump the classical polynomial table instead")
    p.set_defaults(func=cmd_tables)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        from .hecke import OracleCapExceeded
        from .tl import CanonicalRecursionError, InternalConsistencyError
        from .trace import NonBipartiteGraph, TraceGapError, TraceTableError

        if isinstance(exc, (ConfigError, GraphError, TraceTableError, TraceGapError,
                            NonBipartiteGraph, OracleCapExceeded, FileNotFoundError)):
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if isinstance(exc, (InternalConsistencyError, CanonicalRecursionError)):
            print(f"internal consistency failure: {exc}", file=sys.stderr)
            return 3
        raise


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
