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

# every engine module is imported by the commands that use it, so start-up,
# `--version`, `--help` and usage errors compile this module only; a failure
# carries its exit code (`exit_code`), so `main` imports nothing to pick it

DEFAULT_GROUP_CAP = 50_000


class ConfigError(ValueError):
    exit_code = 2


def _load_graph(args):
    """The graph of --preset or --graph (a `coxeter.CoxeterGraph`)."""
    from .coxeter import preset

    if args.preset and args.graph:
        raise ConfigError("--preset and --graph are mutually exclusive")
    if args.preset:
        g = preset(args.preset)
    elif args.graph:
        from .graphfile import parse_graph

        g = parse_graph(Path(args.graph).read_text())
    else:
        raise ConfigError("one of --preset or --graph is required")
    if args.oracle_cap is not None and args.oracle_cap <= 0:
        raise ConfigError("--oracle-cap must be positive")
    return g


def _oracle(args, graph):
    """The full-group algebra of this run's graph, with --oracle-cap if given."""
    from .hecke import HeckeAlgebra

    alg = HeckeAlgebra.for_graph(graph)
    if args.oracle_cap:
        alg.element_cap = args.oracle_cap
    return alg


def _resolve_bound(args, graph, whole_group: bool) -> int:
    """The --bound, else the longest length of the finite group.  Commands
    that enumerate the whole group (whole_group) refuse groups larger than
    DEFAULT_GROUP_CAP; the others only ever build fully commutative
    elements."""
    if args.bound is not None:
        if args.bound < 0:
            raise ConfigError("--bound must be nonnegative")
        return args.bound
    from .coxeter import group_order

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


def _trace_source(args, graph):
    """The --trace table, else the built-in trace (each checks itself)."""
    from .trace import builtin_trace, load_trace_table
    if args.trace:
        return load_trace_table(graph, Path(args.trace).read_text(), label=Path(args.trace).name)
    return builtin_trace(graph)


def cmd_basis(args) -> int:
    from .coxeter import enumerate_elements, format_element
    from .tl import TLAlgebra

    graph = _load_graph(args)
    bound = _resolve_bound(args, graph, whole_group=args.kl)
    alg = TLAlgebra.for_graph(graph)
    fc = list(enumerate_elements(graph, bound, fc_only=True))
    tsv = args.format == "tsv"
    lines = ["w\ty\tp_star\tagree" if tsv else
             f"# basis graph={graph.describe()} bound={bound} elements={len(fc)}"]

    def block(name: str, head: str, coords, t: str, flag: str) -> None:
        """One basis element: a tsv row per term, or a head line, a line per
        term and a blank line."""
        ys = sorted(coords)
        if tsv:
            lines.extend(f"{name}\t{format_element(y)}\t{coords[y].format()}\t{flag}"
                         for y in ys)
        else:
            lines.append(head)
            lines.extend(f"{coords[y].format()} * {t}[{format_element(y)}]" for y in ys)
            lines.append("")

    for w in fc:
        cw = alg.cbasis(w)
        flag = "yes" if cw == alg.cbasis_recursive(w) else "no"
        name = format_element(w)
        block(name, f"c[{name}] agree={flag}", cw, "t", flag)
    if args.kl:
        hk = _oracle(args, graph)
        for w in enumerate_elements(graph, bound):
            name = f"C'[{format_element(w)}]"
            block(name, name, hk.kl_basis(w), "T", "yes")
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
    if source is not None and source.describe().endswith("+homogenized"):  # mu names no source
        print(f"note: trace={source.describe()}: each value was projected to the "
              "length parity of its element", file=sys.stderr)
    report = mu_report(graph, bound, methods, source)
    _emit(args, report.dump_tsv())
    return 0


def cmd_verify(args) -> int:
    graph = _load_graph(args)
    prop = args.property
    bound = _resolve_bound(args, graph, whole_group=prop == "S")
    if prop == "F":
        from .stars import check_property_F
        report = check_property_F(graph, bound)
    elif prop == "S":
        from .stars import check_property_S
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


def _structure_text(elements, product) -> str:
    """The `structure` table: one row x, y, z, constant, nonneg per z in
    product(x, y), over all x and y in `elements`.  Each element's name and
    each distinct constant's cell are rendered once: few distinct constants
    occur.  The rows of each x are joined on their own, so no list of the
    whole table's rows is held beside its text."""
    from .coxeter import format_element

    named = [(x, format_element(x)) for x in elements]
    names = dict(named)
    cells: dict = {}
    columns = ["x\ty\tz\tcoeff\tnonneg\n"]
    for x, nx in named:
        rows = []
        for y, ny in named:
            head = f"{nx}\t{ny}\t"
            for z, c in sorted(product(x, y).items()):
                nz = names.get(z)
                if nz is None:
                    nz = names[z] = format_element(z)
                cell = cells.get(c)
                if cell is None:
                    d = c.to_delta_basis()
                    ok = d is not None and d.is_nonneg()
                    cell = cells[c] = (f"{d.format() if d is not None else c.format()}\t"
                                       f"{str(ok).lower()}\n")
                rows.append(f"{head}{nz}\t{cell}")
        columns.append("".join(rows))
    return "".join(columns)


def cmd_structure(args) -> int:
    from .coxeter import enumerate_elements

    graph = _load_graph(args)
    bound = _resolve_bound(args, graph, whole_group=args.kl_constants)
    if args.kl_constants:
        hk = _oracle(args, graph)
        text = _structure_text(list(enumerate_elements(graph, bound)), lambda x, y: {
            z: c for z, c in hk.kl_mul(x, y).items() if z.is_fully_commutative()})
    else:
        from .tl import TLAlgebra
        alg = TLAlgebra.for_graph(graph)
        text = _structure_text(list(enumerate_elements(graph, bound, fc_only=True)), alg.c_mul)
    _emit(args, text)
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
        code = 2 if isinstance(exc, FileNotFoundError) else getattr(exc, "exit_code", None)
        if code == 2:
            print(f"error: {exc}", file=sys.stderr)
        elif code == 3:
            print(f"internal consistency failure: {exc}", file=sys.stderr)
        else:
            raise
        return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
