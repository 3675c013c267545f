import os
import subprocess
import sys
from pathlib import Path

import pytest

from tlcox.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == "tlcox 0.1.0\n"


def test_basis_small(capsys):
    code, out, _ = run_cli(capsys, "basis", "--preset", "A2", "--bound", "3")
    assert code == 0
    blocks = out.split("\n\n")
    assert "c[1] agree=yes" in out
    assert "v^-1 * t[e]\n1 * t[1]" in out
    # five fully commutative elements
    assert out.count("agree=yes") == 5


def test_basis_a1(capsys):
    code, out, _ = run_cli(capsys, "basis", "--preset", "A1")
    assert code == 0
    assert out.count("agree=yes") == 2  # identity and the generator


def test_basis_tsv_and_outfile(tmp_path, capsys):
    target = tmp_path / "basis.tsv"
    code, out, _ = run_cli(capsys, "basis", "--preset", "A2", "--bound", "2",
                           "--format", "tsv", "--out", str(target))
    assert code == 0 and out == ""
    text = target.read_text()
    assert text.splitlines()[0] == "w\ty\tp_star\tagree"
    assert "1\te\tv^-1\tyes" in text


def test_basis_kl_dump(capsys):
    code, out, _ = run_cli(capsys, "basis", "--preset", "A2", "--bound", "3", "--kl")
    assert code == 0
    assert "C'[1 2 1]" in out
    assert "* T[" in out


def test_mu_three_methods(capsys):
    code, out, _ = run_cli(capsys, "mu", "--preset", "A3", "--bound", "6",
                           "--methods", "all")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x\ty\tmu_trace\tmu_oracle\tM_tl\tagree"
    assert all(ln.endswith("true") for ln in lines[1:])
    row = [ln for ln in lines if ln.startswith("2\t2 1 3 2\t")]
    assert row and row[0] == "2\t2 1 3 2\t1\t1\t1\ttrue"


def test_mu_subset_methods(capsys):
    code, out, _ = run_cli(capsys, "mu", "--preset", "B3", "--bound", "4",
                           "--methods", "m,oracle")
    assert code == 0
    assert "\t-\t" not in out.splitlines()[0]
    assert all(ln.split("\t")[2] == "-" for ln in out.splitlines()[1:])


def test_mu_trace_only(capsys):
    code, out, _ = run_cli(capsys, "mu", "--preset", "A2", "--bound", "3",
                           "--methods", "trace")
    assert code == 0
    row = [ln for ln in out.splitlines() if ln.startswith("e\t1\t")][0]
    assert row == "e\t1\t1\t-\t-\ttrue"


def test_mu_rejects_bad_methods(capsys):
    code, _, err = run_cli(capsys, "mu", "--preset", "A2", "--methods", "magic")
    assert code == 2
    assert "methods" in err


def test_verify_f_holds(capsys):
    code, out, _ = run_cli(capsys, "verify", "F", "--preset", "A4", "--bound", "10")
    assert code == 0
    assert out.rstrip().endswith("HOLDS")


def test_verify_s_fails_with_witness(capsys):
    code, out, _ = run_cli(capsys, "verify", "S", "--preset", "D4", "--bound", "7")
    assert code == 1
    assert "FAILS witness=1 3 2 4 2 1 3" in out


def test_verify_w_holds(capsys):
    code, out, _ = run_cli(capsys, "verify", "W", "--preset", "A2", "--bound", "3")
    assert code == 0
    assert "HOLDS" in out


def test_verify_b_builtin(capsys):
    code, out, _ = run_cli(capsys, "verify", "B", "--preset", "A3", "--bound", "6")
    assert code == 0
    assert "adjointness: PASS" in out
    assert out.rstrip().endswith("HOLDS")


def test_verify_b_needs_trace_for_non_path(capsys):
    code, _, err = run_cli(capsys, "verify", "B", "--preset", "B2", "--bound", "4")
    assert code == 2
    assert "--trace" in err


def test_verify_b_with_corrupt_table(tmp_path, capsys):
    table = tmp_path / "trace.txt"
    table.write_text(
        "e : v^-3 + 3v^-1 + 3v + v^3\n"  # not the right identity value
        "1 : v^-2\n2 : v^-2\n1 2 : v^-1\n2 1 : v^-1\n")
    code, out, _ = run_cli(capsys, "verify", "B", "--preset", "A2", "--bound", "3",
                           "--trace", str(table))
    assert code == 1
    assert "FAILS witness=" in out


def test_verify_b_names_the_shortest_of_several_gaps(tmp_path, capsys):
    # the trace values are read shortest first, before any check: of several
    # missing values the error names the first in enumeration order
    from tlcox.coxeter import enumerate_elements, preset as p
    from tlcox.trace import builtin_trace

    g = p("A3")
    tr = builtin_trace(g)
    table = tmp_path / "gaps.txt"
    table.write_text("".join(f"{w.format()} : {tr.tau_c(w).format()}\n"
                             for w in enumerate_elements(g, 6, fc_only=True)
                             if w.format() not in ("1 2", "3")))
    code, out, err = run_cli(capsys, "verify", "B", "--preset", "A3", "--bound", "1",
                             "--trace", str(table))
    assert code == 2
    assert out == ""
    assert err == "error: 'trace table has no value at 3'\n"


def test_structure_dihedral(capsys):
    code, out, _ = run_cli(capsys, "structure", "--preset", "A2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x\ty\tz\tcoeff\tnonneg"
    assert "1\t1\t1\td\ttrue" in lines
    assert "1\t2 1\t1\t1\ttrue" in lines
    assert all(ln.endswith("true") for ln in lines[1:])


def test_structure_kl_constants(capsys):
    code, out, _ = run_cli(capsys, "structure", "--preset", "A2", "--kl-constants")
    assert code == 0
    assert all(ln.endswith("true") for ln in out.splitlines()[1:])


def structure_row_by_row(name, kl_constants=False):
    """`structure --preset NAME` over the whole finite group, every row
    rendered on its own (names and the d-expansion of the constant): the
    reference for the CLI's renderer, which renders each distinct value
    once."""
    import math

    from tlcox.coxeter import enumerate_elements, format_element, group_order, preset as p
    from tlcox.hecke import HeckeAlgebra
    from tlcox.tl import TLAlgebra

    g = p(name)
    bound = group_order(g, math.inf)[1]
    if kl_constants:
        els, product = list(enumerate_elements(g, bound)), HeckeAlgebra(g).kl_mul
    else:
        els, product = list(enumerate_elements(g, bound, fc_only=True)), TLAlgebra(g).c_mul
    lines = ["x\ty\tz\tcoeff\tnonneg"]
    for x in els:
        for y in els:
            for z, c in sorted(product(x, y).items()):
                if not z.is_fully_commutative():
                    continue
                d = c.to_delta_basis()
                cell = d.format() if d is not None else c.format()
                ok = d is not None and d.is_nonneg()
                lines.append(f"{format_element(x)}\t{format_element(y)}\t"
                             f"{format_element(z)}\t{cell}\t{str(ok).lower()}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name,kl", [("B3", False), ("H3", False), ("A4", False),
                                     ("A3", True)])
def test_structure_matches_the_row_by_row_renderer(name, kl, capsys):
    flags = ("--kl-constants",) if kl else ()
    code, out, err = run_cli(capsys, "structure", "--preset", name, *flags)
    assert code == 0 and err == ""
    assert out == structure_row_by_row(name, kl)


def kl_tables_row_by_row(tables):
    """`KLTables.dump_tsv` with every row rendered on its own: the reference
    for the renderer, which renders each distinct cell once."""
    from tlcox.coxeter import format_element
    from tlcox.hecke import format_q

    pos = {w: i for i, w in enumerate(tables.elements)}
    names = [format_element(w) for w in tables.elements]
    lines = ["y\tw\tP\tmu"]
    for w, col in tables.columns.items():
        head, lw = names[pos[w]], len(w.word)
        for i in sorted(map(pos.__getitem__, col)):
            y = tables.elements[i]
            lines.append(f"{names[i]}\t{head}\t{format_q(col[y], lw - len(y.word))}\t"
                         f"{col[y].coeff(-1)}")
    return "\n".join(lines) + "\n"


def coeff_tables_row_by_row(tables):
    """`CoeffTables.dump_tsv` with every row rendered on its own."""
    from tlcox.coxeter import format_element
    from tlcox.laurent import ZERO, format_terms

    pos = {w: i for i, w in enumerate(tables.elements)}
    names = [format_element(w) for w in tables.elements]
    lines = ["y\tw\tp_star\tq_star\tM"]
    for w, head in zip(tables.elements, names):
        pcol, qcol, lw = tables.p_columns[w], tables.q_columns[w], len(w.word)
        for i in sorted(map(pos.__getitem__, pcol.keys() | qcol.keys())):
            y = tables.elements[i]
            p, shift = pcol.get(y, ZERO), len(y.word) - lw
            q = sorted(((e + shift, c) for e, c in qcol.get(y, ZERO).items()), reverse=True)
            lines.append(f"{names[i]}\t{head}\t{p.format()}\t{format_terms(q, 'v')}\t"
                         f"{p.coeff(-1)}")
    return "\n".join(lines) + "\n"


RANK4_INF_5_4 = "rank 4\nedge 1 2 inf\nedge 2 3 5\nedge 3 4 4\n"


@pytest.mark.parametrize("graph,bound,kl", [
    ("A4", None, True), ("B3", None, True), ("D4", None, True), ("B4", None, False),
    ("H3", None, False), ("~C3", 7, False), ("rank4", 7, False),
])
def test_tables_match_the_row_by_row_renderers(graph, bound, kl, tmp_path, capsys):
    import math

    from tlcox.coxeter import group_order, parse_graph, preset as p
    from tlcox.hecke import kl_tables
    from tlcox.tl import coeff_tables

    if graph == "rank4":
        path = tmp_path / "g.txt"
        path.write_text(RANK4_INF_5_4)
        argv, g = ["--graph", str(path)], parse_graph(RANK4_INF_5_4)
    else:
        argv, g = ["--preset", graph], p(graph)
    if bound is None:
        bound = group_order(g, math.inf)[1]
    else:
        argv += ["--bound", str(bound)]
    code, out, err = run_cli(capsys, "tables", *argv, *(["--kl"] if kl else []))
    assert code == 0 and err == ""
    if kl:
        assert out == kl_tables_row_by_row(kl_tables(g, bound))
    else:
        assert out == coeff_tables_row_by_row(coeff_tables(g, bound))


@pytest.mark.parametrize("name", ["A3", "B3", "H3", "A4"])
def test_kl_constants_equal_the_quotient_constants(name, capsys):
    # on these graphs the oracle's constants at fully commutative z are the
    # quotient's, so the two products print the same bytes
    kl = run_cli(capsys, "structure", "--preset", name, "--kl-constants")
    assert kl == run_cli(capsys, "structure", "--preset", name)
    assert kl[0] == 0


def test_kl_constants_bytes_on_d4(capsys):
    # D4 is where the oracle's constants and the quotient's differ
    import hashlib

    code, out, err = run_cli(capsys, "structure", "--preset", "D4", "--kl-constants")
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == \
        "c0bf76470439cba8b40fcfdaffd1c0711bd71791791c85308e1d3be9a58a9e46"


def test_tables_and_kl_tables(capsys):
    code, out, _ = run_cli(capsys, "tables", "--preset", "A2", "--bound", "3")
    assert code == 0
    assert out.splitlines()[0] == "y\tw\tp_star\tq_star\tM"
    code, out, _ = run_cli(capsys, "tables", "--preset", "A2", "--bound", "3", "--kl")
    assert code == 0
    assert out.splitlines()[0] == "y\tw\tP\tmu"
    assert any("q + 1" in ln for ln in run_cli(
        capsys, "tables", "--preset", "A3", "--kl")[1].splitlines())


def test_graph_file_input(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("rank 2\nedge 1 2 4\n")
    code, out, _ = run_cli(capsys, "verify", "F", "--graph", str(path), "--bound", "4")
    assert code == 0


def test_config_errors(tmp_path, capsys):
    code, _, err = run_cli(capsys, "basis", "--bound", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "basis", "--preset", "nosuch", "--bound", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "basis", "--preset", "~A2")
    assert code == 2 and "bound" in err
    bad = tmp_path / "bad.txt"
    bad.write_text("rank 2\nedge 1 2 2\n")
    code, _, err = run_cli(capsys, "verify", "F", "--graph", str(bad), "--bound", "2")
    assert code == 2


def test_fully_commutative_commands_skip_the_group_cap(capsys):
    # E6 has 51,840 elements, past the group cap, but F reads only its 662
    # fully commutative elements; the whole-group checks still refuse it
    code, out, _ = run_cli(capsys, "verify", "F", "--preset", "E6")
    assert code == 0
    assert run_cli(capsys, "verify", "F", "--preset", "E6", "--bound", "36") == (0, out, "")
    code, _, err = run_cli(capsys, "verify", "S", "--preset", "E6")
    assert code == 2 and "--bound" in err


def test_removed_cap_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["tables", "--preset", "A3", "--cap", "2"])
    assert exc.value.code == 2


def test_limits_do_not_leak_between_invocations(capsys):
    # a limit given to one run must not bind the next run, which omits the
    # flag
    code, _, err = run_cli(capsys, "tables", "--preset", "A4", "--bound", "3",
                           "--kl", "--oracle-cap", "3")
    assert code == 2 and "cap" in err
    code, out, _ = run_cli(capsys, "tables", "--preset", "A4", "--bound", "3", "--kl")
    assert code == 0 and out.startswith("y\tw\tP\tmu\n")


def test_back_to_back_runs_keep_nothing(monkeypatch, capsys):
    # each run owns its graph, and with it every element and algebra it
    # built: none of them outlives the run
    import gc

    import tlcox.coxeter
    from tlcox.coxeter import CoxeterGraph, GroupElement
    from tlcox.hecke import HeckeAlgebra
    from tlcox.tl import TLAlgebra

    graph_ids = []
    # the CLI imports preset from tlcox.coxeter when the command runs
    original = tlcox.coxeter.preset
    monkeypatch.setattr(tlcox.coxeter, "preset",
                        lambda name: graph_ids.append(id(g := original(name))) or g)

    def left_over(graph_id):
        gc.collect()
        return [o for o in gc.get_objects()
                if isinstance(o, CoxeterGraph) and id(o) == graph_id
                or isinstance(o, (GroupElement, TLAlgebra, HeckeAlgebra))
                and id(o.graph) == graph_id]

    gc.collect()
    before = sum(isinstance(o, GroupElement) for o in gc.get_objects())
    code, out, _ = run_cli(capsys, "tables", "--preset", "F4", "--bound", "6", "--kl")
    assert code == 0 and out.startswith("y\tw\tP\tmu\n")
    assert left_over(graph_ids[0]) == []
    code, out, _ = run_cli(capsys, "tables", "--preset", "B4")
    assert code == 0 and out.startswith("y\tw\tp_star\tq_star\tM\n")
    assert left_over(graph_ids[1]) == [] and len(graph_ids) == 2
    assert sum(isinstance(o, GroupElement) for o in gc.get_objects()) == before


@pytest.mark.parametrize("argv", [
    ("mu", "--preset", "A4", "--bound", "3", "--methods", "m,oracle"),
    ("basis", "--preset", "A4", "--bound", "3", "--kl"),
    ("structure", "--preset", "A4", "--bound", "3", "--kl-constants"),
])
def test_oracle_cap_binds_every_oracle_command_once(argv, capsys):
    # every run starts from an empty oracle memo, so the cap is reached
    code, _, err = run_cli(capsys, *argv, "--oracle-cap", "3")
    assert code == 2 and "cap" in err
    code, _, _ = run_cli(capsys, *argv)
    assert code == 0


def test_mu_trace_refuses_non_bipartite(tmp_path, capsys):
    table = tmp_path / "t.txt"
    table.write_text("e : 1\n")
    code, _, err = run_cli(capsys, "mu", "--preset", "~A2", "--bound", "2",
                           "--methods", "trace", "--trace", str(table))
    assert code == 2
    assert "2-colorable" in err


def test_determinism(capsys):
    _, out1, _ = run_cli(capsys, "mu", "--preset", "A3", "--bound", "4",
                         "--methods", "m,oracle")
    _, out2, _ = run_cli(capsys, "mu", "--preset", "A3", "--bound", "4",
                         "--methods", "m,oracle")
    assert out1 == out2


def test_internal_consistency_exit_code(monkeypatch, capsys):
    # the CLI imports coeff_tables from tlcox.tl when the command runs
    import tlcox.tl as tl_mod
    from tlcox.tl import InternalConsistencyError

    def boom(graph, bound):
        raise InternalConsistencyError("rigged disagreement")

    monkeypatch.setattr(tl_mod, "coeff_tables", boom)
    code, _, err = run_cli(capsys, "tables", "--preset", "A2", "--bound", "2")
    assert code == 3
    assert "internal consistency" in err


# (files written to the working directory, argv, exit code, stderr): one
# real failure per error class the CLI maps to an exit code, each raised
# where it arises, and a --graph file that does not exist
FAILURES = {
    "ConfigError": ({}, ("verify", "S", "--preset", "~A2"), 2,
                    "error: group is infinite or larger than 50000 elements; "
                    "an explicit --bound is required\n"),
    "GraphError": ({}, ("basis", "--preset", "nosuch", "--bound", "2"), 2,
                   "error: unknown preset 'nosuch'\n"),
    "FileNotFoundError": ({}, ("verify", "F", "--graph", "nofile.txt", "--bound", "2"), 2,
                          "error: [Errno 2] No such file or directory: 'nofile.txt'\n"),
    "TraceTableError": ({"t.txt": "e 1\n"},
                        ("verify", "B", "--preset", "A2", "--bound", "2", "--trace", "t.txt"),
                        2, "error: line 1: missing ':'\n"),
    "TraceGapError": ({"t.txt": "e : 1\n"},
                      ("verify", "B", "--preset", "A3", "--bound", "1", "--trace", "t.txt"),
                      2, "error: 'trace table has no value at 1'\n"),
    "NonBipartiteGraph": ({"t.txt": "e : 1\n"},
                          ("mu", "--preset", "~A2", "--bound", "2", "--methods", "trace",
                           "--trace", "t.txt"),
                          2, "error: the v^-1 extraction is only valid over 2-colorable "
                             "graphs\n"),
    "OracleCapExceeded": ({}, ("tables", "--preset", "A4", "--bound", "3", "--kl",
                               "--oracle-cap", "3"),
                          2, "error: oracle support of 29 elements exceeds the cap 3\n"),
}


@pytest.mark.parametrize("name", list(FAILURES))
def test_every_failure_reaches_its_exit_code(name, tmp_path, monkeypatch, capsys):
    files, argv, code, err = FAILURES[name]
    for file, text in files.items():
        (tmp_path / file).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_cli(capsys, *argv) == (code, "", err)


def test_canonical_recursion_failure_exit_code(monkeypatch, capsys):
    # `basis` compares the two canonical-basis routes, so a refusal of the
    # length recursion is not caught on the way to the CLI
    refused = refuse_recursion_from_length_3(monkeypatch)
    assert run_cli(capsys, "basis", "--preset", "B3") == (
        3, "", "internal consistency failure: rigged refusal\n")
    assert refused


# error class -> (defining module, exit code)
EXIT_CODES = {
    "ConfigError": ("cli", 2), "GraphError": ("coxeter", 2), "TraceTableError": ("trace", 2),
    "TraceGapError": ("trace", 2), "NonBipartiteGraph": ("trace", 2),
    "OracleCapExceeded": ("hecke", 2), "InternalConsistencyError": ("tl", 3),
    "CanonicalRecursionError": ("tl", 3),
}


@pytest.mark.parametrize("name", list(EXIT_CODES))
def test_exit_code_of_each_error_class(name, monkeypatch, capsys):
    # the CLI reads the exit code off the class (`exit_code`)
    import importlib

    import tlcox.tl

    module, code = EXIT_CODES[name]
    exc_type = getattr(importlib.import_module(f"tlcox.{module}"), name)

    def fail(graph, bound):
        raise exc_type("rigged")

    monkeypatch.setattr(tlcox.tl, "coeff_tables", fail)
    message = "'rigged'" if name == "TraceGapError" else "rigged"  # a KeyError quotes
    prefix = "internal consistency failure" if code == 3 else "error"
    assert run_cli(capsys, "tables", "--preset", "A2", "--bound", "2") == (
        code, "", f"{prefix}: {message}\n")


def test_other_exceptions_propagate(monkeypatch):
    import tlcox.tl

    def fail(graph, bound):
        raise ValueError("rigged")

    monkeypatch.setattr(tlcox.tl, "coeff_tables", fail)
    with pytest.raises(ValueError, match="rigged"):
        main(["tables", "--preset", "A2", "--bound", "2"])


def test_trace_commands_leave_no_evaluator_behind(tmp_path, capsys, monkeypatch):
    # every run loads its own trace source and builds its own evaluators;
    # there is no registry to keep them, and none outlives the run
    import gc
    import weakref

    from tlcox.coxeter import enumerate_elements, preset as p
    from tlcox.trace import TraceEvaluator, builtin_trace

    assert not any(isinstance(v, dict) for v in vars(TraceEvaluator).values())
    assert not hasattr(TraceEvaluator, "for_source")
    built = []
    original = TraceEvaluator.__init__

    def spy(self, *args):
        original(self, *args)
        built.append(weakref.ref(self))

    monkeypatch.setattr(TraceEvaluator, "__init__", spy)
    g = p("A2")
    tr = builtin_trace(g)
    lines = [f"{w.format()} : {tr.tau_c(w).format()}"
             for w in enumerate_elements(g, 3, fc_only=True)]
    table = tmp_path / "a2.txt"
    table.write_text("\n".join(lines).replace("e : ", "e : v^-1 + ", 1) + "\n")
    code, out, _ = run_cli(capsys, "verify", "B", "--preset", "A3")
    assert code == 0 and out.endswith("HOLDS\n")
    code, out, _ = run_cli(capsys, "verify", "B", "--preset", "A2", "--trace", str(table))
    assert code == 0 and "trace=a2.txt+homogenized" in out
    code, _, _ = run_cli(capsys, "mu", "--preset", "A3", "--methods", "trace")
    assert code == 0
    gc.collect()
    assert len(built) == 3 and all(ref() is None for ref in built)


B4_TABLES_SHA256 = "c86bb4d81e8d851dba127ed6eac0443ecc1b6bb5c3df4f59096a1e8fc9ff726a"


def refuse_recursion_from_length_3(monkeypatch):
    """Rig the length recursion to refuse every element of length >= 3 on a
    fresh algebra; returns the list of refused elements."""
    from tlcox.tl import CanonicalRecursionError, TLAlgebra

    original = TLAlgebra.cbasis_recursive
    refused = []

    def refuse_long(self, w):
        if w.length >= 3:
            refused.append(w)
            raise CanonicalRecursionError("rigged refusal")
        return original(self, w)

    monkeypatch.setattr(TLAlgebra, "cbasis_recursive", refuse_long)
    return refused


def test_tables_fall_back_to_the_bar_solve(monkeypatch, capsys):
    # the length recursion refuses part way through the table: p* comes from
    # the bar-solve from then on, with the same bytes and exit code
    import hashlib

    refused = refuse_recursion_from_length_3(monkeypatch)
    code, out, err = run_cli(capsys, "tables", "--preset", "B4")
    assert code == 0 and err == "" and refused
    assert hashlib.sha256(out.encode()).hexdigest() == B4_TABLES_SHA256


# the digests of these invocations in the benchmark
PRODUCT_DIGESTS = {
    ("structure", "--preset", "B4", "--bound", "5"):
        "a61d47daf46585a0ed42d615424d5ac166dd1bae08cb8716401f94f88c371f09",
    ("mu", "--preset", "A4", "--methods", "all"):
        "80c368d06a708539663daebd70aebeb612ec72635c466961387a7f6cbf5dcb65",
    ("verify", "B", "--preset", "A4"):
        "16460b07c4e071bf0a1b010dcf831eff04313f9cf8cc8a55f304855ada48bc3a",
    ("structure", "--preset", "H3"):
        "957bbd2dc1a6653e3ca0ffda3b21b41440d6e25ae87f4326954dbfef718e7928",
}


@pytest.mark.parametrize("argv", sorted(PRODUCT_DIGESTS))
def test_products_fall_back_to_the_bar_solve(argv, monkeypatch, capsys):
    # the length recursion refuses part way: canonical coordinates come from
    # the bar-solve from then on, with the same bytes and exit code
    import hashlib

    refused = refuse_recursion_from_length_3(monkeypatch)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0 and err == "" and refused
    assert hashlib.sha256(out.encode()).hexdigest() == PRODUCT_DIGESTS[argv]


@pytest.mark.parametrize("argv", [
    ("structure", "--preset", "B3"), ("mu", "--preset", "A4", "--methods", "all"),
    ("verify", "B", "--preset", "A4"), ("tables", "--preset", "B4"),
])
def test_products_traces_and_tables_never_bar_solve(argv, monkeypatch, capsys):
    import tlcox.tl

    def no_bar_solve(w, bar_expand):
        raise AssertionError("bar-solve called")

    monkeypatch.setattr(tlcox.tl, "bar_solve", no_bar_solve)
    code, _, err = run_cli(capsys, *argv)
    assert code == 0 and err == ""


def test_tables_name_the_first_pair_where_the_q_routes_disagree(monkeypatch, capsys):
    from tlcox.coxeter import enumerate_elements, format_element, preset as p
    from tlcox.laurent import ONE, ZERO, LaurentPoly
    from tlcox.tl import TLAlgebra, coeff_tables

    g = p("B4")
    fc = list(enumerate_elements(g, 16, fc_only=True))
    inverted = {(y, w): LaurentPoly.v(y.length - w.length) * q
                for w, col in coeff_tables(g, 16).q_columns.items() for y, q in col.items()}
    # two wrong entries in one column, the first and the last below w0
    w0 = fc[len(fc) // 2]
    below = sorted(x for x in TLAlgebra(g).q_column(w0) if x != w0)
    original = TLAlgebra.q_column

    def perturbed(self, w):
        col = original(self, w)
        if w == w0:
            col = dict(col)
            for x in (below[0], below[-1]):
                col[x] = col[x] + ONE
        return col

    monkeypatch.setattr(TLAlgebra, "q_column", perturbed)
    code, _, err = run_cli(capsys, "tables", "--preset", "B4")
    assert code == 3
    # the witness of the pair-by-pair scan: the first w, then the first y
    alg = TLAlgebra(g)

    def recursive(y, w):
        return LaurentPoly.v(y.length - w.length) * alg.q_poly(y, w)

    y, w = next((y, w) for w in fc for y in fc if y.length <= w.length
                and recursive(y, w) != inverted.get((y, w), ZERO))
    assert (y, w) == (below[0], w0) and len(below) > 1
    assert err == (
        f"internal consistency failure: q*({format_element(y)}, {format_element(w)}): "
        f"matrix inversion gives {inverted.get((y, w), ZERO).format()} but the "
        f"recursion gives {recursive(y, w).format()}\n")


def test_tables_name_the_first_pair_where_the_v_inverse_coefficients_disagree(monkeypatch,
                                                                              capsys):
    # P Q = I rigged to pass, so the v^-1 agreement is the check that fails:
    # one q entry is perturbed in each of two columns, and the first column
    # in FC order names the pair
    import tlcox.tl
    from tlcox.coxeter import enumerate_elements, format_element, preset as p
    from tlcox.laurent import ZERO, LaurentPoly
    from tlcox.tl import TLAlgebra

    g = p("B4")
    fc = list(enumerate_elements(g, 16, fc_only=True))
    alg = TLAlgebra(g)
    w0, w1 = fc[len(fc) // 2], fc[-1]
    y0, y1 = (min(y for y in alg.canonical(w) if y != w) for w in (w0, w1))
    original = TLAlgebra.q_column

    def perturbed(self, w):
        col = original(self, w)
        for y, wp in ((y0, w0), (y1, w1)):
            if w == wp:
                col = dict(col)
                col[y] = col.get(y, ZERO) + LaurentPoly.v(w.length - y.length - 1)
        return col

    monkeypatch.setattr(tlcox.tl, "_first_unreconciled", lambda *args: None)
    monkeypatch.setattr(TLAlgebra, "q_column", perturbed)
    code, out, err = run_cli(capsys, "tables", "--preset", "B4")
    assert code == 3 and out == ""
    assert err == (f"internal consistency failure: v^-1 coefficients of p* and q* disagree "
                   f"at ({format_element(y0)}, {format_element(w0)})\n")


def child_env():
    """The environment of a child interpreter that imports the same package
    as this process, installed or not."""
    import tlcox

    src = str(Path(tlcox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_algebra_module():
    script = (
        "import sys, tlcox.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('tlcox')))\n"
        "import tlcox\n"
        "print([n for n in tlcox.__all__ if getattr(tlcox, n, None) is None])\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['tlcox', 'tlcox.cli']\n[]\n"


INVENTORY_SCRIPT = """\
import contextlib, io, sys
from tlcox.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
print(code, *sorted(m for m in sys.modules if m.startswith("tlcox")))
"""

TL_MODULES = ("cli", "coxeter", "laurent", "stars", "tl")

# argv -> (exit code, the tlcox modules a fresh interpreter holds after main):
# the start-up paths, a configuration error, and the benchmark's invocations
MODULE_INVENTORY = {
    ("--version",): (0, ("cli",)),
    ("tables", "--help"): (0, ("cli",)),
    ("verify", "S", "--preset", "~A2"): (2, ("cli", "coxeter")),
    ("tables", "--preset", "B4"): (0, TL_MODULES),
    ("tables", "--preset", "~C3", "--bound", "9"): (0, TL_MODULES),
    ("tables", "--preset", "D4", "--kl"): (0, (*TL_MODULES, "hecke")),
    ("verify", "S", "--preset", "D5", "--bound", "10"): (1, ("cli", "coxeter", "stars")),
    ("verify", "W", "--preset", "D5", "--bound", "9"): (0, TL_MODULES),
    ("structure", "--preset", "B4", "--bound", "5"): (0, TL_MODULES),
    ("structure", "--preset", "H3"): (0, TL_MODULES),
    ("mu", "--preset", "A4", "--methods", "all"): (0, (*TL_MODULES, "hecke", "trace")),
    ("verify", "B", "--preset", "A4"): (0, (*TL_MODULES, "trace")),
}


@pytest.mark.parametrize("argv", list(MODULE_INVENTORY), ids=" ".join)
def test_invocation_module_inventory(argv):
    # a command compiles only the modules it runs: start-up, --help and
    # usage errors load no engine module, and main picks an exit code
    # without importing one
    proc = subprocess.run([sys.executable, "-c", INVENTORY_SCRIPT, *argv],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    code, modules = MODULE_INVENTORY[argv]
    want = ["tlcox", *sorted(f"tlcox.{m}" for m in modules)]
    assert proc.stdout.split() == [str(code), *want]


def test_package_import_loads_no_dataclasses_or_inspect():
    # every invocation pays for what the package imports: `dataclasses`
    # alone brings in `inspect`, `ast`, `dis` and `tokenize`
    script = (
        "import sys, tlcox.cli, tlcox.tl, tlcox.trace, tlcox.hecke\n"
        "print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_runs_leave_every_module_level_container_as_it_was(capsys):
    # there is no process-global state: every memo lives on the algebra of one
    # graph object, so no list, dict or set at module level grows with use
    import importlib
    import pkgutil

    import tlcox

    modules = [tlcox] + [importlib.import_module(f"tlcox.{m.name}")
                         for m in pkgutil.iter_modules(tlcox.__path__)]

    def sizes():
        return {(mod.__name__, name): len(value) for mod in modules
                for name, value in vars(mod).items()
                if isinstance(value, (list, dict, set)) and name != "__builtins__"}

    before = sizes()
    importlib.import_module("tlcox.laurent").delta_power(64)
    for argv in (["structure", "--preset", "A3"], ["mu", "--preset", "A3", "--methods", "all"],
                 ["verify", "B", "--preset", "A3"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert sizes() == before


def memo_names(obj) -> set[str]:
    """The dict-valued attributes of an object, slots included: its memos."""
    attrs = vars(obj) if hasattr(obj, "__dict__") else {
        name: getattr(obj, name) for name in type(obj).__slots__}
    return {name for name, value in attrs.items() if isinstance(value, dict)}


def test_memo_inventory(monkeypatch, capsys):
    # every memo a run can keep, by owner: the graph, its algebras and the
    # trace objects.  None keeps what nothing reads twice: the Bruhat pairs,
    # the right generator action, the alternating products and the diagrams
    # are recomputed
    import tlcox.coxeter
    from tlcox.coxeter import preset as p
    from tlcox.tl import dihedral_cbasis
    from tlcox.trace import BuiltinTrace, TraceEvaluator

    g = p("A3")
    monkeypatch.setattr(tlcox.coxeter, "preset", lambda name: g)
    built = []
    for cls in (TraceEvaluator, BuiltinTrace):
        def spy(self, *args, _original=cls.__init__):
            _original(self, *args)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", spy)
    for argv in (["verify", "B", "--preset", "A3"], ["mu", "--preset", "A3", "--methods", "all"],
                 ["structure", "--preset", "A3", "--kl-constants"]):
        assert main(argv) == 0, argv
    capsys.readouterr()
    assert g.bruhat_leq(g.element([1]), g.element([0, 1, 2, 1]))
    d = p("I2(5)")
    dihedral_cbasis(d, 2)
    inventory: dict[str, set[str]] = {}
    for obj in (g, d, *g.algebras.values(), *d.algebras.values(), *built):
        inventory.setdefault(type(obj).__name__, set()).update(memo_names(obj))
    assert inventory == {
        "CoxeterGraph": {"_words", "_elements", "_fc", "_descents", "algebras"},
        "TLAlgebra": {"_bar", "_cmul", "_lgen", "_expand", "_cbasis", "_cbasis_rec",
                      "_cgen", "_qcol", "_qmu"},
        "HeckeAlgebra": {"_bar", "_cmul", "_kl", "_cgen"},
        "TraceEvaluator": {"_tau_t", "_form"},
        "BuiltinTrace": {"_tau_c"},
    }


def test_trace_evaluation_helper():
    from tlcox.laurent import ONE, LaurentPoly, delta_power
    from tlcox.trace import TraceEvaluator, builtin_trace
    from tlcox.coxeter import preset as p

    g = p("A3")
    ev = TraceEvaluator(g, builtin_trace(g))
    assert ev.tau_of_t_coords({g.identity: ONE}) == LaurentPoly.v(-4) * delta_power(4)


def test_readme_library_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```")[0]
    proc = subprocess.run([sys.executable, "-c", block],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "1"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "tlcox.cli", "--version"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert "tlcox" in proc.stdout
