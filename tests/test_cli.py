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
    assert "tlcox" in capsys.readouterr().out


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

    import tlcox.cli
    from tlcox.coxeter import CoxeterGraph, GroupElement
    from tlcox.hecke import HeckeAlgebra
    from tlcox.tl import TLAlgebra

    graph_ids = []
    original = tlcox.cli.preset
    monkeypatch.setattr(tlcox.cli, "preset",
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
    from tlcox.laurent import ONE, ZERO
    from tlcox.tl import TLAlgebra, coeff_tables

    g = p("B4")
    fc = list(enumerate_elements(g, 16, fc_only=True))
    inverted = coeff_tables(g, 16).q_star
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
    y, w = next((y, w) for w in fc for y in fc if y.length <= w.length
                and alg.q_star_recursive(y, w) != inverted.get((y, w), ZERO))
    assert (y, w) == (below[0], w0) and len(below) > 1
    assert err == (
        f"internal consistency failure: q*({format_element(y)}, {format_element(w)}): "
        f"matrix inversion gives {inverted.get((y, w), ZERO).format()} but the "
        f"recursion gives {alg.q_star_recursive(y, w).format()}\n")


def test_cli_import_loads_no_algebra_module():
    import tlcox

    src = str(Path(tlcox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys, tlcox.cli\n"
        "print(sorted(m for m in ('tlcox.hecke', 'tlcox.tl', 'tlcox.trace') "
        "if m in sys.modules))\n"
        "import tlcox\n"
        "print([n for n in tlcox.__all__ if getattr(tlcox, n, None) is None])\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n[]\n"


def test_trace_evaluation_helper():
    from tlcox.laurent import LaurentPoly, delta_power
    from tlcox.tl import TLElement
    from tlcox.trace import builtin_trace, trace_of
    from tlcox.coxeter import preset as p

    g = p("A3")
    assert trace_of(TLElement.t_basis(g.identity), builtin_trace(g)) == \
        LaurentPoly.v(-4) * delta_power(4)


def test_console_entry_point_runs():
    # the child imports the same package as this process, installed or not
    import tlcox

    src = str(Path(tlcox.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "tlcox.cli", "--version"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "tlcox" in proc.stdout
