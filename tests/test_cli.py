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


def test_limits_do_not_leak_between_invocations(monkeypatch, capsys):
    # presets and their algebras are shared in one process; a limit given
    # to one run must not bind the next run, which omits the flag.  Fresh
    # presets, so that the braid closures are not already memoized.
    import tlcox.coxeter as coxeter_mod

    monkeypatch.setattr(coxeter_mod, "_PRESET_CACHE", {})
    code, _, err = run_cli(capsys, "tables", "--preset", "A4", "--bound", "3",
                           "--kl", "--oracle-cap", "3")
    assert code == 2 and "cap" in err
    code, out, _ = run_cli(capsys, "tables", "--preset", "A4", "--bound", "3", "--kl")
    assert code == 0 and out.startswith("y\tw\tP\tmu\n")
    code, _, err = run_cli(capsys, "basis", "--preset", "A3", "--cap", "2")
    assert code == 2 and "cap" in err
    code, out, _ = run_cli(capsys, "basis", "--preset", "A3", "--bound", "4")
    assert code == 0 and "agree=no" not in out


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
    import tlcox.cli as cli_mod
    from tlcox.tl import InternalConsistencyError

    def boom(graph, bound):
        raise InternalConsistencyError("rigged disagreement")

    monkeypatch.setattr(cli_mod, "coeff_tables", boom)
    code, _, err = run_cli(capsys, "tables", "--preset", "A2", "--bound", "2")
    assert code == 3
    assert "internal consistency" in err


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
