"""Acceptance suite: one test per criterion, exact equality throughout.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion (a failed criterion shows up as the pytest failure line).
"""

import time

import pytest

from tlcox.cli import main
from tlcox.coxeter import enumerate_elements, preset
from tlcox.hecke import HeckeAlgebra, kl_tables
from tlcox.laurent import ONE, ZERO, LaurentPoly, delta_power
from tlcox.library import bruhat_leq, coset_decompose
from tlcox.stars import (
    check_property_S,
    k_epsilon,
    n_stat,
    star,
)
from tlcox.tl import TLAlgebra, coeff_tables
from tlcox.trace import (
    NonBipartiteGraph,
    TraceEvaluator,
    TraceTable,
    bipartite_coloring,
    builtin_trace,
    mu_from_trace,
    verify_property_B,
)

V = LaurentPoly.v


def _passed(n: int, text: str) -> None:
    print(f"[criterion {n:2d}] PASS: {text}")


def fc_elements(g, bound: int):
    return list(enumerate_elements(g, bound, fc_only=True))


def test_criterion_01_worked_diagram_example():
    started = time.monotonic()
    g = preset("A3")
    x = g.element((1,))
    y = g.element((1, 0, 2, 1))
    src = builtin_trace(g)
    ev = TraceEvaluator(g, src)
    assert ev.form_cc(x, y) == V(-4) * delta_power(3)
    assert mu_from_trace(x, y, src) == 1
    tables = kl_tables(g, 6)
    assert tables.polynomial(x, y) == LaurentPoly({2: 1, 0: 1})  # 1 + q
    elapsed = time.monotonic() - started
    assert elapsed < 1.0
    _passed(1, f"trace value v^-4(v+v^-1)^3, mu 1, polynomial 1+q ({elapsed:.3f}s)")


@pytest.mark.parametrize(
    "name,bound",
    [("A3", 6), ("A4", 10), ("B3", 9), ("D4", 12), ("H3", 10),
     ("I2(5)", 5), ("I2(6)", 6), ("I2(7)", 7)],
)
def test_criterion_02_m_equals_mu(name, bound):
    g = preset(name)
    tl = TLAlgebra.for_graph(g)
    oracle = HeckeAlgebra.for_graph(g)
    fc = fc_elements(g, bound)
    for w in fc:
        for x in fc:
            assert tl.m_coeff(x, w) == oracle.mu(x, w), (name, x, w)
    _passed(2, f"M = mu on all {len(fc)}^2 fully commutative pairs of {name}")


@pytest.mark.parametrize("name,rows", [("D5", 14028), ("B5", 43071)])
def test_criterion_02_m_equals_mu_on_whole_groups(name, rows, capsys):
    # the CLI's mu table on every fully commutative pair of the whole group
    assert main(["mu", "--preset", name, "--methods", "m,oracle"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x\ty\tmu_trace\tmu_oracle\tM_tl\tagree"
    assert len(lines) == rows + 1
    assert all(ln.endswith("\ttrue") for ln in lines[1:])
    _passed(2, f"M = mu on all {rows} fully commutative pairs of {name}")


@pytest.mark.parametrize("name,bound", [("A2", 3), ("A3", 6), ("A4", 10)])
def test_criterion_03_three_way_mu_agreement(name, bound):
    g = preset(name)
    src = builtin_trace(g)
    ev = TraceEvaluator(g, src)
    tl = TLAlgebra.for_graph(g)
    oracle = HeckeAlgebra.for_graph(g)
    fc = fc_elements(g, bound)
    for i, x in enumerate(fc):
        for y in fc[i:]:
            trace_val = ev.form_cc(x, y).coeff(-1)
            assert trace_val == oracle.mu_tilde(x, y) == tl.m_tilde(x, y), (name, x, y)
    _passed(3, f"diagram trace = oracle = quotient tables on {name}")


@pytest.mark.parametrize(
    "name,bound",
    [("A4", 10), ("B3", 9), ("D4", 12), ("H3", 8),
     ("I2(3)", 3), ("I2(4)", 4), ("I2(5)", 5), ("I2(6)", 6), ("I2(7)", 7)],
)
def test_criterion_04_structure_constant_positivity(name, bound):
    g = preset(name)
    tl = TLAlgebra.for_graph(g)
    fc = fc_elements(g, bound)
    checked = 0
    for x in fc:
        for y in fc:
            for z, c in tl.c_mul(x, y).items():
                assert c.is_nonneg_delta(), (name, x, y, z, c.format())
                checked += 1
    _passed(4, f"{checked} structure constants of {name} lie in Z>=0[d]")


@pytest.mark.parametrize(
    "name,bound",
    [("A3", 6), ("B3", 9), ("I2(3)", 3), ("I2(4)", 4), ("I2(5)", 5),
     ("I2(6)", 6), ("I2(7)", 7)],
)
def test_criterion_05_projection_on_descent_closed_types(name, bound):
    g = preset(name)
    hk = HeckeAlgebra.for_graph(g)
    tl = TLAlgebra.for_graph(g)
    for w in enumerate_elements(g, bound):
        img = hk.theta(hk.kl_basis(w))
        if w.is_fully_commutative():
            assert img == tl.cbasis(w), (name, w)
        else:
            assert img == {}, (name, w)
    _passed(5, f"projection sends every bar-invariant element of {name} as expected")


def test_criterion_05_projection_rank4_branch_case():
    g = preset("D4")
    hk = HeckeAlgebra.for_graph(g)
    tl = TLAlgebra.for_graph(g)
    for w in enumerate_elements(g, 12, fc_only=True):
        assert hk.theta(hk.kl_basis(w)) == tl.cbasis(w)
    report = check_property_S(g, 7)
    assert not report.holds
    assert g.element((0, 2, 3, 1, 0, 2, 3)) in report.failures
    _passed(5, "branch-node graph keeps the projection on the commutative part "
               "and the descent-pair search reports its length-7 witness")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_criterion_06_builtin_trace_form_properties(n):
    g = preset(f"A{n}")
    bound = n * (n + 1) // 2  # the longest element
    report = verify_property_B(g, bound, builtin_trace(g))
    assert report.holds
    text = report.render()
    for line in ("adjointness: PASS", "almost-orthonormality: PASS",
                 "homogeneity: PASS", "positivity: PASS",
                 "sharpened-orthonormality: PASS"):
        assert line in text
    _passed(6, f"built-in trace on the rank-{n} path passes all five checks")


def test_criterion_06_builtin_trace_form_on_the_whole_a5_quotient(capsys):
    # all 132 fully commutative elements, through the command line
    started = time.monotonic()
    assert main(["verify", "B", "--preset", "A5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == ["# property=B graph=A5 bound=15 trace=builtin-diagram",
                     "adjointness: PASS", "almost-orthonormality: PASS",
                     "homogeneity: PASS", "positivity: PASS",
                     "sharpened-orthonormality: PASS", "HOLDS"]
    _passed(6, f"built-in trace on the whole A5 quotient passes all five checks "
               f"({time.monotonic() - started:.1f}s)")


@pytest.mark.parametrize(
    "name,bound",
    [("A3", 6), ("A4", 10), ("B3", 9), ("D4", 12), ("H3", 10),
     ("I2(5)", 5), ("I2(6)", 6), ("I2(7)", 7)],
)
def test_criterion_07_internal_consistency(name, bound):
    g = preset(name)
    coeff_tables(g, bound)  # raises if the two q* routes disagree
    tl = TLAlgebra.for_graph(g)
    for w in enumerate_elements(g, bound, fc_only=True):
        assert tl.cbasis(w) == tl.cbasis_recursive(w), (name, w)
    _passed(7, f"both q* routes and both canonical-basis algorithms agree on {name}")


@pytest.mark.parametrize(
    "name,bound",
    [("A3", 6), ("B3", 9), ("I2(5)", 5), ("I2(6)", 6), ("I2(7)", 7)],
)
def test_criterion_08_string_recurrences_and_factorization(name, bound):
    g = preset(name)
    tl = TLAlgebra.for_graph(g)
    tables = kl_tables(g, bound)
    els = list(enumerate_elements(g, bound))
    fc = [w for w in els if w.is_fully_commutative()]

    def four_term(pairs, mt):
        count = 0
        for pair in g.noncommuting_pairs():
            for x in pairs:
                for w in pairs:
                    dx = set(pair) & g.left_descents(x)
                    dw = set(pair) & g.left_descents(w)
                    if len(dx) != 1 or len(dw) != 1 or dx == dw:
                        continue
                    moves = {lbl: star(u, pair, "left", d)
                             for u, tag in ((x, "x"), (w, "w"))
                             for d, lbl in (("down", f"{tag}dn"), ("up", f"{tag}up"))}
                    if moves["xdn"] is None and moves["xup"] is None:
                        continue
                    if moves["wdn"] is None and moves["wup"] is None:
                        continue
                    lhs = mt(moves["xdn"], w) + mt(moves["xup"], w)
                    rhs = mt(x, moves["wdn"]) + mt(x, moves["wup"])
                    assert lhs == rhs, (name, pair, x, w)
                    count += 1
        return count

    def mu_sym(a, b):
        return 0 if (a is None or b is None) else tables.mu_tilde(a, b)

    def m_sym(a, b):
        return 0 if (a is None or b is None) else tl.m_tilde(a, b)

    n_mu = four_term(els, mu_sym)
    n_m = four_term(fc, m_sym)

    # the parabolic factorization c_{w_I} c_{u w^I} = delta c_w
    from tlcox.laurent import DELTA

    n_fact = 0
    for w in fc:
        for pair in g.noncommuting_pairs():
            dec = coset_decompose(w, pair, "left")
            if dec.part_I.length == 0:
                continue
            u = dec.part_I.word[-1]
            uw = g.element((u,) + dec.rest.word)
            assert tl.c_mul(dec.part_I, uw) == {w: DELTA}, (name, w, pair)
            n_fact += 1
    _passed(8, f"{n_mu} oracle and {n_m} quotient four-term identities plus "
               f"{n_fact} factorizations hold on {name}")


@pytest.mark.parametrize("name,bound", [("A3", 6), ("A4", 10), ("B3", 9)])
def test_criterion_09_descent_statistics(name, bound):
    g = preset(name)
    eps = bipartite_coloring(g)
    assert eps is not None
    for w in enumerate_elements(g, bound, fc_only=True):
        nw = n_stat(w)
        for pair in g.noncommuting_pairs():
            for side in ("left", "right"):
                for direction in ("up", "down"):
                    img = star(w, pair, side, direction)
                    if img is not None:
                        assert n_stat(img) == nw
        if len(w.left_descents()) == nw:
            for pair in g.noncommuting_pairs():
                x = star(w, pair, "left", "down")
                if x is not None:
                    assert k_epsilon(w, eps) == -k_epsilon(x, eps)
        if w.left_descents() == w.right_descents() and len(w.left_descents()) == nw:
            assert (w.length - nw) % 2 == 0
    _passed(9, f"window statistic, sign flip and parity checks hold on {name}")


def test_criterion_09_interval_imbalance():
    g = preset("A3")
    x, w = g.element((1,)), g.element((1, 0, 2, 1))
    interval = [y for y in enumerate_elements(g, 4, fc_only=True)
                if bruhat_leq(x, y) and bruhat_leq(y, w)]
    odd = sum(1 for y in interval if y.length % 2)
    even = len(interval) - odd
    assert (odd, even) == (3, 5)
    _passed(9, "the commutative interval splits 3 odd / 5 even")


def test_criterion_10_negative_controls():
    tri = preset("~A2")
    assert bipartite_coloring(tri) is None
    table = TraceTable(tri, {tri.identity: delta_power(3)})
    with pytest.raises(NonBipartiteGraph):
        mu_from_trace(tri.identity, tri.identity, table)

    g = preset("A2")
    tr = builtin_trace(g)
    values = {w: tr.tau_c(w) for w in enumerate_elements(g, 3, fc_only=True)}
    values[g.element((0, 1))] = ONE
    corrupted = TraceTable(g, values, label="corrupt")
    report = verify_property_B(g, 3, corrupted)
    assert not report.holds
    assert report.witness is not None
    assert "FAILS witness=" in report.render()
    _passed(10, "odd cycle refused for the v^-1 extraction; corrupted table "
                "fails the form verification with a witness pair")
