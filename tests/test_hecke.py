import random

import pytest

from test_roots import build
from tlcox.coxeter import enumerate_elements, preset
from tlcox.hecke import (
    HeckeAlgebra,
    OracleCapExceeded,
    format_q,
    kl_tables,
)
from tlcox.laurent import DELTA, ONE, V_MINUS_VINV, ZERO, LaurentPoly
from tlcox.library import bruhat_leq, chebyshev_coeffs
from tlcox.tl import TLAlgebra, acc, bar_solve

V = LaurentPoly.v


def test_quadratic_relation_no_quotient():
    a2 = preset("A2")
    alg = HeckeAlgebra.for_graph(a2)
    s = a2.element((0,))
    assert alg.t_mul(alg.basis(s), alg.basis(s)) == {a2.identity: ONE, s: V_MINUS_VINV}
    # length-additive products stay on one basis element, complex or not
    ts = a2.element((1, 0))
    assert alg.t_mul(alg.basis(s), alg.basis(ts)) == {a2.element((0, 1, 0)): ONE}


def test_kl_basis_rank1_and_known_polynomial():
    a3 = preset("A3")
    alg = HeckeAlgebra.for_graph(a3)
    s = a3.element((0,))
    assert alg.kl_basis(s) == {s: ONE, a3.identity: V(-1)}
    x, w = a3.element((1,)), a3.element((1, 0, 2, 1))
    tables = kl_tables(a3, 6)
    assert format_q(tables.polynomial(x, w)) == "q + 1"
    assert tables.mu_coeff(x, w) == 1


def test_kl_basis_bar_invariant_and_unitriangular():
    for name in ["A3", "B2", "I2(5)"]:
        g = preset(name)
        alg = HeckeAlgebra.for_graph(g)
        for w in enumerate_elements(g, 5):
            cw = alg.kl_basis(w)
            assert alg.bar(cw) == cw
            assert cw[w] == ONE
            for y, c in cw.items():
                if y != w:
                    assert c.in_vneg()
                    assert bruhat_leq(y, w)


def test_dihedral_mu_pattern():
    for m in (5, 6, 7):
        g = preset(f"I2({m})")
        tables = kl_tables(g, m)
        for w in tables.elements:
            for y in tables.elements:
                expected = 1 if (y.length == w.length - 1 and bruhat_leq(y, w)) else 0
                assert tables.mu_tilde(y, w) == (expected or tables.mu_tilde(y, w))
                assert tables.mu_coeff(y, w) == expected


def _bar_solve_reordered(alg, w):
    """Same triangular solve as production, but equal-length support elements
    processed in the opposite order; uniqueness demands identical output."""
    from tlcox.laurent import ONE as one, ZERO as zero

    support = {w}
    stack = [w]
    while stack:
        y = stack.pop()
        for z in alg.bar_basis(y):
            if z not in support:
                support.add(z)
                stack.append(z)
    p = {}
    for z in sorted(support, key=lambda e: (-len(e.word), e.word)):
        if z == w:
            p[z] = one
            continue
        f = zero
        for y, py in p.items():
            r = alg.bar_basis(y).get(z)
            if r is not None:
                f = f + py.bar() * r
        if f.is_zero():
            continue
        part = f.neg_part()
        if part:
            p[z] = part
    return p


def test_kl_solve_order_independent():
    for name in ["A3", "B2", "I2(5)"]:
        g = preset(name)
        alg = HeckeAlgebra.for_graph(g)
        for w in enumerate_elements(g, 5):
            assert alg.kl_basis(w) == _bar_solve_reordered(alg, w)


@pytest.mark.parametrize("name,bound", [
    ("A4", 10), ("D4", 12), ("H3", 15), ("I2(5)", 5), ("I2(7)", 7), ("B4", 10),
    ("F4", 8), ("D5", 7), ("~A2", 8), ("~C3", 7), ("rank4", 6), ("bonds5,7", 7),
])
def test_kl_recursion_matches_bar_solve(name, bound):
    # the Kazhdan-Lusztig recursion against the quotient's triangular solve
    # on the full group's bar expansions; longest first, so that the
    # recursion starts cold, on a fresh graph and algebra
    g = build(name)
    alg = HeckeAlgebra(g)
    for w in reversed(list(enumerate_elements(g, bound))):
        assert alg.kl_basis(w) == bar_solve(w, alg.bar_basis), (name, w)


def test_mu_tilde_symmetric_lookup():
    a3 = preset("A3")
    tables = kl_tables(a3, 6)
    x, w = a3.element((1,)), a3.element((1, 0, 2, 1))
    assert tables.mu_tilde(x, w) == 1
    assert tables.mu_tilde(w, x) == 1
    assert tables.mu_tilde(w, w) == 0
    assert tables.mu_tilde(a3.identity, x) == 1


def test_double_generator_identity():
    # T_s T_s T_t - T_t = T_s T_t T_t - T_s for any noncommuting pair
    for name in ["A2", "B2", "I2(5)"]:
        g = preset(name)
        alg = HeckeAlgebra.for_graph(g)
        for s, t in g.noncommuting_pairs():
            lhs = alg.lmul(s, alg.lmul(s, alg.basis(g.element((t,)))))
            acc(lhs, alg.basis(g.element((t,))), -ONE)
            rhs = alg.lmul(s, alg.lmul(t, alg.basis(g.element((t,)))))
            acc(rhs, alg.basis(g.element((s,))), -ONE)
            assert lhs == rhs


def test_form_orthonormal_and_adjoint():
    g = preset("B2")
    alg = HeckeAlgebra.for_graph(g)
    els = list(enumerate_elements(g, 4))
    for x in els:
        for y in els:
            expected = ONE if x == y else ZERO
            assert alg.form(alg.basis(x), alg.basis(y)) == expected
    rng = random.Random(41)
    for _ in range(20):
        s = rng.randrange(g.rank)
        x, y = rng.choice(els), rng.choice(els)
        lhs = alg.form(alg.lmul(s, alg.basis(x)), alg.basis(y))
        rhs = alg.form(alg.basis(x), alg.lmul(s, alg.basis(y)))
        assert lhs == rhs


def test_kl_almost_orthonormal():
    g = preset("A3")
    alg = HeckeAlgebra.for_graph(g)
    els = list(enumerate_elements(g, 6))
    for w in els:
        for u in els:
            val = alg.form(alg.kl_basis(w), alg.kl_basis(u))
            if w == u:
                assert (val - ONE).in_vneg()
            else:
                assert val.in_vneg()


def test_theta_ring_homomorphism():
    g = preset("A3")
    alg = HeckeAlgebra.for_graph(g)
    els = list(enumerate_elements(g, 4))
    tl = TLAlgebra.for_graph(g)
    rng = random.Random(43)
    for _ in range(20):
        x, y = rng.choice(els), rng.choice(els)
        lhs = alg.theta(alg.t_mul(alg.basis(x), alg.basis(y)))
        rhs = tl.t_mul(alg.theta(alg.basis(x)), alg.theta(alg.basis(y)))
        assert lhs == rhs


def test_theta_examples():
    a2 = preset("A2")
    alg = HeckeAlgebra.for_graph(a2)
    tl = TLAlgebra.for_graph(a2)
    w = a2.element((1, 0))
    assert alg.theta(alg.basis(w)) == tl.basis(w)
    sts = a2.element((0, 1, 0))
    assert alg.theta(alg.kl_basis(sts)) == {}
    assert alg.in_defining_ideal(alg.kl_basis(sts))
    assert not alg.in_defining_ideal(alg.unit())


def test_theta_projects_kl_to_canonical():
    for name in ["A3", "B3", "I2(5)"]:
        g = preset(name)
        alg = HeckeAlgebra.for_graph(g)
        tl = TLAlgebra.for_graph(g)
        for w in enumerate_elements(g, 6, fc_only=True):
            assert alg.theta(alg.kl_basis(w)) == tl.cbasis(w)


@pytest.mark.parametrize("m", [3, 4, 5, 6])
def test_dihedral_kl_basis_from_chebyshev_products(m):
    # alternating products of the two generator elements, combined with the
    # three-term recurrence coefficients, sweep out the whole bar-invariant
    # basis; at the top index both starting letters give the longest element
    g = preset(f"I2({m})")
    alg = HeckeAlgebra.for_graph(g)

    def alt_product(start, n):
        out = alg.unit()
        for k in reversed(range(n)):
            gen = start if k % 2 == 0 else 1 - start
            out = alg.t_mul(alg.kl_basis(g.element((gen,))), out)
        return out

    for start in (0, 1):
        for i in range(m):
            poly = [0] + chebyshev_coeffs(i)  # x * P_i
            combo = {}
            for n, coeff in enumerate(poly):
                if coeff:
                    for w, c in alt_product(start, n).items():
                        val = combo.get(w, ZERO) + coeff * c
                        if val:
                            combo[w] = val
                        elif w in combo:
                            del combo[w]
            word = tuple((start if k % 2 == 0 else 1 - start) for k in range(i + 1))
            assert combo == alg.kl_basis(g.element(word)), (m, start, i)


def test_longest_dihedral_kl_multiple():
    # multiplying the longest dihedral bar-invariant element into a doubly
    # descending one scales it by delta * (quantum m), placing it in the ideal
    g = preset("B2")
    alg = HeckeAlgebra.for_graph(g)
    m = 4
    w_st = g.element((0, 1, 0, 1))
    x = w_st  # has both descents
    got = alg.kl_mul(w_st, x)
    quantum = LaurentPoly({m - 1 - 2 * k: 1 for k in range(m)})
    assert got == {x: DELTA * quantum}


def test_projected_generator_product_is_two_term():
    # for fully commutative w with t a descent and s not (s, t noncommuting),
    # the projected product of the bar-invariant elements collapses to the
    # images of the two string neighbors (0 when a neighbor is undefined)
    from tlcox.stars import star
    from tlcox.tl import TLAlgebra as TL, acc as _acc

    for name in ["A3", "B3", "I2(5)"]:
        g = preset(name)
        hk = HeckeAlgebra.for_graph(g)
        tl = TL.for_graph(g)
        for w in enumerate_elements(g, 6, fc_only=True):
            for pair in g.noncommuting_pairs():
                for s, t in (pair, pair[::-1]):
                    if t not in g.left_descents(w) or s in g.left_descents(w):
                        continue
                    prod = hk.t_mul(hk.kl_basis(g.element((s,))), hk.kl_basis(w))
                    lhs = hk.theta(prod)
                    rhs = {}
                    for nbr in (star(w, (s, t), "left", "up"),
                                star(w, (s, t), "left", "down")):
                        if nbr is not None:
                            _acc(rhs, tl.cbasis(nbr))
                    assert lhs == rhs, (name, s, t, w)


def test_string_recurrence_for_oracle_mu():
    from tlcox.stars import star

    for name in ["A3", "B3", "I2(5)", "I2(6)", "I2(7)"]:
        g = preset(name)
        bound = {"A3": 6, "B3": 9, "I2(5)": 5, "I2(6)": 6, "I2(7)": 7}[name]
        tables = kl_tables(g, bound)

        def mt(a, b):
            if a is None or b is None:
                return 0
            return tables.mu_tilde(a, b)

        els = tables.elements
        for pair in g.noncommuting_pairs():
            for x in els:
                for w in els:
                    sx = set(pair) & g.left_descents(x)
                    sw = set(pair) & g.left_descents(w)
                    if len(sx) != 1 or len(sw) != 1 or sx == sw:
                        continue
                    down_x = star(x, pair, "left", "down")
                    up_x = star(x, pair, "left", "up")
                    down_w = star(w, pair, "left", "down")
                    up_w = star(w, pair, "left", "up")
                    if (down_x is None and up_x is None) or (down_w is None and up_w is None):
                        continue
                    assert mt(down_x, w) + mt(up_x, w) == mt(x, down_w) + mt(x, up_w)


@pytest.mark.parametrize("name,bound", [("~A2", 6), ("~C2", 5), ("B4", 6)])
def test_quotient_tables_match_oracle_beyond_named_groups(name, bound):
    # the agreement is graph-agnostic wherever the star-reducibility and
    # depressed-rewrite properties hold, including affine graphs
    g = preset(name)
    tl = TLAlgebra.for_graph(g)
    hk = HeckeAlgebra.for_graph(g)
    fc = list(enumerate_elements(g, bound, fc_only=True))
    for w in fc:
        for x in fc:
            assert tl.m_coeff(x, w) == hk.mu(x, w)
            for z, c in tl.c_mul(x, w).items():
                assert c.is_nonneg_delta()


@pytest.mark.parametrize("name,bound", [("A3", 6), ("B3", 9)])
def test_kl_products_fc_coefficients_nonneg_delta(name, bound):
    # coefficients over fully commutative elements in products of
    # bar-invariant basis elements are nonnegative in the loop element
    g = preset(name)
    alg = HeckeAlgebra.for_graph(g)
    els = list(enumerate_elements(g, bound))
    for x in els:
        for y in els:
            prod = alg.kl_mul(x, y)
            for z, coeff in prod.items():
                if z.is_fully_commutative():
                    assert coeff.is_nonneg_delta(), (x, y, z)


def test_oracle_cap():
    g = preset("A3")
    alg = HeckeAlgebra(g, element_cap=3)
    with pytest.raises(OracleCapExceeded):
        kl_tables_small = alg.kl_basis(g.element((0, 1, 0, 2, 1, 0)))
        alg._check_cap(len(alg._kl))
    with pytest.raises(OracleCapExceeded):
        alg._check_cap(10)


def test_oracle_cap_is_enforced_before_the_work():
    # the longest element of A3 has all 24 elements below it; the cap stops
    # the recursion as its entries reach it, not after the whole column
    g = preset("A3")
    k = 5
    alg = HeckeAlgebra(g, element_cap=k)
    with pytest.raises(OracleCapExceeded):
        alg.kl_basis(g.element((0, 1, 0, 2, 1, 0)))
    assert len(alg._kl) <= k + 1


def test_hecke_mul_and_bar():
    a2 = preset("A2")
    alg = HeckeAlgebra.for_graph(a2)
    s = {a2.element((0,)): ONE}
    assert alg.t_mul(s, s) == {a2.identity: ONE, a2.element((0,)): V_MINUS_VINV}
    assert alg.bar(alg.bar(s)) == s


def test_format_q():
    assert format_q(LaurentPoly({2: 1, 0: 1})) == "q + 1"
    assert format_q(ONE) == "1"
    with pytest.raises(ValueError):
        format_q(V(1))
    # shifted by v^k without building v^k * p
    assert format_q(LaurentPoly({-1: 1, 1: 1}), 1) == "q + 1"
    assert format_q(LaurentPoly({-3: 2}), 3) == "2"
    with pytest.raises(ValueError, match="v\\^3 has odd"):
        format_q(V(2), 1)
