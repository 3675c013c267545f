import math
import random

import pytest

from q_pairs import PairRoute
from test_heaps import HEAP_CASES, build
from tlcox.coxeter import WEAKLY_COMPLEX, classify, enumerate_elements, group_order, preset
from tlcox.laurent import DELTA, ONE, V_INV, ZERO, LaurentPoly, V_MINUS_VINV, acc
from tlcox.stars import star
from tlcox import tl as tl_module
from tlcox.tl import (
    CanonicalRecursionError,
    InternalConsistencyError,
    TLAlgebra,
    _first_unreconciled,
    _inverted_column,
    check_property_W,
    coeff_tables,
    star_involution_coords,
)
from tlcox.library import bruhat_leq, chebyshev_coeffs, coset_decompose, dihedral_cbasis

V = LaurentPoly.v


def elem(g, *word):
    return g.element(word)


def expand(alg, x):
    """t_x in the fully commutative basis, for any x: its letters multiplied
    in, last letter first."""
    return alg.t_mul({x: ONE}, alg.unit())


# -- generator multiplication ------------------------------------------------------


def test_quadratic_relation():
    a2 = preset("A2")
    alg = TLAlgebra.for_graph(a2)
    s = elem(a2, 0)
    prod = alg.t_mul(alg.basis(s), alg.basis(s))
    assert prod == {a2.identity: ONE, s: V_MINUS_VINV}


def test_length_additive_case():
    a3 = preset("A3")
    alg = TLAlgebra.for_graph(a3)
    assert alg.lgen(2, elem(a3, 1, 0)) == {elem(a3, 2, 1, 0): ONE}


def test_dihedral_rewrite_example():
    # t_s t_{ts} in the rank-2 bond-3 case expands with all-depressed coefficients
    a2 = preset("A2")
    alg = TLAlgebra.for_graph(a2)
    out = alg.lgen(0, elem(a2, 1, 0))
    expected = {
        elem(a2, 0, 1): -V_INV,
        elem(a2, 1, 0): -V_INV,
        elem(a2, 0): -V(-2),
        elem(a2, 1): -V(-2),
        a2.identity: -V(-3),
    }
    assert out == expected


def test_rewrite_supports_are_fully_commutative():
    for name in ["A3", "B3", "I2(5)", "H3"]:
        g = preset(name)
        alg = TLAlgebra.for_graph(g)
        for w in enumerate_elements(g, 5, fc_only=True):
            for s in g.generators():
                for y in alg.lgen(s, w):
                    assert y.is_fully_commutative()


def two_step_acc(dst, src, scale):
    """The accumulation that `acc` fuses: dst[w] + scale * src[w] through the
    two intermediate polynomials scale * src[w] and the sum."""
    for w, c in src.items():
        val = dst.get(w)
        total = scale * c if val is None else val + scale * c
        if total:
            dst[w] = total
        elif val is not None:
            del dst[w]


def test_fused_acc_matches_the_two_step_sum():
    g = preset("B3")
    els = list(enumerate_elements(g, 9, fc_only=True))
    rng = random.Random(13)

    def poly(terms):
        return LaurentPoly({rng.randint(-4, 4): rng.choice([-3, -2, -1, 1, 2, 3])
                            for _ in range(terms)})

    scales = [ONE, LaurentPoly.const(1), -ONE, V_INV, -V_MINUS_VINV, LaurentPoly.const(-3),
              LaurentPoly({2: 1, -1: -2, 0: 5})]
    cancelled = partly = 0
    for trial in range(400):
        scale = scales[trial % len(scales)] if trial < 200 else poly(rng.randint(1, 3))
        src = {w: p for w in rng.sample(els, 8) if (p := poly(rng.randint(0, 3)))}
        dst = {w: p for w in rng.sample(els, 8) if (p := poly(rng.randint(0, 3)))}
        for w in rng.sample(sorted(src), min(3, len(src))):
            # totals that cancel, wholly (the key must go) or in some terms
            dst[w] = -(scale * src[w]) + (V(1) if rng.random() < 0.3 else ZERO)
        inputs = [(p, dict(p._c)) for p in (scale, *src.values(), *dst.values())]
        expected = dict(dst)
        two_step_acc(expected, src, scale)
        tl_module.acc(dst, src, scale)
        assert dst == expected, (trial, scale)
        assert all(dst.values())
        # the polynomials read are values shared with memos: none is changed
        assert all(p._c == c for p, c in inputs)
        cancelled += sum(w not in dst for w in src)
        partly += sum(dst.get(w) == V(1) for w in src)
    assert cancelled > 500 and partly > 200


@pytest.mark.parametrize("name", ["A3", "B2", "I2(5)"])
def test_associativity_random_triples(name):
    g = preset(name)
    alg = TLAlgebra.for_graph(g)
    els = [w for w in enumerate_elements(g, 4, fc_only=True)]
    rng = random.Random(23)
    for _ in range(25):
        a, b, c = (alg.basis(rng.choice(els)) for _ in range(3))
        left = alg.t_mul(alg.t_mul(a, b), c)
        right = alg.t_mul(a, alg.t_mul(b, c))
        assert left == right


def test_unit_and_identity():
    a3 = preset("A3")
    alg = TLAlgebra.for_graph(a3)
    x = alg.t_mul(alg.basis(elem(a3, 0, 2)), alg.basis(elem(a3, 1)))
    assert alg.t_mul(x, alg.unit()) == x
    assert alg.t_mul(alg.unit(), x) == x


# -- bar involution ------------------------------------------------------------------


def test_bar_basis_examples():
    a2 = preset("A2")
    alg = TLAlgebra.for_graph(a2)
    assert alg.bar_basis(a2.identity) == alg.unit()
    s = elem(a2, 0)
    assert alg.bar_basis(s) == {s: ONE, a2.identity: -V_MINUS_VINV}


def test_bar_involutive_and_multiplicative():
    for name in ["A3", "B2"]:
        g = preset(name)
        alg = TLAlgebra.for_graph(g)
        els = list(enumerate_elements(g, 4, fc_only=True))
        rng = random.Random(29)
        for _ in range(15):
            x = alg.basis(rng.choice(els))
            y = alg.basis(rng.choice(els))
            assert alg.bar(alg.bar(x)) == x
            assert alg.bar(alg.t_mul(x, y)) == alg.t_mul(alg.bar(x), alg.bar(y))


def test_bar_double_application_long_element():
    a3 = preset("A3")
    alg = TLAlgebra.for_graph(a3)
    w = elem(a3, 1, 0, 2, 1)
    assert alg.bar(alg.bar(alg.basis(w))) == alg.basis(w)


# -- canonical basis -------------------------------------------------------------------


def test_cbasis_small_examples():
    a2 = preset("A2")
    alg = TLAlgebra.for_graph(a2)
    assert alg.cbasis(a2.identity) == {a2.identity: ONE}
    s = elem(a2, 0)
    assert alg.cbasis(s) == {s: ONE, a2.identity: V_INV}


def test_cbasis_is_bar_invariant_and_depressed():
    for name in ["A3", "B3", "I2(6)"]:
        g = preset(name)
        alg = TLAlgebra.for_graph(g)
        for w in enumerate_elements(g, 6, fc_only=True):
            cw = alg.cbasis(w)
            assert alg.bar(cw) == cw
            assert cw[w] == ONE
            for y, c in cw.items():
                if y != w:
                    assert c.in_vneg()
                    assert bruhat_leq(y, w) and y.length < w.length
                # exponents follow the length parity
                assert c.has_parity(w.length - y.length)


def test_cbasis_two_algorithms_agree():
    for name in ["A3", "A4", "B3", "I2(5)", "I2(7)", "D4"]:
        g = preset(name)
        alg = TLAlgebra.for_graph(g)
        for w in enumerate_elements(g, 6, fc_only=True):
            assert alg.cbasis(w) == alg.cbasis_recursive(w)


@pytest.mark.parametrize("name,bound", [
    ("A4", 10), ("B4", 16), ("H3", 15), ("D4", 12), ("I2(7)", 7), ("~C3", 7),
])
def test_canonical_is_the_bar_solve(name, bound):
    # products, traces and tables read the length recursion; the bar-solve
    # is the independent route it must reproduce
    g = preset(name)
    alg = TLAlgebra(g)
    for w in enumerate_elements(g, bound, fc_only=True):
        assert alg.canonical(w) == alg.cbasis(w), (name, w)
    assert alg._cbasis_rec


def test_canonical_falls_back_to_the_bar_solve_after_a_refusal(monkeypatch):
    g = preset("B3")
    alg = TLAlgebra(g)
    original = TLAlgebra.cbasis_recursive
    calls = []

    def refuse_long(self, w):
        calls.append(w)
        if w.length >= 3:
            raise CanonicalRecursionError("rigged refusal")
        return original(self, w)

    monkeypatch.setattr(TLAlgebra, "cbasis_recursive", refuse_long)
    fc = list(enumerate_elements(g, 9, fc_only=True))
    for w in fc:
        assert alg.canonical(w) == TLAlgebra(g).cbasis(w)
    # the recursion is not asked again once it has refused
    assert [w.length for w in calls if w.length >= 3] == [3]


def test_cbasis_example_in_rank3():
    a3 = preset("A3")
    alg = TLAlgebra.for_graph(a3)
    w = elem(a3, 1, 0, 2, 1)
    cw = alg.cbasis(w)
    assert cw[elem(a3, 1)].coeff(-1) == 1


# -- conversions and products -------------------------------------------------------------


def test_c_conversion_round_trip():
    def from_c(alg, ccoords):
        out = {}
        for w, c in ccoords.items():
            acc(out, alg.canonical(w), c)
        return out

    rng = random.Random(31)
    for name, bound in [("B3", 5), ("H3", 6), ("~A2", 6)]:
        g = preset(name)
        alg = TLAlgebra.for_graph(g)
        els = list(enumerate_elements(g, bound, fc_only=True))
        for _ in range(20):
            coords = {rng.choice(els): LaurentPoly({rng.randint(-3, 3): rng.randint(-4, 4)
                                                    for _ in range(rng.randint(1, 4))})
                      for _ in range(4)}
            coords = {w: c for w, c in coords.items() if c}
            assert from_c(alg, alg.to_c(coords)) == coords
            # from_c spreads each c_w over its whole column, which to_c must
            # cancel entry by entry
            assert alg.to_c(from_c(alg, coords)) == coords


def test_to_c_refuses_a_column_without_unit_diagonal(monkeypatch):
    # elimination relies on the unit diagonal of c_w to clear the entry at w;
    # without it to_c must raise rather than loop or drop the entry
    g = preset("A2")
    alg = TLAlgebra(g)
    monkeypatch.setattr(alg, "canonical", lambda w: {w: V(1)})
    with pytest.raises(InternalConsistencyError, match="not unitriangular"):
        alg.to_c({g.element((0,)): ONE})


def test_c_mul_examples():
    a2 = preset("A2")
    alg = TLAlgebra.for_graph(a2)
    s, t, ts, st = elem(a2, 0), elem(a2, 1), elem(a2, 1, 0), elem(a2, 0, 1)
    assert alg.c_mul(s, s) == {s: DELTA}
    assert alg.c_mul(s, t) == {st: ONE}
    assert alg.c_mul(s, ts) == {s: ONE}


def test_eigenspace_characterization():
    # c_s x = delta x exactly on the span of the c_y with descent s
    g = preset("A3")
    alg = TLAlgebra.for_graph(g)
    for y in enumerate_elements(g, 6, fc_only=True):
        for si in g.generators():
            s = g.element((si,))
            prod = alg.c_mul(s, y)
            if si in g.left_descents(y):
                assert prod == {y: DELTA}
            else:
                assert prod != {y: DELTA}


def test_parabolic_factorization():
    # c_{w_I} c_{u w^I} = delta c_w for the right descent u of w_I
    for name in ["A3", "B3", "I2(5)", "I2(6)"]:
        g = preset(name)
        alg = TLAlgebra.for_graph(g)
        for w in enumerate_elements(g, 6, fc_only=True):
            for pair in g.noncommuting_pairs():
                dec = coset_decompose(w, pair, "left")
                if dec.part_I.length == 0:
                    continue
                u = dec.part_I.word[-1]
                uw = g.element((u,) + dec.rest.word)
                got = alg.c_mul(dec.part_I, uw)
                assert got == {w: DELTA}


def test_star_involution_is_antiautomorphism():
    g = preset("B3")
    alg = TLAlgebra.for_graph(g)
    rng = random.Random(37)
    els = list(enumerate_elements(g, 4, fc_only=True))

    def rev(coords):
        return star_involution_coords(g, coords)

    for _ in range(15):
        x = alg.basis(rng.choice(els))
        y = alg.basis(rng.choice(els))
        assert rev(alg.t_mul(x, y)) == alg.t_mul(rev(y), rev(x))
        assert rev(rev(x)) == x
    assert rev(alg.basis(g.element((0, 1)))) == alg.basis(g.element((1, 0)))


# -- coefficient tables ----------------------------------------------------------------------


def test_coeff_tables_dihedral_values():
    g = preset("I2(5)")
    tables = coeff_tables(g, 5)
    for w in tables.elements:
        assert tables.q_columns[w].get(w) == ONE
        for y in tables.elements:
            q = V(y.length - w.length) * tables.q_columns[w].get(y, ZERO)
            expected = V(y.length - w.length) if bruhat_leq(y, w) else ZERO
            assert q == expected, (y, w)


def test_coeff_tables_rank3_value():
    g = preset("A3")
    tables = coeff_tables(g, 6)
    x, w = g.element((1,)), g.element((1, 0, 2, 1))
    assert tables.m_coeff(x, w) == 1


@pytest.mark.parametrize("name,bound", [("A3", 6), ("B3", 6), ("I2(6)", 6), ("D4", 6)])
def test_coeff_tables_internal_consistency(name, bound):
    tables = coeff_tables(preset(name), bound)  # raises on route disagreement
    g = preset(name)
    pairs = [(y, w, p) for w in tables.elements for y, p in tables.p_columns[w].items()]
    for y, w, p in pairs:
        if y == w:
            assert p == ONE
            continue
        assert bruhat_leq(y, w)
        assert p.in_vneg()
        # both tables share the same v^-1 coefficient by construction
        # degree bound for the q-polynomial forms (even v-exponents; top
        # degree gap-1 reachable only for odd gaps, exactly when M != 0)
        gap = w.length - y.length
        qq = tables.q_columns[w][y]  # q(y, w) = v^gap q*(y, w)
        pp = V(gap) * p
        assert qq.has_parity(0) and pp.has_parity(0)
        assert qq.coeff(0) == 1  # constant term of q(y, w) is 1 when y <= w
        assert qq.max_exp() <= gap - 1
        assert pp.max_exp() <= gap - 1
        attained = qq.max_exp() == gap - 1
        assert attained == (pp.max_exp() == gap - 1)
        assert attained == (tables.m_coeff(y, w) != 0)


def test_m_nonzero_needs_odd_length_gap():
    tables = coeff_tables(preset("B3"), 7)
    for w in tables.elements:
        for y in tables.p_columns[w]:
            if tables.m_coeff(y, w):
                assert (w.length - y.length) % 2 == 1


def test_descent_jump_rigidity():
    # sw < w, sx > x and M(x, w) != 0 force x = sw with coefficient 1
    for name in ["A3", "B3", "I2(6)"]:
        g = preset(name)
        tables = coeff_tables(g, 6)
        for w in tables.elements:
            for s in g.left_descents(w):
                sw = g.lmul(s, w)
                for x in tables.elements:
                    if s in g.left_descents(x) or not tables.m_coeff(x, w):
                        continue
                    assert x == sw and tables.m_coeff(x, w) == 1


def pq_first_unreconciled(elements, p_columns, q_columns, bits=None):
    """The reference for `_first_unreconciled`: the check the tables made
    before it, as P Q = I.  The first w of `elements` whose column fails,
    for some y, sum_z p(y, z) (-1)^(len(z) + len(w)) q(z, w) = [y = w],
    p(y, z) = v^(len(z) - len(y)) p*(y, z); None if all pass.  Every
    polynomial, shifted by one global power of v to nonnegative exponents,
    is evaluated at X = 2^bits; with N the largest q column and A, B the
    largest l1-norms of a p* and a q entry, residual coefficients are at
    most N*A*B + 1 < X by default."""
    qs = [q._c for col in q_columns.values() for q in col.values()]
    a = max((sum(map(abs, p._c.values())) for col in p_columns.values() for p in col.values()),
            default=0)
    op = max((len(y.word) - lz - min(p._c) for z, col in p_columns.items()
              for lz in (len(z.word),) for y, p in col.items()), default=0)
    op, oq = max(op, 0), max(-min(map(min, qs), default=0), 0)
    if bits is None:
        n = max(map(len, q_columns.values()), default=0)
        bits = (n * a * max((sum(map(abs, c.values())) for c in qs), default=0) + 1).bit_length()
    pos = {w: i for i, w in enumerate(elements)}
    packed = {}  # z -> (position of y, (-1)^len(z) p(y, z)) for y in the column
    for z, col in p_columns.items():
        lz = len(z.word)
        packed[z] = [(pos[y], sum((-c if lz % 2 else c) << bits * (e + lz - len(y.word) + op)
                                  for e, c in p._c.items())) for y, p in col.items()]
    one = 1 << bits * (op + oq)
    for i, w in enumerate(elements):
        res = [0] * len(elements)
        res[i] = one if len(w.word) % 2 else -one
        for z, q in q_columns[w].items():
            x = sum(c << bits * (e + oq) for e, c in q._c.items())
            for j, pz in packed[z]:
                res[j] += pz * x
        if any(res):
            return w
    return None


def _fresh_columns(name, bound):
    g = build(name)
    alg = TLAlgebra(g)
    fc = list(enumerate_elements(g, bound, fc_only=True))
    return fc, {w: alg.canonical(w) for w in fc}, {w: alg.q_column(w) for w in fc}


@pytest.mark.parametrize("name,bound", [("B4", 200), ("H4", 200), ("~C3", 9), ("E6", 200)])
def test_packed_check_and_dict_inversion_agree_with_the_recursion(name, bound):
    fc, p_columns, q_columns = _fresh_columns(name, bound)
    assert _first_unreconciled(fc, p_columns, q_columns) is None
    assert pq_first_unreconciled(fc, p_columns, q_columns) is None
    for w in fc:
        recur = {x: V(x.length - w.length) * q for x, q in q_columns[w].items()}
        assert _inverted_column(w, p_columns) == recur, w


@pytest.mark.parametrize("j", [0, 3])
def test_packed_check_certificate(j):
    # 2^k v^j - v^(j+1) is not zero but vanishes at v = 2^k: a q column
    # perturbed by it passes at that k and fails at the certified one, for
    # every k a certificate that left out a factor could land on
    fc, p_columns, q_columns = _fresh_columns("B4", 200)
    w0 = fc[len(fc) // 2]
    z = min(x for x in q_columns[w0] if x != w0)
    perturbed = dict(q_columns)
    perturbed[w0] = dict(q_columns[w0])
    for k in range(1, 13):
        perturbed[w0][z] = q_columns[w0][z] + LaurentPoly({j: 2 ** k, j + 1: -1})
        assert _first_unreconciled(fc, p_columns, q_columns, bits=k) is None
        assert _first_unreconciled(fc, p_columns, perturbed, bits=k) is None
        assert _first_unreconciled(fc, p_columns, perturbed) is w0
    # a perturbation with a negative exponent moves the exponent window
    perturbed[w0][z] = q_columns[w0][z] + LaurentPoly({-2: 1})
    assert _first_unreconciled(fc, p_columns, perturbed) is w0


@pytest.mark.parametrize("kind", ["p", "q"])
@pytest.mark.parametrize("name,bound", [("B4", 200), ("~C3", 7)])
def test_q_p_and_p_q_name_the_same_column(name, bound, kind):
    # one entry of one column of p* or of q changed, at the first, a middle
    # and the last entry: both products first fail at that column, where Q
    # and the inverse of P first differ
    fc, p_columns, q_columns = _fresh_columns(name, bound)
    delta = LaurentPoly({-3: 1, 0: 2})
    for w0 in (fc[len(fc) // 2], fc[-1]):
        col = (p_columns if kind == "p" else q_columns)[w0]
        keys = list(col)
        for y in (keys[0], keys[len(keys) // 2], keys[-1]):
            perturbed = dict(p_columns if kind == "p" else q_columns)
            perturbed[w0] = dict(col)
            perturbed[w0][y] = col[y] + delta
            assert perturbed[w0][y]
            args = (fc, perturbed, q_columns) if kind == "p" else (fc, p_columns, perturbed)
            assert _first_unreconciled(*args) is pq_first_unreconciled(*args) is w0, (w0, y)


def test_algebras_refuse_elements_of_another_graph_object():
    # elements compare by identity, so an element of an equal graph built
    # apart matches none of an algebra's: every method that takes one from
    # the caller refuses it, and the algebra is left as it was
    from tlcox.hecke import HeckeAlgebra, kl_tables

    g, other = preset("B3"), preset("B3")
    tl, hk = TLAlgebra.for_graph(g), HeckeAlgebra.for_graph(g)
    tables, kl = coeff_tables(g, 5), kl_tables(g, 5)
    x, y = g.element((0, 1)), g.element((1, 0, 1))
    alien_x, alien_y = other.element(x.word), other.element(y.word)

    def coords(w):
        return {w: ONE}

    one = {  # methods reading one element, or coordinates on it
        "lgen": lambda w: tl.lgen(0, w), "basis": tl.basis,
        "cbasis": tl.cbasis, "cbasis_recursive": tl.cbasis_recursive,
        "canonical": tl.canonical, "c_lgen": lambda w: tl.c_lgen(2, w),
        "bar_basis": tl.bar_basis, "q_column": tl.q_column,
        "lmul": lambda w: tl.lmul(2, coords(w)), "bar": lambda w: tl.bar(coords(w)),
        "to_c": lambda w: tl.to_c(coords(w)), "t_mul": lambda w: tl.t_mul(coords(x), coords(w)),
        "hecke lgen": lambda w: hk.lgen(0, w), "hecke basis": hk.basis,
        "hecke bar_basis": hk.bar_basis, "kl_basis": hk.kl_basis,
        "hecke canonical": hk.canonical, "hecke c_lgen": lambda w: hk.c_lgen(2, w),
        "theta_basis": hk.theta_basis, "theta": lambda w: hk.theta(coords(w)),
        "in_defining_ideal": lambda w: hk.in_defining_ideal(coords(w)),
    }
    two = {  # methods reading two elements
        "mu": tl.mu, "m_coeff": tl.m_coeff, "m_tilde": tl.m_tilde, "c_mul": tl.c_mul,
        "q_poly": tl.q_poly, "hecke mu": hk.mu, "mu_tilde": hk.mu_tilde, "kl_mul": hk.kl_mul,
        "tables m_coeff": tables.m_coeff, "kl mu_coeff": kl.mu_coeff,
        "kl mu_tilde": kl.mu_tilde, "kl polynomial": kl.polynomial,
        "form": lambda a, b: hk.form(coords(a), coords(b)),
    }
    calls = [(name, call, (alien_y,)) for name, call in one.items()]
    calls += [(name, call, args) for name, call in two.items()
              for args in ((alien_x, y), (x, alien_y))]
    # m_coeff is 0 off the fully commutative elements, but still refuses
    alien_nfc = next(w for w in enumerate_elements(other, 6) if not w.is_fully_commutative())
    calls += [("m_coeff", tl.m_coeff, (alien_nfc, y)), ("m_coeff", tl.m_coeff, (y, alien_nfc))]
    for name, call, args in calls:
        with pytest.raises(ValueError, match="another graph object"):
            call(*args)
    fc = list(enumerate_elements(g, 7, fc_only=True))
    fresh, oracle = TLAlgebra(g), HeckeAlgebra(g)
    for w in fc:
        assert tl.canonical(w) == fresh.cbasis(w) == fresh.cbasis_recursive(w)
        assert tl.q_column(w) == fresh.q_column(w)
    for w in enumerate_elements(g, 5):
        assert hk.kl_basis(w) == oracle.kl_basis(w)
    assert coeff_tables(g, 7).p_columns == {w: fresh.canonical(w) for w in fc}
    assert not tl._recursion_failed


def test_an_algebra_belongs_to_the_graph_object_it_was_built_for():
    # an equal graph built apart gets its own algebras, whose memos hold its
    # own elements; the first graph's algebras do not keep it alive
    import gc

    from tlcox.coxeter import CoxeterGraph
    from tlcox.hecke import HeckeAlgebra

    g1 = preset("A3")
    coeff_tables(g1, 6)
    g1_id = id(g1)
    g2 = CoxeterGraph(preset("A3").bonds)
    assert g2 == g1
    for cls in (TLAlgebra, HeckeAlgebra):
        alg = cls.for_graph(g2)
        assert alg.graph is g2 and g2.algebras[cls] is alg is cls.for_graph(g2)
        assert alg is not cls.for_graph(g1)
    tables = coeff_tables(g2, 6)
    entries = [y for col in tables.p_columns.values() for y in col]
    assert len(entries) == 65 and all(y.graph is g2 for y in entries)
    del g1
    gc.collect()
    assert not any(id(o) == g1_id for o in gc.get_objects() if isinstance(o, CoxeterGraph))


def test_passing_tables_invert_no_column(monkeypatch):
    def no_inversion(w, p_columns):
        raise AssertionError("a column of passing tables was inverted")

    monkeypatch.setattr(tl_module, "_inverted_column", no_inversion)
    for name, bound in [("B4", 16), ("~C3", 9)]:
        tables = coeff_tables(build(name), bound)
        assert set(tables.p_columns) == set(tables.q_columns) == set(tables.elements)


def test_coset_invariance_of_q():
    for name in ["A3", "B3"]:
        g = preset(name)
        alg = TLAlgebra.for_graph(g)
        fc = list(enumerate_elements(g, 6, fc_only=True))
        for pair in g.noncommuting_pairs():
            by_rest = {}
            for w in fc:
                dec = coset_decompose(w, pair, "left")
                by_rest.setdefault(dec.rest, []).append((dec.part_I, w))
            for rest, members in by_rest.items():
                for (xi, x) in members:
                    for (wi, w) in members:
                        assert alg.q_poly(x, w) == alg.q_poly(xi, wi)


@pytest.mark.parametrize("name,bound", [(name, fc) for name, fc, _ in HEAP_CASES])
def test_q_column_matches_pair_recursion(name, bound):
    # every graph of the heap tests, among them B4 <= 16, ~C3 <= 9 and D5
    g = build(name)
    alg = TLAlgebra(g)
    ref = PairRoute(g)
    fc = list(enumerate_elements(g, bound, fc_only=True))
    for w in fc:
        want = {x: ref.q_poly(x, w) for x in fc if x.length <= w.length}
        assert alg.q_column(w) == {x: q for x, q in want.items() if q}, w


class ScanRoute(TLAlgebra):
    """`q_column` as it was before the mu-edges were kept: each term of the
    mu-sum is found by scanning the whole of column y."""

    def q_column(self, w):
        cached = self._qcol.get(w)
        if cached is not None:
            return cached
        g = self.graph
        if not w.word:
            col = self.unit()
        else:
            left = g.left_descents
            s = min(left(w))
            col = {}
            for y, qy in self.q_column(g.lmul(s, w)).items():
                if s in left(y):
                    tl_module.acc(col, {y: qy}, LaurentPoly({2: -1}))
                    continue
                tl_module.acc(col, {y: qy})
                if (sy := g.fc_lmul(s, y)) is not None:
                    tl_module.acc(col, {sy: qy})
                for x, qx in self.q_column(y).items():
                    d = y.length - x.length
                    if d % 2 and s in left(x) and qx.coeff(d - 1):
                        tl_module.acc(col, {x: qy}, LaurentPoly({d + 1: qx.coeff(d - 1)}))
        self._qcol[w] = col
        return col


@pytest.mark.parametrize("name,bound", [("B4", 16), ("~C3", 9), ("H4", 12), ("~A2", 10)])
def test_q_column_matches_the_column_scan(name, bound):
    # the same entries in the same order: the mu-edges of column y are the
    # terms the scan finds there
    g = preset(name)
    alg, ref = TLAlgebra(g), ScanRoute(g)
    for w in enumerate_elements(g, bound, fc_only=True):
        assert list(alg.q_column(w).items()) == list(ref.q_column(w).items()), w


def test_string_recurrence_for_m():
    # the four-term identity at string neighbors with distinct descent traces
    for name in ["A3", "B3", "I2(5)", "I2(6)", "I2(7)"]:
        g = preset(name)
        alg = TLAlgebra.for_graph(g)
        fc = list(enumerate_elements(g, 7, fc_only=True))

        def mt(a, b):
            if a is None or b is None:
                return 0
            return alg.m_tilde(a, b)

        for pair in g.noncommuting_pairs():
            for x in fc:
                for w in fc:
                    sx = set(pair) & g.left_descents(x)
                    sw = set(pair) & g.left_descents(w)
                    if len(sx) != 1 or len(sw) != 1 or sx == sw:
                        continue
                    down_x = star(x, pair, "left", "down")
                    up_x = star(x, pair, "left", "up")
                    down_w = star(w, pair, "left", "down")
                    up_w = star(w, pair, "left", "up")
                    if (down_x is None and up_x is None) or (down_w is None and up_w is None):
                        continue  # not inside a string
                    lhs = mt(down_x, w) + mt(up_x, w)
                    rhs = mt(x, down_w) + mt(x, up_w)
                    assert lhs == rhs, (name, x, w, pair)


def test_interval_parity_imbalance():
    # the fully commutative interval between the short and long elements of
    # the rank-3 example has 3 odd-length and 5 even-length members
    g = preset("A3")
    x, w = g.element((1,)), g.element((1, 0, 2, 1))
    interval = [y for y in enumerate_elements(g, 4, fc_only=True)
                if bruhat_leq(x, y) and bruhat_leq(y, w)]
    odd = sum(1 for y in interval if y.length % 2)
    even = len(interval) - odd
    assert (odd, even) == (3, 5)
    assert odd != even


# -- property W -------------------------------------------------------------------------------


@pytest.mark.parametrize("name,bound", [("A2", 3), ("A3", 6), ("B2", 4), ("B3", 6), ("D4", 6)])
def test_property_w_holds(name, bound):
    report = check_property_W(preset(name), bound)
    assert report.holds
    assert "descent-sublattice check: PASS" in report.render()


def whole_group_property_W(graph, bound):
    """The reference for `check_property_W`: every element of the group up
    to the bound, kept where it is weakly complex (`classify`), with t_x
    expanded letter by letter on an algebra of its own."""
    from tlcox.stars import PropertyReport

    alg = TLAlgebra(graph)
    report = PropertyReport("W", graph, bound)
    for x in enumerate_elements(graph, bound):
        if classify(x) == WEAKLY_COMPLEX and not all(c.in_vneg() for c in expand(alg, x).values()):
            report.failures.append(x)
    report.extra_lines.append("descent-sublattice check: PASS")
    return report


@pytest.mark.parametrize("name,bound", [
    ("A4", None), ("B3", None), ("D4", None), ("D5", None), ("F4", None), ("H3", None),
    ("I2(7)", None), ("~A2", 8), ("~C3", 9),
])
def test_property_w_matches_the_whole_group_loop(name, bound, monkeypatch):
    # the fully commutative route renders the whole-group loop's report; under
    # a stricter test (no v^-1 term either) every weakly complex x fails, so
    # both must name the same elements in the same order
    g = preset(name)
    if bound is None:
        bound = group_order(g, math.inf)[1]
    assert check_property_W(g, bound).render() == whole_group_property_W(g, bound).render()
    monkeypatch.setattr(LaurentPoly, "in_vneg", lambda p: p.max_exp() < -1)
    strict = check_property_W(g, bound)
    assert strict.failures and strict.render() == whole_group_property_W(g, bound).render()


def test_property_w_names_an_expansion_that_is_not_depressed(monkeypatch):
    g = preset("A3")
    alg = TLAlgebra.for_graph(g)
    monkeypatch.setattr(alg, "lgen", lambda s, w: {g.identity: ONE})
    report = check_property_W(g, 6)
    assert not report.holds
    assert report.failures and all(x.length >= 3 for x in report.failures)


def test_property_w_on_affine_graph_up_to_bound():
    # infinite groups are certified only up to the supplied bound
    report = check_property_W(preset("~A2"), 5)
    assert report.bound == 5
    assert report.holds


def test_generator_multiple_lands_in_descent_sublattice():
    # t_s t_w sits in v L^s when s is a descent of w and in L^s otherwise;
    # L^s: coefficients in Z[v^-1] at the y with descent s, else in v^-1 Z[v^-1]
    for name in ["A3", "B3"]:
        g = preset(name)
        alg = TLAlgebra.for_graph(g)
        for w in enumerate_elements(g, 5, fc_only=True):
            for s in g.generators():
                shift = V(-1) if s in g.left_descents(w) else ONE
                for y, c in alg.lgen(s, w).items():
                    c = shift * c
                    assert c.max_exp() <= 0 if s in g.left_descents(y) else c.in_vneg()


def test_longest_dihedral_times_minimal_coset_representative():
    # with u a minimal coset representative, t_{w_st} t_u is depressed once,
    # and the three-term combination with the two maximal string neighbors
    # is depressed twice
    for name in ["A3", "B3", "I2(5)"]:
        g = preset(name)
        alg = TLAlgebra.for_graph(g)
        for pair in g.noncommuting_pairs():
            s, t = pair
            m = g.m(s, t)
            w_st = tuple(s if k % 2 == 0 else t for k in range(m))
            for u in enumerate_elements(g, 4, fc_only=True):
                if g.left_descents(u) & set(pair):
                    continue
                top = expand(alg, g.element(w_st + u.word))
                assert all(c.max_exp() <= -1 for c in top.values())
                combo = dict(top)
                for drop in (w_st[1:], w_st[:-1]):
                    # string neighbors of the longest element, one letter off
                    shorter = expand(alg, g.element(tuple(drop) + u.word))
                    for y, c in shorter.items():
                        val = combo.get(y, ZERO) + V(-1) * c
                        if val:
                            combo[y] = val
                        elif y in combo:
                            del combo[y]
                assert all(c.max_exp() <= -2 for c in combo.values() if c)


# -- lattices ----------------------------------------------------------------------------------


def test_lattice_membership_examples():
    # t_sts expands into the lattice L (coefficients in Z[v^-1]) and into L^s
    a2 = preset("A2")
    alg = TLAlgebra.for_graph(a2)
    sts = expand(alg, a2.element((0, 1, 0)))
    assert all(c.max_exp() <= 0 for c in sts.values())
    assert all(c.max_exp() <= 0 if 0 in a2.left_descents(y) else c.in_vneg()
               for y, c in sts.items())


# -- dihedral construction ----------------------------------------------------------------------


def test_chebyshev_coeffs():
    assert chebyshev_coeffs(0) == [1]
    assert chebyshev_coeffs(1) == [0, 1]
    assert chebyshev_coeffs(2) == [-1, 0, 1]
    assert chebyshev_coeffs(3) == [0, -2, 0, 1]


@pytest.mark.parametrize("m", [3, 4, 5, 6, 7])
def test_dihedral_cbasis_matches_canonical(m):
    g = preset(f"I2({m})")
    alg = TLAlgebra.for_graph(g)
    for start in (0, 1):
        for i in range(m - 1):
            word = tuple((start if k % 2 == 0 else 1 - start) for k in range(i + 1))
            expected = alg.cbasis(g.element(word))
            assert dihedral_cbasis(g, i, start) == expected


def test_dihedral_cbasis_range_check():
    g = preset("I2(4)")
    with pytest.raises(ValueError):
        dihedral_cbasis(g, 3)


def test_infinite_bond_canonical_basis():
    # with an infinite bond nothing is ever rewritten: every element is fully
    # commutative, the dihedral pattern holds at every length, and the
    # recurrence construction has unbounded index range
    g = preset("~A1")
    alg = TLAlgebra.for_graph(g)
    fc = list(enumerate_elements(g, 6, fc_only=True))
    assert len(fc) == 13
    for w in fc:
        cw = alg.cbasis(w)
        assert alg.bar(cw) == cw
        assert cw == alg.cbasis_recursive(w)
    for x in fc:
        for w in fc:
            assert alg.q_poly(x, w) == (1 if bruhat_leq(x, w) else 0)
    for i in range(5):
        word = tuple(k % 2 for k in range(i + 1))
        assert dihedral_cbasis(g, i) == alg.cbasis(g.element(word))


# -- structure constants -------------------------------------------------------------------------


def test_dihedral_structure_constants_positive_with_descent_rule():
    for m in [5, 6, 7]:
        g = preset(f"I2({m})")
        alg = TLAlgebra.for_graph(g)
        fc = list(enumerate_elements(g, m, fc_only=True))
        for a in fc:
            for b in fc:
                prod = alg.c_mul(a, b)
                overlap = g.right_descents(a) & g.left_descents(b)
                for w, coeff in prod.items():
                    d = coeff.to_delta_basis()
                    assert d is not None and d.is_nonneg()
                    if overlap:
                        assert d.coeffs[0] == 0  # a multiple of delta
                    else:
                        assert coeff.max_exp() == 0  # a plain nonnegative integer
                    if a.length and b.length and coeff:
                        assert g.left_descents(w) == g.left_descents(a)
                        assert g.right_descents(w) == g.right_descents(b)


# -- standard-basis arithmetic -------------------------------------------------------------------


def test_tl_element_mul_and_bar():
    a2 = preset("A2")
    alg = TLAlgebra.for_graph(a2)
    x = alg.basis(elem(a2, 0))
    assert alg.t_mul(x, x) == {a2.identity: ONE, a2.element((0,)): V_MINUS_VINV}
    assert alg.bar(x) == {a2.element((0,)): ONE, a2.identity: -V_MINUS_VINV}
    cw = alg.canonical(a2.element((0, 1)))
    assert alg.bar(cw) == cw
