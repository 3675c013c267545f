"""Differential tests of the products in canonical coordinates.

Both algebras build c_x c_y from the table c_s c_w, which they read off the
mu-rule (`_Algebra.c_lgen`).  The reference here is the route through
standard coordinates that the rule replaced: c_s c_w = t_s c_w + v^-1 c_w,
eliminated back to canonical coordinates.  For the quotient the reference
reads c_w off the bar-solve (`cbasis`), so it shares nothing with the
length recursion the rule reads mu from.  Each entry of the rule is checked,
and eliminated like the reference where the check fails: the differential
tests assert that it never fails on their graphs, and rigged tests that a
rule dropping a term is caught and that a refusal of the length recursion
inside a product leaves the products exact.  The whole products are checked
too, against

    c_x c_y = sum_u p*(u, x) t_u c_y, eliminated on the bar-solve,

with t_u c_y memoized on (u, y) and built letter by letter from the
generator kernel.  The same comparisons run in the full-group algebra,
eliminating on `kl_basis`."""

import pytest

from tlcox.coxeter import enumerate_elements, preset
from tlcox.graphfile import parse_graph
from tlcox.hecke import HeckeAlgebra
from tlcox.laurent import V_INV
from tlcox.tl import CanonicalRecursionError, TLAlgebra, acc

RANK4_INF_5_4 = "rank 4\nedge 1 2 inf\nedge 2 3 5\nedge 3 4 4\n"
# three infinite bonds and one of 3: 89 pairs (s, w) up to length 6 have s w
# not fully commutative
RANK4_THREE_INF = "rank 4\nedge 1 2 inf\nedge 2 3 inf\nedge 3 4 inf\nedge 1 3 3\n"


def eliminate(coords, basis):
    """Standard coordinates -> coordinates on a unitriangular basis, basis(w)
    being the standard expansion of its element over w (greedy elimination
    from the top)."""
    rem = dict(coords)
    out = {}
    while rem:
        w = max(rem)
        a = out[w] = rem[w]
        acc(rem, basis(w), -a)
        assert w not in rem, w  # the unit diagonal of basis(w) clears rem[w]
    return out


def t_route_lgen(alg, basis, s, w):
    """c_s c_w through standard coordinates: t_s c_w + v^-1 c_w, eliminated."""
    cw = basis(w)
    prod = alg.lmul(s, cw)
    acc(prod, cw, V_INV)
    return eliminate(prod, basis)


def t_route_products(alg, basis, to_coords, elements):
    """Every product of basis elements over `elements`, through standard
    coordinates; basis(w) is the standard expansion of the basis element and
    to_coords converts standard coordinates back."""
    g = alg.graph
    memo = {}

    def t_times_basis(u, y):
        key = (u, y)
        cached = memo.get(key)
        if cached is None:
            if not u.word:
                cached = dict(basis(y))
            else:
                rest = g.element(u.word[1:])
                cached = alg.lmul(u.word[0], t_times_basis(rest, y))
            memo[key] = cached
        return cached

    out = {}
    for x in elements:
        for y in elements:
            prod = {}
            for u, cu in basis(x).items():
                acc(prod, t_times_basis(u, y), cu)
            out[(x, y)] = to_coords(prod)
    return out


def tl_graph(name):
    texts = {"rank4": RANK4_INF_5_4, "rank4-3inf": RANK4_THREE_INF}
    return parse_graph(texts[name]) if name in texts else preset(name)


@pytest.mark.parametrize("name,bound", [
    ("A3", 5), ("B3", 5), ("I2(5)", 5), ("D4", 12), ("F4", 24), ("H4", 60), ("B4", 5),
    ("~C3", 8), ("rank4", 6), ("rank4-3inf", 6),
])
def test_c_lgen_matches_t_route(name, bound, monkeypatch):
    # the rule, with and without s w fully commutative, against the bar-solve;
    # its check passes on every entry, so no entry is eliminated instead
    g = tl_graph(name)
    alg = TLAlgebra.for_graph(g)
    t_route = count_t_route(monkeypatch, TLAlgebra)
    not_fc = 0
    for w in enumerate_elements(g, bound, fc_only=True):
        for s in g.generators():
            want = t_route_lgen(alg, alg.cbasis, s, w)
            assert alg.c_lgen(s, w) == want, (name, s, w)
            assert alg.c_mul(g.element((s,)), w) == want, (name, s, w)
            not_fc += s not in g.left_descents(w) and g.fc_lmul(s, w) is None
    assert not alg._recursion_failed and not t_route
    if name == "rank4-3inf":
        assert not_fc == 89


@pytest.mark.parametrize("name", ["A3", "B2"])
def test_oracle_c_lgen_matches_t_route(name, monkeypatch):
    g = preset(name)
    alg = HeckeAlgebra.for_graph(g)
    t_route = count_t_route(monkeypatch, HeckeAlgebra)
    for w in enumerate_elements(g, 5):
        for s in g.generators():
            want = t_route_lgen(alg, alg.kl_basis, s, w)
            assert alg.c_lgen(s, w) == want, (name, s, w)
            assert alg.kl_mul(g.element((s,)), w) == want, (name, s, w)
    assert not t_route


def bar_solve_products(g, bound):
    ref = TLAlgebra(g)
    fc = list(enumerate_elements(g, bound, fc_only=True))
    return t_route_products(ref, ref.cbasis, lambda c: eliminate(c, ref.cbasis), fc)


def count_t_route(monkeypatch, cls):
    """Count the entries `c_lgen` eliminates from standard coordinates
    (`to_c`) instead of reading off the mu-rule."""
    calls = []

    def to_c(self, coords, _original=cls.to_c):
        calls.append(coords)
        return _original(self, coords)

    monkeypatch.setattr(cls, "to_c", to_c)
    return calls


def test_a_rule_that_drops_a_term_is_caught(monkeypatch):
    # with the hook claiming that every s w leaves the basis, the rule drops
    # c_sw wherever s w is fully commutative; each such entry fails its check
    # and is eliminated instead, so the products still match the bar-solve
    g = preset("B4")
    expected = bar_solve_products(g, 5)
    alg = TLAlgebra(g)
    alg._basis_lmul = lambda s, w: None
    t_route = count_t_route(monkeypatch, TLAlgebra)
    for (x, y), want in expected.items():
        assert alg.c_mul(x, y) == want, (x, y)
    dropped = [(s, w) for s, w in alg._cgen
               if s not in g.left_descents(w) and g.fc_lmul(s, w) is not None]
    assert dropped and len(t_route) == len(dropped)


def test_products_stay_exact_when_the_recursion_refuses_mid_product(monkeypatch):
    # the recursion refuses from length 2 on, inside a product and after the
    # rule has built entries; every product still matches the bar-solve
    g = preset("B3")
    expected = bar_solve_products(g, 4)
    alg = TLAlgebra(g)
    built_before_refusal = []

    def refuse(self, w, _original=TLAlgebra.cbasis_recursive):
        if w.length >= 2:
            built_before_refusal.append(len(self._cgen))
            raise CanonicalRecursionError("rigged refusal")
        return _original(self, w)

    monkeypatch.setattr(TLAlgebra, "cbasis_recursive", refuse)
    for (x, y), want in expected.items():
        assert alg.c_mul(x, y) == want, (x, y)
    assert alg._recursion_failed and built_before_refusal[0] > 0


@pytest.mark.parametrize("name,bound", [
    ("A4", 10), ("D4", 12), ("H3", 15), ("I2(5)", 5), ("B4", 5), ("~C3", 5),
    ("rank4", 4),
])
def test_c_mul_matches_t_route(name, bound):
    g = tl_graph(name)
    alg = TLAlgebra.for_graph(g)
    fc = list(enumerate_elements(g, bound, fc_only=True))
    expected = t_route_products(alg, alg.cbasis, lambda c: eliminate(c, alg.cbasis), fc)
    for (x, y), want in expected.items():
        assert alg.c_mul(x, y) == want, (name, x, y)


@pytest.mark.parametrize("name,bound", [("A3", 6), ("B3", 9), ("I2(5)", 5)])
def test_kl_mul_matches_t_route(name, bound):
    g = preset(name)
    alg = HeckeAlgebra.for_graph(g)
    els = list(enumerate_elements(g, bound))
    expected = t_route_products(alg, alg.kl_basis, lambda c: eliminate(c, alg.kl_basis), els)
    for (x, y), want in expected.items():
        assert alg.kl_mul(x, y) == want, (name, x, y)
