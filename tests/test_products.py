"""Differential tests: canonical-basis products by the left action of the
canonical generators against the route through standard coordinates,

    c_x c_y = to_c(sum_u p*(u, x) t_u c_y),

with t_u c_y memoized on (u, y) and built letter by letter from the
generator kernel.  The same comparison runs in the full-group algebra."""

import pytest

from tlcox.coxeter import enumerate_elements, parse_graph, preset
from tlcox.hecke import HeckeAlgebra
from tlcox.tl import TLAlgebra, acc

RANK4_INF_5_4 = "rank 4\nedge 1 2 inf\nedge 2 3 5\nedge 3 4 4\n"


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
    return parse_graph(RANK4_INF_5_4) if name == "rank4" else preset(name)


@pytest.mark.parametrize("name,bound", [
    ("A4", 10), ("D4", 12), ("H3", 15), ("I2(5)", 5), ("B4", 5), ("~C3", 5),
    ("rank4", 4),
])
def test_c_mul_matches_t_route(name, bound):
    g = tl_graph(name)
    alg = TLAlgebra.for_graph(g)
    fc = list(enumerate_elements(g, bound, fc_only=True))
    expected = t_route_products(alg, alg.cbasis, alg.to_c, fc)
    for (x, y), want in expected.items():
        assert alg.c_mul(x, y) == want, (name, x, y)


@pytest.mark.parametrize("name,bound", [("A3", 6), ("B3", 9), ("I2(5)", 5)])
def test_kl_mul_matches_t_route(name, bound):
    g = preset(name)
    alg = HeckeAlgebra.for_graph(g)
    els = list(enumerate_elements(g, bound))
    expected = t_route_products(alg, alg.kl_basis, alg.to_kl, els)
    for (x, y), want in expected.items():
        assert alg.kl_mul(x, y) == want, (name, x, y)
