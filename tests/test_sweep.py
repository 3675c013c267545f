"""A seeded sweep of random Coxeter graphs across the independent routes.

The other tests cross-check the routes on fixed graph lists; this one
reaches graphs nobody listed.  One fixed seed draws graphs of rank 3 to 5:
each pair of generators commutes with probability 1/2 and otherwise gets a
label drawn from {2, 3, 4, 5, 6, inf}.  Each graph gets a bound of 5 or 6
and is skipped if it has more than 200 fully commutative elements up to
it.  On every graph kept:
- the two canonical-basis routes agree on every fully commutative element;
- the mu-rule `c_lgen` gives c_s c_w as the route through standard
  coordinates does (`test_products.t_route_lgen`), for every s and every
  w below the bound;
- `c_mul` gives the p*-route's product (`test_products.t_route_products`)
  for every pair of fully commutative elements up to length 3;
- the coefficient tables pass their own checks (Q P = I and the v^-1
  agreement);
- property W from the fully commutative set renders the report of the
  whole-group loop (`test_tl.whole_group_property_W`), also under a
  stricter test that every weakly complex element fails;
- the level grower, on a new graph, gives the braid closure's canonical
  words for the whole group up to length 6, and for each of its elements
  the same left and right descents and inverse, and below length 6 the
  same products by each generator on either side."""

import itertools
import random

from braid_closure import ClosureRoute
from test_products import eliminate, t_route_lgen, t_route_products
from test_tl import whole_group_property_W
from tlcox.coxeter import INFINITE, CoxeterGraph, enumerate_elements
from tlcox.laurent import LaurentPoly
from tlcox.tl import InternalConsistencyError, TLAlgebra, check_property_W, coeff_tables

LABELS = (2, 3, 4, 5, 6, INFINITE)
SEED, GRAPHS, MAX_FC, CLOSURE_BOUND, PRODUCT_BOUND = 22, 40, 200, 6, 3


def random_graphs(seed, count):
    """(bonds, bound, graph, its fully commutative elements up to bound)."""
    rng = random.Random(seed)
    while count:
        rank = rng.randint(3, 5)
        bonds = [[1] * rank for _ in range(rank)]
        for i, j in itertools.combinations(range(rank), 2):
            bonds[i][j] = bonds[j][i] = 2 if rng.random() < 0.5 else rng.choice(LABELS)
        bound = rng.randint(5, 6)
        g = CoxeterGraph(bonds)
        fc = list(itertools.islice(enumerate_elements(g, bound, fc_only=True), MAX_FC + 1))
        if len(fc) <= MAX_FC:
            count -= 1
            yield bonds, bound, g, fc


def test_random_graphs_agree_across_routes(monkeypatch):
    ranks = set()
    for bonds, bound, g, fc in random_graphs(SEED, GRAPHS):
        ranks.add(len(bonds))
        alg = TLAlgebra.for_graph(g)
        for w in fc:
            assert alg.cbasis_recursive(w) == alg.cbasis(w), (bonds, w.word)
            if w.length < bound:  # the references cost most at the top level
                for s in g.generators():
                    want = t_route_lgen(alg, alg.cbasis, s, w)
                    assert alg.c_lgen(s, w) == want, (bonds, s, w.word)
        short = [w for w in fc if w.length <= PRODUCT_BOUND]
        products = t_route_products(alg, alg.cbasis, lambda c: eliminate(c, alg.cbasis), short)
        for (x, y), want in products.items():
            assert alg.c_mul(x, y) == want, (bonds, x.word, y.word)
        try:
            coeff_tables(g, bound)
        except InternalConsistencyError as exc:
            raise AssertionError(f"{bonds} up to {bound}: {exc}") from exc
        want = whole_group_property_W(g, bound).render()
        assert check_property_W(g, bound).render() == want, bonds
        with monkeypatch.context() as m:
            m.setattr(LaurentPoly, "in_vneg", lambda p: p.max_exp() < -1)
            strict = check_property_W(g, bound)
            assert strict.render() == whole_group_property_W(g, bound).render(), bonds
        h, ref = CoxeterGraph(bonds), ClosureRoute(bonds)
        grown = list(enumerate_elements(h, CLOSURE_BOUND))
        assert [w.word for w in grown] == ref.levels(CLOSURE_BOUND), bonds
        for w in grown:
            assert w.left_descents() == ref.left_descents(w.word), (bonds, w)
            assert w.right_descents() == ref.right_descents(w.word), (bonds, w)
            assert h.inverse(w).word == ref.normal_form(w.word[::-1]), (bonds, w)
            if len(w.word) < CLOSURE_BOUND:
                for s in h.generators():
                    assert h.lmul(s, w).word == ref.lmul(s, w.word), (bonds, w, s)
                    assert h.rmul(w, s).word == ref.rmul(w.word, s), (bonds, w, s)
    assert ranks == {3, 4, 5}
