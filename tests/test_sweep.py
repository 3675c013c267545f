"""A seeded sweep of random Coxeter graphs across the independent routes.

The other tests cross-check the routes on fixed graph lists; this one
reaches graphs nobody listed.  One fixed seed draws graphs of rank 3 to 5:
each pair of generators commutes with probability 1/2 and otherwise gets a
label drawn from {2, 3, 4, 5, 6, inf}.  Each graph gets a bound of 5 or 6
and is skipped if it has more than 200 fully commutative elements up to
it.  On every graph kept, the two canonical-basis routes agree on every
fully commutative element, the coefficient tables pass their own checks
(P Q = I and the v^-1 agreement), and the level grower, on a new graph,
gives the braid closure's canonical words for the whole group up to
length 6."""

import itertools
import random

from braid_closure import ClosureRoute
from tlcox.coxeter import INFINITE, CoxeterGraph, enumerate_elements
from tlcox.tl import InternalConsistencyError, TLAlgebra, coeff_tables

LABELS = (2, 3, 4, 5, 6, INFINITE)
SEED, GRAPHS, MAX_FC, CLOSURE_BOUND = 22, 40, 200, 6


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


def test_random_graphs_agree_across_routes():
    ranks = set()
    for bonds, bound, g, fc in random_graphs(SEED, GRAPHS):
        ranks.add(len(bonds))
        alg = TLAlgebra.for_graph(g)
        for w in fc:
            assert alg.cbasis_recursive(w) == alg.cbasis(w), (bonds, w.word)
        try:
            coeff_tables(g, bound)
        except InternalConsistencyError as exc:
            raise AssertionError(f"{bonds} up to {bound}: {exc}") from exc
        grown = [w.word for w in enumerate_elements(CoxeterGraph(bonds), CLOSURE_BOUND)]
        assert grown == ClosureRoute(bonds).levels(CLOSURE_BOUND), bonds
    assert ranks == {3, 4, 5}
