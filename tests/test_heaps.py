"""Fully commutative elements through heaps, against the braid closure.

The reference (`braid_closure.ClosureRoute`) is the closure word problem on
its own: canonical words are the least words of the braid-move closure,
descents and products by a generator are read off all reduced words, full
commutativity is the absence of an alternating braid factor in every
reduced word, and the fully commutative elements are grown level by level
with that test.  It shares no memo with the heap route."""

import math
import random

import pytest

from braid_closure import ClosureRoute
from tlcox.coxeter import (
    CoxeterGraph,
    decompose_fc_prefix,
    enumerate_elements,
    normal_form,
    parse_graph,
    preset,
)
from tlcox.stars import n_stat
from tlcox.tl import coeff_tables

RANK4_INF_5_4 = "rank 4\nedge 1 2 inf\nedge 2 3 5\nedge 3 4 4\n"


def fresh(name):
    bonds = parse_graph(RANK4_INF_5_4).bonds if name == "rank4" else preset(name).bonds
    return CoxeterGraph(bonds)


def old_n_stat(ref, word):
    """The windows definition: longest factor of distinct commuting letters
    in any reduced word."""
    bonds = ref.bonds
    best = 0
    for u in ref.closure(word):
        for i in range(len(u)):
            window = []
            for c in u[i:]:
                if c in window or any(bonds[c][d] != 2 for d in window):
                    break
                window.append(c)
            best = max(best, len(window))
    return best


# (graph, bound for the fully commutative elements, bound for all elements)
HEAP_CASES = [
    ("A3", 6, 6), ("A4", 10, 10), ("A5", 15, 8), ("B3", 9, 9), ("B4", 16, 9),
    ("D4", 12, 12), ("D5", 20, 8), ("F4", 24, 8), ("H3", 15, 10), ("I2(5)", 5, 5),
    ("I2(7)", 7, 7), ("~A2", 8, 8), ("~C3", 9, 9), ("rank4", 6, 6),
]


@pytest.mark.parametrize("name,fc_bound,all_bound", HEAP_CASES)
def test_heap_route_matches_closure(name, fc_bound, all_bound):
    g = fresh(name)
    ref = ClosureRoute(g.bonds)
    fc = list(enumerate_elements(g, fc_bound, fc_only=True))
    assert [w.word for w in fc] == ref.levels(fc_bound, fc_only=True)
    for w in fc:
        assert w.is_fully_commutative()
        assert w.left_descents() == ref.left_descents(w.word)
        assert w.right_descents() == ref.right_descents(w.word)
        for s in g.generators():
            assert g.lmul(s, w).word == ref.lmul(s, w.word), (w, s)
            assert g.rmul(w, s).word == ref.rmul(w.word, s), (w, s)
            if s not in w.left_descents() and not g.lmul(s, w).is_fully_commutative():
                w1, w2, w3, t = decompose_fc_prefix(w, s)
                assert (w1.word, w2.word, w3.word, t) == ref.decompose_fc_prefix(w.word, s)
    for w in enumerate_elements(g, all_bound):
        assert w.is_fully_commutative() == ref.is_fc(w.word), w
    rng = random.Random(name)
    for _ in range(100):
        word = [rng.randrange(g.rank) for _ in range(rng.randint(0, 9))]
        assert normal_form(g, word).word == ref.normal_form(word), word


@pytest.mark.parametrize("name,bound", [
    ("A5", 15), ("B4", 16), ("D5", 20), ("F4", 24), ("H3", 15), ("~C3", 8),
])
def test_n_stat_is_heap_width(name, bound):
    g = fresh(name)
    ref = ClosureRoute(g.bonds)
    for w in enumerate_elements(g, bound, fc_only=True):
        assert n_stat(w) == old_n_stat(ref, w.word), w


def catalan(n):
    return math.comb(2 * n, n) // (n + 1)


FC_COUNTS = (
    [(f"A{n}", catalan(n + 1)) for n in range(1, 8)]
    + [(f"B{n}", (n + 2) * catalan(n) - 1) for n in range(2, 6)]
    + [(f"D{n}", (n + 3) * catalan(n) // 2 - 1) for n in range(4, 7)]
    + [("E6", 662), ("E7", 2670), ("F4", 106), ("H3", 44), ("H4", 195)]
)


@pytest.mark.parametrize("name,count", FC_COUNTS)
def test_fully_commutative_counts(name, count):
    # the counts of Stembridge (J. Algebraic Combin. 5, 1996; 7, 1998); the
    # bound is past the longest element, so the levels run out by themselves
    g = fresh(name)
    assert sum(1 for _ in enumerate_elements(g, 200, fc_only=True)) == count


@pytest.mark.parametrize("name,bound", [("B4", 16), ("~C3", 9)])
def test_fc_tables_build_each_heap_once(monkeypatch, name, bound):
    # the heap that decides whether s*w is fully commutative also builds s*w
    words = []
    original = CoxeterGraph._heap_normal_form
    monkeypatch.setattr(CoxeterGraph, "_heap_normal_form",
                        lambda self, word: words.append(word) or original(self, word))
    coeff_tables(fresh(name), bound)
    assert words and len(words) == len(set(words))


@pytest.mark.parametrize("name,bound,fc_count", [("B4", 16, 83), ("~C3", 9, 178)])
def test_fc_tables_build_no_closure(monkeypatch, name, bound, fc_count):
    # the quotient never needs the word problem of the full group: no root
    # is computed, and no element that is not fully commutative is built
    calls = []
    for attr in ("_lmul_roots", "_rmul_roots"):
        original = getattr(CoxeterGraph, attr)
        monkeypatch.setattr(CoxeterGraph, attr,
                            lambda self, *args, _f=original: calls.append(args) or _f(self, *args))
    g = fresh(name)
    tables = coeff_tables(g, bound)
    assert len(tables.elements) == fc_count
    assert calls == [] and len(g._words) == 1
    # only fully commutative elements were ever built
    assert len(g._elements) == fc_count
    assert all(w.is_fully_commutative() for w in g._elements.values())
