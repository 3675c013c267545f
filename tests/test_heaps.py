"""Fully commutative elements through heaps, against the braid closure.

The reference below is the closure word problem on its own: canonical words
are the least words of the braid-move closure, descents and products by a
generator are read off all reduced words, full commutativity is the absence
of an alternating braid factor in every reduced word, and the fully
commutative elements are grown level by level with that test.  It runs on a
separate graph instance, so no memo is shared with the heap route."""

import math
import random

import pytest

from tlcox.coxeter import (
    CoxeterGraph,
    INFINITE,
    decompose_fc_prefix,
    enumerate_elements,
    normal_form,
    parse_graph,
    preset,
)
from tlcox.stars import n_stat
from tlcox.tl import TLAlgebra, coeff_tables

RANK4_INF_5_4 = "rank 4\nedge 1 2 inf\nedge 2 3 5\nedge 3 4 4\n"


def fresh(name):
    bonds = parse_graph(RANK4_INF_5_4).bonds if name == "rank4" else preset(name).bonds
    return CoxeterGraph(bonds)


class ClosureRoute:
    def __init__(self, bonds):
        self.g = CoxeterGraph(bonds)

    def closure(self, word):
        reduced, seen, _ = self.g._scan(tuple(word))
        assert reduced
        return seen

    def normal_form(self, word):
        word = tuple(word)
        while True:
            reduced, seen, shorter = self.g._scan(word)
            if reduced:
                return min(seen)
            word = shorter

    def is_fc(self, word):
        bonds = self.g.bonds
        for u in self.closure(word):
            for i in range(len(u) - 1):
                s, t = u[i], u[i + 1]
                m = bonds[s][t]
                if m == 2 or m == INFINITE or i + m > len(u):
                    continue
                if all(u[i + k] == (s if k % 2 == 0 else t) for k in range(m)):
                    return False
        return True

    def left_descents(self, word):
        return {u[0] for u in self.closure(word)} if word else set()

    def right_descents(self, word):
        return {u[-1] for u in self.closure(word)} if word else set()

    def lmul(self, s, word):
        if s in self.left_descents(word):
            return min(u[1:] for u in self.closure(word) if u[0] == s)
        return self.normal_form((s,) + word)

    def rmul(self, word, s):
        if s in self.right_descents(word):
            return min(u[:-1] for u in self.closure(word) if u[-1] == s)
        return self.normal_form(word + (s,))

    def fc_levels(self, bound):
        levels = [[()]]
        while len(levels) <= bound:
            nxt = set()
            for w in levels[-1]:
                for s in range(self.g.rank):
                    if s not in self.left_descents(w):
                        sw = self.normal_form((s,) + w)
                        if self.is_fc(sw):
                            nxt.add(sw)
            if not nxt:
                break
            levels.append(sorted(nxt))
        return [w for level in levels for w in level]

    def decompose_fc_prefix(self, word, s):
        """The factorization read off the least reduced word that has one."""
        bonds = self.g.bonds
        for u in sorted(self.closure(word)):
            for i, t in enumerate(u):
                m = bonds[s][t]
                if 3 <= m < INFINITE and i + m - 1 <= len(u):
                    if all(u[i + k] == (t if k % 2 == 0 else s) for k in range(m - 1)):
                        return (self.normal_form(u[:i]), u[i:i + m - 1],
                                self.normal_form(u[i + m - 1:]), t)
                if bonds[t][s] != 2:
                    break
        raise AssertionError("no factorization")


def old_n_stat(ref, word):
    """The windows definition: longest factor of distinct commuting letters
    in any reduced word."""
    bonds = ref.g.bonds
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
    assert [w.word for w in fc] == ref.fc_levels(fc_bound)
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


@pytest.mark.parametrize("name,bound,fc_count", [("B4", 16, 83), ("~C3", 9, 178)])
def test_fc_tables_build_no_closure(monkeypatch, name, bound, fc_count):
    scans = []
    original = CoxeterGraph._scan

    def counting_scan(self, start):
        scans.append(start)
        return original(self, start)

    monkeypatch.setattr(CoxeterGraph, "_scan", counting_scan)
    monkeypatch.setattr(TLAlgebra, "_instances", {})
    g = fresh(name)
    tables = coeff_tables(g, bound)
    assert len(tables.elements) == fc_count
    assert scans == [] and not g._closure
    # only fully commutative elements were ever built
    assert len(g._elements) == fc_count
    assert all(w.is_fully_commutative() for w in g._elements.values())
