"""The root-system word problem against the braid closure.

Every element up to a per-graph bound is built by `tlcox.coxeter` (heaps for
fully commutative elements, roots for the rest) and by the braid-move
closure of `braid_closure.ClosureRoute`, which shares no state with it; the
two must give the same elements in the same order, the same canonical
words, descents, products by each generator and sets of reduced words.
The bounds stop where the closure gets expensive; the root route itself
is pinned further out by the orders of whole finite groups.  The level
grower of the whole group, which reads left descents off the neighbour
records and tests no sign, is checked against the root route on a new
graph, from empty memos and from memos that other calls filled first."""

import math
import random

import pytest

from braid_closure import ClosureRoute
from tlcox.coxeter import enumerate_elements, group_order, preset
from tlcox.graphfile import parse_graph
from tlcox.library import normal_form, reduced_words
from tlcox.roots import RootSystem, _CosineRing, _cosine_minimal_polynomial

GRAPHS = {
    "rank4": "rank 4\nedge 1 2 inf\nedge 2 3 5\nedge 3 4 4\n",
    "bonds5,7": "rank 3\nedge 1 2 5\nedge 2 3 7\n",  # M = 35, d = 12
}


def build(name):
    """A new graph, so every test starts from empty memos."""
    return parse_graph(GRAPHS[name]) if name in GRAPHS else preset(name)


ROOT_CASES = [
    ("A3", 6), ("A4", 10), ("A5", 8), ("B3", 9), ("B4", 11), ("D4", 12), ("D5", 8),
    ("F4", 10), ("H3", 15), ("I2(5)", 5), ("I2(7)", 7), ("I2(8)", 8), ("~A2", 10),
    ("~C3", 10), ("rank4", 8), ("bonds5,7", 10),
]


@pytest.mark.parametrize("name,bound", ROOT_CASES)
def test_root_route_matches_closure(name, bound):
    g = build(name)
    ref = ClosureRoute(g.bonds)
    els = list(enumerate_elements(g, bound))
    assert [w.word for w in els] == ref.levels(bound)
    rs = g.root_system
    for w in els:
        # the root machinery on its own, fully commutative elements included
        key = rs.replay(w.word)
        assert rs.word_of(key) == w.word
        assert {t for t in g.generators() if rs.negative(key, t)} == ref.left_descents(w.word)
        assert w.left_descents() == ref.left_descents(w.word)
        assert w.right_descents() == ref.right_descents(w.word)
        assert g.inverse(w).word == ref.normal_form(w.word[::-1])
        assert g.inverse(g.inverse(w)) is w
        assert reduced_words(w) == ref.closure(w.word)
        for s in g.generators():
            assert g.lmul(s, w).word == ref.lmul(s, w.word), (w, s)
            assert g.rmul(w, s).word == ref.rmul(w.word, s), (w, s)
    # random words on a new graph, then down to the identity by left
    # descents, so that elements are met before their left factors; right
    # descents and inverses first, so that the inverse starts from nothing,
    # then the right products and products w*x, all read off s*w
    h = build(name)
    rng = random.Random(name)
    rng_x = random.Random(name + " x")
    shorter = 0
    for _ in range(100):
        word = [rng.randrange(h.rank) for _ in range(rng.randint(0, bound + 2))]
        w = normal_form(h, word)
        assert w.word == ref.normal_form(word), word
        assert w.right_descents() == ref.right_descents(w.word), w
        assert h.inverse(w).word == ref.normal_form(w.word[::-1]), w
        for s in h.generators():
            assert h.rmul(w, s).word == ref.rmul(w.word, s), (w, s)
        x = normal_form(h, [rng_x.randrange(h.rank) for _ in range(rng_x.randint(0, 3))])
        assert (w * x).word == ref.normal_form(w.word + x.word), (w, x)
        shorter += len(w.word) < len(word)
        while w.word:
            assert w.is_fully_commutative() == ref.is_fc(w.word), w
            w = h.lmul(min(w.left_descents()), w)
    assert shorter >= 20  # many of the words are not reduced


def test_records_belong_to_their_graph():
    # an element's record is filled by its own graph only: another graph with
    # the same bonds that multiplies or inverts it first answers with its own
    # elements and leaves nothing of them on the record
    words = [w.word for w in enumerate_elements(build("D4"), 12)]
    g, h = build("D4"), build("D4")
    for word in words:
        w = h.element(word)
        via_g = ([g.lmul(s, w) for s in g.generators()]
                 + [g.rmul(w, s) for s in g.generators()] + [g.inverse(w)])
        via_h = ([h.lmul(s, w) for s in h.generators()]
                 + [h.rmul(w, s) for s in h.generators()] + [h.inverse(w)])
        assert [x.word for x in via_g] == [x.word for x in via_h], w
        assert all(x.graph is g for x in via_g) and all(x.graph is h for x in via_h), w


def test_root_system_is_built_once_per_graph_on_its_first_complex_element(monkeypatch):
    # fully commutative elements need only their heaps; the first element
    # that is not builds the graph's root system, which every later one
    # shares, and another graph object with the same bonds builds its own
    built = []
    original = RootSystem.__init__
    monkeypatch.setattr(RootSystem, "__init__",
                        lambda self, graph: built.append(graph) or original(self, graph))
    g, h = build("H3"), build("H3")
    assert len(list(enumerate_elements(g, 15, fc_only=True))) == 44
    g.inverse(g.element([2, 1, 0, 1]))
    assert built == [] and g._root_system is None
    w = g.element([0, 1, 0, 1, 0])  # the braid of the 5-bond
    assert not w.is_fully_commutative() and built == [g]
    rs = g.root_system
    assert len(list(enumerate_elements(g, 15))) == 120
    assert g.element([1, 0, 1, 0, 1]) is w and built == [g] and g.root_system is rs
    h.lmul(1, h.element([0, 1, 0, 1]))
    assert built == [g, h]
    other = h.root_system
    assert other is not rs and other.graph is h
    assert other.words is not rs.words and other.ring is not rs.ring
    assert len(other.words) < len(rs.words)


@pytest.mark.parametrize("name,order,longest", [
    ("A5", 720, 15), ("B4", 384, 16), ("D5", 1920, 20), ("F4", 1152, 24), ("H3", 120, 15),
    ("E6", 51840, 36),
])
def test_whole_group_orders(name, order, longest):
    g = build(name)
    els = list(enumerate_elements(g, 200))  # the levels run out by themselves
    assert len(els) == order and els[-1].length == longest
    assert group_order(g, math.inf) == (order, longest)
    w0 = els[-1]  # the longest element: every generator is a descent on both sides
    assert w0.left_descents() == w0.right_descents() == frozenset(g.generators())
    # the key of w is the height of each root w^-1(a_t): n ring elements, 1
    # at the identity and -1 at w0, which sends every simple root to a
    # negative simple root; w -> key is injective
    rs = g.root_system
    unit = rs.key_of(g.identity)
    assert len(unit) == g.rank * rs.ring.d
    assert rs.key_of(w0) == tuple(-x for x in unit)
    assert len({rs.key_of(w) for w in els}) == order


GROWER_CASES = [("D4", 12), ("D5", 10), ("F4", 24), ("H3", 15), ("B4", 16), ("~A2", 8),
                ("rank4", 6)]


def grower_records(g, els, bound):
    """Per element: its word, left descents, FC flag and the neighbours the
    grower records, s*w for every s below the last level and for s in L(w)
    on it."""
    return [(w.word, g.left_descents(w), g.is_fully_commutative(w),
             [(s, w.lnbr[s].word) for s in g.generators()
              if len(w.word) < bound or s in w.ldesc]) for w in els]


@pytest.mark.parametrize("name,bound", GROWER_CASES)
def test_grower_matches_the_root_route(name, bound):
    g = build(name)
    els = list(enumerate_elements(g, bound))
    h = build(name)  # the root route on empty memos
    rs = h.root_system
    for w in els:
        assert w.ldesc is not None and w.fc is not None, w  # recorded, not computed later
        key = rs.replay(w.word)
        assert rs.word_of(key) == w.word
        assert w.ldesc == {t for t in h.generators() if rs.negative(key, t)}, w
        assert w.fc == (h.fc_normal_form_word(w.word) is not None), w
        for s, x in enumerate(w.lnbr):
            if x is not None:
                assert x.word == rs.word_of(rs.lmul(s, key)), (w, s)
            else:  # every product the grower formed is recorded
                assert len(w.word) == bound and s not in w.ldesc, (w, s)


@pytest.mark.parametrize("name,bound", GROWER_CASES)
def test_grower_from_a_mixed_state(name, bound):
    # elements built by normal forms, by products and by a shorter
    # enumeration leave records that the grower reads and fills
    bound = min(bound, 8)
    g = build(name)
    rng = random.Random(name)
    for _ in range(40):
        w = g.element([rng.randrange(g.rank) for _ in range(rng.randint(0, bound + 3))])
        for _ in range(3):
            w = g.lmul(rng.randrange(g.rank), w)
    list(enumerate_elements(g, 4))
    # records the grower must fill: descents of elements it has not built
    assert any(w.ldesc is None for w in g._elements.values() if len(w.word) <= bound)
    mixed = list(enumerate_elements(g, bound))
    h = build(name)
    fresh = list(enumerate_elements(h, bound))
    assert grower_records(g, mixed, bound) == grower_records(h, fresh, bound)


def test_minimal_polynomials_of_cosines():
    assert _cosine_minimal_polynomial(5) == [-1, -1, 1]
    assert _cosine_minimal_polynomial(7) == [1, -2, -1, 1]
    for M in (5, 7, 8, 9, 12, 35):
        ring = _CosineRing(M)
        assert ring.d == sum(1 for k in range(1, 2 * M) if math.gcd(k, 2 * M) == 1) // 2
        c = 2 * math.cos(math.pi / M)
        for m in (k for k in range(2, M + 1) if M % k == 0):
            value = sum(a * c ** i for i, a in enumerate(ring.cos_pi_over(m)))
            assert abs(value - 2 * math.cos(math.pi / m)) < 1e-9


def test_sign_falls_back_to_exact_bisection(monkeypatch):
    # F_{k+1} - F_k phi = (-1/phi)^k for phi = 2cos(pi/5): its float value is
    # lost in rounding long before k = 60, so the sign must come from the
    # interval bisection
    ring = _CosineRing(5)
    calls = []
    exact = _CosineRing._exact_sign
    monkeypatch.setattr(_CosineRing, "_exact_sign",
                        lambda self, x: calls.append(x) or exact(self, x))
    fib = [0, 1]
    while len(fib) < 130:
        fib.append(fib[-1] + fib[-2])
    for k in (60, 61, 100, 101, 127):
        assert ring.sign((fib[k + 1], -fib[k])) == (-1) ** k
    assert len(calls) == 5
    assert ring.sign((0, 0)) == 0 and ring.sign((3, 0)) == 1 and ring.sign((-1, 1)) == 1
    assert ring.sign((1, -1)) == -1 and len(calls) == 5
