import itertools
import random

import pytest

from tlcox.coxeter import (
    COMPLEX_OTHER,
    FULLY_COMMUTATIVE,
    INFINITE,
    WEAKLY_COMPLEX,
    GraphError,
    classify,
    decompose_fc_prefix,
    enumerate_elements,
    format_element,
    group_order,
    parse_element,
    preset,
)
from tlcox.graphfile import parse_graph
from tlcox.library import bruhat_leq, coset_decompose, normal_form, reduced_words
from tlcox.stars import is_commuting_product


# -- independent oracle: type A as permutations --------------------------------


def perm_of_word(word, n):
    """Compose adjacent transpositions acting on positions (right action)."""
    p = list(range(n + 1))
    for s in word:
        p[s], p[s + 1] = p[s + 1], p[s]
    return tuple(p)


def inversions(p):
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j])


def is_321_avoiding(p):
    n = len(p)
    return not any(
        p[i] > p[j] > p[k]
        for i in range(n) for j in range(i + 1, n) for k in range(j + 1, n)
    )


# -- graphs ----------------------------------------------------------------------


def test_parse_graph_presets_and_edges():
    a3 = parse_graph("preset A3")
    assert a3.m(0, 1) == 3 and a3.m(1, 2) == 3 and a3.m(0, 2) == 2
    b2 = parse_graph("rank 2\nedge 1 2 4\n")
    assert b2.m(0, 1) == 4
    assert b2 == preset("B2")
    inf = parse_graph("# comment\nrank 2\nedge 1 2 inf")
    assert inf.m(0, 1) == INFINITE


@pytest.mark.parametrize(
    "bad",
    [
        "rank 2\nedge 1 2 2",          # explicit label < 3
        "rank 2\nedge 1 2 4\nedge 2 1 5",  # duplicate edge
        "rank 2\nedg 1 2 3",            # malformed line
        "edge 1 2 3",                   # missing rank
        "rank 2\npreset A2",            # preset mixed with rank
        "rank 2\nedge 1 3 3",           # out of range
        "preset Q7",                    # unknown preset
    ],
)
def test_parse_graph_errors(bad):
    with pytest.raises(GraphError):
        parse_graph(bad)


def test_preset_shapes():
    assert preset("A1").rank == 1
    d4 = preset("D4")
    assert sorted(d4.noncommuting_pairs()) == [(0, 1), (1, 2), (1, 3)]
    h3 = preset("H3")
    assert h3.m(0, 1) == 5 and h3.m(1, 2) == 3
    f4 = preset("F4")
    assert [f4.m(i, i + 1) for i in range(3)] == [3, 4, 3]
    e6 = preset("E6")
    assert sorted(e6.noncommuting_pairs()) == [(0, 2), (1, 3), (2, 3), (3, 4), (4, 5)]
    tri = preset("~A2")
    assert sorted(tri.noncommuting_pairs()) == [(0, 1), (0, 2), (1, 2)]
    c2 = preset("~C2")
    assert [c2.m(0, 1), c2.m(1, 2)] == [4, 4]
    assert preset("~A1").m(0, 1) == INFINITE
    assert preset("I2(7)").m(0, 1) == 7
    d6 = preset("D6")
    assert sorted(d6.noncommuting_pairs()) == [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5)]
    e8 = preset("E8")
    assert sorted(e8.noncommuting_pairs()) == [
        (0, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7)]
    b5 = preset("B5")
    assert [b5.m(i, i + 1) for i in range(4)] == [4, 3, 3, 3]
    assert len(b5.noncommuting_pairs()) == 4
    a4 = preset("~A4")
    assert sorted(a4.noncommuting_pairs()) == [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
    assert all(a4.m(i, j) == 3 for i, j in a4.noncommuting_pairs())
    c4 = preset("~C4")
    assert [c4.m(i, i + 1) for i in range(4)] == [4, 3, 3, 4]
    assert len(c4.noncommuting_pairs()) == 4


# -- normal forms -----------------------------------------------------------------


def test_normal_form_examples():
    a3 = preset("A3")
    w = normal_form(a3, [1, 0, 2, 1])
    assert w.word == (1, 0, 2, 1) and w.length == 4
    assert sorted(reduced_words(w)) == [(1, 0, 2, 1), (1, 2, 0, 1)]
    assert normal_form(a3, [0, 0]).length == 0
    b2 = preset("B2")
    longest = normal_form(b2, [0, 1, 0, 1])
    assert longest.word == (0, 1, 0, 1) and longest.length == 4


def test_normal_form_idempotent_and_closure_constant():
    a3 = preset("A3")
    rng = random.Random(3)
    for _ in range(50):
        word = [rng.randrange(3) for _ in range(rng.randint(0, 8))]
        w = normal_form(a3, word)
        assert normal_form(a3, w.word) is w
        for u in reduced_words(w):
            assert normal_form(a3, u) is w


def test_type_a_lengths_match_inversion_counts():
    a3 = preset("A3")
    rng = random.Random(5)
    for _ in range(100):
        word = [rng.randrange(3) for _ in range(rng.randint(0, 10))]
        w = normal_form(a3, word)
        assert w.length == inversions(perm_of_word(word, 3))
        assert perm_of_word(w.word, 3) == perm_of_word(word, 3)


def test_length_changes_by_one():
    for name in ["A3", "B2", "I2(5)"]:
        g = preset(name)
        for w in enumerate_elements(g, 4):
            for s in g.generators():
                assert abs(g.lmul(s, w).length - w.length) == 1


# -- descents -----------------------------------------------------------------------


def test_descent_examples():
    a3 = preset("A3")
    w = a3.element([1, 0, 2, 1])
    assert w.left_descents() == {1}
    assert a3.identity.left_descents() == frozenset()
    b2 = preset("B2")
    ts = b2.element([1, 0])
    assert ts.left_descents() == {1}
    assert ts.right_descents() == {0}


def test_descents_match_permutation_oracle():
    a3 = preset("A3")
    for w in enumerate_elements(a3, 6):
        p = perm_of_word(w.word, 3)
        # s_i is a right descent of w iff position i is out of order in the
        # one-line notation of the right-action permutation
        expected_right = frozenset(i for i in range(3) if p[i] > p[i + 1])
        assert w.right_descents() == expected_right
        q = perm_of_word(tuple(reversed(w.word)), 3)
        expected_left = frozenset(i for i in range(3) if q[i] > q[i + 1])
        assert w.left_descents() == expected_left


# -- Bruhat order -------------------------------------------------------------------


def bruhat_oracle(x, w):
    """Subword characterization, brute force over one fixed reduced word of w."""
    g = w.graph
    seen = set()
    word = w.word
    for mask in range(1 << len(word)):
        sub = tuple(word[i] for i in range(len(word)) if mask >> i & 1)
        seen.add(g.element(sub))
    return x in seen


def test_bruhat_examples():
    a3 = preset("A3")
    w = a3.element([1, 0, 2, 1])
    s2 = a3.element([1])
    assert bruhat_leq(s2, w)
    assert bruhat_leq(w, w)
    assert not bruhat_leq(a3.element([0]), s2)


@pytest.mark.parametrize("name,bound", [("A3", 6), ("B2", 4), ("I2(5)", 5), ("D4", 4)])
def test_bruhat_matches_subword_oracle(name, bound):
    g = preset(name)
    els = list(enumerate_elements(g, bound))
    for w in els:
        below = {x for x in els if bruhat_leq(x, w)}
        oracle = {x for x in els if bruhat_oracle(x, w)}
        assert below == oracle


def test_bruhat_refines_length():
    g = preset("B2")
    els = list(enumerate_elements(g, 4))
    for x in els:
        for w in els:
            if bruhat_leq(x, w) and x != w:
                assert x.length < w.length


# -- full commutativity and classification ---------------------------------------------


def test_fc_examples():
    a2 = preset("A2")
    assert not a2.element([0, 1, 0]).is_fully_commutative()
    a3 = preset("A3")
    assert a3.element([1, 0, 2, 1]).is_fully_commutative()
    b2 = preset("B2")
    assert b2.element([1, 0, 1]).is_fully_commutative()


def test_fc_matches_321_avoidance():
    a3 = preset("A3")
    for w in enumerate_elements(a3, 6):
        assert w.is_fully_commutative() == is_321_avoiding(perm_of_word(w.word, 3))


def test_fc_count_is_catalan():
    a3 = preset("A3")
    assert sum(1 for _ in enumerate_elements(a3, 10, fc_only=True)) == 14
    a2 = preset("A2")
    assert sum(1 for _ in enumerate_elements(a2, 10)) == 6


def test_classify_examples():
    a2 = preset("A2")
    assert classify(a2.element([0, 1, 0])) == WEAKLY_COMPLEX
    a3 = preset("A3")
    assert classify(a3.element([1, 0, 2, 1])) == FULLY_COMMUTATIVE
    w0 = a3.element([0, 1, 0, 2, 1, 0])
    assert w0.length == 6
    assert classify(w0) == COMPLEX_OTHER


def test_classify_consistent_with_fc():
    for name in ["A3", "B2", "I2(5)"]:
        g = preset(name)
        for w in enumerate_elements(g, 5):
            assert (classify(w) == FULLY_COMMUTATIVE) == w.is_fully_commutative()


# -- enumeration -----------------------------------------------------------------------


def test_enumerate_order_and_counts():
    a2 = preset("A2")
    els = list(enumerate_elements(a2, 10))
    assert len(els) == 6
    keys = [w.key for w in els]
    assert keys == sorted(keys)
    assert len(set(els)) == 6
    assert next(iter(enumerate_elements(a2, 0))) is a2.identity


def test_group_orders():
    assert group_order(preset("A3"), 50000) == (24, 6)
    assert group_order(preset("B3"), 50000) == (48, 9)
    assert group_order(preset("D4"), 50000) == (192, 12)
    assert group_order(preset("H3"), 50000) == (120, 15)
    assert group_order(preset("I2(7)"), 50000) == (14, 7)
    assert group_order(preset("~A2"), 200) is None


# -- coset decomposition ------------------------------------------------------------------


def test_coset_decompose_examples():
    b2 = preset("B2")
    ts = b2.element([1, 0])
    dec = coset_decompose(ts, (0, 1), "left")
    assert dec.part_I is ts and dec.rest is b2.identity
    a3 = preset("A3")
    w = a3.element([1, 0, 2, 1])
    dec = coset_decompose(w, (0, 1), "left")
    assert dec.part_I.word == (1, 0) and dec.rest.word == (2, 1)
    s3 = a3.element([2])
    dec = coset_decompose(s3, (0, 1), "left")
    assert dec.part_I is a3.identity and dec.rest is s3


def test_coset_decompose_rejects_commuting_pair():
    a3 = preset("A3")
    with pytest.raises(ValueError):
        coset_decompose(a3.element([0]), (0, 2), "left")


@pytest.mark.parametrize("name,bound", [("A3", 6), ("B2", 4), ("B3", 5), ("I2(5)", 5)])
def test_coset_decompose_unique_and_total(name, bound):
    g = preset(name)
    for w in enumerate_elements(g, bound):
        for pair in g.noncommuting_pairs():
            for side in ("left", "right"):
                dec = coset_decompose(w, pair, side)
                assert dec.recombine() is w
                assert dec.part_I.length + dec.rest.length == w.length
                assert set(dec.part_I.word) <= set(pair)
                if side == "left":
                    assert not (dec.rest.left_descents() & set(pair))
                else:
                    assert not (dec.rest.right_descents() & set(pair))
                assert dec.case() in (1, 2, 3, 4)


def test_coset_case_partition():
    g = preset("B2")
    cases = {}
    for w in enumerate_elements(g, 4):
        cases[w] = coset_decompose(w, (0, 1), "left").case()
    # shortest element of the single coset, longest, and the two strings
    assert cases[g.identity] == 1
    assert cases[g.element([0, 1, 0, 1])] == 2
    assert cases[g.element([0])] == 3 and cases[g.element([1, 0])] == 3
    assert cases[g.element([1])] == 4 and cases[g.element([0, 1])] == 4


# -- alternating-prefix factorization ----------------------------------------------------


def test_decompose_fc_prefix_examples():
    a2 = preset("A2")
    w1, w2, w3, t = decompose_fc_prefix(a2.element([1, 0]), 0)
    assert (w1.word, w2.word, w3.word, t) == ((), (1, 0), (), 1)
    b2 = preset("B2")
    w1, w2, w3, t = decompose_fc_prefix(b2.element([1, 0, 1]), 0)
    assert (w1.word, w2.word, w3.word, t) == ((), (1, 0, 1), (), 1)
    a3 = preset("A3")
    w1, w2, w3, t = decompose_fc_prefix(a3.element([2, 1, 0]), 0)
    assert (w1.word, w2.word, w3.word, t) == ((2,), (1, 0), (), 1)
    check_prefix_decomposition(a3.element([2, 1, 0]), 0)


def check_prefix_decomposition(w, s):
    g = w.graph
    w1, w2, w3, t = decompose_fc_prefix(w, s)
    assert all(g.m(a, s) == 2 for a in w1.word)
    m = g.m(s, t)
    assert w2.length == m - 1
    assert w2.word == tuple(t if k % 2 == 0 else s for k in range(m - 1))
    assert (w1 * w2 * w3) is w
    assert w1.length + w2.length + w3.length == w.length


@pytest.mark.parametrize("name,bound", [("A3", 6), ("B3", 6), ("I2(6)", 5)])
def test_decompose_fc_prefix_everywhere(name, bound):
    g = preset(name)
    for w in enumerate_elements(g, bound, fc_only=True):
        for s in g.generators():
            if s in w.left_descents():
                continue
            if g.lmul(s, w).is_fully_commutative():
                continue
            check_prefix_decomposition(w, s)


# -- misc -----------------------------------------------------------------------------------


def test_is_commuting_product():
    a3 = preset("A3")
    assert is_commuting_product(a3.element([0, 2]))
    assert is_commuting_product(a3.identity)
    assert not is_commuting_product(a3.element([0, 1]))


def test_element_text_round_trip():
    a3 = preset("A3")
    w = a3.element([1, 0, 2, 1])
    assert format_element(w) == "2 1 3 2"
    assert parse_element(a3, "2 1 3 2") is w
    assert format_element(a3.identity) == "e"
    assert parse_element(a3, "e") is a3.identity
    with pytest.raises(ValueError):
        parse_element(a3, "2 5")


def test_infinite_bond_words():
    g = preset("~A1")
    w = g.element([0, 1, 0, 1])
    assert w.length == 4
    assert g.element([0, 1, 0, 1, 1, 0]).length == 2
    assert w.is_fully_commutative()
