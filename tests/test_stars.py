import re

import pytest

from tlcox.coxeter import INFINITE, enumerate_elements, preset
from tlcox.library import coset_decompose
from tlcox.stars import (
    check_property_F,
    check_property_S,
    is_commuting_product,
    k_epsilon,
    n_stat,
    star,
    star_reduction_paths,
)
from tlcox.trace import Coloring, bipartite_coloring


def test_star_dihedral_examples():
    b2 = preset("B2")
    ts = b2.element([1, 0])
    pair = (0, 1)
    assert star(ts, pair, "left", "down") is b2.element([0])
    assert star(ts, pair, "left", "up") is b2.element([0, 1, 0])
    assert star(ts, pair, "right", "down") is b2.element([1])
    assert star(ts, pair, "right", "up") is b2.element([1, 0, 1])
    sts = b2.element([0, 1, 0])
    assert star(sts, pair, "left", "up") is None
    assert star(sts, pair, "right", "up") is None
    t = b2.element([1])
    assert star(t, pair, "left", "down") is None
    assert star(t, pair, "right", "down") is None


def test_side_is_checked_after_the_pair():
    a3 = preset("A3")
    w = a3.element([1, 0])
    side = "side must be 'left' or 'right'"
    with pytest.raises(ValueError, match=side):
        w.descents("up")
    for call in (lambda pair, s: star(w, pair, s, "down"),
                 lambda pair, s: coset_decompose(w, pair, s)):
        with pytest.raises(ValueError, match=side):
            call((0, 1), "up")
        with pytest.raises(ValueError, match="pair must be noncommuting"):
            call((0, 2), "up")
    assert w.descents("left") == {1} and w.descents("right") == {0}


def coset_star(w, pair, side, direction):
    """The star operation read off the coset decomposition: the rank-2 part
    of w loses its outer letter (down) or gains the other one (up), and the
    word is replayed with the rest of w."""
    g = w.graph
    dec = coset_decompose(w, pair, side)
    s, t = dec.pair
    m = g.m(s, t)
    a = dec.part_I.length
    if a == 0 or (m != INFINITE and a == m):
        return None
    wi = dec.part_I.word
    if direction == "down":
        if a == 1:
            return None
        new = wi[1:] if side == "left" else wi[:-1]
    elif direction == "up":
        if m != INFINITE and a + 1 > m - 1:
            return None
        if side == "left":
            new = (t if wi[0] == s else s,) + wi
        else:
            new = wi + (t if wi[-1] == s else s,)
    else:
        raise ValueError("direction must be 'up' or 'down'")
    if side == "left":
        return g.element(new + dec.rest.word)
    return g.element(dec.rest.word + new)


@pytest.mark.parametrize("name,bound", [("B4", 16), ("D4", 12), ("H3", 15), ("~A2", 8)])
def test_star_matches_the_coset_decomposition(name, bound):
    g = preset(name)
    steps = 0
    for w in enumerate_elements(g, bound):
        for pair in g.noncommuting_pairs():
            for side in ("left", "right"):
                for direction in ("up", "down"):
                    want = coset_star(w, pair, side, direction)
                    assert star(w, pair, side, direction) is want, (w, pair, side, direction)
                    steps += want is not None
    assert steps


def test_star_raises_as_the_coset_decomposition_does():
    b2 = preset("B2")
    inside, outside = b2.element([1, 0]), b2.identity
    for w in (inside, outside):
        for args in [((0, 0), "left", "up"), ((0, 1), "middle", "up"),
                     ((0, 1), "left", "sideways")]:
            try:
                want = coset_star(w, *args)
            except ValueError as exc:
                with pytest.raises(ValueError, match=re.escape(str(exc))):
                    star(w, *args)
            else:
                assert star(w, *args) is want


def test_star_rejects_commuting_pair():
    a3 = preset("A3")
    with pytest.raises(ValueError):
        star(a3.element([0]), (0, 2), "left", "down")


def test_star_reduction_paths_examples():
    b2 = preset("B2")
    assert star_reduction_paths(b2.element([1, 0])) == {b2.element([0]), b2.element([1])}
    assert star_reduction_paths(b2.identity) == set()
    a3 = preset("A3")
    assert star_reduction_paths(a3.element([0, 2])) == set()


def test_star_up_down_inverse():
    for name in ["A3", "B3", "I2(6)"]:
        g = preset(name)
        for w in enumerate_elements(g, 5):
            for pair in g.noncommuting_pairs():
                for side in ("left", "right"):
                    down = star(w, pair, side, "down")
                    if down is not None:
                        assert star(down, pair, side, "up") is w
                    up = star(w, pair, side, "up")
                    if up is not None:
                        assert star(up, pair, side, "down") is w


def test_star_preserves_full_commutativity():
    for name in ["A3", "B3", "H3"]:
        g = preset(name)
        for w in enumerate_elements(g, 6, fc_only=True):
            for pair in g.noncommuting_pairs():
                for side in ("left", "right"):
                    for direction in ("up", "down"):
                        img = star(w, pair, side, direction)
                        if img is not None:
                            assert img.is_fully_commutative()


@pytest.mark.parametrize(
    "name,bound",
    [("A1", 1), ("A2", 3), ("A3", 6), ("A4", 10), ("B2", 4), ("B3", 9),
     ("I2(3)", 3), ("I2(4)", 4), ("I2(5)", 5), ("I2(6)", 6), ("I2(7)", 7),
     ("D4", 12), ("H3", 15)],
)
def test_property_f_holds_on_fc_finite_types(name, bound):
    report = check_property_F(preset(name), bound)
    assert report.holds
    assert report.render().rstrip().endswith("HOLDS")


def test_property_f_holds_on_infinite_dihedral():
    # with an infinite bond every string is unbounded above, so every element
    # of length >= 2 has a down-neighbor on each side and the search always
    # bottoms out in a single generator
    report = check_property_F(preset("~A1"), 4)
    assert report.holds


def test_property_f_fails_on_odd_affine_cycle():
    # rank-4 cycle: fully commutative elements can lock (every string they
    # belong to has length exactly 1 on both sides at the top)
    report = check_property_F(preset("~A3"), 4)
    assert not report.holds
    w = report.failures[0]
    # honest re-check of the first witness: exhaustive star-down closure
    seen, stack = set(), [w]
    while stack:
        u = stack.pop()
        if u in seen:
            continue
        seen.add(u)
        stack.extend(star_reduction_paths(u))
    assert not any(is_commuting_product(u) for u in seen)


def test_property_s_examples():
    d4 = preset("D4")
    report = check_property_S(d4, 7)
    assert not report.holds
    # the branch-conjugate product 1 3 4 2 1 3 4 (ShortLex spelling 1 3 2 4 2 1 3)
    expected = d4.element([0, 2, 3, 1, 0, 2, 3])
    assert expected in report.failures
    assert report.render().splitlines()[1].startswith("FAILS witness=")
    assert check_property_S(preset("A3"), 6).holds
    assert check_property_S(preset("B2"), 4).holds


def test_property_s_holds_b3():
    assert check_property_S(preset("B3"), 9).holds


def test_n_stat_examples():
    a3 = preset("A3")
    assert n_stat(a3.element([0, 2])) == 2
    assert n_stat(a3.element([1])) == 1
    assert n_stat(a3.element([1, 0, 2, 1])) == 2
    with pytest.raises(ValueError):
        n_stat(preset("A2").element([0, 1, 0]))


def test_n_stat_invariant_under_star_moves():
    for name in ["A3", "A4", "B3"]:
        g = preset(name)
        for w in enumerate_elements(g, 6, fc_only=True):
            for pair in g.noncommuting_pairs():
                for side in ("left", "right"):
                    for direction in ("up", "down"):
                        img = star(w, pair, side, direction)
                        if img is not None:
                            assert n_stat(img) == n_stat(w)


def test_bipartite_coloring_examples():
    assert bipartite_coloring(preset("A3")) == Coloring((0, 1, 0))
    assert bipartite_coloring(preset("B2")) == Coloring((0, 1))
    assert bipartite_coloring(preset("~A2")) is None
    # branch node is generator 2 in the D4 preset
    assert bipartite_coloring(preset("D4")) == Coloring((0, 1, 0, 0))


def test_k_epsilon_examples():
    a3 = preset("A3")
    eps = bipartite_coloring(a3)
    assert k_epsilon(a3.element([1, 0, 2, 1]), eps) == 1
    assert k_epsilon(a3.element([0]), eps) == 1
    assert k_epsilon(a3.element([0, 1]), eps) == -1


def test_k_epsilon_flips_under_maximal_descent_star_reduction():
    # when the left descent set is as large as the commuting-window statistic
    # allows, each left star-down step flips the sign
    for name in ["A3", "A4", "B3"]:
        g = preset(name)
        eps = bipartite_coloring(g)
        for w in enumerate_elements(g, 6, fc_only=True):
            if len(w.left_descents()) != n_stat(w):
                continue
            for pair in g.noncommuting_pairs():
                x = star(w, pair, "left", "down")
                if x is not None:
                    assert k_epsilon(w, eps) == -k_epsilon(x, eps)
                    assert len(x.left_descents()) == len(w.left_descents())
                    assert x.right_descents() == w.right_descents()


def test_length_parity_matches_commuting_window():
    for name in ["A3", "A4", "B3"]:
        g = preset(name)
        for w in enumerate_elements(g, 8, fc_only=True):
            if w.left_descents() == w.right_descents() and len(w.left_descents()) == n_stat(w):
                assert (w.length - n_stat(w)) % 2 == 0
