import math
import random

import pytest

from tlcox.laurent import (
    DELTA,
    ONE,
    V,
    V_INV,
    ZERO,
    DeltaPoly,
    LaurentPoly,
    acc,
    delta_power,
    lincomb,
    parse_poly,
)


def rand_poly(rng, max_terms=6, max_exp=8, max_coeff=9):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        terms[rng.randint(-max_exp, max_exp)] = rng.randint(-max_coeff, max_coeff)
    return LaurentPoly(terms)


def test_ring_identities():
    assert ONE * V == V
    assert V * V_INV == ONE
    assert V + ZERO == V
    assert (V + V_INV) == DELTA
    assert DELTA**2 == LaurentPoly({2: 1, 0: 2, -2: 1})
    assert (V - 1) * (V + 1) == LaurentPoly({2: 1, 0: -1})


def double_sum(terms):
    """sum over (a, b) of a*b on exponent -> coefficient dicts: a_i b_j goes to v^(i + j)."""
    out = {}
    for a, b in terms:
        for ea, ca in a.items():
            for eb, cb in b.items():
                out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return {e: c for e, c in out.items() if c}


def test_lincomb_matches_term_by_term_sum():
    rng = random.Random(17)
    for _ in range(200):
        pairs = [(rand_poly(rng), rand_poly(rng)) for _ in range(rng.randint(0, 5))]
        got = lincomb(iter(pairs))
        assert got == sum((a * b for a, b in pairs), ZERO)
        assert dict(got.items()) == double_sum(pairs)
        assert all(c for _, c in got.items())  # no stored zeros
    # terms that cancel leave the zero polynomial
    assert lincomb([(V, ONE), (ONE, -V)]) == ZERO and not lincomb([(V, ONE), (ONE, -V)])
    multi = 0
    for _ in range(300):
        a, b = rand_poly(rng), rand_poly(rng)
        multi += len(a._c) > 1 and len(b._c) > 1
        assert dict((a * b).items()) == double_sum([(a, b)])
        assert dict((a * 3).items()) == double_sum([(a, {0: 3})])
    assert multi > 100
    # d^k = sum_j binom(k, j) v^(k - 2j)
    for _ in range(100):
        coeffs = tuple(rng.randint(-5, 5) for _ in range(rng.randint(0, 7)))
        powers = [{k - 2 * j: math.comb(k, j) for j in range(k + 1)} for k in range(len(coeffs))]
        expected = double_sum([({0: c}, powers[k]) for k, c in enumerate(coeffs)])
        assert dict(DeltaPoly(coeffs).expand().items()) == expected


def test_bar_examples():
    p = LaurentPoly({2: 1, -1: 3})  # v^2 + 3v^-1
    assert p.bar() == LaurentPoly({-2: 1, 1: 3})
    assert ZERO.bar() == ZERO
    assert DELTA.bar() == DELTA


def test_bar_is_involutive_ring_map():
    rng = random.Random(7)
    for _ in range(200):
        p, q = rand_poly(rng), rand_poly(rng)
        assert p.bar().bar() == p
        assert (p * q).bar() == p.bar() * q.bar()
        assert (p + q).bar() == p.bar() + q.bar()


def test_delta_basis_examples():
    assert DELTA.to_delta_basis() == DeltaPoly((0, 1))
    assert LaurentPoly({2: 1, 0: 2, -2: 1}).to_delta_basis() == DeltaPoly((0, 0, 1))
    assert V.to_delta_basis() is None
    assert ZERO.to_delta_basis() == DeltaPoly(())


def test_delta_basis_round_trip():
    rng = random.Random(11)
    for _ in range(200):
        coeffs = tuple(rng.randint(-5, 5) for _ in range(rng.randint(0, 6)))
        d = DeltaPoly(coeffs)
        p = d.expand()
        back = p.to_delta_basis()
        assert back is not None
        assert back.expand() == p
        # any strictly bar-asymmetric perturbation must be rejected
        assert (p + V).to_delta_basis() is None


def test_is_nonneg_delta():
    assert (DELTA**2 + 2 * DELTA).is_nonneg_delta()
    assert not (DELTA - 1).is_nonneg_delta()
    assert not V.is_nonneg_delta()


def test_nonneg_delta_closed_under_ring_ops():
    rng = random.Random(13)
    for _ in range(100):
        a = DeltaPoly(tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 4)))).expand()
        b = DeltaPoly(tuple(rng.randint(0, 4) for _ in range(rng.randint(1, 4)))).expand()
        assert (a + b).is_nonneg_delta()
        assert (a * b).is_nonneg_delta()


def test_homogenize_examples():
    p = LaurentPoly({2: 1, 1: 1})  # v^2 + v
    assert p.homogenize(0) == LaurentPoly({2: 1})
    assert p.homogenize(1) == V
    assert ZERO.homogenize(0) == ZERO


def test_homogenize_partitions():
    rng = random.Random(17)
    for _ in range(100):
        p = rand_poly(rng)
        assert p.homogenize(0) + p.homogenize(1) == p


def test_coeff_examples():
    p = LaurentPoly({-4: 1}) * delta_power(3)  # v^-4 (v+v^-1)^3
    assert p.coeff(-1) == 1
    assert DELTA.coeff(1) == 1
    assert DELTA.coeff(0) == 0


@pytest.mark.parametrize(
    "poly,text",
    [
        (LaurentPoly({-1: 1, -3: 3}), "v^-1 + 3v^-3"),
        (ZERO, "0"),
        (LaurentPoly({2: -1, 0: 1}), "-v^2 + 1"),
        (LaurentPoly({1: 2, 0: -3, -1: 1}), "2v - 3 + v^-1"),
        (ONE, "1"),
        (V, "v"),
        (LaurentPoly({1: -1}), "-v"),
    ],
)
def test_format_examples(poly, text):
    assert poly.format() == text
    assert parse_poly(text) == poly
    # bit-exact round trip in both directions
    assert parse_poly(poly.format()).format() == poly.format()


def test_format_parse_round_trip_random():
    rng = random.Random(19)
    for _ in range(300):
        p = rand_poly(rng)
        assert parse_poly(p.format()) == p


def test_parse_rejects_garbage():
    for bad in ["", "v^", "1 +", "w^2", "v**2", "2 2"]:
        with pytest.raises(ValueError):
            parse_poly(bad)


def test_delta_format():
    assert DeltaPoly((0, 1)).format() == "d"
    assert DeltaPoly((1, 2)).format() == "2d + 1"
    assert DeltaPoly(()).format() == "0"


# -- polynomials are values: shared, never changed, hashed once ---------------------------


def test_acc_changes_no_polynomial_it_reads():
    # with a scale other than ONE, acc leaves the terms and the hash of every
    # polynomial it reads as they were: scale, source values, and the dst
    # values it adds to (memos share them)
    rng = random.Random(31)
    for trial in range(300):
        scale = rand_poly(rng) or V_INV
        src = {k: p for k in range(8) if (p := rand_poly(rng, max_terms=3))}
        dst = {k: p for k in range(4, 12) if (p := rand_poly(rng, max_terms=3))}
        if trial % 3 == 0:
            src[0] = ONE  # the term acc may store as the scale itself
        read = [scale, *src.values(), *dst.values()]
        before = [(p, dict(p._c), hash(p)) for p in read]
        acc(dst, src, scale)
        for p, terms, h in before:
            assert p._c == terms and hash(p) == h == hash(LaurentPoly(terms)), trial
        assert all(dst.values())


def test_acc_stores_the_scale_for_a_one_source_on_an_empty_key():
    scale = LaurentPoly({2: -1})
    dst = {"kept": V}
    acc(dst, {"new": ONE, "kept": ONE}, scale)
    assert dst["new"] is scale
    assert dst["kept"] == V - V * V and dst["kept"] is not scale
    # a zero scale adds nothing, and stores no zero
    acc(dst, {"other": ONE}, ZERO)
    assert "other" not in dst


def test_equal_polynomials_built_apart_compare_and_hash_equal():
    a = LaurentPoly({2: 1, 0: 2, -2: 1})
    b = parse_poly("v^2 + 2 + v^-2")
    c = DELTA * DELTA
    assert a is not b and a == b == c
    assert hash(b) == hash(a)  # a hashed after b
    assert a == b == c and hash(c) == hash(a)
    assert {a: "x"}[b] == "x" and {c: "y"}[a] == "y"
    assert hash(ZERO) == hash(LaurentPoly({})) and hash(ONE) == hash(LaurentPoly.const(1))


def test_module_doctests():
    import doctest

    import tlcox.laurent as mod

    failures, _ = doctest.testmod(mod, extraglobs=vars(mod))
    assert failures == 0
