"""The word problem for the elements that are not fully commutative.

These go through their roots in a reflection representation (Bjorner-Brenti,
Combinatorics of Coxeter Groups, ch. 4; Casselman, Computation in Coxeter
groups I, EJC 9, 2002).  With s(a_t) = a_t - a_st a_s on the simple roots a_t
and f the linear form with f(a_s) = 1 for every s, an element w is keyed by
the heights h_t = f(w^-1(a_t)) over all generators t: the form w.f on the
basis a_t.  f is positive on the positive roots, so s is a left descent of w
iff h_s < 0; f lies in the open fundamental chamber, so w -> w.f is injective
(Tits; Humphreys, Reflection Groups and Coxeter Groups, ch. 5).  The key of
s*w is h_t - a_st h_s, which replays no word, and the canonical word comes
from stripping the least left descent until a known key, memoized from key
to word.  The Cartan entries are integers for labels 2, 3, 4, 6 and infinity
(a_st a_ts = 0, 1, 2, 3 and 4); every other label m has a_st = a_ts =
-2cos(pi/m) in Z[c], c = 2cos(pi/M) for M the lcm of those labels, with
elements stored as integer vectors modulo the minimal polynomial of c.  A
height is never zero; a float decides its sign only when its error bound
excludes zero, and interval bisection on a rational bracket of c decides the
rest.

A graph builds its `RootSystem` on its first element that is not fully
commutative (`CoxeterGraph.root_system`), so a run that builds fully
commutative elements only never loads this module.
"""

from __future__ import annotations

import math
from typing import Sequence

from .coxeter import INFINITE, CoxeterGraph, GroupElement

# -- the scalars of the root system ---------------------------------------------------


def _dickson(k: int) -> list[int]:
    """P_k with P_k(2cos x) = 2cos(kx), lowest coefficient first:
    P_0 = 2, P_1 = x, P_{k+1} = x P_k - P_{k-1}."""
    prev, cur = [2], [0, 1]
    for _ in range(k):
        nxt = [0] + cur
        for i, a in enumerate(prev):
            nxt[i] -= a
        prev, cur = cur, nxt
    return prev


def _cyclotomic(n: int) -> list[int]:
    """The cyclotomic polynomial Phi_n, lowest coefficient first: z^n - 1
    divided by Phi_k for every proper divisor k of n."""
    poly = [-1] + [0] * (n - 1) + [1]
    for k in range(1, n):
        if n % k == 0:
            div = _cyclotomic(k)  # monic
            quot = [0] * (len(poly) - len(div) + 1)
            for i in range(len(quot) - 1, -1, -1):
                quot[i] = q = poly[i + len(div) - 1]
                for j, a in enumerate(div):
                    poly[i + j] -= q * a
            poly = quot
    return poly


def _cosine_minimal_polynomial(M: int) -> list[int]:
    """The minimal polynomial Psi_M of 2cos(pi/M), lowest coefficient first,
    read off Phi_2M(z) = z^d Psi_M(z + 1/z): Phi_2M is palindromic of degree
    2d, and z^k + z^-k = P_k(z + 1/z)."""
    phi = _cyclotomic(2 * M)
    d = (len(phi) - 1) // 2
    psi = [phi[d]] + [0] * d
    for k in range(1, d + 1):
        for i, a in enumerate(_dickson(k)):
            psi[i] += phi[d + k] * a
    return psi


def _poly_value(poly: Sequence[int], x):
    out = 0
    for a in reversed(poly):
        out = out * x + a
    return out


class _CosineRing:
    """The ring Z[c], c = 2cos(pi/M), its elements integer tuples over the
    basis 1, c, ..., c^(d-1), reduced modulo the minimal polynomial of c
    (d = phi(2M)/2).  M = 2 gives c = 0 and d = 1: the integers."""

    def __init__(self, M: int):
        self.psi = _cosine_minimal_polynomial(M)  # monic of degree d
        self.d = len(self.psi) - 1
        self.M = M
        self._c = 2 * math.cos(math.pi / M)
        self._bracket = None

    def reduce(self, poly: Sequence[int]) -> tuple[int, ...]:
        """A polynomial in c, lowest coefficient first, as a ring element."""
        d, psi = self.d, self.psi
        poly = list(poly) + [0] * (d - len(poly))
        for k in range(len(poly) - 1, d - 1, -1):
            top = poly[k]
            if top:
                for i, a in enumerate(psi):
                    poly[k - d + i] -= top * a
        return tuple(poly[:d])

    def cos_pi_over(self, m: int) -> tuple[int, ...]:
        """2cos(pi/m) = P_{M/m}(c), for m dividing M."""
        return self.reduce(_dickson(self.M // m))

    def mul_entries(self, a: Sequence[int]) -> tuple[tuple[int, int, int], ...]:
        """Multiplication by a, as the nonzero entries (i, j, v) of its
        matrix: (a x)_i is the sum of v x_j."""
        cols = [self.reduce([0] * j + list(a)) for j in range(self.d)]
        return tuple((i, j, col[i]) for j, col in enumerate(cols)
                     for i in range(self.d) if col[i])

    def sign(self, x: Sequence[int]) -> int:
        """The sign of the real number x(c), exactly."""
        if not any(x[1:]):
            return (x[0] > 0) - (x[0] < 0)
        try:
            val = mag = 0.0
            power = 1.0
            for a in x:
                val += a * power
                mag += abs(a) * power
                power *= self._c
        except OverflowError:
            return self._exact_sign(x)
        # c < 2 is within an ulp, so rounding moves val by less than
        # d 2^-48 mag; for the degrees in use that is far below this bound
        if abs(val) > mag * 2.0 ** -40:
            return 1 if val > 0 else -1
        return self._exact_sign(x)

    def _exact_sign(self, x: Sequence[int]) -> int:
        """Interval evaluation of x on a rational bracket of c, narrowed by
        bisection on Psi_M until the interval excludes zero; x(c) is not
        zero, since x is not and Psi_M is the minimal polynomial."""
        from fractions import Fraction

        psi = self.psi
        if self._bracket is None:
            # the other roots of Psi_M, 2cos(k pi/M) for odd k >= 3, lie at
            # least 2cos(pi/M) - 2cos(3pi/M) = 4 sin(2pi/M) sin(pi/M) below c,
            # which exceeds 2^-30 for M < 10^4: the bracket holds c alone
            mid, half = Fraction(self._c), Fraction(1, 2 ** 40)
            self._bracket = (mid - half, mid + half)
            assert _poly_value(psi, mid - half) * _poly_value(psi, mid + half) < 0
        lo, hi = self._bracket
        lo_positive = _poly_value(psi, lo) > 0
        while True:
            # c > 1 and every power of c grows with c
            low = sum(a * (lo if a > 0 else hi) ** i for i, a in enumerate(x))
            high = sum(a * (hi if a > 0 else lo) ** i for i, a in enumerate(x))
            if low > 0 or high < 0:
                break
            mid = (lo + hi) / 2
            if (_poly_value(psi, mid) > 0) == lo_positive:
                lo = mid
            else:
                hi = mid
        self._bracket = (lo, hi)
        return 1 if low > 0 else -1


def _cartan_entry(ring: _CosineRing, s: int, t: int, m: int | float) -> tuple[int, ...]:
    """a_st, for s = t or m(s,t) > 2, with s(a_t) = a_t - a_st a_s, as an
    element of the ring."""
    if s == t:
        a = 2
    elif m == 3:
        a = -1
    elif m == 4:  # a_st a_ts = 2 = 4cos^2(pi/4)
        a = -1 if s < t else -2
    elif m == 6:  # a_st a_ts = 3 = 4cos^2(pi/6)
        a = -1 if s < t else -3
    elif m == INFINITE:
        a = -2
    else:
        return tuple(-x for x in ring.cos_pi_over(m))
    return (a,) + (0,) * (ring.d - 1)


# -- keys ---------------------------------------------------------------------------------


class RootSystem:
    """The reflection representation of one graph object and its key -> word
    memo `words`, which the whole-group grower (`CoxeterGraph._next_level`)
    reads and fills too.

    A key is the flat tuple of the heights h_t = f(w^-1(a_t)), t = 0..n-1,
    each d integers in Z[c]: n*d integers, (1, 0, ..., 0) per t at the
    identity.  Each entry of cartan[s] is (p, q, a): s*w subtracts a times
    entry q of w's key from its entry p."""

    __slots__ = ("graph", "ring", "cartan", "unit_key", "words")

    def __init__(self, graph: CoxeterGraph):
        bonds, n = graph.bonds, graph.rank
        # scalars in Z[2cos(pi/M)], M the lcm of the labels without integer
        # Cartan entries (M = 2, the integers, when none)
        irrational = {m for row in bonds for m in row if m not in (1, 2, 3, 4, 6, INFINITE)}
        ring = _CosineRing(math.lcm(*irrational) if irrational else 2)
        d = ring.d
        self.graph = graph
        self.ring = ring
        self.cartan = tuple(
            tuple((t * d + i, s * d + j, a) for t in graph._nbrs[s]
                  for i, j, a in ring.mul_entries(_cartan_entry(ring, s, t, bonds[s][t])))
            for s in range(n))
        self.unit_key = ((1,) + (0,) * (d - 1)) * n
        self.words: dict[tuple[int, ...], tuple[int, ...]] = {self.unit_key: ()}

    def lmul(self, s: int, key: tuple[int, ...]) -> tuple[int, ...]:
        """The key of s*w from the key of w: h_t - a_st h_s, since
        (sw)^-1(a_t) = w^-1(a_t) - a_st w^-1(a_s)."""
        out = list(key)
        for p, q, a in self.cartan[s]:
            out[p] -= a * key[q]
        return tuple(out)

    def negative(self, key: tuple[int, ...], t: int) -> bool:
        """Whether the root w^-1(a_t) is negative: its coordinates all have
        one sign, and f(a_s) = 1 for every s, so its height h_t has that
        sign too and is never zero."""
        d = self.ring.d
        return self.ring.sign(key[t * d:(t + 1) * d]) < 0

    def replay(self, word: Sequence[int]) -> tuple[int, ...]:
        key = self.unit_key
        for s in reversed(word):
            key = self.lmul(s, key)
        return key

    def word_of(self, key: tuple[int, ...]) -> tuple[int, ...]:
        """The canonical word of the element with this key: the least left
        descent, then the canonical word of what stripping it leaves.
        Memoized from key to word; the identity's key is known."""
        words = self.words
        word = words.get(key)
        path = []
        while word is None:
            s = next(t for t in range(self.graph.rank) if self.negative(key, t))
            path.append((key, s))
            key = self.lmul(s, key)
            word = words.get(key)
        for key, s in reversed(path):
            word = (s,) + word
            words[key] = word
        return word

    def key_of(self, w: GroupElement) -> tuple[int, ...]:
        """The key of w, recorded on w."""
        if w.roots is None:
            w.roots = self.replay(w.word)
            self.words.setdefault(w.roots, w.word)
        return w.roots

    def element_of(self, key: tuple[int, ...]) -> GroupElement:
        el = self.graph._intern(self.word_of(key))
        if el.roots is None:  # else keep the one copy, shared with `words`
            el.roots = key
        return el
