"""Coxeter graphs and the word problem.

A Coxeter graph is a symmetric matrix of bond labels m(s,t) with m(s,s) = 1
and off-diagonal entries in {2, 3, ...} or infinity.  Group elements are kept
in a canonical form, the ShortLex-least reduced word, found by one of two
word problems:

- Fully commutative elements go through the heap of a word (Stembridge, On
  the fully commutative elements of Coxeter groups, J. Algebraic Combin. 5,
  1996): the poset on the positions of the word generated by i < j whenever
  the letters at i and j do not commute.  A word is a reduced word of a fully
  commutative element iff its heap has no convex chain s, s and no convex
  alternating chain s, t, s, ... of length m(s,t) (Prop. 3.3); the reduced
  words of such an element are then exactly the linear extensions of the
  heap, so the canonical word is the lex-least one, the left and right
  descents are the labels of the minimal and maximal elements, and s*w for
  a left descent s drops the first occurrence of s.
- Every other element goes through its roots in a reflection representation
  (Bjorner-Brenti, Combinatorics of Coxeter Groups, ch. 4; Casselman,
  Computation in Coxeter groups I, EJC 9, 2002).  With s(a_t) = a_t - a_st a_s
  on the simple roots a_t and f the linear form with f(a_s) = 1 for every s,
  an element w is keyed by the heights h_t = f(w^-1(a_t)) over all
  generators t: the form w.f on the basis a_t.  f is positive on the
  positive roots, so s is a left descent of w iff h_s < 0; f lies in the
  open fundamental chamber, so w -> w.f is injective (Tits; Humphreys,
  Reflection Groups and Coxeter Groups, ch. 5).  The key of s*w is
  h_t - a_st h_s, which replays no word, and the canonical word comes from
  stripping the least left descent until a known key, memoized from key to
  word.  Enumeration of the whole group tests no sign: once a level holds
  every element of its length, the generators s that reach a new element x
  as s*w from that level are its left descents, so x is named by the least
  of them followed by the word of s*x.  The Cartan entries are integers for
  labels 2, 3, 4, 6 and infinity (a_st a_ts = 0, 1, 2, 3 and 4); every
  other label m has a_st = a_ts = -2cos(pi/m) in Z[c], c = 2cos(pi/M) for M
  the lcm of those labels, with elements stored as integer vectors modulo
  the minimal polynomial of c.  A height is never zero; a float decides its
  sign only when its error bound excludes zero, and interval bisection on a
  rational bracket of c decides the rest.

The group acts on the left only, and everything else is read off s*w: the
inverse of w is r*(wr)^-1 for r the last letter of w, w*s is (s*w^-1)^-1,
and the right descents of w, when its heap does not give them, are the
left descents of w^-1.

Generators are 0-based internally and rendered 1-based; the identity renders
as `e`.  Elements are interned per graph object, so within one graph object
equality is identity: elements compare and hash by identity, at C speed.
Each carries a record that its graph fills as the values are found: FC
flag, descents, key, s*w for each generator s, inverse.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, NamedTuple, Sequence

INFINITE = math.inf

FULLY_COMMUTATIVE = "fully_commutative"
WEAKLY_COMPLEX = "weakly_complex"
COMPLEX_OTHER = "complex_other"

_MISSING = object()


class GraphError(ValueError):
    """Malformed graph description or preset name."""

    exit_code = 2


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


class CoxeterGraph:
    """A Coxeter graph with memoized word-problem machinery.  The graph object
    owns everything computed over it: its interned elements and, in
    `algebras`, one algebra per algebra class (see `TLAlgebra.for_graph`)."""

    __slots__ = (
        "bonds", "name", "rank", "_nbrs", "_braids", "_ring", "_cartan", "_unit_key",
        "_words", "_elements", "_identity", "_fc", "_descents", "_levels",
        "_level_complete", "algebras",
    )

    def __init__(self, bonds: Sequence[Sequence[int | float]], name: str | None = None):
        bonds = tuple(tuple(row) for row in bonds)
        n = len(bonds)
        for i, row in enumerate(bonds):
            if len(row) != n:
                raise GraphError("bond matrix must be square")
            if row[i] != 1:
                raise GraphError("diagonal bond labels must be 1")
            for j in range(n):
                m = row[j]
                if i != j:
                    if m != INFINITE and (not isinstance(m, int) or m < 2):
                        raise GraphError(f"bond label m({i + 1},{j + 1}) = {m!r} invalid")
                    if m != bonds[j][i]:
                        raise GraphError("bond matrix must be symmetric")
        self.bonds = bonds
        self.name = name
        self.rank = n
        # per generator: the generators it does not commute with, itself included
        self._nbrs = tuple(tuple(t for t in range(n) if bonds[s][t] != 2) for s in range(n))
        self._braids = tuple((s, t, bonds[s][t]) for s in range(n) for t in range(s + 1, n)
                             if 3 <= bonds[s][t] < INFINITE)
        # the root system: scalars in Z[2cos(pi/M)], M the lcm of the labels
        # without integer Cartan entries (M = 2, the integers, when none)
        irrational = {m for row in bonds for m in row if m not in (1, 2, 3, 4, 6, INFINITE)}
        ring = self._ring = _CosineRing(math.lcm(*irrational) if irrational else 2)
        # per generator s: the update of a key by s, see _lmul_roots
        d = ring.d
        self._cartan = tuple(
            tuple((t * d + i, s * d + j, a) for t in self._nbrs[s]
                  for i, j, a in ring.mul_entries(_cartan_entry(ring, s, t, bonds[s][t])))
            for s in range(n))
        self._unit_key = ((1,) + (0,) * (d - 1)) * n
        self._words: dict[tuple[int, ...], tuple[int, ...]] = {self._unit_key: ()}
        self._elements: dict[tuple[int, ...], GroupElement] = {}
        self._identity: GroupElement | None = None
        self._fc: dict[tuple[int, ...], GroupElement | None] = {}
        # descent sets by bitmask: one frozenset per distinct value
        self._descents: dict[int, frozenset[int]] = {}
        # indexed by fc_only: all elements, fully commutative ones
        self._levels: tuple[list[list[GroupElement]], ...] = ([], [])
        self._level_complete = [False, False]
        self.algebras: dict[type, object] = {}

    # -- structure ----------------------------------------------------------

    def m(self, s: int, t: int) -> int | float:
        return self.bonds[s][t]

    def generators(self) -> range:
        return range(self.rank)

    def noncommuting_pairs(self) -> list[tuple[int, int]]:
        return [(s, t) for s in self.generators() for t in range(s + 1, self.rank)
                if self.bonds[s][t] >= 3]

    def describe(self) -> str:
        if self.name:
            return self.name
        edges = ",".join(
            f"{s + 1}-{t + 1}:{'inf' if self.bonds[s][t] == INFINITE else self.bonds[s][t]}"
            for s, t in self.noncommuting_pairs()
        )
        return f"rank{self.rank}[{edges}]" if edges else f"rank{self.rank}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoxeterGraph) and self.bonds == other.bonds

    def __hash__(self) -> int:
        return hash(self.bonds)

    def __repr__(self) -> str:
        return f"CoxeterGraph({self.describe()})"

    # -- canonical words ------------------------------------------------------

    def normal_form_word(self, word: Iterable[int]) -> tuple[int, ...]:
        word = tuple(word)
        for s in word:
            if not 0 <= s < self.rank:
                raise ValueError(f"generator index {s} out of range for rank {self.rank}")
        canon = self.fc_normal_form_word(word)
        if canon is None:
            canon = self._word_of(self._replay(word))
        return canon

    # -- roots --------------------------------------------------------------------

    # A key is the flat tuple of the heights h_t = f(w^-1(a_t)), t = 0..n-1,
    # each d integers in Z[c]: n*d integers, (1, 0, ..., 0) per t at the
    # identity.  Each entry of _cartan[s] is (p, q, a): s*w subtracts a times
    # entry q of w's key from its entry p.

    def _lmul_roots(self, s: int, key: tuple[int, ...]) -> tuple[int, ...]:
        """The key of s*w from the key of w: h_t - a_st h_s, since
        (sw)^-1(a_t) = w^-1(a_t) - a_st w^-1(a_s)."""
        out = list(key)
        for p, q, a in self._cartan[s]:
            out[p] -= a * key[q]
        return tuple(out)

    def _negative(self, key: tuple[int, ...], t: int) -> bool:
        """Whether the root w^-1(a_t) is negative: its coordinates all have
        one sign, and f(a_s) = 1 for every s, so its height h_t has that
        sign too and is never zero."""
        d = self._ring.d
        return self._ring.sign(key[t * d:(t + 1) * d]) < 0

    def _replay(self, word: Sequence[int]) -> tuple[int, ...]:
        key = self._unit_key
        for s in reversed(word):
            key = self._lmul_roots(s, key)
        return key

    def _word_of(self, key: tuple[int, ...]) -> tuple[int, ...]:
        """The canonical word of the element with this key: the least left
        descent, then the canonical word of what stripping it leaves.
        Memoized from key to word; the identity's key is known."""
        words = self._words
        word = words.get(key)
        path = []
        while word is None:
            s = next(t for t in range(self.rank) if self._negative(key, t))
            path.append((key, s))
            key = self._lmul_roots(s, key)
            word = words.get(key)
        for key, s in reversed(path):
            word = (s,) + word
            words[key] = word
        return word

    def _roots(self, w: "GroupElement") -> tuple[int, ...]:
        if w.roots is None:
            w.roots = self._replay(w.word)
            self._words.setdefault(w.roots, w.word)
        return w.roots

    def _from_roots(self, key: tuple[int, ...]) -> "GroupElement":
        el = self._intern(self._word_of(key))
        if el.roots is None:  # else keep the one copy, shared with _words
            el.roots = key
        return el

    # -- heaps --------------------------------------------------------------------

    def heap(self, word: Sequence[int]) -> tuple[list[int], list[int]]:
        """The heap of a word, as (down, up): for each position i, the
        bitmasks of the positions below and above i, both including i.
        Position i lies below j when i <= j and a chain of positions from i
        to j carries pairwise non-commuting consecutive letters."""
        n = len(word)
        nbrs = self._nbrs
        down = [0] * n
        last = [-1] * self.rank
        for i, a in enumerate(word):
            d = 1 << i
            for b in nbrs[a]:
                j = last[b]
                if j >= 0:
                    d |= down[j]
            down[i] = d
            last[a] = i
        up = [0] * n
        last = [-1] * self.rank
        for i in range(n - 1, -1, -1):
            a = word[i]
            u = 1 << i
            for b in nbrs[a]:
                j = last[b]
                if j >= 0:
                    u |= up[j]
            up[i] = u
            last[a] = i
        return down, up

    def fc_normal_form_word(self, word: Sequence[int]) -> tuple[int, ...] | None:
        """The canonical word of `word` if it is a reduced word of a fully
        commutative element, else None; memoized on the word.

        Decided on the heap alone (Stembridge, Prop. 3.3): no convex chain
        s, s and no convex alternating chain s, t, s, ... of length m(s,t).
        The canonical word is then the lex-least linear extension: take the
        least label among the minimal elements each time.
        """
        word = tuple(word)
        got = self._fc.get(word, _MISSING)
        if got is _MISSING:
            got = self._fc[word] = self._fc_element(word)
        return None if got is None else got.word

    def _heap_normal_form(self, word: tuple[int, ...]):
        """(canonical word, left descents, right descents) if `word` is a
        reduced word of a fully commutative element, else None."""
        n = len(word)
        down, up = self.heap(word)
        occ: list[list[int]] = [[] for _ in range(self.rank)]
        for j, a in enumerate(word):
            if occ[a]:
                i = occ[a][-1]
                if up[i] & down[j] == (1 << i) | (1 << j):
                    return None  # convex chain s, s: not reduced
            occ[a].append(j)
        for s, t, m in self._braids:
            if not (occ[s] and occ[t]):
                continue
            run: list[int] = []  # an alternating run of s and t ending at j
            for j, a in enumerate(word):
                if a == s or a == t:
                    if run and word[run[-1]] == a:
                        run = []
                    run.append(j)
                    if len(run) >= m and (up[run[-m]] & down[j]).bit_count() == m:
                        return None  # convex alternating chain: not fully commutative
        out = []
        ptr = [0] * self.rank
        left = (1 << n) - 1
        for _ in range(n):
            for a, places in enumerate(occ):
                if ptr[a] < len(places):
                    i = places[ptr[a]]
                    if down[i] & left == 1 << i:
                        break
            out.append(a)
            ptr[a] += 1
            left ^= 1 << i
        ldesc = rdesc = 0  # the labels of the minimal and of the maximal elements
        for i, a in enumerate(word):
            if down[i] == 1 << i:
                ldesc |= 1 << a
            if up[i] == 1 << i:
                rdesc |= 1 << a
        return tuple(out), self._descent_set(ldesc), self._descent_set(rdesc)

    def _descent_set(self, mask: int) -> frozenset[int]:
        """The generators in a bitmask, one shared frozenset per value."""
        got = self._descents.get(mask)
        if got is None:
            got = self._descents[mask] = frozenset(
                s for s in range(self.rank) if mask >> s & 1)
        return got

    def _intern(self, word: tuple[int, ...]) -> GroupElement:
        el = self._elements.get(word)
        if el is None:
            el = self._elements[word] = GroupElement(self, word)
        return el

    def _fc_element(self, word: tuple[int, ...]) -> GroupElement | None:
        """The element of `word`, with FC flag and descents from its heap, if
        `word` is a reduced word of a fully commutative element; else None."""
        heap = self._heap_normal_form(word)
        if heap is None:
            return None
        el = self._intern(heap[0])
        el.fc, el.ldesc, el.rdesc = True, heap[1], heap[2]
        return el

    def element(self, word: Iterable[int] = ()) -> GroupElement:
        word = tuple(word)
        el = self._elements.get(word)  # already a canonical word
        return el if el is not None else self._intern(self.normal_form_word(word))

    @property
    def identity(self) -> GroupElement:
        if self._identity is None:
            self._identity = self.element(())
        return self._identity

    def reduced_words(self, w: "GroupElement") -> frozenset[tuple[int, ...]]:
        """All reduced words for w: s.u for every left descent s of w and
        every reduced word u of s*w.  Not memoized; there are exponentially
        many."""
        if not w.word:
            return frozenset({()})
        return frozenset((s,) + u for s in self.left_descents(w)
                         for u in self.reduced_words(self.lmul(s, w)))

    # -- multiplication ---------------------------------------------------------

    def lmul(self, s: int, w: "GroupElement") -> "GroupElement":
        """The product s*w (length goes up or down by one)."""
        w = w if w.graph is self else self.element(w.word)
        got = w.lnbr[s]
        return got if got is not None else self._step(w, s)

    def fc_lmul(self, s: int, w: "GroupElement") -> "GroupElement | None":
        """s*w if it is fully commutative, else None (w fully commutative, s not
        a left descent): one memoized heap of s.w decides and builds it."""
        got = w.lnbr[s]
        if got is None and self.fc_normal_form_word((s,) + w.word) is not None:
            got = self._fc[(s,) + w.word]
            w.lnbr[s], got.lnbr[s] = got, w
        return got if got is not None and self.is_fully_commutative(got) else None

    def rmul(self, w: "GroupElement", s: int) -> "GroupElement":
        """The product w*s = (s*w^-1)^-1."""
        return self.inverse(self.lmul(s, self.inverse(w)))

    def _step(self, w: "GroupElement", s: int) -> "GroupElement":
        """s*w, recorded on both factors: the heap when w is fully commutative
        and so is the product, the roots otherwise."""
        word = w.word
        fc = self.is_fully_commutative(w)
        if fc and s in w.ldesc:
            i = word.index(s)
            got = self._fc_element(word[:i] + word[i + 1:])
        else:
            got = self._fc_element((s,) + word) if fc else None
            if got is None:
                got = self._from_roots(self._lmul_roots(s, self._roots(w)))
                if len(got.word) > len(word):  # w is a factor: not FC either
                    got.fc = False
        w.lnbr[s], got.lnbr[s] = got, w
        return got

    def mul(self, a: "GroupElement", b: "GroupElement") -> "GroupElement":
        out = b
        for s in reversed(a.word):
            out = self.lmul(s, out)
        return out

    def inverse(self, w: "GroupElement") -> "GroupElement":
        """r * (w r)^-1 for r the last letter of w.  The prefix w r of the
        canonical word of w is canonical, so it needs no normal form."""
        w = w if w.graph is self else self.element(w.word)
        got = w.inv
        if got is None:
            if not w.word:
                got = w
            else:
                got = self.lmul(w.word[-1], self.inverse(self._intern(w.word[:-1])))
            w.inv, got.inv = got, w
        return got

    # -- descents and order -------------------------------------------------------

    def left_descents(self, w: "GroupElement") -> frozenset[int]:
        w = w if w.graph is self else self.element(w.word)
        if w.ldesc is None and not self.is_fully_commutative(w):  # FC: from the heap
            key = self._roots(w)
            w.ldesc = self._descent_set(sum(1 << t for t in self.generators()
                                            if self._negative(key, t)))
        return w.ldesc

    def right_descents(self, w: "GroupElement") -> frozenset[int]:
        w = w if w.graph is self else self.element(w.word)
        if w.rdesc is None and not self.is_fully_commutative(w):  # FC: from the heap
            w.rdesc = self.left_descents(self.inverse(w))
        return w.rdesc

    def on_side(self, side: str):
        """(descents, mul) on one side: the descent reader and r, x -> r x for
        side "left", right_descents and r, x -> x r for side "right"."""
        if side == "left":
            return self.left_descents, self.lmul
        if side == "right":
            return self.right_descents, lambda r, x: self.rmul(x, r)
        raise ValueError("side must be 'left' or 'right'")

    def bruhat_leq(self, x: "GroupElement", w: "GroupElement") -> bool:
        """Bruhat order, decided by the lifting property one letter of w at a
        time: for a left descent s of w, x <= w iff sx <= sw when sx < x, and
        x <= sw otherwise.  Each step takes one branch, so this is at most
        len(w) lookups of neighbour records; equivalent to the subword
        characterization."""
        if x.graph is not self and x.graph != self:
            raise ValueError("elements from different graphs")
        while len(x.word) <= len(w.word):
            if x.word == w.word or not x.word:
                return True
            s = w.word[0]
            if s in self.left_descents(x):
                x = self.lmul(s, x)
            w = self.lmul(s, w)
        return False

    # -- full commutativity --------------------------------------------------------

    def is_fully_commutative(self, w: "GroupElement") -> bool:
        """True iff no reduced word of w contains a full alternating braid
        factor; read off the heap of its canonical word."""
        w = w if w.graph is self else self.element(w.word)
        if w.fc is None:
            w.fc = self._fc_element(w.word) is not None
        return w.fc

    # -- enumeration ------------------------------------------------------------

    def levels_to(self, bound: int, fc_only: bool = False) -> list[list["GroupElement"]]:
        """Lists of all elements (or all fully commutative ones) of each
        length 0..bound, ShortLex-sorted.

        Each level is grown from the one before as s*w for s not a left
        descent of w.  Every left factor of a fully commutative element is
        fully commutative, so the fully commutative levels grow from
        themselves, keeping s*w when the heap of its word passes the test.
        The whole group grows by `_next_level`, which names each new element
        by its least left descent and tests no sign.
        """
        levels = self._levels[fc_only]
        if not levels:
            levels.append([self.identity])
        while len(levels) <= bound and not self._level_complete[fc_only]:
            if fc_only:
                nxt = set()
                for w in levels[-1]:
                    desc = self.left_descents(w)
                    nxt.update(self.fc_lmul(s, w) for s in self.generators() if s not in desc)
                nxt.discard(None)
            else:
                nxt = self._next_level(levels[-1])
            if not nxt:
                self._level_complete[fc_only] = True
                break
            levels.append(sorted(nxt, key=lambda e: e.word))
        return levels[: bound + 1]

    def _next_level(self, level: list["GroupElement"]) -> list["GroupElement"]:
        """The elements of length k + 1, given `level`, all elements of
        length k.  For w in `level` and s not in L(w), s*w is w's recorded
        neighbour, else the heap of s.w when w is fully commutative, else
        found by one root update of w's key, looked up in `_words`.  Each s
        in L(x) reaches x from s*x, which lies in `level`, so the generators
        that reach x are its left descents, and the least of them followed
        by the word of s*x is its canonical word.  A key with no known word
        is a new element; like every product found by its roots, it is not
        fully commutative."""
        words, lmul_roots = self._words, self._lmul_roots
        reach: dict[GroupElement, int] = {}  # x -> bitmask of the s that reach it
        fresh: dict[tuple[int, ...], list[tuple[int, GroupElement]]] = {}  # key -> (s, s*x)
        for w in level:
            desc = self.left_descents(w)
            fc = self.is_fully_commutative(w)
            key = None
            for s in range(self.rank):
                if s in desc:
                    continue
                x = w.lnbr[s]
                if x is None:
                    if fc:
                        x = self._fc_element((s,) + w.word)
                    if x is None:
                        if key is None:
                            key = self._roots(w)
                        xkey = lmul_roots(s, key)
                        word = words.get(xkey)
                        if word is None:
                            fresh.setdefault(xkey, []).append((s, w))
                            continue
                        x = self._intern(word)
                        if x.roots is None:
                            x.roots = xkey
                        x.fc = False
                    w.lnbr[s], x.lnbr[s] = x, w
                reach[x] = reach.get(x, 0) | 1 << s
        for xkey, pairs in fresh.items():
            t, w = min(pairs, key=lambda pair: pair[0])
            x = self._intern((t,) + w.word)
            x.roots, x.fc = xkey, False
            words[xkey] = x.word
            mask = 0
            for s, w in pairs:
                w.lnbr[s], x.lnbr[s] = x, w
                mask |= 1 << s
            reach[x] = mask
        for x, mask in reach.items():
            if x.ldesc is None:
                x.ldesc = self._descent_set(mask)
        return list(reach)


class GroupElement:
    """A group element held as its ShortLex-least reduced word.

    Instances are interned per graph object (create them via
    ``graph.element``), so they compare and hash by identity: two elements
    of one graph object are equal exactly when they are the same object, and
    elements of two graph objects are never equal.  The record
    (FC flag, left and right descents, key, s*w for each generator s,
    inverse) is filled by the element's own graph only, each value when
    first found; descents are set with the FC flag when it is True.
    """

    __slots__ = ("graph", "word", "roots", "fc", "ldesc", "rdesc", "lnbr", "inv")

    def __init__(self, graph: CoxeterGraph, word: tuple[int, ...]):
        self.graph = graph
        self.word = word
        self.roots = self.fc = self.ldesc = self.rdesc = self.inv = None
        self.lnbr = [None] * graph.rank

    @property
    def length(self) -> int:
        return len(self.word)

    def __lt__(self, other: "GroupElement") -> bool:
        return (len(self.word), self.word) < (len(other.word), other.word)

    @property
    def key(self) -> tuple[int, tuple[int, ...]]:
        """Length-then-ShortLex sort key."""
        return (len(self.word), self.word)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        return self.graph.mul(self, other)

    def left_descents(self) -> frozenset[int]:
        return self.graph.left_descents(self)

    def right_descents(self) -> frozenset[int]:
        return self.graph.right_descents(self)

    def descents(self, side: str) -> frozenset[int]:
        return self.graph.on_side(side)[0](self)

    def is_fully_commutative(self) -> bool:
        return self.graph.is_fully_commutative(self)

    def format(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<{self.format()}>"


# -- element text -----------------------------------------------------------------


def format_element(w: GroupElement) -> str:
    """Space-separated 1-based generator indices; the identity is `e`."""
    return " ".join(str(s + 1) for s in w.word) if w.word else "e"


def parse_element(graph: CoxeterGraph, text: str) -> GroupElement:
    text = text.strip()
    if text == "e":
        return graph.identity
    try:
        word = tuple(int(tok) - 1 for tok in text.split())
    except ValueError as exc:
        raise ValueError(f"malformed element text: {text!r}") from exc
    if any(s < 0 or s >= graph.rank for s in word):
        raise ValueError(f"generator index out of range in {text!r}")
    return graph.element(word)


# -- derived operations --------------------------------------------------------------


def normal_form(graph: CoxeterGraph, word: Iterable[int]) -> GroupElement:
    """Canonical element of an arbitrary word in the generators."""
    return graph.element(word)


def bruhat_leq(x: GroupElement, w: GroupElement) -> bool:
    return x.graph.bruhat_leq(x, w)


def is_commuting_product(w: GroupElement) -> bool:
    """True iff w is a product of distinct pairwise-commuting generators."""
    word = w.word
    bonds = w.graph.bonds
    if len(set(word)) != len(word):
        return False
    return all(bonds[a][b] == 2 for i, a in enumerate(word) for b in word[i + 1:])


def classify(w: GroupElement) -> str:
    """Sort w into fully commutative / weakly complex / other complex.

    Weakly complex means complex with some length-(l-1) fully commutative
    element reachable by stripping one left generator.
    """
    if w.is_fully_commutative():
        return FULLY_COMMUTATIVE
    g = w.graph
    for s in sorted(g.left_descents(w)):
        if g.lmul(s, w).is_fully_commutative():
            return WEAKLY_COMPLEX
    return COMPLEX_OTHER


def enumerate_elements(graph: CoxeterGraph, length_bound: int,
                       fc_only: bool = False) -> Iterator[GroupElement]:
    """All elements (or all fully commutative ones) of length <= bound,
    each exactly once, in length-then-ShortLex order."""
    if length_bound < 0:
        raise ValueError("length bound must be nonnegative")
    for level in graph.levels_to(length_bound, fc_only):
        yield from level


def _component_order(graph: CoxeterGraph, nodes: list[int]) -> tuple[int, int] | None:
    """(order, longest length) of the parabolic on a connected component, or
    None when it is infinite.  Decided against the classification of the
    finite families, so no enumeration happens."""
    n = len(nodes)
    if n == 1:
        return 2, 1
    if n == 2:
        m = graph.m(nodes[0], nodes[1])
        return None if m == INFINITE else (2 * m, m)
    adj = {a: [b for b in nodes if b != a and graph.m(a, b) >= 3] for a in nodes}
    if any(graph.m(a, b) == INFINITE for a in nodes for b in adj[a]):
        return None
    degrees = sorted(len(adj[a]) for a in nodes)
    edge_count = sum(degrees) // 2
    if edge_count != n - 1:
        return None  # a cycle (or worse): affine or indefinite
    labels = sorted(graph.m(a, b) for a in nodes for b in adj[a] if a < b)
    branch = [a for a in nodes if len(adj[a]) == 3]
    if degrees[-1] > 3 or len(branch) > 1:
        return None
    if branch:
        if any(m != 3 for m in labels):
            return None
        hub = branch[0]
        arms = []
        for first in adj[hub]:
            length, prev, cur = 1, hub, first
            while True:
                nxt = [b for b in adj[cur] if b != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] == arms[1] == 1:
            return 2 ** (n - 1) * math.factorial(n), n * (n - 1)
        if arms == [1, 2, 2]:
            return 51840, 36
        if arms == [1, 2, 3]:
            return 2903040, 63
        if arms == [1, 2, 4]:
            return 696729600, 120
        return None
    # a path: read the labels end to end
    ends = [a for a in nodes if len(adj[a]) == 1]
    prev, cur = None, min(ends)
    seq = []
    while True:
        nxt = [b for b in adj[cur] if b != prev]
        if not nxt:
            break
        seq.append(graph.m(cur, nxt[0]))
        prev, cur = cur, nxt[0]
    if all(m == 3 for m in seq):
        return math.factorial(n + 1), n * (n + 1) // 2
    big = [m for m in seq if m != 3]
    if big == [4] and (seq[0] == 4 or seq[-1] == 4):
        return 2 ** n * math.factorial(n), n * n
    if seq in ([3, 4, 3],):
        return 1152, 24
    if big == [5] and (seq[0] == 5 or seq[-1] == 5):
        if n == 3:
            return 120, 15
        if n == 4:
            return 14400, 60
    return None


def group_order(graph: CoxeterGraph, cap: int) -> tuple[int, int] | None:
    """(order, longest length) for a finite group of at most cap elements,
    else None.  Uses the classification of the finite families, so infinite
    graphs are rejected without enumeration."""
    remaining = set(graph.generators())
    order, longest = 1, 0
    while remaining:
        root = min(remaining)
        component = {root}
        frontier = [root]
        while frontier:
            a = frontier.pop()
            for b in graph.generators():
                if b not in component and b != a and graph.m(a, b) >= 3:
                    component.add(b)
                    frontier.append(b)
        got = _component_order(graph, sorted(component))
        if got is None:
            return None
        order *= got[0]
        longest += got[1]
        if order > cap:
            return None
        remaining -= component
    return order, longest


class CosetDecomposition(NamedTuple):
    """Factorization of w across a rank-2 parabolic: w = part_I * rest (left)
    or rest * part_I (right), with additive lengths; rest has no descent in I
    on the relevant side."""

    part_I: GroupElement
    rest: GroupElement
    side: str
    pair: tuple[int, int]

    def recombine(self) -> GroupElement:
        if self.side == "left":
            return self.part_I * self.rest
        return self.rest * self.part_I

    def case(self) -> int:
        """The four-way position of w in its coset: 1 shortest, 2 longest,
        3/4 inside a string (split by the boundary letter, smaller index first)."""
        s, t = self.pair
        a = self.part_I.length
        m = self.part_I.graph.m(s, t)
        if a == 0:
            return 1
        if m != INFINITE and a == m:
            return 2
        edge = self.part_I.word[-1] if self.side == "left" else self.part_I.word[0]
        return 3 if edge == s else 4


def coset_decompose(w: GroupElement, pair: tuple[int, int], side: str) -> CosetDecomposition:
    """Unique length-additive factorization across the parabolic on {s, t}."""
    g = w.graph
    s, t = pair
    if s == t or g.m(s, t) < 3:
        raise ValueError("pair must be noncommuting (bond label >= 3)")
    pair = (min(s, t), max(s, t))
    members = frozenset(pair)
    descents, mul = g.on_side(side)
    letters: list[int] = []
    rest = w
    while d := descents(rest) & members:
        r = min(d)
        letters.append(r)
        rest = mul(r, rest)
    part = g.element(letters if side == "left" else letters[::-1])
    return CosetDecomposition(part, rest, side, pair)


def decompose_fc_prefix(w: GroupElement, s: int):
    """For fully commutative w with s*w longer and not fully commutative,
    split w = w1 * w2 * w3 where every letter of w1 commutes with (and
    differs from) s and w2 alternates t,s,t,... with m(s,t)-1 letters.
    Among such splits, the one read off the lex-least reduced word of w.

    Returns (w1, w2, w3, t).
    """
    g = w.graph
    if not w.is_fully_commutative():
        raise ValueError("w must be fully commutative")
    if s in g.left_descents(w):
        raise ValueError("s*w must be longer than w")
    if g.fc_normal_form_word((s,) + w.word) is not None:
        raise ValueError("s*w must not be fully commutative")
    # The heap of s*w has a convex alternating chain s, t, s, ... of length
    # m(s, t) (Stembridge, Prop. 3.3).  It starts at the new minimal s, so
    # t is the first letter of w not commuting with s and w2 is made of the
    # first m-1 occurrences of s and t; everything the chain needs below it
    # lies below that first t.  The canonical word of w, its lex-least
    # reduced word, is thus also the least with such a split: w1 is the part
    # of it before the first t.
    word = w.word
    k = next(i for i, a in enumerate(word) if g.m(s, a) != 2)
    t = word[k]
    chain = [i for i, a in enumerate(word) if a == s or a == t][:g.m(s, t) - 1]
    w3 = tuple(a for i, a in enumerate(word) if i > k and i not in chain)
    return g.element(word[:k]), g.element(tuple(word[i] for i in chain)), g.element(w3), t


# -- graph text format and presets --------------------------------------------------


def parse_graph(text: str) -> CoxeterGraph:
    """Read a graph description: `rank N`, `edge i j m` (m >= 3 or `inf`),
    or a single `preset NAME`; `#` starts a comment."""
    rank: int | None = None
    edges: dict[tuple[int, int], int | float] = {}
    preset_name: str | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "rank" and len(parts) == 2:
            if preset_name is not None:
                raise GraphError(f"line {lineno}: preset and rank/edge are mutually exclusive")
            if rank is not None:
                raise GraphError(f"line {lineno}: duplicate rank statement")
            try:
                rank = int(parts[1])
            except ValueError:
                raise GraphError(f"line {lineno}: malformed rank") from None
            if rank < 1:
                raise GraphError(f"line {lineno}: rank must be positive")
        elif parts[0] == "edge" and len(parts) == 4:
            if preset_name is not None:
                raise GraphError(f"line {lineno}: preset and rank/edge are mutually exclusive")
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise GraphError(f"line {lineno}: malformed edge indices") from None
            m: int | float
            if parts[3] == "inf":
                m = INFINITE
            else:
                try:
                    m = int(parts[3])
                except ValueError:
                    raise GraphError(f"line {lineno}: malformed edge label") from None
                if m < 3:
                    raise GraphError(f"line {lineno}: explicit edge label must be >= 3")
            if i == j:
                raise GraphError(f"line {lineno}: loops are not allowed")
            key = (min(i, j), max(i, j))
            if key in edges:
                raise GraphError(f"line {lineno}: duplicate edge {key}")
            edges[key] = m
        elif parts[0] == "preset" and len(parts) == 2:
            if rank is not None or edges:
                raise GraphError(f"line {lineno}: preset and rank/edge are mutually exclusive")
            if preset_name is not None:
                raise GraphError(f"line {lineno}: duplicate preset statement")
            preset_name = parts[1]
        else:
            raise GraphError(f"line {lineno}: malformed statement: {line!r}")
    if preset_name is not None:
        return preset(preset_name)
    if rank is None:
        raise GraphError("missing rank statement")
    for (i, j) in edges:
        if not (1 <= i <= rank and 1 <= j <= rank):
            raise GraphError(f"edge {i} {j} out of range for rank {rank}")
    return _graph(rank, [(i - 1, j - 1, m) for (i, j), m in edges.items()])


def _graph(n: int, edges: Iterable[tuple[int, int, int | float]],
           name: str | None = None) -> CoxeterGraph:
    """The graph of rank n with label m on each edge (i, j, m), 0-based, and
    2 elsewhere."""
    bonds: list[list[int | float]] = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, m in edges:
        bonds[i][j] = bonds[j][i] = m
    return CoxeterGraph(bonds, name=name)


def _path(labels: Sequence[int | float], name: str) -> CoxeterGraph:
    return _graph(len(labels) + 1, [(i, i + 1, m) for i, m in enumerate(labels)], name)


_PRESET_RE = re.compile(r"^(?P<aff>~)?(?P<fam>[A-H])(?P<n>\d+)$")
_I2_RE = re.compile(r"^I2\((?P<m>\d+|inf)\)$")


def preset(name: str) -> CoxeterGraph:
    """Standard graphs: A/B/C/D/E/F/H families, I2(m), affine ~A and ~C.

    Every call builds a new graph, so whatever is computed over it lives as
    long as the caller keeps the graph.
    """
    name = name.strip()
    m2 = _I2_RE.match(name)
    if m2:
        m: int | float = INFINITE if m2.group("m") == "inf" else int(m2.group("m"))
        if m != INFINITE and m < 3:
            raise GraphError("I2(m) requires m >= 3 or inf")
        return _path([m], name)
    mo = _PRESET_RE.match(name)
    if not mo:
        raise GraphError(f"unknown preset {name!r}")
    fam, n, affine = mo.group("fam"), int(mo.group("n")), bool(mo.group("aff"))
    if affine:
        if fam == "A":
            if n == 1:
                return _path([INFINITE], name)
            if n < 2:
                raise GraphError("~A requires n >= 1")
            return _graph(n + 1, [(i, (i + 1) % (n + 1), 3) for i in range(n + 1)], name)
        if fam == "C":
            if n < 2:
                raise GraphError("~C requires n >= 2")
            return _path([4] + [3] * (n - 2) + [4], name)
        raise GraphError(f"unknown affine preset {name!r}")
    if fam == "A":
        if n < 1:
            raise GraphError("A requires n >= 1")
        return _path([3] * (n - 1), name)
    if fam in ("B", "C"):
        if n < 2:
            raise GraphError("B requires n >= 2")
        return _path([4] + [3] * (n - 2), name)
    if fam == "D":
        if n < 4:
            raise GraphError("D requires n >= 4")
        # generator 2 is the branch node (so the rank-4 witness text is stable)
        return _graph(n, [(a, b, 3) for a, b in [(0, 1), (2, 1), (3, 1)]
                          + [(i, i + 1) for i in range(3, n - 1)]], name)
    if fam == "E":
        if n < 6:
            raise GraphError("E requires n >= 6")
        return _graph(n, [(a, b, 3) for a, b in [(0, 2), (2, 3), (1, 3)]
                          + [(i, i + 1) for i in range(3, n - 1)]], name)
    if fam == "F":
        if n != 4:
            raise GraphError("only F4 is provided")
        return _path([3, 4, 3], name)
    if fam == "H":
        if n < 3:
            raise GraphError("H requires n >= 3")
        return _path([5] + [3] * (n - 2), name)
    raise GraphError(f"unknown preset {name!r}")
