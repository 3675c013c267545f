"""Exact arithmetic in the ring of integer Laurent polynomials in v.

This is the coefficient ring for everything else in the package.  Polynomials
are sparse maps exponent -> integer coefficient (zero coefficients are never
stored), so all arithmetic is exact and coefficients may grow without bound.

Besides ring arithmetic the module provides the bar involution v <-> v^-1,
the parity projections that keep only even or odd powers of v, and conversion
into the subring Z[d] generated by the bar-invariant element d = v + v^-1
(the loop value of the Temperley-Lieb calculus).  A Laurent polynomial lies
in Z[d] exactly when it is bar-invariant, and the conversion is computed by
repeatedly stripping the leading power of d.

Every sum of products of polynomials goes through one of two multiply-add
kernels: `lincomb` (sum of a*b into one polynomial) and `acc` (dst += scale *
src on coordinate dicts, key -> polynomial).

No code changes a polynomial after it is built: every operation returns a
new one.  So one object may stand in many places (`acc` stores a `scale` or
a `src` value itself where the sum is that value), and a polynomial keeps
its hash once computed.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Mapping, NamedTuple


class LaurentPoly:
    """A sparse integer Laurent polynomial in v.

    >>> p = LaurentPoly({2: 1, -1: 3})
    >>> p.format()
    'v^2 + 3v^-1'
    >>> p.bar().format()
    '3v + v^-2'
    >>> (DELTA * DELTA).format()
    'v^2 + 2 + v^-2'
    >>> (DELTA * DELTA).to_delta_basis()
    DeltaPoly(coeffs=(0, 0, 1))
    >>> parse_poly('v^-1 + 3v^-3') == LaurentPoly({-1: 1, -3: 3})
    True
    """

    __slots__ = ("_c", "_hash")  # _hash is set on first use

    def __init__(self, coeffs: Mapping[int, int] | Iterable[tuple[int, int]] | None = None):
        c: dict[int, int] = {}
        if coeffs:
            items = coeffs.items() if isinstance(coeffs, Mapping) else coeffs
            for exp, coeff in items:
                acc = c.get(exp, 0) + coeff
                if acc:
                    c[exp] = acc
                elif exp in c:
                    del c[exp]
        self._c = c

    @classmethod
    def _raw(cls, c: dict[int, int]) -> LaurentPoly:
        # Trusted constructor: c must already be zero-free.
        p = cls.__new__(cls)
        p._c = c
        return p

    @classmethod
    def v(cls, n: int = 1) -> LaurentPoly:
        return cls._raw({n: 1})

    @classmethod
    def const(cls, n: int) -> LaurentPoly:
        return cls._raw({0: n}) if n else ZERO

    # -- basic queries ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self._c

    def coeff(self, n: int) -> int:
        """Coefficient of v^n (zero if absent)."""
        return self._c.get(n, 0)

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(self._c.items())

    def max_exp(self) -> int:
        """Largest exponent; raises on the zero polynomial."""
        return max(self._c)

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out = dict(self._c)
        for e, c in other._c.items():
            acc = out.get(e, 0) + c
            if acc:
                out[e] = acc
            elif e in out:
                del out[e]
        return LaurentPoly._raw(out)

    __radd__ = __add__

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly._raw({e: -c for e, c in self._c.items()})

    def __sub__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        out = dict(self._c)
        for e, c in other._c.items():
            acc = out.get(e, 0) - c
            if acc:
                out[e] = acc
            elif e in out:
                del out[e]
        return LaurentPoly._raw(out)

    def __mul__(self, other: LaurentPoly | int) -> LaurentPoly:
        if isinstance(other, int):
            if other == 0:
                return ZERO
            if other == 1:
                return self
            return LaurentPoly._raw({e: c * other for e, c in self._c.items()})
        a, b = self._c, other._c
        if not a or not b:
            return ZERO
        if len(a) == 1:
            (ea, ca), = a.items()
            if ca == 1:
                return LaurentPoly._raw({e + ea: c for e, c in b.items()})
            return LaurentPoly._raw({e + ea: c * ca for e, c in b.items()})
        if len(b) == 1:
            (eb, cb), = b.items()
            if cb == 1:
                return LaurentPoly._raw({e + eb: c for e, c in a.items()})
            return LaurentPoly._raw({e + eb: c * cb for e, c in a.items()})
        return lincomb(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        if n < 0:
            raise ValueError("negative power of a Laurent polynomial is not defined here")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LaurentPoly):
            return self._c == other._c
        if isinstance(other, int):
            return self._c == ({0: other} if other else {})
        return NotImplemented

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = self._hash = hash(frozenset(self._c.items()))
            return h

    def __bool__(self) -> bool:
        return bool(self._c)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.format()!r})"

    # -- involutions and projections ----------------------------------------

    def bar(self) -> LaurentPoly:
        """The involution exchanging v and v^-1 (negates every exponent)."""
        return LaurentPoly._raw({-e: c for e, c in self._c.items()})

    def is_bar_invariant(self) -> bool:
        c = self._c
        return all(c.get(-e, 0) == coeff for e, coeff in c.items())

    def homogenize(self, parity: int) -> LaurentPoly:
        """Keep exactly the terms whose exponent is congruent to parity mod 2."""
        parity &= 1
        return LaurentPoly._raw({e: c for e, c in self._c.items() if (e & 1) == parity})

    def has_parity(self, parity: int) -> bool:
        parity &= 1
        return all((e & 1) == parity for e in self._c)

    # -- sublattice predicates ----------------------------------------------

    def in_vneg(self) -> bool:
        """Membership in v^-1 Z[v^-1] (all exponents strictly negative)."""
        return all(e < 0 for e in self._c)

    def neg_part(self) -> LaurentPoly:
        """The terms of strictly negative exponent."""
        return LaurentPoly._raw({e: c for e, c in self._c.items() if e < 0})

    def has_nonneg_coeffs(self) -> bool:
        return all(c >= 0 for c in self._c.values())

    # -- the subring Z[d], d = v + v^-1 ---------------------------------------

    def to_delta_basis(self) -> "DeltaPoly | None":
        """Expand in powers of d = v + v^-1, or None if not bar-invariant.

        The bar-invariant Laurent polynomials are exactly Z[d]; the expansion
        is found by repeatedly subtracting (leading coefficient) * d^(leading
        exponent), which preserves bar-invariance and strictly lowers the top
        exponent.
        """
        if not self.is_bar_invariant():
            return None
        coeffs: dict[int, int] = {}
        p = self
        while p._c:
            n = p.max_exp()
            c = p._c[n]
            coeffs[n] = c
            p = p - c * delta_power(n)
        if not coeffs:
            return DeltaPoly(())
        top = max(coeffs)
        return DeltaPoly(tuple(coeffs.get(k, 0) for k in range(top + 1)))

    def is_nonneg_delta(self) -> bool:
        """True iff the polynomial lies in Z>=0[d]."""
        d = self.to_delta_basis()
        return d is not None and d.is_nonneg()

    # -- text -----------------------------------------------------------------

    def format(self) -> str:
        return format_terms(sorted(self._c.items(), reverse=True), "v")


class DeltaPoly(NamedTuple):
    """A polynomial in d = v + v^-1; index k of `coeffs` holds the d^k coefficient."""

    coeffs: tuple[int, ...]

    def expand(self) -> LaurentPoly:
        return lincomb((LaurentPoly.const(c), delta_power(k)) for k, c in enumerate(self.coeffs))

    def is_nonneg(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def format(self) -> str:
        terms = [(k, c) for k, c in enumerate(self.coeffs) if c]
        return format_terms(sorted(terms, reverse=True), "d")


def format_terms(terms: list[tuple[int, int]], var: str) -> str:
    """Render (exponent, coefficient) pairs as `c*var^n` terms joined by +/-."""
    if not terms:
        return "0"
    parts: list[str] = []
    for i, (e, c) in enumerate(terms):
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            head = "" if mag == 1 else str(mag)
            body = f"{head}{var}" if e == 1 else f"{head}{var}^{e}"
        if i == 0:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append((" - " if c < 0 else " + ") + body)
    return "".join(parts)


_TERM_RE = re.compile(r"^(?P<coeff>-?\d+)?(?P<var>[a-z](\^(?P<exp>-?\d+))?)?$")


def parse_terms(text: str) -> list[tuple[int, int]]:
    """Parse the output of :func:`format_terms`; returns (exponent, coefficient) pairs."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    if text == "0":
        return []
    normalized = text.replace(" - ", " + -").split(" + ")
    out: list[tuple[int, int]] = []
    for chunk in normalized:
        chunk = chunk.strip()
        m = _TERM_RE.match(chunk)
        if not m or (m.group("coeff") is None and m.group("var") is None):
            raise ValueError(f"malformed polynomial term: {chunk!r}")
        if m.group("var") is not None and not m.group("var").startswith("v"):
            raise ValueError(f"unexpected variable in term: {chunk!r}")
        coeff_text = m.group("coeff")
        if m.group("var") is None:
            exp = 0
            coeff = int(coeff_text)
        else:
            exp = int(m.group("exp")) if m.group("exp") is not None else 1
            coeff = 1 if coeff_text is None else int(coeff_text)
        out.append((exp, coeff))
    return out


def parse_poly(text: str) -> LaurentPoly:
    """Inverse of LaurentPoly.format (bit-exact round trip)."""
    text = text.strip()
    # format() writes a bare leading minus ("-v^2 + 1"); restore the coefficient.
    if text.startswith("-") and not text[1:2].isdigit():
        text = "-1" + text[1:]
    text = text.replace(" - v", " - 1v").replace(" + v", " + 1v")
    if text.startswith("v"):
        text = "1" + text
    return LaurentPoly(parse_terms(text))


ZERO = LaurentPoly._raw({})
ONE = LaurentPoly._raw({0: 1})
V = LaurentPoly._raw({1: 1})
V_INV = LaurentPoly._raw({-1: 1})
DELTA = LaurentPoly._raw({1: 1, -1: 1})
V_MINUS_VINV = LaurentPoly._raw({1: 1, -1: -1})


def lincomb(pairs: Iterable[tuple[LaurentPoly, LaurentPoly]]) -> LaurentPoly:
    """sum a*b over the pairs, accumulated in one coefficient dict."""
    out: dict[int, int] = {}
    get = out.get
    for a, b in pairs:
        terms = b._c.items()
        for ea, ca in a._c.items():
            for eb, cb in terms:
                e = ea + eb
                out[e] = get(e, 0) + ca * cb
    return LaurentPoly._raw({e: c for e, c in out.items() if c})


def acc(dst: dict, src: Mapping[object, LaurentPoly], scale: LaurentPoly = ONE) -> None:
    """dst += scale * src on coordinate dicts (key -> LaurentPoly), dropping
    zeros and deleting a key whose total cancels; the polynomials it reads
    are never changed.  For a scale other than ONE each dst[w] + scale *
    src[w] is built in one exponent -> coefficient dict.  Where dst has no
    entry it may store a value it read itself: src[w] when the scale is ONE,
    and the scale when src[w] is ONE."""
    if scale is ONE:
        for w, c in src.items():
            val = dst.get(w)
            total = c if val is None else val + c
            if total._c:
                dst[w] = total
            elif val is not None:
                del dst[w]
        return
    terms = scale._c.items()
    if not terms:
        return
    for w, c in src.items():
        val = dst.get(w)
        if val is None:
            if c is ONE:
                dst[w] = scale
                continue
            out = {}
        else:
            out = val._c.copy()
        get = out.get
        for es, cs in terms:
            for e, x in c._c.items():
                e += es
                if t := get(e, 0) + cs * x:
                    out[e] = t
                else:
                    del out[e]
        if out:
            dst[w] = LaurentPoly._raw(out)
        elif val is not None:
            del dst[w]


def delta_power(n: int) -> LaurentPoly:
    """(v + v^-1)^n."""
    return DELTA ** n
