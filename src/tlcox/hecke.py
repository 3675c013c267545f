"""Brute-force Hecke algebra over the full group, used as the oracle.

The scaled standard basis is indexed by all group elements (not only the
fully commutative ones) and multiplication never leaves it, so everything
here is plain unitriangular linear algebra: the bar involution by inverting
generators, the bar-invariant basis by the same triangular solve as the
quotient, and the classical polynomials read off from its coefficients.
The projection onto the quotient rewrites each standard basis element into
the fully commutative basis through the quotient's multiplication kernel;
its kernel is the defining ideal, which gives the ideal-membership test.

This module exists for verification, not scale: a configurable element cap
refuses computations whose support enumeration grows past desk size.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import (
    CoxeterGraph,
    GroupElement,
    enumerate_elements,
    format_element,
)
from .laurent import ONE, V_INV, V_MINUS_VINV, ZERO, LaurentPoly, format_terms
from .tl import Coords, TLAlgebra, acc, bar_solve, left_action_product

DEFAULT_ELEMENT_CAP = 50_000


class OracleCapExceeded(RuntimeError):
    """A support enumeration outgrew the configured oracle element cap."""


class HeckeAlgebra:
    """Memoized full-group arithmetic for one graph; obtain via for_graph."""

    _instances: dict[CoxeterGraph, "HeckeAlgebra"] = {}

    @classmethod
    def for_graph(cls, graph: CoxeterGraph) -> "HeckeAlgebra":
        alg = cls._instances.get(graph)
        if alg is None:
            alg = cls(graph)
            cls._instances[graph] = alg
        return alg

    def __init__(self, graph: CoxeterGraph, element_cap: int = DEFAULT_ELEMENT_CAP):
        self.graph = graph
        self.element_cap = element_cap
        self._bar: dict[GroupElement, Coords] = {}
        self._kl: dict[GroupElement, Coords] = {}
        self._tt: dict[tuple[GroupElement, GroupElement], Coords] = {}
        self._klgen: dict[tuple[int, GroupElement], Coords] = {}
        self._cmul: dict[tuple[GroupElement, GroupElement], Coords] = {}
        self._theta: dict[GroupElement, Coords] = {}

    def _check_cap(self, size: int) -> None:
        if size > self.element_cap:
            raise OracleCapExceeded(
                f"oracle support of {size} elements exceeds the cap "
                f"{self.element_cap}")

    # -- multiplication ------------------------------------------------------

    def unit(self) -> Coords:
        return {self.graph.identity: ONE}

    def basis(self, w: GroupElement) -> Coords:
        return {w: ONE}

    def lgen(self, s: int, w: GroupElement) -> Coords:
        g = self.graph
        sw = g.lmul(s, w)
        if s in g.left_descents(w):
            return {sw: ONE, w: V_MINUS_VINV}
        return {sw: ONE}

    def rgen(self, w: GroupElement, s: int) -> Coords:
        g = self.graph
        ws = g.rmul(w, s)
        if s in g.right_descents(w):
            return {ws: ONE, w: V_MINUS_VINV}
        return {ws: ONE}

    def lmul(self, s: int, coords: Coords) -> Coords:
        out: Coords = {}
        for w, c in coords.items():
            acc(out, self.lgen(s, w), c)
        return out

    def rmul(self, coords: Coords, s: int) -> Coords:
        out: Coords = {}
        for w, c in coords.items():
            acc(out, self.rgen(w, s), c)
        return out

    def tt_prod(self, x: GroupElement, y: GroupElement) -> Coords:
        key = (x, y)
        cached = self._tt.get(key)
        if cached is None:
            if not x.word:
                cached = self.basis(y)
            else:
                rest = self.graph.element(x.word[1:])
                cached = self.lmul(x.word[0], self.tt_prod(rest, y))
            self._tt[key] = cached
        return cached

    def mul(self, a: Coords, b: Coords) -> Coords:
        out: Coords = {}
        for x, cx in a.items():
            for y, cy in b.items():
                acc(out, self.tt_prod(x, y), cx * cy)
        return out

    # -- bar involution and the bar-invariant basis -------------------------------

    def bar_basis(self, w: GroupElement) -> Coords:
        cached = self._bar.get(w)
        if cached is None:
            if not w.word:
                cached = self.unit()
            else:
                rest = self.bar_basis(self.graph.element(w.word[1:]))
                cached = self.lmul(w.word[0], rest)
                acc(cached, rest, -V_MINUS_VINV)
            self._bar[w] = cached
        return cached

    def bar(self, coords: Coords) -> Coords:
        out: Coords = {}
        for w, c in coords.items():
            acc(out, self.bar_basis(w), c.bar())
        return out

    def kl_basis(self, w: GroupElement) -> Coords:
        """The bar-invariant basis element over w, in standard coordinates."""
        cached = self._kl.get(w)
        if cached is None:
            cached = bar_solve(w, self.bar_basis)
            self._check_cap(len(self._bar))
            self._kl[w] = cached
        return cached

    def p_star(self, y: GroupElement, w: GroupElement) -> LaurentPoly:
        return self.kl_basis(w).get(y, ZERO)

    def mu(self, x: GroupElement, w: GroupElement) -> int:
        """Top-degree coefficient of the classical polynomial (the v^-1
        coefficient of the standard-basis coordinate)."""
        return self.p_star(x, w).coeff(-1)

    def mu_tilde(self, x: GroupElement, y: GroupElement) -> int:
        return self.mu(x, y) if x.length <= y.length else self.mu(y, x)

    # -- the bilinear form -----------------------------------------------------------

    def form(self, a: Coords, b: Coords) -> LaurentPoly:
        """The symmetric form making the scaled standard basis orthonormal."""
        if len(b) < len(a):
            a, b = b, a
        out = ZERO
        for w, c in a.items():
            d = b.get(w)
            if d is not None:
                out = out + c * d
        return out

    # -- projection to the quotient -----------------------------------------------------

    def theta_basis(self, w: GroupElement) -> Coords:
        cached = self._theta.get(w)
        if cached is None:
            cached = TLAlgebra.for_graph(self.graph).expand(w)
            self._theta[w] = cached
        return cached

    def theta(self, coords: Coords) -> Coords:
        """Image in the quotient, in fully commutative coordinates."""
        out: Coords = {}
        for w, c in coords.items():
            acc(out, self.theta_basis(w), c)
        return out

    def in_defining_ideal(self, coords: Coords) -> bool:
        """True iff the element maps to zero in the quotient."""
        return not self.theta(coords)

    # -- products in bar-invariant coordinates ---------------------------------------------

    def to_kl(self, coords: Coords) -> Coords:
        """Standard coordinates -> bar-invariant basis coordinates (greedy
        unitriangular elimination from the top)."""
        rem = dict(coords)
        out: Coords = {}
        while rem:
            w = max(rem)
            a = rem.pop(w)
            out[w] = a
            for y, c in self.kl_basis(w).items():
                if y == w:
                    continue
                val = rem.get(y)
                total = -a * c if val is None else val - a * c
                if total:
                    rem[y] = total
                elif val is not None:
                    del rem[y]
        return out

    def kl_lgen(self, s: int, w: GroupElement) -> Coords:
        """C'_s C'_w in bar-invariant coordinates, memoized on (s, w)."""
        key = (s, w)
        cached = self._klgen.get(key)
        if cached is None:
            kw = self.kl_basis(w)
            prod = self.lmul(s, kw)
            acc(prod, kw, V_INV)
            cached = self.to_kl(prod)
            self._klgen[key] = cached
        return cached

    def kl_mul(self, x: GroupElement, y: GroupElement) -> Coords:
        """Product of two bar-invariant basis elements, in bar-invariant
        coordinates, by the left action of the C'_s (the quotient's
        recursion, see left_action_product); memoized on (x, y)."""
        key = (x, y)
        cached = self._cmul.get(key)
        if cached is None:
            cached = left_action_product(x, y, self.kl_lgen, self.kl_mul)
            self._cmul[key] = cached
        return cached


# -- element wrapper and dumps -----------------------------------------------------------------


@dataclass
class HeckeElement:
    """A full-algebra element in scaled standard coordinates."""

    graph: CoxeterGraph
    coords: Coords

    def __post_init__(self):
        self.coords = {w: c for w, c in self.coords.items() if c}

    @classmethod
    def t_basis(cls, w: GroupElement) -> "HeckeElement":
        return cls(w.graph, {w: ONE})

    @property
    def algebra(self) -> HeckeAlgebra:
        return HeckeAlgebra.for_graph(self.graph)

    def __mul__(self, other: "HeckeElement") -> "HeckeElement":
        return HeckeElement(self.graph, self.algebra.mul(self.coords, other.coords))

    def __add__(self, other: "HeckeElement") -> "HeckeElement":
        out = dict(self.coords)
        acc(out, other.coords)
        return HeckeElement(self.graph, out)

    def bar(self) -> "HeckeElement":
        return HeckeElement(self.graph, self.algebra.bar(self.coords))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HeckeElement):
            return NotImplemented
        return self.graph == other.graph and self.coords == other.coords

    def render(self) -> str:
        lines = [f"{c.format()} * T[{format_element(w)}]"
                 for w, c in sorted(self.coords.items())]
        return "\n".join(lines)


def format_q(p: LaurentPoly) -> str:
    """Render a Laurent polynomial with even v-exponents as a polynomial in
    q = v^2."""
    if not p.has_parity(0):
        raise ValueError(f"{p.format()} has odd exponents; not a polynomial in q")
    return format_terms(sorted(((e // 2, c) for e, c in p.items()), reverse=True), "q")


@dataclass
class KLTables:
    """Classical polynomial and top-coefficient tables on all pairs up to a
    length bound."""

    graph: CoxeterGraph
    bound: int
    elements: list[GroupElement]
    p_star: dict[tuple[GroupElement, GroupElement], LaurentPoly]
    mu: dict[tuple[GroupElement, GroupElement], int]

    def mu_coeff(self, x: GroupElement, w: GroupElement) -> int:
        return self.mu.get((x, w), 0)

    def mu_tilde(self, x: GroupElement, y: GroupElement) -> int:
        return self.mu_coeff(x, y) if x.length <= y.length else self.mu_coeff(y, x)

    def polynomial(self, y: GroupElement, w: GroupElement) -> LaurentPoly:
        """P(y, w) = v^(len(w)-len(y)) p*(y, w), a polynomial in q."""
        return LaurentPoly.v(w.length - y.length) * self.p_star.get((y, w), ZERO)

    def dump_tsv(self) -> str:
        lines = ["y\tw\tP\tmu"]
        for w in self.elements:
            for y in self.elements:
                p = self.p_star.get((y, w))
                if p is None:
                    continue
                lines.append(
                    f"{format_element(y)}\t{format_element(w)}\t"
                    f"{format_q(self.polynomial(y, w))}\t{self.mu.get((y, w), 0)}")
        return "\n".join(lines) + "\n"


def kl_tables(graph: CoxeterGraph, length_bound: int,
              fc_columns_only: bool = False) -> KLTables:
    """Solve for every bar-invariant basis element up to the bound (or only
    those over fully commutative elements) and tabulate."""
    alg = HeckeAlgebra.for_graph(graph)
    els = list(enumerate_elements(graph, length_bound))
    alg._check_cap(len(els))
    p_star: dict[tuple[GroupElement, GroupElement], LaurentPoly] = {}
    mu: dict[tuple[GroupElement, GroupElement], int] = {}
    for w in els:
        if fc_columns_only and not w.is_fully_commutative():
            continue
        for y, c in alg.kl_basis(w).items():
            p_star[(y, w)] = c
            m = c.coeff(-1)
            if m:
                mu[(y, w)] = m
    return KLTables(graph, length_bound, els, p_star, mu)
