"""Brute-force Hecke algebra over the full group, used as the oracle.

The scaled standard basis is indexed by all group elements (not only the
fully commutative ones) and multiplication never leaves it, so everything
here is plain unitriangular linear algebra on the engine the quotient uses
too (`tl._Algebra`): the bar involution by inverting generators, the
bar-invariant basis by the Kazhdan-Lusztig length recursion (Invent. Math.
53, 1979), its products by the mu-rule, and the classical polynomials read
off from its coefficients.  The quotient's bar-solve stays independent of it.
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
from .laurent import DELTA, ONE, V_MINUS_VINV, ZERO, LaurentPoly, format_terms
from .tl import Coords, TLAlgebra, _Algebra, acc

DEFAULT_ELEMENT_CAP = 50_000


class OracleCapExceeded(RuntimeError):
    """A support enumeration outgrew the configured oracle element cap."""


class HeckeAlgebra(_Algebra):
    """Memoized full-group arithmetic for one graph object; obtain via
    for_graph.  Each entry of the bar and bar-invariant memos is checked
    against the element cap before it is kept."""

    def __init__(self, graph: CoxeterGraph, element_cap: int = DEFAULT_ELEMENT_CAP):
        super().__init__(graph)
        self.element_cap = element_cap
        self._kl: dict[GroupElement, Coords] = {}
        self._klgen: dict[tuple[int, GroupElement], Coords] = {}

    def _check_cap(self, size: int) -> None:
        if size > self.element_cap:
            raise OracleCapExceeded(
                f"oracle support of {size} elements exceeds the cap "
                f"{self.element_cap}")

    def _keep(self, memo: dict, w: GroupElement, value: Coords) -> None:
        self._check_cap(len(memo) + 1)
        memo[w] = value

    # -- multiplication and the bar-invariant basis ---------------------------------

    def basis(self, w: GroupElement) -> Coords:
        return {w: ONE}

    def lgen(self, s: int, w: GroupElement) -> Coords:
        g = self.graph
        sw = g.lmul(s, w)
        if s in g.left_descents(w):
            return {sw: ONE, w: V_MINUS_VINV}
        return {sw: ONE}

    def bar_basis(self, w: GroupElement) -> Coords:
        """bar(T_w), memoized under the element cap.  Defined on this class,
        not only on `_Algebra`, so that `perfbench/tracer.py` counts its
        calls as the oracle's."""
        return super().bar_basis(w)

    def kl_basis(self, w: GroupElement) -> Coords:
        """The bar-invariant basis element C'_w in standard coordinates, by
        the length recursion (`_peel`), memoized under the element cap."""
        cached = self._kl.get(w)
        if cached is None:
            cached = self._peel(w, self.kl_basis)
            self._keep(self._kl, w, cached)
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
        """The image of T_w in the quotient, memoized there (`expand`)."""
        return TLAlgebra.for_graph(self.graph).expand(w)

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

    def kl_lgen(self, s: int, w: GroupElement) -> Coords:
        """C'_s C'_w in bar-invariant coordinates, memoized on (s, w), by the
        mu-rule: (v + v^-1) C'_w if s is a left descent of w, else C'_sw plus
        mu(z, w) C'_z for every z < w with s in L(z)."""
        key = (s, w)
        cached = self._klgen.get(key)
        if cached is None:
            g = self.graph
            if s in g.left_descents(w):
                cached = {w: DELTA}
            else:
                cached = {g.lmul(s, w): ONE}
                for z, c in self.kl_basis(w).items():
                    if s in g.left_descents(z) and c.coeff(-1):
                        cached[z] = LaurentPoly.const(c.coeff(-1))
            self._klgen[key] = cached
        return cached

    def kl_mul(self, x: GroupElement, y: GroupElement) -> Coords:
        """Product of two bar-invariant basis elements, in bar-invariant
        coordinates, by the left action of the C'_s (`_product`)."""
        return self._product(x, y, self.kl_lgen, self.kl_mul)


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
        return HeckeElement(self.graph, self.algebra.t_mul(self.coords, other.coords))

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


def format_q(p: LaurentPoly, shift: int = 0) -> str:
    """Render v^shift p, a Laurent polynomial with even v-exponents, as a
    polynomial in q = v^2."""
    if not p.has_parity(shift):
        raise ValueError(f"{(LaurentPoly.v(shift) * p).format()} has odd exponents; "
                         "not a polynomial in q")
    return format_terms(sorted((((e + shift) // 2, c) for e, c in p.items()), reverse=True), "q")


@dataclass
class KLTables:
    """Classical polynomial and top-coefficient tables on all pairs up to a
    length bound, read off the oracle's columns p*(-, w)."""

    graph: CoxeterGraph
    bound: int
    elements: list[GroupElement]
    columns: dict[GroupElement, Coords]

    def mu_coeff(self, x: GroupElement, w: GroupElement) -> int:
        return self.columns.get(w, {}).get(x, ZERO).coeff(-1)

    def mu_tilde(self, x: GroupElement, y: GroupElement) -> int:
        return self.mu_coeff(x, y) if x.length <= y.length else self.mu_coeff(y, x)

    def polynomial(self, y: GroupElement, w: GroupElement) -> LaurentPoly:
        """P(y, w) = v^(len(w)-len(y)) p*(y, w), a polynomial in q."""
        return LaurentPoly.v(w.length - y.length) * self.columns.get(w, {}).get(y, ZERO)

    def dump_tsv(self) -> str:
        pos = {w: i for i, w in enumerate(self.elements)}
        names = [format_element(w) for w in self.elements]
        lines = ["y\tw\tP\tmu"]
        for w, col in self.columns.items():
            head, lw = names[pos[w]], len(w.word)
            for i in sorted(map(pos.__getitem__, col)):
                y = self.elements[i]
                lines.append(f"{names[i]}\t{head}\t{format_q(col[y], lw - len(y.word))}\t"
                             f"{col[y].coeff(-1)}")
        return "\n".join(lines) + "\n"


def kl_tables(graph: CoxeterGraph, length_bound: int,
              fc_columns_only: bool = False) -> KLTables:
    """Solve for every bar-invariant basis element up to the bound (or only
    those over fully commutative elements) and tabulate."""
    alg = HeckeAlgebra.for_graph(graph)
    els = list(enumerate_elements(graph, length_bound))
    alg._check_cap(len(els))
    columns = {w: alg.kl_basis(w) for w in els
               if not fc_columns_only or w.is_fully_commutative()}
    return KLTables(graph, length_bound, els, columns)
