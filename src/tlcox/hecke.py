"""Brute-force Hecke algebra over the full group, used as the oracle.

The scaled standard basis is indexed by all group elements (not only the
fully commutative ones) and multiplication never leaves it, so everything
here is plain unitriangular linear algebra on the engine the quotient uses
too (`algebra._Algebra`): the bar involution by inverting generators, the
bar-invariant basis by the Kazhdan-Lusztig length recursion (Invent. Math.
53, 1979), its products by the shared mu-rule, and the classical polynomials
read off from its coefficients.  The quotient's bar-solve stays independent of it.
The projection onto the quotient rewrites each standard basis element into
the fully commutative basis through the quotient's multiplication kernel;
its kernel is the defining ideal, which gives the ideal-membership test.

This module exists for verification, not scale: a configurable element cap
refuses computations whose support enumeration grows past desk size.
"""

from __future__ import annotations

from .algebra import Coords, _Algebra, _same_graph
from .coxeter import CoxeterGraph, GroupElement, enumerate_elements, format_element
from .laurent import ONE, V_MINUS_VINV, ZERO, LaurentPoly, acc, format_terms, lincomb

DEFAULT_ELEMENT_CAP = 50_000


class OracleCapExceeded(RuntimeError):
    """A support enumeration outgrew the configured oracle element cap."""

    exit_code = 2


class HeckeAlgebra(_Algebra):
    """Memoized full-group arithmetic for one graph object; obtain via
    for_graph.  Each entry of the bar and bar-invariant memos is checked
    against the element cap before it is kept."""

    def __init__(self, graph: CoxeterGraph, element_cap: int = DEFAULT_ELEMENT_CAP):
        super().__init__(graph)
        self.element_cap = element_cap
        self._kl: dict[GroupElement, Coords] = {}

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
        _same_graph(self.graph, w)
        return {w: ONE}

    def lgen(self, s: int, w: GroupElement) -> Coords:
        g = self.graph
        _same_graph(g, w)
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
            _same_graph(self.graph, w)
            cached = self._peel(w, self.kl_basis)
            self._keep(self._kl, w, cached)
        return cached

    canonical = kl_basis  # the columns the shared engine reads (`c_lgen`, `mu`)

    def mu_tilde(self, x: GroupElement, y: GroupElement) -> int:
        return self.mu(x, y) if x.length <= y.length else self.mu(y, x)

    # -- the bilinear form -----------------------------------------------------------

    def form(self, a: Coords, b: Coords) -> LaurentPoly:
        """The symmetric form making the scaled standard basis orthonormal."""
        _same_graph(self.graph, *a, *b)
        if len(b) < len(a):
            a, b = b, a
        return lincomb((c, b[w]) for w, c in a.items() if w in b)

    # -- projection to the quotient -----------------------------------------------------

    def theta_basis(self, w: GroupElement) -> Coords:
        """The image of T_w in the quotient: the product of its letters there,
        last letter first (`t_mul`)."""
        from .tl import TLAlgebra

        _same_graph(self.graph, w)
        return TLAlgebra.for_graph(self.graph).t_mul({w: ONE}, self.unit())

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

    def kl_mul(self, x: GroupElement, y: GroupElement) -> Coords:
        """Product of two bar-invariant basis elements, in bar-invariant
        coordinates, by the left action of the C'_s (`_product`)."""
        return self._product(x, y)


# -- dumps -----------------------------------------------------------------------------------


def format_q(p: LaurentPoly, shift: int = 0) -> str:
    """Render v^shift p, a Laurent polynomial with even v-exponents, as a
    polynomial in q = v^2."""
    if not p.has_parity(shift):
        raise ValueError(f"{(LaurentPoly.v(shift) * p).format()} has odd exponents; "
                         "not a polynomial in q")
    return format_terms(sorted((((e + shift) // 2, c) for e, c in p.items()), reverse=True), "q")


class KLTables:
    """Classical polynomial and top-coefficient tables on all pairs up to a
    length bound, read off the oracle's columns p*(-, w)."""

    def __init__(self, graph: CoxeterGraph, bound: int, elements: list[GroupElement],
                 columns: dict[GroupElement, Coords]):
        self.graph = graph
        self.bound = bound
        self.elements = elements
        self.columns = columns

    def mu_coeff(self, x: GroupElement, w: GroupElement) -> int:
        _same_graph(self.graph, x, w)
        return self.columns.get(w, {}).get(x, ZERO).coeff(-1)

    def mu_tilde(self, x: GroupElement, y: GroupElement) -> int:
        return self.mu_coeff(x, y) if x.length <= y.length else self.mu_coeff(y, x)

    def polynomial(self, y: GroupElement, w: GroupElement) -> LaurentPoly:
        """P(y, w) = v^(len(w)-len(y)) p*(y, w), a polynomial in q."""
        _same_graph(self.graph, y, w)
        return LaurentPoly.v(w.length - y.length) * self.columns.get(w, {}).get(y, ZERO)

    def dump_tsv(self) -> str:
        """One row per nonzero P(y, w), column by column.  Each distinct
        coefficient and shift is rendered once: few distinct ones occur.
        Each column's rows are joined on their own, so no list of the whole
        table's rows is held beside its text."""
        pos = {w: i for i, w in enumerate(self.elements)}
        names = [format_element(w) for w in self.elements]
        cells: dict[tuple[LaurentPoly, int], str] = {}
        columns = ["y\tw\tP\tmu\n"]
        for w, col in self.columns.items():
            head, lw = names[pos[w]], len(w.word)
            rows = []
            for i in sorted(map(pos.__getitem__, col)):
                y = self.elements[i]
                p, shift = col[y], lw - len(y.word)
                cell = cells.get((p, shift))
                if cell is None:
                    cell = cells[p, shift] = f"{format_q(p, shift)}\t{p.coeff(-1)}\n"
                rows.append(f"{names[i]}\t{head}\t{cell}")
            columns.append("".join(rows))
        return "".join(columns)


def kl_tables(graph: CoxeterGraph, length_bound: int) -> KLTables:
    """Solve for every bar-invariant basis element up to the bound and tabulate."""
    alg = HeckeAlgebra.for_graph(graph)
    els = list(enumerate_elements(graph, length_bound))
    alg._check_cap(len(els))
    return KLTables(graph, length_bound, els, {w: alg.kl_basis(w) for w in els})
