"""The unitriangular engine, `_Algebra`, that the quotient (`tl.TLAlgebra`)
and the full-group oracle (`hecke.HeckeAlgebra`) share, on coordinate dicts
from group elements to Laurent polynomials (`Coords`), on the standard or
the bar-invariant basis."""

from __future__ import annotations

from typing import Callable

from .coxeter import CoxeterGraph, GroupElement, format_element
from .laurent import DELTA, ONE, V_INV, V_MINUS_VINV, ZERO, LaurentPoly, acc

Coords = dict[GroupElement, LaurentPoly]


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree exactly did not."""

    exit_code = 3


def _same_graph(graph: CoxeterGraph, *elements: GroupElement) -> None:
    """Refuse an element of a graph object other than `graph`: elements
    compare by identity, so it would match none of graph's."""
    for w in elements:
        if w.graph is not graph:
            raise ValueError(f"element {format_element(w)} belongs to another graph object")


class _Algebra:
    """What the quotient and the full-group algebra share: one algebra per
    graph object, kept by the graph; the action of the generators on standard
    coordinates, through the subclass's `lgen` (t_s t_w); the bar involution;
    the length recursion (`_peel`); the change to bar-invariant coordinates
    (`to_c`); and products by one mu-rule (`c_lgen`), one row at a time
    (`_product`)."""

    def __init__(self, graph: CoxeterGraph):
        self.graph = graph
        self._bar: dict[GroupElement, Coords] = {}
        self._cgen: dict[tuple[int, GroupElement], Coords] = {}
        self._row: dict[GroupElement, Coords] = {}  # u -> c_u c_r, r = _row_right
        self._row_right: GroupElement | None = None
        self._basis_lmul = graph.lmul  # s w, or None where it leaves the basis

    @classmethod
    def for_graph(cls, graph: CoxeterGraph):
        """The algebra of this graph object: built on first use and kept in
        `graph.algebras`, so its memos live exactly as long as the graph."""
        alg = graph.algebras.get(cls)
        if alg is None:
            alg = graph.algebras[cls] = cls(graph)
        return alg

    def _keep(self, memo: dict, w: GroupElement, value: Coords) -> None:
        """memo[w] = value; the full-group algebra checks its cap first."""
        memo[w] = value

    def unit(self) -> Coords:
        return {self.graph.identity: ONE}

    def lmul(self, s: int, coords: Coords) -> Coords:
        out: Coords = {}
        for w, c in coords.items():
            acc(out, self.lgen(s, w), c)
        return out

    def t_mul(self, a: Coords, b: Coords) -> Coords:
        """a * b in standard coordinates: each t_x of a acts on b letter by
        letter, last letter first."""
        out: Coords = {}
        for x, cx in a.items():
            prod = b
            for s in reversed(x.word):
                prod = self.lmul(s, prod)
            acc(out, prod, cx)
        return out

    def bar_basis(self, w: GroupElement) -> Coords:
        """bar(t_w): the product of (t_s - (v - v^-1)) along the word of w."""
        cached = self._bar.get(w)
        if cached is None:
            _same_graph(self.graph, w)
            if not w.word:
                cached = self.unit()
            else:
                rest = self.bar_basis(self.graph.lmul(w.word[0], w))
                cached = self.lmul(w.word[0], rest)
                acc(cached, rest, -V_MINUS_VINV)
            self._keep(self._bar, w, cached)
        return cached

    def bar(self, coords: Coords) -> Coords:
        out: Coords = {}
        for w, c in coords.items():
            acc(out, self.bar_basis(w), c.bar())
        return out

    def _peel(self, w: GroupElement, basis: Callable[[GroupElement], Coords]) -> Coords:
        """The bar-invariant basis element over w from shorter ones, by the
        Kazhdan-Lusztig recursion (Invent. Math. 53, 1979): with s = w.word[0],
        the least left descent of w, and w' = s w,

            c_w = c_s c_w' - sum over y with s in L(y) of mu(y, w') c_y,

        c_s = t_s + v^-1 and mu(y, w') the v^-1 coefficient of c_w' at y;
        `basis` is the memoized accessor the recursion reads c_w' and c_y
        through."""
        if not w.word:
            return self.unit()
        g = self.graph
        s = w.word[0]
        cp = basis(g.lmul(s, w))
        out = self.lmul(s, cp)
        acc(out, cp, V_INV)
        for y, c in cp.items():
            if s in g.left_descents(y) and (mu := c.coeff(-1)):
                acc(out, basis(y), LaurentPoly.const(-mu))
        return out

    def to_c(self, tcoords: Coords) -> Coords:
        """Standard-basis coefficients -> canonical-basis coefficients
        (greedy unitriangular elimination from the top)."""
        rem = dict(tcoords)
        out: Coords = {}
        while rem:
            w = max(rem)
            a = out[w] = rem[w]
            acc(rem, self.canonical(w), -a)
            if w in rem:  # the unit diagonal of c_w clears rem[w]
                raise InternalConsistencyError(f"c[{format_element(w)}] is not unitriangular")
        return out

    def mu(self, y: GroupElement, w: GroupElement) -> int:
        """mu(y, w): the v^-1 coefficient of c_w at y."""
        _same_graph(self.graph, y)
        return self.canonical(w).get(y, ZERO).coeff(-1)

    def c_lgen(self, s: int, w: GroupElement) -> Coords:
        """c_s c_w in bar-invariant coordinates, memoized on (s, w), by the mu-rule
        (Kazhdan-Lusztig 1979; Green-Losonczy 1999 for the quotient): (v + v^-1) c_w
        if s is in L(w), else c_sw if s w is a basis element plus mu(z, w) c_z for
        each z with s in L(z).  c_s c_w less the rule is bar-invariant, so it is zero
        if its coordinates lie in v^-1 Z[v^-1]; with c_s = t_s + v^-1 and c_w = sum
        p_y t_y, all do but `off`: p_y t_s t_y for y with s y outside the basis and,
        if s is in L(w), 1 at s w less mu(y, w) at each y with s not in L(y).  Where
        `off` is not in v^-1 Z[v^-1], c_s c_w is eliminated from standard coordinates."""
        key = (s, w)
        cached = self._cgen.get(key)
        if cached is None:
            _same_graph(self.graph, w)
            g = self.graph
            cw = self.canonical(w)
            down = s in g.left_descents(w)
            sw = g.lmul(s, w) if down else self._basis_lmul(s, w)
            cached = {w: DELTA} if down else {} if sw is None else {sw: ONE}
            off = {sw: ONE} if down else {}
            for y, c in cw.items():
                mu = c.coeff(-1)
                if s not in g.left_descents(y):
                    if down and mu:
                        off[y] = off.get(y, ZERO) - mu
                    if self._basis_lmul(s, y) is None:
                        acc(off, self.lgen(s, y), c)
                elif mu and not down:
                    cached[y] = LaurentPoly.const(mu)
            if not all(c.in_vneg() for c in off.values()):
                cached = self.to_c(self.lmul(s, cw))
                acc(cached, {w: V_INV})
            self._cgen[key] = cached
        return cached

    def _product(self, x: GroupElement, y: GroupElement) -> Coords:
        """c_x c_y in bar-invariant coordinates, by the left action of c_s
        (`c_lgen`).  The anti-involution * maps c_z to c_{z^-1}, so with r =
        x^-1, c_x c_y = (c_{y^-1} c_r)*.  With s the first letter of u and u' =
        s u, c_s c_u' is c_u plus strictly shorter terms a_z c_z (both bases
        are unitriangular), so c_u c_r reads only products with right factor r:

            c_u c_r = sum_w (c_u' c_r)[w] c_s c_w - sum_z a_z c_z c_r.

        The memo u -> c_u c_r (`_row`) keeps the last r only: a caller that
        runs x-major builds each row once."""
        _same_graph(self.graph, x, y)
        inverse = self.graph.inverse
        r = inverse(x)
        if r is not self._row_right:
            self._row.clear()
            self._row_right = r
        return {inverse(z): c for z, c in self._row_product(inverse(y)).items()}

    def _row_product(self, u: GroupElement) -> Coords:
        """c_u c_r for the right factor r of the current row, memoized on u."""
        cached = self._row.get(u)
        if cached is None:
            if not u.word:
                cached = {self._row_right: ONE}
            else:
                s = u.word[0]
                up = self.graph.lmul(s, u)
                cached = {}
                for w, c in self._row_product(up).items():
                    acc(cached, self.c_lgen(s, w), c)
                for z, a in self.c_lgen(s, up).items():
                    if z != u:
                        acc(cached, self._row_product(z), -a)
            self._row[u] = cached
        return cached
