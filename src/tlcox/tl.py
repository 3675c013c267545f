"""The generalized Temperley-Lieb quotient on the fully commutative basis.

The algebra is presented by the quadratic relation on generators together
with, for every noncommuting pair {s,t} of finite bond m, the vanishing of
the full dihedral sum; equivalently the longest dihedral basis element
rewrites as

    t_{w_st} = - sum over proper u in <s,t> of v^(len(u) - m) t_u.

Multiplication by a generator therefore has three cases on a basis element
t_w: shorten (descent), extend (still fully commutative), or rewrite by the
relation above after splitting off the commuting prefix.  Everything else is
built on top of that kernel: the bar involution (by inverting generators),
the canonical basis (two independent algorithms: a triangular bar-solve and
a length recursion driven by the v^-1 coefficients), the p*/q*/M coefficient
tables with two independent q* computations that must agree, products in
canonical coordinates, sublattice membership, and the dihedral canonical
basis built from the three-term second-kind Chebyshev recurrence.

Products of canonical basis elements stay in canonical coordinates: c_x c_y
follows from a memoized table of c_s c_w by peeling the first letter of x
(left_action_product, shared with the full-group algebra).

All per-basis computations are memoized on a per-graph algebra object;
everything is an immutable value from the caller's point of view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .coxeter import (
    INFINITE,
    WEAKLY_COMPLEX,
    CoxeterGraph,
    GroupElement,
    classify,
    decompose_fc_prefix,
    enumerate_elements,
    format_element,
    parse_element,
)
from .laurent import ONE, V_INV, V_MINUS_VINV, ZERO, LaurentPoly, parse_poly
from .stars import PropertyReport

Coords = dict[GroupElement, LaurentPoly]


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree exactly did not."""


class CanonicalRecursionError(RuntimeError):
    """The length recursion for the canonical basis produced coefficients
    violating the depressed-degree condition (the weakly complex rewrite
    property failed on this graph)."""


def acc(dst: Coords, src: Coords, scale: LaurentPoly = ONE) -> None:
    """dst += scale * src, dropping zeros."""
    if scale is ONE:
        for w, c in src.items():
            val = dst.get(w)
            total = c if val is None else val + c
            if total:
                dst[w] = total
            elif val is not None:
                del dst[w]
    else:
        for w, c in src.items():
            val = dst.get(w)
            total = scale * c if val is None else val + scale * c
            if total:
                dst[w] = total
            elif val is not None:
                del dst[w]


def bar_solve(w: GroupElement, bar_expand: Callable[[GroupElement], Coords]) -> Coords:
    """The unique coefficients p with p[w] = 1, every other p[y] in
    v^-1 Z[v^-1], and sum_y bar(p[y]) bar_expand(y) = sum_y p[y] t_y.

    bar_expand must be unitriangular: bar_expand(y) = t_y + strictly shorter
    terms.  Solved by descending length.
    """
    support = {w}
    stack = [w]
    while stack:
        y = stack.pop()
        for z in bar_expand(y):
            if z not in support:
                support.add(z)
                stack.append(z)
    p: Coords = {}
    for z in sorted(support, reverse=True):
        if z == w:
            p[z] = ONE
            continue
        f = ZERO
        for y, py in p.items():
            r = bar_expand(y).get(z)
            if r is not None:
                f = f + py.bar() * r
        if f.is_zero():
            continue
        if f.coeff(0) != 0 or f.bar() != -f:
            raise InternalConsistencyError(
                "bar expansion is not unitriangular over the expected support")
        part = f.neg_part()
        if part:
            p[z] = part
    return p


def left_action_product(x: GroupElement, y: GroupElement,
                        c_lgen: Callable[[int, GroupElement], Coords],
                        mul: Callable[[GroupElement, GroupElement], Coords]) -> Coords:
    """c_x c_y in canonical coordinates, by the left action of c_s.

    With s the first letter of x and x' = s x, the product c_s c_x' in
    canonical coordinates is c_x plus strictly shorter terms a_z c_z (both
    bases are unitriangular), so

        c_x c_y = sum_w (c_x' c_y)[w] c_s c_w - sum_z a_z c_z c_y.

    c_lgen(s, w) is c_s c_w in canonical coordinates; mul is the memoized
    product that this recursion is the body of.
    """
    if not x.word:
        return {y: ONE}
    s = x.word[0]
    xp = x.graph.lmul(s, x)
    out: Coords = {}
    for w, c in mul(xp, y).items():
        acc(out, c_lgen(s, w), c)
    for z, a in c_lgen(s, xp).items():
        if z != x:
            acc(out, mul(z, y), -a)
    return out


def _dihedral_proper_words(s: int, t: int, m: int) -> list[tuple[int, ...]]:
    """Words for the 2m-1 elements strictly below the longest element of the
    dihedral parabolic on {s, t}."""
    out: list[tuple[int, ...]] = [()]
    for k in range(1, m):
        out.append(tuple(s if j % 2 == 0 else t for j in range(k)))
        out.append(tuple(t if j % 2 == 0 else s for j in range(k)))
    return out


class TLAlgebra:
    """Memoized arithmetic for one graph; obtain via :meth:`for_graph`."""

    _instances: dict[CoxeterGraph, "TLAlgebra"] = {}

    @classmethod
    def for_graph(cls, graph: CoxeterGraph) -> "TLAlgebra":
        alg = cls._instances.get(graph)
        if alg is None:
            alg = cls(graph)
            cls._instances[graph] = alg
        return alg

    def __init__(self, graph: CoxeterGraph):
        self.graph = graph
        self._lgen: dict[tuple[int, GroupElement], Coords] = {}
        self._rgen: dict[tuple[GroupElement, int], Coords] = {}
        self._bar: dict[GroupElement, Coords] = {}
        self._expand: dict[GroupElement, Coords] = {}
        self._cbasis: dict[GroupElement, Coords] = {}
        self._cbasis_rec: dict[GroupElement, Coords] = {}
        self._cgen: dict[tuple[int, GroupElement], Coords] = {}
        self._tt: dict[tuple[GroupElement, GroupElement], Coords] = {}
        self._cmul: dict[tuple[GroupElement, GroupElement], Coords] = {}
        self._q: dict[tuple[GroupElement, GroupElement], LaurentPoly] = {}
        self._alt: dict[tuple[int, int], Coords] = {}

    # -- the multiplication kernel ------------------------------------------------

    def lgen(self, s: int, w: GroupElement) -> Coords:
        """t_s * t_w for a fully commutative basis element w."""
        key = (s, w)
        cached = self._lgen.get(key)
        if cached is not None:
            return cached
        g = self.graph
        if s in g.left_descents(w):
            out = {g.lmul(s, w): ONE, w: V_MINUS_VINV}
        else:
            sw = g.lmul(s, w)
            if g.is_fully_commutative(sw):
                out = {sw: ONE}
            else:
                w1, w2, w3, t = decompose_fc_prefix(w, s)
                m = g.m(s, t)
                assert m != INFINITE  # an infinite bond never produces a braid factor
                out = {}
                prefix = w1.word
                for u_word in _dihedral_proper_words(s, t, m):
                    term: Coords = {w3: ONE}
                    for letter in reversed(prefix + u_word):
                        term = self.lmul(letter, term)
                    acc(out, term, -LaurentPoly.v(len(u_word) - m))
        self._lgen[key] = out
        return out

    def rgen(self, w: GroupElement, s: int) -> Coords:
        """t_w * t_s, by transporting lgen through the word-reversal
        anti-automorphism."""
        key = (w, s)
        cached = self._rgen.get(key)
        if cached is not None:
            return cached
        g = self.graph
        res = self.lgen(s, g.inverse(w))
        out = {g.inverse(y): c for y, c in res.items()}
        self._rgen[key] = out
        return out

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

    def unit(self) -> Coords:
        return {self.graph.identity: ONE}

    def basis(self, w: GroupElement) -> Coords:
        if not w.is_fully_commutative():
            raise ValueError("basis elements are indexed by fully commutative elements")
        return {w: ONE}

    def expand(self, w: GroupElement) -> Coords:
        """Image of the standard basis element of any w (fully commutative or
        not) in the fully commutative basis."""
        cached = self._expand.get(w)
        if cached is None:
            if not w.word:
                cached = self.unit()
            else:
                rest = self.graph.element(w.word[1:])
                cached = self.lmul(w.word[0], self.expand(rest))
            self._expand[w] = cached
        return cached

    def tt_prod(self, x: GroupElement, y: GroupElement) -> Coords:
        """t_x * t_y for basis elements, memoized."""
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

    def t_mul(self, a: Coords, b: Coords) -> Coords:
        out: Coords = {}
        for x, cx in a.items():
            for y, cy in b.items():
                acc(out, self.tt_prod(x, y), cx * cy)
        return out

    # -- bar involution -------------------------------------------------------------

    def bar_basis(self, w: GroupElement) -> Coords:
        """bar(t_w): the product of (t_s - (v - v^-1)) along the word of w."""
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

    # -- canonical basis --------------------------------------------------------------

    def cbasis(self, w: GroupElement) -> Coords:
        """Canonical basis element attached to fully commutative w, as
        coefficients on the standard basis (triangular bar-solve)."""
        cached = self._cbasis.get(w)
        if cached is None:
            if not w.is_fully_commutative():
                raise ValueError("canonical basis is indexed by fully commutative elements")
            cached = bar_solve(w, self.bar_basis)
            self._cbasis[w] = cached
        return cached

    def cbasis_recursive(self, w: GroupElement) -> Coords:
        """Same element by the length recursion: peel the least left descent s
        and correct c_s c_{sw} by the v^-1 coefficients at descent-carrying
        support."""
        cached = self._cbasis_rec.get(w)
        if cached is None:
            if not w.is_fully_commutative():
                raise ValueError("canonical basis is indexed by fully commutative elements")
            g = self.graph
            if not w.word:
                cached = self.unit()
            else:
                s = min(g.left_descents(w))
                wp = g.lmul(s, w)
                cp = self.cbasis_recursive(wp)
                out = self.lmul(s, cp)
                acc(out, cp, V_INV)
                for y in sorted(cp):
                    if s in g.left_descents(y):
                        mcoef = cp[y].coeff(-1)
                        if mcoef:
                            acc(out, self.cbasis_recursive(y), LaurentPoly.const(-mcoef))
                if out.get(w) != ONE:
                    raise CanonicalRecursionError(
                        f"recursion lost unitriangularity at {format_element(w)}")
                for y, c in out.items():
                    if y != w and not c.in_vneg():
                        raise CanonicalRecursionError(
                            f"coefficient at {format_element(y)} in c[{format_element(w)}] "
                            f"is not depressed: {c.format()}")
                cached = out
            self._cbasis_rec[w] = cached
        return cached

    def p_star(self, y: GroupElement, w: GroupElement) -> LaurentPoly:
        if not (y.is_fully_commutative() and w.is_fully_commutative()):
            return ZERO
        return self.cbasis(w).get(y, ZERO)

    def m_coeff(self, y: GroupElement, w: GroupElement) -> int:
        """The v^-1 coefficient of p*(y, w)."""
        return self.p_star(y, w).coeff(-1)

    def m_tilde(self, x: GroupElement, y: GroupElement) -> int:
        return self.m_coeff(x, y) if x.length <= y.length else self.m_coeff(y, x)

    # -- coordinate conversions ----------------------------------------------------------

    def to_c(self, tcoords: Coords) -> Coords:
        """Standard-basis coefficients -> canonical-basis coefficients
        (greedy unitriangular elimination from the top)."""
        rem = dict(tcoords)
        out: Coords = {}
        while rem:
            w = max(rem)
            a = rem.pop(w)
            out[w] = a
            for y, c in self.cbasis(w).items():
                if y is w or y == w:
                    continue
                val = rem.get(y)
                total = -a * c if val is None else val - a * c
                if total:
                    rem[y] = total
                elif val is not None:
                    del rem[y]
        return out

    def from_c(self, ccoords: Coords) -> Coords:
        out: Coords = {}
        for w, c in ccoords.items():
            acc(out, self.cbasis(w), c)
        return out

    def c_lgen(self, s: int, w: GroupElement) -> Coords:
        """c_s c_w in canonical coordinates, memoized on (s, w)."""
        key = (s, w)
        cached = self._cgen.get(key)
        if cached is None:
            cw = self.cbasis(w)
            prod = self.lmul(s, cw)
            acc(prod, cw, V_INV)
            cached = self.to_c(prod)
            self._cgen[key] = cached
        return cached

    def c_mul(self, x: GroupElement, y: GroupElement) -> Coords:
        """The product of canonical basis elements in canonical coordinates,
        by the left action of the canonical generators (never leaves
        canonical coordinates); memoized on (x, y)."""
        key = (x, y)
        cached = self._cmul.get(key)
        if cached is None:
            cached = left_action_product(x, y, self.c_lgen, self.c_mul)
            self._cmul[key] = cached
        return cached

    # -- q* by the descent recursion ---------------------------------------------------------

    def q_poly(self, x: GroupElement, w: GroupElement) -> LaurentPoly:
        """q(x, w) = v^(len(w) - len(x)) q*(x, w), computed by peeling the
        least left descent of w (independent of the canonical basis)."""
        key = (x, w)
        cached = self._q.get(key)
        if cached is not None:
            return cached
        g = self.graph
        if x == w:
            out = ONE
        elif x.length >= w.length or not g.bruhat_leq(x, w):
            out = ZERO
        else:
            s = min(g.left_descents(w))
            wp = g.lmul(s, w)
            if s not in g.left_descents(x):
                out = self.q_poly(x, wp)
            else:
                out = self.q_poly(g.lmul(s, x), wp) - LaurentPoly.v(2) * self.q_poly(x, wp)
                for level in g.levels_to(wp.length)[x.length + 1:]:
                    for y in level:
                        if (y.length - x.length) % 2 == 0:
                            continue
                        if s in g.left_descents(y) or not y.is_fully_commutative():
                            continue
                        mc = self.q_poly(x, y).coeff(y.length - x.length - 1)
                        if mc:
                            out = out + LaurentPoly._raw(
                                {y.length + 1 - x.length: mc}) * self.q_poly(y, wp)
        self._q[key] = out
        return out

    def q_star_recursive(self, x: GroupElement, w: GroupElement) -> LaurentPoly:
        return LaurentPoly.v(x.length - w.length) * self.q_poly(x, w)

    # -- dihedral canonical basis from the Chebyshev recurrence ------------------------------

    def alternating_c_product(self, start: int, n: int) -> Coords:
        """Product of n alternating canonical generators c_start c_other c_start..."""
        key = (start, n)
        cached = self._alt.get(key)
        if cached is None:
            if n == 0:
                cached = self.unit()
            else:
                prev = self.alternating_c_product(1 - start, n - 1)
                cached = self.lmul(start, prev)
                acc(cached, prev, V_INV)
            self._alt[key] = cached
        return cached


def chebyshev_coeffs(n: int) -> list[int]:
    """Coefficients of the degree-n second-kind Chebyshev polynomial
    (three-term recurrence P_n = x P_{n-1} - P_{n-2})."""
    if n == 0:
        return [1]
    prev, cur = [1], [0, 1]
    for _ in range(n - 1):
        shifted = [0] + cur
        nxt = [a - b for a, b in zip(shifted, prev + [0] * (len(shifted) - len(prev)))]
        prev, cur = cur, nxt
    return cur


def dihedral_cbasis(graph: CoxeterGraph, i: int, start: int = 0) -> Coords:
    """Canonical element of the alternating word of length i+1 in a rank-2
    graph, built from x*P_i via the Chebyshev recurrence."""
    if graph.rank != 2:
        raise ValueError("dihedral construction needs a rank-2 graph")
    m = graph.m(0, 1)
    if i < 0 or (m != INFINITE and i > m - 2):
        raise ValueError(f"index {i} out of range for bond {m}")
    alg = TLAlgebra.for_graph(graph)
    poly = [0] + chebyshev_coeffs(i)  # x * P_i
    out: Coords = {}
    for n, coeff in enumerate(poly):
        if coeff:
            acc(out, alg.alternating_c_product(start, n), LaurentPoly.const(coeff))
    return out


def star_involution_coords(graph: CoxeterGraph, coords: Coords) -> Coords:
    """The anti-automorphism acting on either basis by word reversal."""
    return {graph.inverse(w): c for w, c in coords.items()}


# -- the element wrapper -------------------------------------------------------------------


@dataclass
class TLElement:
    """An algebra element: finitely supported coefficients on the fully
    commutative elements, in either the standard ('t') or canonical ('c')
    basis."""

    graph: CoxeterGraph
    basis: str
    coords: Coords

    def __post_init__(self):
        if self.basis not in ("t", "c"):
            raise ValueError("basis tag must be 't' or 'c'")
        for w in self.coords:
            if not w.is_fully_commutative():
                raise ValueError(
                    f"support must be fully commutative; got {format_element(w)}")
        self.coords = {w: c for w, c in self.coords.items() if c}

    @classmethod
    def t_basis(cls, w: GroupElement) -> "TLElement":
        return cls(w.graph, "t", TLAlgebra.for_graph(w.graph).basis(w))

    @classmethod
    def c_basis(cls, w: GroupElement) -> "TLElement":
        return cls(w.graph, "c", TLAlgebra.for_graph(w.graph).basis(w))

    @property
    def algebra(self) -> TLAlgebra:
        return TLAlgebra.for_graph(self.graph)

    def to_basis(self, basis: str) -> "TLElement":
        if basis == self.basis:
            return self
        alg = self.algebra
        if basis == "t":
            return TLElement(self.graph, "t", alg.from_c(self.coords))
        return TLElement(self.graph, "c", alg.to_c(self.coords))

    def __add__(self, other: "TLElement") -> "TLElement":
        other = other.to_basis(self.basis)
        out = dict(self.coords)
        acc(out, other.coords)
        return TLElement(self.graph, self.basis, out)

    def __sub__(self, other: "TLElement") -> "TLElement":
        other = other.to_basis(self.basis)
        out = dict(self.coords)
        acc(out, other.coords, -ONE)
        return TLElement(self.graph, self.basis, out)

    def scale(self, c: LaurentPoly | int) -> "TLElement":
        if isinstance(c, int):
            c = LaurentPoly.const(c)
        return TLElement(self.graph, self.basis, {w: c * a for w, a in self.coords.items() if c * a})

    def __mul__(self, other: "TLElement") -> "TLElement":
        alg = self.algebra
        prod = alg.t_mul(self.to_basis("t").coords, other.to_basis("t").coords)
        if self.basis == "c":
            return TLElement(self.graph, "c", alg.to_c(prod))
        return TLElement(self.graph, "t", prod)

    def bar(self) -> "TLElement":
        alg = self.algebra
        if self.basis == "c":
            # canonical basis elements are bar-invariant
            return TLElement(self.graph, "c", {w: c.bar() for w, c in self.coords.items()})
        return TLElement(self.graph, "t", alg.bar(self.coords))

    def star(self) -> "TLElement":
        return TLElement(self.graph, self.basis,
                         star_involution_coords(self.graph, self.coords))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TLElement):
            return NotImplemented
        return (self.graph == other.graph
                and self.to_basis("t").coords == other.to_basis("t").coords)

    def is_zero(self) -> bool:
        return not self.coords

    def render(self) -> str:
        lines = [f"{c.format()} * {self.basis}[{format_element(w)}]"
                 for w, c in sorted(self.coords.items())]
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"TLElement({self.render() or '0'})"


def parse_tl(graph: CoxeterGraph, text: str) -> TLElement:
    """Inverse of TLElement.render."""
    coords: Coords = {}
    basis: str | None = None
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            coeff_text, label = line.rsplit(" * ", 1)
        except ValueError:
            raise ValueError(f"malformed element line: {line!r}") from None
        tag, rest = label[0], label[1:]
        if tag not in ("t", "c") or not (rest.startswith("[") and rest.endswith("]")):
            raise ValueError(f"malformed basis label: {label!r}")
        if basis is None:
            basis = tag
        elif basis != tag:
            raise ValueError("mixed basis tags in one element")
        w = parse_element(graph, rest[1:-1])
        if w in coords:
            raise ValueError(f"duplicate basis element {label!r}")
        coords[w] = parse_poly(coeff_text)
    return TLElement(graph, basis or "t", coords)


# -- coefficient tables ------------------------------------------------------------------------


@dataclass
class CoeffTables:
    """p*, q* and the integer v^-1 coefficients M on all fully commutative
    pairs up to the bound, with both q* routes reconciled."""

    graph: CoxeterGraph
    bound: int
    elements: list[GroupElement]
    p_star: dict[tuple[GroupElement, GroupElement], LaurentPoly]
    q_star: dict[tuple[GroupElement, GroupElement], LaurentPoly]
    m: dict[tuple[GroupElement, GroupElement], int]

    def m_coeff(self, x: GroupElement, w: GroupElement) -> int:
        return self.m.get((x, w), 0)

    def m_tilde(self, x: GroupElement, y: GroupElement) -> int:
        return self.m_coeff(x, y) if x.length <= y.length else self.m_coeff(y, x)

    def dump_tsv(self) -> str:
        lines = ["y\tw\tp_star\tq_star\tM"]
        for w in self.elements:
            for y in self.elements:
                p = self.p_star.get((y, w), ZERO)
                q = self.q_star.get((y, w), ZERO)
                if p.is_zero() and q.is_zero():
                    continue
                lines.append(
                    f"{format_element(y)}\t{format_element(w)}\t{p.format()}\t"
                    f"{q.format()}\t{self.m.get((y, w), 0)}")
        return "\n".join(lines) + "\n"


def coeff_tables(graph: CoxeterGraph, length_bound: int) -> CoeffTables:
    """Build the tables; q* is computed both by inverting the p*-matrix and
    by the descent recursion, and the two must agree exactly."""
    alg = TLAlgebra.for_graph(graph)
    fc = list(enumerate_elements(graph, length_bound, fc_only=True))
    p_star: dict[tuple[GroupElement, GroupElement], LaurentPoly] = {}
    for w in fc:
        for y, c in alg.cbasis(w).items():
            p_star[(y, w)] = c
    # invert the unitriangular matrix: columns of the inverse, top down
    q_star: dict[tuple[GroupElement, GroupElement], LaurentPoly] = {}
    for wi, w in enumerate(fc):
        col: Coords = {w: ONE}
        for zi in range(wi - 1, -1, -1):
            z = fc[zi]
            total = ZERO
            for y, xy in col.items():
                pzy = p_star.get((z, y))
                if pzy is not None and y != z:
                    total = total + pzy * xy
            if total:
                col[z] = -total
        sign_w = w.length % 2
        for z, val in col.items():
            if (z.length + sign_w) % 2:
                val = -val
            q_star[(z, w)] = val
    # reconcile with the recursion route
    for w in fc:
        for y in fc:
            if y.length > w.length:
                continue
            recur = alg.q_star_recursive(y, w)
            if recur != q_star.get((y, w), ZERO):
                raise InternalConsistencyError(
                    f"q*({format_element(y)}, {format_element(w)}): matrix inversion gives "
                    f"{q_star.get((y, w), ZERO).format()} but the recursion gives {recur.format()}")
    m: dict[tuple[GroupElement, GroupElement], int] = {}
    for (y, w), p in p_star.items():
        mc = p.coeff(-1)
        if mc != q_star.get((y, w), ZERO).coeff(-1):
            raise InternalConsistencyError(
                f"v^-1 coefficients of p* and q* disagree at "
                f"({format_element(y)}, {format_element(w)})")
        if mc:
            m[(y, w)] = mc
    return CoeffTables(graph, length_bound, fc, p_star, q_star, m)


# -- sublattice membership ---------------------------------------------------------------------


def lattice_membership(x: TLElement, which: tuple) -> bool:
    """Membership of x in the negative-coefficient lattice ("L",), or in the
    variants that allow non-depressed coefficients only at elements with a
    given left descent ("Ls", s) or a reduced word starting s,t ("Lst", s, t)."""
    coords = x.to_basis("t").coords
    g = x.graph
    kind = which[0]
    if kind == "L":
        return all(c.in_neg() for c in coords.values())
    if kind == "Ls":
        s = which[1]
        return all(
            c.in_neg() if s in g.left_descents(w) else c.in_vneg()
            for w, c in coords.items())
    if kind == "Lst":
        s, t = which[1], which[2]

        def starts_st(w: GroupElement) -> bool:
            return s in g.left_descents(w) and t in g.left_descents(g.lmul(s, w))

        return all(
            c.in_neg() if starts_st(w) else c.in_vneg()
            for w, c in coords.items())
    raise ValueError(f"unknown lattice {which!r}")


# -- the weak-complexity coefficient check -------------------------------------------------------


def check_property_W(graph: CoxeterGraph, length_bound: int) -> PropertyReport:
    """For every weakly complex element x of length <= bound, expand t_x in
    the fully commutative basis and demand strictly negative exponents."""
    alg = TLAlgebra.for_graph(graph)
    report = PropertyReport("W", graph, length_bound)
    sub_ok = True
    for x in enumerate_elements(graph, length_bound):
        if classify(x) != WEAKLY_COMPLEX:
            continue
        coords = alg.expand(x)
        if not all(c.in_vneg() for c in coords.values()):
            report.failures.append(x)
            continue
        elem = TLElement(graph, "t", dict(coords))
        for s in sorted(graph.left_descents(x)):
            if graph.lmul(s, x).is_fully_commutative():
                if not lattice_membership(elem, ("Ls", s)):
                    sub_ok = False
    report.extra_lines.append(f"descent-sublattice check: {'PASS' if sub_ok else 'FAIL'}")
    return report
