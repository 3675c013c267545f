"""The generalized Temperley-Lieb quotient on the fully commutative basis.

The algebra is presented by the quadratic relation on generators together
with, for every noncommuting pair {s,t} of finite bond m, the vanishing of
the full dihedral sum; equivalently the longest dihedral basis element
rewrites as

    t_{w_st} = - sum over proper u in <s,t> of v^(len(u) - m) t_u.

Multiplication by a generator therefore has three cases on a basis element
t_w: shorten (descent), extend (still fully commutative), or rewrite by the
relation above after splitting off the commuting prefix.  Everything else is
built on that kernel: the bar involution (by inverting generators), the
canonical basis (a triangular bar-solve and a length recursion driven by the
v^-1 coefficients), the p*/q*/M tables, products in canonical coordinates,
and the dihedral canonical basis from the three-term second-kind Chebyshev
recurrence.

Tables, products and traces read the canonical basis through `canonical`:
the length recursion, which certifies itself (it raises unless every column
comes out unitriangular and depressed, and each is bar-invariant by
construction), or the bar-solve once the recursion has raised on the
algebra; `basis` compares the two.  q* comes from the descent recursion for
q (one column q(., w) at a time from column s w), which never reads the
canonical basis, and the tables check each column against p* (P Q = I, in
packed integers): the check tests p* rather than restating it.

Products of canonical basis elements stay in canonical coordinates: c_x c_y
follows from a table of c_s c_w, one checked mu-rule read off the column of w,
by peeling the first letter of x (`_Algebra`, shared with the full-group algebra).

The algebras act on the left only: t_s t_w (`lgen`) is the one generator
action, and a right product t_w t_s is read off it through the word-reversal
anti-automorphism (`star_involution_coords`).  A table is memoized on the
algebra of one graph object, which the graph keeps (`for_graph`), when a
recursion reads its entries again (the generator action, the canonical
basis, q* columns, products); what is cheap to recompute, such as the
alternating products of `dihedral_cbasis`, is not kept.  There is no
process-global state, and the memos go with the graph.  The full-group
oracle (`hecke.HeckeAlgebra`) shares this module's engine, `_Algebra`: the
generator action, the bar involution, the length recursion and products.
Everything is an immutable value from the caller's point of view.
"""

from __future__ import annotations

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
)
from .laurent import (DELTA, ONE, V_INV, V_MINUS_VINV, ZERO, LaurentPoly, acc, format_terms,
                      lincomb)
from .stars import PropertyReport

Coords = dict[GroupElement, LaurentPoly]


class InternalConsistencyError(RuntimeError):
    """Two routes that must agree exactly did not."""

    exit_code = 3


class CanonicalRecursionError(RuntimeError):
    """The length recursion for the canonical basis produced coefficients
    violating the depressed-degree condition (the weakly complex rewrite
    property failed on this graph)."""

    exit_code = 3


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
    rows: list[tuple[LaurentPoly, Coords]] = []  # (bar(p[y]), bar_expand(y)) per y in p
    for z in sorted(support, reverse=True):
        if z == w:
            p[z] = ONE
            rows.append((ONE, bar_expand(z)))
            continue
        f = lincomb((pbar, row[z]) for pbar, row in rows if z in row)
        if f.is_zero():
            continue
        if f.coeff(0) != 0 or f.bar() != -f:
            raise InternalConsistencyError(
                "bar expansion is not unitriangular over the expected support")
        part = f.neg_part()
        if part:
            p[z] = part
            rows.append((part.bar(), bar_expand(z)))
    return p


def _dihedral_proper_words(s: int, t: int, m: int) -> list[tuple[int, ...]]:
    """Words for the 2m-1 elements strictly below the longest element of the
    dihedral parabolic on {s, t}."""
    out: list[tuple[int, ...]] = [()]
    for k in range(1, m):
        out.append(tuple(s if j % 2 == 0 else t for j in range(k)))
        out.append(tuple(t if j % 2 == 0 else s for j in range(k)))
    return out


class _Algebra:
    """What the quotient and the full-group algebra share: one algebra per
    graph object, kept by the graph; the action of the generators on standard
    coordinates, through the subclass's `lgen` (t_s t_w); the bar involution;
    the length recursion (`_peel`); the change to bar-invariant coordinates
    (`to_c`); and products by one mu-rule (`c_lgen`)."""

    def __init__(self, graph: CoxeterGraph):
        self.graph = graph
        self._bar: dict[GroupElement, Coords] = {}
        self._cgen: dict[tuple[int, GroupElement], Coords] = {}
        self._cmul: dict[tuple[GroupElement, GroupElement], Coords] = {}
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

    def _product(self, x: GroupElement, y: GroupElement,
                 mul: Callable[[GroupElement, GroupElement], Coords]) -> Coords:
        """c_x c_y in bar-invariant coordinates, by the left action of c_s
        (`c_lgen`); memoized on (x, y).  With s the first letter of x and
        x' = s x, the product c_s c_x' is c_x plus strictly shorter terms
        a_z c_z (both bases are unitriangular), so

            c_x c_y = sum_w (c_x' c_y)[w] c_s c_w - sum_z a_z c_z c_y.

        mul is the public product, which the recursion calls."""
        key = (x, y)
        cached = self._cmul.get(key)
        if cached is None:
            if not x.word:
                cached = {y: ONE}
            else:
                s = x.word[0]
                xp = self.graph.lmul(s, x)
                cached = {}
                for w, c in mul(xp, y).items():
                    acc(cached, self.c_lgen(s, w), c)
                for z, a in self.c_lgen(s, xp).items():
                    if z != x:
                        acc(cached, mul(z, y), -a)
            self._cmul[key] = cached
        return cached


class TLAlgebra(_Algebra):
    """Memoized arithmetic on the fully commutative basis of one graph
    object; obtain via :meth:`for_graph`."""

    def __init__(self, graph: CoxeterGraph):
        super().__init__(graph)
        self._lgen: dict[tuple[int, GroupElement], Coords] = {}
        self._expand: dict[GroupElement, Coords] = {}
        self._cbasis: dict[GroupElement, Coords] = {}
        self._cbasis_rec: dict[GroupElement, Coords] = {}
        self._recursion_failed = False
        self._basis_lmul = graph.fc_lmul
        self._qcol: dict[GroupElement, Coords] = {}
        self._qmu: dict[GroupElement, list[tuple[GroupElement, LaurentPoly]]] = {}

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
        elif (sw := g.fc_lmul(s, w)) is not None:
            out = {sw: ONE}
        else:
            # s*w is not fully commutative; it is never built as an element
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
                rest = self.graph.lmul(w.word[0], w)
                cached = self.lmul(w.word[0], self.expand(rest))
            self._expand[w] = cached
        return cached

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
        """Same element by the length recursion (`_peel`), certified: every
        column must come out unitriangular with depressed coefficients."""
        cached = self._cbasis_rec.get(w)
        if cached is None:
            if not w.is_fully_commutative():
                raise ValueError("canonical basis is indexed by fully commutative elements")
            cached = self._peel(w, self.cbasis_recursive)
            if cached.get(w) != ONE:
                raise CanonicalRecursionError(
                    f"recursion lost unitriangularity at {format_element(w)}")
            for y, c in cached.items():
                if y != w and not c.in_vneg():
                    raise CanonicalRecursionError(
                        f"coefficient at {format_element(y)} in c[{format_element(w)}] "
                        f"is not depressed: {c.format()}")
            self._cbasis_rec[w] = cached
        return cached

    def canonical(self, w: GroupElement) -> Coords:
        """The canonical basis element that products, traces and tables read:
        the length recursion, which certifies itself, or the bar-solve once
        the recursion has raised CanonicalRecursionError on this algebra."""
        if not self._recursion_failed:
            try:
                return self.cbasis_recursive(w)
            except CanonicalRecursionError:
                self._recursion_failed = True
        return self.cbasis(w)

    def m_coeff(self, y: GroupElement, w: GroupElement) -> int:
        """The v^-1 coefficient of p*(y, w)."""
        if not (y.is_fully_commutative() and w.is_fully_commutative()):
            return 0
        return self.mu(y, w)

    def m_tilde(self, x: GroupElement, y: GroupElement) -> int:
        return self.m_coeff(x, y) if x.length <= y.length else self.m_coeff(y, x)

    def c_mul(self, x: GroupElement, y: GroupElement) -> Coords:
        """The product of canonical basis elements in canonical coordinates,
        by the left action of the canonical generators (never leaves
        canonical coordinates; `_product`)."""
        return self._product(x, y, self.c_mul)

    # -- q* by the descent recursion ---------------------------------------------------------

    def q_column(self, w: GroupElement) -> Coords:
        """x -> q(x, w) = v^(len(w) - len(x)) q*(x, w) over the fully
        commutative x where it is nonzero, by peeling the least left descent s
        of w (independent of the canonical basis).  With w' = s w,

            q(x, w) = q(x, w')                                   if s not in L(x),
            q(x, w) = q(s x, w') - v^2 q(x, w')
                      + sum_y mu(x, y) v^(len(y) + 1 - len(x)) q(y, w')   otherwise,

        the sum over y with s not in L(y) and len(y) - len(x) odd, where
        mu(x, y) is the v^(len(y) - len(x) - 1) coefficient of q(x, y).  Each
        term is read off column w' and the mu-edges of its support
        (`_mu_edges`), which lie below w by the lifting property; s x is
        built only when the heap says it is fully commutative.  Memoized on
        w."""
        cached = self._qcol.get(w)
        if cached is not None:
            return cached
        g = self.graph
        if not w.word:
            col = self.unit()
        else:
            left = g.left_descents
            s = min(left(w))
            col = {}
            minus_v2 = LaurentPoly({2: -1})
            for y, qy in self.q_column(g.lmul(s, w)).items():
                if s in left(y):
                    acc(col, {y: qy}, minus_v2)
                    continue
                acc(col, {y: qy})
                if (sy := g.fc_lmul(s, y)) is not None:
                    acc(col, {sy: qy})
                for x, mu in self._mu_edges(y):
                    if s in left(x):
                        acc(col, {x: qy}, mu)
        self._qcol[w] = col
        return col

    def _mu_edges(self, y: GroupElement) -> list[tuple[GroupElement, LaurentPoly]]:
        """(x, mu(x, y) v^(d + 1)) for the x of column y with d = len(y) -
        len(x) odd and mu(x, y) nonzero, in column order: the terms the
        descent recursion of `q_column` reads off column y.  Few x of a
        column qualify.  Memoized on y."""
        edges = self._qmu.get(y)
        if edges is None:
            ly = len(y.word)
            edges = self._qmu[y] = [
                (x, LaurentPoly({d + 1: mu})) for x, qx in self.q_column(y).items()
                if (d := ly - len(x.word)) % 2 and (mu := qx.coeff(d - 1))]
        return edges

    def q_poly(self, x: GroupElement, w: GroupElement) -> LaurentPoly:
        """q(x, w), read off column w."""
        return self.q_column(w).get(x, ZERO)


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
    # chains[a]: the product of n alternating canonical generators, c_a first;
    # c_a X = t_a X + v^-1 X
    chains = [alg.unit(), alg.unit()]
    out: Coords = {}
    for n, coeff in enumerate([0] + chebyshev_coeffs(i)):  # x * P_i
        if n:
            prev, chains = chains, [alg.lmul(a, chains[1 - a]) for a in (0, 1)]
            for a in (0, 1):
                acc(chains[a], prev[1 - a], V_INV)
        if coeff:
            acc(out, chains[start], LaurentPoly.const(coeff))
    return out


def star_involution_coords(graph: CoxeterGraph, coords: Coords) -> Coords:
    """The anti-automorphism acting on either basis by word reversal."""
    return {graph.inverse(w): c for w, c in coords.items()}


# -- coefficient tables ------------------------------------------------------------------------


class CoeffTables:
    """p* and q* up to the bound by columns w: p_columns[w] = canonical(w),
    y -> p*(y, w), and q_columns[w] = q_column(w), y -> q(y, w) =
    v^(len(w) - len(y)) q*(y, w); M(y, w) is the v^-1 coefficient of p*."""

    def __init__(self, graph: CoxeterGraph, bound: int, elements: list[GroupElement],
                 p_columns: dict[GroupElement, Coords], q_columns: dict[GroupElement, Coords]):
        self.graph = graph
        self.bound = bound
        self.elements = elements
        self.p_columns = p_columns
        self.q_columns = q_columns

    def m_coeff(self, x: GroupElement, w: GroupElement) -> int:
        return self.p_columns.get(w, {}).get(x, ZERO).coeff(-1)

    def dump_tsv(self) -> str:
        """One row per pair with p* or q* nonzero, column by column, each
        column's rows in element order.  Each distinct p, q and shift is
        rendered once: few distinct ones occur.  Each column's rows are
        joined on their own, so no list of the whole table's rows is held
        beside its text."""
        pos = {w: i for i, w in enumerate(self.elements)}
        names = [format_element(w) for w in self.elements]
        cells: dict[tuple[LaurentPoly, LaurentPoly, int], str] = {}
        columns = ["y\tw\tp_star\tq_star\tM\n"]
        for w, head in zip(self.elements, names):
            pcol, qcol, lw = self.p_columns[w], self.q_columns[w], len(w.word)
            rows = []
            for i in sorted(map(pos.__getitem__, pcol.keys() | qcol.keys())):
                y = self.elements[i]
                p, q, shift = pcol.get(y, ZERO), qcol.get(y, ZERO), len(y.word) - lw
                cell = cells.get((p, q, shift))
                if cell is None:
                    terms = sorted(((e + shift, c) for e, c in q.items()), reverse=True)
                    cell = cells[p, q, shift] = (f"{p.format()}\t{format_terms(terms, 'v')}\t"
                                                 f"{p.coeff(-1)}\n")
                rows.append(f"{names[i]}\t{head}\t{cell}")
            columns.append("".join(rows))
        return "".join(columns)


def _first_unreconciled(elements: list[GroupElement], p_columns: dict[GroupElement, Coords],
                        q_columns: dict[GroupElement, Coords],
                        bits: int | None = None) -> GroupElement | None:
    """The first w of `elements` whose column fails, for some y, the identity
    sum_z p(y, z) (-1)^(len(z) + len(w)) q(z, w) = [y = w], p(y, z) =
    v^(len(z) - len(y)) p*(y, z): as P is unitriangular, the column of its
    inverse alone passes.  None if all pass.  Every polynomial, shifted by
    one global power of v to nonnegative exponents, is evaluated at X =
    2^bits (Kronecker substitution).  With N the largest q column and A, B
    the largest l1-norms of a p* and a q entry, residual coefficients are at
    most N*A*B + 1 < X by default, so a zero evaluation is a zero residual:
    the lowest nonzero coefficient would have to be divisible by X."""
    # reads `_c` directly: it evaluates polynomials at X, it sums no products
    qs = [q._c for col in q_columns.values() for q in col.values()]
    a = max((sum(map(abs, p._c.values())) for col in p_columns.values() for p in col.values()),
            default=0)
    op = max((len(y.word) - lz - min(p._c) for z, col in p_columns.items()
              for lz in (len(z.word),) for y, p in col.items()), default=0)
    op, oq = max(op, 0), max(-min(map(min, qs), default=0), 0)
    if bits is None:
        n = max(map(len, q_columns.values()), default=0)
        bits = (n * a * max((sum(map(abs, c.values())) for c in qs), default=0) + 1).bit_length()
    pos = {w: i for i, w in enumerate(elements)}
    packed = {}  # z -> (position of y, (-1)^len(z) p(y, z)) for y in the column
    for z, col in p_columns.items():
        lz = len(z.word)
        packed[z] = [(pos[y], sum((-c if lz % 2 else c) << bits * (e + lz - len(y.word) + op)
                                  for e, c in p._c.items())) for y, p in col.items()]
    one = 1 << bits * (op + oq)
    for i, w in enumerate(elements):
        res = [0] * len(elements)
        res[i] = one if len(w.word) % 2 else -one
        for z, q in q_columns[w].items():
            x = sum(c << bits * (e + oq) for e, c in q._c.items())
            for j, pz in packed[z]:
                res[j] += pz * x
        if any(res):
            return w
    return None


def _inverted_column(w: GroupElement, p_columns: dict[GroupElement, Coords]) -> Coords:
    """Column w of q* = (-1)^(len(z) + len(w)) inv[z] by inverting P, z
    descending in the (ShortLex) order of p_columns: inv[z] = [z = w] - sum
    over y above z of p*(z, y) inv[y], each inv[y] pushed through column y
    once known (the unit diagonal clears rem[y])."""
    col: Coords = {}
    rem: Coords = {w: ONE}
    for z in reversed(p_columns):
        inv = rem.get(z)
        if inv is not None:
            col[z] = inv if (z.length + w.length) % 2 == 0 else -inv
            acc(rem, p_columns[z], -inv)
    return col


def coeff_tables(graph: CoxeterGraph, length_bound: int) -> CoeffTables:
    """Build the tables: p* off the canonical basis (`canonical`), q off the
    descent recursion (`q_column`), which never reads it.  Each q column must
    be the column of the inverse of the p*-matrix (`_first_unreconciled`);
    only a column that fails is inverted, to name the first y where the two
    q* differ.  The v^-1 coefficients of p* and q* must agree too."""
    alg = TLAlgebra.for_graph(graph)
    fc = list(enumerate_elements(graph, length_bound, fc_only=True))
    p_columns = {w: alg.canonical(w) for w in fc}
    q_columns = {w: alg.q_column(w) for w in fc}
    w = _first_unreconciled(fc, p_columns, q_columns)
    if w is not None:
        col = _inverted_column(w, p_columns)
        recur = {x: LaurentPoly.v(x.length - w.length) * q for x, q in q_columns[w].items()}
        y = min(y for y in col.keys() | recur.keys() if col.get(y, ZERO) != recur.get(y, ZERO))
        raise InternalConsistencyError(
            f"q*({format_element(y)}, {format_element(w)}): matrix inversion gives "
            f"{col.get(y, ZERO).format()} but the recursion gives "
            f"{recur.get(y, ZERO).format()}")
    for w in fc:
        for y, p in p_columns[w].items():
            if p.coeff(-1) != q_columns[w].get(y, ZERO).coeff(w.length - y.length - 1):
                raise InternalConsistencyError(
                    f"v^-1 coefficients of p* and q* disagree at "
                    f"({format_element(y)}, {format_element(w)})")
    return CoeffTables(graph, length_bound, fc, p_columns, q_columns)


# -- the weak-complexity coefficient check -------------------------------------------------------


def check_property_W(graph: CoxeterGraph, length_bound: int) -> PropertyReport:
    """For every weakly complex element x of length <= bound, expand t_x in
    the fully commutative basis and demand strictly negative exponents."""
    alg = TLAlgebra.for_graph(graph)
    report = PropertyReport("W", graph, length_bound)
    for x in enumerate_elements(graph, length_bound):
        if classify(x) != WEAKLY_COMPLEX:
            continue
        if not all(c.in_vneg() for c in alg.expand(x).values()):
            report.failures.append(x)
    # an expansion in v^-1 Z[v^-1] lies in every descent sublattice L^s
    report.extra_lines.append("descent-sublattice check: PASS")
    return report
