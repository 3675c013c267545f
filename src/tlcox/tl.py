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
v^-1 coefficients), the p*/q*/M tables and products in canonical
coordinates.

Tables, products and traces read the canonical basis through `canonical`:
the length recursion, which certifies itself (it raises unless every column
comes out unitriangular and depressed, and each is bar-invariant by
construction), or the bar-solve once the recursion has raised on the
algebra; `basis` compares the two.  q* comes from the descent recursion for
q (one column q(., w) at a time from column s w), which never reads the
canonical basis, and the tables check each column against p* (Q P = I, in
packed integers): the check tests p* rather than restating it.

Products of canonical basis elements stay in canonical coordinates: c_x c_y
is (c_{y^-1} c_{x^-1})*, from a table of c_s c_w, one checked mu-rule read off
the column of w, by peeling first letters, one row u -> c_u c_{x^-1} at a time
(`algebra._Algebra`, shared with the full-group algebra).  Property W reads
t_s t_w (`lgen`) for the fully commutative w with s w weakly complex.

The algebras act on the left only: t_s t_w (`lgen`) is the one generator
action, and a right product t_w t_s is read off it through the word-reversal
anti-automorphism (`star_involution_coords`).  A table is memoized on the
algebra of one graph object, which the graph keeps (`for_graph`), when a
recursion reads its entries again (the generator action, the canonical
basis, q* columns, the current row of products); what is cheap to recompute
is not kept.  There is no process-global state, and the memos go with the
graph.  Elements compare by identity, so an algebra refuses an element of
another graph object (ValueError) where it takes one from a caller: on
entry, or on the memo miss that such an element always is.  The full-group
oracle (`hecke.HeckeAlgebra`) shares the engine of `algebra`: the generator
action, the bar involution, the length recursion and products.  Everything
is an immutable value from the caller's point of view.
"""

from __future__ import annotations

from typing import Callable

from .coxeter import (
    INFINITE,
    CoxeterGraph,
    GroupElement,
    decompose_fc_prefix,
    enumerate_elements,
    format_element,
)
from .algebra import Coords, InternalConsistencyError, _Algebra, _same_graph
from .laurent import ONE, V_MINUS_VINV, ZERO, LaurentPoly, acc, format_terms, lincomb


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


class TLAlgebra(_Algebra):
    """Memoized arithmetic on the fully commutative basis of one graph
    object; obtain via :meth:`for_graph`."""

    def __init__(self, graph: CoxeterGraph):
        super().__init__(graph)
        self._lgen: dict[tuple[int, GroupElement], Coords] = {}
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
        _same_graph(g, w)
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
        _same_graph(self.graph, w)
        if not w.is_fully_commutative():
            raise ValueError("basis elements are indexed by fully commutative elements")
        return {w: ONE}

    # -- canonical basis --------------------------------------------------------------

    def cbasis(self, w: GroupElement) -> Coords:
        """Canonical basis element attached to fully commutative w, as
        coefficients on the standard basis (triangular bar-solve)."""
        cached = self._cbasis.get(w)
        if cached is None:
            _same_graph(self.graph, w)
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
            _same_graph(self.graph, w)
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
        _same_graph(self.graph, y, w)
        if not (y.is_fully_commutative() and w.is_fully_commutative()):
            return 0
        return self.canonical(w).get(y, ZERO).coeff(-1)

    def m_tilde(self, x: GroupElement, y: GroupElement) -> int:
        return self.m_coeff(x, y) if x.length <= y.length else self.m_coeff(y, x)

    def c_mul(self, x: GroupElement, y: GroupElement) -> Coords:
        """The product of canonical basis elements in canonical coordinates,
        by the left action of the canonical generators (never leaves
        canonical coordinates; `_product`)."""
        return self._product(x, y)

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
        _same_graph(g, w)
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
        _same_graph(self.graph, x)
        return self.q_column(w).get(x, ZERO)


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
        _same_graph(self.graph, x, w)
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
    sum_z (-1)^len(z) p(z, w) q(y, z) = (-1)^len(w) [y = w], p(z, w) =
    v^(len(w) - len(z)) p*(z, w): Q P = I for Q(y, z) = (-1)^(len(y) +
    len(z)) q(y, z), which holds exactly when Q is the inverse of the
    unitriangular P.  Column w reads the q columns of the z in column w of
    p*, none after w, so the first failing column is the first where q* and
    the inverse of p* differ.  None if all pass.  Every polynomial, shifted
    by one global power of v to nonnegative exponents, is evaluated at X =
    2^bits (Kronecker substitution), each distinct q object once.  With N
    the largest p* column and A, B the largest l1-norms of a p* and a q
    entry, residual coefficients are at most N*A*B + 1 < X by default, so a
    zero evaluation is a zero residual: the lowest nonzero coefficient would
    have to be divisible by X."""
    # reads `_c` directly: it evaluates polynomials at X, it sums no products
    qs = {id(q): q._c for col in q_columns.values() for q in col.values()}  # distinct q
    oq = max(0, -min(map(min, qs.values()), default=0))
    op = max(0, max((max(len(z.word) - min(p._c) for z, p in col.items()) - len(w.word)
                     for w, col in p_columns.items()), default=0))
    if bits is None:
        ps = {id(p): p._c for col in p_columns.values() for p in col.values()}  # distinct p*
        n = max(map(len, p_columns.values()), default=0)
        a = max((sum(map(abs, c.values())) for c in ps.values()), default=0)
        b = max((sum(map(abs, c.values())) for c in qs.values()), default=0)
        bits = (n * a * b + 1).bit_length()
    # each distinct q at X once; column z's rows as positions and values
    at_x = {key: sum(x << bits * (e + oq) for e, x in c.items()) for key, c in qs.items()}
    pos = {w: i for i, w in enumerate(elements)}
    packed = {z: ([pos[y] for y in col], [at_x[id(q)] for q in col.values()])
              for z, col in q_columns.items()}
    one = 1 << bits * (op + oq)
    for i, w in enumerate(elements):
        lw = len(w.word)
        res = [0] * len(elements)
        res[i] = one if lw % 2 else -one
        for z, p in p_columns[w].items():
            lz = len(z.word)
            d = lw - lz + op
            pz = sum(x << bits * (e + d) for e, x in p._c.items())
            if lz % 2:
                pz = -pz
            js, xs = packed[z]
            for j, x in zip(js, xs):
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
    descent recursion (`q_column`), which never reads it.  The q columns must
    give the inverse of the p*-matrix, checked as Q P = I
    (`_first_unreconciled`); only a column that fails is inverted, to name
    the first y where the two q* differ.  The v^-1 coefficients of p* and q*
    must agree too."""
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
    the fully commutative basis and demand strictly negative exponents.  Each
    such x is s w for a fully commutative w of length < bound with s not in
    L(w) and s w not fully commutative, and t_x is then t_s t_w (`lgen`), so
    each such pair is checked, and x is built only where its check fails."""
    from .stars import PropertyReport

    alg = TLAlgebra.for_graph(graph)
    report = PropertyReport("W", graph, length_bound)
    report.failures = sorted({
        graph.lmul(s, w)
        for w in enumerate_elements(graph, max(length_bound - 1, 0), fc_only=True)
        for s in graph.generators()
        if s not in graph.left_descents(w) and graph.fc_lmul(s, w) is None
        and not all(c.in_vneg() for c in alg.lgen(s, w).values())})
    # an expansion in v^-1 Z[v^-1] lies in every descent sublattice L^s
    report.extra_lines.append("descent-sublattice check: PASS")
    return report
