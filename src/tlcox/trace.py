"""Jones-type traces: the built-in planar-diagram trace for the linear
bond-3 path graphs, user-supplied trace tables for everything else, the
bilinear form they induce, its verification report, and the nonrecursive
extraction of the top-degree coefficients from the v^-1 term of the form.

Every trace source is valid when built (see `TraceTable` and `BuiltinTrace`),
so no consumer checks one again; `_require_2_colorable` is the one check of
the graph that the v^-1 extraction adds.

A diagram on k strands is a crossingless perfect matching of k north and k
south boundary points plus a count of closed loops absorbed so far.
Stacking two diagrams traces every path through the glued middle boundary
and counts the cycles that close up there.  The trace of a canonical basis
element is read off from the loop count of the right-closure of its diagram,
scaled by v^-k; extended linearly this is the built-in trace, and it is
homogeneous and positive.
"""

from __future__ import annotations

from typing import NamedTuple

from .algebra import Coords, _same_graph
from .coxeter import CoxeterGraph, GroupElement, enumerate_elements, format_element, parse_element
from .laurent import ONE, LaurentPoly, delta_power, lincomb, parse_poly
from .tl import TLAlgebra, star_involution_coords


class TraceTableError(ValueError):
    """A trace source that cannot be built: malformed table text, or a graph
    outside the built-in trace's path family."""

    exit_code = 2


class TraceGapError(KeyError):
    """A trace value was requested outside the table's coverage."""

    exit_code = 2


class NonBipartiteGraph(ValueError):
    """The v^-1 extraction needs a 2-colorable graph."""

    exit_code = 2


# -- planar diagrams ---------------------------------------------------------------


class PlanarDiagram:
    """Crossingless perfect matching on 2k boundary points with a loop count.

    Points 0..k-1 are the north boundary west to east, points k..2k-1 the
    south boundary west to east; `pairing[i]` is the partner of point i.
    """

    __slots__ = ("strands", "pairing", "loops")

    def __init__(self, strands: int, pairing: tuple[int, ...], loops: int = 0):
        k = strands
        if len(pairing) != 2 * k:
            raise ValueError("pairing must cover 2k points")
        for i, j in enumerate(pairing):
            if j == i or not 0 <= j < 2 * k or pairing[j] != i:
                raise ValueError("pairing must be a fixed-point-free involution")
        if loops < 0:
            raise ValueError("loop count must be nonnegative")
        # crossingless on the boundary circle: north west->east, then south
        # east->west must form a balanced bracket sequence
        circle = list(range(k)) + list(range(2 * k - 1, k - 1, -1))
        pos = {p: i for i, p in enumerate(circle)}
        stack: list[int] = []
        for p in circle:
            q = pairing[p]
            if pos[q] > pos[p]:
                stack.append(p)
            elif not stack or stack.pop() != q:
                raise ValueError("pairing has crossings")
        self.strands = k
        self.pairing = tuple(pairing)
        self.loops = loops

    @classmethod
    def identity(cls, strands: int) -> "PlanarDiagram":
        k = strands
        return cls(k, tuple(list(range(k, 2 * k)) + list(range(k))))

    @classmethod
    def generator(cls, i: int, strands: int) -> "PlanarDiagram":
        """The cup-cap diagram joining north i,i+1 and south i,i+1 (1-based i)."""
        k = strands
        if not 1 <= i <= k - 1:
            raise ValueError(f"generator index {i} out of range for {k} strands")
        pairing = list(range(k, 2 * k)) + list(range(k))
        a, b = i - 1, i
        pairing[a], pairing[b] = b, a
        pairing[k + a], pairing[k + b] = k + b, k + a
        return cls(k, tuple(pairing))

    def __mul__(self, other: "PlanarDiagram") -> "PlanarDiagram":
        """Stack self on top of other (self's south glued to other's north)."""
        if self.strands != other.strands:
            raise ValueError("strand counts differ")
        k = self.strands
        up, lo = self.pairing, other.pairing
        # result points: 0..k-1 = self's north, k..2k-1 = other's south
        result = [-1] * (2 * k)
        visited_mid = [False] * k  # middle points, indexed by glue position
        for start in range(2 * k):
            if result[start] != -1:
                continue
            if start < k:
                side, p = 0, start          # in upper diagram
            else:
                side, p = 1, start          # in lower diagram, lower index
            while True:
                if side == 0:
                    q = up[p]
                    if q < k:
                        end = q
                        break
                    visited_mid[q - k] = True
                    side, p = 1, q - k      # cross into the lower diagram
                else:
                    q = lo[p]
                    if q >= k:
                        end = q
                        break
                    visited_mid[q] = True
                    side, p = 0, q + k      # cross back into the upper diagram
            result[start] = end
            result[end] = start
        # cycles trapped in the glued middle boundary become loops
        new_loops = 0
        for i in range(k):
            if visited_mid[i]:
                continue
            p = i
            while not visited_mid[p]:
                visited_mid[p] = True
                q = up[p + k] - k       # arc through the upper diagram
                visited_mid[q] = True
                p = lo[q]               # arc through the lower diagram
            new_loops += 1
        return PlanarDiagram(k, tuple(result), self.loops + other.loops + new_loops)

    def closure_loops(self) -> int:
        """Number of closed loops after joining north i to south i for all i."""
        k = self.strands
        seen = [False] * (2 * k)
        loops = 0
        for start in range(2 * k):
            if seen[start]:
                continue
            p = start
            while not seen[p]:
                seen[p] = True
                q = self.pairing[p]
                seen[q] = True
                p = q + k if q < k else q - k  # closure arc
            loops += 1
        return loops

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PlanarDiagram):
            return NotImplemented
        return (self.strands, self.pairing, self.loops) == (
            other.strands, other.pairing, other.loops)

    def __hash__(self) -> int:
        return hash((self.strands, self.pairing, self.loops))

    def __repr__(self) -> str:
        return f"PlanarDiagram({self.strands}, {self.pairing}, loops={self.loops})"


# -- trace sources ----------------------------------------------------------------


def is_linear_bond3(graph: CoxeterGraph) -> bool:
    """True for the consecutively numbered simply laced path graphs, the type
    the diagram calculus is built in for."""
    n = graph.rank
    for i in range(n):
        for j in range(i + 1, n):
            expected = 3 if j == i + 1 else 2
            if graph.m(i, j) != expected:
                return False
    return True


class BuiltinTrace:
    """The diagram trace on a linear bond-3 path graph of rank n (any other
    graph is refused): the value on a canonical basis element is v^-(n+1)
    times the loop element raised to the closure loop count of its diagram."""

    def __init__(self, graph: CoxeterGraph):
        if not is_linear_bond3(graph):
            raise TraceTableError(
                "the built-in trace covers consecutively numbered simply laced "
                "path graphs only; supply --trace FILE for this graph")
        self.graph = graph
        self.strands = graph.rank + 1
        self._tau_c: dict[GroupElement, LaurentPoly] = {}

    def describe(self) -> str:
        return "builtin-diagram"

    def diagram(self, w: GroupElement) -> PlanarDiagram:
        """The diagram of a fully commutative element (well defined: all its
        reduced words are linked by commutations)."""
        if not w.is_fully_commutative():
            raise ValueError("diagrams are attached to fully commutative elements")
        out = PlanarDiagram.identity(self.strands)
        for s in w.word:
            out = out * PlanarDiagram.generator(s + 1, self.strands)
        assert out.loops == 0  # reduced words never close a loop
        return out

    def tau_c(self, w: GroupElement) -> LaurentPoly:
        cached = self._tau_c.get(w)
        if cached is None:
            loops = self.diagram(w).closure_loops()
            cached = LaurentPoly.v(-self.strands) * delta_power(loops)
            self._tau_c[w] = cached
        return cached


class TraceTable:
    """User-supplied trace values on canonical basis elements, homogeneous by
    construction: each value is projected to the length parity of its element
    (the q-compatible repair), and when that changes a value the label gets
    `+homogenized`."""

    def __init__(self, graph: CoxeterGraph, values: dict[GroupElement, LaurentPoly],
                 label: str = "table"):
        if not all(c.has_parity(w.length) for w, c in values.items()):
            values = {w: c.homogenize(w.length) for w, c in values.items()}
            label += "+homogenized"
        self.graph = graph
        self.values = values
        self.label = label

    def describe(self) -> str:
        return self.label

    def tau_c(self, w: GroupElement) -> LaurentPoly:
        value = self.values.get(w)
        if value is None:
            # an element of another graph object matches no key, even an equal one
            _same_graph(self.graph, w)
            raise TraceGapError(f"trace table has no value at {format_element(w)}")
        return value


def load_trace_table(graph: CoxeterGraph, text: str, label: str = "table") -> TraceTable:
    """Parse lines `<element word or 'e'> : <polynomial>`; `#` comments."""
    values: dict[GroupElement, LaurentPoly] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if ":" not in line:
            raise TraceTableError(f"line {lineno}: missing ':'")
        left, right = line.split(":", 1)
        try:
            w = parse_element(graph, left)
        except ValueError as exc:
            raise TraceTableError(f"line {lineno}: {exc}") from None
        if not w.is_fully_commutative():
            raise TraceTableError(
                f"line {lineno}: {format_element(w)} is not fully commutative")
        if w in values:
            raise TraceTableError(f"line {lineno}: duplicate key {format_element(w)}")
        try:
            values[w] = parse_poly(right)
        except ValueError as exc:
            raise TraceTableError(f"line {lineno}: {exc}") from None
    return TraceTable(graph, values, label=label)


def builtin_trace(graph: CoxeterGraph) -> BuiltinTrace:
    return BuiltinTrace(graph)


# -- evaluation --------------------------------------------------------------------


class TraceEvaluator:
    """Linear extension of a trace source to arbitrary algebra elements, with
    memoized values on both bases and of the form on the standard basis."""

    def __init__(self, graph: CoxeterGraph, source):
        self.graph = graph
        self.source = source
        self.algebra = TLAlgebra.for_graph(graph)
        self._tau_t: dict[GroupElement, LaurentPoly] = {}
        self._form: dict[tuple[GroupElement, GroupElement], LaurentPoly] = {}

    def tau_c(self, w: GroupElement) -> LaurentPoly:
        return self.source.tau_c(w)

    def tau_t(self, w: GroupElement) -> LaurentPoly:
        """Trace of the standard basis element, peeled off the triangular
        canonical expansion."""
        cached = self._tau_t.get(w)
        if cached is None:
            cached = self.source.tau_c(w) - lincomb(
                (c, self.tau_t(y)) for y, c in self.algebra.canonical(w).items() if y != w)
            self._tau_t[w] = cached
        return cached

    def tau_of_t_coords(self, coords: Coords) -> LaurentPoly:
        return lincomb((c, self.tau_t(w)) for w, c in coords.items())

    def form_tt(self, x: GroupElement, y: GroupElement) -> LaurentPoly:
        """The form on standard basis elements, G(x, y) = trace of t_x t_{y^-1},
        read as H(x, y^-1) (`_form_h`)."""
        return self._form_h(x, self.graph.inverse(y))

    def _form_h(self, x: GroupElement, z: GroupElement) -> LaurentPoly:
        """H(x, z) = trace of t_x t_z by associativity and the left action
        alone: with r the last letter of x, t_x = t_{xr} t_r, so

            H(x, z) = sum_u (t_r t_z)[u] H(xr, u),   H(e, z) = trace(t_z).

        The recursion runs over the prefixes of x.  Memoized on (x, z) for the
        life of this evaluator."""
        key = (x, z)
        cached = self._form.get(key)
        if cached is None:
            if not x.word:
                cached = self.tau_t(z)
            else:
                r = x.word[-1]
                xr = self.graph.element(x.word[:-1])
                cached = lincomb((c, self._form_h(xr, u))
                                 for u, c in self.algebra.lgen(r, z).items())
            self._form[key] = cached
        return cached

    def form_cc(self, x: GroupElement, y: GroupElement) -> LaurentPoly:
        """The form on canonical basis elements: trace of c_x c_{y^-1}."""
        prod = self.algebra.c_mul(x, self.graph.inverse(y))
        return lincomb((c, self.tau_c(z)) for z, c in prod.items())


# -- verification ------------------------------------------------------------------


class TraceReport:
    """Outcome of the bilinear-form verification.  The verdict is decided by
    the two defining checks (adjointness and almost-orthonormality);
    homogeneity, positivity and the sharpened bound are reported alongside."""

    def __init__(self, graph: CoxeterGraph, bound: int, source_label: str):
        self.graph = graph
        self.bound = bound
        self.source_label = source_label
        self.lines: list[str] = []
        self.witness: tuple[GroupElement, ...] | None = None
        self.holds = True

    def render(self) -> str:
        out = [f"# property=B graph={self.graph.describe()} bound={self.bound} "
               f"trace={self.source_label}"]
        out.extend(self.lines)
        if self.holds:
            out.append("HOLDS")
        else:
            pair = ", ".join(format_element(w) for w in self.witness or ())
            out.append(f"FAILS witness=({pair})")
        return "\n".join(out) + "\n"


def verify_property_B(graph: CoxeterGraph, bound: int, source) -> TraceReport:
    """Check the defining properties of the form induced by a trace source on
    all fully commutative elements of length <= bound.

    Adjointness is decided by the generator trace identity
    trace(t_s t_u) = trace(t_u t_s) on every u of length <= 2 * bound; only
    when that fails are the pairs scanned, to name the first failing pair as
    the witness.  Almost-orthonormality reads the form on every pair."""
    ev = TraceEvaluator(graph, source)
    alg = ev.algebra
    form = ev.form_tt
    report = TraceReport(graph, bound, source.describe())
    fc = list(enumerate_elements(graph, bound, fc_only=True))
    # generator products step one length past the bound, and the form on that
    # extended support spans the products of its elements: the source must
    # cover every fully commutative element up to length 2 * bound + 2 (a gap
    # raises TraceGapError here, before any check; of several, the shortest)
    covered = list(enumerate_elements(graph, 2 * bound + 2, fc_only=True))
    for w in covered:
        ev.tau_c(w)

    # adjointness of every generator in both arguments on every pair,
    # sum_u (t_s t_x)[u] G(u, y) = sum_u (t_s t_y)[u] G(x, u).  The two sides
    # are trace(t_s A) and trace(A t_s) for A = t_x t_{y^-1}, which lies on
    # lengths <= 2 * bound, so every pair passes when trace(t_s t_u) =
    # trace(t_u t_s) for every s and every such u.  Each such u is t_x t_{y^-1}
    # for its two halves, so otherwise some pair fails: scan for the first
    tau = ev.tau_of_t_coords
    trace_identity = all(
        tau(alg.lgen(s, u)) == tau(star_involution_coords(graph, alg.lgen(s, graph.inverse(u))))
        for u in covered if u.length <= 2 * bound for s in graph.generators())

    def lhs(s: int, x: GroupElement, y: GroupElement) -> LaurentPoly:
        return lincomb((c, form(u, y)) for u, c in alg.lgen(s, x).items())

    def rhs(s: int, x: GroupElement, y: GroupElement) -> LaurentPoly:
        return lincomb((c, form(x, u)) for u, c in alg.lgen(s, y).items())

    adj_witness = None if trace_identity else next(
        ((x, y) for s in graph.generators() for x in fc for y in fc
         if lhs(s, x, y) != rhs(s, x, y)), None)
    report.lines.append(f"adjointness: {'FAIL' if adj_witness else 'PASS'}")

    ortho_witness = None
    sharp_ok = True
    for x in fc:
        for y in fc:
            val = form(x, y)
            if x == y:
                ok = (val - ONE).in_vneg()
            else:
                ok = val.in_vneg()
                sharp_ok = sharp_ok and all(e < -1 for e, _ in val.items())
            if not ok and ortho_witness is None:
                ortho_witness = (x, y)
    report.lines.append(f"almost-orthonormality: {'FAIL' if ortho_witness else 'PASS'}")

    homog_ok = all(ev.tau_c(w).has_parity(w.length) for w in fc)
    report.lines.append(f"homogeneity: {'PASS' if homog_ok else 'FAIL'}")

    positive_ok = all(ev.tau_c(w).has_nonneg_coeffs() for w in fc)
    report.lines.append(f"positivity: {'PASS' if positive_ok else 'FAIL'}")

    report.lines.append(f"sharpened-orthonormality: {'PASS' if sharp_ok else 'FAIL'}")

    if adj_witness or ortho_witness:
        report.holds = False
        report.witness = adj_witness or ortho_witness
    return report


# -- the nonrecursive coefficient extraction ---------------------------------------------


class Coloring(NamedTuple):
    """A proper 2-coloring of the underlying graph (adjacent = noncommuting)."""

    eps: tuple[int, ...]


def bipartite_coloring(graph: CoxeterGraph) -> Coloring | None:
    """BFS 2-coloring, color 0 at the lowest-index node of each component;
    None when some cycle is odd."""
    eps: list[int | None] = [None] * graph.rank
    for root in graph.generators():
        if eps[root] is not None:
            continue
        eps[root] = 0
        queue = [root]
        while queue:
            a = queue.pop(0)
            for b in graph.generators():
                if a == b or graph.m(a, b) < 3:
                    continue
                if eps[b] is None:
                    eps[b] = 1 - eps[a]
                    queue.append(b)
                elif eps[b] == eps[a]:
                    return None
    return Coloring(tuple(eps))  # type: ignore[arg-type]


def _require_2_colorable(graph: CoxeterGraph) -> None:
    """Refuse a graph without a 2-coloring, which the v^-1 extraction needs."""
    if bipartite_coloring(graph) is None:
        raise NonBipartiteGraph("the v^-1 extraction is only valid over 2-colorable graphs")


def mu_from_trace(x: GroupElement, y: GroupElement, source) -> int:
    """The v^-1 coefficient of the form on canonical basis elements; needs a
    2-colorable graph."""
    graph = x.graph
    _require_2_colorable(graph)
    if not (x.is_fully_commutative() and y.is_fully_commutative()):
        raise ValueError("both elements must be fully commutative")
    return TraceEvaluator(graph, source).form_cc(x, y).coeff(-1)


class MuReport:
    """Cross-method table of the top-degree coefficients on fully commutative
    pairs."""

    def __init__(self, graph: CoxeterGraph, bound: int, methods: tuple[str, ...],
                 rows: list[tuple[GroupElement, GroupElement, dict[str, int]]]):
        self.graph = graph
        self.bound = bound
        self.methods = methods
        self.rows = rows

    def all_agree(self) -> bool:
        return all(len(set(vals.values())) <= 1 for _, _, vals in self.rows)

    def dump_tsv(self) -> str:
        lines = ["x\ty\tmu_trace\tmu_oracle\tM_tl\tagree"]
        for x, y, vals in self.rows:
            cells = [
                str(vals["trace"]) if "trace" in vals else "-",
                str(vals["oracle"]) if "oracle" in vals else "-",
                str(vals["m"]) if "m" in vals else "-",
            ]
            agree = len(set(vals.values())) <= 1
            lines.append(f"{format_element(x)}\t{format_element(y)}\t"
                         + "\t".join(cells) + f"\t{str(agree).lower()}")
        return "\n".join(lines) + "\n"


def mu_report(graph: CoxeterGraph, bound: int, methods: tuple[str, ...],
              source=None) -> MuReport:
    """Tabulate the symmetrized coefficients by the requested methods on all
    fully commutative pairs of length <= bound."""
    from .hecke import HeckeAlgebra

    fc = list(enumerate_elements(graph, bound, fc_only=True))
    tl = TLAlgebra.for_graph(graph)
    oracle = HeckeAlgebra.for_graph(graph) if "oracle" in methods else None
    ev = None
    if "trace" in methods:
        if source is None:
            source = builtin_trace(graph)
        _require_2_colorable(graph)
        ev = TraceEvaluator(graph, source)
    rows = []
    for i, x in enumerate(fc):
        for y in fc[i:]:
            vals: dict[str, int] = {}
            if "m" in methods:
                vals["m"] = tl.m_tilde(x, y)
            if oracle is not None:
                vals["oracle"] = oracle.mu_tilde(x, y)
            if ev is not None:
                vals["trace"] = ev.form_cc(x, y).coeff(-1)
            rows.append((x, y, vals))
    return MuReport(graph, bound, methods, rows)
