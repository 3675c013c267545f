import itertools
import random

import pytest

from tlcox.coxeter import enumerate_elements, preset
from tlcox.laurent import ONE, ZERO, LaurentPoly, delta_power
from tlcox.tl import TLAlgebra, star_involution_coords
from tlcox.trace import (
    NonBipartiteGraph,
    PlanarDiagram,
    TraceEvaluator,
    TraceGapError,
    TraceTable,
    TraceTableError,
    builtin_trace,
    is_linear_bond3,
    load_trace_table,
    mu_from_trace,
    mu_report,
    verify_property_B,
)

V = LaurentPoly.v


def form(ev, a, b):
    """The bilinear form on standard coordinates: the trace of a times b
    reversed."""
    return ev.tau_of_t_coords(ev.algebra.t_mul(a, star_involution_coords(ev.graph, b)))


# -- diagrams ---------------------------------------------------------------------


def test_generator_diagram_shapes():
    e1 = PlanarDiagram.generator(1, 3)
    assert e1.pairing == (1, 0, 5, 4, 3, 2)
    e2 = PlanarDiagram.generator(2, 4)
    assert e2.pairing[1] == 2 and e2.pairing[5] == 6
    ident = PlanarDiagram.identity(3)
    assert ident.pairing == (3, 4, 5, 0, 1, 2)
    with pytest.raises(ValueError):
        PlanarDiagram.generator(3, 3)


def test_diagram_validation():
    with pytest.raises(ValueError):
        PlanarDiagram(2, (1, 0, 3, 2), loops=-1)
    with pytest.raises(ValueError):
        PlanarDiagram(2, (2, 3, 0, 0))
    with pytest.raises(ValueError):
        # crossing matching: north0-south1, north1-south0
        PlanarDiagram(2, (3, 2, 1, 0))
    with pytest.raises(ValueError):
        PlanarDiagram.identity(2) * PlanarDiagram.identity(3)


def test_diagram_relations():
    for k in range(2, 7):
        gens = {i: PlanarDiagram.generator(i, k) for i in range(1, k)}
        ident = PlanarDiagram.identity(k)
        for i in range(1, k):
            sq = gens[i] * gens[i]
            assert sq.loops == 1
            assert sq.pairing == gens[i].pairing
            assert (ident * gens[i]) == gens[i]
            assert (gens[i] * ident) == gens[i]
            for j in range(1, k):
                if abs(i - j) == 1:
                    prod = gens[i] * gens[j] * gens[i]
                    assert prod == gens[i]
                elif i != j:
                    assert gens[i] * gens[j] == gens[j] * gens[i]


def test_diagram_well_defined_on_commutation_classes():
    g = preset("A4")
    tr = builtin_trace(g)
    for w in enumerate_elements(g, 8, fc_only=True):
        base = None
        for u in g.reduced_words(w):
            d = PlanarDiagram.identity(5)
            for s in u:
                d = d * PlanarDiagram.generator(s + 1, 5)
            assert d.loops == 0
            if base is None:
                base = d
            else:
                assert d == base
        assert tr.diagram(w) == base


def test_closure_loops():
    assert PlanarDiagram.identity(4).closure_loops() == 4
    assert PlanarDiagram.generator(1, 2).closure_loops() == 1
    e1e3 = PlanarDiagram.generator(1, 4) * PlanarDiagram.generator(3, 4)
    assert e1e3.closure_loops() == 2


# -- the built-in trace --------------------------------------------------------------


def test_builtin_trace_requires_path_graph():
    assert is_linear_bond3(preset("A3"))
    assert not is_linear_bond3(preset("B3"))
    assert not is_linear_bond3(preset("D4"))
    with pytest.raises(ValueError):
        builtin_trace(preset("B3"))


def test_trace_identity_value():
    g = preset("A3")
    ev = TraceEvaluator(g, builtin_trace(g))
    assert ev.tau_t(g.identity) == V(-4) * delta_power(4)


def test_trace_of_commuting_products():
    # closing a cup-cap merges two closure loops into one
    for n in (2, 3, 4):
        g = preset(f"A{n}")
        tr = builtin_trace(g)
        for w in enumerate_elements(g, n, fc_only=True):
            word = w.word
            if len(set(word)) == len(word) and all(
                    g.m(a, b) == 2 for a, b in itertools.combinations(word, 2)):
                assert tr.tau_c(w) == V(-(n + 1)) * delta_power(n + 1 - len(word))


def test_worked_diagram_trace_value():
    # x = s2, y = s2 s1 s3 s2: the closed-up product diagram has 3 loops
    g = preset("A3")
    ev = TraceEvaluator(g, builtin_trace(g))
    x = g.element((1,))
    y = g.element((1, 0, 2, 1))
    val = ev.form_cc(x, y)
    assert val == V(-4) * delta_power(3)
    assert val.coeff(-1) == 1
    # same value through explicit diagram multiplication
    d = PlanarDiagram.identity(4)
    for i in (2, 2, 3, 1, 2):
        d = d * PlanarDiagram.generator(i, 4)
    assert d.loops + d.closure_loops() == 3


def test_trace_symmetry_and_star_invariance():
    for n in (2, 3, 4):
        g = preset(f"A{n}")
        alg = TLAlgebra.for_graph(g)
        ev = TraceEvaluator(g, builtin_trace(g))
        els = list(enumerate_elements(g, 5, fc_only=True))
        rng = random.Random(47)
        for _ in range(12):
            a = alg.basis(rng.choice(els))
            b = alg.basis(rng.choice(els))
            ab = ev.tau_of_t_coords(alg.t_mul(a, b))
            ba = ev.tau_of_t_coords(alg.t_mul(b, a))
            assert ab == ba
            assert ev.tau_of_t_coords(star_involution_coords(g, a)) == ev.tau_of_t_coords(a)


def test_bilinear_form_examples():
    g = preset("A3")
    ev = TraceEvaluator(g, builtin_trace(g))
    alg = ev.algebra
    x = alg.canonical(g.element((1,)))
    y = alg.canonical(g.element((1, 0, 2, 1)))
    assert form(ev, x, y) == V(-4) * delta_power(3)
    a2 = preset("A2")
    one = {a2.identity: ONE}
    val = form(TraceEvaluator(a2, builtin_trace(a2)), one, one)
    assert (val - ONE).in_vneg()
    # symmetry on random pairs
    els = list(enumerate_elements(g, 4, fc_only=True))
    rng = random.Random(53)
    for _ in range(10):
        a = alg.basis(rng.choice(els))
        b = alg.basis(rng.choice(els))
        assert form(ev, a, b) == form(ev, b, a)


def test_three_term_form_identity():
    # <t_s t_t x, t_s y> = <t_t x, t_t t_s y> - <x, t_s y> + <t_t x, y>
    # for noncommuting s, t and arbitrary x, y (a consequence of generator
    # self-adjointness and the quadratic relation alone)
    g = preset("A3")
    alg = TLAlgebra.for_graph(g)
    ev = TraceEvaluator(g, builtin_trace(g))
    els = list(enumerate_elements(g, 3, fc_only=True))
    for x0 in els:
        for y0 in els:
            x, y = alg.basis(x0), alg.basis(y0)
            for s, t in g.noncommuting_pairs():
                lhs = form(ev, alg.lmul(s, alg.lmul(t, x)), alg.lmul(s, y))
                rhs = (form(ev, alg.lmul(t, x), alg.lmul(t, alg.lmul(s, y)))
                       - form(ev, x, alg.lmul(s, y))
                       + form(ev, alg.lmul(t, x), y))
                assert lhs == rhs


def test_form_reads_off_lattice_coefficients():
    # for a in the nonpositive-exponent span, the coefficient of t_w (and of
    # c_w) agrees with the form value against t_w (and c_w) modulo depressed
    # terms
    g = preset("A3")
    alg = TLAlgebra.for_graph(g)
    ev = TraceEvaluator(g, builtin_trace(g))
    fc = list(enumerate_elements(g, 4, fc_only=True))
    rng = random.Random(67)
    for _ in range(15):
        coords = {}
        for w in rng.sample(fc, 3):
            coords[w] = LaurentPoly({-rng.randint(0, 2): rng.randint(-3, 3)})
        coords = {w: c for w, c in coords.items() if c}
        for w in fc:
            coeff_t = coords.get(w, ZERO)
            form_t = ev.tau_of_t_coords(
                alg.t_mul(coords, {g.inverse(w): ONE}))
            assert (coeff_t - form_t).in_vneg()
            ccoords = alg.to_c(coords)
            coeff_c = ccoords.get(w, ZERO)
            cw_rev = {g.inverse(y): c for y, c in alg.cbasis(w).items()}
            form_c = ev.tau_of_t_coords(alg.t_mul(coords, cw_rev))
            assert (coeff_c - form_c).in_vneg()


def test_canonical_basis_almost_orthonormal_under_trace():
    g = preset("A3")
    ev = TraceEvaluator(g, builtin_trace(g))
    fc = list(enumerate_elements(g, 6, fc_only=True))
    for x in fc:
        for y in fc:
            val = ev.form_cc(x, y)
            assert (val - (ONE if x == y else ZERO)).in_vneg()


def test_bar_invariant_unit_norm_elements_are_canonical():
    # random small integer combinations: unit norm modulo depressed terms
    # happens exactly on signed canonical basis elements
    g = preset("A2")
    alg = TLAlgebra.for_graph(g)
    ev = TraceEvaluator(g, builtin_trace(g))
    fc = list(enumerate_elements(g, 3, fc_only=True))
    rng = random.Random(59)
    for _ in range(60):
        coeffs = {w: rng.randint(-2, 2) for w in rng.sample(fc, rng.randint(1, 3))}
        coords = {}
        for w, n in coeffs.items():
            if n:
                for y, c in alg.cbasis(w).items():
                    coords[y] = coords.get(y, ZERO) + LaurentPoly.const(n) * c
        coords = {w: c for w, c in coords.items() if c}
        if not coords:
            continue
        assert alg.bar(coords) == coords
        norm = form(ev, coords, coords)
        unit = (norm - ONE).in_vneg()
        signed_basis = sorted(abs(n) for n in coeffs.values() if n) == [1]
        assert unit == signed_basis


# -- verification report -----------------------------------------------------------------


def test_verify_property_b_partial_bound():
    # products of generators with boundary-length elements step past the
    # bound; the form matrix must follow them
    report = verify_property_B(preset("A3"), 2, builtin_trace(preset("A3")))
    assert report.holds
    report = verify_property_B(preset("A4"), 3, builtin_trace(preset("A4")))
    assert report.holds


@pytest.mark.parametrize("name,bound", [("A2", 3), ("A3", 6)])
def test_verify_property_b_builtin(name, bound):
    report = verify_property_B(preset(name), bound, builtin_trace(preset(name)))
    assert report.holds
    text = report.render()
    assert "adjointness: PASS" in text
    assert "almost-orthonormality: PASS" in text
    assert "homogeneity: PASS" in text
    assert "positivity: PASS" in text
    assert "sharpened-orthonormality: PASS" in text
    assert text.rstrip().endswith("HOLDS")


def test_verify_property_b_corrupted_table():
    g = preset("A2")
    tr = builtin_trace(g)
    values = {w: tr.tau_c(w) for w in enumerate_elements(g, 3, fc_only=True)}
    values[g.element((0, 1))] = ONE  # corrupt one entry
    table = TraceTable(g, values, label="corrupt")
    report = verify_property_B(g, 3, table)
    assert not report.holds
    assert report.witness is not None
    assert "FAILS witness=" in report.render()


def test_trace_table_round_trip_and_errors():
    g = preset("A2")
    text = "e : v^-3 + 3v^-1\n1 : v^-2\n# comment\n1 2 : 1\n"
    table = load_trace_table(g, text)
    assert table.tau_c(g.identity) == LaurentPoly({-3: 1, -1: 3})
    assert table.tau_c(g.element((0, 1))) == ONE
    with pytest.raises(TraceGapError):
        table.tau_c(g.element((1, 0)))
    with pytest.raises(TraceTableError):
        load_trace_table(g, "e : v^-1\ne : v^-2")
    with pytest.raises(TraceTableError):
        load_trace_table(g, "1 2 1 : v")  # not fully commutative
    with pytest.raises(TraceTableError):
        load_trace_table(g, "1 ; v")


def test_trace_table_homogenization():
    g = preset("A2")
    # the value at w keeps only the exponents of the parity of len(w)
    values = {g.identity: delta_power(2) + V(1), g.element((0,)): V(-2) + V(-1)}
    table = TraceTable(g, values)
    assert not table.is_homogeneous()
    fixed = table.homogenized()
    assert fixed.is_homogeneous()
    assert fixed.tau_c(g.identity) == delta_power(2)
    assert fixed.tau_c(g.element((0,))) == V(-1)


def test_builtin_table_as_user_table_verifies():
    g = preset("A2")
    tr = builtin_trace(g)
    lines = [f"{w.format()} : {tr.tau_c(w).format()}"
             for w in enumerate_elements(g, 3, fc_only=True)]
    table = load_trace_table(g, "\n".join(lines))
    report = verify_property_B(g, 3, table)
    assert report.holds


# -- coefficient extraction ----------------------------------------------------------------


def test_mu_from_trace_examples():
    g = preset("A3")
    src = builtin_trace(g)
    assert mu_from_trace(g.element((1,)), g.element((1, 0, 2, 1)), src) == 1
    w = g.element((0, 1))
    assert mu_from_trace(w, w, src) == 0
    a2 = preset("A2")
    assert mu_from_trace(a2.identity, a2.element((0,)), builtin_trace(a2)) == 1


def test_mu_from_trace_refuses_non_bipartite():
    tri = preset("~A2")
    table = TraceTable(tri, {tri.identity: delta_power(3)})
    with pytest.raises(NonBipartiteGraph):
        mu_from_trace(tri.identity, tri.identity, table)


def test_mu_from_trace_matches_oracle_and_tl():
    from tlcox.hecke import HeckeAlgebra
    from tlcox.tl import TLAlgebra as TL

    for n, bound in [(2, 3), (3, 6)]:
        g = preset(f"A{n}")
        src = builtin_trace(g)
        oracle = HeckeAlgebra.for_graph(g)
        tl = TL.for_graph(g)
        fc = list(enumerate_elements(g, bound, fc_only=True))
        for x in fc:
            for y in fc:
                got = mu_from_trace(x, y, src)
                assert got == oracle.mu_tilde(x, y)
                assert got == tl.m_tilde(x, y)
                assert got >= 0


def test_mu_report_outputs():
    g = preset("A2")
    rep = mu_report(g, 3, ("m", "oracle", "trace"))
    assert rep.all_agree()
    text = rep.dump_tsv()
    assert text.splitlines()[0] == "x\ty\tmu_trace\tmu_oracle\tM_tl\tagree"
    row = [ln for ln in text.splitlines() if ln.startswith("e\t1\t")][0]
    assert row == "e\t1\t1\t1\t1\ttrue"
    rep2 = mu_report(g, 3, ("m",))
    assert "-" in rep2.dump_tsv()


# -- the form by associativity against the full-product route ----------------------------


def tt_prod_gram(ev, xs, ys):
    """G(x, y) = trace(t_x t_{y^-1}) from the full product: the route the form
    took before the associativity recursion.  t_x t_z is memoized on x for
    one z = y^-1 at a time and built by peeling the first letter of x; the
    trace is summed term by term."""
    g, alg = ev.graph, ev.algebra
    gram = {}
    for y in ys:
        z = g.inverse(y)
        memo = {}

        def tt_prod(x):
            cached = memo.get(x)
            if cached is None:
                if not x.word:
                    cached = alg.basis(z)
                else:
                    cached = alg.lmul(x.word[0], tt_prod(g.element(x.word[1:])))
                memo[x] = cached
            return cached

        for x in xs:
            gram[(x, y)] = sum((c * ev.tau_t(w) for w, c in tt_prod(x).items()), ZERO)
    return gram


def extended_support(g, bound):
    """The fully commutative elements up to the bound and their generator
    images, over which the form used to be tabulated."""
    alg = TLAlgebra.for_graph(g)
    fc = list(enumerate_elements(g, bound, fc_only=True))
    return sorted(set(fc).union(*(alg.lgen(s, x) for s in g.generators() for x in fc)))


def assert_form_matches_tt_prod(g, bound, source):
    ext = extended_support(g, bound)
    expected = tt_prod_gram(TraceEvaluator(g, source), ext, ext)
    ev = TraceEvaluator(g, source)
    for (x, y), want in expected.items():
        assert ev.form_tt(x, y) == want, (x, y)


@pytest.mark.parametrize("name,bound", [
    ("A2", 3), ("A3", 6), ("A4", 10), ("A5", 15), ("A4", 3),
])
def test_form_tt_matches_tt_prod_route(name, bound):
    g = preset(name)
    assert_form_matches_tt_prod(g, bound, builtin_trace(g))


def test_form_tt_matches_tt_prod_route_on_a_user_table():
    # the recursion uses associativity only, so it holds for any linear
    # functional, trace or not
    g = preset("D4")
    rng = random.Random(71)
    values = {}
    for w in enumerate_elements(g, 20, fc_only=True):
        top = w.length % 2
        values[w] = LaurentPoly({top - 2 * k: rng.randint(-3, 3) for k in range(4)})
    table = TraceTable(g, values, label="random")
    assert table.is_homogeneous()
    assert_form_matches_tt_prod(g, 12, table)


# the reports the tt_prod route gave on these tables
CORRUPTED_REPORTS = {
    # the value at s1 s2 replaced by 1: the form is no longer symmetric
    ("A2", 3, (0, 1)): "# property=B graph=A2 bound=3 trace=corrupt\n"
                       "adjointness: FAIL\nalmost-orthonormality: FAIL\n"
                       "homogeneity: PASS\npositivity: PASS\n"
                       "sharpened-orthonormality: FAIL\nFAILS witness=(e, 2)\n",
    # v^-6 added to the value at the involution s2 s1 s3 s2: the form stays
    # symmetric, but it is not a trace
    ("A3", 6, (1, 0, 2, 1)): "# property=B graph=A3 bound=6 trace=corrupt\n"
                             "adjointness: FAIL\nalmost-orthonormality: PASS\n"
                             "homogeneity: PASS\npositivity: PASS\n"
                             "sharpened-orthonormality: PASS\nFAILS witness=(e, 1 3 2)\n",
}


@pytest.mark.parametrize("name,bound,word", sorted(CORRUPTED_REPORTS))
def test_corrupted_table_report_and_form_match_tt_prod_route(name, bound, word):
    g = preset(name)
    tr = builtin_trace(g)
    values = {w: tr.tau_c(w) for w in enumerate_elements(g, bound, fc_only=True)}
    w = g.element(word)
    values[w] = ONE if name == "A2" else values[w] + V(-6)
    table = TraceTable(g, values, label="corrupt")
    assert verify_property_B(g, bound, table).render() == CORRUPTED_REPORTS[(name, bound, word)]
    assert_form_matches_tt_prod(g, bound, table)


def full_adjointness_witness(g, bound, source):
    """The first (x, y), generator by generator, at which the two adjointness
    sums differ, each sum taken in full on the tt_prod route's form."""
    alg = TLAlgebra.for_graph(g)
    fc = list(enumerate_elements(g, bound, fc_only=True))
    ext = extended_support(g, bound)
    gram = tt_prod_gram(TraceEvaluator(g, source), ext, ext)
    for s in g.generators():
        for x in fc:
            for y in fc:
                lhs = sum((c * gram[(u, y)] for u, c in alg.lgen(s, x).items()), ZERO)
                rhs = sum((c * gram[(x, u)] for u, c in alg.lgen(s, y).items()), ZERO)
                if lhs != rhs:
                    return (x, y)
    return None


@pytest.mark.parametrize("bound", [1, 2, 6])
def test_adjointness_verdict_and_witness_match_the_full_check(bound):
    # one value bumped, at w alone (the form loses its symmetry when w is not
    # an involution) or at w and its inverse (it keeps it)
    g = preset("A3")
    tr = builtin_trace(g)
    fc = list(enumerate_elements(g, 6, fc_only=True))
    for w in fc:
        for pair in (False, True):
            values = {u: tr.tau_c(u) for u in fc}
            for u in {w, g.inverse(w)} if pair else {w}:
                values[u] = values[u] + V(-u.length - 2)
            table = TraceTable(g, values, label="bumped")
            witness = full_adjointness_witness(g, bound, table)
            report = verify_property_B(g, bound, table)
            assert report.lines[0] == f"adjointness: {'FAIL' if witness else 'PASS'}"
            if witness:
                assert report.witness == witness, (w, pair)


@pytest.mark.parametrize("name,bound", [
    ("A3", 1), ("A3", 2), ("A3", 3), ("A4", 1), ("A4", 2), ("A4", 3),
])
def test_adjointness_past_the_bound_matches_the_full_check(name, bound):
    # values bumped above the bound, which reach the adjointness sums only
    # through products: the verdict and the witness stay those of the pair
    # scan, whether the bump breaks the generator trace identity or not
    g = preset(name)
    tr = builtin_trace(g)
    fc = list(enumerate_elements(g, 2 * bound + 2, fc_only=True))
    verdicts = set()
    for w in fc:
        if w.length <= bound:
            continue
        for pair in (False, True):
            values = {u: tr.tau_c(u) for u in fc}
            for u in {w, g.inverse(w)} if pair else {w}:
                values[u] = values[u] + V(-u.length - 2)
            table = TraceTable(g, values, label="bumped")
            witness = full_adjointness_witness(g, bound, table)
            report = verify_property_B(g, bound, table)
            assert report.lines[0] == f"adjointness: {'FAIL' if witness else 'PASS'}", (w, pair)
            if witness:
                assert report.witness == witness, (w, pair)
            verdicts.add(witness is None)
    assert False in verdicts


class SpySource:
    """A trace source that records every element whose value is read."""

    def __init__(self, inner):
        self.inner = inner
        self.read = set()

    def describe(self):
        return self.inner.describe()

    def tau_c(self, w):
        self.read.add(w)
        return self.inner.tau_c(w)


@pytest.mark.parametrize("name,bound,count", [
    ("A4", 2, 42), ("A4", 3, 42), ("A5", 2, 118), ("A5", 4, 132),
])
def test_verify_b_reads_the_trace_values_of_the_tt_prod_route(name, bound, count):
    # a table with gaps must fail (TraceGapError, exit 2) exactly when it did
    g = preset(name)
    old = SpySource(builtin_trace(g))
    ext = extended_support(g, bound)
    tt_prod_gram(TraceEvaluator(g, old), ext, ext)
    old.read.update(enumerate_elements(g, bound, fc_only=True))  # homogeneity, positivity
    new = SpySource(builtin_trace(g))
    assert verify_property_B(g, bound, new).holds
    assert new.read == old.read
    assert len(new.read) == count


def test_verify_b_refuses_a_gap_up_to_twice_the_bound_plus_two():
    g = preset("A3")
    tr = builtin_trace(g)
    fc = list(enumerate_elements(g, 6, fc_only=True))
    for gap in fc:
        table = TraceTable(g, {w: tr.tau_c(w) for w in fc if w != gap})
        if gap.length <= 2:
            with pytest.raises(TraceGapError):
                verify_property_B(g, 0, table)
        else:
            assert verify_property_B(g, 0, table).holds
