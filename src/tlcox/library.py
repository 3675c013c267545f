"""What the package offers beyond the commands: all reduced words, products
of elements, Bruhat order, the factorization across a rank-2 parabolic and
the dihedral canonical basis.  No command runs them, so they live apart
from the modules the commands load; the tests read them as routes
independent of the engine.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .algebra import Coords
from .coxeter import INFINITE, CoxeterGraph, GroupElement
from .laurent import V_INV, LaurentPoly, acc
from .tl import TLAlgebra

# -- group elements -------------------------------------------------------------------


def normal_form(graph: CoxeterGraph, word: Iterable[int]) -> GroupElement:
    """Canonical element of an arbitrary word in the generators."""
    return graph.element(word)


def reduced_words(w: GroupElement) -> frozenset[tuple[int, ...]]:
    """All reduced words for w: s.u for every left descent s of w and every
    reduced word u of s*w.  Not memoized; there are exponentially many."""
    if not w.word:
        return frozenset({()})
    g = w.graph
    return frozenset((s,) + u for s in g.left_descents(w) for u in reduced_words(g.lmul(s, w)))


def mul(a: GroupElement, b: GroupElement) -> GroupElement:
    """The product a*b, by the letters of a acting on b, last letter first."""
    g = a.graph
    out = b
    for s in reversed(a.word):
        out = g.lmul(s, out)
    return out


def bruhat_leq(x: GroupElement, w: GroupElement) -> bool:
    """Bruhat order, decided by the lifting property one letter of w at a
    time: for a left descent s of w, x <= w iff sx <= sw when sx < x, and
    x <= sw otherwise.  Each step takes one branch, so this is at most
    len(w) lookups of neighbour records; equivalent to the subword
    characterization."""
    g = w.graph
    if x.graph is not g and x.graph != g:
        raise ValueError("elements from different graphs")
    while len(x.word) <= len(w.word):
        if x.word == w.word or not x.word:
            return True
        s = w.word[0]
        if s in g.left_descents(x):
            x = g.lmul(s, x)
        w = g.lmul(s, w)
    return False


class CosetDecomposition(NamedTuple):
    """Factorization of w across a rank-2 parabolic: w = part_I * rest (left)
    or rest * part_I (right), with additive lengths; rest has no descent in I
    on the relevant side."""

    part_I: GroupElement
    rest: GroupElement
    side: str
    pair: tuple[int, int]

    def recombine(self) -> GroupElement:
        if self.side == "left":
            return mul(self.part_I, self.rest)
        return mul(self.rest, self.part_I)

    def case(self) -> int:
        """The four-way position of w in its coset: 1 shortest, 2 longest,
        3/4 inside a string (split by the boundary letter, smaller index first)."""
        s, t = self.pair
        a = self.part_I.length
        m = self.part_I.graph.m(s, t)
        if a == 0:
            return 1
        if m != INFINITE and a == m:
            return 2
        edge = self.part_I.word[-1] if self.side == "left" else self.part_I.word[0]
        return 3 if edge == s else 4


def coset_decompose(w: GroupElement, pair: tuple[int, int], side: str) -> CosetDecomposition:
    """Unique length-additive factorization across the parabolic on {s, t}."""
    g = w.graph
    s, t = pair
    if s == t or g.m(s, t) < 3:
        raise ValueError("pair must be noncommuting (bond label >= 3)")
    pair = (min(s, t), max(s, t))
    members = frozenset(pair)
    descents, mul = g.on_side(side)
    letters: list[int] = []
    rest = w
    while d := descents(rest) & members:
        r = min(d)
        letters.append(r)
        rest = mul(r, rest)
    part = g.element(letters if side == "left" else letters[::-1])
    return CosetDecomposition(part, rest, side, pair)


# -- the dihedral canonical basis ---------------------------------------------------------


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
