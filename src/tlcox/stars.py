"""Star operations on strings, reducibility searches, and descent statistics.

An element sitting strictly inside the ladder of a rank-2 coset (neither the
shortest nor the longest member) can be moved one rung up or down by
multiplying with the appropriate generator; these are the star operations.
A star-down step always shortens by one letter, so the star-down graph below
any element is a finite DAG, and the two combinatorial checks here (every
fully commutative element reaches a product of commuting generators; every
complex element reaches one with a noncommuting descent pair) are memoized
depth-first searches over it.
"""

from __future__ import annotations

from .coxeter import CoxeterGraph, GroupElement, enumerate_elements, format_element


def star(w: GroupElement, pair: tuple[int, int], side: str, direction: str) -> GroupElement | None:
    """One step along the {s,t}-string through w; None when not defined.

    `direction` is "up" (longer neighbor) or "down" (shorter neighbor); the
    result is None when w is not strictly inside a string or the step would
    leave it.  Read off the descents on `side`: w is strictly inside exactly
    when one of s, t (call it a, the other b) is a descent; the step down is
    a w, inside while b is a descent of it, and the step up is b w, inside
    while a is not.
    """
    g = w.graph
    s, t = pair
    if s == t or g.m(s, t) < 3:
        raise ValueError("pair must be noncommuting (bond label >= 3)")
    descents, mul = g.on_side(side)
    d = descents(w)
    if (s in d) == (t in d):
        return None
    a, b = (s, t) if s in d else (t, s)
    if direction == "down":
        x = mul(a, w)
        return x if b in descents(x) else None
    if direction == "up":
        x = mul(b, w)
        return None if a in descents(x) else x
    raise ValueError("direction must be 'up' or 'down'")


def star_reduction_paths(w: GroupElement) -> set[GroupElement]:
    """All elements one star-down step below w, over every noncommuting pair
    and both sides."""
    out: set[GroupElement] = set()
    for pair in w.graph.noncommuting_pairs():
        for side in ("left", "right"):
            x = star(w, pair, side, "down")
            if x is not None:
                out.add(x)
    return out


def is_commuting_product(w: GroupElement) -> bool:
    """True iff w is a product of distinct pairwise-commuting generators."""
    word = w.word
    bonds = w.graph.bonds
    if len(set(word)) != len(word):
        return False
    return all(bonds[a][b] == 2 for i, a in enumerate(word) for b in word[i + 1:])


def _star_reaches(w: GroupElement, predicate, memo: dict) -> bool:
    got = memo.get(w)
    if got is not None:
        return got
    ok = predicate(w) or any(
        _star_reaches(x, predicate, memo) for x in sorted(star_reduction_paths(w))
    )
    memo[w] = ok
    return ok


class PropertyReport:
    """Outcome of one property check at one bound; failures are witnesses in
    length-then-ShortLex order."""

    def __init__(self, property_name: str, graph: CoxeterGraph, bound: int):
        self.property_name = property_name
        self.graph = graph
        self.bound = bound
        self.failures: list[GroupElement] = []
        self.extra_lines: list[str] = []

    @property
    def holds(self) -> bool:
        return not self.failures

    def render(self) -> str:
        lines = [
            f"# property={self.property_name} graph={self.graph.describe()} bound={self.bound}"
        ]
        lines.extend(self.extra_lines)
        if self.holds:
            lines.append("HOLDS")
        else:
            lines.append(f"FAILS witness={format_element(self.failures[0])}")
            for w in self.failures:
                lines.append(f"witness={format_element(w)}")
        return "\n".join(lines) + "\n"


def check_property_F(graph: CoxeterGraph, length_bound: int) -> PropertyReport:
    """Is every fully commutative element of length <= bound star reducible to
    a product of pairwise-commuting generators?"""
    memo: dict[GroupElement, bool] = {}
    report = PropertyReport("F", graph, length_bound)
    for w in enumerate_elements(graph, length_bound, fc_only=True):
        if not _star_reaches(w, is_commuting_product, memo):
            report.failures.append(w)
    return report


def _has_noncommuting_descent_pair(w: GroupElement) -> bool:
    g = w.graph
    for desc in (g.left_descents(w), g.right_descents(w)):
        ds = sorted(desc)
        for i, a in enumerate(ds):
            for b in ds[i + 1:]:
                if g.m(a, b) >= 3:
                    return True
    return False


def check_property_S(graph: CoxeterGraph, length_bound: int) -> PropertyReport:
    """Is every complex element of length <= bound star reducible to one whose
    left or right descent set contains a noncommuting pair?"""
    memo: dict[GroupElement, bool] = {}
    report = PropertyReport("S", graph, length_bound)
    for w in enumerate_elements(graph, length_bound):
        if w.is_fully_commutative():
            continue
        if not _star_reaches(w, _has_noncommuting_descent_pair, memo):
            report.failures.append(w)
    return report


def n_stat(w: GroupElement) -> int:
    """The largest k such that some reduced word of w has a contiguous factor
    of k distinct pairwise-commuting generators.

    For fully commutative w these factors are exactly the antichains of the
    heap of w, so this is the heap's width: its size minus a maximum matching
    of its strict order (Dilworth's theorem).
    """
    if not w.is_fully_commutative():
        raise ValueError("n_stat is defined for fully commutative elements only")
    _, up = w.graph.heap(w.word)
    match: dict[int, int] = {}  # upper element -> the lower element matched to it

    def augment(i: int, seen: set[int]) -> bool:
        above = up[i] & ~(1 << i)
        while above:
            j = (above & -above).bit_length() - 1
            above &= above - 1
            if j not in seen:
                seen.add(j)
                if j not in match or augment(match[j], seen):
                    match[j] = i
                    return True
        return False

    return len(up) - sum(augment(i, set()) for i in range(len(up)))


def k_epsilon(w: GroupElement, coloring) -> int:
    """Sign statistic: product over both descent sets of (-1)^(# color-0
    members), for a 2-coloring from `trace.bipartite_coloring`."""
    if not w.is_fully_commutative():
        raise ValueError("k_epsilon is defined for fully commutative elements only")
    left = sum(1 for s in w.left_descents() if coloring.eps[s] == 0)
    right = sum(1 for s in w.right_descents() if coloring.eps[s] == 0)
    return -1 if (left + right) % 2 else 1
