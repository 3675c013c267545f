"""Coxeter graphs and the word problem.

A Coxeter graph is a symmetric matrix of bond labels m(s,t) with m(s,s) = 1
and off-diagonal entries in {2, 3, ...} or infinity.  Group elements are kept
in a canonical form, the ShortLex-least reduced word, found by one of two
word problems:

- Fully commutative elements go through the heap of a word (Stembridge, On
  the fully commutative elements of Coxeter groups, J. Algebraic Combin. 5,
  1996): the poset on the positions of the word generated by i < j whenever
  the letters at i and j do not commute.  A word is a reduced word of a fully
  commutative element iff its heap has no convex chain s, s and no convex
  alternating chain s, t, s, ... of length m(s,t) (Prop. 3.3); the reduced
  words of such an element are then exactly the linear extensions of the
  heap, so the canonical word is the lex-least one, the left and right
  descents are the labels of the minimal and maximal elements, and s*w for
  a left descent s drops the first occurrence of s.
- Every other element goes through its roots in a reflection representation
  (`roots.RootSystem`, in its own module): an element is keyed by the
  heights of the roots w^-1(a_t), which give its left descents, and the
  canonical word comes from stripping the least left descent.  A graph
  builds its root system on its first element that is not fully
  commutative, so a run that builds fully commutative elements only, as the
  quotient's tables, bases, structure constants and trace checks do, never
  loads it.  Enumeration of the whole group tests no sign: once a level
  holds every element of its length, the generators s that reach a new
  element x as s*w from that level are its left descents, so x is named by
  the least of them followed by the word of s*x.

The group acts on the left only, and everything else is read off s*w: the
inverse of w is r*(wr)^-1 for r the last letter of w, w*s is (s*w^-1)^-1,
and the right descents of w, when its heap does not give them, are the
left descents of w^-1.

Generators are 0-based internally and rendered 1-based; the identity renders
as `e`.  Elements are interned per graph object, so within one graph object
equality is identity: elements compare and hash by identity, at C speed.
Each carries a record that its graph fills as the values are found: FC
flag, descents, key, s*w for each generator s, inverse.

The graph file format is in `graphfile`; reduced words, products of
elements, Bruhat order and coset decompositions, which no command runs, are
in `library`.
"""

from __future__ import annotations

import math
import re
from typing import Iterable, Iterator, Sequence

INFINITE = math.inf

FULLY_COMMUTATIVE = "fully_commutative"
WEAKLY_COMPLEX = "weakly_complex"
COMPLEX_OTHER = "complex_other"

_MISSING = object()


class GraphError(ValueError):
    """Malformed graph description or preset name."""

    exit_code = 2


class CoxeterGraph:
    """A Coxeter graph with memoized word-problem machinery.  The graph object
    owns everything computed over it: its interned elements and, in
    `algebras`, one algebra per algebra class (see `TLAlgebra.for_graph`)."""

    __slots__ = (
        "bonds", "name", "rank", "_nbrs", "_braids", "_root_system", "_elements",
        "_identity", "_fc", "_descents", "_levels", "_level_complete", "algebras",
    )

    def __init__(self, bonds: Sequence[Sequence[int | float]], name: str | None = None):
        bonds = tuple(tuple(row) for row in bonds)
        n = len(bonds)
        for i, row in enumerate(bonds):
            if len(row) != n:
                raise GraphError("bond matrix must be square")
            if row[i] != 1:
                raise GraphError("diagonal bond labels must be 1")
            for j in range(n):
                m = row[j]
                if i != j:
                    if m != INFINITE and (not isinstance(m, int) or m < 2):
                        raise GraphError(f"bond label m({i + 1},{j + 1}) = {m!r} invalid")
                    if m != bonds[j][i]:
                        raise GraphError("bond matrix must be symmetric")
        self.bonds = bonds
        self.name = name
        self.rank = n
        # per generator: the generators it does not commute with, itself included
        self._nbrs = tuple(tuple(t for t in range(n) if bonds[s][t] != 2) for s in range(n))
        self._braids = tuple((s, t, bonds[s][t]) for s in range(n) for t in range(s + 1, n)
                             if 3 <= bonds[s][t] < INFINITE)
        self._root_system = None
        self._elements: dict[tuple[int, ...], GroupElement] = {}
        self._identity: GroupElement | None = None
        self._fc: dict[tuple[int, ...], GroupElement | None] = {}
        # descent sets by bitmask: one frozenset per distinct value
        self._descents: dict[int, frozenset[int]] = {}
        # indexed by fc_only: all elements, fully commutative ones
        self._levels: tuple[list[list[GroupElement]], ...] = ([], [])
        self._level_complete = [False, False]
        self.algebras: dict[type, object] = {}

    # -- structure ----------------------------------------------------------

    def m(self, s: int, t: int) -> int | float:
        return self.bonds[s][t]

    def generators(self) -> range:
        return range(self.rank)

    def noncommuting_pairs(self) -> list[tuple[int, int]]:
        return [(s, t) for s in self.generators() for t in range(s + 1, self.rank)
                if self.bonds[s][t] >= 3]

    def describe(self) -> str:
        if self.name:
            return self.name
        edges = ",".join(
            f"{s + 1}-{t + 1}:{'inf' if self.bonds[s][t] == INFINITE else self.bonds[s][t]}"
            for s, t in self.noncommuting_pairs()
        )
        return f"rank{self.rank}[{edges}]" if edges else f"rank{self.rank}"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, CoxeterGraph) and self.bonds == other.bonds

    def __hash__(self) -> int:
        return hash(self.bonds)

    def __repr__(self) -> str:
        return f"CoxeterGraph({self.describe()})"

    # -- canonical words ------------------------------------------------------

    def normal_form_word(self, word: Iterable[int]) -> tuple[int, ...]:
        word = tuple(word)
        for s in word:
            if not 0 <= s < self.rank:
                raise ValueError(f"generator index {s} out of range for rank {self.rank}")
        canon = self.fc_normal_form_word(word)
        if canon is None:
            rs = self.root_system
            canon = rs.word_of(rs.replay(word))
        return canon

    @property
    def root_system(self):
        """The word problem of the elements that are not fully commutative
        (`roots.RootSystem`), built on the first of them."""
        rs = self._root_system
        if rs is None:
            from .roots import RootSystem

            rs = self._root_system = RootSystem(self)
        return rs

    # -- heaps --------------------------------------------------------------------

    def heap(self, word: Sequence[int]) -> tuple[list[int], list[int]]:
        """The heap of a word, as (down, up): for each position i, the
        bitmasks of the positions below and above i, both including i.
        Position i lies below j when i <= j and a chain of positions from i
        to j carries pairwise non-commuting consecutive letters."""
        n = len(word)
        nbrs = self._nbrs
        down = [0] * n
        last = [-1] * self.rank
        for i, a in enumerate(word):
            d = 1 << i
            for b in nbrs[a]:
                j = last[b]
                if j >= 0:
                    d |= down[j]
            down[i] = d
            last[a] = i
        up = [0] * n
        last = [-1] * self.rank
        for i in range(n - 1, -1, -1):
            a = word[i]
            u = 1 << i
            for b in nbrs[a]:
                j = last[b]
                if j >= 0:
                    u |= up[j]
            up[i] = u
            last[a] = i
        return down, up

    def fc_normal_form_word(self, word: Sequence[int]) -> tuple[int, ...] | None:
        """The canonical word of `word` if it is a reduced word of a fully
        commutative element, else None; memoized on the word.

        Decided on the heap alone (Stembridge, Prop. 3.3): no convex chain
        s, s and no convex alternating chain s, t, s, ... of length m(s,t).
        The canonical word is then the lex-least linear extension: take the
        least label among the minimal elements each time.
        """
        word = tuple(word)
        got = self._fc.get(word, _MISSING)
        if got is _MISSING:
            got = self._fc[word] = self._fc_element(word)
        return None if got is None else got.word

    def _heap_normal_form(self, word: tuple[int, ...]):
        """(canonical word, left descents, right descents) if `word` is a
        reduced word of a fully commutative element, else None."""
        n = len(word)
        down, up = self.heap(word)
        occ: list[list[int]] = [[] for _ in range(self.rank)]
        for j, a in enumerate(word):
            if occ[a]:
                i = occ[a][-1]
                if up[i] & down[j] == (1 << i) | (1 << j):
                    return None  # convex chain s, s: not reduced
            occ[a].append(j)
        for s, t, m in self._braids:
            if not (occ[s] and occ[t]):
                continue
            run: list[int] = []  # an alternating run of s and t ending at j
            for j, a in enumerate(word):
                if a == s or a == t:
                    if run and word[run[-1]] == a:
                        run = []
                    run.append(j)
                    if len(run) >= m and (up[run[-m]] & down[j]).bit_count() == m:
                        return None  # convex alternating chain: not fully commutative
        out = []
        ptr = [0] * self.rank
        left = (1 << n) - 1
        for _ in range(n):
            for a, places in enumerate(occ):
                if ptr[a] < len(places):
                    i = places[ptr[a]]
                    if down[i] & left == 1 << i:
                        break
            out.append(a)
            ptr[a] += 1
            left ^= 1 << i
        ldesc = rdesc = 0  # the labels of the minimal and of the maximal elements
        for i, a in enumerate(word):
            if down[i] == 1 << i:
                ldesc |= 1 << a
            if up[i] == 1 << i:
                rdesc |= 1 << a
        return tuple(out), self._descent_set(ldesc), self._descent_set(rdesc)

    def _descent_set(self, mask: int) -> frozenset[int]:
        """The generators in a bitmask, one shared frozenset per value."""
        got = self._descents.get(mask)
        if got is None:
            got = self._descents[mask] = frozenset(
                s for s in range(self.rank) if mask >> s & 1)
        return got

    def _intern(self, word: tuple[int, ...]) -> GroupElement:
        el = self._elements.get(word)
        if el is None:
            el = self._elements[word] = GroupElement(self, word)
        return el

    def _fc_element(self, word: tuple[int, ...]) -> GroupElement | None:
        """The element of `word`, with FC flag and descents from its heap, if
        `word` is a reduced word of a fully commutative element; else None."""
        heap = self._heap_normal_form(word)
        if heap is None:
            return None
        el = self._intern(heap[0])
        el.fc, el.ldesc, el.rdesc = True, heap[1], heap[2]
        return el

    def element(self, word: Iterable[int] = ()) -> GroupElement:
        word = tuple(word)
        el = self._elements.get(word)  # already a canonical word
        return el if el is not None else self._intern(self.normal_form_word(word))

    @property
    def identity(self) -> GroupElement:
        if self._identity is None:
            self._identity = self.element(())
        return self._identity

    # -- multiplication ---------------------------------------------------------

    def lmul(self, s: int, w: "GroupElement") -> "GroupElement":
        """The product s*w (length goes up or down by one)."""
        w = w if w.graph is self else self.element(w.word)
        got = w.lnbr[s]
        return got if got is not None else self._step(w, s)

    def fc_lmul(self, s: int, w: "GroupElement") -> "GroupElement | None":
        """s*w if it is fully commutative, else None (w fully commutative, s not
        a left descent): one memoized heap of s.w decides and builds it."""
        got = w.lnbr[s]
        if got is None and self.fc_normal_form_word((s,) + w.word) is not None:
            got = self._fc[(s,) + w.word]
            w.lnbr[s], got.lnbr[s] = got, w
        return got if got is not None and self.is_fully_commutative(got) else None

    def rmul(self, w: "GroupElement", s: int) -> "GroupElement":
        """The product w*s = (s*w^-1)^-1."""
        return self.inverse(self.lmul(s, self.inverse(w)))

    def _step(self, w: "GroupElement", s: int) -> "GroupElement":
        """s*w, recorded on both factors: the heap when w is fully commutative
        and so is the product, the roots otherwise."""
        word = w.word
        fc = self.is_fully_commutative(w)
        if fc and s in w.ldesc:
            i = word.index(s)
            got = self._fc_element(word[:i] + word[i + 1:])
        else:
            got = self._fc_element((s,) + word) if fc else None
            if got is None:
                rs = self.root_system
                got = rs.element_of(rs.lmul(s, rs.key_of(w)))
                if len(got.word) > len(word):  # w is a factor: not FC either
                    got.fc = False
        w.lnbr[s], got.lnbr[s] = got, w
        return got

    def inverse(self, w: "GroupElement") -> "GroupElement":
        """r * (w r)^-1 for r the last letter of w.  The prefix w r of the
        canonical word of w is canonical, so it needs no normal form."""
        w = w if w.graph is self else self.element(w.word)
        got = w.inv
        if got is None:
            if not w.word:
                got = w
            else:
                got = self.lmul(w.word[-1], self.inverse(self._intern(w.word[:-1])))
            w.inv, got.inv = got, w
        return got

    # -- descents and order -------------------------------------------------------

    def left_descents(self, w: "GroupElement") -> frozenset[int]:
        w = w if w.graph is self else self.element(w.word)
        if w.ldesc is None and not self.is_fully_commutative(w):  # FC: from the heap
            rs = self.root_system
            key = rs.key_of(w)
            w.ldesc = self._descent_set(sum(1 << t for t in self.generators()
                                            if rs.negative(key, t)))
        return w.ldesc

    def right_descents(self, w: "GroupElement") -> frozenset[int]:
        w = w if w.graph is self else self.element(w.word)
        if w.rdesc is None and not self.is_fully_commutative(w):  # FC: from the heap
            w.rdesc = self.left_descents(self.inverse(w))
        return w.rdesc

    def on_side(self, side: str):
        """(descents, mul) on one side: the descent reader and r, x -> r x for
        side "left", right_descents and r, x -> x r for side "right"."""
        if side == "left":
            return self.left_descents, self.lmul
        if side == "right":
            return self.right_descents, lambda r, x: self.rmul(x, r)
        raise ValueError("side must be 'left' or 'right'")

    # -- full commutativity --------------------------------------------------------

    def is_fully_commutative(self, w: "GroupElement") -> bool:
        """True iff no reduced word of w contains a full alternating braid
        factor; read off the heap of its canonical word."""
        w = w if w.graph is self else self.element(w.word)
        if w.fc is None:
            w.fc = self._fc_element(w.word) is not None
        return w.fc

    # -- enumeration ------------------------------------------------------------

    def levels_to(self, bound: int, fc_only: bool = False) -> list[list["GroupElement"]]:
        """Lists of all elements (or all fully commutative ones) of each
        length 0..bound, ShortLex-sorted.

        Each level is grown from the one before as s*w for s not a left
        descent of w.  Every left factor of a fully commutative element is
        fully commutative, so the fully commutative levels grow from
        themselves, keeping s*w when the heap of its word passes the test.
        The whole group grows by `_next_level`, which names each new element
        by its least left descent and tests no sign.
        """
        levels = self._levels[fc_only]
        if not levels:
            levels.append([self.identity])
        while len(levels) <= bound and not self._level_complete[fc_only]:
            if fc_only:
                nxt = set()
                for w in levels[-1]:
                    desc = self.left_descents(w)
                    nxt.update(self.fc_lmul(s, w) for s in self.generators() if s not in desc)
                nxt.discard(None)
            else:
                nxt = self._next_level(levels[-1])
            if not nxt:
                self._level_complete[fc_only] = True
                break
            levels.append(sorted(nxt, key=lambda e: e.word))
        return levels[: bound + 1]

    def _next_level(self, level: list["GroupElement"]) -> list["GroupElement"]:
        """The elements of length k + 1, given `level`, all elements of
        length k.  For w in `level` and s not in L(w), s*w is w's recorded
        neighbour, else the heap of s.w when w is fully commutative, else
        found by one root update of w's key, looked up in the root system's
        key -> word memo (`RootSystem.words`).  Each s
        in L(x) reaches x from s*x, which lies in `level`, so the generators
        that reach x are its left descents, and the least of them followed
        by the word of s*x is its canonical word.  A key with no known word
        is a new element; like every product found by its roots, it is not
        fully commutative."""
        rs = None
        reach: dict[GroupElement, int] = {}  # x -> bitmask of the s that reach it
        fresh: dict[tuple[int, ...], list[tuple[int, GroupElement]]] = {}  # key -> (s, s*x)
        for w in level:
            desc = self.left_descents(w)
            fc = self.is_fully_commutative(w)
            key = None
            for s in range(self.rank):
                if s in desc:
                    continue
                x = w.lnbr[s]
                if x is None:
                    if fc:
                        x = self._fc_element((s,) + w.word)
                    if x is None:
                        if key is None:
                            rs = self.root_system
                            key = rs.key_of(w)
                        xkey = rs.lmul(s, key)
                        word = rs.words.get(xkey)
                        if word is None:
                            fresh.setdefault(xkey, []).append((s, w))
                            continue
                        x = self._intern(word)
                        if x.roots is None:
                            x.roots = xkey
                        x.fc = False
                    w.lnbr[s], x.lnbr[s] = x, w
                reach[x] = reach.get(x, 0) | 1 << s
        for xkey, pairs in fresh.items():
            t, w = min(pairs, key=lambda pair: pair[0])
            x = self._intern((t,) + w.word)
            x.roots, x.fc = xkey, False
            rs.words[xkey] = x.word
            mask = 0
            for s, w in pairs:
                w.lnbr[s], x.lnbr[s] = x, w
                mask |= 1 << s
            reach[x] = mask
        for x, mask in reach.items():
            if x.ldesc is None:
                x.ldesc = self._descent_set(mask)
        return list(reach)


class GroupElement:
    """A group element held as its ShortLex-least reduced word.

    Instances are interned per graph object (create them via
    ``graph.element``), so they compare and hash by identity: two elements
    of one graph object are equal exactly when they are the same object, and
    elements of two graph objects are never equal.  The record
    (FC flag, left and right descents, key, s*w for each generator s,
    inverse) is filled by the element's own graph only, each value when
    first found; descents are set with the FC flag when it is True.
    """

    __slots__ = ("graph", "word", "roots", "fc", "ldesc", "rdesc", "lnbr", "inv")

    def __init__(self, graph: CoxeterGraph, word: tuple[int, ...]):
        self.graph = graph
        self.word = word
        self.roots = self.fc = self.ldesc = self.rdesc = self.inv = None
        self.lnbr = [None] * graph.rank

    @property
    def length(self) -> int:
        return len(self.word)

    def __lt__(self, other: "GroupElement") -> bool:
        return (len(self.word), self.word) < (len(other.word), other.word)

    @property
    def key(self) -> tuple[int, tuple[int, ...]]:
        """Length-then-ShortLex sort key."""
        return (len(self.word), self.word)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        from .library import mul

        return mul(self, other)

    def left_descents(self) -> frozenset[int]:
        return self.graph.left_descents(self)

    def right_descents(self) -> frozenset[int]:
        return self.graph.right_descents(self)

    def descents(self, side: str) -> frozenset[int]:
        return self.graph.on_side(side)[0](self)

    def is_fully_commutative(self) -> bool:
        return self.graph.is_fully_commutative(self)

    def format(self) -> str:
        return format_element(self)

    def __repr__(self) -> str:
        return f"<{self.format()}>"


# -- element text -----------------------------------------------------------------


def format_element(w: GroupElement) -> str:
    """Space-separated 1-based generator indices; the identity is `e`."""
    return " ".join(str(s + 1) for s in w.word) if w.word else "e"


def parse_element(graph: CoxeterGraph, text: str) -> GroupElement:
    text = text.strip()
    if text == "e":
        return graph.identity
    try:
        word = tuple(int(tok) - 1 for tok in text.split())
    except ValueError as exc:
        raise ValueError(f"malformed element text: {text!r}") from exc
    if any(s < 0 or s >= graph.rank for s in word):
        raise ValueError(f"generator index out of range in {text!r}")
    return graph.element(word)


# -- derived operations --------------------------------------------------------------


def classify(w: GroupElement) -> str:
    """Sort w into fully commutative / weakly complex / other complex.

    Weakly complex means complex with some length-(l-1) fully commutative
    element reachable by stripping one left generator.
    """
    if w.is_fully_commutative():
        return FULLY_COMMUTATIVE
    g = w.graph
    for s in sorted(g.left_descents(w)):
        if g.lmul(s, w).is_fully_commutative():
            return WEAKLY_COMPLEX
    return COMPLEX_OTHER


def enumerate_elements(graph: CoxeterGraph, length_bound: int,
                       fc_only: bool = False) -> Iterator[GroupElement]:
    """All elements (or all fully commutative ones) of length <= bound,
    each exactly once, in length-then-ShortLex order."""
    if length_bound < 0:
        raise ValueError("length bound must be nonnegative")
    for level in graph.levels_to(length_bound, fc_only):
        yield from level


def _component_order(graph: CoxeterGraph, nodes: list[int]) -> tuple[int, int] | None:
    """(order, longest length) of the parabolic on a connected component, or
    None when it is infinite.  Decided against the classification of the
    finite families, so no enumeration happens."""
    n = len(nodes)
    if n == 1:
        return 2, 1
    if n == 2:
        m = graph.m(nodes[0], nodes[1])
        return None if m == INFINITE else (2 * m, m)
    adj = {a: [b for b in nodes if b != a and graph.m(a, b) >= 3] for a in nodes}
    if any(graph.m(a, b) == INFINITE for a in nodes for b in adj[a]):
        return None
    degrees = sorted(len(adj[a]) for a in nodes)
    edge_count = sum(degrees) // 2
    if edge_count != n - 1:
        return None  # a cycle (or worse): affine or indefinite
    labels = sorted(graph.m(a, b) for a in nodes for b in adj[a] if a < b)
    branch = [a for a in nodes if len(adj[a]) == 3]
    if degrees[-1] > 3 or len(branch) > 1:
        return None
    if branch:
        if any(m != 3 for m in labels):
            return None
        hub = branch[0]
        arms = []
        for first in adj[hub]:
            length, prev, cur = 1, hub, first
            while True:
                nxt = [b for b in adj[cur] if b != prev]
                if not nxt:
                    break
                prev, cur = cur, nxt[0]
                length += 1
            arms.append(length)
        arms.sort()
        if arms[0] == arms[1] == 1:
            return 2 ** (n - 1) * math.factorial(n), n * (n - 1)
        if arms == [1, 2, 2]:
            return 51840, 36
        if arms == [1, 2, 3]:
            return 2903040, 63
        if arms == [1, 2, 4]:
            return 696729600, 120
        return None
    # a path: read the labels end to end
    ends = [a for a in nodes if len(adj[a]) == 1]
    prev, cur = None, min(ends)
    seq = []
    while True:
        nxt = [b for b in adj[cur] if b != prev]
        if not nxt:
            break
        seq.append(graph.m(cur, nxt[0]))
        prev, cur = cur, nxt[0]
    if all(m == 3 for m in seq):
        return math.factorial(n + 1), n * (n + 1) // 2
    big = [m for m in seq if m != 3]
    if big == [4] and (seq[0] == 4 or seq[-1] == 4):
        return 2 ** n * math.factorial(n), n * n
    if seq in ([3, 4, 3],):
        return 1152, 24
    if big == [5] and (seq[0] == 5 or seq[-1] == 5):
        if n == 3:
            return 120, 15
        if n == 4:
            return 14400, 60
    return None


def group_order(graph: CoxeterGraph, cap: int) -> tuple[int, int] | None:
    """(order, longest length) for a finite group of at most cap elements,
    else None.  Uses the classification of the finite families, so infinite
    graphs are rejected without enumeration."""
    remaining = set(graph.generators())
    order, longest = 1, 0
    while remaining:
        root = min(remaining)
        component = {root}
        frontier = [root]
        while frontier:
            a = frontier.pop()
            for b in graph.generators():
                if b not in component and b != a and graph.m(a, b) >= 3:
                    component.add(b)
                    frontier.append(b)
        got = _component_order(graph, sorted(component))
        if got is None:
            return None
        order *= got[0]
        longest += got[1]
        if order > cap:
            return None
        remaining -= component
    return order, longest


def decompose_fc_prefix(w: GroupElement, s: int):
    """For fully commutative w with s*w longer and not fully commutative,
    split w = w1 * w2 * w3 where every letter of w1 commutes with (and
    differs from) s and w2 alternates t,s,t,... with m(s,t)-1 letters.
    Among such splits, the one read off the lex-least reduced word of w.

    Returns (w1, w2, w3, t).
    """
    g = w.graph
    if not w.is_fully_commutative():
        raise ValueError("w must be fully commutative")
    if s in g.left_descents(w):
        raise ValueError("s*w must be longer than w")
    if g.fc_normal_form_word((s,) + w.word) is not None:
        raise ValueError("s*w must not be fully commutative")
    # The heap of s*w has a convex alternating chain s, t, s, ... of length
    # m(s, t) (Stembridge, Prop. 3.3).  It starts at the new minimal s, so
    # t is the first letter of w not commuting with s and w2 is made of the
    # first m-1 occurrences of s and t; everything the chain needs below it
    # lies below that first t.  The canonical word of w, its lex-least
    # reduced word, is thus also the least with such a split: w1 is the part
    # of it before the first t.
    word = w.word
    k = next(i for i, a in enumerate(word) if g.m(s, a) != 2)
    t = word[k]
    chain = [i for i, a in enumerate(word) if a == s or a == t][:g.m(s, t) - 1]
    w3 = tuple(a for i, a in enumerate(word) if i > k and i not in chain)
    return g.element(word[:k]), g.element(tuple(word[i] for i in chain)), g.element(w3), t


# -- presets -----------------------------------------------------------------------------


def _graph(n: int, edges: Iterable[tuple[int, int, int | float]],
           name: str | None = None) -> CoxeterGraph:
    """The graph of rank n with label m on each edge (i, j, m), 0-based, and
    2 elsewhere."""
    bonds: list[list[int | float]] = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
    for i, j, m in edges:
        bonds[i][j] = bonds[j][i] = m
    return CoxeterGraph(bonds, name=name)


def _path(labels: Sequence[int | float], name: str) -> CoxeterGraph:
    return _graph(len(labels) + 1, [(i, i + 1, m) for i, m in enumerate(labels)], name)


_PRESET_RE = re.compile(r"^(?P<aff>~)?(?P<fam>[A-H])(?P<n>\d+)$")
_I2_RE = re.compile(r"^I2\((?P<m>\d+|inf)\)$")


def preset(name: str) -> CoxeterGraph:
    """Standard graphs: A/B/C/D/E/F/H families, I2(m), affine ~A and ~C.

    Every call builds a new graph, so whatever is computed over it lives as
    long as the caller keeps the graph.
    """
    name = name.strip()
    m2 = _I2_RE.match(name)
    if m2:
        m: int | float = INFINITE if m2.group("m") == "inf" else int(m2.group("m"))
        if m != INFINITE and m < 3:
            raise GraphError("I2(m) requires m >= 3 or inf")
        return _path([m], name)
    mo = _PRESET_RE.match(name)
    if not mo:
        raise GraphError(f"unknown preset {name!r}")
    fam, n, affine = mo.group("fam"), int(mo.group("n")), bool(mo.group("aff"))
    if affine:
        if fam == "A":
            if n == 1:
                return _path([INFINITE], name)
            if n < 2:
                raise GraphError("~A requires n >= 1")
            return _graph(n + 1, [(i, (i + 1) % (n + 1), 3) for i in range(n + 1)], name)
        if fam == "C":
            if n < 2:
                raise GraphError("~C requires n >= 2")
            return _path([4] + [3] * (n - 2) + [4], name)
        raise GraphError(f"unknown affine preset {name!r}")
    if fam == "A":
        if n < 1:
            raise GraphError("A requires n >= 1")
        return _path([3] * (n - 1), name)
    if fam in ("B", "C"):
        if n < 2:
            raise GraphError("B requires n >= 2")
        return _path([4] + [3] * (n - 2), name)
    if fam == "D":
        if n < 4:
            raise GraphError("D requires n >= 4")
        # generator 2 is the branch node (so the rank-4 witness text is stable)
        return _graph(n, [(a, b, 3) for a, b in [(0, 1), (2, 1), (3, 1)]
                          + [(i, i + 1) for i in range(3, n - 1)]], name)
    if fam == "E":
        if n < 6:
            raise GraphError("E requires n >= 6")
        return _graph(n, [(a, b, 3) for a, b in [(0, 2), (2, 3), (1, 3)]
                          + [(i, i + 1) for i in range(3, n - 1)]], name)
    if fam == "F":
        if n != 4:
            raise GraphError("only F4 is provided")
        return _path([3, 4, 3], name)
    if fam == "H":
        if n < 3:
            raise GraphError("H requires n >= 3")
        return _path([5] + [3] * (n - 2), name)
    raise GraphError(f"unknown preset {name!r}")
