"""The pair-keyed descent recursion for q, kept as a reference for the tests.

q(x, w) = v^(len(w) - len(x)) q*(x, w) is computed one pair at a time: zero
unless x <= w in the Bruhat order, and otherwise by peeling the least left
descent s of w, with the mu-sum running over every fully commutative level
between x and s w.  It memoizes on the pair and shares no memo with
`TLAlgebra.q_column`, which reads the same recursion column by column.
"""

from tlcox.laurent import ONE, ZERO, LaurentPoly
from tlcox.library import bruhat_leq


class PairRoute:
    def __init__(self, graph):
        self.graph = graph
        self._q = {}

    def q_poly(self, x, w):
        key = (x, w)
        cached = self._q.get(key)
        if cached is not None:
            return cached
        g = self.graph
        if x == w:
            out = ONE
        elif x.length >= w.length or not bruhat_leq(x, w):
            out = ZERO
        else:
            s = min(g.left_descents(w))
            wp = g.lmul(s, w)
            if s not in g.left_descents(x):
                out = self.q_poly(x, wp)
            else:
                out = self.q_poly(g.lmul(s, x), wp) - LaurentPoly.v(2) * self.q_poly(x, wp)
                for level in g.levels_to(wp.length, fc_only=True)[x.length + 1:]:
                    for y in level:
                        if (y.length - x.length) % 2 == 0:
                            continue
                        if s in g.left_descents(y):
                            continue
                        mc = self.q_poly(x, y).coeff(y.length - x.length - 1)
                        if mc:
                            out = out + LaurentPoly._raw(
                                {y.length + 1 - x.length: mc}) * self.q_poly(y, wp)
        self._q[key] = out
        return out

    def q_star(self, x, w):
        return LaurentPoly.v(x.length - w.length) * self.q_poly(x, w)
