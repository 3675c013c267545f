"""The braid-move word problem, kept as a reference for the tests.

Two words represent the same element iff braid moves connect them, and a
word is non-reduced iff some sequence of braid moves exposes an adjacent
equal pair (Matsumoto, Tits).  The closure of a reduced word under braid
moves is therefore the set of all reduced words of its element, and the
canonical word is the least of them.  Everything else is read off these
sets: descents are the first and last letters, products by a generator
strip a letter from some reduced word or extend the word and reduce it,
and full commutativity is the absence of an alternating braid factor in
every reduced word.  The closure grows exponentially with length, so this
serves only small lengths, and it shares no state with `tlcox.coxeter`.
"""

from collections import deque

from tlcox.coxeter import INFINITE


class ClosureRoute:
    def __init__(self, bonds):
        self.bonds = tuple(tuple(row) for row in bonds)
        self.rank = len(self.bonds)
        self._canon = {}    # every word a scan has seen -> its canonical word
        self._closure = {}  # canonical word -> all reduced words

    def braid_variants(self, word):
        bonds = self.bonds
        n = len(word)
        for i in range(n - 1):
            s, t = word[i], word[i + 1]
            if s == t:
                continue
            m = bonds[s][t]
            if m == INFINITE or i + m > n:
                continue
            if all(word[i + k] == (s if k % 2 == 0 else t) for k in range(2, m)):
                repl = tuple(t if k % 2 == 0 else s for k in range(m))
                yield word[:i] + repl + word[i + m:]

    def scan(self, start):
        """BFS over braid moves: (reduced?, all words seen, a shorter word)."""
        seen = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for i in range(len(u) - 1):
                if u[i] == u[i + 1]:
                    return False, seen, u[:i] + u[i + 2:]
            for var in self.braid_variants(u):
                if var not in seen:
                    seen.add(var)
                    queue.append(var)
        return True, seen, None

    def normal_form(self, word):
        current = tuple(word)
        pending = []
        while True:
            canon = self._canon.get(current)
            if canon is not None:
                break
            reduced, seen, shorter = self.scan(current)
            pending.append(seen)
            if reduced:
                canon = min(seen)
                self._closure[canon] = frozenset(seen)
                break
            current = shorter
        for seen in pending:
            for u in seen:
                self._canon[u] = canon
        return canon

    def closure(self, word):
        return self._closure[self.normal_form(word)]

    def is_fc(self, word):
        bonds = self.bonds
        for u in self.closure(word):
            for i in range(len(u) - 1):
                s, t = u[i], u[i + 1]
                m = bonds[s][t]
                if m == 2 or m == INFINITE or i + m > len(u):
                    continue
                if all(u[i + k] == (s if k % 2 == 0 else t) for k in range(m)):
                    return False
        return True

    def left_descents(self, word):
        return {u[0] for u in self.closure(word)} if word else set()

    def right_descents(self, word):
        return {u[-1] for u in self.closure(word)} if word else set()

    def lmul(self, s, word):
        if s in self.left_descents(word):
            return min(u[1:] for u in self.closure(word) if u[0] == s)
        return self.normal_form((s,) + word)

    def rmul(self, word, s):
        if s in self.right_descents(word):
            return min(u[:-1] for u in self.closure(word) if u[-1] == s)
        return self.normal_form(word + (s,))

    def levels(self, bound, fc_only=False):
        """Canonical words of all elements (or the fully commutative ones)
        of length <= bound, in length-then-ShortLex order."""
        levels = [[()]]
        while len(levels) <= bound:
            nxt = set()
            for w in levels[-1]:
                for s in range(self.rank):
                    if s not in self.left_descents(w):
                        sw = self.normal_form((s,) + w)
                        if not fc_only or self.is_fc(sw):
                            nxt.add(sw)
            if not nxt:
                break
            levels.append(sorted(nxt))
        return [w for level in levels for w in level]

    def decompose_fc_prefix(self, word, s):
        """The factorization read off the least reduced word that has one."""
        bonds = self.bonds
        for u in sorted(self.closure(word)):
            for i, t in enumerate(u):
                m = bonds[s][t]
                if 3 <= m < INFINITE and i + m - 1 <= len(u):
                    if all(u[i + k] == (t if k % 2 == 0 else s) for k in range(m - 1)):
                        return (self.normal_form(u[:i]), u[i:i + m - 1],
                                self.normal_form(u[i + m - 1:]), t)
                if bonds[t][s] != 2:
                    break
        raise AssertionError("no factorization")
