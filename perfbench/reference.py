"""A fixed pure-Python computation that serves as a yardstick for the speed
of the machine at the moment it runs.

On a shared host the speed of memory-heavy Python code drifts by tens of
per cent over minutes, so raw wall times of runs made minutes apart disagree
by more than any useful bound.  This computation has the profile of the
`tlcox` hot paths (tuple keys, small dicts as values, lookups scattered over
a working set of some 15 MB), so it slows down when they do.  It takes
about 0.4 s, short enough that `run.py` can time it in a fresh interpreter
before and after every invocation of a workload and express each
invocation in its units.  It does not use the package, so no change
to the package moves it.

Usage: python3 reference.py
"""

import random


def main() -> None:
    rng = random.Random(7)
    table = {}
    for i in range(35_000):
        word = tuple(rng.randrange(6) for _ in range(8))
        table[word] = {i: i & 7, -i: 1}
    keys = list(table)
    total = 0
    for _ in range(70_000):
        for e, c in table[keys[rng.randrange(len(keys))]].items():
            total += e * c
    print(total)


if __name__ == "__main__":
    main()
