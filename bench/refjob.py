"""The reference job: a fixed stdlib-only workload, run by the benchmark in
a fresh interpreter after every timed job to measure the host's speed.

    python3 bench/refjob.py

It never imports hopfseq, so a change to the program cannot move it.  Its
work is of the program's kind: composing permutations as image tuples,
closing sets of them, and sparse products with Fraction coefficients.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def compose(p: tuple, q: tuple) -> tuple:
    return tuple(q[p[i]] for i in range(len(p)))


def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, j in enumerate(p):
        inv[j] = i
    return tuple(inv)


def closure(gens: list[tuple]) -> set[tuple]:
    e = tuple(range(len(gens[0])))
    seen, frontier = {e}, [e]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return seen


def main() -> int:
    s5 = sorted(closure([(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]))
    commutators = {compose(compose(inverse(a), inverse(b)), compose(a, b))
                   for a in s5[:80] for b in s5}
    a5 = closure(sorted(commutators))
    index = {g: i for i, g in enumerate(s5)}
    vec = {i: Fraction(i + 1, 7) for i in range(0, 120, 3)}
    product: dict[int, Fraction] = {}
    for g, c in vec.items():
        for h in s5:
            k = index[compose(s5[g], h)]
            product[k] = product.get(k, 0) + c * Fraction(index[h] + 1, 11)
    return 0 if (len(s5), len(a5), len(product)) == (120, 60, 120) else 1


if __name__ == "__main__":
    sys.exit(main())
