"""Finite permutation group engine.

Covers element closure, conjugacy classes of elements and of subgroups,
normalizers, abelianization orders, composition series, normal subgroups
and exact factorizations.  Closures, element classes and the quotient
maps are orbits read from one breadth-first walk along the generators
(``walk``).  One normal closure (``normal_closure``) grows every normal
subgroup: the commutator subgroup, the normal subgroups and simplicity
come from it.  Everything is exhaustive and exact; sizes are capped
(default 10,000 elements and 10^7 perm entries for closures, 1,000
elements for subgroup lattices), and so is the work of a subgroup lattice
and the number of exact factorizations it yields.
"""

from __future__ import annotations

from array import array
from functools import lru_cache, partial
from math import factorial
from operator import itemgetter

from .perm import (
    Perm,
    compose,
    conjugate,
    identity,
    inverse,
    is_perm,
    perm_order,
)

ORDER_CAP = 10_000
SUBGROUP_CAP = 1_000
# The perm entries a group holds, its degree times its order: a closure's
# memory grows as their product, which neither cap above bounds.  Z3162
# (9,998,244 entries) takes 1.3 s and 92 MB peak RSS for `hopfseq group`,
# and the regular A7 of A7/1 (6,350,400) 0.6 s and 77 MB; Z10000 (10^8)
# took 17 s and 780 MB.  Measured on 2 CPUs, Python 3.11.7.
ENTRY_CAP = 10_000_000
# The lattice's work: each class of subgroups it takes up tries each of the
# nontrivial cyclic subgroups, so the classes times the cyclic subgroups.  A
# step costs from 3 us (in (Z2)^7) to 38 us (in D500, order 1000): S6 takes
# 20,216 steps, D500 16,352 and Z2^6 x Z13 (order 832) 717,550, for a cold
# `hopfseq table` of 0.4, 1.3 and 17 s; (Z2)^7 (3,709,924 steps) took 15.5 s
# and 95 MB and printed 29,212 rows.  The cap is counted as each class is
# found, so a refusal comes before most of the work.
LATTICE_WORK_CAP = 1_000_000
# The factorizations found before the swap dedupe: each is built and
# verified, about 2.4 ms at order 1000 (45,007 in Z10^3 took 106 s) and
# 0.4 ms at order 160 ((Z2)^4 x Z10, 20,833 in 8.4 s).  They are counted
# before any is built, so (Z2)^6, with over 700,000, is refused at once.
FACTORIZATION_CAP = 25_000


class CapExceeded(RuntimeError):
    """A closure or lattice computation grew past its configured cap."""


class GroupError(ValueError):
    pass


def walk(seed, gens, step, cap: int | None = None) -> list[tuple]:
    """The orbit of ``seed`` under ``gens``, breadth first, with its Schreier
    tree (Holt, Eick and O'Brien, Handbook of Computational Group Theory,
    2005, section 4.1).

    Returns ``(y, x, s)`` for each point y reached, where y = step(x, s)
    and x was reached earlier; the seed comes first, as (seed, None, None).
    Past ``cap`` points raises CapExceeded.
    """
    seen = {seed}
    tree = [(seed, None, None)]
    for x, _, _ in tree:  # the list grows while it is read: a queue
        for s in gens:
            y = step(x, s)
            if y not in seen:
                seen.add(y)
                tree.append((y, x, s))
                if cap is not None and len(tree) > cap:
                    raise CapExceeded(f"group order exceeds cap {cap}")
    return tree


def closure(generators: list[Perm], degree: int, cap: int = ORDER_CAP) -> tuple[Perm, ...]:
    """Close a generator list under products; returns sorted element tuple.
    Past ``cap`` elements, or past ENTRY_CAP perm entries, raises CapExceeded."""
    room = ENTRY_CAP // max(degree, 1)
    try:
        tree = walk(identity(degree), generators, compose, min(cap, room))
    except CapExceeded:
        if room < cap:
            raise CapExceeded(f"group degree x order exceeds cap {ENTRY_CAP}") from None
        raise
    return tuple(sorted([y for y, _, _ in tree]))


def small_generating_set(elems: tuple[Perm, ...], degree: int) -> list[Perm]:
    gens: list[Perm] = []
    have = {identity(degree)}
    for x in elems:
        if x not in have:
            gens.append(x)
            have = set(closure(gens, degree, cap=len(elems)))
            if len(have) == len(elems):
                break
    return gens


class PermGroup:
    """A finite permutation group with cached, lexicographically sorted elements."""

    __slots__ = ("degree", "generators", "elements", "order", "name", "_hash", "_eset",
                 "_index", "_label")

    def __init__(self, degree: int, generators: list[Perm], name: str = "",
                 cap: int = ORDER_CAP, _elements: tuple[Perm, ...] | None = None):
        for g in generators:
            if not is_perm(g, degree):
                raise GroupError(f"generator {g} is not a permutation of degree {degree}")
        self.degree = degree
        self.generators = tuple(generators)
        self.elements = _elements if _elements is not None else closure(list(generators), degree, cap)
        self.order = len(self.elements)
        self.name = name
        self._hash = hash((degree, self.elements))
        self._eset: frozenset | None = None
        self._index: dict | None = None
        self._label: str | None = None

    def element_set(self) -> frozenset:
        if self._eset is None:
            self._eset = frozenset(self.elements)
        return self._eset

    def element_index(self) -> dict:
        """The map from each element to its position in ``elements``."""
        if self._index is None:
            self._index = {x: i for i, x in enumerate(self.elements)}
        return self._index

    def __contains__(self, p: Perm) -> bool:
        return p in self.element_set()

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return self.order

    def __eq__(self, other) -> bool:
        return (isinstance(other, PermGroup)
                and self.degree == other.degree and self.elements == other.elements)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        label = self.name or f"deg {self.degree}"
        return f"PermGroup({label}, order {self.order})"

    def subgroup(self, generators: list[Perm], name: str = "") -> "PermGroup":
        H = PermGroup(self.degree, list(generators), name=name, cap=self.order)
        if not H.element_set() <= self.element_set():
            raise GroupError("generators do not lie in the ambient group")
        return H

    def is_subgroup(self, H: "PermGroup") -> bool:
        return H.degree == self.degree and H.element_set() <= self.element_set()

    def identity(self) -> Perm:
        return identity(self.degree)

    def is_abelian(self) -> bool:
        gens = self.generators
        return all(compose(a, b) == compose(b, a) for a in gens for b in gens)


def from_elements(degree: int, elems, name: str = "") -> PermGroup:
    """Wrap an already-closed element collection as a PermGroup."""
    elems = tuple(sorted(elems))
    gens = small_generating_set(elems, degree)
    return PermGroup(degree, gens, name=name, _elements=elems)


def elements(generators: list[Perm], degree: int, cap: int = ORDER_CAP) -> PermGroup:
    """Build a PermGroup from generators (library entry point)."""
    return PermGroup(degree, generators, cap=cap)


def trivial_group(degree: int = 1) -> PermGroup:
    return PermGroup(degree, [], name="1")


# ---------------------------------------------------------------------------
# builtin groups


def _refuse_past_cap(factors, cap: int, degree: int) -> None:
    """Refuse a builder's group, its order the product of ``factors``, before
    any perm is built, as ``closure`` would past cap.  Reads only the factors
    it needs, so a huge n! is never formed."""
    order = 1
    for f in factors:
        order *= f
        if order > max(cap, 1):
            raise CapExceeded(f"group order exceeds cap {cap}")
    if degree * order > ENTRY_CAP:
        raise CapExceeded(f"group degree x order exceeds cap {ENTRY_CAP}")


def cyclic(n: int, cap: int = ORDER_CAP) -> PermGroup:
    if n == 1:
        return trivial_group()
    _refuse_past_cap([n], cap, n)
    return PermGroup(n, [tuple(range(1, n)) + (0,)], name=f"Z{n}", cap=cap)


def symmetric(n: int, cap: int = ORDER_CAP) -> PermGroup:
    if n <= 1:
        return trivial_group(max(n, 1))
    if n == 2:
        return PermGroup(2, [(1, 0)], name="S2")
    _refuse_past_cap(range(2, n + 1), cap, n)
    gens = [tuple(range(1, n)) + (0,), (1, 0) + tuple(range(2, n))]
    return PermGroup(n, gens, name=f"S{n}", cap=cap)


def alternating(n: int, cap: int = ORDER_CAP) -> PermGroup:
    if n <= 2:
        return trivial_group(max(n, 1))
    _refuse_past_cap(range(3, n + 1), cap, n)
    cyc3 = (1, 2, 0) + tuple(range(3, n))
    if n % 2:
        big = tuple(range(1, n)) + (0,)
    else:
        big = (0,) + tuple(range(2, n)) + (1,)
    return PermGroup(n, [cyc3, big], name=f"A{n}", cap=cap)


def dihedral(n: int, cap: int = ORDER_CAP) -> PermGroup:
    """Dihedral group of order 2n acting on an n-gon."""
    if n < 3:
        raise GroupError("dihedral needs n >= 3")
    _refuse_past_cap([2, n], cap, n)
    rot = tuple(range(1, n)) + (0,)
    refl = tuple((n - i) % n for i in range(n))
    return PermGroup(n, [rot, refl], name=f"D{n}", cap=cap)


def klein_four() -> PermGroup:
    return PermGroup(4, [(1, 0, 3, 2), (2, 3, 0, 1)], name="Z2xZ2")


def quaternion8() -> PermGroup:
    # left-regular representation of Q8 on (1, -1, i, -i, j, -j, k, -k)
    i = (2, 3, 1, 0, 6, 7, 5, 4)
    j = (4, 5, 7, 6, 1, 0, 2, 3)
    return PermGroup(8, [i, j], name="Q8")


def direct_product(A: PermGroup, B: PermGroup, name: str = "",
                   cap: int = ORDER_CAP) -> PermGroup:
    """Direct product acting on the disjoint union of the two domains."""
    d = A.degree + B.degree
    gens = [g + tuple(range(A.degree, d)) for g in A.generators]
    gens += [tuple(range(A.degree)) + tuple(x + A.degree for x in g) for g in B.generators]
    return PermGroup(d, gens, name=name or f"{A.name}x{B.name}", cap=cap)


def abelian_group(invariants: list[int], cap: int = ORDER_CAP) -> PermGroup:
    """Direct product of cyclic groups of the given orders."""
    _refuse_past_cap(invariants, cap, sum(invariants))
    G = cyclic(invariants[0], cap)
    for n in invariants[1:]:
        G = direct_product(G, cyclic(n, cap), cap=cap)
    G.name = "x".join(f"Z{n}" for n in invariants)
    return G


# ---------------------------------------------------------------------------
# basic structure computations


def center(G: PermGroup) -> list[Perm]:
    gens = G.generators
    return [x for x in G.elements
            if all(compose(g, x) == compose(x, g) for g in gens)]


def normal_closure(G: PermGroup, gens) -> PermGroup:
    """The least normal subgroup of G holding ``gens``: their closure grows by
    each conjugate g n g^-1 (g a generator of G, n a generator found so far)
    that falls outside it, until none does; then it is normal.
    """
    ngens = list(gens)
    elems = closure(ngens, G.degree, cap=G.order)
    eset = set(elems)
    todo = list(ngens)
    while todo:
        n = todo.pop()
        for g in G.generators:
            c = conjugate(g, n)
            if c not in eset:
                ngens.append(c)
                todo.append(c)
                elems = closure(ngens, G.degree, cap=G.order)
                eset = set(elems)
    return PermGroup(G.degree, ngens, _elements=elems)


def commutator_subgroup(G: PermGroup) -> PermGroup:
    """Derived subgroup G', as the normal closure of the generator commutators.

    Once the generators of G commute modulo a normal N, G/N is abelian, so G'
    is the least normal subgroup holding every [a, b] = a b a^-1 b^-1 with a,
    b generators of G.
    """
    gens = G.generators
    commutators = dict.fromkeys(compose(compose(a, b), compose(inverse(a), inverse(b)))
                                for a in gens for b in gens)
    commutators.pop(G.identity(), None)
    return normal_closure(G, list(commutators))


def abelianization_order(G: PermGroup) -> int:
    return G.order // commutator_subgroup(G).order


def class_metrics(G: PermGroup, T: PermGroup) -> tuple[int, int, int]:
    """(normalizer index [N_G(T):T], |T/[T,T]|, |Z(T)|) by exhaustive search."""
    if not G.is_subgroup(T):
        raise GroupError("T is not a subgroup of G")
    return normalizer(G, T).order // T.order, abelianization_order(T), len(center(T))


def normalizer(G: PermGroup, T: PermGroup) -> PermGroup:
    """The g in G with g T g^-1 = T: those mapping T's generators into T."""
    tset = T.element_set()
    elems = [g for g in G.elements
             if all(conjugate(g, t) in tset for t in T.generators)]
    return from_elements(G.degree, elems)


def conjugacy_classes(G: PermGroup) -> list[list[Perm]]:
    """Element conjugacy classes, each sorted, ordered by smallest member."""
    remaining = set(G.elements)
    classes = []
    while remaining:
        orbit = walk(min(remaining), G.generators, lambda y, g: conjugate(g, y))
        cls = sorted([y for y, _, _ in orbit])
        remaining.difference_update(cls)
        classes.append(cls)
    return classes


# ---------------------------------------------------------------------------
# isomorphism-type labels
#
# Abelian groups are identified outright from their invariant factors.  The
# nonabelian types needed for the A6/A5 subgroup tables and the order <= 24
# test sets are told apart by fingerprints of reference groups; anything else
# reports "order-N unidentified" rather than guessing.  The order is the first
# field of a fingerprint, so only the references of G's own order are built
# and fingerprinted, once per order in a process.  The label depends only on
# the elements, so it is kept on the group and computed once per group.


def order_histogram(G: PermGroup) -> tuple[tuple[int, int], ...]:
    counts: dict[int, int] = {}
    for x in G.elements:
        o = perm_order(x)
        counts[o] = counts.get(o, 0) + 1
    return tuple(sorted(counts.items()))


def pow_perm(p: Perm, k: int) -> Perm:
    result = identity(len(p))
    base = p
    while k:
        if k & 1:
            result = compose(result, base)
        base = compose(base, base)
        k >>= 1
    return result


def prime_factors(n: int) -> list[int]:
    """The distinct primes dividing n, in increasing order."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# the first 13 primes: as Miller-Rabin bases they decide primality exactly
# for every n below MR_BOUND, about 3.3e24 (Sorenson and Webster, Math. Comp.
# 86, 2017)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on the bases _MR_BASES, exact below
    MR_BOUND; from there on CapExceeded, unless a base divides n."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n >= MR_BOUND:
        raise CapExceeded(f"primality is decided only below {MR_BOUND}")
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False  # a witnesses that n is composite
    return True


def factor_divisors(primes) -> list[tuple[int, int]]:
    """(d, k) for each divisor d of the product of ``primes`` (a list of
    primes, repeated as often as they divide), in increasing order of d; k is
    the number of prime factors of d counted with multiplicity, so d is prime
    exactly when k is 1."""
    out = {1: 0}
    for p in primes:
        out.update({d * p: k + 1 for d, k in list(out.items())})
    return sorted(out.items())


def divisors(n: int) -> list[int]:
    """The divisors of n in increasing order, built from its prime factors."""
    primes = []
    for p in prime_factors(n):
        while n % p == 0:
            primes.append(p)
            n //= p
    return [d for d, _ in factor_divisors(primes)]


def abelian_invariants(G: PermGroup) -> tuple[int, ...]:
    """Invariant factors d1 | d2 | ... of an abelian group.

    At each prime p, if p^k times as many elements have order dividing p^i
    as dividing p^(i-1), then k of the cyclic p-power factors have order at
    least p^i.  The j-th largest invariant factor is the product over p of
    the j-th largest p-power factors.
    """
    if not G.is_abelian():
        raise GroupError("abelian_invariants needs an abelian group")
    orders = order_histogram(G)
    # |G| has fewer than bit_length prime factors, so fewer invariant
    # factors, and p^i for i below it runs past the p-part of |G|
    largest = [1] * G.order.bit_length()
    for p in prime_factors(G.order):
        below = 1  # the elements of order dividing p^(i-1)
        for i in range(1, G.order.bit_length()):
            count = sum(c for o, c in orders if p ** i % o == 0)
            ratio, j = count // below, 0
            while ratio > 1:
                largest[j] *= p
                ratio //= p
                j += 1
            below = count
    return tuple(sorted(d for d in largest if d > 1))


def _fingerprint(G: PermGroup) -> tuple:
    return (G.order, order_histogram(G), len(center(G)), abelianization_order(G))


# Z3xZ3 on the points {1, 2, 3} and {4, 5, 6}
_E9 = [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]

# (order, builder) of each nonabelian reference group
_REFERENCES = [(2 * n, partial(dihedral, n)) for n in range(3, 13)] + [
    (24, partial(symmetric, 4)), (120, partial(symmetric, 5)), (720, partial(symmetric, 6)),
    (12, partial(alternating, 4)), (60, partial(alternating, 5)),
    (360, partial(alternating, 6)),
    (8, quaternion8),
    # the nonabelian order-18 and order-36 types from the A6 subgroup table
    (18, lambda: PermGroup(6, _E9 + [(1, 0, 2, 4, 3, 5)], name="(Z3xZ3):Z2")),
    (36, lambda: PermGroup(6, _E9 + [(0, 2, 1, 3, 5, 4), (3, 4, 5, 0, 2, 1)],
                           name="(Z3xZ3):Z4")),
]


@lru_cache(maxsize=None)
def _reference_fingerprints(order: int) -> dict[tuple, str]:
    """Fingerprint -> name of the reference groups of this order."""
    table: dict[tuple, str] = {}
    for n, build in _REFERENCES:
        if n != order:
            continue
        R = build()
        name = "S3" if R.name == "D3" else R.name
        key = _fingerprint(R)
        if key in table and table[key] != name:
            raise AssertionError(f"reference fingerprint collision: {table[key]} vs {name}")
        table[key] = name
    return table


def moved_points(G: PermGroup) -> list[int]:
    """The points that some generator of G moves, in increasing order."""
    return [i for i in range(G.degree) if any(g[i] != i for g in G.generators)]


def _symmetric_or_alternating(G: PermGroup) -> str | None:
    """S_d or A_d when G moves d points, 3 <= d <= 6, and has order d! or
    d!/2; None otherwise."""
    d = len(moved_points(G))
    if 3 <= d <= 6:
        if G.order == factorial(d):
            return f"S{d}"
        if 2 * G.order == factorial(d):
            return f"A{d}"
    return None


# iso_label tries, in order: the trivial group; an abelian group, named by
# its invariant factors; the moved-points rule; the fingerprints of the
# reference groups of G's order.  The rule is sound without search: G lies
# in Sym(M) for the d points M it moves, so order d! makes G = Sym(M) ~ S_d,
# and index 2 makes G the unique index-2 subgroup Alt(M) ~ A_d.  Abelian
# groups are named first, so A3 stays Z3.  It stops at d = 6, the symmetric
# and alternating names the references hold; every other group, such as
# PGL(2,5) (S5 on 6 points) or a regular representation, is fingerprinted.
def iso_label(G: PermGroup) -> str:
    if G._label is None:
        if G.order == 1:
            G._label = "1"
        elif G.is_abelian():
            G._label = "x".join(f"Z{d}" for d in abelian_invariants(G))
        else:
            G._label = (_symmetric_or_alternating(G)
                        or _reference_fingerprints(G.order).get(_fingerprint(G))
                        or f"order-{G.order} unidentified")
    return G._label


# ---------------------------------------------------------------------------
# subgroup lattice up to conjugacy


class SubgroupClassRow:
    """One conjugacy class of subgroups with its numeric invariants."""

    def __init__(self, representative: PermGroup, iso_label: str, order: int,
                 char_group_order: int, normalizer_index: int,
                 conjugates: tuple[frozenset, ...] = ()):
        self.representative = representative
        self.iso_label = iso_label
        self.order = order
        self.char_group_order = char_group_order   # |T^| = |T/[T,T]|
        self.normalizer_index = normalizer_index   # [N_G(T):T]
        self.conjugates = conjugates

    def __repr__(self) -> str:
        """The fields without the conjugates."""
        return (f"SubgroupClassRow(representative={self.representative!r}, "
                f"iso_label={self.iso_label!r}, order={self.order!r}, "
                f"char_group_order={self.char_group_order!r}, "
                f"normalizer_index={self.normalizer_index!r})")

    def numeric_key(self) -> tuple[str, int, int, int]:
        return (self.iso_label, self.order, self.char_group_order, self.normalizer_index)


class _Cayley:
    """Multiplication and conjugation tables over the indices of G.elements.

    Index i stands for ``G.elements[i]``.  The elements are sorted, so 0 is
    the identity and sorted index lists order like sorted perm lists.
    ``mul[a][b]`` is the index of a*b and ``conj[g][x]`` that of g x g^-1;
    each row is an ``array('H')``, which holds |G| <= 65,535.  The rows are
    filled along ``walk``, the orbit of the identity under left
    multiplication by the generators: row(s*a) is row(s) read at the
    entries of row(a), in both tables.  ``inner`` holds each distinct
    conjugation row once, in the order of the least g giving it: g and gz
    give one row for z central.
    """

    __slots__ = ("elements", "index", "gens", "mul", "conj", "inner")

    def __init__(self, G: PermGroup):
        elems = G.elements
        index = G.element_index()
        gens = sorted({index[s] for s in G.generators} - {0})
        left = {s: [index[compose(elems[s], x)] for x in elems] for s in gens}
        conj_by = {s: [index[conjugate(elems[s], x)] for x in elems] for s in gens}
        mul: list = [None] * len(elems)
        conj: list = [None] * len(elems)
        mul[0] = conj[0] = array("H", range(len(elems)))
        for b, a, s in walk(0, gens, lambda a, s: left[s][a])[1:]:
            mul[b] = array("H", itemgetter(*mul[a])(left[s]))
            conj[b] = array("H", itemgetter(*conj[a])(conj_by[s]))
        self.elements = elems
        self.index = index
        self.gens = gens
        self.mul = mul
        self.conj = conj
        inner: dict[bytes, array] = {}
        for row in conj:
            inner.setdefault(row.tobytes(), row)
        self.inner = list(inner.values())

    def indices(self, perms) -> frozenset:
        index = self.index
        return frozenset([index[x] for x in perms])

    def perms(self, idx) -> frozenset:
        elems = self.elements
        return frozenset([elems[i] for i in idx])

    def normalizer(self, sub: frozenset, gens) -> list:
        """The conjugation rows of the g in G with g sub g^-1 = sub, for the
        index set ``sub`` generated by the indices ``gens``.  Conjugation by g
        is an automorphism, so g<S>g^-1 = <gSg^-1>: a row that maps the
        generators into sub maps sub onto itself, as the orders agree."""
        return [row for row in self.inner if all(row[x] in sub for x in gens)]


# one group's tables at a time: a lattice, the factorizations read from it
# and kG share them, and a larger cache would hold megabytes per group
@lru_cache(maxsize=1)
def _cayley(G: PermGroup) -> _Cayley:
    return _Cayley(G)


def _join(mul: list, H: frozenset, gens: tuple[int, ...]) -> frozenset:
    """<H, gens> for a subgroup H whose generators are among ``gens``.

    Dimino's method: the result is a union of left cosets tH, and the coset
    representatives are closed under left multiplication by ``gens``.
    """
    elems = set(H)
    # row u gives the coset uH; the index 0 (u*0 = u, in uH) makes the
    # getter return a tuple even when H is trivial
    coset = itemgetter(0, *H)
    reps = [0]
    for t in reps:
        for s in gens:
            u = mul[s][t]
            if u not in elems:
                elems.update(coset(mul[u]))
                reps.append(u)
    return frozenset(elems)


@lru_cache(maxsize=64)
def _subgroup_lattice(G: PermGroup) -> tuple[tuple[frozenset, tuple[Perm, ...], tuple[frozenset, ...]], ...]:
    """Conjugacy classes of subgroups: (representative set, gens, full orbit).

    Bottom-up: seed with the cyclic subgroups, each with its least generator,
    then close under joins of class representatives with cyclic subgroups.
    Every subgroup is a join of its cyclic subgroups, so the fixpoint is
    complete.  A class is listed when first found; its representative is the
    least orbit member under ``key=sorted``, and its generators are those of
    the subgroup found, conjugated by the least g in G that carries it to the
    representative.  The work runs on element indices over the Cayley tables
    of G; perm frozensets are formed only for the result.  Each conjugation
    test reads generators only: ``cyc_of[x]`` is the position of <x> among
    the cyclic subgroups, so g<x>g^-1 = <gxg^-1> is found from one index.
    Past LATTICE_WORK_CAP (classes times cyclic subgroups) raises
    CapExceeded as soon as the classes found pass it.
    """
    if G.order > SUBGROUP_CAP:
        raise CapExceeded(f"subgroup lattice needs |G| <= {SUBGROUP_CAP}")
    cay = _cayley(G)
    mul = cay.mul
    gen_conj = [cay.conj[s] for s in cay.gens]

    cyclic_gen: dict[frozenset, int] = {}
    least = [0]  # least[x]: the least generator of <x>
    for x in range(1, G.order):
        row = mul[x]
        powers = [0, x]
        y = row[x]
        while y:
            powers.append(y)
            y = row[y]
        least.append(cyclic_gen.setdefault(frozenset(powers), x))
    cyclics = sorted(cyclic_gen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))
    position = {gen: pos for pos, (_sub, gen) in enumerate(cyclics)}
    cyc_of = [position.get(gen, -1) for gen in least]

    known: dict[frozenset, int] = {}
    classes: list[tuple[frozenset, tuple[int, ...], list[frozenset]]] = []

    def register(sub: frozenset, gens: tuple[int, ...]) -> None:
        # each class found is taken up once and tries every cyclic subgroup
        if (len(classes) + 1) * len(cyclics) > LATTICE_WORK_CAP:
            raise CapExceeded(f"subgroup lattice work exceeds cap {LATTICE_WORK_CAP}: "
                              f"{len(classes) + 1} classes of subgroups found, "
                              f"{len(cyclics)} cyclic subgroups to try in each")
        orbit = walk(sub, gen_conj, lambda member, row: frozenset([row[x] for x in member]))
        orbit_sorted = sorted([y for y, _, _ in orbit], key=sorted)
        rep = orbit_sorted[0]
        rep_gens = gens
        if rep != sub:
            row = next(row for row in cay.inner if all(row[x] in rep for x in gens))
            rep_gens = tuple(row[x] for x in gens)
        cid = len(classes)
        classes.append((rep, rep_gens, orbit_sorted))
        for member in orbit_sorted:
            known[member] = cid

    register(frozenset([0]), ())
    for sub, gen in cyclics:
        if sub not in known:
            register(sub, (gen,))

    # Conjugating by n in N(rep) carries <rep, C> to <rep, nCn^-1>, so of each
    # N(rep)-orbit of cyclic subgroups only the first is joined: the others
    # give subgroups already known (the cyclic extension method, Neubueser 1960).
    # As n<x>n^-1 = <nxn^-1>, that orbit is marked through cyc_of.
    idx = 0
    while idx < len(classes):
        rep, rep_gens, _orbit = classes[idx]
        idx += 1
        if len(rep) == G.order:
            continue
        normalizer = cay.normalizer(rep, rep_gens)
        tried = bytearray(len(cyclics))
        for pos, (_sub, gen) in enumerate(cyclics):
            if tried[pos] or gen in rep:
                continue
            for row in normalizer:
                tried[cyc_of[row[gen]]] = 1
            join = _join(mul, rep, rep_gens + (gen,))
            if join not in known:
                register(join, rep_gens + (gen,))

    # convert class by class, releasing the index sets as we go, so the two
    # forms of the lattice are never held in full at once
    known.clear()
    elems = G.elements
    lattice = []
    for cid, (rep, gens, orbit) in enumerate(classes):
        classes[cid] = None
        lattice.append((cay.perms(rep), tuple(elems[i] for i in gens),
                        tuple(cay.perms(member) for member in orbit)))
    return tuple(lattice)


def subgroup_classes(G: PermGroup, cap: int = SUBGROUP_CAP) -> list[SubgroupClassRow]:
    """One row per conjugacy class of subgroups, sorted by (order, iso label)."""
    if G.order > cap:
        raise CapExceeded(f"|G| = {G.order} exceeds cap {cap}")
    rows = []
    for rep, gens, orbit in _subgroup_lattice(G):
        T = PermGroup(G.degree, list(gens), _elements=tuple(sorted(rep)))
        n_index = G.order // (len(orbit) * T.order)
        rows.append(SubgroupClassRow(
            representative=T,
            iso_label=iso_label(T),
            order=T.order,
            char_group_order=abelianization_order(T),
            normalizer_index=n_index,
            conjugates=orbit,
        ))
    rows.sort(key=lambda r: (r.order, r.iso_label))
    return rows


# ---------------------------------------------------------------------------
# normal subgroups, quotients, composition series


@lru_cache(maxsize=64)
def normal_subgroups(G: PermGroup) -> tuple[PermGroup, ...]:
    """All normal subgroups: each is the join of the classes it holds, and
    the normal closure of a class's least member holds the whole class."""
    e = G.identity()
    reps = [cls[0] for cls in conjugacy_classes(G) if cls[0] != e]
    # each subgroup found, with the class members whose normal closure it is
    found: dict[frozenset, list[Perm]] = {frozenset([e]): []}
    frontier = [frozenset([e])]
    while frontier:
        new: list[frozenset] = []
        for base in frontier:
            for x in reps:
                if x in base:
                    continue
                gens = found[base] + [x]
                sub = normal_closure(G, gens).element_set()
                if sub not in found:
                    found[sub] = gens
                    new.append(sub)
        frontier = new
    return tuple(from_elements(G.degree, sub)
                 for sub in sorted(found, key=lambda s: (len(s), sorted(s))))


def is_normal(G: PermGroup, N: PermGroup) -> bool:
    nset = N.element_set()
    return all(conjugate(g, x) in nset for g in G.generators for x in N.generators)


def quotient_group(G: PermGroup, N: PermGroup) -> tuple[PermGroup, dict[Perm, Perm]]:
    """G/N as a permutation group on the left cosets of N, with the projection.

    Cosets are numbered in the order of their least members, Q is generated
    by the images of G's generators, and ``proj[g]`` is the image of g in Q:
    coset i goes to the coset of g r_i, r_i the least member of coset i.
    """
    if not is_normal(G, N):
        raise GroupError("quotient by a non-normal subgroup")
    coset_of: dict[Perm, int] = {}
    reps: list[Perm] = []
    for g in G.elements:
        if g not in coset_of:
            for x in N.elements:
                coset_of[compose(g, x)] = len(reps)
            reps.append(g)
    Q = PermGroup(len(reps), [tuple(coset_of[compose(s, r)] for r in reps)
                              for s in G.generators])
    # Q acts regularly on the cosets and coset 0 is N, so the image of g is
    # the one element of Q that carries coset 0 to the coset of g
    image = {q[0]: q for q in Q.elements}
    return Q, {g: image[coset_of[g]] for g in G.elements}


def composition_factors(G: PermGroup) -> list[tuple[str, int]]:
    """Sorted (label, order) of the simple factors of a maximal chain."""
    if G.order == 1:
        return []
    normals = [N for N in normal_subgroups(G) if N.order < G.order]
    M = max(normals, key=lambda N: N.order)
    Q, _ = quotient_group(G, M)
    return sorted(composition_factors(M) + [(iso_label(Q), Q.order)])


def composition_series_group(G: PermGroup) -> list[str]:
    """Multiset (sorted list) of simple-factor labels of a maximal chain."""
    return [label for label, _ in composition_factors(G)]


def is_simple(G: PermGroup) -> bool:
    """G is not 1 and each class's least member has normal closure G."""
    e = G.identity()
    return G.order > 1 and all(normal_closure(G, [cls[0]]).order == G.order
                               for cls in conjugacy_classes(G) if cls[0] != e)


# ---------------------------------------------------------------------------
# exact factorizations  G = A.B  with  A meet B = {e}


class ExactFactorizationG:
    def __init__(self, ambient: PermGroup, left: PermGroup, right: PermGroup):
        self.ambient = ambient
        self.left = left
        self.right = right

    def verify(self) -> bool:
        """|A||B| = |G| and the product map bijective, so A meets B trivially."""
        return self.refactor() is not None

    def refactor(self) -> dict | None:
        """{ab: (i, j)} over a = A.elements[i] and b = B.elements[j] when the
        |A||B| = |G| products are the elements of G, each once; else None."""
        A, B, G = self.left, self.right, self.ambient
        if A.order * B.order != G.order:
            return None
        products = {compose(a, b): (i, j) for i, a in enumerate(A.elements)
                    for j, b in enumerate(B.elements)}
        exact = len(products) == G.order and products.keys() <= G.element_set()
        return products if exact else None

    def labels(self) -> tuple[str, str]:
        return (iso_label(self.left), iso_label(self.right))


def exact_factorizations(G: PermGroup, proper_only: bool = True) -> list[ExactFactorizationG]:
    """All exact factorizations up to conjugacy of the pair and swapping.

    Every returned pair is re-verified through the unique-factorization
    bijection; the larger factor is reported on the left.  Past
    FACTORIZATION_CAP factorizations found, before the swap dedupe, raises
    CapExceeded before any is built.
    """
    lattice = _subgroup_lattice(G)
    cay = _cayley(G)
    by_order: dict[int, list[int]] = {}
    for i, (rep, _gens, _orbit) in enumerate(lattice):
        by_order.setdefault(len(rep), []).append(i)

    # first the complements, one per N(A)-orbit, counted against the cap
    # before any is built: the N(A)-orbits of those taken are index sets
    index = cay.index
    pairs: list[tuple[int, int, frozenset]] = []  # (class of A, class of B, B)
    for i, (repA, gensA, _orbitA) in enumerate(lattice):
        a = len(repA)
        if G.order % a:
            continue
        b = G.order // a
        if a < b:
            continue  # larger factor goes on the left; swap handled below
        if proper_only and b == 1:
            continue
        normA = cay.normalizer(cay.indices(repA), [index[g] for g in gensA])
        for j in by_order.get(b, []):
            found: set[frozenset] = set()
            for candB in lattice[j][2]:
                if len(repA & candB) != 1:
                    continue
                idxB = cay.indices(candB)
                if idxB in found:
                    continue
                found.update([frozenset([row[x] for x in idxB]) for row in normA])
                pairs.append((i, j, candB))
                if len(pairs) > FACTORIZATION_CAP:
                    raise CapExceeded(f"exact factorizations exceed cap {FACTORIZATION_CAP}")

    # then each is built and verified.  Equal-order pairs may coincide after
    # swapping plus conjugation: a pair (A, B) of classes (i, j) can only be
    # carried onto a kept pair (B', A') of classes (j, i), by a g that maps
    # the generators of A into B' and those of B into A', as conjugation
    # keeps orders.
    deduped: list[ExactFactorizationG] = []
    kept: dict[tuple[int, int], list[tuple[frozenset, frozenset]]] = {}
    lefts: dict[int, PermGroup] = {}
    for i, j, candB in pairs:
        if i not in lefts:
            repA, gensA, _orbitA = lattice[i]
            lefts[i] = PermGroup(G.degree, list(gensA), _elements=tuple(sorted(repA)))
        fact = ExactFactorizationG(ambient=G, left=lefts[i],
                                   right=from_elements(G.degree, candB))
        if not fact.verify():
            raise GroupError("internal: factorization candidate failed verification")
        ga = [index[x] for x in fact.left.generators]
        gb = [index[x] for x in fact.right.generators]
        if any(all(row[x] in pb for x in ga) and all(row[x] in pa for x in gb)
               for pa, pb in kept.get((j, i), ()) for row in cay.inner):
            continue
        deduped.append(fact)
        kept.setdefault((i, j), []).append(
            (cay.indices(fact.left.elements), cay.indices(fact.right.elements)))
    deduped.sort(key=lambda f: (-f.left.order, f.labels()))
    return deduped


# ---------------------------------------------------------------------------


def named_group(name: str, cap: int = ORDER_CAP) -> PermGroup:
    """Resolve CLI-style group names: a6, s5, z12, d4, q8, v4, z2xz4, ...

    A group built by closure whose order or degree x order is above its cap
    is refused (CapExceeded) before any perm is built."""
    key = name.strip().lower()
    if key in ("1", "triv", "trivial"):
        return trivial_group()
    if key == "v4":
        return klein_four()
    if key == "q8":
        return quaternion8()
    if "x" in key:
        parts = key.split("x")
        if all(p.startswith("z") and p[1:].isdecimal() for p in parts):
            return abelian_group([_name_number(p[1:], cap) for p in parts], cap)
        raise GroupError(f"unknown group name: {name!r}")
    builder = {"a": alternating, "s": symmetric, "z": cyclic, "c": cyclic,
               "d": dihedral}.get(key[:1])
    if builder is not None and key[1:].isdecimal():
        return builder(_name_number(key[1:], cap), cap)
    raise GroupError(f"unknown group name: {name!r}")


def _name_number(digits: str, cap: int) -> int:
    """The n of a builtin name.  Each builder's order is at least n past
    the trivial cases, so one with more digits than ``cap`` is refused
    before int() reads it (int() refuses more than 4300 digits)."""
    digits = digits.lstrip("0") or "0"
    if len(digits) > len(str(max(cap, 1))):
        raise CapExceeded(f"group order exceeds cap {cap}")
    return int(digits)
