"""Two-cocycles on finite groups with root-of-unity values.

A cocycle is stored through exponents: psi(a, b) = zeta_N^table[a, b].
The cocycle identity, normalization, coboundary tests and the conjugate
twist psi^g all live here.
"""

from __future__ import annotations

from itertools import product
from math import lcm

from .groups import PermGroup, pow_perm, small_generating_set, walk
from .perm import Perm, compose, inverse, perm_order
from .record import Frozen


# largest carrier the exhaustive coboundary search takes on
SEARCH_CAP = 16


class CocycleError(ValueError):
    pass


class TwoCocycle(Frozen):
    """Normalized 2-cocycle on a carrier group, exponents mod the conductor."""

    __slots__ = ("carrier", "conductor", "table")

    def __init__(self, carrier: PermGroup, conductor: int,
                 table: dict[tuple[Perm, Perm], int]):
        self._set(carrier, conductor, {k: v % conductor for k, v in table.items()})

    def value(self, a: Perm, b: Perm) -> int:
        return self.table[(a, b)]

    def is_trivial_table(self) -> bool:
        return all(v == 0 for v in self.table.values())

    def validate(self) -> list[tuple]:
        """Violations of totality, normalization or the cocycle identity."""
        T, N = self.carrier, self.conductor
        bad: list[tuple] = []
        e = T.identity()
        for a, b in product(T.elements, repeat=2):
            if (a, b) not in self.table:
                bad.append(("missing", a, b))
        if bad:
            return bad
        for a in T.elements:
            if self.value(e, a) % N or self.value(a, e) % N:
                bad.append(("not-normalized", a))
        for a, b, c in product(T.elements, repeat=3):
            lhs = self.value(a, b) + self.value(compose(a, b), c)
            rhs = self.value(b, c) + self.value(a, compose(b, c))
            if (lhs - rhs) % N:
                bad.append(("cocycle-identity", a, b, c))
        return bad


def trivial_cocycle(T: PermGroup, conductor: int = 1) -> TwoCocycle:
    table = {(a, b): 0 for a in T.elements for b in T.elements}
    return TwoCocycle(carrier=T, conductor=conductor, table=table)


def bilinear_cocycle(T: PermGroup, pairing, conductor: int) -> TwoCocycle:
    """Cocycle from a bilinear exponent pairing (a, b) -> int on an abelian T."""
    table = {(a, b): pairing(a, b) % conductor
             for a in T.elements for b in T.elements}
    psi = TwoCocycle(carrier=T, conductor=conductor, table=table)
    bad = psi.validate()
    if bad:
        raise CocycleError(f"pairing is not a cocycle: {bad[:3]}")
    return psi


def nondegenerate_v4_cocycle(T: PermGroup) -> TwoCocycle:
    """A cohomologically nontrivial cocycle on a Klein four group.

    Writes each element over two generators and pairs the cross exponents.
    """
    gens = small_generating_set(T.elements, T.degree)
    if T.order != 4 or len(gens) != 2:
        raise CocycleError("carrier is not a Klein four group")
    a, b = gens
    coords = {}
    for i in range(2):
        for j in range(2):
            x = compose(pow_perm(a, i), pow_perm(b, j))
            coords[x] = (i, j)
    return bilinear_cocycle(T, lambda x, y: coords[x][1] * coords[y][0], 2)


def exponent_of(T: PermGroup) -> int:
    exp = 1
    for x in T.elements:
        exp = lcm(exp, perm_order(x))
    return exp


def is_symmetric_cocycle(psi: TwoCocycle) -> bool:
    """Vanishing of the alternating form psi(a,b) - psi(b,a) (exponents)."""
    N = psi.conductor
    return all((psi.value(a, b) - psi.value(b, a)) % N == 0
               for a in psi.carrier.elements for b in psi.carrier.elements)


def coboundary_search(psi: TwoCocycle) -> bool:
    """Decide by exhaustive search whether psi is a coboundary in k^*.

    Any trivializing mu automatically takes values in the roots of unity of
    order N * exp(T), so candidates are enumerated there: mu is fixed on a
    generating set and forced everywhere else by
    mu(x g) = mu(x) + mu(g) - psi(x, g).
    """
    T = psi.carrier
    if T.order > SEARCH_CAP:
        raise CocycleError(f"coboundary search capped at carrier order {SEARCH_CAP}")
    M = psi.conductor * exponent_of(T)
    lift = M // psi.conductor
    e = T.identity()
    gens = small_generating_set(T.elements, T.degree) or [e]

    # every element but e, reached as (element reached earlier) * generator
    order = walk(e, gens, compose)[1:]

    elems = T.elements
    for assignment in product(range(M), repeat=len(gens)):
        mu = {e: 0}
        for g, v in zip(gens, assignment):
            mu[g] = v
        ok = True
        for y, x, g in order:
            val = (mu[x] + mu[g] - lift * psi.value(x, g)) % M
            if y in mu:
                if mu[y] != val:
                    ok = False
                    break
            else:
                mu[y] = val
        if not ok:
            continue
        if all((mu[a] + mu[b] - mu[compose(a, b)] - lift * psi.value(a, b)) % M == 0
               for a in elems for b in elems):
            return True
    return False


def cocycle_class_trivial(T: PermGroup, psi: TwoCocycle) -> bool:
    """Is the class of psi trivial in H^2(T, k^*)?

    Abelian carriers use the alternating-form criterion (symmetric iff
    coboundary); other carriers fall back to the exhaustive search.
    """
    if psi.carrier != T:
        raise CocycleError("cocycle carrier mismatch")
    if T.is_abelian():
        return is_symmetric_cocycle(psi)
    return coboundary_search(psi)


def conjugate_twisted(psi: TwoCocycle, g: Perm) -> TwoCocycle:
    """psi^g(h1, h2) = psi(h1, h2) * psi(g^-1 h2^-1 g, g^-1 h1^-1 g)."""
    T = psi.carrier
    ginv = inverse(g)

    def move(h: Perm) -> Perm:
        return compose(compose(ginv, inverse(h)), g)

    table = {}
    for h1 in T.elements:
        for h2 in T.elements:
            m2, m1 = move(h2), move(h1)
            if m2 not in T or m1 not in T:
                raise CocycleError("conjugator does not normalize the carrier")
            table[(h1, h2)] = psi.value(h1, h2) + psi.value(m2, m1)
    return TwoCocycle(carrier=T, conductor=psi.conductor, table=table)


# ---------------------------------------------------------------------------
# cocycle pair (sigma, tau) for bicrossed products


class PairedCocycles(Frozen):
    """sigma: G x G -> (k^*)^Gamma and tau: Gamma x Gamma -> (k^*)^G.

    Stored as exponent tables sigma[(g, x, y)] for sigma_g(x, y) and
    tau[(x, s, t)] for tau_x(s, t), all mod the conductor.
    """

    __slots__ = ("conductor", "sigma", "tau")

    def __init__(self, conductor: int, sigma: dict[tuple[Perm, Perm, Perm], int],
                 tau: dict[tuple[Perm, Perm, Perm], int]):
        self._set(conductor, sigma, tau)

    def sigma_at(self, g: Perm, x: Perm, y: Perm) -> int:
        return self.sigma[(g, x, y)] % self.conductor

    def tau_at(self, x: Perm, s: Perm, t: Perm) -> int:
        return self.tau[(x, s, t)] % self.conductor

    def normalized(self, G: PermGroup, Gamma: PermGroup) -> bool:
        eG, eGamma = G.identity(), Gamma.identity()
        N = self.conductor
        for x in G.elements:
            for g in Gamma.elements:
                if self.sigma_at(g, x, eG) % N or self.sigma_at(g, eG, x) % N:
                    return False
        for x in G.elements:
            for y in G.elements:
                if self.sigma_at(eGamma, x, y) % N:
                    return False
        for s in Gamma.elements:
            for t in Gamma.elements:
                if self.tau_at(eG, s, t) % N:
                    return False
            for x in G.elements:
                if self.tau_at(x, s, eGamma) % N or self.tau_at(x, eGamma, s) % N:
                    return False
        return True


def trivial_paired_cocycles(G: PermGroup, Gamma: PermGroup, conductor: int = 1) -> PairedCocycles:
    sigma = {(g, x, y): 0 for g in Gamma.elements for x in G.elements for y in G.elements}
    tau = {(x, s, t): 0 for x in G.elements for s in Gamma.elements for t in Gamma.elements}
    return PairedCocycles(conductor=conductor, sigma=sigma, tau=tau)
