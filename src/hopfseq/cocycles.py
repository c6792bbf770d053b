"""Two-cocycles on finite groups with root-of-unity values.

A cocycle is stored through exponents: psi(a, b) = zeta_N^table[a, b].
The cocycle identity, normalization, coboundary tests and the conjugate
twist psi^g all live here.
"""

from __future__ import annotations

from itertools import product
from math import lcm

from .groups import CapExceeded, PermGroup, small_generating_set, walk
from .perm import Perm, compose, inverse, perm_order
from .record import Frozen


# largest carrier the exhaustive coboundary search takes on
SEARCH_CAP = 16


class CocycleError(ValueError):
    pass


class CocycleCapExceeded(CocycleError, CapExceeded):
    """A cocycle computation refused by a size cap."""


class TwoCocycle(Frozen):
    """Normalized 2-cocycle on a carrier group, exponents mod the conductor.
    Only the nonzero exponents are kept: a missing entry is 0."""

    __slots__ = ("carrier", "conductor", "table")

    def __init__(self, carrier: PermGroup, conductor: int,
                 table: dict[tuple[Perm, Perm], int]):
        self._set(carrier, conductor,
                  {k: v % conductor for k, v in table.items() if v % conductor})

    def value(self, a: Perm, b: Perm) -> int:
        return self.table.get((a, b), 0)

    def is_trivial_table(self) -> bool:
        return not self.table

    def validate(self) -> list[tuple]:
        """Violations of normalization or the cocycle identity."""
        T, N = self.carrier, self.conductor
        bad: list[tuple] = []
        e = T.identity()
        for a in T.elements:
            if self.value(e, a) or self.value(a, e):
                bad.append(("not-normalized", a))
        for a, b, c in product(T.elements, repeat=3):
            lhs = self.value(a, b) + self.value(compose(a, b), c)
            rhs = self.value(b, c) + self.value(a, compose(b, c))
            if (lhs - rhs) % N:
                bad.append(("cocycle-identity", a, b, c))
        return bad


def trivial_cocycle(T: PermGroup, conductor: int = 1) -> TwoCocycle:
    return TwoCocycle(carrier=T, conductor=conductor, table={})


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
        raise CocycleCapExceeded(f"coboundary search capped at carrier order {SEARCH_CAP}")
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
    tau[(x, s, t)] for tau_x(s, t), mod the conductor.  Only the nonzero
    exponents are kept: a missing entry is 0.
    """

    __slots__ = ("conductor", "sigma", "tau")

    def __init__(self, conductor: int, sigma: dict[tuple[Perm, Perm, Perm], int],
                 tau: dict[tuple[Perm, Perm, Perm], int]):
        self._set(conductor, {k: v % conductor for k, v in sigma.items() if v % conductor},
                  {k: v % conductor for k, v in tau.items() if v % conductor})

    def sigma_at(self, g: Perm, x: Perm, y: Perm) -> int:
        return self.sigma.get((g, x, y), 0)

    def tau_at(self, x: Perm, s: Perm, t: Perm) -> int:
        return self.tau.get((x, s, t), 0)

    def normalized(self, G: PermGroup, Gamma: PermGroup) -> bool:
        """No stored (nonzero) exponent has an identity argument: sigma_e,
        sigma_g(e, x), sigma_g(x, e), tau_e, tau_x(e, s) and tau_x(s, e)
        vanish."""
        eG, eGamma = G.identity(), Gamma.identity()
        return not (any(g == eGamma or eG in (x, y) for g, x, y in self.sigma)
                    or any(x == eG or eGamma in (s, t) for x, s, t in self.tau))


def trivial_paired_cocycles(G: PermGroup, Gamma: PermGroup, conductor: int = 1) -> PairedCocycles:
    return PairedCocycles(conductor=conductor, sigma={}, tau={})
