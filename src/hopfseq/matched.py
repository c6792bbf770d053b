"""Matched pairs of finite groups.

A matched pair (G, Gamma) is two groups with mutual actions
``|> : Gamma x G -> G`` and ``<| : Gamma x G -> Gamma`` satisfying

    s |> xy   = (s |> x)((s <| x) |> y)
    st <| x   = (s <| (t |> x))(t <| x)

for all s, t in Gamma and x, y in G.  Equivalently: a group E with an
exact factorization E = G.Gamma, the actions being read off from the
unique refactorization  s x = (s |> x)(s <| x).
"""

from __future__ import annotations

from .groups import ExactFactorizationG, GroupError, PermGroup, _cayley
from .perm import Perm, compose


class MatchedPair:
    """Mutual actions of (G, Gamma), stored as two index tables.

    An element is its index in ``G.elements`` or ``Gamma.elements``, the
    identity 0.  Row s of each table is the Gamma element of index s, column
    x the G element of index x: ``lt[s][x]`` is the index of s |> x in G and
    ``rt[s][x]`` that of s <| x in Gamma: the rows that hopf._extension reads
    and a pair dump's [TRIANGLE_LEFT] and [TRIANGLE_RIGHT] sections hold.
    The tables are kept as tuples of tuples, so rows may be shared and none
    is written; equal fields give equal pairs, so that the frozen records
    holding a pair (BicrossedOrigin, BicrossedRef) compare by value.
    """

    def __init__(self, G: PermGroup, Gamma: PermGroup, lt, rt):
        self.G = G
        self.Gamma = Gamma
        self.lt = tuple(map(tuple, lt))
        self.rt = tuple(map(tuple, rt))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.G, self.Gamma, self.lt, self.rt)
                == (other.G, other.Gamma, other.lt, other.rt))

    def rtri(self, s: Perm, x: Perm) -> Perm:
        """s |> x."""
        return self.G.elements[self.lt[self.Gamma.element_index()[s]][self.G.element_index()[x]]]

    def ltri(self, s: Perm, x: Perm) -> Perm:
        """s <| x."""
        at = self.Gamma.element_index()
        return self.Gamma.elements[self.rt[at[s]][self.G.element_index()[x]]]


class CompatibilityReport:
    def __init__(self, violations: list[tuple] | None = None):
        self.violations = [] if violations is None else violations

    @property
    def valid(self) -> bool:
        return not self.violations


def trivial_pair(G: PermGroup, Gamma: PermGroup) -> MatchedPair:
    row = tuple(range(G.order))
    return MatchedPair(G, Gamma, [row] * Gamma.order, [(s,) * G.order for s in range(Gamma.order)])


def drinfeld_pair(G: PermGroup) -> MatchedPair:
    """The pair (G, G) with <| the adjoint action, s <| x = x^-1 s x, and
    |> trivial: column x of <| is the conjugation row of x^-1."""
    cay = _cayley(G)
    by_inverse = [cay.conj[row.index(0)] for row in cay.mul]
    return MatchedPair(G, G, [tuple(range(G.order))] * G.order, zip(*by_inverse))


def from_factorization(E: PermGroup, G: PermGroup, Gamma: PermGroup) -> MatchedPair:
    """Read the action tables off an exact factorization E = G.Gamma.

    Each product s*x (s in Gamma, x in G) factors uniquely as x'*s' with
    x' in G, s' in Gamma; then s |> x = x' and s <| x = s'.
    """
    refactor = ExactFactorizationG(ambient=E, left=G, right=Gamma).refactor()
    if refactor is None:
        raise GroupError("(E, G, Gamma) is not an exact factorization")
    pairs = [[refactor[compose(s, x)] for x in G.elements] for s in Gamma.elements]
    mp = MatchedPair(G, Gamma, [[xp for xp, _ in row] for row in pairs],
                     [[sp for _, sp in row] for row in pairs])
    report = verify_compatibility(mp)
    if not report.valid:
        raise GroupError(f"internal: factorization actions fail compatibility: {report.violations[:3]}")
    return mp


def verify_compatibility(mp: MatchedPair) -> CompatibilityReport:
    """Exhaustively check the matched-pair identities and bijectivity.

    The report lists each violated instance as a tagged tuple of elements
    (perms); an empty report means the pair is valid.  An entry outside its
    group is reported alone, as no identity can be read through it.  The
    identities are decided on the Cayley tables of Gamma and G.
    """
    report = CompatibilityReport()
    bad = report.violations
    gs, xs = mp.Gamma.elements, mp.G.elements
    m, n = len(gs), len(xs)
    lt, rt = mp.lt, mp.rt
    for s in range(m):
        for x in range(n):
            if not 0 <= lt[s][x] < n:
                bad.append(("range-left", gs[s], xs[x]))
            if not 0 <= rt[s][x] < m:
                bad.append(("range-right", gs[s], xs[x]))
    if bad:
        return report
    # Gamma first: bicrossed_product then finds G's table cached
    gmul = _cayley(mp.Gamma).mul
    mul = _cayley(mp.G).mul
    # unit conditions forced by the compatibility equations
    for x in range(n):
        if lt[0][x] != x:
            bad.append(("unit-left", xs[x]))
        if rt[0][x] != 0:
            bad.append(("unit-right", xs[x]))
    for s in range(m):
        if lt[s][0] != 0:
            bad.append(("unit-left-e", gs[s]))
        if rt[s][0] != s:
            bad.append(("unit-right-e", gs[s]))
    # bijectivity of each partial map
    for x in range(n):
        if len({row[x] for row in rt}) != m:
            bad.append(("not-bijective-right", xs[x]))
    for s in range(m):
        if len(set(lt[s])) != n:
            bad.append(("not-bijective-left", gs[s]))
    # s |> xy = (s |> x)((s <| x) |> y)
    for s in range(m):
        row = lt[s]
        for x in range(n):
            left, acted = mul[row[x]], lt[rt[s][x]]
            for y, xy in enumerate(mul[x]):
                if row[xy] != left[acted[y]]:
                    bad.append(("left-compat", gs[s], xs[x], xs[y]))
    # st <| x = (s <| (t |> x))(t <| x)
    for s in range(m):
        row = rt[s]
        for t, st in enumerate(gmul[s]):
            acted = rt[st]
            for x, (tx, right) in enumerate(zip(lt[t], rt[t])):
                if acted[x] != gmul[row[tx]][right]:
                    bad.append(("right-compat", gs[s], gs[t], xs[x]))
    return report


def zappa_szep_reconstruction(mp: MatchedPair):
    """Rebuild the ambient group law on G x Gamma from the actions.

    Returns (pairs, mul) where mul is the product on index pairs, read off
    the action tables and the Cayley tables of G and Gamma:
    (x, s)(y, t) = (x (s |> y), (s <| y) t), pair (x, s) at x |Gamma| + s.
    """
    pairs = [(x, s) for x in mp.G.elements for s in mp.Gamma.elements]
    m = mp.Gamma.order
    gmul, xmul = _cayley(mp.Gamma).mul, _cayley(mp.G).mul
    lt, rt = mp.lt, mp.rt

    def mul(i: int, j: int) -> int:
        x, s = divmod(i, m)
        y, t = divmod(j, m)
        return xmul[x][lt[s][y]] * m + gmul[rt[s][y]][t]

    return pairs, mul


def reconstruction_matches_ambient(mp: MatchedPair, E: PermGroup) -> bool:
    """Check (x, s) -> x*s is an isomorphism onto E (multiplication tables)."""
    pairs, mul = zappa_szep_reconstruction(mp)
    image = [compose(x, s) for x, s in pairs]
    if sorted(image) != list(E.elements):
        return False
    at = E.element_index()
    pos = [at[p] for p in image]
    emul = _cayley(E).mul
    n = len(pairs)
    return all(emul[pos[i]][pos[j]] == pos[mul(i, j)] for i in range(n) for j in range(n))
