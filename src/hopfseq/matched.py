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

from .groups import ExactFactorizationG, GroupError, PermGroup
from .perm import Perm, compose


class MatchedPair:
    """Mutual actions of (G, Gamma), stored as dense lookup tables.

    Equal fields give equal pairs, so that the frozen records holding a pair
    (BicrossedOrigin, BicrossedRef) compare by value.
    """

    def __init__(self, G: PermGroup, Gamma: PermGroup,
                 left_action: dict[tuple[Perm, Perm], Perm],
                 right_action: dict[tuple[Perm, Perm], Perm]):
        self.G = G
        self.Gamma = Gamma
        self.left_action = left_action    # (s, x) -> s |> x  in G
        self.right_action = right_action  # (s, x) -> s <| x  in Gamma

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.G, self.Gamma, self.left_action, self.right_action)
                == (other.G, other.Gamma, other.left_action, other.right_action))

    def rtri(self, s: Perm, x: Perm) -> Perm:
        """s |> x."""
        return self.left_action[(s, x)]

    def ltri(self, s: Perm, x: Perm) -> Perm:
        """s <| x."""
        return self.right_action[(s, x)]


class CompatibilityReport:
    def __init__(self, violations: list[tuple] | None = None):
        self.violations = [] if violations is None else violations

    @property
    def valid(self) -> bool:
        return not self.violations


def trivial_pair(G: PermGroup, Gamma: PermGroup) -> MatchedPair:
    left = {(s, x): x for s in Gamma.elements for x in G.elements}
    right = {(s, x): s for s in Gamma.elements for x in G.elements}
    return MatchedPair(G=G, Gamma=Gamma, left_action=left, right_action=right)


def drinfeld_pair(G: PermGroup) -> MatchedPair:
    """The pair (G, G) with <| the adjoint action and |> trivial."""
    from .perm import inverse

    left = {}
    right = {}
    for s in G.elements:
        for x in G.elements:
            left[(s, x)] = x
            right[(s, x)] = compose(compose(inverse(x), s), x)
    return MatchedPair(G=G, Gamma=G, left_action=left, right_action=right)


def from_factorization(E: PermGroup, G: PermGroup, Gamma: PermGroup) -> MatchedPair:
    """Read the action tables off an exact factorization E = G.Gamma.

    Each product s*x (s in Gamma, x in G) factors uniquely as x'*s' with
    x' in G, s' in Gamma; then s |> x = x' and s <| x = s'.
    """
    fact = ExactFactorizationG(ambient=E, left=G, right=Gamma)
    if not fact.verify():
        raise GroupError("(E, G, Gamma) is not an exact factorization")
    refactor: dict[Perm, tuple[Perm, Perm]] = {}
    for x in G.elements:
        for s in Gamma.elements:
            prod = compose(x, s)
            if prod in refactor:
                raise GroupError("internal: factorization is not unique")
            refactor[prod] = (x, s)
    left = {}
    right = {}
    for s in Gamma.elements:
        for x in G.elements:
            xp, sp = refactor[compose(s, x)]
            left[(s, x)] = xp
            right[(s, x)] = sp
    mp = MatchedPair(G=G, Gamma=Gamma, left_action=left, right_action=right)
    report = verify_compatibility(mp)
    if not report.valid:
        raise GroupError(f"internal: factorization actions fail compatibility: {report.violations[:3]}")
    return mp


def verify_compatibility(mp: MatchedPair) -> CompatibilityReport:
    """Exhaustively check the matched-pair identities and bijectivity.

    The report lists each violated instance as a tagged tuple; an empty
    report means the pair is valid.
    """
    report = CompatibilityReport()
    G, Gamma = mp.G, mp.Gamma
    eG, eGamma = G.identity(), Gamma.identity()
    for s in Gamma.elements:
        for x in G.elements:
            if mp.rtri(s, x) not in G:
                report.violations.append(("range-left", s, x))
            if mp.ltri(s, x) not in Gamma:
                report.violations.append(("range-right", s, x))
    # unit conditions forced by the compatibility equations
    for x in G.elements:
        if mp.rtri(eGamma, x) != x:
            report.violations.append(("unit-left", x))
        if mp.ltri(eGamma, x) != eGamma:
            report.violations.append(("unit-right", x))
    for s in Gamma.elements:
        if mp.rtri(s, eG) != eG:
            report.violations.append(("unit-left-e", s))
        if mp.ltri(s, eG) != s:
            report.violations.append(("unit-right-e", s))
    # bijectivity of each partial map
    for x in G.elements:
        if len({mp.ltri(s, x) for s in Gamma.elements}) != Gamma.order:
            report.violations.append(("not-bijective-right", x))
    for s in Gamma.elements:
        if len({mp.rtri(s, x) for x in G.elements}) != G.order:
            report.violations.append(("not-bijective-left", s))
    # s |> xy = (s |> x)((s <| x) |> y)
    for s in Gamma.elements:
        for x in G.elements:
            sx = mp.ltri(s, x)
            for y in G.elements:
                lhs = mp.rtri(s, compose(x, y))
                rhs = compose(mp.rtri(s, x), mp.rtri(sx, y))
                if lhs != rhs:
                    report.violations.append(("left-compat", s, x, y))
    # st <| x = (s <| (t |> x))(t <| x)
    for s in Gamma.elements:
        for t in Gamma.elements:
            st = compose(s, t)
            for x in G.elements:
                lhs = mp.ltri(st, x)
                rhs = compose(mp.ltri(s, mp.rtri(t, x)), mp.ltri(t, x))
                if lhs != rhs:
                    report.violations.append(("right-compat", s, t, x))
    return report


def zappa_szep_reconstruction(mp: MatchedPair):
    """Rebuild the ambient group law on G x Gamma from the actions.

    Returns (pairs, mul) where mul is the product on index pairs:
    (x, s)(y, t) = (x (s |> y), (s <| y) t).
    """
    pairs = [(x, s) for x in mp.G.elements for s in mp.Gamma.elements]
    index = {p: i for i, p in enumerate(pairs)}

    def mul(i: int, j: int) -> int:
        x, s = pairs[i]
        y, t = pairs[j]
        return index[(compose(x, mp.rtri(s, y)), compose(mp.ltri(s, y), t))]

    return pairs, mul


def reconstruction_matches_ambient(mp: MatchedPair, E: PermGroup) -> bool:
    """Check (x, s) -> x*s is an isomorphism onto E (multiplication tables)."""
    pairs, mul = zappa_szep_reconstruction(mp)
    image = [compose(x, s) for x, s in pairs]
    if sorted(image) != list(E.elements):
        return False
    pos = {p: i for i, p in enumerate(image)}
    n = len(pairs)
    for i in range(n):
        for j in range(n):
            if pos[compose(image[i], image[j])] != mul(i, j):
                return False
    return True
