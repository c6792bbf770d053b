"""Composition series of fusion-category expressions.

Decomposition rules, each verified on use:

  R1  vect over E splits along a group exact factorization E = A.B
      into vect[A] then vect[B];
  R2  vect over G with a normal subgroup N splits into vect[N] then
      vect[G/N] (the graded sequence of the group extension);
  R3  Rep of G with a normal subgroup N splits into Rep[G/N] then Rep[N];
  R4  the center of vect[G] splits into Rep[G] then vect[G].

Rule choice is strategy driven because different chains produce genuinely
different factor lists; that non-uniqueness is the point.  Terminal
factors carry simplicity certificates: Rep of a simple group, vect over a
prime-order group (fusion subcategories of vect correspond to subgroups),
and vect over A6 through the full elimination certificate.
"""

from __future__ import annotations

from functools import lru_cache

from .catexpr import CatExpr, fpdim, rep_g, vec_g
from .certificates import a6_simplicity_check
from .groups import (
    ExactFactorizationG,
    PermGroup,
    is_prime,
    is_simple,
    iso_label,
    moved_points,
    normal_subgroups,
    pow_perm,
    prime_factors,
    quotient_group,
)


class SeriesError(ValueError):
    pass


class CatCompSeries:
    def __init__(self, root: CatExpr, factors: list[CatExpr],
                 rule_trace: list[str] | None = None,
                 terminal_status: list[str] | None = None):
        self.root = root
        self.factors = factors
        self.rule_trace = [] if rule_trace is None else rule_trace
        self.terminal_status = [] if terminal_status is None else terminal_status

    def factor_names(self) -> list[str]:
        return [f.describe() for f in self.factors]

    def factor_multiset(self) -> tuple:
        return tuple(sorted(self.factor_names()))

    def length(self) -> int:
        return len(self.factors)


class Decomposition:
    def __init__(self, rule: str, left: CatExpr, right: CatExpr):
        self.rule = rule
        self.left = left
        self.right = right


# ---------------------------------------------------------------------------
# strategies


class Strategy:
    """Chain chooser; subclasses pick one decomposition per expression."""

    name = "base"

    def decompose(self, expr: CatExpr) -> Decomposition | None:
        if expr.kind == "center":
            inner = expr.parts[0]
            if inner.kind != "vec" or inner.omega != "1":
                return None
            return Decomposition(rule="center-splitting",
                                 left=rep_g(inner.group), right=inner)
        if expr.kind == "rep":
            G = expr.group
            if G.order == 1 or is_simple(G):
                return None
            N = max((M for M in normal_subgroups(G) if M.order < G.order),
                    key=lambda M: M.order)
            Q, _ = quotient_group(G, N)
            return Decomposition(rule="rep-restriction",
                                 left=rep_g(Q), right=rep_g(N))
        if expr.kind == "vec" and expr.omega == "1":
            return self.decompose_vec(expr.group)
        return None

    def decompose_vec(self, G: PermGroup) -> Decomposition | None:
        raise NotImplementedError

    def _factorize(self, G: PermGroup, left: PermGroup,
                   right: PermGroup) -> Decomposition:
        fact = ExactFactorizationG(ambient=G, left=left, right=right)
        if not fact.verify():
            raise SeriesError(
                f"strategy produced an invalid factorization of {iso_label(G)}")
        return Decomposition(rule="vec-exact-factorization",
                             left=vec_g(left), right=vec_g(right))

    def _group_sequence(self, G: PermGroup, N: PermGroup) -> Decomposition:
        Q, _ = quotient_group(G, N)
        return Decomposition(rule="vec-normal-subgroup",
                             left=vec_g(N), right=vec_g(Q))

    def _cyclic_split(self, G: PermGroup) -> Decomposition | None:
        """Cyclic helper: split coprimely (odd part first) or peel one Z_p."""
        n = G.order
        two_part = 1
        while n % 2 == 0:
            n //= 2
            two_part *= 2
        if two_part not in (1, G.order) and n > 1:
            gen = G.generators[0]
            odd = G.subgroup([pow_perm(gen, two_part)])
            even = G.subgroup([pow_perm(gen, n)])
            return self._factorize(G, odd, even)
        # prime power: step down through the unique maximal subgroup
        p = prime_factors(G.order)[0]
        if p == G.order:
            return None
        gen = G.generators[0]
        N = G.subgroup([pow_perm(gen, G.order // p)])
        return self._group_sequence(G, N)


class WholeAlternatingChain(Strategy):
    """Split vect[S6] along S6 = A6 . Z2 and stop at the simple vect[A6]."""

    name = "a6"

    def decompose_vec(self, G: PermGroup) -> Decomposition | None:
        if iso_label(G) == "S6":
            pts = _moved_points(G, 6)
            if pts is None:
                return None
            d = G.degree
            # the generators of alternating(6), (1 2 3) and (2 3 4 5 6), on pts
            a6 = G.subgroup([_cycle(pts[:3], d), _cycle(pts[1:], d)])
            z2 = G.subgroup([_cycle(pts[:2], d)])
            return self._factorize(G, a6, z2)
        return self._maybe_cyclic(G)

    def _maybe_cyclic(self, G: PermGroup) -> Decomposition | None:
        if G.order > 1 and G.is_abelian():
            from .groups import abelian_invariants

            if abelian_invariants(G) == (G.order,):
                return self._cyclic_split(G.subgroup([_find_of_order(G, G.order)]))
        return None


class IteratedChain(WholeAlternatingChain):
    """The fully iterated chain S6 = S5.Z6, S5 = S4.Z5, S4 = S3.Z4, S3 = Z3.Z2."""

    name = "iterated"

    def decompose_vec(self, G: PermGroup) -> Decomposition | None:
        label = iso_label(G)
        if label in ("S4", "S5", "S6"):
            # S_n = S_(n-1) . Z_n, with S_(n-1) = <(1 2), (1 .. n-1)> and
            # Z_n = <(1 .. n)> on the moved points
            n = int(label[1:])
            pts = _moved_points(G, n)
            if pts is None:
                return None
            d = G.degree
            top = G.subgroup([_cycle(pts[:2], d), _cycle(pts[:n - 1], d)])
            return self._factorize(G, top, G.subgroup([_cycle(pts, d)]))
        if label == "S3":
            z3 = G.subgroup([_find_of_order(G, 3)])
            z2 = G.subgroup([_find_of_order(G, 2)])
            return self._factorize(G, z3, z2)
        return self._maybe_cyclic(G)


def _moved_points(G: PermGroup, n: int) -> list[int] | None:
    """The points G moves, in increasing order, when there are exactly n.

    For G labelled S_n that makes G the whole symmetric group on them: it
    has order n! and acts faithfully on those n points.
    """
    points = moved_points(G)
    return points if len(points) == n else None


def _cycle(points: list[int], degree: int):
    """The cycle (points[0] points[1] ...) as a perm of this degree."""
    images = list(range(degree))
    for a, b in zip(points, points[1:] + points[:1]):
        images[a] = b
    return tuple(images)


def _find_of_order(G: PermGroup, n: int):
    from .perm import perm_order

    for x in G.elements:
        if perm_order(x) == n:
            return x
    raise SeriesError(f"no element of order {n}")


STRATEGIES = {
    "a6": WholeAlternatingChain,
    "iterated": IteratedChain,
}


def get_strategy(name: str) -> Strategy:
    try:
        return STRATEGIES[name]()
    except KeyError:
        raise SeriesError(f"unknown strategy {name!r}; options: {sorted(STRATEGIES)}")


# ---------------------------------------------------------------------------
# terminal certificates


@lru_cache(maxsize=1)
def _a6_verdict() -> str:
    return a6_simplicity_check().verdict


def terminal_certificate(expr: CatExpr) -> str:
    """certified-simple or no-rule-applies for a terminal factor."""
    if expr.kind == "rep":
        if is_simple(expr.group):
            return "certified-simple"
        return "no-rule-applies"
    if expr.kind == "vec" and expr.omega == "1":
        n = expr.group.order
        if is_prime(n):
            # fusion subcategories of vect over G match subgroups of G, so a
            # prime order leaves no proper exact sequence
            return "certified-simple"
        if iso_label(expr.group) == "A6" and _a6_verdict() == "SIMPLE":
            return "certified-simple"
    if expr.kind in ("ty", "cpq"):
        from .certificates import family_simplicity_check

        if family_simplicity_check(expr).verdict == "SIMPLE":
            return "certified-simple"
    return "no-rule-applies"


# ---------------------------------------------------------------------------
# the series


def comp_series_cat(expr: CatExpr, strategy: Strategy | str) -> CatCompSeries:
    """Composition series of a category expression under a strategy.

    The Frobenius-Perron dimension is asserted multiplicative at every
    split, and the product over the returned factors equals the dimension
    of the root.
    """
    if isinstance(strategy, str):
        strategy = get_strategy(strategy)
    factors: list[CatExpr] = []
    trace: list[str] = []
    status: list[str] = []

    def walk(node: CatExpr) -> None:
        dec = strategy.decompose(node)
        if dec is None:
            factors.append(node)
            trace.append(f"terminal {node.describe()}")
            status.append(terminal_certificate(node))
            return
        if fpdim(dec.left) * fpdim(dec.right) != fpdim(node):
            raise SeriesError(f"dimension split fails at {node.describe()}")
        trace.append(f"{dec.rule}: {node.describe()} -> "
                     f"{dec.left.describe()} , {dec.right.describe()}")
        walk(dec.left)
        walk(dec.right)

    walk(expr)
    total = 1
    for f in factors:
        total *= fpdim(f)
    if total != fpdim(expr):
        raise SeriesError("factor dimensions do not multiply to the root dimension")
    return CatCompSeries(root=expr, factors=factors, rule_trace=trace,
                         terminal_status=status)
