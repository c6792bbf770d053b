"""Symbolic fusion-category expressions with exact dimension arithmetic.

Nodes carry only ledger facts (Frobenius-Perron dimension, pointedness,
integrality, type data); associators and module-category data are labels,
never computed with.  Every Frobenius-Perron dimension here is an integer:
|G|, 2p, pq^2, and their products and squares.  Type data is stored as
(squared dimension, multiplicity) pairs so that non-integral dimensions
like sqrt(p) stay in exact integer arithmetic.
"""

from __future__ import annotations

from math import isqrt

from .groups import MR_BOUND, CapExceeded, PermGroup, is_prime, iso_label
from .record import Frozen


class LedgerError(ValueError):
    pass


def _check_primes(*ns: int) -> bool:
    """True when every n is prime; a number from MR_BOUND on, where is_prime
    decides nothing, is refused (CapExceeded) before any is tested."""
    for n in ns:
        if n >= MR_BOUND:
            raise CapExceeded(f"{n} is not below {MR_BOUND}, where primality is decided")
    return all(is_prime(n) for n in ns)


class CatExpr(Frozen):
    """A category-expression node.  ``kind`` is rep | vec | gt | ty | cpq |
    deligne | center; ``omega`` is a 3-cocycle label (only "1" is computed
    with), ``labels`` the chi/tau or zeta/xi labels, carried only, and
    ``parts`` the sub-expressions of deligne / center."""

    __slots__ = ("kind", "group", "omega", "subgroup", "psi", "p", "q", "labels", "parts")

    def __init__(self, kind: str, group: PermGroup | None = None, omega: str = "1",
                 subgroup: PermGroup | None = None, psi: TwoCocycle | None = None,
                 p: int = 0, q: int = 0, labels: tuple = (), parts: tuple = ()):
        self._set(kind, group, omega, subgroup, psi, p, q, labels, parts)

    def describe(self) -> str:
        if self.kind == "rep":
            return f"Rep[{iso_label(self.group)}]"
        if self.kind == "vec":
            suffix = "" if self.omega == "1" else f"^{self.omega}"
            return f"vect[{iso_label(self.group)}]{suffix}"
        if self.kind == "gt":
            return (f"C({iso_label(self.group)}, {self.omega}, "
                    f"{iso_label(self.subgroup)}, psi)")
        if self.kind == "ty":
            return f"TY(Z{self.p})"
        if self.kind == "cpq":
            return f"C({self.p}, {self.q})"
        if self.kind == "deligne":
            return " (x) ".join(part.describe() for part in self.parts)
        if self.kind == "center":
            return f"Z({self.parts[0].describe()})"
        raise LedgerError(f"unknown node kind {self.kind!r}")


def rep_g(G: PermGroup) -> CatExpr:
    return CatExpr(kind="rep", group=G)


def vec_g(G: PermGroup, omega: str = "1") -> CatExpr:
    return CatExpr(kind="vec", group=G, omega=omega)


def group_theoretical(G: PermGroup, omega: str, T: PermGroup,
                      psi: TwoCocycle | None) -> CatExpr:
    if not G.is_subgroup(T):
        raise LedgerError("module-category subgroup does not lie in G")
    return CatExpr(kind="gt", group=G, omega=omega, subgroup=T, psi=psi)


def tambara_yamagami(p: int, chi: str = "chi", tau: str = "+") -> CatExpr:
    if not _check_primes(p):
        raise LedgerError("TY node needs a prime p")
    return CatExpr(kind="ty", p=p, labels=(chi, tau))


def cpq_category(p: int, q: int, zetas: tuple = ("z1", "z2"), xi: str = "xi") -> CatExpr:
    if not _check_primes(p, q):
        raise LedgerError("C(p, q) needs primes")
    if not (p % 2 == 1 and p < q and (q + 1) % p == 0):
        raise LedgerError("family constraints: p odd, p < q, p divides q+1")
    return CatExpr(kind="cpq", p=p, q=q, labels=(*zetas, xi))


def deligne(a: CatExpr, b: CatExpr) -> CatExpr:
    return CatExpr(kind="deligne", parts=(a, b))


def center(a: CatExpr) -> CatExpr:
    return CatExpr(kind="center", parts=(a,))


# ---------------------------------------------------------------------------
# ledger facts


def fpdim(c: CatExpr) -> int:
    if c.kind in ("rep", "vec", "gt"):
        return c.group.order
    if c.kind == "ty":
        return 2 * c.p
    if c.kind == "cpq":
        return c.p * c.q * c.q
    if c.kind == "deligne":
        out = 1
        for part in c.parts:
            out *= fpdim(part)
        return out
    if c.kind == "center":
        return fpdim(c.parts[0]) ** 2
    raise LedgerError(f"unknown node kind {c.kind!r}")


def type_data(c: CatExpr):
    """Known (squared dimension, multiplicity) pairs, or None.

    Pointed nodes have |G| invertibles; a TY node adds one object of
    squared dimension p.
    """
    if c.kind == "vec":
        return ((1, c.group.order),)
    if c.kind == "ty":
        return ((1, c.p), (c.p, 1))
    if c.kind == "deligne":
        left = type_data(c.parts[0])
        right = type_data(c.parts[1])
        if left is None or right is None:
            return None
        out: dict[int, int] = {}
        for d1, m1 in left:
            for d2, m2 in right:
                out[d1 * d2] = out.get(d1 * d2, 0) + m1 * m2
        return tuple(sorted(out.items()))
    return None


def validate_type(pairs, total) -> bool:
    """Check sum of multiplicity * dimension^2 against the total dimension."""
    return sum(mult * dim * dim for dim, mult in pairs) == total


def is_integral(c: CatExpr) -> bool | None:
    """All simple dimensions integers (None when type data is unknown)."""
    data = type_data(c)
    if data is None:
        if c.kind in ("rep", "gt", "vec"):
            return True
        if c.kind == "cpq":
            return True
        return None
    return all(isqrt(dim_sq) ** 2 == dim_sq for dim_sq, _mult in data)


def is_pointed(c: CatExpr) -> bool | None:
    data = type_data(c)
    if data is not None:
        return all(dim_sq == 1 for dim_sq, _ in data)
    if c.kind == "rep":
        return c.group.is_abelian()
    return None


def cat_factorization_from_group(fact) -> tuple[CatExpr, CatExpr]:
    """vect over an exact group factorization E = A.B splits as a pair.

    Returns (vect[A], vect[B]) after re-verifying the factorization and the
    dimension identity fpdim(A) * fpdim(B) = fpdim(E).
    """
    if not fact.verify():
        raise LedgerError("not an exact factorization")
    left, right = vec_g(fact.left), vec_g(fact.right)
    if fpdim(left) * fpdim(right) != fact.ambient.order:
        raise LedgerError("dimension identity fails")
    return left, right


# ---------------------------------------------------------------------------
# imported facts consumed by the certificates
#
# These are standard classification results used as axioms; certificates
# list exactly which ones they consumed.

LEDGER_AXIOMS = {
    "prime-fpdim-pointed":
        "a fusion category of prime Frobenius-Perron dimension is pointed",
    "prime-square-fpdim-pointed":
        "a fusion category of Frobenius-Perron dimension p^2 is pointed",
    "pq-fpdim-pointed":
        "a fusion category of dimension pq, with odd p not dividing q-1, is pointed",
    "pointed-factorization-group-theoretical":
        "a fusion category whose dual admits an exact factorization into pointed "
        "parts is group-theoretical, hence integral",
    "cpq-not-group-theoretical":
        "the C(p, q, {zeta1, zeta2}, xi) categories are not group-theoretical",
    "quotient-of-pointed-is-pointed":
        "in an exact sequence with respect to a module category, a pointed total "
        "category forces a pointed quotient",
    "invertibles-of-group-theoretical":
        "the invertible objects of C(G, 1, T, psi) form an extension of the "
        "character group of T by the subgroup of classes in N_G(T)/T fixing psi",
    "pointed-dual-needs-exact-factorization":
        "C(G, 1, T, psi) can only be pointed when G admits an exact factorization "
        "with one abelian factor",
    "cyclic-h2-trivial":
        "H^2 of a finite cyclic group with coefficients in k^* vanishes",
    "simple-dimension-divides-module-subgroup":
        "simple objects of the dual over a module category M(T, psi) have "
        "dimension dividing |T|",
}
