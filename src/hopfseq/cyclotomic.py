"""Exact arithmetic in cyclotomic fields Q(zeta_N).

Scalars are rational coordinate vectors over the power basis
1, zeta, ..., zeta^(phi(N)-1), reduced modulo the N-th cyclotomic
polynomial.  No floating point anywhere; equality is coordinate-wise.
Conductor 1 is plain Q and stays cheap (single coordinate).

A coordinate is a machine int unless a division made it fractional: the
field's zero, one and roots of unity are ints, so are the integral
coordinates that scalar, from_rational and inverse return, and sums and
products of ints stay ints.  A Fraction stays one through later sums and
products.  An int and the Fraction of the same value are equal and hash
the same, so scalars compare and hash the same whichever type a coordinate
has.  ``fractions`` is imported where a non-integer first appears, so
arithmetic on integral scalars never loads it.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, neg, sub

_ZERO = 0
_ONE = 1


def _rational(q) -> int | Fraction:
    """q exactly, as an int when it is integral and a Fraction otherwise."""
    if type(q) is not int:
        from fractions import Fraction

        q = Fraction(q)
        if q.denominator == 1:
            return q.numerator
    return q


def _poly_trim(c: list) -> list:
    while c and c[-1] == 0:
        c.pop()
    return c


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients (low degree first) of the n-th cyclotomic polynomial."""
    if n == 1:
        return (-1, 1)
    poly = [0] * n + [1]
    poly[0] = -1  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly, rem = _poly_divmod(poly, list(cyclotomic_polynomial(d)))
            assert not rem
    return tuple(poly)


class CycField:
    """Q(zeta_N) with precomputed reduction data for the power basis."""

    __slots__ = ("conductor", "degree", "modulus", "zero", "one", "_zeta_cache")

    def __init__(self, conductor: int):
        if conductor < 1:
            raise ValueError("conductor must be positive")
        self.conductor = conductor
        mod = cyclotomic_polynomial(conductor)
        self.degree = len(mod) - 1
        self.modulus = mod
        self.zero = CycScalar(self, (_ZERO,) * self.degree)
        self.one = CycScalar(self, (_ONE,) + (_ZERO,) * (self.degree - 1))
        self._zeta_cache: dict[int, CycScalar] = {0: self.one}

    def __repr__(self) -> str:
        return f"CycField({self.conductor})"

    def __eq__(self, other) -> bool:
        return isinstance(other, CycField) and self.conductor == other.conductor

    def __hash__(self) -> int:
        return hash(("CycField", self.conductor))

    def scalar(self, coords) -> "CycScalar":
        """The element with these coordinates; 0 and 1 come back as the
        field's own ``zero`` and ``one`` objects, which callers may match by
        identity."""
        coords = tuple(_rational(c) for c in coords)
        if len(coords) != self.degree:
            raise ValueError("coordinate length mismatch")
        for canonical in (self.zero, self.one):
            if coords == canonical.coords:
                return canonical
        return CycScalar(self, coords)

    def from_rational(self, q) -> "CycScalar":
        return self.scalar((q,) + (_ZERO,) * (self.degree - 1))

    def zeta(self, power: int = 1) -> "CycScalar":
        """zeta_N^power as a field element."""
        k = power % self.conductor
        hit = self._zeta_cache.get(k)
        if hit is not None:
            return hit
        coords = [_ZERO] * max(self.degree, k + 1)
        coords[k] = _ONE
        val = CycScalar(self, self._reduce(coords))
        self._zeta_cache[k] = val
        return val

    def _reduce(self, coords: list) -> tuple:
        """Reduce a coefficient list modulo the (monic) cyclotomic modulus."""
        d = self.degree
        if len(coords) <= d:
            return tuple(coords) + (_ZERO,) * (d - len(coords))
        out = list(coords)
        mod = self.modulus
        for m in range(len(out) - 1, d - 1, -1):
            c = out[m]
            if c:
                base = m - d
                for j in range(d + 1):
                    if mod[j]:
                        out[base + j] -= c * mod[j]
        return tuple(out[:d])


@lru_cache(maxsize=None)
def get_field(conductor: int) -> CycField:
    return CycField(conductor)


class CycScalar:
    """An element of Q(zeta_N); immutable and hashable."""

    __slots__ = ("field", "coords")

    def __init__(self, field: CycField, coords: tuple):
        self.field = field
        self.coords = coords

    def is_zero(self) -> bool:
        return not any(self.coords)

    def is_one(self) -> bool:
        return self.coords[0] == 1 and all(c == 0 for c in self.coords[1:])

    def _check(self, other: "CycScalar") -> None:
        if self.field.conductor != other.field.conductor:
            raise ValueError("scalars from different cyclotomic fields")

    # Fields come from the get_field cache, so the arithmetic below compares
    # fields by identity first and calls _check only when they differ.

    def __add__(self, other: "CycScalar") -> "CycScalar":
        f = self.field
        if f is not other.field:
            self._check(other)
        if f.degree == 1:
            return CycScalar(f, (self.coords[0] + other.coords[0],))
        return CycScalar(f, tuple(map(add, self.coords, other.coords)))

    def __sub__(self, other: "CycScalar") -> "CycScalar":
        f = self.field
        if f is not other.field:
            self._check(other)
        if f.degree == 1:
            return CycScalar(f, (self.coords[0] - other.coords[0],))
        return CycScalar(f, tuple(map(sub, self.coords, other.coords)))

    def __neg__(self) -> "CycScalar":
        if self.field.degree == 1:
            return CycScalar(self.field, (-self.coords[0],))
        return CycScalar(self.field, tuple(map(neg, self.coords)))

    def __mul__(self, other: "CycScalar") -> "CycScalar":
        f = self.field
        if f is not other.field:
            self._check(other)
        if other is f.one:
            return self
        if self is f.one:
            return other
        a, b = self.coords, other.coords
        d = f.degree
        if d == 1:
            return CycScalar(f, (a[0] * b[0],))
        prod = [_ZERO] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for k, bj in enumerate(b, i):
                    if bj:
                        prod[k] += ai * bj
        return CycScalar(f, f._reduce(prod))

    def inverse(self) -> "CycScalar":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        if self is self.field.one:  # rows scaled by it keep their own scalars
            return self
        if self.coords[0] in (1, -1) and not any(self.coords[1:]):
            return self.field.scalar(self.coords)  # 1 and -1 are their own inverses
        # on Fraction copies, so that no division can give a float
        from fractions import Fraction

        d = self.field.degree
        if d == 1:
            return self.field.scalar((1 / Fraction(self.coords[0]),))
        # extended Euclid in Q[x] against the cyclotomic modulus
        a = _poly_trim([Fraction(c) for c in self.field.modulus])
        b = _poly_trim([Fraction(c) for c in self.coords])
        s_a, s_b = [], [Fraction(1)]
        while b:
            q, r = _poly_divmod(a, b)
            a, b = b, r
            s_a, s_b = s_b, _poly_sub(s_a, _poly_mul(q, s_b))
        # a is now a scalar gcd (cyclotomic polys are irreducible over Q)
        assert len(a) == 1
        inv_gcd = 1 / a[0]
        coeffs = [c * inv_gcd for c in s_a]
        return self.field.scalar(self.field._reduce(coeffs))

    def __truediv__(self, other: "CycScalar") -> "CycScalar":
        return self * other.inverse()

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycScalar)
                and self.field.conductor == other.field.conductor
                and self.coords == other.coords)

    def __hash__(self) -> int:
        return hash((self.field.conductor, self.coords))

    def __repr__(self) -> str:
        if all(c == 0 for c in self.coords[1:]):
            return str(self.coords[0])
        terms = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = "z" if i == 1 else f"z^{i}"
                terms.append(z if c == 1 else f"{c}*{z}")
        return " + ".join(terms) or "0"


def _poly_divmod(num: list, den: list) -> tuple[list, list]:
    """Exact polynomial division with remainder, low degree first: Fraction
    coefficients, or integer ones over a monic divisor, which stay integers."""
    num = list(num)
    q = [0] * (max(len(num) - len(den) + 1, 0))
    lead = den[-1]
    for i in range(len(num) - len(den), -1, -1):
        c = num[i + len(den) - 1]
        if c == 0:
            continue
        factor = c if lead == 1 else c / lead
        q[i] = factor
        for j, dcoef in enumerate(den):
            num[i + j] -= factor * dcoef
    return q, _poly_trim(num)


def _poly_mul(a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _poly_trim(out)


def _poly_sub(a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = [(a[i] if i < len(a) else _ZERO) - (b[i] if i < len(b) else _ZERO) for i in range(n)]
    return _poly_trim(out)
