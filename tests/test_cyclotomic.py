import random
from fractions import Fraction

import pytest

from hopfseq.cyclotomic import CycScalar, cyclotomic_polynomial, get_field


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_powers_cycle():
    for N in (1, 2, 3, 4, 5, 6, 8, 12):
        F = get_field(N)
        z = F.zeta(1)
        acc = F.one
        for k in range(2 * N + 1):
            assert acc == F.zeta(k)
            acc = acc * z
        assert F.zeta(N) == F.one


def test_root_sum_vanishes():
    for N in (2, 3, 4, 5, 6, 8, 12):
        F = get_field(N)
        total = F.zero
        for k in range(N):
            total = total + F.zeta(k)
        assert total.is_zero()


def test_field_inverse():
    F = get_field(5)
    a = F.zeta(2) + F.from_rational(Fraction(3, 7))
    assert (a * a.inverse()).is_one()
    with pytest.raises(ZeroDivisionError):
        F.zero.inverse()


def test_rational_fast_path():
    F = get_field(1)
    a = F.from_rational(Fraction(2, 3))
    b = F.from_rational(Fraction(-1, 2))
    assert (a * b).coords == (Fraction(-1, 3),)
    assert (a / b).coords == (Fraction(-4, 3),)


def test_exactness_no_drift():
    # (zeta + 1/3)^12 stays an exact vector; no float contamination
    F = get_field(4)
    x = F.zeta(1) + F.from_rational(Fraction(1, 3))
    y = F.one
    for _ in range(12):
        y = y * x
    assert all(isinstance(c, Fraction) for c in y.coords)
    z = y
    for _ in range(12):
        z = z / x
    assert z == F.one


def test_cross_field_mixing_rejected():
    with pytest.raises(ValueError):
        get_field(3).one + get_field(4).one


def test_hash_and_equality():
    F = get_field(3)
    assert F.zeta(1) == F.zeta(4)
    assert hash(F.zeta(1)) == hash(F.zeta(4))
    assert F.zeta(1) != F.zeta(2)
    # zeta^2 = -1 - zeta in the power basis modulo 1 + x + x^2
    assert F.zeta(2) == F.scalar([-1, -1])


# A Fraction-only reference for Q(zeta_N): polynomials modulo Phi_N, with
# the inverse solved as a linear system (the field uses extended Euclid).

def _ref_reduce(poly, N):
    mod = cyclotomic_polynomial(N)
    d = len(mod) - 1
    out = [Fraction(c) for c in poly] + [Fraction(0)] * max(0, d - len(poly))
    for m in range(len(out) - 1, d - 1, -1):
        c, out[m] = out[m], Fraction(0)
        for j in range(d):
            out[m - d + j] -= c * mod[j]
    return tuple(out[:d])


def _ref_mul(a, b, N):
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return _ref_reduce(prod, N)


def _ref_inverse(a, N):
    """x with a * x = 1, by Gauss-Jordan on the matrix of multiplication by a."""
    d = len(a)
    cols = [_ref_mul(a, [0] * j + [1], N) for j in range(d)]
    rows = [[cols[j][i] for j in range(d)] + [Fraction(i == 0)] for i in range(d)]
    for c in range(d):
        p = next(r for r in range(c, d) if rows[r][c])
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(d):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    return tuple(row[d] for row in rows)


def _random_coords(rng, d):
    pick = [0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]
    return [rng.choice(pick) for _ in range(d)]


def _exact_types(coords):
    """Every coordinate is an int when integral and a Fraction otherwise."""
    return all(type(c) is int if c == int(c) else type(c) is Fraction for c in coords)


@pytest.mark.parametrize("N", [1, 3, 4, 5, 12])
def test_arithmetic_matches_fraction_reference(N):
    rng = random.Random(f"cyc:{N}")
    F = get_field(N)
    d = F.degree
    assert F.scalar([Fraction(2, 2)] + [0] * (d - 1)) is F.one
    assert F.scalar([Fraction(0)] * d) is F.zero
    for _ in range(60):
        ra, rb = _random_coords(rng, d), _random_coords(rng, d)
        a, b = F.scalar(ra), F.scalar(rb)
        assert _exact_types(a.coords) and _exact_types(b.coords)
        assert _exact_types(F.from_rational(ra[0]).coords)
        ra, rb = _ref_reduce(ra, N), _ref_reduce(rb, N)
        results = {
            "+": (a + b, tuple(x + y for x, y in zip(ra, rb))),
            "-": (a - b, tuple(x - y for x, y in zip(ra, rb))),
            "neg": (-a, tuple(-x for x in ra)),
            "*": (a * b, _ref_mul(ra, rb, N)),
        }
        if any(rb):
            results["inverse"] = (b.inverse(), _ref_inverse(rb, N))
            results["/"] = (a / b, _ref_mul(ra, _ref_inverse(rb, N), N))
            assert _exact_types(results["inverse"][0].coords)
        for op, (got, want) in results.items():
            assert got.coords == want, op
            assert not any(isinstance(c, float) for c in got.coords), op
            # the same value built from Fraction coordinates: equal, same hash
            twin = CycScalar(F, want)
            assert got == twin and hash(got) == hash(twin), op
        assert (a == b) == (ra == rb)
        if ra == rb:
            assert hash(a) == hash(b)
