"""The sparse eliminator against a dense rank computed here.

Seeded random sparse systems over Q and Q(zeta_3); some rows are
combinations of others (rank deficient), and some systems have a
right-hand side off those combinations (inconsistent).
"""

import random
from fractions import Fraction

import pytest

from hopfseq.cyclotomic import get_field
from hopfseq.exact import FactorDesc, GroupAlgebraRef, composition_series_hopf
from hopfseq.groups import PermGroup
from hopfseq.linalg import (
    add_term,
    echelon_span,
    nullspace_of_map,
    solve_sparse_system,
    subspace_equal,
)
from hopfseq.perm import parse_cycles

CASES = [(conductor, seed) for conductor in (1, 3) for seed in range(6)]


def scalar(rng, field):
    return field.scalar([Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                         for _ in range(field.degree)])


def sparse(rng, field, keys, density=0.3):
    v = {}
    for k in keys:
        if rng.random() < density:
            add_term(v, k, scalar(rng, field))
    return v


def combination(vectors, coeffs):
    out = {}
    for v, c in zip(vectors, coeffs):
        for k, a in v.items():
            add_term(out, k, c * a)
    return out


def with_dependents(rng, field, keys, count):
    """count vectors over keys, every third one a combination of earlier ones."""
    out = []
    for i in range(count):
        if i % 3 == 2:
            out.append(combination(out, [scalar(rng, field) for _ in out]))
        else:
            out.append(sparse(rng, field, keys))
    return out


def dense_rank(vectors, keys, field):
    rows = [[v.get(k, field.zero) for k in keys] for v in vectors]
    rank = 0
    for col in range(len(keys)):
        piv = next((r for r in range(rank, len(rows)) if not rows[r][col].is_zero()), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = rows[rank][col].inverse()
        for r in range(len(rows)):
            if r != rank and not rows[r][col].is_zero():
                f = rows[r][col] * inv
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def nullspace_system(conductor, seed):
    """(field, keys, images) of the seeded map whose kernel the tests take."""
    field = get_field(conductor)
    rng = random.Random(f"nullspace:{conductor}:{seed}")
    keys = list(range(rng.randint(3, 7)))
    return field, keys, with_dependents(rng, field, keys, rng.randint(4, 9))


def assert_is_kernel(kernel, images, keys, field):
    assert all(combination(images, [k.get(j, field.zero) for j in range(len(images))]) == {}
               for k in kernel)
    assert len(kernel) == len(images) - dense_rank(images, keys, field)
    assert dense_rank(kernel, range(len(images)), field) == len(kernel)


@pytest.mark.parametrize("conductor, seed", CASES)
def test_nullspace_maps_to_zero_and_has_full_size(conductor, seed):
    field, keys, images = nullspace_system(conductor, seed)
    assert_is_kernel(nullspace_of_map(images, field), images, keys, field)


@pytest.mark.parametrize("conductor, seed", CASES)
def test_nullspace_skips_explicit_zero_coefficients(conductor, seed):
    # augmentation_basis passes {0: counit(e_i)}, zero for most e_i of k^G;
    # here the least key of the first image holds an explicit zero
    field = get_field(conductor)
    rng = random.Random(f"zeros:{conductor}:{seed}")
    keys = list(range(rng.randint(3, 7)))
    images = with_dependents(rng, field, keys, rng.randint(4, 9))
    padded = [{k: img.get(k, field.zero) for k in keys if k in img or rng.random() < 0.5}
              for img in images]
    padded[0] = {-1: field.zero, **padded[0]}
    kernel = nullspace_of_map(padded, field)
    assert_is_kernel(kernel, images, keys, field)
    assert subspace_equal(kernel, nullspace_of_map(images, field))


@pytest.mark.parametrize("conductor, seed", CASES)
@pytest.mark.parametrize("consistent", (True, False))
def test_solve_satisfies_every_row_or_reports_inconsistency(conductor, seed, consistent):
    field = get_field(conductor)
    rng = random.Random(f"solve:{conductor}:{seed}:{consistent}")
    unknowns = [(i, j) for i in range(3) for j in range(rng.randint(1, 3))]
    coeffs = with_dependents(rng, field, unknowns, rng.randint(3, 8))
    target = {x: scalar(rng, field) for x in unknowns}
    rhs = [sum((c * target[x] for x, c in row.items()), field.zero) for row in coeffs]
    if not consistent:
        # a combination of the rows whose right-hand side is off by one
        cs = [scalar(rng, field) for _ in coeffs]
        at = rng.randrange(len(coeffs) + 1)
        rhs.insert(at, sum((c * b for c, b in zip(cs, rhs)), field.one))
        coeffs.insert(at, combination(coeffs, cs))
    system = list(zip(coeffs, rhs))
    augmented = [dict(row, rhs=b) if not b.is_zero() else row for row, b in system]
    solvable = (dense_rank(coeffs, unknowns, field)
                == dense_rank(augmented, unknowns + ["rhs"], field))
    assert solvable == consistent
    sol = solve_sparse_system(system, field)
    assert (sol is not None) == solvable
    if sol is not None:
        for row, b in system:
            assert sum((c * sol.get(x, field.zero) for x, c in row.items()), field.zero) == b


@pytest.mark.parametrize("conductor, seed", CASES)
def test_coords_rebuild_members_of_the_span(conductor, seed):
    field = get_field(conductor)
    rng = random.Random(f"coords:{conductor}:{seed}")
    keys = [(a, b) for a in range(3) for b in range(3)]
    vectors = with_dependents(rng, field, keys, rng.randint(3, 7))
    ech = echelon_span(vectors)
    for _ in range(5):
        w = combination(vectors, [scalar(rng, field) for _ in vectors])
        got = ech.coords(w)
        assert got is not None
        assert combination([ech.rows[p] for p in got], got.values()) == w
    rank = dense_rank(vectors, keys, field)
    for _ in range(5):
        w = sparse(rng, field, keys, density=0.5)
        inside = dense_rank(vectors + [w], keys, field) == rank
        assert (ech.coords(w) is not None) == inside


@pytest.mark.parametrize("conductor, seed", CASES)
def test_contains_and_reduce_agree_with_rank(conductor, seed):
    field = get_field(conductor)
    rng = random.Random(f"reduce:{conductor}:{seed}")
    keys = list(range(rng.randint(3, 8)))
    vectors = with_dependents(rng, field, keys, rng.randint(2, 7))
    ech = echelon_span(vectors)
    rank = dense_rank(vectors, keys, field)
    assert ech.rank == rank
    for _ in range(6):
        w = sparse(rng, field, keys, density=0.5)
        red = ech.reduce(w)
        assert ech.contains(w) == (dense_rank(vectors + [w], keys, field) == rank)
        assert ech.contains(w) == (red == {})
        assert not set(red) & set(ech.rows)
        taken = combination([w, red], [field.one, -field.one])  # w - red
        assert dense_rank(vectors + [taken], keys, field) == rank


def test_symbolic_factor_takes_its_order_from_the_quotient():
    # PSL(2, 7) on 7 points matches no reference fingerprint, so it gets
    # the "unidentified" label
    G = PermGroup(7, [parse_cycles("(1 2 3 4 5 6 7)", 7), parse_cycles("(1 2)(3 6)", 7)])
    series = composition_series_hopf(GroupAlgebraRef(G))
    assert series.factors == [FactorDesc("group", "order-168 unidentified", 168)]
    assert series.total_dim == 168
