"""The linear solve against the augmented eliminator it replaced.

``solve_sparse_system`` reads the kernel routine: the right-hand side is one
more unknown, ordered last, and the system is solvable exactly when that
unknown is free.  The reference below is the solve it had before, kept
verbatim: each equation is eliminated with its right-hand side under a key
that sorts after every unknown, and a row whose pivot is that key is the
contradiction 0 = rhs.  A reduced echelon form is unique, so both must give
the same nonzero assignment, or None, on the seeded systems of test_linalg
and on the systems that solve_antipode passes for kS3, k^S3 and the
sigma-twisted Z2 # Z2 product.
"""

import pytest

from hopfseq import (
    bicrossed_product,
    dual_group_algebra,
    group_algebra,
    hopf,
    solve_antipode,
    symmetric,
)
from hopfseq.cyclotomic import CycField
from hopfseq.linalg import Echelon, solve_sparse_system

import test_linalg
from helpers import carry_twisted_z2
from test_linalg import CASES


class _Rhs:
    """The key of the augmented column; it sorts after every unknown."""

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return self is not other


def augmented_solve(rows, field: CycField):
    """Solve a sparse linear system given as (coeff row, rhs scalar) pairs.

    Returns an assignment dict (free variables set to zero) or None when
    the system is inconsistent.
    """
    rhs_key = _Rhs()
    ech = Echelon()
    for row, rhs in rows:
        eq = {k: v for k, v in row.items() if not v.is_zero()}
        if not rhs.is_zero():
            eq[rhs_key] = rhs
        ech.add(eq)
        if rhs_key in ech.rows:
            return None
    # rows are fully reduced; remaining off-pivot unknowns are free (= 0)
    return {var: row.get(rhs_key, field.zero) for var, row in ech.rows.items()}


def assert_same_solution(system, field):
    old = augmented_solve(system, field)
    new = solve_sparse_system(system, field)
    if old is None:
        assert new is None
    else:
        assert new == {var: c for var, c in old.items() if not c.is_zero()}


def _recording(systems):
    def recorded(rows, field):
        systems.append((list(rows), field))
        return solve_sparse_system(systems[-1][0], field)
    return recorded


@pytest.mark.parametrize("conductor, seed", CASES)
@pytest.mark.parametrize("consistent", (True, False))
def test_solutions_agree_on_the_seeded_systems(conductor, seed, consistent, monkeypatch):
    systems = []
    monkeypatch.setattr(test_linalg, "solve_sparse_system", _recording(systems))
    test_linalg.test_solve_satisfies_every_row_or_reports_inconsistency(
        conductor, seed, consistent)
    assert len(systems) == 1
    system, field = systems[0]
    assert (augmented_solve(system, field) is not None) == consistent
    assert_same_solution(system, field)


def _algebras():
    return {
        "kS3": lambda: group_algebra(symmetric(3)),
        "k^S3": lambda: dual_group_algebra(symmetric(3)),
        "Z2 #sigma Z2": lambda: bicrossed_product(*carry_twisted_z2(), conductor=2),
    }


@pytest.mark.parametrize("name", sorted(_algebras()))
def test_solutions_agree_on_the_antipode_systems(name, monkeypatch):
    H = _algebras()[name]()
    systems = []
    monkeypatch.setattr(hopf, "solve_sparse_system", _recording(systems))
    assert solve_antipode(H) == list(H.antipode)
    assert len(systems) == 1
    system, field = systems[0]
    assert_same_solution(system, field)
