"""verify_hopf_axioms against the basis-vector oracle on corruptions that
change which products and coproduct terms are nonzero.

The verifier skips the instances whose two sides the supports make empty,
so each corruption here moves a support: an empty mult cell given an entry,
a cell given two terms that cancel, and a comult term added to Delta(e_i).
The full violation lists must agree with the oracle's.
"""

import random

import pytest

from hopfseq import drinfeld_double, dual_group_algebra, symmetric
from hopfseq.hopf import HopfAlgebra, verify_hopf_axioms

from test_verifier_oracle import _bicrossed_s4_c3, oracle_violations

CASES = {
    "D(S3)": lambda: drinfeld_double(symmetric(3)),
    "k^S4": lambda: dual_group_algebra(symmetric(4)),
    "S3.C4 conductor 3": _bicrossed_s4_c3,
}


def _with(H, mult=None, comult=None):
    return HopfAlgebra(H.field, H.basis_labels, mult or H.mult, H.unit,
                       comult or H.comult, H.counit, H.antipode)


def _set_cell(H, i, j, cell):
    mult = [list(row) for row in H.mult]
    mult[i][j] = cell
    return _with(H, mult=tuple(tuple(row) for row in mult))


def _cells(H, filled: bool):
    return [(i, j) for i in range(H.dim) for j in range(H.dim)
            if bool(H.mult[i][j]) == filled]


def corruptions(H, rng):
    """(name, copy of H, whether it is still the same algebra)."""
    dim, one, zeta = H.dim, H.field.one, H.field.zeta(1)
    i, j = rng.choice(_cells(H, filled=False))
    yield "empty cell filled", _set_cell(H, i, j, ((rng.randrange(dim), zeta),)), False
    i, j = rng.choice(_cells(H, filled=False))
    k = rng.randrange(dim)
    yield "empty cell, cancelling terms", _set_cell(H, i, j, ((k, zeta), (k, -zeta))), True
    i, j = rng.choice(_cells(H, filled=True))
    (k, c), *_ = H.mult[i][j]
    yield "product cancelled to zero", _set_cell(H, i, j, ((k, c), (k, -c))), False
    i = rng.randrange(dim)
    comult = list(H.comult)
    comult[i] = (*comult[i], (rng.randrange(dim), rng.randrange(dim), one))
    yield "comult term added", _with(H, comult=tuple(comult)), False


@pytest.mark.parametrize("name", sorted(CASES))
def test_support_moving_corruptions_match_oracle(name):
    H = CASES[name]()
    for what, bad, same in corruptions(H, random.Random(name)):
        want = oracle_violations(bad)
        assert (want == []) == same, (name, what)
        assert verify_hopf_axioms(bad).violations == want, (name, what)
