"""verify_hopf_axioms against the basis-vector oracle on corruptions that
change which products and coproduct terms are nonzero.

The verifier skips the instances whose two sides the supports make empty,
so each corruption here moves a support: an empty product given a term,
a dump with two cancelling MULT lines for an empty product or in place of
a nonzero one, and a comult term added to Delta(e_i).  load_hopf sums the
cancelling lines, so the product stays absent or is removed from its row.
The full violation lists must agree with the oracle's.
"""

import random

import pytest

from hopfseq import drinfeld_double, dual_group_algebra, symmetric
from hopfseq.hopf import HopfAlgebra, verify_hopf_axioms
from hopfseq.io_formats import dump_hopf, load_hopf

from test_verifier_oracle import _bicrossed_s4_c3, oracle_violations

CASES = {
    "D(S3)": lambda: drinfeld_double(symmetric(3)),
    "k^S4": lambda: dual_group_algebra(symmetric(4)),
    "S3.C4 conductor 3": _bicrossed_s4_c3,
}


def _with(H, mult=None, comult=None):
    return HopfAlgebra(H.field, H.basis_labels, mult or H.mult, H.unit,
                       comult or H.comult, H.counit, H.antipode)


def _set_product(H, i, j, cell):
    mult = list(H.mult)
    mult[i] = {**H.mult[i], j: cell}
    return _with(H, mult=mult)


def _pairs(H, filled: bool):
    return [(i, j) for i, row in enumerate(H.mult) for j in range(H.dim)
            if (j in row) == filled]


def _with_cancelling_lines(H, i, j, k, c):
    """H read back from its dump with the MULT lines of e_i e_j replaced by
    'i j : k : c' and 'i j : k : -c'."""
    lines = dump_hopf(H).splitlines()
    first, last = lines.index("MULT") + 1, lines.index("COMULT")
    kept = [ln for ln in lines[first:last] if not ln.startswith(f"{i} {j} : ")]
    added = [f"{i} {j} : {k} : " + " ".join(str(x) for x in v.coords) for v in (c, -c)]
    lines[first:last] = kept + added
    return load_hopf("\n".join(lines) + "\n")


def corruptions(H, rng):
    """(name, copy of H, whether it is still the same algebra)."""
    dim, one, zeta = H.dim, H.field.one, H.field.zeta(1)
    i, j = rng.choice(_pairs(H, filled=False))
    yield "empty product given a term", _set_product(H, i, j, {rng.randrange(dim): zeta}), False
    i, j = rng.choice(_pairs(H, filled=False))
    k = rng.randrange(dim)
    bad = _with_cancelling_lines(H, i, j, k, zeta)
    assert bad.structure_equal(H)
    yield "empty product, cancelling lines", bad, True
    i, j = rng.choice(_pairs(H, filled=True))
    (k, c), *_ = H.mult[i][j].items()
    bad = _with_cancelling_lines(H, i, j, k, c)
    assert bad.mult[i] == {x: cell for x, cell in H.mult[i].items() if x != j}
    yield "product cancelled to zero", bad, False
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
