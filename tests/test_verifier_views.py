"""The verifier's table views against its per-instance code.

When every product cell has one term, verify_hopf_axioms decides whole
blocks on table views (hopf._monomial) and redoes a failing block with the
per-instance code.  With the view builder returning None, every block runs
the per-instance code.  Both runs must give the same report: violations,
`checked` and `evaluated`, keys in the same order.
"""

import random

import pytest

from hopfseq import (
    drinfeld_double,
    dual_group_algebra,
    group_algebra,
    hopf,
    symmetric,
)
from hopfseq.hopf import dual_product, verify_hopf_axioms

from test_verifier_oracle import CASES, _bicrossed_s4_c3, _corrupted


def _reports(H):
    out = []
    for include_antipode in (True, False):
        report = verify_hopf_axioms(H, include_antipode=include_antipode)
        out.append((report.violations, list(report.checked.items()),
                    list(report.evaluated.items())))
    return out


@pytest.mark.parametrize("name, make", CASES, ids=[name for name, _ in CASES])
def test_table_views_match_the_per_instance_path(name, make, monkeypatch):
    H = make()
    algebras = [H, *_corrupted(H, random.Random(name))]
    with_views = [_reports(X) for X in algebras]
    monkeypatch.setattr(hopf, "_monomial", lambda P: None)
    assert [_reports(X) for X in algebras] == with_views


@pytest.mark.parametrize("make", [lambda: group_algebra(symmetric(4)),
                                  lambda: dual_group_algebra(symmetric(4)),
                                  lambda: drinfeld_double(symmetric(3)),
                                  _bicrossed_s4_c3])
def test_constructions_take_the_table_views(make):
    # kG, k^G, D(G) and bicrossed products are monomial with a comonomial
    # Delta, so the test above compares two different paths on them
    H = make()
    assert hopf._monomial(H.mult) is not None
    assert hopf._monomial(dual_product(H)) is not None
