"""verify_hopf_axioms against the basis-vector verifier it replaced.

The oracle below is that verifier, kept as it was: every instance goes
through mul_vec/comult_vec on basis_vec dicts.  On every case, and on
corrupted copies of it, the two must give the same violations list.
"""

import random

import pytest

from hopfseq import (
    bicrossed_product,
    drinfeld_double,
    dual_group_algebra,
    dual_hopf,
    from_factorization,
    group_algebra,
    hopf_cokernel,
    make_abelian_sequence,
    quaternion8,
    symmetric,
    trivial_paired_cocycles,
)
from hopfseq.hopf import AxiomReport, HopfAlgebra, verify_hopf_axioms
from hopfseq.io_formats import dump_hopf, load_hopf
from hopfseq.linalg import add_term
from hopfseq.perm import parse_cycles

from test_acceptance import DOUBLE_GROUPS, SMALL_GROUPS


def _tensor_mul(H, t1, t2):
    out = {}
    mult = H.mult
    for (a1, b1), c1 in t1.items():
        for (a2, b2), c2 in t2.items():
            c = c1 * c2
            if c.is_zero():
                continue
            for m1, d1 in mult[a1].get(a2, {}).items():
                cd = c * d1
                for m2, d2 in mult[b1].get(b2, {}).items():
                    key = (m1, m2)
                    val = cd * d2
                    if key in out:
                        s = out[key] + val
                        if s.is_zero():
                            del out[key]
                        else:
                            out[key] = s
                    elif not val.is_zero():
                        out[key] = val
    return out


def _scaled_items(vec, c):
    for k, v in vec.items():
        yield k, c * v


def oracle_violations(H):
    report = AxiomReport([], {})
    field = H.field
    dim = H.dim

    for i in range(dim):
        ei = H.basis_vec(i)
        if H.mul_vec(H.unit, ei) != ei and not report.add("unit-left", i):
            return report.violations
        if H.mul_vec(ei, H.unit) != ei and not report.add("unit-right", i):
            return report.violations

    for i in range(dim):
        for j in range(dim):
            ij = H.mul_vec(H.basis_vec(i), H.basis_vec(j))
            for k in range(dim):
                lhs = H.mul_vec(ij, H.basis_vec(k))
                rhs = H.mul_vec(H.basis_vec(i), H.mul_vec(H.basis_vec(j), H.basis_vec(k)))
                if lhs != rhs and not report.add("associativity", (i, j, k)):
                    return report.violations

    for i in range(dim):
        left = {}
        right = {}
        for j, k, c in H.comult[i]:
            add_term(left, k, c * H.counit[j])
            add_term(right, j, c * H.counit[k])
        if left != H.basis_vec(i) and not report.add("counit-left", i):
            return report.violations
        if right != H.basis_vec(i) and not report.add("counit-right", i):
            return report.violations

    for i in range(dim):
        lhs = {}
        rhs = {}
        for j, k, c in H.comult[i]:
            for a, b, d in H.comult[j]:
                key = (a, b, k)
                lhs[key] = lhs.get(key, field.zero) + c * d
            for a, b, d in H.comult[k]:
                key = (j, a, b)
                rhs[key] = rhs.get(key, field.zero) + c * d
        lhs = {k: v for k, v in lhs.items() if not v.is_zero()}
        rhs = {k: v for k, v in rhs.items() if not v.is_zero()}
        if lhs != rhs and not report.add("coassociativity", i):
            return report.violations

    unit_tensor = {(i, j): a * b for i, a in H.unit.items() for j, b in H.unit.items()}
    if H.comult_vec(H.unit) != unit_tensor:
        report.add("comult-unit")
    delta = [H.comult_vec(H.basis_vec(i)) for i in range(dim)]
    for i in range(dim):
        for j in range(dim):
            lhs = H.comult_vec(H.mul_vec(H.basis_vec(i), H.basis_vec(j)))
            rhs = _tensor_mul(H, delta[i], delta[j])
            if lhs != rhs and not report.add("comult-multiplicative", (i, j)):
                return report.violations

    if not H.counit_vec(H.unit).is_one():
        report.add("counit-unit")
    for i in range(dim):
        for j in range(dim):
            lhs = H.counit_vec(H.mul_vec(H.basis_vec(i), H.basis_vec(j)))
            if lhs != H.counit[i] * H.counit[j] and not report.add("counit-multiplicative", (i, j)):
                return report.violations

    for i in range(dim):
        left = {}
        right = {}
        for j, k, c in H.comult[i]:
            for m, d in _scaled_items(H.mul_vec(H.antipode[j], H.basis_vec(k)), c):
                add_term(left, m, d)
            for m, d in _scaled_items(H.mul_vec(H.basis_vec(j), H.antipode[k]), c):
                add_term(right, m, d)
        target = {m: H.counit[i] * u for m, u in H.unit.items()}
        target = {m: v for m, v in target.items() if not v.is_zero()}
        if left != target and not report.add("antipode-left", i):
            return report.violations
        if right != target and not report.add("antipode-right", i):
            return report.violations
    return report.violations


# ---------------------------------------------------------------------------
# cases


def _bicrossed_s4_c3():
    # S4 = S3 . C4, neither factor normal, over Q(zeta_3)
    E = symmetric(4)
    G = E.subgroup([parse_cycles("(1 2 3)", 4), parse_cycles("(1 2)", 4)])
    Gamma = E.subgroup([parse_cycles("(1 2 3 4)", 4)])
    return bicrossed_product(from_factorization(E, G, Gamma),
                             trivial_paired_cocycles(G, Gamma, 3), conductor=3)


def _cokernel_ds3():
    # its scalars are computed by the quotient map, not the field's own 0 and 1
    return hopf_cokernel(make_abelian_sequence(drinfeld_double(symmetric(3))).i)[0]


CASES = (
    [(f"k{G.name}", lambda G=G: group_algebra(G)) for G in SMALL_GROUPS]
    + [(f"k^{G.name}", lambda G=G: dual_group_algebra(G)) for G in SMALL_GROUPS]
    + [(f"D({G.name})", lambda G=G: drinfeld_double(G))
       for G in DOUBLE_GROUPS if G.order <= 6]
    + [
        ("D(Q8)", lambda: drinfeld_double(quaternion8())),
        ("dual D(S3)", lambda: dual_hopf(drinfeld_double(symmetric(3)))),
        ("S3.C4 conductor 3", _bicrossed_s4_c3),
        ("reloaded D(S3)", lambda: load_hopf(dump_hopf(drinfeld_double(symmetric(3))))),
        ("cokernel of k^S3 in D(S3)", _cokernel_ds3),
    ]
)


def _corrupted(H, rng):
    """Copies of H with one retargeted product term, one retargeted comult term,
    one antipode column given a second entry with a doubled coefficient, so
    that the verifier's general path runs on multi-term columns and
    coefficients outside the roots of unity, and one comult term (j, k, c)
    moved from Delta(e_i) to Delta(e_i'): every pair (j, k) still lies in one
    Delta, and the failures of the dual's walk differ at two coordinates."""
    dim = H.dim

    def copy(mult=None, comult=None, antipode=None):
        return HopfAlgebra(H.field, H.basis_labels, mult or H.mult, H.unit,
                           comult or H.comult, H.counit, antipode or H.antipode)

    i, j = rng.choice([(i, j) for i, row in enumerate(H.mult) for j in row])
    (k, c), *rest = H.mult[i][j].items()
    cell = dict(rest)
    add_term(cell, (k + 1) % dim, c)
    mult = list(H.mult)
    mult[i] = {**H.mult[i], j: cell}
    i = rng.randrange(dim)
    (a, b, c), *rest = H.comult[i]
    comult = list(H.comult)
    comult[i] = (a, (b + 1) % dim, c), *rest
    j = rng.randrange(dim)
    antipode = list(H.antipode)
    (x, v), *_ = H.antipode[j].items()
    antipode[j] = {**H.antipode[j], (x + 1) % dim: v + v}
    i = rng.randrange(dim)
    to = rng.choice([x for x in range(dim) if x != i])
    t = rng.randrange(len(H.comult[i]))
    moved = list(H.comult)
    moved[i] = H.comult[i][:t] + H.comult[i][t + 1:]
    moved[to] = (*H.comult[to], H.comult[i][t])
    return [copy(mult=mult), copy(comult=comult), copy(antipode=antipode), copy(comult=moved)]


@pytest.mark.parametrize("name, make", CASES, ids=[name for name, _ in CASES])
def test_verifier_matches_basis_vector_oracle(name, make):
    H = make()
    assert verify_hopf_axioms(H).violations == oracle_violations(H) == []
    for bad in _corrupted(H, random.Random(name)):
        want = oracle_violations(bad)
        assert want, name
        assert verify_hopf_axioms(bad).violations == want


def test_full_report_matches_oracle_and_counts_where_it_stopped():
    # every nonzero product of D(S3) sent to e_0: the report fills inside
    # associativity, and `checked` says how far it got
    D = drinfeld_double(symmetric(3))
    one = D.field.one
    mult = [{j: {0: one} for j in row} for row in D.mult]
    bad = HopfAlgebra(D.field, D.basis_labels, mult, D.unit, D.comult, D.counit, D.antipode)
    report = verify_hopf_axioms(bad)
    assert report.violations == oracle_violations(bad)
    assert len(report.violations) == 1000
    fam, (i, j, k) = report.violations[-1]
    assert fam == "associativity"
    assert report.checked["associativity"] == (i * 36 + j) * 36 + k + 1
