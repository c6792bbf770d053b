import hashlib
import random
import time

import pytest

from hopfseq import (
    bicrossed_product,
    cyclic,
    drinfeld_double,
    dual_group_algebra,
    dual_hopf,
    group_algebra,
    klein_four,
    quaternion8,
    solve_antipode,
    symmetric,
    trivial_pair,
    trivial_paired_cocycles,
    verify_hopf_axioms,
)
from hopfseq.cyclotomic import get_field
from hopfseq.groups import alternating, dihedral
from hopfseq.hopf import (
    HOPF_WORK_CAP,
    HopfAlgebra,
    HopfCapExceeded,
    HopfError,
    bicrossed_work,
    check_work,
    weighed_conductor,
)
from hopfseq import hopf
from hopfseq.cocycles import PairedCocycles
from hopfseq.io_formats import dump_hopf, load_group, load_hopf
from hopfseq.matched import drinfeld_pair, from_factorization
from hopfseq.perm import inverse, parse_cycles

from helpers import (
    antipode_invertible,
    antipode_is_antihomomorphism,
    carry_twisted_z2,
    structure_equal,
)
from test_cli import S4_TIMES_S4
from test_verifier_oracle import CASES as ORACLE_CASES


def test_group_algebra_z2_antipode_identity():
    H = group_algebra(cyclic(2))
    assert H.dim == 2
    assert verify_hopf_axioms(H).ok
    # all elements are involutions, so S is the identity matrix
    assert H.antipode == ({0: H.field.one}, {1: H.field.one})


def test_group_algebra_s3():
    H = group_algebra(symmetric(3))
    assert H.dim == 6
    assert all(c.is_one() for c in H.counit)
    assert verify_hopf_axioms(H).ok


def test_group_algebra_a6_sampled():
    # full axiom check at dim 360 is out of reach; sample associativity and
    # check the group-like structure rows exactly
    G = alternating(6)
    H = group_algebra(G)
    assert H.dim == 360
    rng = random.Random(11)
    one = H.field.one
    for _ in range(300):
        i, j, k = (rng.randrange(360) for _ in range(3))
        ij = H.mul_vec(H.basis_vec(i), H.basis_vec(j))
        lhs = H.mul_vec(ij, H.basis_vec(k))
        rhs = H.mul_vec(H.basis_vec(i), H.mul_vec(H.basis_vec(j), H.basis_vec(k)))
        assert lhs == rhs
    for i in (0, 17, 359):
        assert H.comult[i] == ((i, i, one),)
        assert H.counit[i].is_one()
    inv_index = {g: n for n, g in enumerate(G.elements)}
    for j in (0, 41, 200):
        assert H.antipode[j] == {inv_index[inverse(G.elements[j])]: one}


def test_dual_group_algebra_z2():
    H = dual_group_algebra(cyclic(2))
    assert H.dim == 2
    assert H.unit == {0: H.field.one, 1: H.field.one}
    assert verify_hopf_axioms(H).ok


def test_dual_group_algebra_s3_commutative():
    H = dual_group_algebra(symmetric(3))
    assert verify_hopf_axioms(H).ok
    for i in range(6):
        for j in range(6):
            assert H.mult[i].get(j) == H.mult[j].get(i)


def test_dual_of_group_algebra_matches_dual_construction():
    H1 = dual_hopf(group_algebra(symmetric(3)))
    H2 = dual_group_algebra(symmetric(3))
    assert structure_equal(H1, H2)


def test_double_dual_is_identity():
    H = group_algebra(symmetric(3))
    assert structure_equal(dual_hopf(dual_hopf(H)), H)


def test_dual_of_double_passes_axioms(double_s3):
    D = dual_hopf(double_s3)
    assert D.dim == 36
    assert verify_hopf_axioms(D).ok


@pytest.mark.parametrize("make", [
    lambda: cyclic(2), lambda: cyclic(3), lambda: cyclic(6),
    lambda: klein_four(), lambda: symmetric(3), lambda: dihedral(4),
    lambda: quaternion8(),
])
def test_axioms_group_and_dual(make):
    G = make()
    assert verify_hopf_axioms(group_algebra(G)).ok
    assert verify_hopf_axioms(dual_group_algebra(G)).ok


def test_bicrossed_trivial_is_tensor_product():
    G, Gamma = cyclic(2), symmetric(3)
    H = bicrossed_product(trivial_pair(G, Gamma))
    assert H.dim == 12
    assert verify_hopf_axioms(H).ok
    # entry-by-entry: mult is (dual on Gamma) tensor (group algebra on G)
    kGamma = dual_group_algebra(Gamma)
    kG = group_algebra(G)
    n = G.order
    for gi in range(Gamma.order):
        for xi in range(n):
            for hj in range(Gamma.order):
                for yj in range(n):
                    cell = H.mult[gi * n + xi].get(hj * n + yj)
                    dual_cell = kGamma.mult[gi].get(hj)
                    (grp_k,) = kG.mult[xi][yj]
                    if not dual_cell:
                        assert cell is None
                    else:
                        (dual_k,) = dual_cell
                        assert cell == {dual_k * n + grp_k: H.field.one}


@pytest.mark.parametrize("name, make", ORACLE_CASES, ids=[name for name, _ in ORACLE_CASES])
def test_rows_hold_nonzero_products_and_dump_round_trips(name, make):
    H = make()
    for row in H.mult:
        assert list(row) == sorted(row)
        for cell in row.values():
            assert cell and list(cell) == sorted(cell)
            assert not any(c.is_zero() for c in cell.values())
    text = dump_hopf(H)
    assert dump_hopf(load_hopf(text)) == text


def test_bicrossed_a5_pair(bicrossed60):
    assert bicrossed60.dim == 60
    assert verify_hopf_axioms(bicrossed60).ok


def test_bicrossed_dimension_multiplicative(a5_matched_pair):
    H = bicrossed_product(a5_matched_pair)
    assert H.dim == a5_matched_pair.G.order * a5_matched_pair.Gamma.order


def test_drinfeld_double_z2():
    H = drinfeld_double(cyclic(2))
    assert H.dim == 4
    assert verify_hopf_axioms(H).ok
    for i in range(4):
        for j in range(4):
            assert H.mult[i].get(j) == H.mult[j].get(i)
    for i in range(4):
        terms = {(j, k) for j, k, _ in H.comult[i]}
        assert terms == {(k, j) for j, k in terms}


def test_drinfeld_double_s3(double_s3):
    assert double_s3.dim == 36
    assert verify_hopf_axioms(double_s3).ok
    assert antipode_is_antihomomorphism(double_s3)
    assert antipode_invertible(double_s3)


def test_report_counts_instances_checked(double_s3):
    families = ("unit-left", "unit-right", "associativity", "counit-left",
                "counit-right", "coassociativity", "comult-unit",
                "comult-multiplicative", "counit-unit", "counit-multiplicative",
                "antipode-left", "antipode-right")
    counts = {
        6: (6, 6, 216, 6, 6, 6, 1, 36, 1, 36, 6, 6),
        36: (36, 36, 46656, 36, 36, 36, 1, 1296, 1, 1296, 36, 36),
    }
    for H in (group_algebra(symmetric(3)), double_s3):
        report = verify_hopf_axioms(H)
        assert report.ok
        assert report.checked == dict(zip(families, counts[H.dim]))
        assert list(verify_hopf_axioms(H, include_antipode=False).checked) == list(families[:-2])


def test_report_counts_instances_evaluated(double_s3):
    # associativity covers all 36**3 triples and evaluates 216 * 6: each of
    # the 216 nonzero e_i e_j is one e_x, and rows x and j share one support
    # of 6; for e_i e_j = 0 no e_j e_k meets the support of row i
    report = verify_hopf_axioms(double_s3)
    assert report.checked["associativity"] == 46656
    assert report.evaluated == {
        "unit-left": 36, "unit-right": 36, "associativity": 1296,
        "counit-left": 36, "counit-right": 36, "coassociativity": 36,
        "comult-unit": 1, "comult-multiplicative": 216, "counit-unit": 1,
        "counit-multiplicative": 216, "antipode-left": 36, "antipode-right": 36,
    }
    assert list(report.evaluated) == list(report.checked)


def test_work_bound_matches_counts_and_covers_evaluation(double_s3, monkeypatch):
    # the work load_hopf checks, counted from a dump's indices, agrees with
    # the closed form, and bounds the pairs and the triples actually
    # evaluated; the triples of the walk on the transpose of Delta fit in
    # its coassociativity share, 2 * comult_terms * comult_max
    walks = []  # the evaluated counts of each walk, H's and then H*'s
    walk = hopf._walk

    def recorded(*args):
        walks.append(args[-1])
        return walk(*args)

    monkeypatch.setattr(hopf, "_walk", recorded)
    S4 = symmetric(4)
    cases = [
        (group_algebra(S4), bicrossed_work(24, 1)),
        (dual_group_algebra(S4), bicrossed_work(1, 24)),
        (double_s3, bicrossed_work(6, 6)),
        (dual_hopf(double_s3), bicrossed_work(6, 6)),
        (drinfeld_double(quaternion8()), bicrossed_work(8, 8)),
    ]
    # after the constructions above, which check their own work in hopf
    checked = []
    monkeypatch.setattr(hopf, "check_work",
                        lambda work, dim, conductor: checked.append(work))
    for H, work in cases:
        load_hopf(dump_hopf(H))
        assert checked == [work]
        checked.clear()
        walks.clear()
        evaluated = verify_hopf_axioms(H).evaluated
        assert H.dim ** 2 + evaluated["associativity"] <= work
        (h_walk, dual_walk), lengths = walks, [len(terms) for terms in H.comult]
        assert h_walk is evaluated
        assert dual_walk["associativity"] <= 2 * sum(lengths) * max(lengths)


def test_work_cap_accepts_every_old_size_and_d_s4():
    # the cap is the work of k^Z216, the largest of every bicrossed product
    # (kG and k^G included) that the old dimension cap of 216 accepted
    assert HOPF_WORK_CAP == bicrossed_work(1, 216)
    assert all(bicrossed_work(g, gamma) <= HOPF_WORK_CAP
               for g in range(1, 217) for gamma in range(1, 216 // g + 1))
    assert bicrossed_work(24, 24) <= HOPF_WORK_CAP        # D(S4)
    for g, gamma in ((576, 1), (1, 576), (27, 27), (60, 60)):
        assert bicrossed_work(g, gamma) > HOPF_WORK_CAP


def test_work_cap_weights_the_conductor():
    # one product of dense scalars over Q(zeta_N) is about phi(N)**2
    # coordinate products; at N = 1 the work is not weighted
    d_s4 = bicrossed_work(24, 24)
    check_work(d_s4, 576, 1)
    for conductor, phi in ((3, 2), (4, 2), (6, 2), (5, 4), (12, 4)):
        with pytest.raises(HopfError, match=rf" x phi\({conductor}\)\^2 = {d_s4 * phi ** 2} "):
            check_work(d_s4, 576, conductor)
        # the benchmark's S3.C4 product and every D(S3) dump stay accepted
        check_work(bicrossed_work(6, 4), 24, conductor)
        check_work(bicrossed_work(6, 6), 36, conductor)
    check_work(bicrossed_work(20, 20), 400, 3)           # 4 x 7.0 M
    with pytest.raises(HopfError):
        check_work(bicrossed_work(6, 6), 36, 1000)       # 160,000 x 20,736


def test_a_nonzero_cocycle_exponent_is_weighed_by_the_conductor():
    # the S4 x S4 product that the CLI builds at conductor 3 is refused once
    # one sigma exponent is nonzero mod 3; an exponent of 3 is zero mod 3
    E = load_group(S4_TIMES_S4)
    G = E.subgroup([parse_cycles(c, 8) for c in ("(1 2 3 4)", "(1 2)")])
    Gamma = E.subgroup([parse_cycles(c, 8) for c in ("(5 6 7 8)", "(5 6)")])
    trivial = trivial_paired_cocycles(G, Gamma, 3)
    assert weighed_conductor(trivial, 3) == weighed_conductor(None, 3) == 1
    key = (Gamma.identity(), G.identity(), G.identity())
    for exponent, weight in ((3, 1), (1, 3), (-1, 3)):
        cocycles = PairedCocycles(3, {**trivial.sigma, key: exponent}, trivial.tau)
        assert weighed_conductor(cocycles, 3) == weight
    with pytest.raises(HopfCapExceeded, match=r"work 17252352 x phi\(3\)\^2 = 69009408 "):
        bicrossed_product(from_factorization(E, G, Gamma), cocycles)


class _Accepted(Exception):
    pass


def _accepted(conductor):
    raise _Accepted


def test_group_algebra_refuses_its_product_entries_at_once(monkeypatch):
    # kZ1500 composes 1500**2 perm tuples of 1500 entries (not done in 120 s);
    # kZ311, the largest quotient: target, passes the caps to its field
    G = cyclic(1500)
    start = time.perf_counter()
    with pytest.raises(HopfCapExceeded, match=r"^dimension 1500: 3375000000 perm entries "):
        group_algebra(G)
    assert time.perf_counter() - start < 1
    monkeypatch.setattr(hopf, "get_field", _accepted)
    with pytest.raises(_Accepted):
        group_algebra(cyclic(311))


def test_drinfeld_double_dim_cap():
    assert bicrossed_work(60, 60) > HOPF_WORK_CAP
    with pytest.raises(HopfError):
        drinfeld_double(alternating(5))


def _no_field(conductor):
    raise AssertionError(f"Q(zeta_{conductor}) was built before the caps were checked")


def test_dual_group_algebra_refuses_over_the_work_cap_at_once(monkeypatch):
    # k^Z576 is refused before its field is built, and so before any table
    monkeypatch.setattr(hopf, "get_field", _no_field)
    with pytest.raises(HopfCapExceeded,
                       match=f"^dimension 576: verification work {bicrossed_work(1, 576)} "):
        dual_group_algebra(cyclic(576))


@pytest.mark.parametrize("build", [
    lambda: group_algebra(symmetric(3), 1001),
    lambda: dual_group_algebra(symmetric(3), 1001),
    lambda: drinfeld_double(symmetric(3), conductor=1001),
    lambda: bicrossed_product(drinfeld_pair(symmetric(3)), conductor=1001),
], ids=["group", "dual", "double", "bicrossed"])
def test_constructors_refuse_the_conductor_before_its_field(monkeypatch, build):
    monkeypatch.setattr(hopf, "get_field", _no_field)
    with pytest.raises(HopfCapExceeded, match=r"^conductor 1001 exceeds cap 1000$"):
        build()


def test_solve_antipode_recovers_group_inverse():
    G = symmetric(3)
    H = group_algebra(G)
    cols = solve_antipode(H)
    assert cols is not None
    assert tuple(cols) == H.antipode
    Hd = dual_group_algebra(G)
    cols = solve_antipode(Hd)
    assert tuple(cols) == Hd.antipode


def test_solve_antipode_none_for_non_hopf_bialgebra():
    # the bialgebra of the two-element monoid {1, x}, x^2 = x: no antipode
    field = get_field(1)
    one = field.one
    mult = [{0: {0: one}, 1: {1: one}}, {0: {1: one}, 1: {1: one}}]
    unit = {0: one}
    comult = (((0, 0, one),), ((1, 1, one),))
    counit = (one, one)
    probe = HopfAlgebra(field, ("1", "x"), mult, unit, comult, counit, antipode=None)
    assert solve_antipode(probe) is None


def test_verify_names_broken_associativity():
    H = group_algebra(symmetric(3))
    mult = list(H.mult)
    (k,) = mult[1][2]
    mult[1] = {**mult[1], 2: {3 if k != 3 else 4: H.field.one}}
    broken = HopfAlgebra(H.field, H.basis_labels, mult,
                         H.unit, H.comult, H.counit, H.antipode)
    report = verify_hopf_axioms(broken)
    assert not report.ok
    assert any(v[0] == "associativity" for v in report.violations)


def test_verify_names_broken_comult():
    H = group_algebra(symmetric(3))
    comult = list(H.comult)
    comult[2] = ((2, 3, H.field.one),)
    broken = HopfAlgebra(H.field, H.basis_labels, H.mult, H.unit,
                         tuple(comult), H.counit, H.antipode)
    report = verify_hopf_axioms(broken)
    assert not report.ok
    kinds = {v[0] for v in report.violations}
    assert kinds & {"counit-left", "counit-right", "coassociativity", "comult-multiplicative"}


def test_incompatible_cocycles_rejected():
    # a tau table violating its normalization is refused outright
    G, Gamma = cyclic(2), cyclic(2)
    pc = trivial_paired_cocycles(G, Gamma, 2)
    tau = dict(pc.tau)
    x = G.elements[1]
    s = Gamma.elements[1]
    tau[(x, s, Gamma.identity())] = 1
    from hopfseq.cocycles import PairedCocycles

    bad = PairedCocycles(conductor=2, sigma=pc.sigma, tau=tau)
    with pytest.raises(HopfError):
        bicrossed_product(trivial_pair(G, Gamma), bad, conductor=2)


def test_nontrivial_cocycle_bicrossed_via_verifier():
    # sigma_g(x, y) = chi(g)^carry(x, y) with chi the nontrivial character of
    # Gamma = Z2 and carry the order-2 wraparound cocycle on G = Z2; the
    # comultiplication forces g -> sigma_g(x, y) to be a character, and the
    # verifier accepts the twisted product (it is not the split one)
    G, Gamma = cyclic(2), cyclic(2)
    mp = trivial_pair(G, Gamma)
    x = G.elements[1]
    eGamma = Gamma.identity()
    sigma = {}
    for g in Gamma.elements:
        for a in G.elements:
            for b in G.elements:
                carry = 1 if (a == x and b == x) else 0
                sigma[(g, a, b)] = carry if g != eGamma else 0
    pc = trivial_paired_cocycles(G, Gamma, 2)
    from hopfseq.cocycles import PairedCocycles

    pc = PairedCocycles(conductor=2, sigma=sigma, tau=pc.tau)
    H = bicrossed_product(mp, pc, conductor=2)
    assert verify_hopf_axioms(H).ok
    assert H.dim == 4
    split = bicrossed_product(mp, conductor=2)
    assert not structure_equal(H, split)


def test_a_cocycle_pair_of_nonzero_exponents_dumps_as_its_dense_tables():
    # the product above from sigma's one nonzero exponent and an empty tau:
    # the dump is the one that the tables written out in full give, down to
    # its sha256
    mp, sparse = carry_twisted_z2()
    _, dense = carry_twisted_z2(dense=True)
    text = dump_hopf(bicrossed_product(mp, sparse, conductor=2))
    assert text == dump_hopf(bicrossed_product(mp, dense, conductor=2))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "eca5ead177adcadcaa1a455349901d92e1b544fa071f1fa1c808bd05a0cd6b2f")


@pytest.mark.parametrize("conductor", [4, 6])
def test_cocycle_exponents_are_read_at_their_own_conductor(conductor):
    # sigma_s(x, x) is stored mod 2, so it is zeta_2 = -1 at every even
    # conductor: (e_s # x)(e_s # x) = -e_s # 1
    mp, cocycles = carry_twisted_z2()
    H = bicrossed_product(mp, cocycles, conductor=conductor)
    assert H.field.conductor == conductor and verify_hopf_axioms(H).ok
    s, x = mp.Gamma.elements[1], mp.G.elements[1]
    at = H.origin.position
    assert H.mult[at(s, x)][at(s, x)] == {at(s, mp.G.identity()): -H.field.one}


def test_cocycle_exponents_refuse_a_conductor_their_own_does_not_divide():
    mp, cocycles = carry_twisted_z2()
    with pytest.raises(HopfError, match=r"mod 2 cannot be read at conductor 3"):
        bicrossed_product(mp, cocycles, conductor=3)
