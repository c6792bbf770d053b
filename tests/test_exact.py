import random

import pytest

from hopfseq import (
    DualGroupAlgebraRef,
    GroupAlgebraRef,
    HopfMorphism,
    all_hopf_series_multisets,
    bicrossed_product,
    coinvariants,
    composition_series_hopf,
    cyclic,
    dihedral,
    drinfeld_double,
    dual_group_algebra,
    dualize_sequence,
    from_factorization,
    group_algebra,
    hopf_cokernel,
    hopf_kernel,
    is_normal_subalgebra,
    jh_compare,
    klein_four,
    make_abelian_sequence,
    make_group_quotient_sequence,
    normal_subalgebra_candidates,
    quaternion8,
    span_subalgebra,
    standalone_subalgebra,
    subgroup_classes,
    symmetric,
    verify_exact_sequence,
)
from hopfseq.exact import (
    ExactnessError,
    ExactSequenceH,
    HopfSubalgebra,
    _split_along,
    _transported,
    augmentation_basis,
    counit_morphism,
    identity_morphism,
    identify_dual_form,
    identify_group_form,
    two_sided_ideal,
)
from hopfseq.groups import alternating, from_elements, is_normal, iso_label, quotient_group
from hopfseq.hopf import HopfAlgebra, dual_product, verify_hopf_axioms
from hopfseq.linalg import Echelon, add_term, subspace_equal
from hopfseq.perm import compose, conjugate, inverse, parse_cycles
from test_kernel_oracle import TaggedEchelon


def _coordinate_subalgebra(H, G, sub):
    one = H.field.one
    idx = {g: i for i, g in enumerate(G.elements)}
    return span_subalgebra(H, [{idx[n]: one} for n in sub.elements])


def test_coinvariants_of_counit_is_everything():
    H = group_algebra(symmetric(3))
    assert len(coinvariants(counit_morphism(H), "left")) == H.dim


def test_coinvariants_of_identity_is_unit_line():
    H = group_algebra(symmetric(3))
    basis = coinvariants(identity_morphism(H), "left")
    assert len(basis) == 1
    assert subspace_equal(basis, [H.unit])


def test_coinvariants_of_double_projection(double_s3):
    seq = make_abelian_sequence(double_s3)
    left = coinvariants(seq.pi, "left")
    assert len(left) == 6
    assert subspace_equal(left, list(seq.i.cols))


def test_normality_matches_group_normality_s3():
    s3 = symmetric(3)
    H = group_algebra(s3)
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    z2 = s3.subgroup([parse_cycles("(1 2)", 3)])
    ok, witness = is_normal_subalgebra(_coordinate_subalgebra(H, s3, a3))
    assert ok and witness is None
    ok, witness = is_normal_subalgebra(_coordinate_subalgebra(H, s3, z2))
    assert not ok and witness is not None


def test_normality_oracle_groups_up_to_24():
    # is_normal_subalgebra(kN in kG) iff N normal in G, across the lattice
    groups = [symmetric(3), dihedral(4), quaternion8(), cyclic(8),
              klein_four(), alternating(4), dihedral(6), symmetric(4)]
    checked = 0
    for G in groups:
        H = group_algebra(G)
        for row in subgroup_classes(G):
            for conj in row.conjugates:
                sub = G.subgroup(sorted(conj))
                hopf_normal, _ = is_normal_subalgebra(_coordinate_subalgebra(H, G, sub))
                assert hopf_normal == is_normal(G, sub), (G.name, row.iso_label)
                checked += 1
    assert checked >= 87  # every subgroup of every listed group


def _conjugation_witness(G, subset):
    """The first failure of span{e_s : s in subset} in kG under the adjoint
    actions, read off the group: over g in G's order and then s in the
    span's basis order, g s g^-1 (left) before g^-1 s g (right); None when
    there is none."""
    index = G.element_index()
    ss = [G.elements[i] for i in sorted(index[s] for s in subset)]
    for i, g in enumerate(G.elements):
        for a, s in enumerate(ss):
            if conjugate(g, s) not in subset:
                return ("left", i, a)
            if conjugate(inverse(g), s) not in subset:
                return ("right", i, a)
    return None


def test_normality_witness_matches_conjugation():
    # every subgroup, and every pair {x, g x g^-1}, which is stable on one
    # side at g before the other
    sides = set()
    for G in [symmetric(3), dihedral(4), alternating(4), symmetric(4)]:
        H = group_algebra(G)
        one, index = H.field.one, G.element_index()
        subsets = [frozenset(conj) for row in subgroup_classes(G) for conj in row.conjugates]
        subsets += [frozenset((x, conjugate(g, x))) for g in G.elements for x in G.elements]
        for subset in subsets:
            witness = _conjugation_witness(G, subset)
            K = span_subalgebra(H, [{index[s]: one} for s in subset])
            assert is_normal_subalgebra(K) == (witness is None, witness), (G.name, sorted(subset))
            sides.add(None if witness is None else witness[0])
    assert sides == {None, "left", "right"}


def test_commutative_ambient_everything_normal():
    H = dual_group_algebra(symmetric(3))
    for cand in normal_subalgebra_candidates(H):
        assert is_normal_subalgebra(cand.sub)[0]
    assert len(normal_subalgebra_candidates(H)) == 1  # only k^(S3/A3)


def test_hopf_kernel_of_identity_and_quotient():
    s3 = symmetric(3)
    H = group_algebra(s3)
    K = hopf_kernel(identity_morphism(H))
    assert K.dim == 1
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    seq = make_group_quotient_sequence(s3, a3)
    K = hopf_kernel(seq.pi)
    assert K.dim == 3
    assert subspace_equal(K.basis, list(seq.i.cols))


def test_hopf_kernel_of_double_projection(double_s3):
    seq = make_abelian_sequence(double_s3)
    K = hopf_kernel(seq.pi)
    assert K.dim == 6
    assert subspace_equal(K.basis, coinvariants(seq.pi, "left"))


def test_hopf_cokernel_examples(double_s3):
    s3 = symmetric(3)
    H = group_algebra(s3)
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    sub = _coordinate_subalgebra(H, s3, a3)
    inc = HopfMorphism(standalone_subalgebra(sub), H, list(sub.basis))
    Q, proj = hopf_cokernel(inc)
    assert Q.dim == 2
    Gq = identify_group_form(Q)
    assert Gq is not None and Gq.order == 2
    assert Q.structure_equal(group_algebra(cyclic(2)))

    # k -> H gives H back
    from hopfseq.exact import unit_morphism

    Q2, _ = hopf_cokernel(unit_morphism(H))
    assert Q2.dim == H.dim

    seq = make_abelian_sequence(double_s3)
    Q3, _ = hopf_cokernel(seq.i)
    assert Q3.dim == 6
    Gq = identify_group_form(Q3)
    assert Gq is not None and iso_label(Gq) == "S3"


def _all_pairs_ideal(H, gens):
    """H . gens . H as the span of every e_i g e_j: the closure's oracle."""
    ech = Echelon()
    for g in gens:
        for i in range(H.dim):
            left = H.mul_vec(H.basis_vec(i), g)
            for j in range(H.dim):
                ech.add(H.mul_vec(left, H.basis_vec(j)))
    return ech


def _ideal_case(name):
    """(H, generators) of H . i(H'+) . H for three exact sequences, and
    (1 2) - 1 in kS3, whose subgroup <(1 2)> is not normal."""
    if name == "kS4>kV4":
        s4 = symmetric(4)
        v4 = s4.subgroup([parse_cycles(c, 4) for c in ("(1 2)(3 4)", "(1 3)(2 4)")])
        seq = make_group_quotient_sequence(s4, v4)
    elif name == "kS3>kZ2":
        s3 = symmetric(3)
        H = group_algebra(s3)
        one, idx = H.field.one, s3.element_index()
        return H, [{idx[parse_cycles("(1 2)", 3)]: one, idx[s3.identity()]: -one}]
    else:
        G = {"D(S3)": symmetric(3), "D(Q8)": quaternion8()}[name]
        seq = make_abelian_sequence(drinfeld_double(G))
    return seq.h, [seq.i.apply(v) for v in augmentation_basis(seq.h_prime)]


@pytest.mark.parametrize("name", ["kS4>kV4", "D(S3)", "D(Q8)", "kS3>kZ2"])
def test_two_sided_ideal_matches_all_pairs_span(name):
    H, gens = _ideal_case(name)
    got = two_sided_ideal(H, gens)
    assert got.canonical() == _all_pairs_ideal(H, gens).canonical()
    assert 0 < got.rank <= H.dim


IDEAL_ALGEBRAS = {
    "kS3": lambda: group_algebra(symmetric(3)),
    "kS4": lambda: group_algebra(symmetric(4)),
    "k^S3": lambda: dual_group_algebra(symmetric(3)),
    "D(S3)": lambda: drinfeld_double(symmetric(3)),
    "kD4": lambda: group_algebra(dihedral(4)),
    "kS3 conductor 3": lambda: group_algebra(symmetric(3), conductor=3),
}


def _random_gens(H, rng):
    """One to three vectors, each a sum of one or two terms c e_x or
    c (e_x - e_y), c a nonzero integer from -2 to 2 times a root of unity
    of the field; the differences make proper ideals of a group algebra."""
    F = H.field
    gens = []
    for _ in range(rng.randint(1, 3)):
        v: dict = {}
        for _ in range(rng.randint(1, 2)):
            c = F.from_rational(rng.choice((-2, -1, 1, 2))) * F.zeta(rng.randrange(F.conductor))
            x, y = rng.sample(range(H.dim), 2)
            add_term(v, x, c)
            if rng.random() < 0.75:
                add_term(v, y, -c)
        if v:
            gens.append(v)
    return gens


@pytest.mark.parametrize("name", sorted(IDEAL_ALGEBRAS))
def test_two_sided_ideal_is_the_span_of_every_product(name):
    H = IDEAL_ALGEBRAS[name]()
    rng = random.Random(1729)
    ranks = set()
    for _ in range(20):
        gens = _random_gens(H, rng)
        got = two_sided_ideal(H, gens)
        assert got.canonical() == _all_pairs_ideal(H, gens).canonical()
        ranks.add(got.rank)
    assert len(ranks) > 1


def test_two_sided_ideal_beyond_its_left_ideal():
    # g = e_(1 2) - e_() in kS3 (and over Q(zeta_3)): H g has dim 3 and H g H
    # dim 5, so the products g e_k must be closed on the left as well
    for conductor in (1, 3):
        S3 = symmetric(3)
        H = group_algebra(S3, conductor=conductor)
        one, idx = H.field.one, S3.element_index()
        g = {idx[parse_cycles("(1 2)", 3)]: one, idx[S3.identity()]: -one}
        left = Echelon()
        for i in range(H.dim):
            left.add(H.mul_vec(H.basis_vec(i), g))
        got = two_sided_ideal(H, [g])
        assert (left.rank, got.rank) == (3, 5)
        assert got.canonical() == _all_pairs_ideal(H, [g]).canonical()


def _all_pairs_multiplicative(m):
    """The unit and multiplicativity violations of m over every basis pair:
    the oracle of HopfMorphism.verify, which skips the pairs that give {}
    on both sides."""
    src, tgt = m.source, m.target
    bad = [] if m.apply(src.unit) == tgt.unit else [("unit",)]
    for i, row in enumerate(src.mult):
        for j in range(src.dim):
            if m.apply(row.get(j, {})) != tgt.mul_vec(m.cols[i], m.cols[j]):
                bad.append(("multiplicative", i, j))
    return bad


def _with_col(m, i, col):
    cols = list(m.cols)
    cols[i] = col
    return HopfMorphism(m.source, m.target, cols)


def _retargeted(m, i):
    """m with the entries of column i moved to the next target index."""
    return _with_col(m, i, {(k + 1) % m.target.dim: c for k, c in m.cols[i].items()})


def _morphism_case(name, D):
    seq = make_abelian_sequence(D)
    s4 = symmetric(4)
    v4 = s4.subgroup([parse_cycles(c, 4) for c in ("(1 2)(3 4)", "(1 3)(2 4)")])
    one = D.field.one
    return {
        "D(S3) i": lambda: seq.i,
        "D(S3) pi": lambda: seq.pi,
        "dual i": lambda: dualize_sequence(seq).i,
        "dual pi": lambda: dualize_sequence(seq).pi,
        "kS4>kS3": lambda: make_group_quotient_sequence(s4, v4).pi,
        "identity": lambda: identity_morphism(group_algebra(symmetric(3))),
        "counit": lambda: counit_morphism(D),
        "pi retargeted": lambda: _retargeted(seq.pi, 1),
        "i retargeted": lambda: _retargeted(seq.i, 2),
        "pi empty column filled": lambda: _with_col(seq.pi, D.dim - 1, {0: one}),
        "pi column emptied": lambda: _with_col(seq.pi, 3, {}),
    }[name]()


@pytest.mark.parametrize("name", [
    "D(S3) i", "D(S3) pi", "dual i", "dual pi", "kS4>kS3", "identity", "counit",
    "pi retargeted", "i retargeted", "pi empty column filled", "pi column emptied",
])
def test_morphism_verify_matches_all_pairs(name, double_s3):
    m = _morphism_case(name, double_s3)
    expected = _all_pairs_multiplicative(m)
    got = [v for v in m.verify() if v[0] in ("unit", "multiplicative")]
    assert got == expected
    assert bool(expected) == name.startswith(("pi ", "i "))


def test_verify_exact_sequence_double(double_s3):
    seq = make_abelian_sequence(double_s3)
    status = verify_exact_sequence(seq)
    assert status["exact"]
    assert double_s3.dim == seq.h_prime.dim * seq.h_doubleprime.dim == 36


def test_verify_exact_sequence_group_quotient():
    s3 = symmetric(3)
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    status = verify_exact_sequence(make_group_quotient_sequence(s3, a3))
    assert status["exact"]


def test_exact_sequence_negative_control():
    # inclusion of the non-normal k<(12)> with the A3-quotient projection:
    # ranks pass, the ideal condition fails
    s3 = symmetric(3)
    a3 = s3.subgroup([parse_cycles("(1 2 3)", 3)])
    z2 = s3.subgroup([parse_cycles("(1 2)", 3)])
    good = make_group_quotient_sequence(s3, a3)
    H = good.h
    sub = _coordinate_subalgebra(H, s3, z2)
    bad_i = HopfMorphism(standalone_subalgebra(sub), H, list(sub.basis))
    bad = ExactSequenceH(h_prime=bad_i.source, i=bad_i, h=H,
                         pi=good.pi, h_doubleprime=good.h_doubleprime)
    status = verify_exact_sequence(bad)
    assert status["injective"] and status["surjective"]
    assert not status["kernel_is_ideal"]
    assert not status["coinvariants_match"]
    assert not status["exact"]


def test_dualize_sequence(double_s3):
    seq = make_abelian_sequence(double_s3)
    verify_exact_sequence(seq)
    dual = dualize_sequence(seq)
    # one dual per algebra: the maps share the algebras of the sequence
    assert dual.i.target is dual.h is dual.pi.source
    assert dual.i.source is dual.h_prime and dual.pi.target is dual.h_doubleprime
    status = verify_exact_sequence(dual)
    assert status["exact"]
    # kernel of the dual sequence is (kS3)* = k^(S3)
    assert dual.h_prime.structure_equal(dual_group_algebra(symmetric(3)))
    # double dual returns the original structure constants
    ddual = dualize_sequence(dual)
    assert ddual.h.structure_equal(seq.h)
    assert ddual.h_prime.structure_equal(seq.h_prime)


def test_dualize_split_sequence():
    from hopfseq import bicrossed_product, trivial_pair

    H = bicrossed_product(trivial_pair(cyclic(2), symmetric(3)))
    seq = make_abelian_sequence(H)
    assert verify_exact_sequence(seq)["exact"]
    assert verify_exact_sequence(dualize_sequence(seq))["exact"]


def test_composition_series_double_s3(double_s3):
    ser = composition_series_hopf(double_s3)
    assert ser.multiset() == (
        ("dual", "Z2", 2), ("dual", "Z3", 3), ("group", "Z2", 2), ("group", "Z3", 3))
    assert sum(1 for _ in ser.factors) == 4


def test_composition_series_simple_group_algebra():
    ser = composition_series_hopf(group_algebra(alternating(5)))
    assert [(f.kind, f.label) for f in ser.factors] == [("group", "A5")]


def test_composition_series_symbolic_refs():
    ser = composition_series_hopf(DualGroupAlgebraRef(symmetric(6)))
    assert sorted((f.kind, f.label) for f in ser.factors) == [
        ("dual", "A6"), ("dual", "Z2")]
    ser = composition_series_hopf(GroupAlgebraRef(alternating(6)))
    assert [(f.kind, f.label) for f in ser.factors] == [("group", "A6")]


def test_jh_compare():
    d = drinfeld_double(symmetric(3))
    s1 = composition_series_hopf(d)
    s2 = composition_series_hopf(d, chooser=lambda cands: list(reversed(cands)))
    assert jh_compare(s1, s2)
    z36 = composition_series_hopf(group_algebra(cyclic(36)))
    assert not jh_compare(s1, z36)


def test_jh_exhaustive_small():
    for H in [drinfeld_double(cyclic(4)), drinfeld_double(klein_four()),
              group_algebra(symmetric(4)), dual_group_algebra(symmetric(4)),
              group_algebra(quaternion8())]:
        assert len(all_hopf_series_multisets(H)) == 1


def test_standalone_subalgebra_roundtrip(double_s3):
    from hopfseq import verify_hopf_axioms

    cands = normal_subalgebra_candidates(double_s3)
    assert cands, "double should expose normal subalgebras"
    for cand in cands:
        sub = standalone_subalgebra(cand.sub)
        assert verify_hopf_axioms(sub).ok
        assert sub.dim == cand.sub.dim


def test_span_that_is_not_closed():
    # k e_(1 2) in kS3 misses the unit and e_(1 2)^2 = 1
    s3 = symmetric(3)
    H = group_algebra(s3)
    K = span_subalgebra(H, [{s3.element_index()[parse_cycles("(1 2)", 3)]: H.field.one}])
    assert K.verify() == [("unit",), ("mult", 0, 0)]
    with pytest.raises(ExactnessError):
        standalone_subalgebra(K)


def test_closure_refuses_a_basis_that_is_not_its_echelon_basis():
    # coordinates are read at the pivots, so only the reduced echelon basis
    # in pivot order is accepted: not its rows reordered, nor a row scaled
    s3 = symmetric(3)
    H, idx = group_algebra(s3), s3.element_index()
    one = H.field.one
    K = span_subalgebra(H, [{idx[g]: one} for g in (s3.identity(), parse_cycles("(1 2)", 3))])
    assert K.verify() == []
    for basis in (K.basis[::-1], [K.basis[0], {k: one + one for k in K.basis[1]}]):
        with pytest.raises(ValueError, match="echelon"):
            HopfSubalgebra(H, basis).verify()


def _tagged_closure(K):
    """The closure pass with the K (x) K reader it had before: a tagged
    Echelon over every b_a (x) b_b."""
    H = K.ambient
    span, tens = TaggedEchelon(H.field), TaggedEchelon(H.field)
    for a, x in enumerate(K.basis):
        span.add(x, tag=a)
        for b, y in enumerate(K.basis):
            tens.add({(i, j): ci * cj for i, ci in x.items() for j, cj in y.items()}, tag=(a, b))
    return _transported(H, K.basis, span.coords, tens.coords,
                        [f"b{a}" for a in range(len(K.basis))])


def _not_closed_spans():
    """Spans that are not Hopf subalgebras: in k^S3 the indicators of
    {(), (1 2)} and of its complement, and the indicators of the cosets
    Z g of Z = <(1 2)>, whose coproducts lie in K (x) H but not in K (x) K
    (both are subalgebras, not subcoalgebras); in kS3 k e_(1 2); in D(S3)
    the unit with two basis vectors."""
    S3 = symmetric(3)
    F, kS3 = dual_group_algebra(S3), group_algebra(S3)
    one, idx = F.field.one, S3.element_index()
    t = parse_cycles("(1 2)", 3)
    pair = {idx[S3.identity()], idx[t]}
    cosets = {frozenset((idx[g], idx[compose(t, g)])) for g in S3.elements}
    D = drinfeld_double(S3)
    return {
        "k^S3 indicators": span_subalgebra(
            F, [{i: one for i in pair}, {i: one for i in range(6) if i not in pair}]),
        "k^S3 cosets": span_subalgebra(F, [dict.fromkeys(c, one) for c in cosets]),
        "kS3 e_(1 2)": span_subalgebra(kS3, [{idx[t]: one}]),
        "D(S3) unit, e_1, e_7": span_subalgebra(D, [D.unit, {1: one}, {7: one}]),
    }


# the algebras whose series bench/libjob.py prints
CATALOG_ALGEBRAS = {
    "D(S3)": lambda: drinfeld_double(symmetric(3)),
    "kD6": lambda: group_algebra(dihedral(6)),
    "k^A4": lambda: dual_group_algebra(alternating(4)),
}


def _closed_spans():
    return {f"{name} {cand.sub.note} {n}": cand.sub for name, make in CATALOG_ALGEBRAS.items()
            for n, cand in enumerate(normal_subalgebra_candidates(make()))}


def test_one_leg_tensor_reader_matches_the_tagged_echelon():
    closed, not_closed = _closed_spans(), _not_closed_spans()
    assert len(closed) == 8
    for name, K in {**closed, **not_closed}.items():
        alg, bad = _tagged_closure(K)
        assert K.verify() == bad, name
        assert bool(bad) == (name in not_closed), name
        if bad:
            with pytest.raises(ExactnessError):
                standalone_subalgebra(K)
        else:
            assert standalone_subalgebra(K).structure_equal(alg), name
    assert not_closed["k^S3 indicators"].verify() == [("comult", 0), ("comult", 1)]


def test_normality_witness_of_a_non_normal_subgroup():
    S3 = symmetric(3)
    H = group_algebra(S3)
    one, idx = H.field.one, S3.element_index()
    K = span_subalgebra(H, [{idx[S3.identity()]: one}, {idx[parse_cycles("(1 2)", 3)]: one}])
    assert is_normal_subalgebra(K) == (False, ("left", 1, 1))


# (subalgebra note, candidate note, dim, support of each basis vector) of
# every candidate, in order; every coefficient is one
PINNED_CANDIDATES = {
    "D(S3)": [
        ("i(k^[S3/Z3])", "canonical function-algebra part", 2, [[0, 18, 24], [6, 12, 30]]),
        ("i(k^[S3/1])", "canonical function-algebra part", 6,
         [[0], [6], [12], [18], [24], [30]]),
    ],
    "kD6": [
        ("k[Z2]", "group algebra of normal subgroup Z2", 2, [[0], [7]]),
        ("k[Z3]", "group algebra of normal subgroup Z3", 3, [[0], [5], [9]]),
        ("k[S3]", "group algebra of normal subgroup S3", 6, [[0], [1], [4], [5], [8], [9]]),
        ("k[S3]", "group algebra of normal subgroup S3", 6, [[0], [2], [5], [6], [9], [11]]),
        ("k[Z6]", "group algebra of normal subgroup Z6", 6, [[0], [3], [5], [7], [9], [10]]),
    ],
    "k^A4": [
        ("k^[A4/Z2xZ2]", "functions on quotient by Z2xZ2", 3,
         [[0, 3, 8, 11], [1, 5, 6, 10], [2, 4, 7, 9]]),
    ],
}


@pytest.mark.parametrize("name", sorted(PINNED_CANDIDATES))
def test_candidate_lists_are_pinned(name):
    H = CATALOG_ALGEBRAS[name]()
    one = H.field.one
    got = [(c.sub.note, c.note, c.sub.dim, c.canonical()) for c in normal_subalgebra_candidates(H)]
    assert got == [(note, cnote, dim, tuple(tuple((k, one) for k in s) for s in supports))
                   for note, cnote, dim, supports in PINNED_CANDIDATES[name]]


def test_identify_forms():
    assert identify_group_form(group_algebra(symmetric(3))) is not None
    assert identify_group_form(dual_group_algebra(symmetric(3))) is None
    assert identify_dual_form(dual_group_algebra(quaternion8())) is not None
    assert identify_dual_form(group_algebra(quaternion8())) is None


def test_identify_forms_refuse_a_unit_or_counit_off_the_identity():
    # both readers are the group-form reader, on H and on H*: the unit of kS3
    # and the counit of k^S3 must be the identity's basis vector with
    # coefficient one, else the unit or counit axiom fails; and every
    # product must be one basis vector, also when a product split across two
    # cells still reads as the group's row (e_a e_j = e_x + e_y, x < y, and
    # e_a e_(j+1) = 0), or its mirror in k^S3 (the term e_a (x) e_k of a
    # Delta moved onto the pair (a, k-1) of another)
    S3 = symmetric(3)
    H, D = group_algebra(S3), dual_group_algebra(S3)
    one, zero = H.field.one, H.field.zero
    e = S3.element_index()[S3.identity()]
    other = (e + 1) % 6

    def counit(at, c):
        return [c if i == at else zero for i in range(6)]

    row = H.mult[other]
    j = next(j for j in range(5) if min(row[j]) < min(row[j + 1]))
    split = list(H.mult)
    split[other] = {**row, j: {min(row[j]): one, min(row[j + 1]): one}}
    del split[other][j + 1]
    for unit, mult in (({e: one + one}, H.mult), ({other: one}, H.mult), (H.unit, split)):
        bad = HopfAlgebra(H.field, H.basis_labels, mult, unit, H.comult, H.counit, H.antipode)
        assert not verify_hopf_axioms(bad).ok
        assert identify_group_form(bad) is None

    T = dual_product(D)
    k = next(k for k in range(1, 6) if min(T[other][k - 1]) < min(T[other][k]))
    (i,) = T[other][k]
    moved = [list(terms) for terms in D.comult]
    moved[i] = [(other, k - 1, c) if (x, y) == (other, k) else (x, y, c) for x, y, c in moved[i]]
    for eps, comult in ((counit(e, one + one), D.comult), (counit(other, one), D.comult),
                        (D.counit, moved)):
        bad = HopfAlgebra(D.field, D.basis_labels, D.mult, D.unit, comult, eps, D.antipode)
        assert not verify_hopf_axioms(bad).ok
        assert identify_dual_form(bad) is None


def test_strictly_exact_conditions_double(double_s3):
    # for the canonical projection: left and right coinvariants agree (the
    # map is normal), the categorical kernel is the image of i, and the
    # categorical cokernel of i is the quotient side
    seq = make_abelian_sequence(double_s3)
    left = coinvariants(seq.pi, "left")
    right = coinvariants(seq.pi, "right")
    assert subspace_equal(left, right)
    K = hopf_kernel(seq.pi)
    assert subspace_equal(K.basis, list(seq.i.cols))
    Q, _ = hopf_cokernel(seq.i)
    assert Q.dim == seq.h_doubleprime.dim
    Gq = identify_group_form(Q)
    assert Gq is not None and iso_label(Gq) == "S3"


def test_sequence_witness_dimensions(double_s3):
    seq = make_abelian_sequence(double_s3)
    status = verify_exact_sequence(seq)
    wit = status["witness"]
    assert wit["rank_i"] == 6 and wit["rank_pi"] == 6
    assert wit["dim_ker_pi"] == wit["dim_ideal"] == 30
    assert wit["dim_coinvariants"] == 6
    assert wit["dims"] == (6, 36, 6)


def _s4_as_z2_a4():
    S4 = symmetric(4)
    z2 = S4.subgroup([parse_cycles("(1 2)", 4)])
    a4 = S4.subgroup([parse_cycles("(1 2 3)", 4), parse_cycles("(1 2)(3 4)", 4)])
    return bicrossed_product(from_factorization(S4, z2, a4))


PINNED_ALGEBRAS = {
    "kS4": lambda: group_algebra(symmetric(4)),
    "k^S4": lambda: dual_group_algebra(symmetric(4)),
    "kQ8": lambda: group_algebra(quaternion8()),
    "D(S3)": lambda: drinfeld_double(symmetric(3)),
    "D(Z4)": lambda: drinfeld_double(cyclic(4)),
    "D(Q8)": lambda: drinfeld_double(quaternion8()),
    "S4=Z2.A4": _s4_as_z2_a4,
}

# (default chain, its provenance, reversed-chooser chain, its provenance,
# the factor multiset of every chain).  These are the chains that quotient
# templates gave before every group-form and dual-form split, and the split
# at i(k^[Gamma/1]), went through the generic cokernel; the bicrossed
# products' chains also pin the tagged quotients that split them again.
PINNED_CHAINS = {
    "kS4": (
        "k[Z2] k[Z2] k[Z3] k[Z2]",
        "split at k[Z2xZ2] (dim 4); split at k[Z2] (dim 2); terminal; terminal; split at k[Z3] "
        "(dim 3); terminal; terminal",
        "k[Z2] k[Z2] k[Z3] k[Z2]",
        "split at k[A4] (dim 12); split at k[Z2xZ2] (dim 4); split at k[Z2] (dim 2); terminal; "
        "terminal; terminal; terminal",
        "group:Z2 group:Z2 group:Z2 group:Z3"),
    "k^S4": (
        "k^[Z2] k^[Z3] k^[Z2] k^[Z2]",
        "split at k^[S4/A4] (dim 2); terminal; split at k^[A4/Z2xZ2] (dim 3); terminal; split "
        "at k^[Z2xZ2/Z2] (dim 2); terminal; terminal",
        "k^[Z2] k^[Z3] k^[Z2] k^[Z2]",
        "split at k^[S4/Z2xZ2] (dim 6); split at k^[S3/Z3] (dim 2); terminal; terminal; split "
        "at k^[Z2xZ2/Z2] (dim 2); terminal; terminal",
        "dual:Z2 dual:Z2 dual:Z2 dual:Z3"),
    "kQ8": (
        "k[Z2] k[Z2] k[Z2]",
        "split at k[Z2] (dim 2); terminal; split at k[Z2] (dim 2); terminal; terminal",
        "k[Z2] k[Z2] k[Z2]",
        "split at k[Z4] (dim 4); split at k[Z2] (dim 2); terminal; terminal; terminal",
        "group:Z2 group:Z2 group:Z2"),
    "D(S3)": (
        "k^[Z2] k^[Z3] k[Z3] k[Z2]",
        "split at i(k^[S3/Z3]) (dim 2); terminal; split at i(k^[Z3/1]) (dim 3); terminal; split"
        " at k[Z3] (dim 3); terminal; terminal",
        "k^[Z2] k^[Z3] k[Z3] k[Z2]",
        "split at i(k^[S3/1]) (dim 6); split at k^[S3/Z3] (dim 2); terminal; terminal; split at"
        " k[Z3] (dim 3); terminal; terminal",
        "dual:Z2 dual:Z3 group:Z2 group:Z3"),
    "D(Z4)": (
        "k[Z2] k[Z2] k^[Z2] k^[Z2]",
        "split at 1#k[Z2] (dim 2); terminal; split at 1#k[Z2] (dim 2); terminal; split at "
        "k^[Z4/Z2] (dim 2); terminal; terminal",
        "k[Z2] k[Z2] k^[Z2] k^[Z2]",
        "split at 1#k[Z4] (dim 4); split at k[Z2] (dim 2); terminal; terminal; split at "
        "k^[Z4/Z2] (dim 2); terminal; terminal",
        "dual:Z2 dual:Z2 group:Z2 group:Z2"),
    "D(Q8)": (
        "k^[Z2] k^[Z2] k^[Z2] k[Z2] k[Z2] k[Z2]",
        "split at i(k^[Q8/Z4]) (dim 2); terminal; split at i(k^[Z4/Z2]) (dim 2); terminal; "
        "split at i(k^[Z2/1]) (dim 2); terminal; split at k[Z2] (dim 2); terminal; split at "
        "k[Z2] (dim 2); terminal; terminal",
        "k^[Z2] k^[Z2] k^[Z2] k[Z2] k[Z2] k[Z2]",
        "split at i(k^[Q8/1]) (dim 8); split at k^[Q8/Z2] (dim 4); split at k^[Z2xZ2/Z2] (dim "
        "2); terminal; terminal; terminal; split at k[Z4] (dim 4); split at k[Z2] (dim 2); "
        "terminal; terminal; terminal",
        "dual:Z2 dual:Z2 dual:Z2 group:Z2 group:Z2 group:Z2"),
    "S4=Z2.A4": (
        "k^[Z3] k^[Z2] k^[Z2] k[Z2]",
        "split at i(k^[A4/Z2xZ2]) (dim 3); terminal; split at i(k^[Z2xZ2/Z2]) (dim 2); "
        "terminal; split at i(k^[Z2/1]) (dim 2); terminal; terminal",
        "k^[Z3] k^[Z2] k^[Z2] k[Z2]",
        "split at i(k^[A4/1]) (dim 12); split at k^[A4/Z2xZ2] (dim 3); terminal; split at "
        "k^[Z2xZ2/Z2] (dim 2); terminal; terminal; terminal",
        "dual:Z2 dual:Z2 dual:Z3 group:Z2"),
}


@pytest.mark.parametrize("name", sorted(PINNED_CHAINS))
def test_series_chains_and_provenance_are_pinned(name):
    H = PINNED_ALGEBRAS[name]()
    default, dprov, reverse, rprov, multiset = PINNED_CHAINS[name]
    s1 = composition_series_hopf(H)
    s2 = composition_series_hopf(H, chooser=lambda cands: list(reversed(cands)))
    for ser, factors, provenance in ((s1, default, dprov), (s2, reverse, rprov)):
        assert " ".join(f.pretty() for f in ser.factors) == factors
        assert "; ".join(ser.provenance) == provenance
    assert {" ".join(f"{kind}:{label}" for kind, label, _ in m)
            for m in all_hopf_series_multisets(H)} == {multiset}



@pytest.mark.parametrize("G", [symmetric(4), dihedral(6), quaternion8()], ids=["S4", "D6", "Q8"])
def test_group_form_split_is_the_cokernel_k_of_g_over_n(G):
    # kG/kG(kN)+ is k[G/N] on the nose, one group-like per coset: so the
    # generic cokernel is the quotient, with no template and no origin tag
    H = group_algebra(G)
    cands = normal_subalgebra_candidates(H)
    assert cands
    for cand in cands:
        N = from_elements(G.degree, [G.elements[i] for v in cand.sub.basis for i in v])
        Q = _split_along(H, cand)[1]
        GN, _ = quotient_group(G, N)
        read = identify_group_form(Q)
        assert Q.origin is None and read is not None
        assert (iso_label(read), read.order) == (iso_label(GN), GN.order)


@pytest.mark.parametrize("G", [symmetric(4), alternating(4)], ids=["S4", "A4"])
def test_dual_form_split_is_the_cokernel_k_to_the_n(G):
    # k^G over the coset indicators of N is k^N on the nose, the idempotents
    # e_n for n in N
    H = dual_group_algebra(G)
    e = G.element_index()[G.identity()]
    cands = normal_subalgebra_candidates(H)
    assert cands
    for cand in cands:
        coset = next(v for v in cand.sub.basis if e in v)
        N = from_elements(G.degree, [G.elements[i] for i in coset])
        Q = _split_along(H, cand)[1]
        read = identify_dual_form(Q)
        assert Q.origin is None and read is not None
        assert (iso_label(read), read.order) == (iso_label(N), N.order)


def test_canonical_function_part_split_is_the_cokernel_kg(double_s3):
    cand = next(c for c in normal_subalgebra_candidates(double_s3)
                if c.sub.note == "i(k^[S3/1])")
    Q = _split_along(double_s3, cand)[1]
    read = identify_group_form(Q)
    assert Q.origin is None and read is not None
    assert (iso_label(read), read.order) == ("S3", 6)
