"""kG, k^G, D(G) and the bicrossed products, assembled on Cayley indices,
against the perm-composing constructors they replaced, and the shared cells
that every constructor now keeps, checked read-only.

The assembly gives every product e_i e_j = e_k of exponent 0, the unit of
kG and S(e_g) = e_k one shared cell {k: 1}, and HopfAlgebra keeps a clean
cell or vector as it is instead of copying it, so no code may write into
one.  _oracle_group_algebra, _oracle_dual_group_algebra and
_oracle_bicrossed_product are the old constructors, kept as the
references, and _copying_nonzero the old _nonzero, which copied every
cell."""

from types import MappingProxyType

import pytest

from hopfseq import exact, hopf
from hopfseq.cocycles import PairedCocycles, trivial_paired_cocycles
from hopfseq.cyclotomic import get_field
from hopfseq.exact import (
    composition_series_hopf,
    dualize_sequence,
    make_group_quotient_sequence,
    verify_exact_sequence,
)
from hopfseq.groups import (
    PermGroup,
    _cayley,
    abelian_group,
    alternating,
    cyclic,
    dihedral,
    elements,
    exact_factorizations,
    quaternion8,
    symmetric,
)
from hopfseq.hopf import (
    GROUP_ALGEBRA_CAP,
    BicrossedOrigin,
    HopfAlgebra,
    HopfCapExceeded,
    HopfError,
    bicrossed_product,
    bicrossed_work,
    check_conductor,
    check_work,
    drinfeld_double,
    dual_group_algebra,
    dual_hopf,
    group_algebra,
    solve_antipode,
    verify_hopf_axioms,
    weighed_conductor,
)
from hopfseq.io_formats import dump_hopf
from hopfseq.matched import drinfeld_pair, from_factorization
from hopfseq.perm import compose, cycle_string, inverse, parse_cycles

from helpers import carry_twisted_z2, structure_equal
from test_verifier_oracle import _bicrossed_s4_c3


def _oracle_group_algebra(G: PermGroup, conductor: int = 1) -> HopfAlgebra:
    """kG with one composed perm and one fresh cell per product."""
    check_conductor(conductor)
    n = G.order
    if n * n * G.degree > GROUP_ALGEBRA_CAP:
        raise HopfCapExceeded(f"dimension {n}: {n * n * G.degree} perm entries composed on "
                              f"{G.degree} points exceed cap {GROUP_ALGEBRA_CAP}")
    field = get_field(conductor)
    one = field.one
    elems = G.elements
    index = G.element_index()
    mult = [{j: {index[compose(elems[i], elems[j])]: one} for j in range(n)}
            for i in range(n)]
    unit = {index[G.identity()]: one}
    comult = tuple(((i, i, one),) for i in range(n))
    counit = tuple(one for _ in range(n))
    antipode = tuple({index[inverse(elems[j])]: one} for j in range(n))
    return HopfAlgebra(field, [cycle_string(g) for g in elems], mult, unit,
                       comult, counit, antipode)


def _oracle_dual_group_algebra(G: PermGroup, conductor: int = 1) -> HopfAlgebra:
    """k^G as the dual of the perm-composing kG, so under its cap too."""
    check_conductor(conductor)
    check_work(bicrossed_work(1, G.order), G.order, 1)
    D = dual_hopf(_oracle_group_algebra(G, conductor))
    labels = [f"e[{cycle_string(g)}]" for g in G.elements]
    return HopfAlgebra(D.field, labels, D.mult, D.unit, D.comult, D.counit, D.antipode)


def _oracle_bicrossed_product(mp, cocycles=None, conductor=None) -> HopfAlgebra:
    """The bicrossed product with one composed perm per product and per
    Delta term, and its closed-form antipode from inverted perms."""
    G, Gamma = mp.G, mp.Gamma
    dim = G.order * Gamma.order
    conductor = conductor or (1 if cocycles is None else cocycles.conductor)
    check_conductor(conductor)
    check_work(bicrossed_work(G.order, Gamma.order), dim, weighed_conductor(cocycles, conductor))
    if cocycles is None:
        cocycles = trivial_paired_cocycles(G, Gamma, conductor)
    if not cocycles.normalized(G, Gamma):
        raise HopfError("cocycle pair is not normalized")
    field = get_field(conductor)
    one, zeta = field.one, field.zeta  # zeta(0) is one itself
    origin = BicrossedOrigin(mp, cocycles)
    basis, pos = origin.basis(), origin.position
    labels = [f"e[{cycle_string(g)}]#{cycle_string(x)}" for g, x in basis]

    # e_g # x times e_h # y is nonzero only for h = g <| x
    mult = ({pos(mp.ltri(g, x), y): {pos(g, compose(x, y)): zeta(cocycles.sigma_at(g, x, y))}
             for y in G.elements} for g, x in basis)
    eG, eGamma = G.identity(), Gamma.identity()
    unit = {pos(g, eG): one for g in Gamma.elements}
    comult = []
    for g, x in basis:
        terms = []
        for s in Gamma.elements:
            t = compose(inverse(s), g)
            terms.append((pos(s, mp.rtri(t, x)), pos(t, x), zeta(cocycles.tau_at(x, s, t))))
        comult.append(tuple(terms))
    counit = tuple(one if g == eGamma else field.zero for g, x in basis)

    H = HopfAlgebra(field, labels, mult, unit, comult, counit, antipode=None, origin=origin)
    pre = verify_hopf_axioms(H, include_antipode=False)
    if not pre.ok:
        raise HopfError(f"bialgebra axioms fail: {pre.violations[0]}")

    # the closed form S(e_g # x) = e_(g <| x)^-1 # (g |> x)^-1 holds for
    # trivial cocycles; solve_antipode falls through to the solve when not
    candidate = [{pos(inverse(mp.ltri(g, x)), inverse(mp.rtri(g, x))): one}
                 for g, x in basis]
    antipode = solve_antipode(H, candidate=candidate)
    if antipode is None:
        raise HopfError("bialgebra admits no antipode (sigma, tau incompatible)")
    H.antipode = tuple(antipode)
    return H


def _copying_nonzero(vec) -> dict:
    """vec without its zero entries, in increasing key order."""
    return {k: c for k, c in sorted(vec.items()) if not c.is_zero()}


def _built_the_old_way(build):
    """build() with the old constructors and with HopfAlgebra copying every
    cell."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hopf, "_nonzero", _copying_nonzero)
        mp.setattr(hopf, "group_algebra", _oracle_group_algebra)
        mp.setattr(hopf, "dual_group_algebra", _oracle_dual_group_algebra)
        mp.setattr(hopf, "bicrossed_product", _oracle_bicrossed_product)
        return build()


GROUPS = {
    "S3": lambda: symmetric(3),
    "D6": lambda: dihedral(6),
    "Q8": quaternion8,
    "A4": lambda: alternating(4),
    "S4": lambda: symmetric(4),
    "S5": lambda: symmetric(5),
    "Z2xZ4": lambda: abelian_group([2, 4]),
    "Z311": lambda: cyclic(311),
}


@pytest.mark.parametrize("name", GROUPS)
def test_kg_is_the_perm_composing_kg(name):
    G = GROUPS[name]()
    H = group_algebra(G)
    old = _built_the_old_way(lambda: hopf.group_algebra(G))
    assert structure_equal(H, old)
    assert H.basis_labels == old.basis_labels
    # one cell per basis vector, which the unit and the antipode share too
    cells = {id(cell) for row in H.mult for cell in row.values()}
    assert len(cells) == H.dim
    assert {id(H.unit)} | {id(col) for col in H.antipode} <= cells


# the group-algebra constructors, and the bicrossed products, whose cells
# HopfAlgebra now keeps instead of copying
BUILDS = {
    "kS3": lambda: hopf.group_algebra(symmetric(3)),
    "k^S3": lambda: hopf.dual_group_algebra(symmetric(3)),
    "D(S3)": lambda: hopf.drinfeld_double(symmetric(3)),
    "kS4": lambda: hopf.group_algebra(symmetric(4)),
    "k^S4": lambda: hopf.dual_group_algebra(symmetric(4)),
    "D(S4)": lambda: hopf.drinfeld_double(symmetric(4)),
    "S3.C4 conductor 3": _bicrossed_s4_c3,
}


@pytest.mark.parametrize("name", BUILDS)
def test_dumps_are_those_of_the_old_constructors(name):
    build = BUILDS[name]
    assert dump_hopf(build()) == dump_hopf(_built_the_old_way(build))


def _read_only(H: HopfAlgebra) -> HopfAlgebra:
    """H rebuilt with its unit, every product cell and every antipode column
    a read-only view, so that a write into any of them raises TypeError."""
    return HopfAlgebra(H.field, H.basis_labels,
                       [{j: MappingProxyType(cell) for j, cell in row.items()} for row in H.mult],
                       MappingProxyType(H.unit), H.comult, H.counit,
                       [MappingProxyType(col) for col in H.antipode], origin=H.origin)


@pytest.fixture
def read_only_kg(monkeypatch):
    """Every kG, k^G, D(G) and bicrossed product the library builds, the
    exact sequences and the series templates included, comes with
    read-only cells: the assembly hands out read-only views."""
    assemble = hopf._extension

    def build(*args):
        rows, unit, comult, counit, antipode = assemble(*args)
        return (({j: MappingProxyType(cell) for j, cell in row.items()} for row in rows),
                MappingProxyType(unit), comult, counit,
                [MappingProxyType(col) for col in antipode])

    monkeypatch.setattr(hopf, "_extension", build)


def _assert_kept(R: HopfAlgebra) -> None:
    """HopfAlgebra kept the views rather than copies, and they refuse writes."""
    kept = [R.unit, *R.antipode, *(cell for row in R.mult for cell in row.values())]
    assert all(type(v) is MappingProxyType for v in kept)
    cell = next(iter(R.mult[0].values()))
    with pytest.raises(TypeError):
        cell[next(iter(cell))] = R.field.zero


@pytest.mark.parametrize("build", [lambda: group_algebra(symmetric(4)),
                                   lambda: drinfeld_double(symmetric(3)),
                                   lambda: dual_group_algebra(symmetric(3))],
                         ids=["kS4", "D(S3)", "k^S3"])
def test_shared_cells_are_only_read(read_only_kg, build):
    H = build()
    _assert_kept(H)
    R = _read_only(H)
    _assert_kept(R)
    assert verify_hopf_axioms(R).ok
    assert dump_hopf(R) == dump_hopf(H)
    assert dump_hopf(dual_hopf(R)) == dump_hopf(dual_hopf(H))
    assert composition_series_hopf(R).multiset() == composition_series_hopf(H).multiset()


def test_exactness_reads_shared_cells_only(read_only_kg):
    S4 = symmetric(4)
    V4 = S4.subgroup([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    seq = make_group_quotient_sequence(S4, V4)
    for R in (seq.h_prime, seq.h, seq.h_doubleprime):
        _assert_kept(R)
    assert verify_exact_sequence(seq)["exact"]
    assert verify_exact_sequence(dualize_sequence(seq))["exact"]


def _assert_same(new: HopfAlgebra, old: HopfAlgebra) -> None:
    assert structure_equal(new, old)
    assert new.basis_labels == old.basis_labels
    assert dump_hopf(new) == dump_hopf(old)
    # one int object per index, in every row, cell, term, the unit and S
    ints = {id(j) for row in new.mult for j in row}
    ints.update(id(k) for row in new.mult for cell in row.values() for k in cell)
    ints.update(id(i) for terms in new.comult for j, k, _ in terms for i in (j, k))
    ints.update(id(i) for vec in (new.unit, *new.antipode) for i in vec)
    assert len(ints) == new.dim


DUALS = {
    "S3": (lambda: symmetric(3), 1),
    "S4": (lambda: symmetric(4), 1),
    "S5": (lambda: symmetric(5), 1),
    "Q8": (quaternion8, 1),
    "Z6 conductor 4": (lambda: cyclic(6), 4),
}


@pytest.mark.parametrize("name", DUALS)
def test_dual_group_algebra_is_the_dual_of_the_perm_composing_kg(name):
    make, conductor = DUALS[name]
    G = make()
    _assert_same(dual_group_algebra(G, conductor), _oracle_dual_group_algebra(G, conductor))


DOUBLES = {
    "Z2": lambda: cyclic(2),
    "S3": lambda: symmetric(3),
    "Q8": quaternion8,
    "A4": lambda: alternating(4),
    "S4": lambda: symmetric(4),
}


@pytest.mark.parametrize("name", DOUBLES)
def test_drinfeld_double_is_the_perm_composing_double(name):
    G = DOUBLES[name]()
    _assert_same(drinfeld_double(G), _oracle_bicrossed_product(drinfeld_pair(G)))


def test_the_a5_matched_pair_product_is_the_perm_composing_one(a5_matched_pair, bicrossed60):
    _assert_same(bicrossed60, _oracle_bicrossed_product(a5_matched_pair))


@pytest.mark.parametrize("degree", [3, 4])
def test_every_factorization_in_both_orders_is_the_perm_composing_product(degree):
    E = symmetric(degree)
    for f in exact_factorizations(E):
        for G, Gamma in ((f.left, f.right), (f.right, f.left)):
            mp = from_factorization(E, G, Gamma)
            _assert_same(bicrossed_product(mp), _oracle_bicrossed_product(mp))


def test_s3_c4_at_conductor_3_is_the_perm_composing_product():
    E = symmetric(4)
    G = E.subgroup([parse_cycles("(1 2 3)", 4), parse_cycles("(1 2)", 4)])
    Gamma = E.subgroup([parse_cycles("(1 2 3 4)", 4)])
    mp = from_factorization(E, G, Gamma)
    old = _oracle_bicrossed_product(mp, trivial_paired_cocycles(G, Gamma, 3), conductor=3)
    _assert_same(_bicrossed_s4_c3(), old)


def test_the_twisted_products_are_the_perm_composing_ones():
    # sigma_s(x, x) = -1, and its dual twist tau_x(s, s) = -1, for x and s
    # the generators of G = Gamma = Z2
    mp, cocycles = carry_twisted_z2()
    s, x = mp.Gamma.elements[1], mp.G.elements[1]
    dual = PairedCocycles(2, {}, {(x, s, s): 1})
    for pair in (cocycles, dual):
        _assert_same(bicrossed_product(mp, pair), _oracle_bicrossed_product(mp, pair))


def test_the_series_templates_are_the_perm_composing_products(monkeypatch, double_s3):
    # the quotient templates that the Hopf series build: D(S3)'s series a
    # restricted pair (Gamma cut to a normal subgroup), and D(Z4)'s, whose
    # <| is trivial, induced pairs (G cut to a quotient) too
    calls = []

    def record(mp, cocycles=None, conductor=None):
        calls.append((mp, cocycles, conductor))
        return bicrossed_product(mp, cocycles, conductor)

    monkeypatch.setattr(exact, "bicrossed_product", record)
    kinds = set()
    for H in (double_s3, drinfeld_double(cyclic(4))):
        composition_series_hopf(H)
        pair = H.origin.pair
        kinds |= {"restricted" if mp.G == pair.G else "induced" for mp, _, _ in calls}
        for mp, cocycles, conductor in calls:
            _assert_same(bicrossed_product(mp, cocycles, conductor),
                         _oracle_bicrossed_product(mp, cocycles, conductor))
        calls.clear()
    assert kinds == {"restricted", "induced"}


def test_trivial_cocycles_give_one_product_cell_per_basis_vector():
    H = drinfeld_double(symmetric(3))
    cells = {id(cell) for row in H.mult for cell in row.values()}
    assert len(cells) == H.dim
    assert {id(col) for col in H.antipode} <= cells


def test_kg_and_k_dual_read_the_table_the_lattice_cached():
    G = symmetric(4)
    exact_factorizations(G)
    misses = _cayley.cache_info().misses
    group_algebra(G)
    dual_group_algebra(G)
    assert _cayley.cache_info().misses == misses


def test_dual_group_algebra_takes_the_work_cap_and_not_the_kg_cap():
    # Z216 on 700 points: kG is refused by its own cap, which the old k^G,
    # the dual of kG, took too; k^G composes nothing, and its work is that
    # of k^Z216 on 216 points, under the work cap
    cycle = "(" + " ".join(str(p) for p in range(1, 217)) + ")"
    G = elements([parse_cycles(cycle, 700)], 700)
    for build in (group_algebra, _oracle_dual_group_algebra):
        with pytest.raises(HopfCapExceeded, match="32659200 perm entries composed"):
            build(G)
    H, small = dual_group_algebra(G), dual_group_algebra(cyclic(216))
    assert structure_equal(H, small) and H.basis_labels == small.basis_labels
