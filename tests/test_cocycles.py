from itertools import product

import pytest

from hopfseq import (
    cocycle_class_trivial,
    coboundary_search,
    conjugate_twisted,
    cyclic,
    direct_product,
    klein_four,
    trivial_cocycle,
    trivial_paired_cocycles,
)
from hopfseq.cocycles import (
    CocycleCapExceeded,
    CocycleError,
    PairedCocycles,
    TwoCocycle,
    is_symmetric_cocycle,
)
from hopfseq.groups import CapExceeded, PermGroup, alternating, subgroup_classes, symmetric
from hopfseq.perm import compose

from helpers import bilinear_cocycle, nondegenerate_v4_cocycle


def all_cocycle_tables(T: PermGroup, N: int):
    """Every normalized 2-cocycle table on T with values mod N (brute force)."""
    e = T.identity()
    free_pairs = [(a, b) for a in T.elements for b in T.elements
                  if a != e and b != e]
    for values in product(range(N), repeat=len(free_pairs)):
        table = {(a, b): 0 for a in T.elements for b in T.elements}
        table.update(dict(zip(free_pairs, values)))
        psi = TwoCocycle(carrier=T, conductor=N, table=table)
        if not psi.validate():
            yield psi


def test_trivial_cocycle_validates():
    psi = trivial_cocycle(symmetric(3), 4)
    assert not psi.validate()
    assert psi.is_trivial_table()
    assert cocycle_class_trivial(symmetric(3), psi)


def test_two_cocycle_keeps_only_its_nonzero_exponents():
    # the carry cocycle of Z4 mod 2 (1 where a + b wraps past 4), written
    # out in full with its zeros and sparse: one record either way
    T = cyclic(4)
    gen, p, k = T.generators[0], T.identity(), {}
    for i in range(4):
        k[p], p = i, compose(p, gen)
    dense = {(a, b): int(k[a] + k[b] >= 4) for a in T.elements for b in T.elements}
    sparse = {key: v for key, v in dense.items() if v}
    psi, phi = TwoCocycle(T, 2, dense), TwoCocycle(T, 2, sparse)
    assert psi == phi and psi.table == sparse
    # the record holds a dict, so it does not hash; its table's items do
    assert hash(frozenset(psi.table.items())) == hash(frozenset(phi.table.items()))
    assert not psi.validate() and not psi.is_trivial_table()
    # a missing entry reads as 0, and the trivial cocycle stores nothing
    assert psi.value(T.identity(), gen) == 0
    assert trivial_cocycle(T, 2).table == {}
    assert TwoCocycle(T, 2, {(gen, gen): 2}).is_trivial_table()


def test_nondegenerate_v4_cocycle():
    T = klein_four()
    psi = nondegenerate_v4_cocycle(T)
    assert not psi.validate()
    assert not is_symmetric_cocycle(psi)
    assert cocycle_class_trivial(T, psi) is False
    assert coboundary_search(psi) is False


def test_criterion_matches_search_exhaustively_z2_z3():
    # small enough to enumerate every cocycle outright
    for T, N in [(cyclic(2), 2), (cyclic(2), 3), (cyclic(2), 4), (cyclic(3), 3)]:
        for psi in all_cocycle_tables(T, N):
            assert is_symmetric_cocycle(psi) == coboundary_search(psi), (T.name, N, psi.table)


def test_criterion_matches_search_exhaustively_v4_mod2():
    T = klein_four()
    count = 0
    for psi in all_cocycle_tables(T, 2):
        assert is_symmetric_cocycle(psi) == coboundary_search(psi)
        count += 1
    # |Z^2| = |B^2| * |H^2| = 2 * 8 for mu_2 coefficients on V4
    assert count == 16


def carry_cocycle(n: int, c: int, N: int) -> TwoCocycle:
    """The carry form on Z_n: psi(a^i, a^j) = zeta^(c * floor((i+j)/n))."""
    T = cyclic(n)
    pos = {x: x[0] for x in T.elements}  # image of 0 identifies the power
    table = {(a, b): c * ((pos[a] + pos[b]) // n) for a in T.elements for b in T.elements}
    psi = TwoCocycle(carrier=T, conductor=N, table=table)
    assert not psi.validate()
    return psi


def test_cyclic_carriers_always_trivial():
    # every cocycle on a cyclic group is carry-form times a coboundary, and
    # both trivialize over k^*; small cases are covered exhaustively above
    import random

    rng = random.Random(3)
    for n, N in [(2, 2), (3, 3), (4, 2), (4, 4), (5, 5), (6, 2), (8, 2), (9, 3)]:
        T = cyclic(n)
        e = T.identity()
        for c in range(N):
            base = carry_cocycle(n, c, N)
            mu = {x: (0 if x == e else rng.randrange(N)) for x in T.elements}
            table = {}
            for a in T.elements:
                for b in T.elements:
                    table[(a, b)] = base.value(a, b) + mu[a] + mu[b] - mu[compose(a, b)]
            psi = TwoCocycle(carrier=T, conductor=N, table=table)
            assert not psi.validate()
            assert cocycle_class_trivial(T, psi)
            assert coboundary_search(psi)


def test_criterion_matches_search_sampled_bigger_carriers():
    import random

    rng = random.Random(7)
    carriers = [
        (klein_four(), 4),
        (direct_product(cyclic(2), cyclic(4)), 4),
        (direct_product(cyclic(3), cyclic(3)), 3),
        (cyclic(8), 4),
        (cyclic(9), 3),
        (direct_product(cyclic(2), direct_product(cyclic(2), cyclic(2))), 2),
    ]
    for T, N in carriers:
        elems = T.elements
        e = T.identity()
        for _trial in range(6):
            # a coboundary twisted by a bilinear-style exponent form
            mu = {x: (0 if x == e else rng.randrange(N)) for x in elems}
            table = {}
            for a in elems:
                for b in elems:
                    table[(a, b)] = (mu[a] + mu[b] - mu[compose(a, b)]) % N
            psi = TwoCocycle(carrier=T, conductor=N, table=table)
            assert not psi.validate()
            assert cocycle_class_trivial(T, psi)
            assert coboundary_search(psi)


def test_bilinear_cocycle_on_z3z3_nontrivial():
    T = direct_product(cyclic(3), cyclic(3))
    coords = {}
    for x in T.elements:
        coords[x] = (x[0], x[3] - 3)  # positions of both 3-cycles
    psi = bilinear_cocycle(T, lambda a, b: coords[a][0] * coords[b][1], 3)
    assert cocycle_class_trivial(T, psi) is False
    assert coboundary_search(psi) is False


def test_conjugate_twisted_preserves_cocycle():
    a6 = alternating(6)
    rows = subgroup_classes(a6)
    v4 = next(r for r in rows if r.iso_label == "Z2xZ2").representative
    psi = nondegenerate_v4_cocycle(v4)
    from hopfseq.groups import normalizer

    N = normalizer(a6, v4)
    for g in N.elements[:8]:
        twisted = conjugate_twisted(psi, g)
        assert not twisted.validate()
    assert conjugate_twisted(trivial_cocycle(v4), N.elements[1]).is_trivial_table()


def test_conjugate_requires_normalizing_element():
    a6 = alternating(6)
    rows = subgroup_classes(a6)
    v4 = next(r for r in rows if r.iso_label == "Z2xZ2").representative
    psi = nondegenerate_v4_cocycle(v4)
    from hopfseq.perm import conjugate

    vset = v4.element_set()
    outside = next(g for g in a6.elements
                   if not all(conjugate(g, t) in vset for t in v4.elements))
    with pytest.raises(CocycleError):
        conjugate_twisted(psi, outside)


def test_paired_cocycles_normalized():
    G, Gamma = cyclic(2), cyclic(3)
    pc = trivial_paired_cocycles(G, Gamma, 4)
    assert pc.normalized(G, Gamma)


def test_paired_cocycles_keep_only_their_nonzero_exponents():
    G, Gamma = cyclic(2), cyclic(3)
    x, s = G.elements[1], Gamma.elements[1]
    pc = PairedCocycles(4, {(s, x, x): 5, (s, x, G.identity()): 8}, {(x, s, s): 0})
    assert pc.sigma == {(s, x, x): 1} and pc.tau == {}
    # a missing entry reads as 0
    assert pc.sigma_at(s, x, G.identity()) == 0 and pc.tau_at(x, s, s) == 0
    trivial = trivial_paired_cocycles(G, Gamma, 4)
    assert trivial.sigma == {} and trivial.tau == {}


def _identity_positions(G, Gamma):
    """(sigma, tau) with one nonzero exponent at each position that
    normalization makes 0."""
    (eG, x), (eGamma, s) = G.elements, Gamma.elements[:2]
    return {
        "sigma_e(x, y)": ({(eGamma, x, x): 1}, {}),
        "sigma_g(e, x)": ({(s, eG, x): 1}, {}),
        "sigma_g(x, e)": ({(s, x, eG): 1}, {}),
        "tau_e(s, t)": ({}, {(eG, s, s): 1}),
        "tau_x(e, s)": ({}, {(x, eGamma, s): 1}),
        "tau_x(s, e)": ({}, {(x, s, eGamma): 1}),
    }


@pytest.mark.parametrize("position", sorted(_identity_positions(cyclic(2), cyclic(3))))
def test_normalized_refuses_an_exponent_at_each_identity_position(position):
    G, Gamma = cyclic(2), cyclic(3)
    sigma, tau = _identity_positions(G, Gamma)[position]
    assert not PairedCocycles(4, sigma, tau).normalized(G, Gamma)
    # an exponent that is 0 mod the conductor is no exponent at all
    assert PairedCocycles(4, {k: 4 for k in sigma}, {k: 4 for k in tau}).normalized(G, Gamma)
    # off the identities the same exponent is allowed
    x, s = G.elements[1], Gamma.elements[1]
    assert PairedCocycles(4, {(s, x, x): 1}, {(x, s, s): 1}).normalized(G, Gamma)


def test_the_search_cap_is_a_cap_and_a_cocycle_error():
    psi = trivial_cocycle(cyclic(18))
    with pytest.raises(CocycleCapExceeded, match="^coboundary search capped at carrier order 16$"):
        coboundary_search(psi)
    with pytest.raises(CocycleError):
        coboundary_search(psi)
    with pytest.raises(CapExceeded):
        coboundary_search(psi)
