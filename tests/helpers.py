"""Helpers that only the tests read: trivial morphisms, the group-form
readers, antipode checks, structure equality, bilinear and Klein-four
cocycles, a sigma-twisted cocycle pair, and every composition-factor
multiset of a group.  The library does not use them, so they live here
rather than in src."""

from __future__ import annotations

from hopfseq.cocycles import CocycleError, PairedCocycles, TwoCocycle
from hopfseq.cyclotomic import CycField
from hopfseq.exact import HopfMorphism, _dual_form_with_perms, _group_form_with_perms
from hopfseq.groups import (
    PermGroup,
    cyclic,
    iso_label,
    normal_subgroups,
    pow_perm,
    quotient_group,
    small_generating_set,
)
from hopfseq.hopf import _ZERO, HopfAlgebra
from hopfseq.linalg import rank_of_columns
from hopfseq.matched import MatchedPair, trivial_pair
from hopfseq.perm import compose


def identity_morphism(H: HopfAlgebra) -> HopfMorphism:
    return HopfMorphism(H, H, [H.basis_vec(i) for i in range(H.dim)])


def counit_morphism(H: HopfAlgebra) -> HopfMorphism:
    """H -> k (the trivial Hopf algebra over the same field)."""
    k = trivial_hopf(H.field)
    return HopfMorphism(H, k, [{0: H.counit[i]} for i in range(H.dim)])


def unit_morphism(H: HopfAlgebra) -> HopfMorphism:
    k = trivial_hopf(H.field)
    return HopfMorphism(k, H, [dict(H.unit)])


def trivial_hopf(field: CycField) -> HopfAlgebra:
    one = field.one
    return HopfAlgebra(field, ["1"], [{0: {0: one}}], {0: one},
                       (((0, 0, one),),), (one,), ({0: one},))


def identify_group_form(H: HopfAlgebra) -> PermGroup | None:
    """Detect a group algebra on the nose: group-like basis, unit products."""
    data = _group_form_with_perms(H)
    return None if data is None else data[0]


def identify_dual_form(H: HopfAlgebra) -> PermGroup | None:
    """Detect a dual group algebra: orthogonal idempotents, comult group law."""
    data = _dual_form_with_perms(H)
    return None if data is None else data[0]


def antipode_is_antihomomorphism(H: HopfAlgebra) -> bool:
    S = H.antipode
    return all(H.antipode_vec(row.get(j, _ZERO)) == H.mul_vec(S[j], S[i])
               for i, row in enumerate(H.mult) for j in range(H.dim))


def antipode_invertible(H: HopfAlgebra) -> bool:
    return rank_of_columns(list(H.antipode)) == H.dim


def structure_equal(H: HopfAlgebra, other: HopfAlgebra) -> bool:
    """Exact equality of all structure tensors (labels ignored)."""
    if (H.dim, H.field.conductor) != (other.dim, other.field.conductor):
        return False
    if H.counit != other.counit or H.unit != other.unit:
        return False
    return (H.antipode == other.antipode and H.comult == other.comult
            and H.mult == other.mult)


def bilinear_cocycle(T: PermGroup, pairing, conductor: int) -> TwoCocycle:
    """Cocycle from a bilinear exponent pairing (a, b) -> int on an abelian T."""
    table = {(a, b): pairing(a, b) % conductor
             for a in T.elements for b in T.elements}
    psi = TwoCocycle(carrier=T, conductor=conductor, table=table)
    bad = psi.validate()
    if bad:
        raise CocycleError(f"pairing is not a cocycle: {bad[:3]}")
    return psi


def nondegenerate_v4_cocycle(T: PermGroup) -> TwoCocycle:
    """A cohomologically nontrivial cocycle on a Klein four group.

    Writes each element over two generators and pairs the cross exponents.
    """
    gens = small_generating_set(T.elements, T.degree)
    if T.order != 4 or len(gens) != 2:
        raise CocycleError("carrier is not a Klein four group")
    a, b = gens
    coords = {}
    for i in range(2):
        for j in range(2):
            x = compose(pow_perm(a, i), pow_perm(b, j))
            coords[x] = (i, j)
    return bilinear_cocycle(T, lambda x, y: coords[x][1] * coords[y][0], 2)


def carry_twisted_z2(dense: bool = False) -> tuple[MatchedPair, PairedCocycles]:
    """The trivial pair of G = Gamma = Z2 and the cocycles of its
    sigma-twisted product: sigma_s(x, x) = 1 for s and x the generators,
    every other exponent 0.  With ``dense`` every exponent of both tables
    is written out, zeros included."""
    G, Gamma = cyclic(2), cyclic(2)
    x, s = G.elements[1], Gamma.elements[1]
    sigma = {(s, x, x): 1}
    tau = {}
    if dense:
        sigma = {(g, a, b): sigma.get((g, a, b), 0)
                 for g in Gamma.elements for a in G.elements for b in G.elements}
        tau = {(a, g, h): 0 for a in G.elements for g in Gamma.elements for h in Gamma.elements}
    return trivial_pair(G, Gamma), PairedCocycles(2, sigma, tau)


def all_composition_factor_multisets(G: PermGroup) -> set[tuple[str, ...]]:
    """Factor multisets over every maximal normal chain (classical JH check)."""
    if G.order == 1:
        return {()}
    normals = [N for N in normal_subgroups(G) if N.order < G.order]
    maximal = [N for N in normals
               if not any(N.order < M.order < G.order and
                          N.element_set() < M.element_set() for M in normals)]
    out: set[tuple[str, ...]] = set()
    for N in maximal:
        Q, _ = quotient_group(G, N)
        top = iso_label(Q)
        for rest in all_composition_factor_multisets(N):
            out.add(tuple(sorted(rest + (top,))))
    return out
