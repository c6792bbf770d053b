"""Exact sequences of Hopf algebras and composition series.

Implements Hopf morphisms, coinvariant subspaces, normality under the
adjoint actions, categorical kernels/cokernels, verification of the
three exactness conditions, duality of sequences, and the recursive
composition series with Jordan-Hoelder comparison.

The normal-subalgebra search is catalog based: spans of group algebras
of normal subgroups, dual function algebras of quotients, the canonical
copy of k^Gamma inside a bicrossed product, and the group-like copy of
kG when the actions allow it.  Candidates are always re-verified before
use; no completeness is claimed outside these shapes.

A split forms its quotient with the generic ``hopf_cokernel``, which gives
k[G/N] and k^N on the nose in group and dual form.  Only the quotients of
a bicrossed product by i(k^[Gamma/N]), N != 1, and by 1#k[M] are built from
the restricted or induced matched pair instead: they carry the
BicrossedOrigin tag, by which the series can split them again.
"""

from __future__ import annotations

from .groups import (
    CapExceeded,
    GroupError,
    PermGroup,
    composition_factors,
    from_elements,
    is_simple,
    iso_label,
    normal_subgroups,
    quotient_group,
)
from .hopf import (
    BicrossedOrigin,
    HopfAlgebra,
    HopfError,
    bicrossed_product,
    bicrossed_work,
    check_work,
    dual_group_algebra,
    dual_hopf,
    dual_product,
    group_algebra,
)
from .linalg import (
    Echelon,
    Vec,
    add_term,
    echelon_span,
    nullspace_of_map,
    rank_of_columns,
    subspace_equal,
    transpose,
)
from .matched import MatchedPair, trivial_pair, verify_compatibility
from .record import Frozen


class ExactnessError(ValueError):
    pass


class UnsupportedAlgebra(ValueError):
    """Raised when an algebra lies outside the composition-series catalog."""


# ---------------------------------------------------------------------------
# morphisms


class HopfMorphism:
    """A linear map source -> target given by columns in target coordinates."""

    __slots__ = ("source", "target", "cols")

    def __init__(self, source: HopfAlgebra, target: HopfAlgebra, cols):
        if source.field.conductor != target.field.conductor:
            raise HopfError("morphism between different scalar fields")
        self.source = source
        self.target = target
        self.cols = tuple({k: v for k, v in col.items() if not v.is_zero()}
                          for col in cols)

    def apply(self, v: Vec) -> Vec:
        out: Vec = {}
        for i, a in v.items():
            for k, c in self.cols[i].items():
                add_term(out, k, a * c)
        return out

    def rank(self) -> int:
        return rank_of_columns(list(self.cols))

    def is_surjective(self) -> bool:
        return self.rank() == self.target.dim

    def verify(self) -> list[tuple]:
        """Violations of the bialgebra-map conditions (empty list = valid)."""
        src, tgt = self.source, self.target
        bad: list[tuple] = []
        if self.apply(src.unit) != tgt.unit:
            bad.append(("unit",))
        # a pair (i, j) with j outside row i and cols[i] or cols[j] empty gives {}
        # on both sides, so only the others are checked, in the same order
        nonempty = {j for j, col in enumerate(self.cols) if col}
        for i, row in enumerate(src.mult):
            for j in sorted((row.keys() | nonempty) if self.cols[i] else row):
                lhs = self.apply(row.get(j, {}))
                rhs = tgt.mul_vec(self.cols[i], self.cols[j])
                if lhs != rhs:
                    bad.append(("multiplicative", i, j))
        for i in range(src.dim):
            if src.counit[i] != tgt.counit_vec(self.cols[i]):
                bad.append(("counit", i))
            lhs = tgt.comult_vec(self.cols[i])
            rhs: dict = {}
            for j, k, c in src.comult[i]:
                for a, ca in self.cols[j].items():
                    for b, cb in self.cols[k].items():
                        add_term(rhs, (a, b), c * ca * cb)
            if lhs != rhs:
                bad.append(("comultiplicative", i))
        return bad


# ---------------------------------------------------------------------------
# coinvariants, normality, kernels


def coinvariants(pi: HopfMorphism, side: str = "left") -> list[Vec]:
    """Echelon basis of the (left or right) coinvariants of a Hopf map.

    Left:  (pi (x) id) Delta(h) = 1'' (x) h;  right symmetric.
    """
    H, Hpp = pi.source, pi.target
    left = side == "left"
    images = []
    for i in range(H.dim):
        t: dict = {}
        for j, k, c in H.comult[i]:
            proj, keep = (pi.cols[j], k) if left else (pi.cols[k], j)
            for a, ca in proj.items():
                add_term(t, (a, keep) if left else (keep, a), c * ca)
        for a, ca in Hpp.unit.items():
            add_term(t, (a, i) if left else (i, a), -ca)
        images.append(t)
    kernel = nullspace_of_map(images, H.field)
    return echelon_span(kernel).basis()


class HopfSubalgebra:
    """A subspace of an ambient Hopf algebra, kept as its reduced echelon
    basis in pivot order, as span_subalgebra gives it; _closure refuses
    (ValueError) any other basis, as it reads coordinates at the pivots."""

    def __init__(self, ambient: HopfAlgebra, basis: list, note: str = ""):
        self.ambient = ambient
        self.basis = basis            # list[Vec], reduced echelon rows
        self.note = note

    @property
    def dim(self) -> int:
        return len(self.basis)

    def verify(self) -> list[tuple]:
        """Closure violations: unit, mult, then comult (into K (x) K) and
        antipode for each basis vector."""
        return _closure(self)[1]


def span_subalgebra(H: HopfAlgebra, vectors, note: str = "") -> HopfSubalgebra:
    ech = echelon_span(vectors)
    return HopfSubalgebra(ambient=H, basis=ech.basis(), note=note)


def _transported(H: HopfAlgebra, lift, coords, tensor_coords, labels):
    """The algebra carried by the vectors ``lift`` of H: H's unit, products,
    coproducts, counit and antipode on ``lift``, read back over ``lift`` by
    ``coords`` (a vector of H) and ``tensor_coords`` (a tensor of H (x) H).

    Returns it with the places where a reader gave None, in the order
    HopfSubalgebra.verify lists them; their entries are left empty.
    """
    outside: list[tuple] = []

    def read(reader, v, *where):
        out = reader(v)
        if out is None:
            outside.append(where)
        return out or {}

    unit = read(coords, H.unit, "unit")
    mult = [{b: read(coords, H.mul_vec(x, y), "mult", a, b) for b, y in enumerate(lift)}
            for a, x in enumerate(lift)]
    comult, antipode = [], []
    for a, x in enumerate(lift):
        t = read(tensor_coords, H.comult_vec(x), "comult", a)
        comult.append(tuple((i, j, c) for (i, j), c in sorted(t.items())))
        antipode.append(read(coords, H.antipode_vec(x), "antipode", a))
    counit = [H.counit_vec(x) for x in lift]
    return HopfAlgebra(H.field, labels, mult, unit, comult, counit, antipode), outside


def _closure(K: HopfSubalgebra) -> tuple[HopfAlgebra, list[tuple]]:
    """The algebra K is in its own basis (complete only without violations)
    and K's closure violations, from one pass that reads H's structure on
    K's basis b_a in coordinates over K, read at the pivots of that basis.

    A tensor t of H (x) H is read over K (x) K one leg at a time: write
    t = sum_j u_j (x) e_j; each u_j must lie in K, as sum_a c_aj b_a; then
    t = sum_a b_a (x) w_a with w_a = sum_j c_aj e_j, and each w_a must lie
    in K too.  The coordinate of t at b_a (x) b_b is that of w_a at b_b."""
    H, basis = K.ambient, K.basis
    span = echelon_span(basis)
    if span.basis() != basis:
        raise ValueError("subalgebra basis is not its own reduced echelon basis")
    at = {p: a for a, p in enumerate(sorted(span.rows))}

    def coords(v: Vec):
        c = span.coords(v)
        return None if c is None else {at[p]: x for p, x in c.items()}

    def tensor_coords(t: dict):
        legs: dict = {}                     # legs[j] = u_j
        for (i, j), c in t.items():
            legs.setdefault(j, {})[i] = c
        ws: dict = {}                       # ws[a] = w_a
        for j, u in legs.items():
            cu = coords(u)
            if cu is None:
                return None
            for a, c in cu.items():
                ws.setdefault(a, {})[j] = c
        out: dict = {}
        for a, w in ws.items():
            cw = coords(w)
            if cw is None:
                return None
            for b, c in cw.items():
                out[a, b] = c
        return out

    return _transported(H, basis, coords, tensor_coords,
                        [f"b{a}" for a in range(len(basis))])


def standalone_subalgebra(K: HopfSubalgebra) -> HopfAlgebra:
    """Structure constants of K in its own echelon basis."""
    alg, bad = _closure(K)
    if bad:
        raise ExactnessError(f"not a Hopf subalgebra: {bad[:3]}")
    return alg


def _basis_products(table, v: Vec) -> dict:
    """{i: sum_x v_x table[x][i]} without its zero entries: the products
    v e_i from the rows table = H.mult, or e_i v from the columns
    table = transpose(H.mult, H.dim)."""
    out: dict = {}
    for x, a in v.items():
        for i, cell in table[x].items():
            w = out.setdefault(i, {})
            for k, c in cell.items():
                add_term(w, k, a * c)
    return {i: w for i, w in out.items() if w}


def is_normal_subalgebra(K: HopfSubalgebra) -> tuple[bool, tuple | None]:
    """Stability of K under both adjoint actions, checked exhaustively.

        h . a = h_(1) a S(h_(2))        a . h = S(h_(1)) a h_(2)

    The products e_j a and S(e_j) a are formed once per pair (a, j); for
    h = e_i, the left side sums the terms (e_j a) S(e_k) of Delta(e_i), and
    the right side reads (S(e_j) a) e_k off the rows of H.mult.

    Returns (True, None) or (False, witness (side, h index, K basis index)),
    the first failure over i, then a, the left side before the right.
    """
    H = K.ambient
    ech = echelon_span(K.basis)
    cols = transpose(H.mult, H.dim)
    lefts = [_basis_products(cols, a) for a in K.basis]   # lefts[a_i][j] = e_j a
    rights: list[dict] = [{} for _ in K.basis]            # rights[a_i][j] = S(e_j) a
    for i in range(H.dim):
        hi_terms = H.comult[i]
        for a_i, a in enumerate(K.basis):
            left: Vec = {}
            for j, k, c in hi_terms:
                for m, d in H.mul_vec(lefts[a_i].get(j, {}), H.antipode[k]).items():
                    add_term(left, m, c * d)
            if not ech.contains(left):
                return False, ("left", i, a_i)
            right: Vec = {}
            for j, k, c in hi_terms:
                sa = rights[a_i].get(j)
                if sa is None:
                    sa = rights[a_i][j] = H.mul_vec(H.antipode[j], a)
                for x, d in sa.items():
                    cell = H.mult[x].get(k)
                    if cell is not None:
                        cd = c * d
                        for m, e in cell.items():
                            add_term(right, m, cd * e)
            if not ech.contains(right):
                return False, ("right", i, a_i)
    return True, None


def hopf_kernel(f: HopfMorphism) -> HopfSubalgebra:
    """Categorical kernel Hker(f) = {h : h_(1) (x) f(h_(2)) (x) h_(3) = h_(1) (x) 1 (x) h_(2)}."""
    H, H2 = f.source, f.target
    images = []
    for i in range(H.dim):
        t: dict = {}
        for j, k, c in H.comult[i]:
            for a, b, d in H.comult[j]:
                cd = c * d
                for m, cm in f.cols[b].items():
                    add_term(t, (a, m, k), cd * cm)
            for m, cm in H2.unit.items():
                add_term(t, (j, m, k), -(c * cm))
        images.append(t)
    kernel = nullspace_of_map(images, H.field)
    K = span_subalgebra(H, kernel, note="Hker")
    bad = K.verify()
    if bad:
        raise ExactnessError(f"internal: Hopf kernel fails subalgebra closure: {bad[:3]}")
    return K


def augmentation_basis(H: HopfAlgebra) -> list[Vec]:
    """Basis of the augmentation ideal H+ = ker(counit)."""
    images = [{0: H.counit[i]} for i in range(H.dim)]
    return nullspace_of_map(images, H.field)


def two_sided_ideal(H: HopfAlgebra, gens) -> Echelon:
    """Echelon span of H . gens . H, formed from its left ideal.

    First comes L = span{e_i g}, the left ideal H . gens; it holds each g,
    as the unit is a combination of basis vectors.  Then, for each product
    w = g e_k outside the span so far, the products e_i w are added.  The
    span stays a left ideal, so a w inside it has H w inside it too; and
    H g H = H (g H), so the span ends as H . gens . H.  Only the nonzero
    products are formed: from the rows and columns of a vector's support."""
    ech = Echelon()
    cols = transpose(H.mult, H.dim)

    def add_left_ideal(v: Vec) -> None:
        for w in _basis_products(cols, v).values():
            if ech.rank == H.dim:
                return
            ech.add(w)

    for g in gens:
        add_left_ideal(g)
    for g in gens:
        for w in _basis_products(H.mult, g).values():
            if ech.rank == H.dim:
                return ech
            if not ech.contains(w):
                add_left_ideal(w)
    return ech


def _generated_ideal(f: HopfMorphism) -> Echelon:
    """The ideal H2 f(H1+) H2 of H2, for f: H1 -> H2."""
    return two_sided_ideal(f.target, [f.apply(v) for v in augmentation_basis(f.source)])


def hopf_cokernel(f: HopfMorphism) -> tuple[HopfAlgebra, HopfMorphism]:
    """Hcoker(f) = H2 / H2 f(H1+) H2 with the projection morphism.

    The complement basis comes from pivoting the echelon form of the ideal;
    the ideal is checked to be a Hopf ideal (coideal, counit zero, antipode
    stable) before the quotient is assembled.
    """
    H2 = f.target
    ideal = _generated_ideal(f)
    complement = [i for i in range(H2.dim) if i not in ideal.rows]
    pos = {m: a for a, m in enumerate(complement)}

    def project(v: Vec) -> Vec:
        red = ideal.reduce(v)
        return {pos[m]: c for m, c in red.items()}

    qproj = [project(H2.basis_vec(i)) for i in range(H2.dim)]

    def fold(t: dict) -> dict:
        """A tensor of H2 (x) H2 projected to Q (x) Q."""
        folded: dict = {}
        for (i, j), c in t.items():
            for x, cx in qproj[i].items():
                for y, cy in qproj[j].items():
                    add_term(folded, (x, y), c * cx * cy)
        return folded

    # Hopf ideal checks
    for b in ideal.basis():
        if not H2.counit_vec(b).is_zero():
            raise ExactnessError("ideal is not contained in the augmentation ideal")
        if ideal.reduce(H2.antipode_vec(b)):
            raise ExactnessError("ideal is not antipode stable")
        if fold(H2.comult_vec(b)):
            raise ExactnessError("ideal is not a coideal")

    Q, _ = _transported(H2, [H2.basis_vec(m) for m in complement], project, fold,
                        [f"[{H2.basis_labels[m]}]" for m in complement])
    return Q, HopfMorphism(H2, Q, qproj)


# ---------------------------------------------------------------------------
# exact sequences


class ExactSequenceH:
    def __init__(self, h_prime: HopfAlgebra, i: HopfMorphism, h: HopfAlgebra,
                 pi: HopfMorphism, h_doubleprime: HopfAlgebra, status: dict | None = None):
        self.h_prime = h_prime
        self.i = i
        self.h = h
        self.pi = pi
        self.h_doubleprime = h_doubleprime
        self.status = {} if status is None else status


def verify_exact_sequence(seq: ExactSequenceH) -> dict:
    """Check the three exactness conditions plus dimension multiplicativity.

    (a) i injective and pi surjective,
    (b) ker pi = H i(H')+,
    (c) i(H') = left coinvariants of pi.
    """
    H, Hp, Hpp = seq.h, seq.h_prime, seq.h_doubleprime
    status: dict = {}
    if seq.i.verify() or seq.pi.verify():
        raise ExactnessError("maps are not Hopf algebra morphisms")
    rank_i, rank_pi = seq.i.rank(), seq.pi.rank()
    status["injective"] = rank_i == seq.i.source.dim
    status["surjective"] = rank_pi == seq.pi.target.dim

    ker_pi = nullspace_of_map(list(seq.pi.cols), H.field)
    ideal = _generated_ideal(seq.i)
    status["kernel_is_ideal"] = subspace_equal(ker_pi, ideal.basis())

    coin = coinvariants(seq.pi, side="left")
    status["coinvariants_match"] = subspace_equal(list(seq.i.cols), coin)

    status["dim_multiplicative"] = (H.dim == Hp.dim * Hpp.dim)
    status["exact"] = all(status.values())
    # dimension witnesses for the report
    status["witness"] = {
        "rank_i": rank_i, "rank_pi": rank_pi,
        "dim_ker_pi": len(ker_pi), "dim_ideal": ideal.rank,
        "dim_coinvariants": len(coin),
        "dims": (Hp.dim, H.dim, Hpp.dim),
    }
    seq.status = status
    return status


def dualize_sequence(seq: ExactSequenceH) -> ExactSequenceH:
    """k -> (H'')* -> H* -> (H')* -> k with transposed maps."""
    Hd, Hpd, Hppd = dual_hopf(seq.h), dual_hopf(seq.h_prime), dual_hopf(seq.h_doubleprime)
    i_t = HopfMorphism(Hppd, Hd, transpose(seq.pi.cols, Hppd.dim))
    pi_t = HopfMorphism(Hd, Hpd, transpose(seq.i.cols, Hd.dim))
    return ExactSequenceH(h_prime=Hppd, i=i_t, h=Hd, pi=pi_t, h_doubleprime=Hpd)


def make_abelian_sequence(H: HopfAlgebra) -> ExactSequenceH:
    """The canonical k -> k^Gamma -> H -> kG -> k around a bicrossed product."""
    if not isinstance(H.origin, BicrossedOrigin):
        raise HopfError("algebra is not a tagged bicrossed product")
    origin, one = H.origin, H.field.one
    G, Gamma = origin.pair.G, origin.pair.Gamma
    Hp = dual_group_algebra(Gamma, conductor=H.field.conductor)
    Hpp = group_algebra(G, conductor=H.field.conductor)
    g_index, eG, eGamma = G.element_index(), G.identity(), Gamma.identity()
    i_cols = [{origin.position(g, eG): one} for g in Gamma.elements]
    pi_cols = [{g_index[x]: one} if g == eGamma else {} for g, x in origin.basis()]
    return ExactSequenceH(h_prime=Hp, i=HopfMorphism(Hp, H, i_cols),
                          h=H, pi=HopfMorphism(H, Hpp, pi_cols), h_doubleprime=Hpp)


def make_group_quotient_sequence(G: PermGroup, Ngrp: PermGroup,
                                 conductor: int = 1) -> ExactSequenceH:
    """k -> kN -> kG -> k(G/N) -> k for a normal subgroup N of G.

    Refuses (HopfCapExceeded) a G whose kG is above the verification work
    cap, as ``build group`` does, before any quotient or algebra is built."""
    check_work(bicrossed_work(G.order, 1), G.order, conductor)
    Q, proj = quotient_group(G, Ngrp)
    HN = group_algebra(Ngrp, conductor=conductor)
    HG = group_algebra(G, conductor=conductor)
    HQ = group_algebra(Q, conductor=conductor)
    g_index, q_index = G.element_index(), Q.element_index()
    i_cols = [{g_index[n]: HG.field.one} for n in Ngrp.elements]
    pi_cols = [{q_index[proj[g]]: HG.field.one} for g in G.elements]
    return ExactSequenceH(h_prime=HN, i=HopfMorphism(HN, HG, i_cols),
                          h=HG, pi=HopfMorphism(HG, HQ, pi_cols), h_doubleprime=HQ)


# ---------------------------------------------------------------------------
# composition series


class FactorDesc(Frozen):
    """A composition factor: kQ or k^Q for a simple group Q."""

    __slots__ = ("kind", "label", "dim")

    def __init__(self, kind: str, label: str, dim: int):
        self._set(kind, label, dim)          # kind: "group" | "dual"

    def pretty(self) -> str:
        return f"k[{self.label}]" if self.kind == "group" else f"k^[{self.label}]"


class HopfCompSeries:
    def __init__(self, factors: list[FactorDesc], provenance: list[str] | None = None,
                 total_dim: int = 0):
        self.factors = factors
        self.provenance = [] if provenance is None else provenance
        self.total_dim = total_dim

    def multiset(self) -> tuple:
        return tuple(sorted((f.kind, f.label, f.dim) for f in self.factors))


def jh_compare(s1: HopfCompSeries, s2: HopfCompSeries) -> bool:
    """Factor multisets agree up to permutation."""
    return s1.multiset() == s2.multiset()


# ---------------------------------------------------------------------------
# normal-subalgebra catalog


class NormalCandidate:
    def __init__(self, sub: HopfSubalgebra, note: str, quotient_factory: object = None,
                 algebra: HopfAlgebra | None = None):
        self.sub = sub
        self.note = note
        self.quotient_factory = quotient_factory  # () -> (bicrossed quotient, cols) or None
        self.algebra = algebra                    # sub in its own basis, once verified

    def canonical(self) -> tuple:
        return tuple(tuple(sorted(v.items())) for v in self.sub.basis)


# In the group and dual forms, basis vector i of H stands for perms[i], an
# element of Gq.


def _coset_indicators(G: PermGroup, N: PermGroup, placed, one) -> list[Vec]:
    """The indicator vectors of the cosets of N in G, where ``placed`` gives
    each element g of G with its basis index i, as pairs (i, g)."""
    _, proj = quotient_group(G, N)
    cosets: dict = {}
    for i, g in placed:
        cosets.setdefault(proj[g], {})[i] = one
    return list(cosets.values())


def _candidates_group_form(H: HopfAlgebra, Gq: PermGroup, perms: list) -> list[NormalCandidate]:
    out = []
    one = H.field.one
    for N in normal_subgroups(Gq):
        if N.order in (1, Gq.order):
            continue
        vectors = [{i: one} for i, p in enumerate(perms) if p in N]
        out.append(NormalCandidate(
            sub=span_subalgebra(H, vectors, note=f"k[{iso_label(N)}]"),
            note=f"group algebra of normal subgroup {iso_label(N)}"))
    return out


def _candidates_dual_form(H: HopfAlgebra, Gq: PermGroup, perms: list) -> list[NormalCandidate]:
    out = []
    one = H.field.one
    for N in normal_subgroups(Gq):
        if N.order in (1, Gq.order):
            continue
        # coset indicator functions span k^(Gamma/N)
        vectors = _coset_indicators(Gq, N, enumerate(perms), one)
        out.append(NormalCandidate(
            sub=span_subalgebra(H, vectors, note=f"k^[{iso_label(Gq)}/{iso_label(N)}]"),
            note=f"functions on quotient by {iso_label(N)}"))
    return out


def _restricted_pair(mp: MatchedPair, Ngrp: PermGroup) -> MatchedPair | None:
    """Restrict the Gamma side of a matched pair to a normal subgroup N."""
    at, gs = mp.Gamma.element_index(), mp.Gamma.elements
    n_at = Ngrp.element_index()
    rows = [at[s] for s in Ngrp.elements]
    rt = [[n_at.get(gs[t]) for t in mp.rt[r]] for r in rows]
    if any(None in row for row in rt):
        return None
    sub = MatchedPair(mp.G, Ngrp, [mp.lt[r] for r in rows], rt)
    if not verify_compatibility(sub).valid:
        return None
    return sub


def _induced_pair(mp: MatchedPair, Mgrp: PermGroup) -> tuple[MatchedPair, dict] | None:
    """Quotient the G side by a normal, |>-stable M when <| is trivial."""
    if mp.rt != trivial_pair(mp.G, mp.Gamma).rt:
        return None
    ms = {mp.G.element_index()[m] for m in Mgrp.elements}
    if any(row[m] not in ms for row in mp.lt for m in ms):
        return None
    Q, proj = quotient_group(mp.G, Mgrp)
    q_at = Q.element_index()
    coset = [q_at[proj[x]] for x in mp.G.elements]
    lt = []
    for row in mp.lt:
        seen: dict = {}
        for q, y in zip(coset, row):
            if seen.setdefault(q, coset[y]) != coset[y]:
                return None
        lt.append([seen[q] for q in range(Q.order)])
    ind = MatchedPair(Q, mp.Gamma, lt, trivial_pair(Q, mp.Gamma).rt)
    if not verify_compatibility(ind).valid:
        return None
    return ind, proj


def _candidates_bicrossed(H: HopfAlgebra) -> list[NormalCandidate]:
    origin = H.origin
    if not isinstance(origin, BicrossedOrigin):
        return []
    if origin.cocycles.sigma or origin.cocycles.tau:
        return []  # templates below assume trivial cocycles
    mp = origin.pair
    G, Gamma = mp.G, mp.Gamma
    one = H.field.one
    eG = G.identity()
    out: list[NormalCandidate] = []

    for N in normal_subgroups(Gamma):
        if N.order == Gamma.order:
            continue
        placed = ((origin.position(g, eG), g) for g in Gamma.elements)
        vectors = _coset_indicators(Gamma, N, placed, one)

        def factory(Ngrp=N):
            sub = _restricted_pair(mp, Ngrp)
            if sub is None:
                return None
            template = bicrossed_product(sub, conductor=H.field.conductor)
            at = template.origin.position
            return template, [{at(g, x): one} if g in Ngrp else {} for g, x in origin.basis()]

        out.append(NormalCandidate(
            sub=span_subalgebra(H, vectors, note=f"i(k^[{iso_label(Gamma)}/{iso_label(N)}])"),
            note="canonical function-algebra part",
            quotient_factory=factory if N.order > 1 else None))

    for M in normal_subgroups(G):
        if M.order == 1:
            continue
        vectors = [{origin.position(g, x): one for g in Gamma.elements} for x in M.elements]
        if len(vectors) == H.dim:
            continue

        def factory(Mgrp=M):
            ind = _induced_pair(mp, Mgrp)
            if ind is None:
                return None
            pair, proj = ind
            template = bicrossed_product(pair, conductor=H.field.conductor)
            at = template.origin.position
            return template, [{at(g, proj[x]): one} for g, x in origin.basis()]

        out.append(NormalCandidate(
            sub=span_subalgebra(H, vectors, note=f"1#k[{iso_label(M)}]"),
            note="group-like part over a normal subgroup",
            quotient_factory=factory))
    return out


def normal_subalgebra_candidates(H: HopfAlgebra) -> list[NormalCandidate]:
    """Verified proper normal Hopf subalgebras from the catalog.

    Every candidate passes the subalgebra-closure check and the adjoint
    stability check before being returned; ones that fail are dropped.
    """
    raw: list[NormalCandidate] = []
    for _, read, candidates in _FORMS:
        data = read(H)
        if data is not None:
            raw += candidates(H, *data)
    raw += _candidates_bicrossed(H)
    out: list[NormalCandidate] = []
    seen = set()
    for cand in raw:
        if not 1 < cand.sub.dim < H.dim:
            continue
        key = cand.canonical()
        if key in seen:
            continue
        seen.add(key)
        cand.algebra, bad = _closure(cand.sub)
        if not bad and is_normal_subalgebra(cand.sub)[0]:
            out.append(cand)
    out.sort(key=lambda c: (c.sub.dim, c.canonical()))
    return out


def _group_form_with_perms(H: HopfAlgebra):
    one = H.field.one
    for i, terms in enumerate(H.comult):
        if terms != ((i, i, one),) or H.counit[i] != one:
            return None
    return _table_group(H.mult, H.unit)


def _dual_form_with_perms(H: HopfAlgebra):
    """k^G = (kG)*: the group-form reader run on H*, whose product is the
    transpose of Delta and whose unit is the counit."""
    one = H.field.one
    if len(H.unit) != H.dim or any(not c.is_one() for c in H.unit.values()):
        return None
    if any(row != {i: {i: one}} for i, row in enumerate(H.mult)):
        return None
    counit = {i: c for i, c in enumerate(H.counit) if not c.is_zero()}
    return _table_group(dual_product(H), counit)


def _table_group(rows: list, unit: dict):
    """(the group, its table) when rows and unit are those of kG on the nose:
    every e_i e_j and the unit are one basis vector with coefficient one,
    the unit's row is the identity and the rows form a group; None when not."""
    n = len(rows)
    identity = tuple(range(n))
    table = []
    for row in rows:
        cells = [cell for _, cell in sorted(row.items())]
        if len(cells) != n or any(len(cell) != 1 for cell in cells):
            return None
        table.append(tuple(k if c.is_one() else -1 for cell in cells for k, c in cell.items()))
    if len(unit) != 1 or any(not c.is_one() or table[u] != identity for u, c in unit.items()):
        return None
    if any(tuple(sorted(p)) != identity for p in table):
        return None
    try:
        return from_elements(n, table), table
    except (CapExceeded, GroupError):
        return None


# (factor kind, reader, catalog) for the group-algebra and dual forms
_FORMS = (("group", _group_form_with_perms, _candidates_group_form),
          ("dual", _dual_form_with_perms, _candidates_dual_form))


# ---------------------------------------------------------------------------
# composition series


def _split_along(H: HopfAlgebra, cand: NormalCandidate):
    """(standalone subalgebra, quotient, projection) for a verified candidate.

    A bicrossed candidate's quotient template, a bicrossed product tagged
    with its origin so that it can be split again, is used when it passes
    its checks (Hopf map, onto, kernel equal to the generated ideal); every
    other quotient is the generic pivot-basis cokernel.
    """
    sub_alg = cand.algebra
    inclusion = HopfMorphism(sub_alg, H, list(cand.sub.basis))
    if inclusion.verify():
        raise ExactnessError("internal: subalgebra inclusion is not a Hopf map")
    if cand.quotient_factory is not None:
        made = cand.quotient_factory()
        if made is not None:
            template, cols = made
            proj = HopfMorphism(H, template, cols)
            if not proj.verify() and proj.is_surjective():
                ker = nullspace_of_map(list(proj.cols), H.field)
                if subspace_equal(ker, _generated_ideal(inclusion).basis()):
                    return sub_alg, template, proj
    Q, proj = hopf_cokernel(inclusion)
    return sub_alg, Q, proj


def _terminal_factor(H: HopfAlgebra) -> FactorDesc:
    for kind, read, _ in _FORMS:
        data = read(H)
        if data is not None:
            label = iso_label(data[0])
            if is_simple(data[0]):
                return FactorDesc(kind=kind, label=label, dim=H.dim)
            raise ExactnessError(
                f"internal: {kind} form of non-simple {label} reported no normal subalgebras")
    raise UnsupportedAlgebra(
        f"dim-{H.dim} algebra is outside the catalog: no normal subalgebra found "
        "and no simplicity certificate applies")


def composition_series_hopf(H, chooser=None) -> HopfCompSeries:
    """Recursive composition series over the catalog.

    Accepts a HopfAlgebra or one of the symbolic refs (GroupAlgebraRef,
    DualGroupAlgebraRef, BicrossedRef) for algebras too large to expand.
    The chooser, when given, reorders the candidate list at each step.
    """
    if isinstance(H, (GroupAlgebraRef, DualGroupAlgebraRef, BicrossedRef)):
        return symbolic_series(H)
    if H.dim == 1:
        return HopfCompSeries(factors=[], provenance=[], total_dim=1)
    cands = normal_subalgebra_candidates(H)
    if not cands:
        return HopfCompSeries(factors=[_terminal_factor(H)],
                              provenance=["terminal"], total_dim=H.dim)
    order = chooser(cands) if chooser is not None else cands
    last_err: Exception | None = None
    for cand in order:
        try:
            sub_alg, Q, _proj = _split_along(H, cand)
            left = composition_series_hopf(sub_alg, chooser)
            right = composition_series_hopf(Q, chooser)
        except UnsupportedAlgebra as err:
            last_err = err
            continue
        prov = [f"split at {cand.sub.note or 'candidate'} (dim {cand.sub.dim})"]
        return HopfCompSeries(factors=left.factors + right.factors,
                              provenance=prov + left.provenance + right.provenance,
                              total_dim=H.dim)
    raise last_err if last_err is not None else UnsupportedAlgebra("no workable chain")


def _structure_key(H: HopfAlgebra) -> tuple:
    return (H.field.conductor, H.dim,
            tuple(tuple((j, tuple(cell.items())) for j, cell in row.items()) for row in H.mult),
            tuple(sorted(H.unit.items())), H.comult, H.counit,
            tuple(tuple(sorted(col.items())) for col in H.antipode))


def all_hopf_series_multisets(H: HopfAlgebra) -> set[tuple]:
    """Factor multisets over every catalog chain (Jordan-Hoelder check).

    Subalgebras and quotients met more than once along the chains are
    explored once per call, through a memo keyed by their structure.
    """
    memo: dict = {}

    def explore(H: HopfAlgebra) -> set[tuple]:
        if H.dim == 1:
            return {()}
        key = _structure_key(H)
        if key in memo:
            return memo[key]
        cands = normal_subalgebra_candidates(H)
        out: set[tuple] = set()
        if not cands:
            fac = _terminal_factor(H)
            out.add(((fac.kind, fac.label, fac.dim),))
        for cand in cands:
            try:
                sub_alg, Q, _proj = _split_along(H, cand)
                for ls in explore(sub_alg):
                    for rs in explore(Q):
                        out.add(tuple(sorted(ls + rs)))
            except UnsupportedAlgebra:
                continue
        if not out:
            raise UnsupportedAlgebra(f"no catalog chain for dim-{H.dim} algebra")
        memo[key] = out
        return out

    return explore(H)


# ---------------------------------------------------------------------------
# symbolic refs: composition factors without expanding structure constants


class GroupAlgebraRef(Frozen):
    __slots__ = ("group",)

    def __init__(self, group: PermGroup):
        self._set(group)


class DualGroupAlgebraRef(Frozen):
    __slots__ = ("group",)

    def __init__(self, group: PermGroup):
        self._set(group)


class BicrossedRef(Frozen):
    __slots__ = ("pair",)

    def __init__(self, pair: MatchedPair):
        self._set(pair)


def symbolic_series(ref) -> HopfCompSeries:
    """Composition factors of kG / k^Gamma / a bicrossed product, by label.

    Rests on the factor description of abelian extensions: group-algebra
    factors from G and dual factors from Gamma.
    """
    if isinstance(ref, (GroupAlgebraRef, DualGroupAlgebraRef)):
        kind, name = ("group", "kG") if isinstance(ref, GroupAlgebraRef) else ("dual", "k^G")
        factors = [FactorDesc(kind, lab, n) for lab, n in composition_factors(ref.group)]
        return HopfCompSeries(factors=factors, provenance=[f"symbolic {name}"],
                              total_dim=ref.group.order)
    if isinstance(ref, BicrossedRef):
        mp = ref.pair
        dual_part = symbolic_series(DualGroupAlgebraRef(mp.Gamma))
        group_part = symbolic_series(GroupAlgebraRef(mp.G))
        return HopfCompSeries(factors=dual_part.factors + group_part.factors,
                              provenance=["symbolic bicrossed"],
                              total_dim=mp.G.order * mp.Gamma.order)
    raise UnsupportedAlgebra(f"unknown symbolic ref {ref!r}")

