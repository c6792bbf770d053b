"""Finite-dimensional Hopf algebras as exact structure-constant tensors.

A HopfAlgebra stores, over a fixed cyclotomic field:

    mult[i]     = {j: {k: c}}          e_i e_j = sum c e_k, for e_i e_j != 0
    unit        = sparse vector        1 = sum u_i e_i
    comult[i]   = ((j, k, c), ...)     Delta(e_i) = sum c e_j (x) e_k
    counit[i]   = scalar
    antipode[j] = sparse vector        S(e_j)

One assembly (_extension) builds every abelian extension k^Gamma #(sigma,tau)
kG over a matched pair on the indices of two Cayley tables: the bicrossed
products, D(G), and kG and k^G, its cases Gamma and G trivial.  The rows
of mult hold only the nonzero products, in increasing j and k, with no
zero coefficient; a cell or vector passed in that is already so is kept,
not copied, and may be shared, so none is written.
Axioms are verified exhaustively over basis tuples with zero tolerance;
one walk checks unit and associativity on the rows of mult, and counit
and coassociativity on those of the dual, the transpose of Delta.  The
antipode is obtained by solving the defining linear system when no
verified closed form applies.  The constructors import the matched-pair
and cocycle modules when called, so reading and verifying a dump loads
neither.

Every construction here is monomial in its basis: each e_i e_j is 0 or one
term c e_k, and each pair (j, k) is a term of at most one Delta(e_i).  The
verifier then reads the rows, and the rows of the dual, as tables
{j: (k, c)} (_monomial), derived per verification and never stored, and
decides whole blocks of instances on them; a block that does not pass is
redone by the per-instance code, which alone reports violations, so the
report and its counts are the same whichever path ran.
"""

from __future__ import annotations

from .cyclotomic import CycField, CycScalar, get_field
from .groups import CapExceeded, PermGroup, _cayley, prime_factors
from .linalg import Vec, add_term, solve_sparse_system, transpose
from .perm import cycle_string
from .record import Frozen

# verify_hopf_axioms evaluates only the instances that the nonzero products
# and coproduct terms reach, so the cap bounds that work, not the dimension:
# verify_work counts it from nonzero counts.  The cap is the work of k^Z216,
# the slowest algebra the old dimension cap of 216 accepted: 33 s there at
# 3.3 us a dim**3 triple; `build dual z216` takes 2.0 s on the table views
# (0.07 us a unit of work) and took 7.2 s on the per-instance code alone.
# It accepts D(S4) (dim 576, work 17.3 M, 0.75 s to build, 0.04 us a unit)
# and refuses kZ576 and k^Z576 (work 192 M and 574 M).  Measured cold on
# 2 CPUs, Python 3.11.7.
HOPF_WORK_CAP = 30_326_616
# Building Q(zeta_N) takes time that grows with the divisors of N: at most
# 0.07 s for N <= 1000 (N = 900), but 1.1 s for N = 5040 and 5.1 s for
# N = 10080.  Measured on 2 CPUs, Python 3.11.7.
CONDUCTOR_CAP = 1_000
# The cap bounds kG alone, by n**2 * degree; kG reads its products off G's
# Cayley table (2 * |gens| * n perms), and k^G, reading the same table, takes
# only the work cap.  kZ311 (30.1 M), the largest `quotient:` target, builds
# in 0.1 s in-process, S6 x Z2 on 8 points (order 1440, 16.6 M) in 1.5 s cold
# at 125 MB peak RSS.  The value waits for the caps to be re-derived; it
# refuses kZ576 (191 M) and W(D5) on 10 points (36.9 M).  2 CPUs, Python 3.11.7.
GROUP_ALGEBRA_CAP = 31_000_000
SOLVE_DIM_CAP = 12           # general antipode solve; closed forms above this
MAX_REPORT = 1_000

class HopfError(ValueError):
    pass


class HopfCapExceeded(HopfError, CapExceeded):
    """A Hopf computation refused by one of its caps."""


class BicrossedOrigin(Frozen):
    """A bicrossed product's matched pair and cocycles, and its basis order:
    e_g # x for g in Gamma, then x in G, both in element order."""

    __slots__ = ("pair", "cocycles")

    def __init__(self, pair: MatchedPair, cocycles: PairedCocycles):
        self._set(pair, cocycles)

    def basis(self) -> list[tuple]:
        """The pairs (g, x) of the basis vectors e_g # x, in basis order."""
        return [(g, x) for g in self.pair.Gamma.elements for x in self.pair.G.elements]

    def position(self, g, x) -> int:
        """The index of the basis vector e_g # x."""
        G = self.pair.G
        return self.pair.Gamma.element_index()[g] * G.order + G.element_index()[x]


def _nonzero(vec) -> dict:
    """vec without its zero entries, in increasing key order: vec itself
    when it already is so, which the caller then shares and never writes."""
    last = -1  # the keys are basis indices
    for k, c in vec.items():
        if k <= last or c.is_zero():
            return {k: c for k, c in sorted(vec.items()) if not c.is_zero()}
        last = k
    return vec


class HopfAlgebra:
    __slots__ = ("field", "dim", "basis_labels", "mult", "unit", "comult",
                 "counit", "antipode", "origin")

    def __init__(self, field: CycField, basis_labels, mult, unit, comult,
                 counit, antipode, origin=None):
        self.field = field
        self.dim = len(basis_labels)
        self.basis_labels = tuple(basis_labels)
        # id(cell) -> (cell, its clean form): a cell shared by many products
        # is read once, and is held so that its id is not reused
        clean: dict = {}
        self.mult = tuple({j: cell for j, c in sorted(row.items())
                           if (cell := (clean.get(id(c))
                                        or clean.setdefault(id(c), (c, _nonzero(c))))[1])}
                          for row in mult)
        self.unit = _nonzero(unit)
        self.comult = tuple(tuple(terms) for terms in comult)
        self.counit = tuple(counit)
        self.antipode = None if antipode is None else tuple(antipode)
        self.origin = origin

    def __repr__(self) -> str:
        return f"HopfAlgebra(dim {self.dim}, conductor {self.field.conductor})"

    # -- sparse vector helpers ------------------------------------------------

    def mul_vec(self, u: Vec, v: Vec) -> Vec:
        out: Vec = {}
        mult = self.mult
        for i, a in u.items():
            row = mult[i]
            for j, b in v.items():
                cell = row.get(j)
                if cell is None:
                    continue
                ab = a * b
                if ab.is_zero():
                    continue
                for k, c in cell.items():
                    add_term(out, k, ab * c)
        return out

    def comult_vec(self, u: Vec) -> dict:
        out: dict = {}
        for i, a in u.items():
            for j, k, c in self.comult[i]:
                add_term(out, (j, k), a * c)
        return out

    def counit_vec(self, u: Vec) -> CycScalar:
        total = self.field.zero
        for i, a in u.items():
            total = total + a * self.counit[i]
        return total

    def antipode_vec(self, u: Vec) -> Vec:
        out: Vec = {}
        for j, a in u.items():
            for i, c in self.antipode[j].items():
                add_term(out, i, a * c)
        return out

    def basis_vec(self, i: int) -> Vec:
        return {i: self.field.one}


# ---------------------------------------------------------------------------
# axiom verification


class AxiomReport:
    def __init__(self, violations: list, checked: dict, evaluated: dict | None = None):
        self.violations = violations
        self.checked = checked      # family name -> number of instances covered
        self.evaluated = {} if evaluated is None else evaluated  # ... and actually computed

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, *item) -> bool:
        """Record a violation; returns False once the report is full."""
        if len(self.violations) < MAX_REPORT:
            self.violations.append(item)
        return len(self.violations) < MAX_REPORT


def _times(a: CycScalar, b: CycScalar, one: CycScalar) -> CycScalar:
    """a * b, without multiplying when either factor is the field's one."""
    return b if a is one else a if b is one else a * b


_ZERO: dict = {}  # the zero vector, for a product absent from its row; never written


def _apply(cols, vec: Vec, one: CycScalar) -> dict:
    """sum of c * cols[x] over the entries (x, c) of vec, where cols maps an
    index to a sparse vector and a missing index to zero; a lone entry with
    coefficient one returns cols[x] itself, which callers only read."""
    if len(vec) == 1:
        for x, c in vec.items():
            if c is one:
                return cols.get(x, _ZERO)
    out: dict = {}
    for x, c in vec.items():
        for k, v in cols.get(x, _ZERO).items():
            add_term(out, k, _times(c, v, one))
    return out


def _monomial(P) -> list[dict] | None:
    """The table view of the product rows P: T[i][j] = (k, c) for
    e_i e_j = c e_k, sharing the scalars of P; None unless every cell has
    one term.  The verifier derives it per call and stores it nowhere."""
    T = []
    for row in P:
        table = {}
        for j, cell in row.items():
            if len(cell) != 1:
                return None
            (table[j],) = cell.items()
        T.append(table)
    return T


def _antipode_violations(H: HopfAlgebra, S, checked: dict, evaluated: dict):
    """m(S (x) id)Delta = u eps = m(id (x) S)Delta on every basis vector, for
    the antipode columns S."""
    one, P = H.field.one, H.mult
    for i in range(H.dim):
        left: Vec = {}
        right: Vec = {}
        for j, k, c in H.comult[i]:
            for s, v in S[j].items():            # S(e_j) e_k
                cv = _times(c, v, one)
                for m, d in P[s].get(k, _ZERO).items():
                    add_term(left, m, _times(cv, d, one))
            for s, v in S[k].items():            # e_j S(e_k)
                cv = _times(c, v, one)
                for m, d in P[j].get(s, _ZERO).items():
                    add_term(right, m, _times(cv, d, one))
        target = _apply({0: H.unit}, {0: H.counit[i]}, one)  # eps(e_i) 1
        for fam, got in (("antipode-left", left), ("antipode-right", right)):
            checked[fam] = evaluated[fam] = checked.get(fam, 0) + 1
            if got != target:
                yield fam, i


def _reach(Pi: dict, reaching: list, dim: int) -> dict | None:
    """j -> the k whose e_j e_k meets supp(row i), from reaching[y], the pairs
    (j, k) with y in supp(e_j e_k); None when row i is full: every k of row j."""
    if len(Pi) == dim:
        return None
    reach: dict = {}
    for y in Pi:
        for j, k in reaching[y]:
            reach.setdefault(j, set()).add(k)
    return reach


def _walk(P, unit: Vec, one: CycScalar, checked: dict, evaluated: dict):
    """Every failing instance of unit-left, unit-right and associativity of the
    product with rows P and unit `unit`, in a fixed order, as (family,
    instance, left side, right side).  (e_i e_j) e_k is zero unless k is in
    supp(row x) for an x in supp(e_i e_j), and e_i (e_j e_k) unless
    supp(e_j e_k) meets supp(row i); k runs in increasing order over that
    union.  The counts are kept per row, exact when the caller stops early.

    On the table view (every cell one term), each pair (i, j) is first
    decided whole: L = (e_i e_j) * row and R = e_i * (e_j e_k) over every k,
    as two dicts k -> (target, coefficient).  Both are empty unless j is in
    supp(row i) or e_j e_k meets it, so only those j are visited.  When
    L == R every triple of the pair passes, and the k the loop below would
    evaluate are the keys of L, so the pair adds len(L) to `evaluated`.
    Any other pair runs that per-triple loop, the only code that yields, so
    the violations and the counts at every stop are the loop's own."""
    dim = len(P)
    cols = transpose(P, dim)  # cols[k][i] = e_i e_k
    for i in range(dim):
        for fam, got in (("unit-left", _apply(cols[i], unit, one)),
                         ("unit-right", _apply(P[i], unit, one))):
            checked[fam] = evaluated[fam] = checked.get(fam, 0) + 1
            if got != {i: one}:
                yield fam, i, got, {i: one}
    whole = range(dim)
    reaching = [[] for _ in whole]  # y -> the pairs (j, k) with y in supp(e_j e_k)
    for j, row in enumerate(P):
        for k, cell in row.items():
            for y in cell:
                reaching[y].append((j, k))
    T = _monomial(P)
    if T is not None:
        rows_to = [{j for j, _ in pairs} for pairs in reaching]  # y -> the rows reaching y
    computed = 0
    for i, Pi in enumerate(P):
        if T is None:
            js, reach = whole, _reach(Pi, reaching, dim)
        else:
            Ti, reach = T[i], False  # False: built for the first pair that fails
            at = Ti.get
            js = whole if len(Ti) == dim else sorted(set(Ti).union(*(rows_to[y] for y in Ti)))
        for j in js:
            if T is not None:
                if (term := at(j)) is None:
                    L = _ZERO
                else:
                    x, c = term  # e_i e_j = c e_x
                    L = T[x] if c is one else {k: (m, _times(c, d, one))
                                               for k, (m, d) in T[x].items()}
                R = {k: t if d is one else (t[0], _times(d, t[1], one))
                     for k, (y, d) in T[j].items() if (t := at(y)) is not None}
                if L == R:
                    computed += len(L)
                    continue
                if reach is False:
                    reach = _reach(Pi, reaching, dim)
            Pj, ij = P[j], Pi.get(j, _ZERO)
            ks = Pj if reach is None else reach.get(j, ())
            if ij and (len(ks) == dim or any(len(P[x]) == dim for x in ij)):
                ks = whole
            elif ij or ks:
                ks = sorted(set(ks).union(*(P[x] for x in ij)))
            done = (i * dim + j) * dim
            for k in ks:
                lhs, rhs = _apply(cols[k], ij, one), _apply(Pi, Pj.get(k, _ZERO), one)
                if lhs != rhs:
                    checked["associativity"] = done + k + 1
                    evaluated["associativity"] = computed + ks.index(k) + 1
                    yield "associativity", (i, j, k), lhs, rhs
            computed += len(ks)
        checked["associativity"] = (i + 1) * dim * dim
        evaluated["associativity"] = computed


def _counit_multiplicative(P, counit, one: CycScalar, zero: CycScalar,
                           checked: dict, evaluated: dict):
    """Every failing pair of eps(e_i e_j) = eps(e_i) eps(e_j) for the product
    rows P and the counit values `counit`.  Both sides are zero when
    e_i e_j = 0 and eps(e_i) or eps(e_j) is, so row i evaluates supp(row i)
    and, when eps(e_i) != 0, every j with eps(e_j) != 0."""
    fam = "counit-multiplicative"
    dim = len(P)
    counited = {j for j, c in enumerate(counit) if not c.is_zero()}
    computed = 0
    for i, Pi in enumerate(P):
        ci = counit[i]
        for j in sorted(Pi.keys() | counited if i in counited else Pi):
            computed += 1
            lhs = zero  # terms with eps(e_m) the field's zero are skipped
            for m, a in Pi.get(j, _ZERO).items():
                if counit[m] is not zero:
                    t = _times(a, counit[m], one)
                    lhs = t if lhs is zero else lhs + t
            rhs = zero if ci is zero or counit[j] is zero else _times(ci, counit[j], one)
            if lhs is not rhs and lhs != rhs:
                checked[fam], evaluated[fam] = i * dim + j + 1, computed
                yield fam, (i, j)
        checked[fam], evaluated[fam] = (i + 1) * dim, computed


def _violations(H: HopfAlgebra, checked: dict, evaluated: dict):
    """Every failing instance of the bialgebra axioms, in a fixed order.

    The families over pairs and triples skip the instances whose two sides
    are empty sums by sparsity; those count as checked (covered) but not as
    evaluated.  Their counts are kept per row, so that they stay cheap and
    are exact when the report fills."""
    field, dim, unit, counit, P = H.field, H.dim, H.unit, H.counit, H.mult
    one, zero = field.one, field.zero

    def failed(fam, bad: bool) -> bool:
        checked[fam] = evaluated[fam] = checked.get(fam, 0) + 1
        return bad

    for fam, item, _, _ in _walk(P, unit, one, checked, evaluated):
        yield fam, item
    # H's coalgebra families are the unit and associativity families of H*,
    # with product the transpose of Delta and unit the counit: ("counit-left",
    # i) fails iff a unit-left instance of H* differs at output coordinate i
    dual = dual_product(H)
    bad: dict = {}
    eps = {i: c for i, c in enumerate(counit) if not c.is_zero()}
    for fam, _, lhs, rhs in _walk(dual, eps, one, {}, {}):
        bad.setdefault(fam, set()).update(m for m in lhs.keys() | rhs.keys()
                                          if lhs.get(m) != rhs.get(m))
    for duals in ((("counit-left", "unit-left"), ("counit-right", "unit-right")),
                  (("coassociativity", "associativity"),)):
        for i in range(dim):
            for fam, dual_fam in duals:
                if failed(fam, i in bad.get(dual_fam, ())):
                    yield fam, i

    # Delta(1) = 1 (x) 1 says that evaluation at 1, the counit of H*, is
    # multiplicative on H*: one instance, failing iff some pair of H* fails
    at_one = tuple(unit.get(i, zero) for i in range(dim))
    if failed("comult-unit", next(_counit_multiplicative(dual, at_one, one, zero, {}, {}),
                                  None) is not None):
        yield ("comult-unit",)

    # Delta(e_i) Delta(e_j): a term pair (a1 (x) b1, a2 (x) b2) adds nothing
    # unless e_a1 e_a2 != 0 and e_b1 e_b2 != 0.  So each term of Delta(e_i)
    # meets, for a2 in the support of row a1, the terms of every Delta(e_j)
    # with first leg a2 and second leg in the support of row b1, and one
    # walk sums the right sides of the whole row i.  On the table views of
    # the product and of its dual, those terms are one key intersection.
    delta = {i: {} for i in range(dim)}  # Delta(e_i) keyed (j, k)
    for i, d in delta.items():
        for j, k, c in H.comult[i]:
            add_term(d, (j, k), c)
    # the views serve when every term of Delta has a cell of H* to itself
    # (no zero and no repeated term); firsts[a2][b2] is then its (j, c2)
    T, firsts = _monomial(P), _monomial(dual)
    if T is None or firsts is None or sum(map(len, firsts)) != sum(map(len, H.comult)):
        T, firsts = None, [{} for _ in range(dim)]  # firsts[a2][b2] = [(j, c2), ...]
        for j, terms in enumerate(H.comult):
            for a2, b2, c2 in terms:
                firsts[a2].setdefault(b2, []).append((j, c2))
    fam = "comult-multiplicative"
    computed = 0
    for i in range(dim):
        rhs_of: dict = {}  # j -> Delta(e_i) Delta(e_j)
        for (a1, b1), c1 in delta[i].items():
            if T is not None:
                Tb1 = T[b1]
                for a2, (m1, d1) in T[a1].items():
                    F, c = firsts[a2], _times(c1, d1, one)
                    for b2 in F.keys() & Tb1.keys():
                        (j, c2), (m2, d2) = F[b2], Tb1[b2]
                        # a product of nonzero scalars: add_term without its zero test
                        v, key = _times(_times(c, c2, one), d2, one), (m1, m2)
                        if (rhs := rhs_of.get(j)) is None:
                            rhs_of[j] = {key: v}
                        elif key in rhs:
                            add_term(rhs, key, v)
                        else:
                            rhs[key] = v
                continue
            Pb1 = P[b1]
            for a2, p1 in P[a1].items():
                F = firsts[a2]
                for b2 in F.keys() & Pb1.keys():
                    p2 = Pb1[b2]
                    for j, c2 in F[b2]:
                        rhs = rhs_of.setdefault(j, {})
                        c = _times(c1, c2, one)
                        for m1, d1 in p1.items():
                            cd = _times(c, d1, one)
                            for m2, d2 in p2.items():
                                add_term(rhs, (m1, m2), _times(cd, d2, one))
        Pi = P[i]
        for j in sorted(Pi.keys() | rhs_of.keys()):
            computed += 1
            if _apply(delta, Pi.get(j, _ZERO), one) != rhs_of.get(j, _ZERO):
                checked[fam], evaluated[fam] = i * dim + j + 1, computed
                yield fam, (i, j)
        checked[fam], evaluated[fam] = (i + 1) * dim, computed

    eps_unit = sum((_times(a, counit[i], one) for i, a in unit.items()), zero)
    if failed("counit-unit", not eps_unit.is_one()):
        yield ("counit-unit",)
    yield from _counit_multiplicative(P, counit, one, zero, checked, evaluated)


def axiom_violations(H: HopfAlgebra, checked: dict | None = None,
                     evaluated: dict | None = None, include_antipode: bool = True):
    """Every failing instance of the Hopf axioms, lazily and in the order of
    verify_hopf_axioms; the counts, kept in `checked` and `evaluated`, are
    exact wherever the caller stops reading."""
    checked = {} if checked is None else checked
    evaluated = {} if evaluated is None else evaluated
    yield from _violations(H, checked, evaluated)
    if include_antipode:
        yield from _antipode_violations(H, H.antipode, checked, evaluated)


def verify_hopf_axioms(H: HopfAlgebra, include_antipode: bool = True) -> AxiomReport:
    """Exhaustively check all Hopf axioms over basis tuples, exactly.

    The families run in a fixed order: unit, associativity over every
    triple (i, j, k), counit, coassociativity, comultiplication and counit
    as algebra maps over every pair (i, j), then (unless include_antipode
    is false) both antipode identities.  Sums are exact CycScalar sums with
    zero entries dropped.  The report lists the first MAX_REPORT failing
    instances in that order.

    ``checked`` counts the instances covered per family: dim**3 for
    associativity and dim**2 for the multiplicative families on a full
    run.  ``evaluated`` counts those actually computed; the rest are
    instances whose two sides the supports make empty sums.  D(S3) covers
    46,656 associativity triples and evaluates 1,296.

    When every product cell has one term (kG, k^G, D(G) and every
    bicrossed product in the standard basis), the walks and
    comult-multiplicative read table views of the product and of its dual
    (see _walk and _monomial); the views decide whole blocks that pass, and
    a block that fails is redone by the per-instance code, so violations
    and both counts are those of the per-instance code alone.
    """
    report = AxiomReport([], {})
    for item in axiom_violations(H, report.checked, report.evaluated, include_antipode):
        if not report.add(*item):
            break
    return report


def verify_work(dim: int, mult_terms: int, row_max: int, comult_terms: int,
                comult_max: int, first_max: int) -> int:
    """An upper bound on the work of verify_hopf_axioms, from nonzero counts:
    the mult terms, the most in one row of mult, the comult terms, the most
    in one Delta(e_i) and the most sharing a first leg.

    The work is the sum of
      - the dim**2 pairs (i, j) that the pair families visit;
      - the associativity triples evaluated: (i, j) evaluates the k in
        supp(row j) whose e_j e_k meets supp(row i), at most dim * (nonzero
        cells) over all (i, j), joined with the supports of the rows x in
        supp(e_i e_j), at most mult_terms * row_max;
      - the triples that walk evaluates on the transpose of Delta, taken as
        2 * comult_terms * comult_max: they are at most comult_terms *
        (comult_max + first_max), so this holds when first_max <= comult_max,
        as for every bicrossed product, but is not proved for arbitrary dumps;
      - the comult-multiplicative terms: a term with first leg a1 meets, for
        each a2 in supp(row a1), the at most first_max terms with first
        leg a2, so at most first_max**2 * mult_terms over all terms.
    """
    triples = min(dim ** 3, dim * mult_terms + mult_terms * row_max)
    return (dim ** 2 + triples + 2 * comult_terms * comult_max
            + first_max ** 2 * mult_terms)


def bicrossed_work(g: int, gamma: int) -> int:
    """verify_work of any bicrossed product k^Gamma # kG with |G| = g and
    |Gamma| = gamma, in closed form: row e_g # x has g one-term cells and
    Delta(e_g # x) has gamma terms, and each e_s # z is the first leg of
    gamma of them.  kG is g = n, gamma = 1; k^G is g = 1, gamma = n."""
    dim = g * gamma
    return verify_work(dim, dim * g, g, dim * gamma, gamma, gamma)


def check_work(work: int, dim: int, conductor: int) -> None:
    """Refuse an algebra over Q(zeta_N), N = conductor, whose verification
    work is above HOPF_WORK_CAP.  A scalar there has phi(N) coordinates and
    one product of dense scalars costs about phi(N)**2 coordinate products,
    so the work counts phi(N)**2 for each unit; at N = 1 it is the unit."""
    phi = conductor
    for p in prime_factors(conductor):
        phi = phi // p * (p - 1)
    if work * phi ** 2 > HOPF_WORK_CAP:
        weight = f" x phi({conductor})^2 = {work * phi ** 2}" if phi > 1 else ""
        raise HopfCapExceeded(f"dimension {dim}: verification work {work}{weight} exceeds "
                              f"cap {HOPF_WORK_CAP}")


def weighed_conductor(cocycles: PairedCocycles | None, conductor: int) -> int:
    """The conductor whose phi(N)**2 weighs a bicrossed product's work in
    check_work: N when the pair stores an exponent, else 1, as every constant
    of trivial cocycles is the field's 0 or 1, which _times passes through."""
    return conductor if cocycles is not None and (cocycles.sigma or cocycles.tau) else 1


def check_conductor(conductor: int) -> None:
    """Refuse a conductor above CONDUCTOR_CAP, before its field is built."""
    if conductor > CONDUCTOR_CAP:
        raise HopfCapExceeded(f"conductor {conductor} exceeds cap {CONDUCTOR_CAP}")


# ---------------------------------------------------------------------------
# antipode solving


def solve_antipode(H: HopfAlgebra, candidate=None):
    """Antipode columns of a verified bialgebra H, the solution of
    m(S (x) id)Delta = u eps; H.antipode is neither read nor set.

    A caller-supplied candidate matrix is accepted once the verifier's
    antipode family passes on it: both convolution identities on every
    basis vector (a two-sided convolution inverse of the identity is
    unique, so a verified candidate *is* the solution).  With no candidate,
    or one that fails, the sparse linear system is solved outright and its
    solution is put through the same family; returns None when the system
    is inconsistent or the solution fails, i.e. the bialgebra is not a
    Hopf algebra.
    """
    field, dim, comult = H.field, H.dim, H.comult

    def passes(cols) -> bool:
        return next(_antipode_violations(H, cols, {}, {}), None) is None

    if candidate is not None and passes(candidate):
        return candidate

    if dim > SOLVE_DIM_CAP:
        raise HopfCapExceeded(
            f"no verified closed-form antipode and dim {dim} exceeds the "
            f"general-solve cap {SOLVE_DIM_CAP}")

    # unknowns S[i, j]; equation rows indexed by (a, m)
    products = transpose(H.mult, dim)  # products[k][i] = e_i e_k
    rows, rhs = {}, {}
    for a in range(dim):
        for j, k, c in comult[a]:
            for i, cell in products[k].items():
                for m, d in cell.items():
                    add_term(rows.setdefault((a, m), {}), (i, j), c * d)
        for m, u in H.unit.items():
            rhs[(a, m)] = H.counit[a] * u

    system = [(rows.get(key, {}), rhs.get(key, field.zero))
              for key in sorted(set(rows) | set(rhs))]
    sol = solve_sparse_system(system, field)
    if sol is None:
        return None
    cols = [dict() for _ in range(dim)]
    for (i, j), c in sol.items():  # the nonzero assignments
        cols[j][i] = c
    return cols if passes(cols) else None


# ---------------------------------------------------------------------------
# constructions


def _extension(mul, gmul, lt, rt, sigma: dict, tau: dict, field: CycField):
    """The tensors of k^Gamma #(sigma,tau) kG, e_g # x numbered g * |G| + x:
    mul and gmul are the Cayley rows of G and Gamma, lt[t][x] the index of
    t |> x and rt[g][x] that of g <| x; sigma[(g, x)][y] and tau[(x, s, t)]
    are the nonzero exponents e of sigma_g(x, y) and tau_x(s, t) = zeta_N^e.

        (e_g # x)(e_h # y) = delta_{g <| x, h} sigma_g(x, y) e_g # xy
        Delta(e_g # x)     = sum_{st=g} tau_x(s, t) e_s # (t |> x) (x) e_t # x

    Returns the rows (lazily), the unit, Delta, epsilon and the antipode of
    trivial cocycles, S(e_g # x) = e_(g <| x)^-1 # (g |> x)^-1.  A product
    or column of exponent 0 is the one shared cell {k: 1} of its target."""
    n, m = len(mul), len(gmul)
    one, zeta = field.one, field.zeta
    basis = list(range(n * m))  # one int per index, shared by every row and term
    keys = [basis[g * n:(g + 1) * n] for g in range(m)]  # keys[g][x]: e_g # x
    cells = [{k: one} for k in basis]
    inv, ginv = [row.index(0) for row in mul], [row.index(0) for row in gmul]

    def rows():
        for g, block in enumerate(keys):
            at = cells[g * n:(g + 1) * n].__getitem__
            for x, xy in enumerate(mul):
                to = keys[rt[g][x]]
                row = dict(zip(to, map(at, xy)))
                for y, e in sigma.get((g, x), {}).items():
                    row[to[y]] = {block[xy[y]]: zeta(e)}
                yield row

    splits = [[(s, gmul[si][g]) for s, si in enumerate(ginv)] for g in range(m)]  # st = g
    comult = [[(keys[s][lt[t][x]], keys[t][x], one) for s, t in splits[g]]
              for g in range(m) for x in range(n)]
    for (x, s, t), e in tau.items():  # term s of Delta(e_st # x)
        terms = comult[gmul[s][t] * n + x]
        terms[s] = (*terms[s][:2], zeta(e))
    unit = cells[0] if m == 1 else dict.fromkeys(basis[::n], one)
    counit = [one] * n + [field.zero] * (n * m - n)
    antipode = [cells[ginv[rt[g][x]] * n + inv[lt[g][x]]] for g in range(m) for x in range(n)]
    return rows(), unit, comult, counit, antipode


def group_algebra(G: PermGroup, conductor: int = 1) -> HopfAlgebra:
    """kG, every basis vector group-like: the extension with Gamma trivial.
    The conductor cap and GROUP_ALGEBRA_CAP are checked before the table is
    built, the work cap not: kG is built past what can be verified in full
    (the tests sample kA6), so a verifying caller checks bicrossed_work(n, 1)."""
    check_conductor(conductor)
    n = G.order
    if n * n * G.degree > GROUP_ALGEBRA_CAP:
        raise HopfCapExceeded(f"dimension {n}: {n * n * G.degree} perm entries composed on "
                              f"{G.degree} points exceed cap {GROUP_ALGEBRA_CAP}")
    field = get_field(conductor)
    tensors = _extension(_cayley(G).mul, [(0,)], [range(n)], [[0] * n], {}, {}, field)
    return HopfAlgebra(field, [cycle_string(g) for g in G.elements], *tensors)


def dual_group_algebra(G: PermGroup, conductor: int = 1) -> HopfAlgebra:
    """k^G = (kG)*: orthogonal idempotents e_g, Delta(e_g) = sum_{st=g} e_s (x) e_t;
    the extension with G trivial.  Both caps are checked before any table;
    every coefficient is one, so the work is not weighed by the conductor."""
    check_conductor(conductor)
    n = G.order
    check_work(bicrossed_work(1, n), n, 1)
    field = get_field(conductor)
    tensors = _extension([(0,)], _cayley(G).mul, [[0]] * n, [[g] for g in range(n)], {}, {}, field)
    return HopfAlgebra(field, [f"e[{cycle_string(g)}]" for g in G.elements], *tensors)


def bicrossed_product(mp: MatchedPair, cocycles: PairedCocycles | None = None,
                      conductor: int | None = None) -> HopfAlgebra:
    """k^Gamma #(sigma,tau) kG on basis e_g # x (see _extension).

    The exponents of the pair, stored mod M = cocycles.conductor, are read
    over Q(zeta_N), N = conductor, as zeta_N^(e N / M), so M must divide N.
    The pair (sigma, tau) is accepted exactly when the result passes full
    axiom verification; failures raise with the first failing instance.
    """
    from .cocycles import trivial_paired_cocycles

    G, Gamma = mp.G, mp.Gamma
    dim = G.order * Gamma.order
    conductor = conductor or (1 if cocycles is None else cocycles.conductor)
    check_conductor(conductor)
    if cocycles is not None and conductor % cocycles.conductor:
        raise HopfError(f"cocycle exponents mod {cocycles.conductor} cannot be read "
                        f"at conductor {conductor}, not a multiple of it")
    check_work(bicrossed_work(G.order, Gamma.order), dim, weighed_conductor(cocycles, conductor))
    if cocycles is None:
        cocycles = trivial_paired_cocycles(G, Gamma, conductor)
    if not cocycles.normalized(G, Gamma):
        raise HopfError("cocycle pair is not normalized")
    field = get_field(conductor)
    origin = BicrossedOrigin(mp, cocycles)
    x_at, g_at = G.element_index(), Gamma.element_index()
    scale = conductor // cocycles.conductor
    sigma: dict = {}
    for (g, x, y), e in cocycles.sigma.items():
        sigma.setdefault((g_at[g], x_at[x]), {})[x_at[y]] = e * scale
    tau = {(x_at[x], g_at[s], g_at[t]): e * scale for (x, s, t), e in cocycles.tau.items()}
    mult, unit, comult, counit, candidate = _extension(_cayley(G).mul, _cayley(Gamma).mul,
                                                       mp.lt, mp.rt, sigma, tau, field)
    labels = [f"e[{cycle_string(g)}]#{cycle_string(x)}" for g, x in origin.basis()]
    H = HopfAlgebra(field, labels, mult, unit, comult, counit, antipode=None, origin=origin)
    if violations := verify_hopf_axioms(H, include_antipode=False).violations:
        raise HopfError(f"bialgebra axioms fail: {violations[0]}")

    # _extension's closed form holds for trivial cocycles; else this solves
    antipode = solve_antipode(H, candidate=candidate)
    if antipode is None:
        raise HopfError("bialgebra admits no antipode (sigma, tau incompatible)")
    H.antipode = tuple(antipode)
    return H


def drinfeld_double(G: PermGroup, conductor: int = 1) -> HopfAlgebra:
    """D(G): the bicrossed product over (G, G), adjoint <| and trivial |>.

    The caps are checked before the pair's |G|^2 action entries are built;
    with trivial cocycles the work is not weighed by the conductor."""
    from .matched import drinfeld_pair

    check_conductor(conductor)
    check_work(bicrossed_work(G.order, G.order), G.order ** 2, 1)
    return bicrossed_product(drinfeld_pair(G), conductor=conductor)


def dual_product(H: HopfAlgebra) -> list[dict]:
    """H*'s product rows, the transpose of Delta: T[j][k] = {i: c} per term
    (j, k, c) of Delta(e_i), summed, no cell empty, k in first-seen order.
    The terms of a Delta(e_i) share a cell per coefficient; only read T."""
    T: list[dict] = [{} for _ in range(H.dim)]
    for i, terms in enumerate(H.comult):
        lone: dict = {}  # id(c) -> the cell {i: c}
        for j, k, c in terms:
            row, cell = T[j], T[j].get(k)
            if cell is None:
                if not c.is_zero():
                    row[k] = lone.setdefault(id(c), {i: c})
            else:
                row[k] = cell = dict(cell)
                add_term(cell, i, c)
                if not cell:
                    del row[k]
    return T


def dual_hopf(H: HopfAlgebra) -> HopfAlgebra:
    """The dual Hopf algebra on the dual basis: all tensors transposed."""
    field = H.field
    dim = H.dim
    comult: list[list] = [[] for _ in range(dim)]
    for i, row in enumerate(H.mult):
        for j, cell in row.items():
            for k, c in cell.items():
                comult[k].append((i, j, c))
    unit = dict(enumerate(H.counit))
    counit = tuple(H.unit.get(i, field.zero) for i in range(dim))
    antipode = transpose([_nonzero(col) for col in H.antipode], dim)
    labels = [f"{lab}^" for lab in H.basis_labels]
    return HopfAlgebra(field, labels, dual_product(H), unit, comult, counit, tuple(antipode))
