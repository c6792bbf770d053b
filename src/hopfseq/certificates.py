"""Simplicity certificates from dimension arithmetic.

Implements the invertible-object count for group-theoretical categories,
the full elimination schema certifying that vect over the alternating
group of degree 6 is simple, and the divisor-split certificates for the
Tambara-Yamagami and C(p, q) families.  Every trace entry records the
numbers it was decided on, so certificates can be re-derived line by
line from the group engine.
"""

from __future__ import annotations

from math import gcd

from . import catexpr
from .catexpr import CatExpr, fpdim
from .cocycles import TwoCocycle, cocycle_class_trivial, conjugate_twisted, trivial_cocycle
from .groups import (
    PermGroup,
    SubgroupClassRow,
    abelianization_order,
    alternating,
    divisors,
    exact_factorizations,
    factor_divisors,
    normalizer,
    quotient_group,
    subgroup_classes,
)


class Inconclusive(RuntimeError):
    """The implemented criterion does not cover the requested case."""


class TraceEntry:
    def __init__(self, case: str, values: dict, reason: str, axioms: tuple = ()):
        self.case = case
        self.values = values
        self.reason = reason
        self.axioms = axioms

    def machine_line(self) -> str:
        vals = " ".join(f"{k}={v}" for k, v in sorted(self.values.items()))
        return f"case={self.case} {vals} reason={self.reason}"


class SimplicityCertificate:
    def __init__(self, target: str, verdict: str, trace: list[TraceEntry] | None = None,
                 axioms_used: tuple = ()):
        self.target = target
        self.verdict = verdict                 # SIMPLE | NOT-SIMPLE | INCONCLUSIVE
        self.trace = [] if trace is None else trace
        self.axioms_used = axioms_used

    def machine_lines(self) -> list[str]:
        out = [f"target={self.target}", f"verdict={self.verdict}"]
        out += [e.machine_line() for e in self.trace]
        out += [f"axiom={name}" for name in self.axioms_used]
        return out


# ---------------------------------------------------------------------------
# invertible objects of C(G, 1, T, psi)


def invertible_group_order(G: PermGroup, T: PermGroup,
                           psi: TwoCocycle | None = None) -> int:
    """|K(psi)| * |T^|: the order of the invertible-object group of C(G,1,T,psi).

    K(psi) consists of the classes gT in N_G(T)/T for which the twisted
    cocycle psi^g(h1, h2) = psi(h1, h2) psi(g^-1 h2^-1 g, g^-1 h1^-1 g) has
    trivial class.  A trivial psi gives the full |N_G(T)/T| * |T^|.
    """
    if not G.is_subgroup(T):
        raise ValueError("T must be a subgroup of G")
    if psi is None:
        psi = trivial_cocycle(T)
    N = normalizer(G, T)
    t_hat = abelianization_order(T)
    if psi.is_trivial_table():
        return (N.order // T.order) * t_hat
    if not T.is_abelian():
        raise Inconclusive("psi nontrivial on a nonabelian carrier")
    _, proj = quotient_group(N, T)
    per_coset: dict = {}
    for g in N.elements:
        trivial = cocycle_class_trivial(T, conjugate_twisted(psi, g))
        if per_coset.setdefault(proj[g], trivial) != trivial:
            raise Inconclusive("twisted-cocycle class is not constant on a coset")
    k_order = sum(1 for v in per_coset.values() if v)
    return k_order * t_hat


# ---------------------------------------------------------------------------
# the vect_{A6} certificate

# Numeric columns of the subgroup tables used by the proof schema, as
# (iso label, |T|, |T^|, [N:T]) multisets.  The live group engine must
# reproduce them exactly or the certificate refuses to decide.

A6_TABLE = (
    ("1", 1, 1, 360),
    ("Z2", 2, 2, 4),
    ("Z2xZ2", 4, 4, 6), ("Z2xZ2", 4, 4, 6),
    ("Z4", 4, 4, 2),
    ("D4", 8, 4, 1),
    ("Z3", 3, 3, 6), ("Z3", 3, 3, 6),
    ("Z3xZ3", 9, 9, 4),
    ("S3", 6, 2, 1), ("S3", 6, 2, 1),
    ("A4", 12, 3, 2), ("A4", 12, 3, 2),
    ("S4", 24, 2, 1), ("S4", 24, 2, 1),
    ("(Z3xZ3):Z2", 18, 2, 2),
    ("(Z3xZ3):Z4", 36, 4, 1),
    ("Z5", 5, 5, 2),
    ("D5", 10, 2, 1),
    ("A5", 60, 1, 1), ("A5", 60, 1, 1),
    ("A6", 360, 1, 1),
)

A5_TABLE = (
    ("1", 1, 1, 60),
    ("Z2", 2, 2, 2),
    ("Z2xZ2", 4, 4, 3),
    ("Z3", 3, 3, 2),
    ("S3", 6, 2, 1),
    ("A4", 12, 3, 1),
    ("Z5", 5, 5, 2),
    ("D5", 10, 2, 1),
    ("A5", 60, 1, 1),
)

_SMALL_INDEXES_ABSENT = (2, 3, 4)   # A6 has no subgroups of these indexes


def _rows_match_table(rows: list[SubgroupClassRow], table) -> bool:
    got = sorted(r.numeric_key() for r in rows)
    want = sorted(table)
    return got == want


def a6_simplicity_check() -> SimplicityCertificate:
    """Certificate that vect over A6 admits no exact sequence splitting it.

    Stage S1 certifies the ambient facts: A6 has no proper exact
    factorization, so the dual category C(A6, 1, T, psi) is never pointed,
    while the quotient category of a pointed one is always pointed.
    Stage S2 runs the gcd filter over all 22 subgroup classes.  Stage S3
    eliminates the surviving (H = A5, T) cases numerically.
    """
    a6 = alternating(6)
    cert = SimplicityCertificate(target="vect[A6]", verdict="INCONCLUSIVE")
    cert.axioms_used = (
        "quotient-of-pointed-is-pointed",
        "pointed-dual-needs-exact-factorization",
        "invertibles-of-group-theoretical",
        "cyclic-h2-trivial",
    )

    rows = subgroup_classes(a6)
    if not _rows_match_table(rows, A6_TABLE):
        cert.trace.append(TraceEntry(
            case="table-check", values={"got": len(rows)},
            reason="computed subgroup classes disagree with the pinned table"))
        return cert
    rows_a5 = subgroup_classes(alternating(5))
    if not _rows_match_table(rows_a5, A5_TABLE):
        cert.trace.append(TraceEntry(
            case="table-check-a5", values={"got": len(rows_a5)},
            reason="computed A5 subgroup classes disagree with the pinned table"))
        return cert
    a5_nindex = {r.iso_label: r.normalizer_index for r in rows_a5}

    # S1: no exact factorization into proper subgroups
    if exact_factorizations(a6, proper_only=True):
        cert.trace.append(TraceEntry(
            case="stage-S1", values={},
            reason="unexpected exact factorization found; schema does not apply"))
        return cert
    cert.trace.append(TraceEntry(
        case="stage-S1",
        values={"proper_factorizations": 0},
        reason="no exact factorization, so the dual C(A6,1,T,psi) is never pointed; "
               "a pointed total category still forces a pointed quotient",
        axioms=("pointed-dual-needs-exact-factorization",
                "quotient-of-pointed-is-pointed")))

    # S2: gcd filter per class; the candidate quotient dimension [A6:H] must
    # divide gcd([A6:T], |N/T| |T^|) and cannot be 2, 3 or 4.
    survivors: list[SubgroupClassRow] = []
    order = a6.order
    for row in rows:
        idx_t = order // row.order
        bound = row.normalizer_index * row.char_group_order
        g = gcd(idx_t, bound)
        values = {"T": row.iso_label, "index_T": idx_t,
                  "pointed_bound": bound, "gcd": g}
        if row.order == 1:
            # trivial T forces psi trivial and the dual pointed of full size
            values["forced_pointed_dim"] = bound * row.order
            cert.trace.append(TraceEntry(
                case=f"S2:{row.iso_label}", values=values,
                reason="dual category would be pointed (dimension 360), "
                       "impossible after stage S1"))
            continue
        viable = [d for d in divisors(g) if d > 1 and d not in _SMALL_INDEXES_ABSENT]
        if not viable:
            cert.trace.append(TraceEntry(
                case=f"S2:{row.iso_label}", values=values,
                reason="every admissible quotient dimension is 2, 3 or 4, "
                       "and A6 has no subgroup of that index"))
            continue
        if viable != [6]:
            cert.trace.append(TraceEntry(
                case=f"S2:{row.iso_label}", values=values,
                reason=f"unexpected viable indexes {viable}; schema does not apply"))
            return cert
        values["index_H"] = 6
        order60 = [r.iso_label for r in rows if r.order == 60]
        if set(order60) != {"A5"}:
            return cert
        cert.trace.append(TraceEntry(
            case=f"S2:{row.iso_label}", values=values,
            reason="survives the gcd filter: [A6:H] = 6, so H = A5"))
        survivors.append(row)

    surv_types = sorted({r.iso_label for r in survivors})
    if surv_types != ["A4", "Z2xZ2", "Z3"]:
        cert.trace.append(TraceEntry(
            case="stage-S2", values={"survivors": ",".join(surv_types)},
            reason="survivor set differs from the proof schema"))
        return cert

    # S3: numeric elimination of each survivor paired with H = A5
    for row in survivors:
        t_hat = row.char_group_order
        n_over_t = row.normalizer_index
        dual_pt = n_over_t * t_hat
        if row.iso_label == "Z2xZ2":
            # the pointed part is pinned to 24, forcing every psi^g trivial,
            # so the H-side pointed part is |N_H(T)/T| |T^| and the
            # factorization needs 12 * 6 = 72 > 24
            nh = a5_nindex["Z2xZ2"]
            forced = nh * t_hat * 6
            cert.trace.append(TraceEntry(
                case=f"S3:{row.iso_label}",
                values={"dual_pointed": dual_pt, "N_H(T):T": nh,
                        "required": forced},
                reason=f"pointed part would need dimension {forced} but equals "
                       f"{dual_pt}",
                axioms=("invertibles-of-group-theoretical",)))
            if not (dual_pt == 24 and forced == 72):
                return cert
        elif row.iso_label == "Z3":
            nh = a5_nindex["Z3"]
            required = nh * t_hat * 6
            cert.trace.append(TraceEntry(
                case=f"S3:{row.iso_label}",
                values={"dual_pointed": dual_pt, "N_H(T):T": nh,
                        "required": required},
                reason=f"psi is trivial on a cyclic carrier, the pointed part "
                       f"is {dual_pt} but the factorization needs {required}",
                axioms=("cyclic-h2-trivial", "invertibles-of-group-theoretical")))
            if not (dual_pt == 18 and required == 36):
                return cert
        elif row.iso_label == "A4":
            cert.trace.append(TraceEntry(
                case=f"S3:{row.iso_label}",
                values={"dual_pointed_bound": dual_pt, "required_divisor": t_hat * 3},
                reason=f"{t_hat} divides the H-side pointed part and 3 divides "
                       f"the pointed quotient, so 9 divides a number bounded by "
                       f"{dual_pt}: impossible",
                axioms=("invertibles-of-group-theoretical",)))
            if not (dual_pt == 6 and t_hat * 3 == 9):
                return cert
    cert.verdict = "SIMPLE"
    return cert


# ---------------------------------------------------------------------------
# family certificates: TY(Z_p) and C(p, q)


def family_simplicity_check(c: CatExpr) -> SimplicityCertificate:
    """Divisor-split elimination for the TY and C(p, q) families.

    Any exact sequence splits the dimension into a product of two parts
    greater than 1; each part forces a pointed factor, so the dual admits a
    pointed exact factorization, making the category group-theoretical.
    That contradicts the recorded family fact (non-integrality for TY,
    non-group-theoreticality for C(p, q)).
    """
    if c.kind == "ty":
        return _ty_certificate(c)
    if c.kind == "cpq":
        return _cpq_certificate(c)
    raise ValueError("family check covers TY and C(p, q) nodes only")


def _ty_certificate(c: CatExpr) -> SimplicityCertificate:
    # a ty node comes from tambara_yamagami, which has checked that p is
    # prime, so its dimension 2p has the two prime factors 2 and p
    p = c.p
    total = fpdim(c)
    cert = SimplicityCertificate(target=c.describe(), verdict="INCONCLUSIVE")
    cert.axioms_used = ("prime-fpdim-pointed",
                        "pointed-factorization-group-theoretical")
    if catexpr.is_integral(c):
        cert.trace.append(TraceEntry(
            case="family-fact", values={"p": p},
            reason="type data is integral; the TY contradiction needs sqrt(p)"))
        return cert
    # 2p has two prime factors, so both parts of a split are prime exactly
    # when the first has one
    splits = [(d, total // d, k) for d, k in factor_divisors([2, p]) if 1 < d <= total // d]
    for d1, d2, k1 in splits:
        if k1 != 1:
            return cert
        cert.trace.append(TraceEntry(
            case=f"split-{d1}x{d2}",
            values={"dim_kernel": d1, "dim_quotient": d2},
            reason="both parts have prime dimension, hence are pointed; a "
                   "pointed exact factorization makes the category integral, "
                   "contradicting the simple object of squared dimension "
                   f"{p}",
            axioms=("prime-fpdim-pointed",
                    "pointed-factorization-group-theoretical")))
    cert.verdict = "SIMPLE"
    return cert


def _cpq_certificate(c: CatExpr) -> SimplicityCertificate:
    p, q = c.p, c.q
    total = fpdim(c)
    cert = SimplicityCertificate(target=c.describe(), verdict="INCONCLUSIVE")
    cert.axioms_used = ("prime-fpdim-pointed", "prime-square-fpdim-pointed",
                        "pq-fpdim-pointed", "cpq-not-group-theoretical",
                        "pointed-factorization-group-theoretical")
    if (q - 1) % p == 0:
        cert.trace.append(TraceEntry(
            case="constraints", values={"p": p, "q": q},
            reason="p divides q-1, outside the family constraints"))
        return cert
    # p q^2 has three prime factors: a part with k of them leaves 3 - k
    splits = [(d, total // d, k) for d, k in factor_divisors([p, q, q]) if 1 < d < total]
    for d1, d2, k1 in splits:
        reason_parts = []
        for dpart, k in ((d1, k1), (d2, 3 - k1)):
            if k == 1:
                reason_parts.append(f"{dpart} prime so pointed")
            elif dpart in (q * q,):
                reason_parts.append(f"{dpart} = q^2 so pointed")
            elif dpart == p * q:
                reason_parts.append(f"{dpart} = pq with odd p not dividing q-1, so pointed")
            else:
                return cert
        cert.trace.append(TraceEntry(
            case=f"split-{d1}x{d2}",
            values={"dim_kernel": d1, "dim_quotient": d2},
            reason="; ".join(reason_parts) + "; a pointed exact factorization "
                   "would make the category group-theoretical, contradicting "
                   "the family fact",
            axioms=cert.axioms_used))
    cert.verdict = "SIMPLE"
    return cert
