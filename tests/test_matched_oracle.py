"""verify_compatibility and dump_matched_pair on the index tables, against
the perm-composing code they replaced.

A MatchedPair keeps s |> x and s <| x as two tables of element indices,
and the verifier decides every identity on the Cayley tables of G and
Gamma.  _oracle_verify_compatibility and _oracle_dump_matched_pair are the
old code, kept as the references: they read the actions one perm at a
time, through rtri/ltri, and compose perms.  On every pair below, and on
every single-entry retarget of drinfeld_pair(S3), the two must give the
same violations list and the same dump.
"""

import pytest

from hopfseq import groups, matched, perm
from hopfseq.groups import _Cayley, alternating, cyclic, direct_product, symmetric
from hopfseq.io_formats import dump_group, dump_matched_pair, load_matched_pair
from hopfseq.matched import (
    CompatibilityReport,
    MatchedPair,
    drinfeld_pair,
    from_factorization,
    trivial_pair,
    verify_compatibility,
)
from hopfseq.perm import compose, parse_cycles


def _oracle_verify_compatibility(mp: MatchedPair) -> CompatibilityReport:
    """Exhaustively check the matched-pair identities and bijectivity.

    The report lists each violated instance as a tagged tuple; an empty
    report means the pair is valid.
    """
    report = CompatibilityReport()
    G, Gamma = mp.G, mp.Gamma
    eG, eGamma = G.identity(), Gamma.identity()
    for s in Gamma.elements:
        for x in G.elements:
            if mp.rtri(s, x) not in G:
                report.violations.append(("range-left", s, x))
            if mp.ltri(s, x) not in Gamma:
                report.violations.append(("range-right", s, x))
    # unit conditions forced by the compatibility equations
    for x in G.elements:
        if mp.rtri(eGamma, x) != x:
            report.violations.append(("unit-left", x))
        if mp.ltri(eGamma, x) != eGamma:
            report.violations.append(("unit-right", x))
    for s in Gamma.elements:
        if mp.rtri(s, eG) != eG:
            report.violations.append(("unit-left-e", s))
        if mp.ltri(s, eG) != s:
            report.violations.append(("unit-right-e", s))
    # bijectivity of each partial map
    for x in G.elements:
        if len({mp.ltri(s, x) for s in Gamma.elements}) != Gamma.order:
            report.violations.append(("not-bijective-right", x))
    for s in Gamma.elements:
        if len({mp.rtri(s, x) for x in G.elements}) != G.order:
            report.violations.append(("not-bijective-left", s))
    # s |> xy = (s |> x)((s <| x) |> y)
    for s in Gamma.elements:
        for x in G.elements:
            sx = mp.ltri(s, x)
            for y in G.elements:
                lhs = mp.rtri(s, compose(x, y))
                rhs = compose(mp.rtri(s, x), mp.rtri(sx, y))
                if lhs != rhs:
                    report.violations.append(("left-compat", s, x, y))
    # st <| x = (s <| (t |> x))(t <| x)
    for s in Gamma.elements:
        for t in Gamma.elements:
            st = compose(s, t)
            for x in G.elements:
                lhs = mp.ltri(st, x)
                rhs = compose(mp.ltri(s, mp.rtri(t, x)), mp.ltri(t, x))
                if lhs != rhs:
                    report.violations.append(("right-compat", s, t, x))
    return report


def _oracle_dump_matched_pair(mp: MatchedPair) -> str:
    out = ["[G]", dump_group(mp.G).rstrip(), "[GAMMA]", dump_group(mp.Gamma).rstrip()]
    gx, gam = mp.G.element_index(), mp.Gamma.element_index()
    out.append("[TRIANGLE_LEFT]")
    for s in mp.Gamma.elements:
        out.append(" ".join(str(gx[mp.rtri(s, x)]) for x in mp.G.elements))
    out.append("[TRIANGLE_RIGHT]")
    for s in mp.Gamma.elements:
        out.append(" ".join(str(gam[mp.ltri(s, x)]) for x in mp.G.elements))
    return "\n".join(out) + "\n"


def _a5_c5_a4():
    a5 = alternating(5)
    a4 = a5.subgroup([parse_cycles("(1 2 3)", 5), parse_cycles("(1 2)(3 4)", 5)])
    c5 = a5.subgroup([parse_cycles("(1 2 3 4 5)", 5)])
    return from_factorization(a5, c5, a4)


def _s4_s3_c4():
    s4 = symmetric(4)
    s3 = s4.subgroup([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3)", 4)])
    c4 = s4.subgroup([parse_cycles("(1 2 3 4)", 4)])
    return from_factorization(s4, s3, c4)


def _s4_x_s4():
    E = direct_product(symmetric(4), symmetric(4))
    G = E.subgroup([parse_cycles("(1 2 3 4)", 8), parse_cycles("(1 2)", 8)])
    Gamma = E.subgroup([parse_cycles("(5 6 7 8)", 8), parse_cycles("(5 6)", 8)])
    return from_factorization(E, G, Gamma)


PAIRS = {
    "Z3 x Z4 trivial": lambda: trivial_pair(cyclic(3), cyclic(4)),
    "D(S3)": lambda: drinfeld_pair(symmetric(3)),
    "A5 = C5.A4": _a5_c5_a4,
    "S4 = S3.C4": _s4_s3_c4,
    "S4 x S4": _s4_x_s4,
}


def _retargets():
    """Every pair that differs from drinfeld_pair(S3) in one table entry."""
    mp = drinfeld_pair(symmetric(3))
    n = mp.G.order
    for side in ("lt", "rt"):
        table = getattr(mp, side)
        for s in range(n):
            for x in range(n):
                for v in range(n):
                    if v == table[s][x]:
                        continue
                    bad = [list(row) for row in table]
                    bad[s][x] = v
                    tables = {"lt": mp.lt, "rt": mp.rt, side: bad}
                    yield f"{side}[{s}][{x}]={v}", MatchedPair(mp.G, mp.Gamma, **tables)


def _compose_nothing(monkeypatch, mp: MatchedPair) -> None:
    """Unset every compose, with the Cayley tables of both groups built
    beforehand: the verifier must then run on the tables alone."""
    tables = {group: _Cayley(group) for group in (mp.G, mp.Gamma)}
    monkeypatch.setattr(matched, "_cayley", tables.__getitem__)
    for module in (perm, groups, matched):
        monkeypatch.setattr(module, "compose", None)  # a call raises TypeError


@pytest.mark.parametrize("name", PAIRS)
def test_reports_and_dumps_are_the_perm_composing_ones(name, monkeypatch):
    mp = PAIRS[name]()
    want = _oracle_verify_compatibility(mp).violations
    assert want == []
    with monkeypatch.context() as m:
        _compose_nothing(m, mp)
        assert verify_compatibility(mp).violations == want
    text = dump_matched_pair(mp)
    assert text == _oracle_dump_matched_pair(mp)
    assert load_matched_pair(text) == mp


def test_every_retarget_of_the_drinfeld_pair_reports_as_the_oracle(monkeypatch):
    cases = list(_retargets())
    assert len(cases) == 2 * 36 * 5
    expected = {label: _oracle_verify_compatibility(mp).violations for label, mp in cases}
    _compose_nothing(monkeypatch, cases[0][1])
    for label, mp in cases:
        got = verify_compatibility(mp).violations
        assert got == expected[label], label
        assert got, label  # a single retarget always breaks the pair
    kinds = {v[0] for want in expected.values() for v in want}
    assert kinds >= {"unit-left", "unit-right", "unit-left-e", "unit-right-e",
                     "not-bijective-left", "not-bijective-right", "left-compat",
                     "right-compat"}


@pytest.mark.parametrize("value", [-1, 6])
def test_an_entry_outside_its_group_is_reported_alone(value):
    mp = drinfeld_pair(symmetric(3))
    for side, tag in (("lt", "range-left"), ("rt", "range-right")):
        bad = [list(row) for row in getattr(mp, side)]
        bad[2][3] = value
        tables = {"lt": mp.lt, "rt": mp.rt, side: bad}
        report = verify_compatibility(MatchedPair(mp.G, mp.Gamma, **tables))
        assert report.violations == [(tag, mp.Gamma.elements[2], mp.G.elements[3])]
