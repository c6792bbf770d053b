from fractions import Fraction

import pytest

from hopfseq import center, comp_series_cat, cyclic, fpdim, rep_g, symmetric, vec_g
from hopfseq.groups import PermGroup, alternating
from hopfseq.perm import parse_cycles
from hopfseq.series_cat import SeriesError, get_strategy, terminal_certificate


def test_vec_s6_whole_chain(s6):
    ser = comp_series_cat(vec_g(s6), "a6")
    assert ser.length() == 2
    assert ser.factor_names() == ["vect[A6]", "vect[Z2]"]
    assert ser.terminal_status == ["certified-simple", "certified-simple"]


def test_vec_s6_iterated_chain(s6):
    ser = comp_series_cat(vec_g(s6), "iterated")
    assert ser.length() == 7
    assert ser.factor_names() == [
        "vect[Z3]", "vect[Z2]", "vect[Z2]", "vect[Z2]",
        "vect[Z5]", "vect[Z3]", "vect[Z2]"]
    assert all(st == "certified-simple" for st in ser.terminal_status)


def test_vec_s6_multisets_differ(s6):
    s1 = comp_series_cat(vec_g(s6), "a6")
    s2 = comp_series_cat(vec_g(s6), "iterated")
    assert s1.factor_multiset() != s2.factor_multiset()
    assert s1.length() != s2.length()


def test_center_series_both_chains(s6):
    ser4 = comp_series_cat(center(vec_g(s6)), "a6")
    assert ser4.length() == 4
    assert ser4.factor_names() == ["Rep[Z2]", "Rep[A6]", "vect[A6]", "vect[Z2]"]
    ser9 = comp_series_cat(center(vec_g(s6)), "iterated")
    assert ser9.length() == 9
    assert ser9.factor_names() == [
        "Rep[Z2]", "Rep[A6]", "vect[Z3]", "vect[Z2]", "vect[Z2]", "vect[Z2]",
        "vect[Z5]", "vect[Z3]", "vect[Z2]"]


def test_series_dimension_invariant(s6):
    for chain in ("a6", "iterated"):
        ser = comp_series_cat(center(vec_g(s6)), chain)
        total = Fraction(1)
        for f in ser.factors:
            total *= fpdim(f)
        assert total == fpdim(center(vec_g(s6)))


def test_rep_series():
    ser = comp_series_cat(rep_g(symmetric(6)), "a6")
    assert ser.factor_names() == ["Rep[Z2]", "Rep[A6]"]
    assert ser.terminal_status == ["certified-simple", "certified-simple"]


def test_rule_trace_records_rules(s6):
    ser = comp_series_cat(center(vec_g(s6)), "a6")
    assert any("center-splitting" in line for line in ser.rule_trace)
    assert any("rep-restriction" in line for line in ser.rule_trace)
    assert any("vec-exact-factorization" in line for line in ser.rule_trace)


def test_vec_z4_uses_normal_subgroup_rule():
    ser = comp_series_cat(vec_g(cyclic(4)), "iterated")
    assert ser.factor_names() == ["vect[Z2]", "vect[Z2]"]
    assert any("vec-normal-subgroup" in line for line in ser.rule_trace)


def test_terminal_certificates():
    assert terminal_certificate(vec_g(cyclic(5))) == "certified-simple"
    assert terminal_certificate(vec_g(alternating(6))) == "certified-simple"
    assert terminal_certificate(rep_g(alternating(5))) == "certified-simple"
    assert terminal_certificate(rep_g(symmetric(4))) == "no-rule-applies"
    assert terminal_certificate(vec_g(cyclic(6))) == "no-rule-applies"


def test_unknown_strategy():
    with pytest.raises(SeriesError):
        get_strategy("nope")


def test_family_terminals_certified():
    from hopfseq import tambara_yamagami

    ser = comp_series_cat(tambara_yamagami(5), "a6")
    assert ser.length() == 1
    assert ser.terminal_status == ["certified-simple"]


def test_no_rule_marks_status():
    from hopfseq import group_theoretical

    g = symmetric(4)
    expr = group_theoretical(g, "1", g.subgroup([g.elements[1]]), None)
    ser = comp_series_cat(expr, "a6")
    assert ser.terminal_status == ["no-rule-applies"]


def _on_points(degree: int, *cycles: str):
    return PermGroup(degree, [parse_cycles(c, degree) for c in cycles])


def test_symmetric_chains_on_moved_points():
    # S4 on points 2..5, S5 on 2..6 and S6 on 2..7: the chains of the
    # natural groups, carried onto the points each group moves
    s4 = _on_points(5, "(2 3 4 5)", "(2 3)")
    assert comp_series_cat(vec_g(s4), "iterated").factor_names() == [
        "vect[Z3]", "vect[Z2]", "vect[Z2]", "vect[Z2]"]
    s5 = _on_points(6, "(2 3 4 5 6)", "(2 3)")
    assert (comp_series_cat(vec_g(s5), "iterated").factor_names()
            == comp_series_cat(vec_g(symmetric(5)), "iterated").factor_names())
    s6 = _on_points(7, "(2 3 4 5 6 7)", "(2 3)")
    ser = comp_series_cat(vec_g(s6), "a6")
    assert ser.factor_names() == ["vect[A6]", "vect[Z2]"]
    assert ser.terminal_status == ["certified-simple", "certified-simple"]


def test_symmetric_label_on_more_points_has_no_rule():
    # PGL(2, 5) acting on the six points of the projective line is S5, but
    # it moves six points, so no S5 chain applies
    pgl = _on_points(6, "(1 2 3 4 5)", "(2 3 5 4)", "(1 6)(2 5)")
    assert pgl.order == 120
    ser = comp_series_cat(vec_g(pgl), "iterated")
    assert ser.factor_names() == ["vect[S5]"]
    assert ser.terminal_status == ["no-rule-applies"]
