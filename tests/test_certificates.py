import pytest

from hopfseq import (
    a6_simplicity_check,
    cpq_category,
    family_simplicity_check,
    invertible_group_order,
    tambara_yamagami,
    trivial_cocycle,
)
from hopfseq.catexpr import LEDGER_AXIOMS
from hopfseq.certificates import Inconclusive
from hopfseq.cocycles import nondegenerate_v4_cocycle
from hopfseq.groups import iso_label, normalizer


@pytest.fixture(scope="module")
def a6_cert():
    return a6_simplicity_check()


def test_a6_verdict_simple(a6_cert):
    assert a6_cert.verdict == "SIMPLE"


def test_a6_trace_has_all_classes(a6_cert):
    s2 = [e for e in a6_cert.trace if e.case.startswith("S2:")]
    assert len(s2) == 22


def test_a6_stage_two_survivors(a6_cert):
    surv = [e for e in a6_cert.trace
            if e.case.startswith("S2:") and "survives" in e.reason]
    assert sorted(e.case for e in surv) == [
        "S2:A4", "S2:A4", "S2:Z2xZ2", "S2:Z2xZ2", "S2:Z3", "S2:Z3"]
    assert all(e.values["gcd"] == 6 and e.values["index_H"] == 6 for e in surv)


def test_a6_z5_entry_numbers(a6_cert):
    entry = next(e for e in a6_cert.trace if e.case == "S2:Z5")
    assert entry.values["index_T"] == 72
    assert entry.values["pointed_bound"] == 10
    assert entry.values["gcd"] == 2


def test_a6_stage_three_numbers(a6_cert):
    v4 = [e for e in a6_cert.trace if e.case == "S3:Z2xZ2"]
    assert all(e.values["dual_pointed"] == 24 and e.values["required"] == 72 for e in v4)
    z3 = [e for e in a6_cert.trace if e.case == "S3:Z3"]
    assert all(e.values["dual_pointed"] == 18 and e.values["required"] == 36 for e in z3)
    a4 = [e for e in a6_cert.trace if e.case == "S3:A4"]
    assert all(e.values["dual_pointed_bound"] == 6 and e.values["required_divisor"] == 9
               for e in a4)
    assert len(v4) == len(z3) == len(a4) == 2


def test_a6_machine_trace(a6_cert):
    lines = a6_cert.machine_lines()
    assert lines[0] == "target=vect[A6]"
    assert lines[1] == "verdict=SIMPLE"
    assert any(line.startswith("case=S2:Z5") for line in lines)


def test_a6_inconclusive_on_table_disagreement(monkeypatch):
    import hopfseq.certificates as certs

    wrong = tuple(list(certs.A6_TABLE[:-1]) + [("A6", 360, 1, 2)])
    monkeypatch.setattr(certs, "A6_TABLE", wrong)
    cert = certs.a6_simplicity_check()
    assert cert.verdict == "INCONCLUSIVE"
    assert any("disagree" in e.reason for e in cert.trace)


def test_family_ty():
    for p in (3, 5, 7):
        cert = family_simplicity_check(tambara_yamagami(p))
        assert cert.verdict == "SIMPLE"
        splits = [e for e in cert.trace if e.case.startswith("split")]
        assert len(splits) == 1
        assert splits[0].values == {"dim_kernel": 2, "dim_quotient": p}
        assert "prime-fpdim-pointed" in cert.axioms_used


def test_family_cpq():
    cert = family_simplicity_check(cpq_category(3, 5))
    assert cert.verdict == "SIMPLE"
    cases = [e.case for e in cert.trace if e.case.startswith("split")]
    assert cases == ["split-3x25", "split-5x15", "split-15x5", "split-25x3"]
    assert "cpq-not-group-theoretical" in cert.axioms_used


def test_every_axiom_a_certificate_names_is_in_the_ledger(a6_cert):
    for cert in (a6_cert, family_simplicity_check(tambara_yamagami(5)),
                 family_simplicity_check(cpq_category(3, 5))):
        named = set(cert.axioms_used) | {ax for e in cert.trace for ax in e.axioms}
        assert named and named <= set(LEDGER_AXIOMS), named - set(LEDGER_AXIOMS)


def test_family_rejects_other_nodes():
    from hopfseq import vec_g
    from hopfseq.groups import symmetric

    with pytest.raises(ValueError):
        family_simplicity_check(vec_g(symmetric(3)))


def test_invertible_orders_match_table(a6, a6_rows):
    # trivial cocycle: |K| |T^| = |N/T| |T^| for every class in the table
    for row in a6_rows:
        got = invertible_group_order(a6, row.representative)
        assert got == row.normalizer_index * row.char_group_order, row.iso_label


def test_invertible_orders_examples(a6, a6_rows):
    v4 = next(r for r in a6_rows if r.iso_label == "Z2xZ2")
    z3 = next(r for r in a6_rows if r.iso_label == "Z3")
    a5row = next(r for r in a6_rows if r.iso_label == "A5")
    assert invertible_group_order(a6, v4.representative) == 24
    assert invertible_group_order(a6, z3.representative) == 18
    assert invertible_group_order(a6, a5row.representative) == 1


def test_invertible_order_nontrivial_cocycle(a6, a6_rows):
    v4 = next(r for r in a6_rows if r.iso_label == "Z2xZ2").representative
    psi = nondegenerate_v4_cocycle(v4)
    got = invertible_group_order(a6, v4, psi)
    bound = 6 * 4
    assert got % 4 == 0 and got <= bound  # always a multiple of |T^|


def test_invertible_order_inconclusive_nonabelian(a6, a6_rows):
    s3row = next(r for r in a6_rows if r.iso_label == "S3").representative
    from hopfseq.cocycles import TwoCocycle

    table = {(a, b): 0 for a in s3row.elements for b in s3row.elements}
    x = s3row.elements[1]
    table[(x, x)] = 1
    psi = TwoCocycle(carrier=s3row, conductor=2, table=table)
    with pytest.raises(Inconclusive):
        invertible_group_order(a6, s3row, psi)
