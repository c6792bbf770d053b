import pytest

from hopfseq import (
    cyclic,
    direct_product,
    from_factorization,
    load_matched_pair,
    dump_matched_pair,
    reconstruction_matches_ambient,
    symmetric,
    trivial_pair,
    verify_compatibility,
)
from hopfseq.groups import GroupError
from hopfseq.io_formats import FormatError
from hopfseq.matched import MatchedPair, drinfeld_pair
from hopfseq.perm import compose, inverse, parse_cycles


def test_trivial_pair_valid():
    mp = trivial_pair(cyclic(3), cyclic(4))
    assert verify_compatibility(mp).valid


def test_direct_product_gives_trivial_actions():
    E = direct_product(cyclic(2), cyclic(3))
    G = E.subgroup([E.generators[0]])
    Gamma = E.subgroup([E.generators[1]])
    mp = from_factorization(E, G, Gamma)
    assert all(mp.rtri(s, x) == x for s in Gamma.elements for x in G.elements)
    assert all(mp.ltri(s, x) == s for s in Gamma.elements for x in G.elements)


def test_a5_factorization_pair(a5, a5_matched_pair):
    report = verify_compatibility(a5_matched_pair)
    assert report.valid
    assert a5_matched_pair.G.order == 5 and a5_matched_pair.Gamma.order == 12


def test_drinfeld_pair_is_adjoint_and_trivial():
    G = symmetric(3)
    mp = drinfeld_pair(G)
    assert verify_compatibility(mp).valid
    for s in G.elements:
        for x in G.elements:
            assert mp.rtri(s, x) == x
            assert mp.ltri(s, x) == compose(compose(inverse(x), s), x)


def test_corrupted_table_reports_violation():
    G = symmetric(3)
    mp = drinfeld_pair(G)
    bad_rt = [list(row) for row in mp.rt]
    s, x = 1, 2  # the indices of G.elements[1] and G.elements[2]
    bad_rt[s][x] = G.element_index()[compose(G.elements[bad_rt[s][x]], G.elements[1])]
    bad = MatchedPair(G, G, mp.lt, bad_rt)
    report = verify_compatibility(bad)
    assert not report.valid
    kinds = {v[0] for v in report.violations}
    assert kinds & {"right-compat", "left-compat", "not-bijective-right", "unit-right"}


def test_round_trip_reconstruction(a5, a5_matched_pair):
    assert reconstruction_matches_ambient(a5_matched_pair, a5)


def test_round_trip_reconstruction_s4():
    s4 = symmetric(4)
    s3 = s4.subgroup([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3)", 4)])
    z4 = s4.subgroup([parse_cycles("(1 2 3 4)", 4)])
    mp = from_factorization(s4, s3, z4)
    assert verify_compatibility(mp).valid
    assert reconstruction_matches_ambient(mp, s4)


def test_from_factorization_rejects_bad_input():
    s4 = symmetric(4)
    a4 = s4.subgroup([parse_cycles("(1 2 3)", 4), parse_cycles("(1 2)(3 4)", 4)])
    v4 = s4.subgroup([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    with pytest.raises(GroupError):
        from_factorization(s4, a4, v4)  # intersection is not trivial
    s3 = s4.subgroup([parse_cycles("(1 2)", 4), parse_cycles("(1 2 3)", 4)])
    z2z2 = s4.subgroup([parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)])
    with pytest.raises(GroupError, match="not an exact factorization"):
        from_factorization(s4, s3, z2z2)  # 6 * 4 = 24 products, (1 2) met twice


def test_matched_pair_dump_round_trip(a5_matched_pair):
    text = dump_matched_pair(a5_matched_pair)
    back = load_matched_pair(text)
    assert back.G == a5_matched_pair.G
    assert back.Gamma == a5_matched_pair.Gamma
    assert back.lt == a5_matched_pair.lt
    assert back.rt == a5_matched_pair.rt
    assert back == a5_matched_pair
    assert dump_matched_pair(back) == text


@pytest.mark.parametrize("cell", ["-1", "-6", "6", "9" * 5000], ids=["-1", "-6", "6", "9x5000"])
def test_matched_pair_dump_refuses_an_index_outside_the_group(cell):
    # a negative index would wrap round to a valid one: -6 read as index 0,
    # and int() refuses the 5000 digits before any range check
    text = dump_matched_pair(drinfeld_pair(symmetric(3)))
    lines = text.splitlines()
    lno = lines.index("[TRIANGLE_LEFT]") + 2
    first, rest = lines[lno - 1].split(" ", 1)
    assert first == "0"
    lines[lno - 1] = f"{cell} {rest}"
    with pytest.raises(FormatError, match=f"bad index '{cell}'") as info:
        load_matched_pair("\n".join(lines) + "\n")
    assert info.value.line == lno
