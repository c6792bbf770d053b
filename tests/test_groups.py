import random
from itertools import permutations

import pytest

from hopfseq import (
    CapExceeded,
    PermGroup,
    abelianization_order,
    all_hopf_series_multisets,
    alternating,
    class_metrics,
    composition_series_group,
    composition_series_hopf,
    cyclic,
    dihedral,
    direct_product,
    drinfeld_double,
    dual_group_algebra,
    elements,
    exact_factorizations,
    group_algebra,
    iso_label,
    klein_four,
    named_group,
    normal_subgroups,
    quaternion8,
    subgroup_classes,
    symmetric,
)
from hopfseq import groups
from hopfseq.groups import (
    abelian_invariants,
    all_composition_factor_multisets,
    closure,
    commutator_subgroup,
    conjugacy_classes,
    is_prime,
    is_simple,
    prime_factors,
    quotient_group,
    walk,
)
from hopfseq.perm import compose, conjugate, inverse, parse_cycles, perm_order

# Numeric content of the two subgroup tables: (iso, |T|, |T^|, [N:T]).
A6_TABLE_ROWS = sorted([
    ("1", 1, 1, 360), ("Z2", 2, 2, 4),
    ("Z2xZ2", 4, 4, 6), ("Z2xZ2", 4, 4, 6), ("Z4", 4, 4, 2), ("D4", 8, 4, 1),
    ("Z3", 3, 3, 6), ("Z3", 3, 3, 6), ("Z3xZ3", 9, 9, 4),
    ("S3", 6, 2, 1), ("S3", 6, 2, 1),
    ("A4", 12, 3, 2), ("A4", 12, 3, 2), ("S4", 24, 2, 1), ("S4", 24, 2, 1),
    ("(Z3xZ3):Z2", 18, 2, 2), ("(Z3xZ3):Z4", 36, 4, 1),
    ("Z5", 5, 5, 2), ("D5", 10, 2, 1),
    ("A5", 60, 1, 1), ("A5", 60, 1, 1), ("A6", 360, 1, 1),
])

A5_TABLE_ROWS = sorted([
    ("1", 1, 1, 60), ("Z2", 2, 2, 2), ("Z2xZ2", 4, 4, 3), ("Z3", 3, 3, 2),
    ("S3", 6, 2, 1), ("A4", 12, 3, 1), ("Z5", 5, 5, 2), ("D5", 10, 2, 1),
    ("A5", 60, 1, 1),
])


def test_closure_small():
    G = elements([parse_cycles("(1 2)", 2)], 2)
    assert G.order == 2


def test_closure_a5_against_parity_oracle():
    # independent oracle: even permutations of 5 points, enumerated outright
    def sign(p):
        inv = sum(1 for i in range(5) for j in range(i + 1, 5) if p[i] > p[j])
        return (-1) ** inv

    evens = {p for p in permutations(range(5)) if sign(p) == 1}
    G = elements([parse_cycles("(1 2 3)", 5), parse_cycles("(1 2 3 4 5)", 5)], 5)
    assert G.order == 60
    assert set(G.elements) == evens


def test_closure_a6_order(a6):
    assert a6.order == 360


def test_closure_cap():
    with pytest.raises(CapExceeded):
        elements([parse_cycles("(1 2)", 8), parse_cycles("(1 2 3 4 5 6 7 8)", 8)], 8,
                 cap=1000)


def _conjugation(y, g):
    return conjugate(g, y)


@pytest.mark.parametrize("seed, step, size", [
    ((0, 1, 2, 3), compose, 24),
    ((1, 0, 2, 3), _conjugation, 6),
    ((1, 2, 3, 0), _conjugation, 6),
], ids=["s4", "transpositions", "4-cycles"])
def test_walk_contract(seed, step, size):
    gens = symmetric(4).generators
    tree = walk(seed, gens, step)
    assert tree[0] == (seed, None, None) and len(tree) == size
    reached = {seed}
    for y, x, s in tree[1:]:
        assert x in reached and s in gens and step(x, s) == y and y not in reached
        reached.add(y)
    with pytest.raises(CapExceeded, match=f"^group order exceeds cap {size - 1}$"):
        walk(seed, gens, step, cap=size - 1)
    assert walk(seed, gens, step, cap=size) == tree


def _random_s6_subgroup(seed):
    rng = random.Random(seed)
    return elements([tuple(rng.sample(range(6), 6)) for _ in range(2)], 6)


@pytest.mark.parametrize("G", [
    symmetric(3), symmetric(4), dihedral(6), quaternion8(), named_group("a4"),
    symmetric(5), _random_s6_subgroup(1), _random_s6_subgroup(2),
], ids=lambda G: f"{G.name or 'random'}-{G.order}")
def test_conjugacy_classes_against_brute_force(G):
    oracle = {}
    for x in G.elements:
        if x not in oracle:
            cls = sorted({compose(compose(g, x), inverse(g)) for g in G.elements})
            oracle.update((y, cls) for y in cls)
    expected = sorted({tuple(cls) for cls in oracle.values()})
    assert [tuple(cls) for cls in conjugacy_classes(G)] == expected


def test_subgroup_classes_a6_match_table(a6_rows):
    assert len(a6_rows) == 22
    assert sorted(r.numeric_key() for r in a6_rows) == A6_TABLE_ROWS


def test_subgroup_classes_a6_specific_rows(a6_rows):
    z3 = [r for r in a6_rows if r.iso_label == "Z3"]
    assert all((r.order, r.char_group_order, r.normalizer_index) == (3, 3, 6) for r in z3)
    d4 = [r for r in a6_rows if r.iso_label == "D4"]
    assert [(r.char_group_order, r.normalizer_index) for r in d4] == [(4, 1)]
    a5s = [r for r in a6_rows if r.iso_label == "A5"]
    assert [(r.char_group_order, r.normalizer_index) for r in a5s] == [(1, 1), (1, 1)]


def test_subgroup_classes_a5_match_table(a5_rows):
    assert len(a5_rows) == 9
    assert sorted(r.numeric_key() for r in a5_rows) == A5_TABLE_ROWS
    a4_row = next(r for r in a5_rows if r.iso_label == "A4")
    assert a4_row.normalizer_index == 1


def test_subgroup_classes_z2():
    rows = subgroup_classes(cyclic(2))
    assert [(r.iso_label, r.order) for r in rows] == [("1", 1), ("Z2", 2)]


def test_subgroup_classes_row_invariants(a6, a6_rows):
    for r in a6_rows:
        assert a6.order % r.order == 0
        assert r.order % r.char_group_order == 0
        assert a6.order % (r.normalizer_index * r.order) == 0


def test_class_metrics_examples(a6, a6_rows):
    d4 = next(r for r in a6_rows if r.iso_label == "D4").representative
    assert class_metrics(a6, d4)[:2] == (1, 4)
    a5sub = next(r for r in a6_rows if r.iso_label == "A5").representative
    assert class_metrics(a6, a5sub)[:2] == (1, 1)
    v4 = klein_four()
    assert class_metrics(v4, v4) == (1, 4, 4)


def _derived_by_all_commutators(G):
    """Oracle: the closure of all |G|^2 commutators a b a^-1 b^-1."""
    inv = {x: inverse(x) for x in G.elements}
    comms = {compose(compose(a, b), compose(inv[a], inv[b]))
             for a in G.elements for b in G.elements}
    return set(closure(sorted(comms), G.degree, cap=G.order))


def test_char_group_order_two_routes(a6_rows, s6):
    # normal closure of the generator commutators against the full sweep, on
    # every class representative of S4, S5, A6, Q8 and D6 (S5 and A6 included
    # as their own top classes), and on S6
    reps = [r.representative
            for G in (symmetric(4), symmetric(5), quaternion8(), dihedral(6))
            for r in subgroup_classes(G)]
    reps += [r.representative for r in a6_rows] + [s6]
    assert len(reps) == 69
    for G in reps:
        assert commutator_subgroup(G).element_set() == _derived_by_all_commutators(G)
    assert abelianization_order(symmetric(3)) == 2
    assert abelianization_order(quaternion8()) == 4
    assert abelianization_order(dihedral(4)) == 4


@pytest.mark.parametrize("name, n_classes, n_subgroups",
                         [("s5", 19, 156), ("a6", 22, 501), ("s6", 56, 1455)])
def test_subgroup_lattice_counts_and_representatives(name, n_classes, n_subgroups):
    G = named_group(name)
    rows = subgroup_classes(G)
    assert len(rows) == n_classes
    assert sum(len(r.conjugates) for r in rows) == n_subgroups
    assert len({m for r in rows for m in r.conjugates}) == n_subgroups
    for r in rows:
        T = r.representative
        assert list(r.conjugates) == sorted(r.conjugates, key=sorted)
        assert T.element_set() == r.conjugates[0]
        assert set(closure(list(T.generators), G.degree)) == T.element_set()


def test_abelian_invariants():
    assert abelian_invariants(cyclic(6)) == (6,)
    assert abelian_invariants(klein_four()) == (2, 2)
    assert abelian_invariants(direct_product(cyclic(2), cyclic(4))) == (2, 4)
    assert abelian_invariants(direct_product(cyclic(3), cyclic(3))) == (3, 3)
    assert abelian_invariants(cyclic(12)) == (12,)


def test_iso_labels():
    assert iso_label(quaternion8()) == "Q8"
    assert iso_label(dihedral(4)) == "D4"
    assert iso_label(symmetric(3)) == "S3"
    assert iso_label(cyclic(1)) == "1"
    f20 = elements([parse_cycles("(1 2 3 4 5)", 5), parse_cycles("(2 3 5 4)", 5)], 5)
    assert iso_label(f20) == "order-20 unidentified"


def test_composition_series_group(a6, s6):
    assert composition_series_group(s6) == ["A6", "Z2"]
    assert composition_series_group(cyclic(4)) == ["Z2", "Z2"]
    assert composition_series_group(a6) == ["A6"]
    assert composition_series_group(symmetric(4)) == ["Z2", "Z2", "Z2", "Z3"]


def test_composition_series_chain_independent():
    # classical Jordan-Hoelder at small orders: every maximal chain agrees
    for G in [symmetric(4), dihedral(6), quaternion8(), cyclic(12),
              direct_product(cyclic(2), cyclic(4)), symmetric(3),
              klein_four(), dihedral(5)]:
        assert len(all_composition_factor_multisets(G)) == 1


def test_normal_subgroups_and_simplicity(a6, s6):
    assert [N.order for N in normal_subgroups(symmetric(4))] == [1, 4, 12, 24]
    assert [N.order for N in normal_subgroups(s6)] == [1, 360, 720]
    assert is_simple(a6)
    assert not is_simple(s6)


def _normal_reference(G):
    """Oracle: the subgroup classes of G with exactly one conjugate."""
    return sorted((r.conjugates[0] for r in subgroup_classes(G) if len(r.conjugates) == 1),
                  key=lambda s: (len(s), sorted(s)))


def test_normal_subgroups_and_simplicity_against_subgroup_classes(a6, s6):
    s3, s4 = symmetric(3), symmetric(4)
    for G in (s3, s4, symmetric(5), alternating(4), alternating(5), a6, s6, dihedral(6),
              quaternion8(), direct_product(s3, s3), direct_product(s4, cyclic(2)),
              direct_product(alternating(4), cyclic(3))):
        reference = _normal_reference(G)
        assert [N.element_set() for N in normal_subgroups(G)] == reference, G
        assert is_simple(G) == (len(reference) == 2), G


def test_simplicity_above_the_subgroup_cap():
    # orders 2520 and 5040, where subgroup_classes refuses to run
    assert alternating(7).order > groups.SUBGROUP_CAP
    assert is_simple(alternating(7))
    assert not is_simple(symmetric(7))


def test_quotient_group():
    s4 = symmetric(4)
    v4 = s4.subgroup([parse_cycles("(1 2)(3 4)", 4), parse_cycles("(1 3)(2 4)", 4)])
    Q, _ = quotient_group(s4, v4)
    assert Q.order == 6 and iso_label(Q) == "S3"


@pytest.mark.parametrize("name", ["s3", "s4", "d6", "q8", "a4", "s5"])
def test_quotient_projection_is_onto_with_kernel_n(name):
    G = named_group(name)
    for N in normal_subgroups(G):
        Q, proj = quotient_group(G, N)
        assert all(proj[compose(a, b)] == compose(proj[a], proj[b])
                   for a in G.elements for b in G.elements)
        assert set(proj.values()) == set(Q.elements)
        assert {g for g in G.elements if proj[g] == Q.identity()} == set(N.elements)
        assert Q.generators == tuple(proj[g] for g in G.generators)


def test_exact_factorizations_a6_empty(a6):
    assert exact_factorizations(a6, proper_only=True) == []


def test_exact_factorizations_s6(s6):
    facts = exact_factorizations(s6)
    labels = sorted(f.labels() for f in facts)
    assert ("A6", "Z2") in labels
    assert ("S5", "Z6") in labels
    for f in facts:
        assert f.verify()


def test_exact_factorizations_a5(a5):
    facts = exact_factorizations(a5)
    assert [f.labels() for f in facts] == [("A4", "Z5")]
    assert facts[0].verify()


def test_exact_factorization_chain_pieces():
    assert ("S4", "Z5") in [f.labels() for f in exact_factorizations(symmetric(5))]
    assert ("S3", "Z4") in [f.labels() for f in exact_factorizations(symmetric(4))]
    assert [f.labels() for f in exact_factorizations(symmetric(3))] == [("Z3", "Z2")]
    assert [f.labels() for f in exact_factorizations(cyclic(6))] == [("Z3", "Z2")]


def test_exact_factorization_bijection_property(a5):
    for f in exact_factorizations(a5, proper_only=False):
        seen = {compose(a, b) for a in f.left.elements for b in f.right.elements}
        assert len(seen) == a5.order


def test_named_group():
    assert named_group("a6").order == 360
    assert named_group("z2xz4").order == 8
    assert named_group("v4").order == 4
    assert named_group("q8").order == 8
    with pytest.raises(Exception):
        named_group("nosuch")


def test_named_group_past_its_cap_is_refused_unbuilt(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a perm was built")

    monkeypatch.setattr(groups, "closure", refuse)
    for name in ("z20000", "d10001", "s20000", "a99999999999", "z200xz200", "z2xz20000"):
        with pytest.raises(CapExceeded, match="^group order exceeds cap 10000$"):
            named_group(name)
    with pytest.raises(CapExceeded, match="^group order exceeds cap 100$"):
        named_group("s5", cap=100)


def test_subgroup_cap():
    with pytest.raises(CapExceeded):
        subgroup_classes(symmetric(6), cap=100)


def test_order_histograms_fingerprint_types():
    g18 = elements([parse_cycles(s, 6) for s in ("(1 2 3)", "(4 5 6)", "(1 2)(4 5)")], 6)
    assert iso_label(g18) == "(Z3xZ3):Z2"
    g36 = elements([parse_cycles(s, 6) for s in
                    ("(1 2 3)", "(4 5 6)", "(2 3)(5 6)", "(1 4)(2 5 3 6)")], 6)
    assert g36.order == 36
    assert iso_label(g36) == "(Z3xZ3):Z4"
    assert perm_order(parse_cycles("(1 4)(2 5 3 6)", 6)) == 4


def _all_references_table() -> dict:
    """Fingerprint -> name over all 19 reference groups at once: the table
    iso_label read before its references were built per order."""
    refs = [dihedral(n) for n in range(3, 13)]
    refs += [symmetric(n) for n in (4, 5, 6)] + [alternating(n) for n in (4, 5, 6)]
    refs.append(quaternion8())
    e9 = [(1, 2, 0, 3, 4, 5), (0, 1, 2, 4, 5, 3)]
    refs.append(PermGroup(6, e9 + [(1, 0, 2, 4, 3, 5)], name="(Z3xZ3):Z2"))
    refs.append(PermGroup(6, e9 + [(0, 2, 1, 3, 5, 4), (3, 4, 5, 0, 2, 1)],
                          name="(Z3xZ3):Z4"))
    table = {}
    for R in refs:
        table[groups._fingerprint(R)] = "S3" if R.name == "D3" else R.name
    assert len(table) == 19
    return table


def _old_label(G, table) -> str:
    if G.order == 1:
        return "1"
    if G.is_abelian():
        return "x".join(f"Z{d}" for d in abelian_invariants(G))
    return table.get(groups._fingerprint(G), f"order-{G.order} unidentified")


def _record_fingerprints(monkeypatch) -> list:
    """Every group fingerprinted from now on, appended to the list returned."""
    seen = []
    fingerprint = groups._fingerprint

    def recording(G):
        seen.append(G)
        return fingerprint(G)

    monkeypatch.setattr(groups, "_fingerprint", recording)
    return seen


def test_labels_match_the_table_of_all_references(monkeypatch, a6, s6):
    table = _all_references_table()
    s6_rows, a6_rows = subgroup_classes(s6), subgroup_classes(a6)
    assert (len(s6_rows), len(a6_rows)) == (56, 22)
    for row in s6_rows + a6_rows:
        assert row.iso_label == _old_label(row.representative, table)
    g18 = elements([parse_cycles(s, 6) for s in ("(1 2 3)", "(4 5 6)", "(1 2)(4 5)")], 6)
    g36 = elements([parse_cycles(s, 6) for s in
                    ("(1 2 3)", "(4 5 6)", "(2 3)(5 6)", "(1 4)(2 5 3 6)")], 6)
    for G in (g18, g36):
        assert iso_label(G) == _old_label(G, table)

    # every nonabelian group the Hopf composition series label, as the
    # library benchmark job runs them
    labelled = _record_fingerprints(monkeypatch)
    d = drinfeld_double(symmetric(3))
    composition_series_hopf(d)
    composition_series_hopf(d, chooser=lambda cands: list(reversed(cands)))
    all_hopf_series_multisets(group_algebra(dihedral(6)))
    all_hopf_series_multisets(dual_group_algebra(alternating(4)))
    monkeypatch.undo()
    assert {G.order for G in labelled} >= {6, 12}
    for G in labelled:
        assert iso_label(G) == _old_label(G, table)


def test_reference_list_declares_each_order():
    assert len(groups._REFERENCES) == 19
    for order, build in groups._REFERENCES:
        assert build().order == order
    # each order's table builds without a collision and keeps every name
    orders = {order for order, _ in groups._REFERENCES}
    assert sum(len(groups._reference_fingerprints(n)) for n in orders) == 19


def _pgl25():
    """PGL(2,5): S5 acting on the 6 points of the projective line over F5."""
    return elements([parse_cycles(s, 6) for s in ("(1 2 3 4 5)", "(2 3 5 4)", "(1 6)(2 5)")], 6)


def test_label_builds_own_order_once_per_group(monkeypatch):
    seen = _record_fingerprints(monkeypatch)
    groups._reference_fingerprints.cache_clear()
    # S5 on 6 points, so the moved-points rule does not name it
    G = _pgl25()
    assert iso_label(G) == "S5"
    assert seen and {R.order for R in seen} == {120}
    seen.clear()
    assert iso_label(G) == "S5"
    G.name = "renamed"
    assert iso_label(G) == "S5"
    assert seen == []
    # S5 on its own 5 points is named by the rule: nothing is fingerprinted
    assert iso_label(symmetric(5)) == "S5"
    assert seen == []


def _moved_off(points: list[int], degree: int) -> PermGroup:
    """The symmetric group on these points, by a full cycle and a transposition."""
    cycle = " ".join(str(p) for p in points)
    return elements([parse_cycles(f"({cycle})", degree),
                     parse_cycles(f"({points[0]} {points[1]})", degree)], degree)


def _regular(G: PermGroup) -> PermGroup:
    """G acting on its own elements by multiplication."""
    index = G.element_index()
    gens = [tuple(index[compose(g, x)] for x in G.elements) for g in G.generators]
    return elements(gens, G.order)


def test_moved_points_rule_agrees_with_the_table_of_all_references(s6, a6):
    table = _all_references_table()
    rule = groups._symmetric_or_alternating
    cases = [row.representative
             for G in (symmetric(3), symmetric(4), symmetric(5), s6,
                       alternating(4), alternating(5), a6)
             for row in subgroup_classes(G)]
    cases += [_moved_off(list(range(2, n + 2)), n + 1) for n in (4, 5, 6)]
    cases.append(_moved_off([1, 3, 4, 6, 8], 9))
    named = set()
    for G in cases:
        assert iso_label(G) == _old_label(G, table)
        if not G.is_abelian() and rule(G) is not None:
            assert rule(G) == _old_label(G, table)
            named.add(rule(G))
    assert named == {"S3", "S4", "S5", "S6", "A4", "A5", "A6"}
    assert groups.moved_points(cases[-1]) == [0, 2, 3, 5, 7]

    # S4 as the rotations of a cube on its 6 faces, S3 on itself and F20
    cube = elements([parse_cycles(s, 6) for s in ("(1 2 3 4)", "(1 5 3 6)")], 6)
    f20 = elements([parse_cycles(s, 5) for s in ("(1 2 3 4 5)", "(2 3 5 4)")], 5)
    for G, order, label in ((_pgl25(), 120, "S5"), (cube, 24, "S4"),
                            (_regular(symmetric(3)), 6, "S3"),
                            (f20, 20, "order-20 unidentified")):
        assert G.order == order and rule(G) is None
        assert iso_label(G) == _old_label(G, table) == label


def test_miller_rabin_agrees_with_trial_division():
    # every n below 10**5, n <= 1, Carmichael 561 and strong pseudoprimes to
    # the first few prime bases (2047 to base 2, 3215031751 to 2..7,
    # 3474749660383 to 2..13, 341550071728321 to 2..17)
    cases = [*range(-3, 10 ** 5), 561, 2047, 3215031751, 3474749660383, 341550071728321]
    assert [n for n in cases if is_prime(n) != (prime_factors(n) == [n])] == []
    assert not any(map(is_prime, cases[-5:]))
    # beyond what trial division finishes, still below MR_BOUND
    assert is_prime(999999999989) and is_prime(10 ** 18 + 3) and is_prime(2 ** 61 - 1)
    assert 1000003 * (2 ** 61 - 1) < groups.MR_BOUND
    assert not is_prime(1000003 * (2 ** 61 - 1))


def test_is_prime_refuses_from_mr_bound_on():
    n = (2 ** 31 - 1) * (2 ** 61 - 1)
    assert n >= groups.MR_BOUND
    with pytest.raises(CapExceeded):
        is_prime(n)
    # a base that divides n still decides it
    assert not is_prime(2 * groups.MR_BOUND)
