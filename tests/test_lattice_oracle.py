"""The subgroup lattice and the factorization search against their old loops.

The engine decides each conjugation test on generators: a normalizer row
maps the generators of a subgroup into it, the N(rep)-orbit of a cyclic
subgroup <x> is read from the positions of the <n x n^-1>, and the swap
dedupe of ``exact_factorizations`` conjugates generators only.  The
reference below is the loop those tests replaced, which conjugates every
element of a subgroup and forms one frozenset per conjugate.  Both must give
the same classes, in the same order, with the same generators and orbits,
and the same factorizations.
"""

import random

import pytest

from hopfseq import groups
from hopfseq.groups import (
    CapExceeded,
    ExactFactorizationG,
    GroupError,
    PermGroup,
    _cayley,
    _join,
    _subgroup_lattice,
    abelian_group,
    alternating,
    dihedral,
    exact_factorizations,
    from_elements,
    quaternion8,
    symmetric,
    walk,
)
from hopfseq.perm import parse_cycles


def _whole_normalizer(cay, sub):
    return [row for row in cay.conj if all(row[x] in sub for x in sub)]


def reference_lattice(G):
    cay = _cayley(G)
    mul, conj = cay.mul, cay.conj
    gen_conj = [conj[s] for s in cay.gens]

    cyclic_gen = {}
    for x in range(1, G.order):
        row = mul[x]
        powers = [0, x]
        y = row[x]
        while y:
            powers.append(y)
            y = row[y]
        cyclic_gen.setdefault(frozenset(powers), x)
    cyclics = sorted(cyclic_gen.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))

    known = {}
    classes = []

    def register(sub, gens):
        orbit = walk(sub, gen_conj, lambda member, row: frozenset([row[x] for x in member]))
        orbit_sorted = sorted([y for y, _, _ in orbit], key=sorted)
        rep = orbit_sorted[0]
        rep_gens = gens
        if rep != sub:
            row = next(row for row in conj if all(row[x] in rep for x in sub))
            rep_gens = tuple(row[x] for x in gens)
        cid = len(classes)
        classes.append((rep, rep_gens, orbit_sorted))
        for member in orbit_sorted:
            known[member] = cid

    register(frozenset([0]), ())
    for sub, gen in cyclics:
        if sub not in known:
            register(sub, (gen,))

    position = {sub: pos for pos, (sub, _gen) in enumerate(cyclics)}
    idx = 0
    while idx < len(classes):
        rep, rep_gens, _orbit = classes[idx]
        idx += 1
        if len(rep) == G.order:
            continue
        normalizer = _whole_normalizer(cay, rep)
        tried = bytearray(len(cyclics))
        for pos, (sub, gen) in enumerate(cyclics):
            if tried[pos] or sub <= rep:
                continue
            for row in normalizer:
                tried[position[frozenset([row[x] for x in sub])]] = 1
            join = _join(mul, rep, rep_gens + (gen,))
            if join not in known:
                register(join, rep_gens + (gen,))

    elems = G.elements
    return tuple((cay.perms(rep), tuple(elems[i] for i in gens),
                  tuple(cay.perms(member) for member in orbit))
                 for rep, gens, orbit in classes)


def reference_factorizations(G, proper_only=True):
    lattice = reference_lattice(G)
    cay = _cayley(G)
    by_order = {}
    for i, (rep, _gens, _orbit) in enumerate(lattice):
        by_order.setdefault(len(rep), []).append(i)

    results = []
    for repA, gensA, _orbitA in lattice:
        a = len(repA)
        if G.order % a:
            continue
        b = G.order // a
        if a < b or (proper_only and b == 1):
            continue
        normA = _whole_normalizer(cay, cay.indices(repA))
        for j in by_order.get(b, []):
            found = set()
            for candB in lattice[j][2]:
                if len(repA & candB) != 1:
                    continue
                idxB = cay.indices(candB)
                if any(frozenset([row[x] for x in idxB]) in found for row in normA):
                    continue
                found.add(idxB)
                fact = ExactFactorizationG(
                    ambient=G,
                    left=PermGroup(G.degree, list(gensA), _elements=tuple(sorted(repA))),
                    right=from_elements(G.degree, candB),
                )
                if not fact.verify():
                    raise GroupError("reference: factorization candidate failed verification")
                results.append(fact)

    deduped = []
    for fact in results:
        dup = False
        for prev in deduped:
            if (prev.left.order, prev.right.order) != (fact.right.order, fact.left.order):
                continue
            fa, fb = cay.indices(fact.left.elements), cay.indices(fact.right.elements)
            pa, pb = cay.indices(prev.left.elements), cay.indices(prev.right.elements)
            if any(all(row[x] in pb for x in fa) and all(row[x] in pa for x in fb)
                   for row in cay.conj):
                dup = True
                break
        if not dup:
            deduped.append(fact)
    deduped.sort(key=lambda f: (-f.left.order, f.labels()))
    return deduped


def _group(degree, *cycle_strings):
    return PermGroup(degree, [parse_cycles(c, degree) for c in cycle_strings])


def _random_s5(seed):
    """A random generating pair of S5, drawn as the benchmark draws its
    factorize input: two random point maps of 5 points, redrawn until they
    generate a group of order 120."""
    rng = random.Random(f"lattice:{seed}")
    while True:
        gens = [tuple(rng.sample(range(5), 5)) for _ in range(2)]
        G = PermGroup(5, gens)
        if G.order == 120:
            return G


GROUPS = {
    "S3": lambda: symmetric(3),
    "S4": lambda: symmetric(4),
    "S5": lambda: symmetric(5),
    "A5": lambda: alternating(5),
    "A6": lambda: alternating(6),
    "D6": lambda: dihedral(6),
    "D8": lambda: dihedral(8),
    "Q8": quaternion8,
    "Z2xZ4": lambda: abelian_group([2, 4]),
    "Z2^4": lambda: abelian_group([2, 2, 2, 2]),
    "Z3^3": lambda: abelian_group([3, 3, 3]),
    # S4 on the six edges of a tetrahedron
    "S4 on 6 points": lambda: _group(6, "(1 4 6 3)(2 5)", "(2 4)(3 5)"),
    # S5 on the projective line over F5
    "PGL(2,5)": lambda: _group(6, "(1 2 3 4 5)", "(2 3 5 4)", "(1 6)(2 5)"),
    **{f"random S5, seed {seed}": (lambda seed=seed: _random_s5(seed)) for seed in range(1, 6)},
}


def _pairs(facts):
    return [(f.left.elements, f.left.generators, f.right.elements, f.right.generators)
            for f in facts]


def _check_against_reference(G):
    assert _subgroup_lattice.__wrapped__(G) == reference_lattice(G)
    for proper_only in (True, False):
        assert (_pairs(exact_factorizations(G, proper_only=proper_only))
                == _pairs(reference_factorizations(G, proper_only=proper_only)))


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_lattice_and_factorizations_match_the_reference(name):
    G = GROUPS[name]()
    assert G.order == {"S4 on 6 points": 24, "PGL(2,5)": 120}.get(name, G.order)
    _check_against_reference(G)


@pytest.mark.slow
def test_s6_matches_the_reference():
    # the slowest case: 56 classes, 1455 subgroups
    _check_against_reference(symmetric(6))


def test_lattice_work_is_counted_per_class_and_cyclic_subgroup(monkeypatch):
    # S4 has 11 classes of subgroups and 16 nontrivial cyclic subgroups
    lattice = _subgroup_lattice.__wrapped__
    monkeypatch.setattr(groups, "LATTICE_WORK_CAP", 11 * 16)
    assert len(lattice(symmetric(4))) == 11
    monkeypatch.setattr(groups, "LATTICE_WORK_CAP", 11 * 16 - 1)
    with pytest.raises(CapExceeded, match="subgroup lattice work exceeds cap 175"):
        lattice(symmetric(4))


def test_factorizations_found_are_capped(monkeypatch):
    # each factorization found is verified once, before the swap dedupe
    verify = ExactFactorizationG.verify
    calls = []
    monkeypatch.setattr(ExactFactorizationG, "verify",
                        lambda self: calls.append(1) or verify(self))
    G = abelian_group([2, 2])
    want = _pairs(exact_factorizations(G, proper_only=False))
    found = len(calls)
    assert found > len(want)  # equal-order pairs were dropped as swaps
    monkeypatch.setattr(groups, "FACTORIZATION_CAP", found)
    assert _pairs(exact_factorizations(G, proper_only=False)) == want
    monkeypatch.setattr(groups, "FACTORIZATION_CAP", found - 1)
    with pytest.raises(CapExceeded, match=f"exact factorizations exceed cap {found - 1}"):
        exact_factorizations(G, proper_only=False)
