"""The kernel routine against the tagged eliminator it replaced.

``nullspace_of_map`` eliminates the transposed system, one equation per
output key, and reads the kernel off the free columns.  The reference below
is the eliminator it had before, kept verbatim: each vector added with a tag
carries its combination over the tags through every row operation, and a
tagged vector that reduces to zero is a kernel vector.  Both must give
kernels of the same dimension and span, on the seeded systems of
test_linalg and on every map whose kernel the exactness checks of the
``quotient:`` and ``double:`` sequences take.
"""

import pytest

from hopfseq import (
    drinfeld_double,
    dualize_sequence,
    hopf_kernel,
    make_abelian_sequence,
    make_group_quotient_sequence,
    quaternion8,
    symmetric,
    verify_exact_sequence,
)
from hopfseq import exact
from hopfseq.cyclotomic import CycField, CycScalar
from hopfseq.linalg import Vec, add_term, nullspace_of_map, subspace_equal, vec_sub_scaled
from hopfseq.perm import parse_cycles
from test_linalg import CASES, nullspace_system


def vec_scale(v: Vec, c: CycScalar) -> Vec:
    return {k: c * a for k, a in v.items()}


class TaggedEchelon:
    """A subspace kept as a reduced echelon basis (pivot coefficient 1).

    Each row also keeps the combination of tags that it is; an untagged
    vector counts as no combination, so tagged and untagged vectors are
    not mixed in a span whose coords are read.
    """

    def __init__(self, field: CycField):
        self.field = field
        self.rows: dict = {}       # pivot key -> row Vec
        self.combos: dict = {}     # pivot key -> combination over tags
        self.dependent: list = []  # combinations of tagged vectors that are 0

    def reduce(self, v: Vec, taken: Vec | None = None) -> Vec:
        """v less its part in the span; the rows taken off, as a combination
        over the tags, are added into ``taken`` when it is given."""
        # the basis is fully reduced, so eliminating a pivot never introduces
        # another pivot key: one pass over the original support suffices
        v = dict(v)
        for k in sorted(v):
            if k in v:
                row = self.rows.get(k)
                if row is not None:
                    c = v[k]
                    v = vec_sub_scaled(v, row, c)
                    if taken is not None:
                        for t, a in self.combos[k].items():
                            add_term(taken, t, c * a)
        return v

    def add(self, v: Vec, tag=None) -> bool:
        """Insert a vector; True if it enlarged the span."""
        taken: Vec = {}
        v = self.reduce(v, taken)
        one = self.field.one
        combo = vec_sub_scaled({} if tag is None else {tag: one}, taken, one)
        if not v:
            if tag is not None:
                self.dependent.append(combo)
            return False
        pivot = min(v)
        inv = v[pivot].inverse()
        v = vec_scale(v, inv)
        combo = vec_scale(combo, inv)
        # keep the basis fully reduced
        for p, row in list(self.rows.items()):
            if pivot in row:
                c = row[pivot]
                self.rows[p] = vec_sub_scaled(row, v, c)
                self.combos[p] = vec_sub_scaled(self.combos[p], combo, c)
        self.rows[pivot] = v
        self.combos[pivot] = combo
        return True

    def coords(self, v: Vec):
        """v as a combination over the tagged vectors, or None if outside."""
        taken: Vec = {}
        return None if self.reduce(v, taken) else taken


def tagged_nullspace_of_map(images: list[Vec], field: CycField) -> list[Vec]:
    """Kernel basis of the map e_j -> images[j]: the dependent tagged inserts."""
    ech = TaggedEchelon(field)
    for j, img in enumerate(images):
        ech.add(img, tag=j)
    return ech.dependent


def assert_same_kernel(images, field):
    new, old = nullspace_of_map(images, field), tagged_nullspace_of_map(images, field)
    assert len(new) == len(old)
    assert subspace_equal(new, old)


@pytest.mark.parametrize("conductor, seed", CASES)
def test_kernels_agree_on_the_seeded_systems(conductor, seed):
    field, _, images = nullspace_system(conductor, seed)
    assert_same_kernel(images, field)


def _sequences():
    s3, s4 = symmetric(3), symmetric(4)
    return {
        "quotient:s3:(1 2 3)": lambda: make_group_quotient_sequence(
            s3, s3.subgroup([parse_cycles("(1 2 3)", 3)])),
        "quotient:s4:(1 2)(3 4);(1 3)(2 4)": lambda: make_group_quotient_sequence(
            s4, s4.subgroup([parse_cycles(c, 4) for c in ("(1 2)(3 4)", "(1 3)(2 4)")])),
        "double:s3": lambda: make_abelian_sequence(drinfeld_double(s3)),
        "double:q8": lambda: make_abelian_sequence(drinfeld_double(quaternion8())),
    }


@pytest.mark.parametrize("name", sorted(_sequences()))
def test_kernels_agree_on_the_sequence_maps(name, monkeypatch):
    # every kernel that exactness takes, of the sequence and of its dual:
    # coinvariants, ker pi, the augmentation ideal behind H i(H')+ H, and
    # the Hopf kernel of pi
    maps = []

    def recorded(images, field):
        maps.append((images, field))
        return nullspace_of_map(images, field)

    monkeypatch.setattr(exact, "nullspace_of_map", recorded)
    seq = _sequences()[name]()
    for s in (seq, dualize_sequence(seq)):
        assert verify_exact_sequence(s)["exact"]
        hopf_kernel(s.pi)
    assert len(maps) == 2 * 4   # ker pi, augmentation, coinvariants, Hopf kernel
    for images, field in maps:
        assert_same_kernel(images, field)
