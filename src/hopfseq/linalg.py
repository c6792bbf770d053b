"""Sparse exact linear algebra over a cyclotomic field.

Vectors are dicts mapping basis keys (ints, or index tuples for tensor
spaces) to nonzero scalars.  All elimination runs through one class,
Echelon, which keeps its rows in reduced echelon form (pivot coefficient
1, no pivot key in any other row); no tolerances anywhere.

Tags: a vector added with a tag carries its combination over the tags
along with it.  Echelon.coords then writes a member of the span over the
tagged vectors, and a tagged vector that reduces to zero is a dependency
among them, kept in ``dependent``; nullspace_of_map is those dependencies.

The augmented column: solve_sparse_system eliminates each equation as one
vector over the unknowns plus a right-hand-side key that sorts after every
unknown, so a row whose pivot is that key is the contradiction 0 = rhs.
"""

from __future__ import annotations

from .cyclotomic import CycField, CycScalar

Vec = dict


def add_term(acc: dict, k, c: CycScalar) -> None:
    """acc[k] += c, exactly; an entry that sums to zero is dropped."""
    if k in acc:
        s = acc[k] + c
        if s.is_zero():
            del acc[k]
        else:
            acc[k] = s
    elif not c.is_zero():
        acc[k] = c


def transpose(rows, n: int) -> list[Vec]:
    """The n columns of a sequence of sparse rows: out[j][i] = rows[i][j]."""
    out: list[Vec] = [{} for _ in range(n)]
    for i, row in enumerate(rows):
        for j, c in row.items():
            out[j][i] = c
    return out


def vec_scale(v: Vec, c: CycScalar) -> Vec:
    return {k: c * a for k, a in v.items()}


def vec_sub_scaled(v: Vec, w: Vec, c: CycScalar) -> Vec:
    """v - c*w, dropping zeros."""
    out = dict(v)
    for k, a in w.items():
        ca = c * a
        if k in out:
            s = out[k] - ca
            if s.is_zero():
                del out[k]
            else:
                out[k] = s
        elif not ca.is_zero():
            out[k] = -ca
    return out


class Echelon:
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

    def contains(self, v: Vec) -> bool:
        return not self.reduce(v)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def basis(self) -> list[Vec]:
        return [self.rows[p] for p in sorted(self.rows)]

    def canonical(self) -> tuple:
        out = []
        for p in sorted(self.rows):
            row = self.rows[p]
            out.append(tuple(sorted((k, row[k]) for k in row)))
        return tuple(out)


def echelon_span(vectors, field: CycField) -> Echelon:
    ech = Echelon(field)
    for v in vectors:
        ech.add(v)
    return ech


def rank_of_columns(cols, field: CycField) -> int:
    return echelon_span(cols, field).rank


def subspace_equal(vs1, vs2, field: CycField) -> bool:
    return echelon_span(vs1, field).canonical() == echelon_span(vs2, field).canonical()


def nullspace_of_map(images: list[Vec], field: CycField) -> list[Vec]:
    """Kernel basis of the map e_j -> images[j]: the dependent tagged inserts."""
    ech = Echelon(field)
    for j, img in enumerate(images):
        ech.add(img, tag=j)
    return ech.dependent


class _Rhs:
    """The key of the augmented column; it sorts after every unknown."""

    def __lt__(self, other) -> bool:
        return False

    def __gt__(self, other) -> bool:
        return self is not other


def solve_sparse_system(rows, field: CycField):
    """Solve a sparse linear system given as (coeff row, rhs scalar) pairs.

    Returns an assignment dict (free variables set to zero) or None when
    the system is inconsistent.
    """
    rhs_key = _Rhs()
    ech = Echelon(field)
    for row, rhs in rows:
        eq = {k: v for k, v in row.items() if not v.is_zero()}
        if not rhs.is_zero():
            eq[rhs_key] = rhs
        ech.add(eq)
        if rhs_key in ech.rows:
            return None
    # rows are fully reduced; remaining off-pivot unknowns are free (= 0)
    return {var: row.get(rhs_key, field.zero) for var, row in ech.rows.items()}
