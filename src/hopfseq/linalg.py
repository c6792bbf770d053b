"""Sparse exact linear algebra over a cyclotomic field.

Vectors are dicts mapping basis keys (ints, or index tuples for tensor
spaces) to nonzero scalars.  All elimination runs through one class,
Echelon, which keeps its rows in reduced echelon form (pivot coefficient
1, no pivot key in any other row); no tolerances anywhere.

Kernels come from the transposed system: nullspace_of_map eliminates one
equation per output key over the unknowns and reads the kernel off the
free columns.  Coordinates are read at the pivots: a member of the span is
the sum of its entries at the pivot keys times their rows.

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
    """A subspace kept as a reduced echelon basis (pivot coefficient 1, no
    pivot key in any other row)."""

    def __init__(self):
        self.rows: dict = {}       # pivot key -> row Vec

    def reduce(self, v: Vec) -> Vec:
        """v less its part in the span."""
        # the basis is fully reduced, so eliminating a pivot never introduces
        # another pivot key: one pass over the original support suffices
        v = dict(v)
        for k in sorted(v):
            if k in v:
                row = self.rows.get(k)
                if row is not None:
                    v = vec_sub_scaled(v, row, v[k])
        return v

    def add(self, v: Vec) -> bool:
        """Insert a vector; True if it enlarged the span."""
        v = self.reduce(v)
        if not v:
            return False
        pivot = min(v)
        inv = v[pivot].inverse()
        v = {k: inv * a for k, a in v.items()}
        # keep the basis fully reduced
        for p, row in list(self.rows.items()):
            if pivot in row:
                self.rows[p] = vec_sub_scaled(row, v, row[pivot])
        self.rows[pivot] = v
        return True

    def coords(self, v: Vec):
        """v as {pivot key: coefficient of that row}, or None if outside.
        The basis is reduced, so these are v's entries at the pivot keys."""
        if self.reduce(v):
            return None
        return {k: c for k, c in v.items() if k in self.rows}

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


def echelon_span(vectors) -> Echelon:
    ech = Echelon()
    for v in vectors:
        ech.add(v)
    return ech


def rank_of_columns(cols) -> int:
    return echelon_span(cols).rank


def subspace_equal(vs1, vs2) -> bool:
    return echelon_span(vs1).canonical() == echelon_span(vs2).canonical()


def nullspace_of_map(images: list[Vec], field: CycField) -> list[Vec]:
    """Kernel basis of the map e_j -> images[j], from the transposed system:
    one equation {j: images[j][k]} per output key k, eliminated over the
    unknowns j; each free column f gives e_f - sum_p row_p[f] e_p."""
    equations: dict = {}
    for j, img in enumerate(images):
        for k, c in img.items():
            if not c.is_zero():
                equations.setdefault(k, {})[j] = c
    ech = Echelon()
    for eq in equations.values():
        ech.add(eq)
        if ech.rank == len(images):
            return []
    kernel = {f: {f: field.one} for f in range(len(images)) if f not in ech.rows}
    for p, row in ech.rows.items():
        for f, c in row.items():   # a reduced row's keys past its pivot are free
            if f != p:
                kernel[f][p] = -c
    return list(kernel.values())


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
    ech = Echelon()
    for row, rhs in rows:
        eq = {k: v for k, v in row.items() if not v.is_zero()}
        if not rhs.is_zero():
            eq[rhs_key] = rhs
        ech.add(eq)
        if rhs_key in ech.rows:
            return None
    # rows are fully reduced; remaining off-pivot unknowns are free (= 0)
    return {var: row.get(rhs_key, field.zero) for var, row in ech.rows.items()}
