"""Flat-file formats: group files, matched-pair dumps, Hopf dumps.

All loaders are strict and report the line they fail on; every format
round-trips bit-exactly (load(dump(x)) == x structurally, and dumping
again reproduces the same bytes).
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction

from .cyclotomic import get_field
from .groups import ORDER_CAP, PermGroup
from .hopf import HopfAlgebra, check_conductor, verify_work
from .linalg import add_term
from .matched import MatchedPair
from .perm import PermParseError, cycle_string, parse_cycles


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# ---------------------------------------------------------------------------
# group files


def dump_group(G: PermGroup) -> str:
    lines = [f"degree {G.degree}"]
    lines += [cycle_string(g) for g in G.generators]
    return "\n".join(lines) + "\n"


def load_group(text: str, name: str = "", cap: int = ORDER_CAP) -> PermGroup:
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [(i + 1, ln) for i, ln in enumerate(lines) if ln and not ln.startswith("#")]
    if not lines:
        raise FormatError("empty group file")
    lno, head = lines[0]
    parts = head.split()
    if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdigit():
        raise FormatError(f"expected 'degree n', got {head!r}", lno)
    degree = int(parts[1])
    gens = []
    for lno, ln in lines[1:]:
        try:
            gens.append(parse_cycles(ln, degree))
        except PermParseError as exc:
            raise FormatError(str(exc), lno) from exc
    return PermGroup(degree, gens, name=name, cap=cap)


# ---------------------------------------------------------------------------
# matched pair dumps


def dump_matched_pair(mp: MatchedPair) -> str:
    out = ["[G]", dump_group(mp.G).rstrip(), "[GAMMA]", dump_group(mp.Gamma).rstrip()]
    gx, gam = mp.G.element_index(), mp.Gamma.element_index()
    out.append("[TRIANGLE_LEFT]")
    for s in mp.Gamma.elements:
        out.append(" ".join(str(gx[mp.rtri(s, x)]) for x in mp.G.elements))
    out.append("[TRIANGLE_RIGHT]")
    for s in mp.Gamma.elements:
        out.append(" ".join(str(gam[mp.ltri(s, x)]) for x in mp.G.elements))
    return "\n".join(out) + "\n"


def load_matched_pair(text: str) -> MatchedPair:
    sections: dict[str, list[tuple[int, str]]] = {}
    current = None
    for i, ln in enumerate(text.splitlines(), start=1):
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        if ln.startswith("[") and ln.endswith("]"):
            current = ln[1:-1]
            sections[current] = []
            continue
        if current is None:
            raise FormatError("content before any section header", i)
        sections[current].append((i, ln))
    for needed in ("G", "GAMMA", "TRIANGLE_LEFT", "TRIANGLE_RIGHT"):
        if needed not in sections:
            raise FormatError(f"missing section [{needed}]")
    G = load_group("\n".join(ln for _, ln in sections["G"]))
    Gamma = load_group("\n".join(ln for _, ln in sections["GAMMA"]))
    left = {}
    right = {}
    for section, table, codomain in (("TRIANGLE_LEFT", left, G.elements),
                                     ("TRIANGLE_RIGHT", right, Gamma.elements)):
        rows = sections[section]
        if len(rows) != Gamma.order:
            raise FormatError(f"[{section}] needs {Gamma.order} rows", rows[0][0] if rows else None)
        for s, (lno, ln) in zip(Gamma.elements, rows):
            cells = ln.split()
            if len(cells) != G.order:
                raise FormatError(f"row needs {G.order} entries", lno)
            for x, cell in zip(G.elements, cells):
                try:
                    table[(s, x)] = codomain[int(cell)]
                except (ValueError, IndexError) as exc:
                    raise FormatError(f"bad index {cell!r}", lno) from exc
    return MatchedPair(G=G, Gamma=Gamma, left_action=left, right_action=right)


# ---------------------------------------------------------------------------
# Hopf dumps


def _coords_str(scalar) -> str:
    return " ".join(str(c) for c in scalar.coords)


def dump_hopf(H: HopfAlgebra) -> str:
    out = ["HOPF v1", f"DIM {H.dim}", f"CONDUCTOR {H.field.conductor}", "BASIS"]
    for i, lab in enumerate(H.basis_labels):
        out.append(f"{i} {lab}")
    out.append("MULT")
    for i, row in enumerate(H.mult):
        for j, cell in row.items():
            for k, c in cell.items():
                out.append(f"{i} {j} : {k} : {_coords_str(c)}")
    out.append("COMULT")
    for i in range(H.dim):
        for j, k, c in H.comult[i]:
            out.append(f"{i} : {j} {k} : {_coords_str(c)}")
    out.append("UNIT")
    for i in sorted(H.unit):
        out.append(f"{i} : {_coords_str(H.unit[i])}")
    out.append("COUNIT")
    for i, c in enumerate(H.counit):
        if not c.is_zero():
            out.append(f"{i} : {_coords_str(c)}")
    out.append("ANTIPODE")
    for j in range(H.dim):
        for i in sorted(H.antipode[j]):
            out.append(f"{j} : {i} : {_coords_str(H.antipode[j][i])}")
    out.append("END")
    return "\n".join(out) + "\n"


_SECTIONS = ("BASIS", "MULT", "COMULT", "UNIT", "COUNIT", "ANTIPODE")


def read_hopf_header(lines) -> tuple[int, int, int]:
    """DIM, CONDUCTOR and the header's line count of a Hopf dump.

    Reads no further than the first section name, so a caller can check
    the dimension of a dump before its tensors are parsed.  A conductor
    below 1 is a FormatError, one above hopf.CONDUCTOR_CAP a HopfError.
    """
    it = iter(lines)
    if next(it, "").strip() != "HOPF v1":
        raise FormatError("missing 'HOPF v1' header", 1)
    header: dict[str, int] = {}
    idx = 1
    for ln in it:
        ln = ln.strip()
        if ln in _SECTIONS:
            break
        key, _, value = ln.partition(" ")
        if key in ("DIM", "CONDUCTOR") and value.strip().isdigit():
            header[key] = int(value)
        elif ln:
            raise FormatError(f"unexpected header line {ln!r}", idx + 1)
        idx += 1
    if len(header) != 2:
        raise FormatError("missing DIM or CONDUCTOR header")
    if header["CONDUCTOR"] < 1:
        raise FormatError("CONDUCTOR must be at least 1")
    check_conductor(header["CONDUCTOR"])
    return header["DIM"], header["CONDUCTOR"], idx


def dump_work(lines, dim: int, start: int) -> int:
    """hopf.verify_work of a dump, from the indices of its MULT and COMULT
    lines alone (lines[start:] are the sections), so that a caller can
    refuse it before the scalars are parsed.  A line whose indices do not
    read is skipped; load_hopf reports it."""
    rows: Counter = Counter()    # i of 'i j : k : c'
    deltas: Counter = Counter()  # i of 'i : j k : c'
    firsts: Counter = Counter()  # j of 'i : j k : c'
    current = None
    for ln in lines[start:]:
        ln = ln.strip()
        if ln in _SECTIONS or ln == "END":
            current = ln
            continue
        try:
            if current == "MULT":
                rows[int(ln.split(None, 1)[0])] += 1
            elif current == "COMULT":
                i, j = ln.split(":", 2)[:2]
                deltas[int(i)] += 1
                firsts[int(j.split(None, 1)[0])] += 1
        except (ValueError, IndexError):
            continue
    return verify_work(dim, sum(rows.values()), max(rows.values(), default=0),
                       sum(deltas.values()), max(deltas.values(), default=0),
                       max(firsts.values(), default=0))


def load_hopf(text: str) -> HopfAlgebra:
    lines = text.splitlines()
    dim, conductor, idx = read_hopf_header(lines)
    field = get_field(conductor)

    chunks: dict[str, list[tuple[int, str]]] = {}
    current = None
    saw_end = False
    for lno in range(idx, len(lines)):
        ln = lines[lno].strip()
        if not ln:
            continue
        if ln == "END":
            saw_end = True
            break
        if ln in _SECTIONS:
            current = ln
            chunks[current] = []
            continue
        if current is None:
            raise FormatError(f"content outside any section: {ln!r}", lno + 1)
        chunks[current].append((lno + 1, ln))
    if not saw_end:
        raise FormatError("missing END marker")
    for needed in _SECTIONS:
        if needed not in chunks:
            raise FormatError(f"missing section {needed}")

    def scalar(tokens, lno):
        coords = []
        for tok in tokens:
            try:
                coords.append(Fraction(tok))
            except ValueError as exc:
                raise FormatError(f"bad rational {tok!r}", lno) from exc
        if len(coords) != field.degree:
            raise FormatError(
                f"need {field.degree} coordinates, got {len(coords)}", lno)
        return field.scalar(coords)

    def index(tok: str, section: str, lno: int) -> int:
        try:
            i = int(tok)
        except ValueError:
            raise FormatError(f"bad {section} index {tok!r}", lno) from None
        if not 0 <= i < dim:
            raise FormatError(f"{section} index {i} out of range", lno)
        return i

    def entry(section: str, shape: tuple, lno: int, ln: str):
        """The indices and the scalar of an 'i j : k : coords' line, whose
        ':'-separated index groups have the lengths in shape."""
        *heads, cpart = ln.split(":")
        groups = [head.split() for head in heads]
        if [len(g) for g in groups] != list(shape):
            raise FormatError(f"malformed {section} entry", lno)
        idx = [index(tok, section, lno) for g in groups for tok in g]
        return idx, scalar(cpart.split(), lno)

    labels = [""] * dim
    for lno, ln in chunks["BASIS"]:
        i_str, _, lab = ln.partition(" ")
        labels[index(i_str, "basis", lno)] = lab

    mult: list[dict] = [{} for _ in range(dim)]
    for lno, ln in chunks["MULT"]:  # repeated 'i j : k' lines are summed
        (i, j, k), c = entry("MULT", (2, 1), lno, ln)
        add_term(mult[i].setdefault(j, {}), k, c)

    comult_terms: dict[int, list] = {}
    for lno, ln in chunks["COMULT"]:
        (i, j, k), c = entry("COMULT", (1, 2), lno, ln)
        comult_terms.setdefault(i, []).append((j, k, c))
    comult = tuple(tuple(comult_terms.get(i, ())) for i in range(dim))

    unit = {}
    for lno, ln in chunks["UNIT"]:
        (i,), c = entry("UNIT", (1,), lno, ln)
        unit[i] = c
    counit = [field.zero] * dim
    for lno, ln in chunks["COUNIT"]:
        (i,), c = entry("COUNIT", (1,), lno, ln)
        counit[i] = c
    antipode = [dict() for _ in range(dim)]
    for lno, ln in chunks["ANTIPODE"]:
        (j, i), c = entry("ANTIPODE", (1, 1), lno, ln)
        antipode[j][i] = c
    return HopfAlgebra(field, labels, mult, unit, comult, tuple(counit),
                       tuple(antipode))
