"""Flat-file formats: group files, matched-pair dumps, Hopf dumps.

All loaders are strict and report the line they fail on; every format
round-trips bit-exactly (load(dump(x)) == x structurally, and dumping
again reproduces the same bytes).  ``load_hopf`` is the one reader of Hopf
dumps: it refuses a dump whose verification work is above the cap
(hopf.check_work) from its indices alone, before it reads any scalar.

The Hopf and matched-pair readers import the modules they build with when
they are called, so reading a group file loads only groups and perm.
"""

from __future__ import annotations

import re
from collections import Counter

from .groups import ORDER_CAP, CapExceeded, PermGroup
from .perm import PermParseError, cycle_string, parse_cycles


class FormatError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line else message)


# ---------------------------------------------------------------------------
# group files

# The largest degree a group file may declare, checked before any perm is
# parsed.  The cost of a group grows as its degree times its order, which
# groups.ENTRY_CAP bounds: a file of one 10,000-cycle is refused once its
# closure holds 1,000 perms (about 1 s), where it took 17 s and 780 MB
# peak RSS without that cap.  Measured on 2 CPUs, Python 3.11.7.
DEGREE_CAP = 10_000


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
    if len(parts) != 2 or parts[0] != "degree" or not parts[1].isdecimal():
        raise FormatError(f"expected 'degree n', got {head!r}", lno)
    digits = parts[1].lstrip("0") or "0"
    # by length first: int() refuses more than 4300 digits
    if len(digits) > len(str(DEGREE_CAP)) or int(digits) > DEGREE_CAP:
        raise CapExceeded(f"degree exceeds cap {DEGREE_CAP}")
    degree = int(digits)
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
    out.append("[TRIANGLE_LEFT]")
    out += [" ".join(map(str, row)) for row in mp.lt]
    out.append("[TRIANGLE_RIGHT]")
    out += [" ".join(map(str, row)) for row in mp.rt]
    return "\n".join(out) + "\n"


def load_matched_pair(text: str) -> MatchedPair:
    from .matched import MatchedPair

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
    tables = []
    for section, order in (("TRIANGLE_LEFT", G.order), ("TRIANGLE_RIGHT", Gamma.order)):
        rows = sections[section]
        if len(rows) != Gamma.order:
            raise FormatError(f"[{section}] needs {Gamma.order} rows", rows[0][0] if rows else None)
        table = []
        for lno, ln in rows:
            cells = ln.split()
            if len(cells) != G.order:
                raise FormatError(f"row needs {G.order} entries", lno)
            row = []
            for cell in cells:
                digits = cell.lstrip("0") or "0"
                # by length first: int() refuses more than 4300 digits
                if not (cell.isdecimal() and len(digits) <= len(str(order)) and int(digits) < order):
                    raise FormatError(f"bad index {cell!r}", lno)
                row.append(int(digits))
            table.append(row)
        tables.append(table)
    return MatchedPair(G, Gamma, *tables)


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
# the lengths of the ':'-separated index groups of a line in each tensor
# section: 'i j : k : coords' in MULT, 'i : j k : coords' in COMULT, ...
_SHAPES = {"MULT": (2, 1), "COMULT": (1, 2), "UNIT": (1,), "COUNIT": (1,),
           "ANTIPODE": (1, 1)}
# the coordinate tokens that int() reads to the value Fraction() gives them:
# a sign and ASCII digits.  Every other token (1/2, 0.5, 1e3, 1_000, ...)
# goes to Fraction, so the accepted tokens and their values are Fraction's.
_INTEGER = re.compile(r"[+-]?[0-9]+")


def load_hopf(text: str) -> HopfAlgebra:
    """The Hopf algebra of a dump, read in one pass over its lines.

    The pass reads the header and every index, with range checks, and each
    section may appear once.  The verification work counted from the MULT
    and COMULT indices is then checked (hopf.check_work, a HopfCapExceeded
    above HOPF_WORK_CAP) before END and the sections are checked, the field
    is built or any scalar is read.  A CONDUCTOR below 1 is a FormatError,
    one above hopf.CONDUCTOR_CAP a HopfCapExceeded, both from the header.
    """
    from .cyclotomic import get_field
    from .hopf import HopfAlgebra, check_conductor, check_work, verify_work
    from .linalg import add_term

    lines = [ln.strip() for ln in text.splitlines()]
    if not lines or lines[0] != "HOPF v1":
        raise FormatError("missing 'HOPF v1' header", 1)
    header: dict[str, int] = {}
    start = 1
    while start < len(lines) and lines[start] not in _SECTIONS:
        key, _, value = lines[start].partition(" ")
        if key in ("DIM", "CONDUCTOR") and value.strip().isdigit():
            header[key] = int(value)
        elif lines[start]:
            raise FormatError(f"unexpected header line {lines[start]!r}", start + 1)
        start += 1
    if len(header) != 2:
        raise FormatError("missing DIM or CONDUCTOR header")
    dim, conductor = header["DIM"], header["CONDUCTOR"]
    if conductor < 1:
        raise FormatError("CONDUCTOR must be at least 1")
    check_conductor(conductor)

    def index(tok: str, section: str, lno: int) -> int:
        try:
            i = int(tok)
        except ValueError:
            raise FormatError(f"bad {section} index {tok!r}", lno) from None
        if not 0 <= i < dim:
            raise FormatError(f"{section} index {i} out of range", lno)
        return i

    # lines[start] is a section name, or there are no sections
    chunks: dict[str, list] = {}
    section, saw_end = "", False
    for lno, ln in enumerate(lines[start:], start=start + 1):
        if ln == "END":
            saw_end = True
            break
        if ln in _SECTIONS:
            if ln in chunks:  # a second header would drop the lines of the first
                raise FormatError(f"repeated section {ln}", lno)
            section = ln
            chunks[section] = []
        elif ln and section == "BASIS":
            i, _, label = ln.partition(" ")
            chunks[section].append((index(i, "basis", lno), label))
        elif ln:
            *heads, coords = ln.split(":")
            groups = [head.split() for head in heads]
            if tuple(map(len, groups)) != _SHAPES[section]:
                raise FormatError(f"malformed {section} entry", lno)
            chunks[section].append(
                (lno, [index(tok, section, lno) for g in groups for tok in g], coords.split()))

    mults, comults = chunks.get("MULT", []), chunks.get("COMULT", [])
    rows = Counter(idx[0] for _, idx, _ in mults)
    deltas = Counter(idx[0] for _, idx, _ in comults)
    firsts = Counter(idx[1] for _, idx, _ in comults)
    check_work(verify_work(dim, len(mults), max(rows.values(), default=0), len(comults),
                           max(deltas.values(), default=0), max(firsts.values(), default=0)),
               dim, conductor)
    if not saw_end:
        raise FormatError("missing END marker")
    for needed in _SECTIONS:
        if needed not in chunks:
            raise FormatError(f"missing section {needed}")
    field = get_field(conductor)

    def scalar(tokens, lno):
        coords = []
        for tok in tokens:
            try:
                if _INTEGER.fullmatch(tok):
                    coords.append(int(tok))
                else:
                    from fractions import Fraction

                    coords.append(Fraction(tok))
            except (ValueError, ZeroDivisionError) as exc:
                raise FormatError(f"bad rational {tok!r}", lno) from exc
        if len(coords) != field.degree:
            raise FormatError(
                f"need {field.degree} coordinates, got {len(coords)}", lno)
        return field.scalar(coords)

    labels = [""] * dim
    for i, label in chunks["BASIS"]:
        labels[i] = label
    mult: list[dict] = [{} for _ in range(dim)]
    for lno, (i, j, k), coords in mults:  # repeated 'i j : k' lines are summed
        add_term(mult[i].setdefault(j, {}), k, scalar(coords, lno))
    comult_terms: dict[int, list] = {}
    for lno, (i, j, k), coords in comults:
        comult_terms.setdefault(i, []).append((j, k, scalar(coords, lno)))
    comult = tuple(tuple(comult_terms.get(i, ())) for i in range(dim))
    # repeated UNIT, COUNIT and ANTIPODE lines are summed too
    unit: dict = {}
    for lno, (i,), coords in chunks["UNIT"]:
        add_term(unit, i, scalar(coords, lno))
    counit: dict = {}
    for lno, (i,), coords in chunks["COUNIT"]:
        add_term(counit, i, scalar(coords, lno))
    antipode: list[dict] = [{} for _ in range(dim)]
    for lno, (j, i), coords in chunks["ANTIPODE"]:
        add_term(antipode[j], i, scalar(coords, lno))
    return HopfAlgebra(field, labels, mult, unit, comult,
                       tuple(counit.get(i, field.zero) for i in range(dim)), tuple(antipode))
