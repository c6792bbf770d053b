"""Permutations on {0..n-1} represented as image tuples.

A permutation ``p`` acts as the function ``i -> p[i]``.  Products use
function composition: ``(p * q)(i) = p[q[i]]`` (apply ``q`` first).
External cycle notation is 1-based, e.g. ``"(1 2 3)(4 5)"``.
"""

from __future__ import annotations

import re
from math import lcm

Perm = tuple  # tuple[int, ...], images of 0..n-1


def identity(degree: int) -> Perm:
    return tuple(range(degree))


def is_perm(p, degree: int) -> bool:
    return len(p) == degree and sorted(p) == list(range(degree))


def compose(p: Perm, q: Perm) -> Perm:
    """p * q : apply q first, then p."""
    return tuple(p[i] for i in q)


def inverse(p: Perm) -> Perm:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v] = i
    return tuple(inv)


def conjugate(g: Perm, x: Perm) -> Perm:
    """g x g^-1."""
    # (g x g^-1)(g(i)) = g(x(i)); build directly without forming g^-1.
    out = [0] * len(x)
    for i, xi in enumerate(x):
        out[g[i]] = g[xi]
    return tuple(out)


def perm_order(p: Perm) -> int:
    n = len(p)
    seen = [False] * n
    order = 1
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        if length > 1:
            order = lcm(order, length)
    return order


def cycles_of(p: Perm) -> list[tuple[int, ...]]:
    """Nontrivial cycles, 0-based, each starting at its minimum."""
    n = len(p)
    seen = [False] * n
    out = []
    for i in range(n):
        if seen[i] or p[i] == i:
            seen[i] = True
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = p[j]
        out.append(tuple(cyc))
    return out


def cycle_string(p: Perm) -> str:
    """1-based disjoint cycle notation; identity renders as ``()``."""
    cycs = cycles_of(p)
    if not cycs:
        return "()"
    return "".join("(" + " ".join(str(i + 1) for i in cyc) + ")" for cyc in cycs)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


class PermParseError(ValueError):
    pass


def parse_cycles(text: str, degree: int) -> Perm:
    """Parse 1-based disjoint cycle notation like ``(1 2 3)(4 5)``.

    Commas and whitespace both separate points.  ``()`` and ``e`` denote
    the identity.
    """
    text = text.strip()
    if text in ("()", "e", ""):
        return identity(degree)
    stripped = _CYCLE_RE.sub("", text)
    if stripped.strip():
        raise PermParseError(f"malformed cycle notation: {text!r}")
    images = list(range(degree))
    seen: set[int] = set()
    for m in _CYCLE_RE.finditer(text):
        body = m.group(1).replace(",", " ").split()
        if not body:
            continue
        try:
            pts = [int(tok) - 1 for tok in body]
        except ValueError as exc:
            raise PermParseError(f"non-integer point in {text!r}") from exc
        for pt in pts:
            if not 0 <= pt < degree:
                raise PermParseError(f"point {pt + 1} out of range 1..{degree}")
            if pt in seen:
                raise PermParseError(f"point {pt + 1} repeated in {text!r}")
            seen.add(pt)
        for a, b in zip(pts, pts[1:] + pts[:1]):
            images[a] = b
    return tuple(images)
