"""Seeded inputs, job lists and verdict oracles for the hopfseq benchmark.

Everything here is stdlib-only and never imports hopfseq: the program
sees only the files and arguments generated from the seed.  Each oracle
checks a job's stdout against pinned mathematical facts, not against the
program's own earlier output.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable

# ---------------------------------------------------------------------------
# permutations, 0-based image tuples, written in 1-based cycle notation


def _compose(p, q):
    return tuple(q[p[i]] for i in range(len(p)))


def _order_of_group(gens) -> int:
    n = len(gens[0])
    e = tuple(range(n))
    seen = {e}
    frontier = [e]
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = _compose(x, g)
                if y not in seen:
                    seen.add(y)
                    new.append(y)
        frontier = new
    return len(seen)


def cycles(p) -> str:
    out, seen = [], set()
    for start in range(len(p)):
        if start in seen or p[start] == start:
            continue
        cyc, x = [], start
        while x not in seen:
            seen.add(x)
            cyc.append(str(x + 1))
            x = p[x]
        out.append("(" + " ".join(cyc) + ")")
    return "".join(out) or "()"


def relabel(cycle_text: str, g) -> str:
    """Rename every point a of a cycle string to g(a): conjugation by g."""
    return re.sub(r"\d+", lambda m: str(g[int(m.group()) - 1] + 1), cycle_text)


def grp_file(degree: int, gens: list[str]) -> bytes:
    return ("\n".join([f"degree {degree}"] + gens) + "\n").encode()


def _random_generating_pair(rng: random.Random, degree: int, order: int) -> list[str]:
    while True:
        a, b = (tuple(rng.sample(range(degree), degree)) for _ in range(2))
        if _order_of_group([a, b]) == order:
            return [cycles(a), cycles(b)]


def _random_point_map(rng: random.Random, degree: int):
    return tuple(rng.sample(range(degree), degree))


# S4 = S3 . C4 with S3 the stabiliser of 4 and C4 = <(1 2 3 4)>: neither
# factor is normal, so both actions of the matched pair are nontrivial
S4_GENS = ["(1 2 3 4)", "(1 2)"]
S4_LEFT = ["(1 2 3)", "(1 2)"]
S4_RIGHT = ["(1 2 3 4)"]

V4_IN_S4 = ["(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"]


# ---------------------------------------------------------------------------
# oracles: each returns None when the stdout holds, else a one-line reason

Oracle = Callable[[str], "str | None"]


def _need(text: str, *lines: str) -> str | None:
    have = text.splitlines()
    for ln in lines:
        if ln not in have:
            return f"missing line {ln!r}"
    return None


def oracle_factorize_s5(text: str) -> str | None:
    # S5 = A5.Z2 = S4.Z5 = F20.S3 = F20.Z6, up to conjugacy and swapping
    lines = text.splitlines()
    if not lines or not lines[0].startswith("# exact factorizations of S5 (proper): 4"):
        return f"bad header {lines[:1]!r}"
    miss = _need(text, "A5 (order 60) . Z2 (order 2)", "S4 (order 24) . Z5 (order 5)")
    if miss:
        return miss
    rest = sorted(ln.split(" . ")[1] for ln in lines[1:] if "(order 20)" in ln.split(" . ")[0])
    if rest != ["S3 (order 6)", "Z6 (order 6)"] or len(lines) != 5:
        return f"order-20 factorizations wrong: {rest!r}"
    return None


# the iterated chain splits S5 = S4.Z5, S4 = S3.Z4, S3 = Z3.Z2 and Z4 = Z2.Z2
ITERATED_S5 = ["vect[Z3]", "vect[Z2]", "vect[Z2]", "vect[Z2]", "vect[Z5]"]


def oracle_compseries_s5(text: str) -> str | None:
    chains: dict[str, list[tuple[str, str]]] = {}
    current = None
    for ln in text.splitlines():
        m = re.fullmatch(r"chain=(\w+) length=(\d+)", ln)
        if m:
            current = m.group(1)
            chains[current] = []
            continue
        m = re.fullmatch(r"  (\S+) \[(.+)\]", ln)
        if m and current:
            chains[current].append((m.group(1), m.group(2)))
    # the a6 chain has a rule only for S6, so S5 stays whole
    if chains.get("a6") != [("vect[S5]", "no-rule-applies")]:
        return f"chain a6 gave {chains.get('a6')!r}"
    iterated = chains.get("iterated", [])
    if [f for f, _ in iterated] != ITERATED_S5:
        return f"chain iterated gave {iterated!r}"
    if any(cert != "certified-simple" for _, cert in iterated):
        return f"chain iterated has an uncertified factor: {iterated!r}"
    lengths = re.findall(r"chain=(\w+) length=(\d+)", text)
    if lengths != [("a6", "1"), ("iterated", "5")]:
        return f"chain lengths {lengths!r}"
    return _need(text, "factor multisets differ")


def oracle_lines(*lines: str) -> Oracle:
    return lambda text: _need(text, *lines)


def oracle_rejected_dump(text: str) -> str | None:
    if not any(ln.startswith("FAIL ") for ln in text.splitlines()):
        return "no FAIL line for the corrupted dump"
    return None


def oracle_sequence(dims: str) -> Oracle:
    def check(text: str) -> str | None:
        lines = text.splitlines()
        status = [ln for ln in lines if ln and not ln.startswith(" ")]
        keys = [ln.split(":")[0] for ln in status]
        if keys != ["injective", "surjective", "kernel_is_ideal", "coinvariants_match",
                    "dim_multiplicative", "exact", "dual_exact"]:
            return f"unexpected status lines {keys!r}"
        bad = [ln for ln in status if not ln.endswith(": PASS")]
        if bad:
            return f"not PASS: {bad!r}"
        return _need(text, f"  witness dims = {dims}")
    return check


# composition factors of the groups behind each algebra
LIBRARY_FACTS = {
    "D(S3) default": "dual Z2,dual Z3,group Z2,group Z3",
    "D(S3) reversed": "dual Z2,dual Z3,group Z2,group Z3",
    "jh_compare": "True",
    "kD6": "group Z2,group Z2,group Z3",
    "k^A4": "dual Z2,dual Z2,dual Z3",
}


def oracle_library(text: str) -> str | None:
    got = dict(ln.split(": ", 1) for ln in text.splitlines() if ": " in ln)
    for key, want in LIBRARY_FACTS.items():
        if got.get(key) != want:
            return f"{key}: got {got.get(key)!r}, want {want!r}"
    return None


# ---------------------------------------------------------------------------
# jobs and workloads


@dataclass
class Job:
    """One cold process: a CLI verb (kind "cli") or a library script ("lib")."""

    name: str
    kind: str
    args: list[str]
    oracle: Oracle
    files: dict[str, bytes] = field(default_factory=dict)
    exit_code: int = 0
    timeout: float = 120.0


def lattice_jobs(seed: int) -> list[Job]:
    rng = random.Random(f"lattice:{seed}")
    factorize = grp_file(5, _random_generating_pair(rng, 5, 120))
    compseries = grp_file(5, _random_generating_pair(rng, 5, 120))
    return [
        Job("factorize-s5", "cli", ["factorize", "s5.grp"], oracle_factorize_s5,
            files={"s5.grp": factorize}),
        Job("compseries-s5", "cli", ["compseries", "vec:s5.grp", "--chain", "both"],
            oracle_compseries_s5, files={"s5.grp": compseries}),
    ]


def build_jobs(seed: int) -> list[Job]:
    """The write path: construct, verify and dump."""
    rng = random.Random(f"build:{seed}")
    s3 = _s3_file(rng)
    g = _random_point_map(rng, 4)
    s4 = grp_file(4, [relabel(c, g) for c in S4_GENS])
    left = ";".join(relabel(c, g) for c in S4_LEFT)
    right = ";".join(relabel(c, g) for c in S4_RIGHT)
    return [
        Job("build-double-s3", "cli", ["build", "double", "s3.grp", "-o", "ds3.hopf"],
            oracle_lines("dim 36, conductor 1, axioms PASS", "wrote ds3.hopf"),
            files={"s3.grp": s3}),
        Job("build-bicrossed-s4-c3", "cli",
            ["build", "bicrossed", "s4.grp", "--g-gens", left, "--gamma-gens", right,
             "--conductor", "3"],
            oracle_lines("dim 24, conductor 3, axioms PASS"), files={"s4.grp": s4}),
    ]


def corrupt_dump(text: str, rng: random.Random) -> str:
    """Retarget one MULT entry 'i j : k : c' to another basis index k'."""
    lines = text.split("\n")
    dim = int(next(ln for ln in lines if ln.startswith("DIM "))[4:])
    first, last = lines.index("MULT") + 1, lines.index("COMULT")
    at = rng.randrange(first, last)
    head, _, rest = lines[at].partition(":")
    k, _, coeff = rest.partition(":")
    new_k = rng.choice([x for x in range(dim) if x != int(k)])
    lines[at] = f"{head}: {new_k} :{coeff}"
    return "\n".join(lines)


def _s3_file(rng: random.Random) -> bytes:
    g = _random_point_map(rng, 3)
    return grp_file(3, [relabel("(1 2 3)", g), relabel("(1 2)", g)])


def check_jobs(seed: int, dump_text: str) -> list[Job]:
    """The read path: verify a dump both ways, exactness, Hopf series."""
    rng = random.Random(f"check:{seed}")
    bad = corrupt_dump(dump_text, rng)
    v4 = ";".join(rng.sample(V4_IN_S4, 2))
    return [
        Job("verify-dump", "cli", ["verify", "hopf", "ds3.hopf"],
            oracle_lines("dim 36: all Hopf axioms PASS"),
            files={"ds3.hopf": dump_text.encode()}),
        Job("verify-corrupted-dump", "cli", ["verify", "hopf", "bad.hopf"],
            oracle_rejected_dump, files={"bad.hopf": bad.encode()}, exit_code=1),
        Job("sequence-quotient-s4", "cli", ["verify", "sequence", f"quotient:s4:{v4}"],
            oracle_sequence("(4, 24, 6)")),
        Job("library-series", "lib", ["series"], oracle_library),
    ]


def check_dump_input(seed: int) -> bytes:
    """The S3 relabelling whose Drinfeld double set-up dumps for check_jobs."""
    return _s3_file(random.Random(f"check-dump:{seed}"))


def smoke_jobs() -> list[Job]:
    """A few-second job list for checking the harness itself."""
    return [
        Job("table-a5", "cli", ["table", "a5", "--format", "csv"],
            oracle_lines("iso_label,order,char_group_order,normalizer_index",
                         "A5,60,1,1", "Z5,5,5,2")),
        Job("build-double-s3", "cli", ["build", "double", "s3", "-o", "ds3.hopf"],
            oracle_lines("dim 36, conductor 1, axioms PASS", "wrote ds3.hopf")),
        Job("sequence-double-s3", "cli", ["verify", "sequence", "double:s3"],
            oracle_sequence("(6, 36, 6)")),
        Job("sequence-quotient-s4", "cli",
            ["verify", "sequence", "quotient:s4:(1 2)(3 4);(1 3)(2 4)"],
            oracle_sequence("(4, 24, 6)")),
    ]
