"""Library-call jobs, each run in a fresh interpreter by the benchmark.

    python3 bench/libjob.py series          Hopf composition series job
    python3 bench/libjob.py dump G.grp OUT  write the dump of D(G) (set-up)
"""

from __future__ import annotations

import sys
from pathlib import Path

from hopfseq import (
    all_hopf_series_multisets,
    alternating,
    composition_series_hopf,
    dihedral,
    drinfeld_double,
    dual_group_algebra,
    dump_hopf,
    group_algebra,
    jh_compare,
    load_group,
    symmetric,
)


def _factors(multiset) -> str:
    return ",".join(f"{kind} {label}" for kind, label, _dim in multiset)


def series() -> int:
    d = drinfeld_double(symmetric(3))
    s1 = composition_series_hopf(d)
    s2 = composition_series_hopf(d, chooser=lambda cands: list(reversed(cands)))
    print(f"D(S3) default: {_factors(s1.multiset())}")
    print(f"D(S3) reversed: {_factors(s2.multiset())}")
    print(f"jh_compare: {jh_compare(s1, s2)}")
    catalog = [
        ("kD6", group_algebra(dihedral(6))),
        ("k^A4", dual_group_algebra(alternating(4))),
    ]
    for name, H in catalog:
        multisets = sorted(all_hopf_series_multisets(H))
        print(f"{name}: {' | '.join(_factors(m) for m in multisets)}")
    return 0


def dump(group_file: str, out: str) -> int:
    G = load_group(Path(group_file).read_text())
    Path(out).write_text(dump_hopf(drinfeld_double(G)))
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["series"]:
        return series()
    if argv[:1] == ["dump"] and len(argv) == 3:
        return dump(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
