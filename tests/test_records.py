"""The records keep their value semantics without the dataclass machinery,
and importing the CLI loads none of that machinery; each CLI verb loads only
the modules it runs.

The frozen records compare and hash by their fields and refuse assignment;
the mutable records give each instance its own default container.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfseq import cyclic, drinfeld_double, dump_group, dump_hopf, symmetric
from hopfseq.catexpr import CatExpr
from hopfseq.certificates import SimplicityCertificate
from hopfseq.cocycles import PairedCocycles, TwoCocycle, trivial_paired_cocycles
from hopfseq.exact import (
    BicrossedRef,
    DualGroupAlgebraRef,
    ExactSequenceH,
    FactorDesc,
    GroupAlgebraRef,
    HopfCompSeries,
)
from hopfseq.groups import SubgroupClassRow
from hopfseq.hopf import AxiomReport, BicrossedOrigin
from hopfseq.matched import CompatibilityReport, drinfeld_pair
from hopfseq.series_cat import CatCompSeries


def _z2_table():
    z2 = cyclic(2)
    return z2, {(a, b): 0 for a in z2.elements for b in z2.elements}


def _trivial_z2_cocycle():
    z2, table = _z2_table()
    return TwoCocycle(z2, 2, table)


# name -> (a factory that makes a new record with the same fields; a field;
# whether the fields hash: a dict or a MatchedPair field does not)
FROZEN = {
    "CatExpr": (lambda: CatExpr("vec", symmetric(3), labels=("chi",)), "group", True),
    "TwoCocycle": (_trivial_z2_cocycle, "table", False),
    "PairedCocycles": (lambda: trivial_paired_cocycles(cyclic(2), cyclic(3)), "sigma", False),
    "FactorDesc": (lambda: FactorDesc("group", "Z2", 2), "label", True),
    "GroupAlgebraRef": (lambda: GroupAlgebraRef(symmetric(3)), "group", True),
    "DualGroupAlgebraRef": (lambda: DualGroupAlgebraRef(symmetric(3)), "group", True),
    "BicrossedRef": (lambda: BicrossedRef(drinfeld_pair(symmetric(3))), "pair", False),
    "BicrossedOrigin": (lambda: BicrossedOrigin(
        drinfeld_pair(cyclic(2)), trivial_paired_cocycles(cyclic(2), cyclic(2))),
        "cocycles", False),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_record_semantics(name):
    make, attr, hashable = FROZEN[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    if hashable:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError):
            hash(a)
    with pytest.raises(AttributeError):
        setattr(a, attr, getattr(b, attr))
    with pytest.raises(AttributeError):
        delattr(a, attr)
    assert a == b and repr(a).startswith(f"{name}(")


def test_frozen_records_differ_by_field_and_by_class():
    G = symmetric(3)
    assert FactorDesc("group", "Z2", 2) != FactorDesc("dual", "Z2", 2)
    assert GroupAlgebraRef(G) != DualGroupAlgebraRef(G)
    assert len({GroupAlgebraRef(G), GroupAlgebraRef(symmetric(3)), DualGroupAlgebraRef(G)}) == 2
    assert CatExpr("vec", G) != CatExpr("vec", G, omega="w")


def test_two_cocycle_reduces_its_table_mod_the_conductor():
    z2, table = _z2_table()
    e, s = z2.elements
    psi = TwoCocycle(z2, 3, {**table, (s, s): 7})
    assert psi.table[(s, s)] == 1 and psi.value(e, e) == 0
    assert psi == TwoCocycle(z2, 3, {**table, (s, s): 1})
    assert PairedCocycles(2, {}, {}) != PairedCocycles(3, {}, {})


# name -> (a factory, the fields that default to a fresh container)
MUTABLE_DEFAULTS = {
    "SimplicityCertificate": (lambda: SimplicityCertificate("vect[A6]", "SIMPLE"), ["trace"]),
    "ExactSequenceH": (lambda: ExactSequenceH(None, None, None, None, None), ["status"]),
    "HopfCompSeries": (lambda: HopfCompSeries([]), ["provenance"]),
    "AxiomReport": (lambda: AxiomReport([], {}), ["evaluated"]),
    "CompatibilityReport": (CompatibilityReport, ["violations"]),
    "CatCompSeries": (lambda: CatCompSeries(CatExpr("rep", cyclic(2)), []),
                      ["rule_trace", "terminal_status"]),
}


@pytest.mark.parametrize("name", sorted(MUTABLE_DEFAULTS))
def test_default_container_is_not_shared(name):
    make, attrs = MUTABLE_DEFAULTS[name]
    a, b = make(), make()
    for attr in attrs:
        assert not getattr(a, attr) and getattr(a, attr) is not getattr(b, attr)


def test_subgroup_class_row_repr_leaves_out_conjugates():
    G = cyclic(2)
    row = SubgroupClassRow(G, "Z2", 2, 2, 1, conjugates=(frozenset(G.elements),))
    assert repr(row) == ("SubgroupClassRow(representative=PermGroup(Z2, order 2), "
                         "iso_label='Z2', order=2, char_group_order=2, normalizer_index=1)")


def _modules_after(statement: str) -> set[str]:
    """sys.modules of a fresh interpreter once it has run ``statement``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src] + ([path] if path else [])))
    done = subprocess.run([sys.executable, "-c", f"{statement}\nimport sys\nprint(*sys.modules)"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    return set(done.stdout.split())


# argparse, the gettext it loads, and the locale its first translated string loads
COMMAND_LINE_LIBRARIES = {"argparse", "gettext", "locale"}


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # against a bare interpreter, so that what site preloads does not count
    bare = _modules_after("pass")
    added = _modules_after("import hopfseq.cli") - bare
    # the CLI loads the modules of a verb inside the verb
    assert {m for m in added if m.startswith("hopfseq")} == {
        "hopfseq", "hopfseq.cli", "hopfseq.groups", "hopfseq.perm"}, sorted(added)
    # the verb table parses the command line without a parser library
    assert not added & COMMAND_LINE_LIBRARIES, sorted(added)
    # every public name, so every hopfseq module
    added = _modules_after("import hopfseq.cli\nfrom hopfseq import *") - bare
    assert "hopfseq.exact" in added and "hopfseq.series_cat" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)


def test_each_verb_loads_only_the_modules_it_runs(tmp_path):
    s5 = tmp_path / "S5.grp"
    s5.write_text(dump_group(symmetric(5)))
    ds3 = tmp_path / "ds3.hopf"
    ds3.write_text(dump_hopf(drinfeld_double(symmetric(3))))

    def loaded(*argv):
        return _modules_after("import io\nfrom hopfseq.cli import main\n"
                              f"assert main({list(argv)!r}, out=io.StringIO()) == 0")

    after = loaded("factorize", str(s5))
    assert "hopfseq.io_formats" in after
    assert not after & {"hopfseq.hopf", "hopfseq.exact", "hopfseq.cyclotomic", "hopfseq.linalg",
                        "hopfseq.matched", "hopfseq.catexpr", "hopfseq.certificates",
                        "hopfseq.series_cat", "fractions"}
    for argv in (("verify", "hopf", str(ds3)), ("build", "double", "s3")):
        after = loaded(*argv)
        assert "hopfseq.hopf" in after
        assert not after & {"fractions", "hopfseq.exact"}, argv
    # a dump is read and verified without the constructors' modules
    assert not loaded("verify", "hopf", str(ds3)) & {"hopfseq.cocycles", "hopfseq.matched"}
    # the pivots its eliminations invert are 1 and -1, their own inverses
    assert "fractions" not in loaded("verify", "sequence", "double:s3")
    bare = _modules_after("pass")
    for argv in (("table", "a5"), ("factorize", str(s5)), ("build", "double", "s3"),
                 ("verify", "hopf", str(ds3)), ("verify", "sequence", "quotient:s3:(1 2 3)"),
                 ("compseries", "vec:s4"), ("certify", "ty:5"), ("ledger", "ty:7"),
                 ("group", "a5")):
        after = loaded(*argv)
        assert not (after - bare) & COMMAND_LINE_LIBRARIES, argv
        # every Frobenius-Perron dimension is an integer, so the categorical
        # verbs load no rational arithmetic
        if argv[0] in ("compseries", "certify", "ledger"):
            assert not after & {"fractions", "decimal", "numbers"}, argv


def test_public_names_are_the_defining_modules_objects():
    import hopfseq

    listed = dir(hopfseq)
    for name in hopfseq.__all__:
        obj = getattr(hopfseq, name)
        module = sys.modules[obj.__module__]
        assert obj.__module__.startswith("hopfseq.") and getattr(module, name) is obj
        assert name in listed
    assert len(set(hopfseq.__all__)) == len(hopfseq.__all__)
    with pytest.raises(AttributeError):
        hopfseq.no_such_name
