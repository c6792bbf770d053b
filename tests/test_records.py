"""The records keep their value semantics without the dataclass machinery,
and importing the CLI loads none of that machinery.

The frozen records compare and hash by their fields and refuse assignment;
the mutable records give each instance its own default container.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from hopfseq import cyclic, symmetric
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


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # against a bare interpreter, so that what site preloads does not count
    added = _modules_after("import hopfseq.cli") - _modules_after("pass")
    assert "hopfseq.exact" in added
    assert not added & {"dataclasses", "inspect"}, sorted(added)
