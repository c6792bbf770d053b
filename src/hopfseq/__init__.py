"""hopfseq: exact sequences of finite-dimensional Hopf algebras and
fusion-category dimension arithmetic, over exact cyclotomic scalars.

The public names below load on first use: ``hopfseq.X`` and
``from hopfseq import X`` import only the module that defines X (and what
it imports), so a process pays only for the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# defining module -> the public names it exports
_EXPORTS = {
    "catexpr": (
        "CatExpr", "cat_factorization_from_group", "center", "cpq_category", "deligne",
        "fpdim", "group_theoretical", "is_integral", "is_pointed", "rep_g",
        "tambara_yamagami", "validate_type", "vec_g",
    ),
    "certificates": (
        "Inconclusive", "SimplicityCertificate", "a6_simplicity_check",
        "family_simplicity_check", "invertible_group_order",
    ),
    "cocycles": (
        "PairedCocycles", "TwoCocycle", "cocycle_class_trivial", "coboundary_search",
        "conjugate_twisted", "trivial_cocycle", "trivial_paired_cocycles",
    ),
    "cyclotomic": ("CycField", "CycScalar", "get_field"),
    "exact": (
        "BicrossedRef", "DualGroupAlgebraRef", "ExactSequenceH", "FactorDesc",
        "GroupAlgebraRef", "HopfCompSeries", "HopfMorphism", "HopfSubalgebra",
        "all_hopf_series_multisets", "coinvariants", "composition_series_hopf",
        "dualize_sequence", "hopf_cokernel", "hopf_kernel", "is_normal_subalgebra",
        "jh_compare", "make_abelian_sequence", "make_group_quotient_sequence",
        "normal_subalgebra_candidates", "span_subalgebra", "standalone_subalgebra",
        "verify_exact_sequence",
    ),
    "groups": (
        "CapExceeded", "ExactFactorizationG", "GroupError", "PermGroup",
        "SubgroupClassRow", "abelianization_order", "alternating", "class_metrics",
        "composition_series_group", "cyclic", "dihedral", "direct_product", "elements",
        "exact_factorizations", "iso_label", "klein_four", "named_group",
        "normal_subgroups", "quaternion8", "subgroup_classes", "symmetric",
    ),
    "hopf": (
        "HopfAlgebra", "HopfError", "bicrossed_product", "drinfeld_double",
        "dual_group_algebra", "dual_hopf", "group_algebra", "solve_antipode",
        "verify_hopf_axioms",
    ),
    "io_formats": (
        "FormatError", "dump_group", "dump_hopf", "dump_matched_pair", "load_group",
        "load_hopf", "load_matched_pair",
    ),
    "matched": (
        "MatchedPair", "drinfeld_pair", "from_factorization",
        "reconstruction_matches_ambient", "trivial_pair", "verify_compatibility",
    ),
    "series_cat": ("CatCompSeries", "comp_series_cat", "get_strategy"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        # also how ``from hopfseq import hopf`` learns to import the submodule
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
