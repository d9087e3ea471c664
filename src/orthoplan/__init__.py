"""Exact construction and verification of main-effect plans that are
orthogonal through other factors (through the block factor, or through a
designated pair of factors).

Every exported name is imported from its module on first use (PEP 562), so
``import orthoplan`` and a CLI verb load only the modules they run.
"""

from importlib import import_module

_EXPORTS = {
    "gf": ("GaloisField", "SquareClasses", "field_new", "square_classes", "supported_orders"),
    "arrays": ("OrthogonalArray", "hadamard", "hadamard_to_oa", "oa_rao_hamming", "q_extend"),
    "plan": ("BLOCK", "GENERAL", "Factor", "Plan", "design_matrix", "incidence",
             "block_incidence", "block_diagonal", "replication", "plan_from_json",
             "plan_to_json", "plan_to_csv"),
    "ratmat": ("g_inverse", "rank", "to_float"),
    "contrasts": ("ContrastMatrix", "helmert_raw", "orthonormal_contrasts"),
    "orthogonality": ("OrthReport", "PairCheck", "c_matrix_factor", "contrast_c_matrix",
                      "is_potb", "is_potp", "orth_through", "proportional_frequencies"),
    "constructions": ("asym_report", "c0_expand", "construct_asym", "construct_potb2",
                      "construct_potb3", "construct_potp", "diamond", "orbit", "power_plan",
                      "seed_plans", "translate", "validate_signed_seed"),
    "optimality": ("FactorConditions", "OptimalityLedger", "a_value", "bibd_check",
                   "check_universal_factor", "check_universal_global", "contrast_spectrum",
                   "e_value", "universal_ledger"),
    "anova": ("EquivalenceReport", "ModelSpec", "SSResult", "estssq_equivalence", "simulate",
              "ss_adjusted"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
