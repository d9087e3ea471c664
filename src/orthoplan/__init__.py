"""Exact construction and verification of main-effect plans that are
orthogonal through other factors (through the block factor, or through a
designated pair of factors)."""

from .gf import GaloisField, SquareClasses, field_new, square_classes, supported_orders
from .arrays import OrthogonalArray, hadamard, hadamard_to_oa, oa_rao_hamming, q_extend
from .plan import (
    BLOCK,
    GENERAL,
    Factor,
    Plan,
    design_matrix,
    incidence,
    block_incidence,
    block_diagonal,
    replication,
    plan_from_json,
    plan_to_json,
    plan_to_csv,
)
from .ratmat import (
    g_inverse,
    inverse,
    rank,
    rational,
    sym_eigenvalues,
    to_float,
)
from .contrasts import ContrastMatrix, helmert_raw, orthonormal_contrasts
from .orthogonality import (
    OrthReport,
    PairCheck,
    c_matrix_factor,
    contrast_c_matrix,
    is_potb,
    is_potp,
    orth_through,
    proportional_frequencies,
)
from .constructions import (
    asym_report,
    c0_expand,
    construct_asym,
    construct_potb2,
    construct_potb3,
    construct_potp,
    diamond,
    orbit,
    power_plan,
    seed_plans,
    translate,
    validate_signed_seed,
)
from .optimality import (
    FactorConditions,
    OptimalityLedger,
    a_value,
    bibd_check,
    check_universal_factor,
    check_universal_global,
    contrast_spectrum,
    e_value,
    universal_ledger,
)
from .anova import (
    EquivalenceReport,
    ModelSpec,
    SSResult,
    estssq_equivalence,
    simulate,
    ss_adjusted,
)

__version__ = "0.1.0"
