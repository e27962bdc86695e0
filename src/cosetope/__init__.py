"""Finite-quotient workbench for double coset separability experiments."""

from .arith import MAT_S, MAT_T, Mat2, psl2_group_order, sl2_group_order
from .budgets import Budgets, active_budgets
from .errors import (
    BudgetError,
    CosetopeError,
    ModulusMismatch,
    PreconditionError,
    ValidationError,
)
from .groupcore import (
    GeneratedSubgroup,
    GroupContext,
    SdElement,
    product_member,
    sd_identity,
    sd_inv,
    sd_mul,
    sl2_context,
    subgroup_closure,
    subgroup_intersection,
)
from .gs import NonSepEvidence, gs_hk_witness, gs_wz_failure
from .modular import (
    GapWitness,
    ModularWord,
    PermRep,
    congruence_gap_witness,
    is_congruence,
    low_index_reps,
    matrix_to_word,
    psl2_context,
    rep_contains,
    rep_level,
    subgroup_generators,
    word_eval,
)
from .profinite import (
    Formation,
    GroupWord,
    QuotientSpec,
    SeparabilityCertificate,
    TractabilityReport,
    default_tower,
    image_subgroup,
    kernel_of_refinement,
    project,
    quotient_context,
    thm_b_probe,
    tractable_at,
)

__version__ = "0.1.0"
