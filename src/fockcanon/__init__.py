"""Exact canonical bases of the level-1 q-deformed Fock space.

The package computes the bar involution through q-wedge straightening, the
Chevalley and Heisenberg actions on partition-indexed vectors, the canonical
bases G and G^- with their four transition matrices, the Steinberg-type
factorization of G^-, and the n=2 domino evaluation of lower-basis rows.
"""

from .canonical import (
    NotApplicableError,
    TransitionMatrix,
    a_matrix,
    adjoint_matrix,
    blocks,
    canonical_lower,
    canonical_upper,
    check_duality,
    domino_theorem_check,
    steinberg_decompose,
    steinberg_g_minus,
)
from .fock import (
    FockVector,
    b_action,
    bar,
    bar_basis_vector,
    e_action,
    f_action,
    inner_product,
    psi_q,
    s_alpha,
    s_alpha_via_characters,
    u_op,
    v_op,
    v_op_via_heisenberg,
    weight_exponents,
)
from .laurent import (
    LaurentPoly,
    NonIntegralResultError,
    NotAntisymmetricError,
    antisym_split,
    q_int,
)
from .partitions import (
    DominoTableau,
    NodeCounts,
    NotTileableError,
    RibbonStrip,
    SizeMismatchError,
    conjugate,
    dominance_leq,
    is_n_regular,
    n_core_quotient,
    node_counts,
    partitions_of,
    revlex_order,
    ribbon_strips_above,
    ribbon_strips_below,
    two_sign,
    yamanouchi_domino_tableaux,
)
from .wedge import (
    KTooSmallError,
    NotNormallyOrderedError,
    bar_basis,
    partition_to_word,
    straighten,
    word_to_partition,
)

__version__ = "0.1.0"
