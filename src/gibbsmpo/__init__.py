"""Certified MPO approximations of e^{-beta H} and e^{-iHt} for 1D long-range chains.

The package builds matrix product operator (MPO) approximations of thermal
propagators of one-dimensional power-law interacting spin chains by merging
exact small-block Gibbs operators with Taylor-truncated merge operators, and
verifies every analytic error bound against an exact-diagonalization oracle
at small system sizes.
"""

from .model import (
    ConfigError,
    DenseCapError,
    HamiltonianSpec,
    Interval,
    LocalTerm,
    boundary_bound,
    boundary_interaction,
    dense_matrix,
    extensivity_constant,
    load_spec,
    nearest_neighbor_ising,
    power_law_boundary_bound,
    power_law_heisenberg,
    power_law_ising,
    power_law_pairwise,
    restrict,
    spec_digest,
    spec_from_config,
    subset_hamiltonian,
)
from .oracle import (
    dense_exp,
    gibbs_dense,
    partition_function,
    relative_error,
    schatten_norm,
)
from .expsum import ExpSumApprox, approximate_hamiltonian, fit_kernel, kernel_order
from .mpo import (
    MPO,
    BondCapError,
    CompressionPolicy,
    add,
    compress,
    concat,
    from_dense,
    hamiltonian_mpo,
    identity_mpo,
    load_mpo,
    multiply,
    power,
    random_mpo,
    save_mpo,
    scale,
    zero_mpo,
)
from .merge import (
    MergeOperatorSpec,
    build_merge_mpo,
    merge_operator_dense,
    merge_order_term_dense,
    merge_spec_for,
    order_term_bound,
    order_term_norms,
    tail_prefactor,
    truncated_merge_dense,
    truncation_bound,
    truncation_error,
    truncation_order_for,
)
from .gibbs import (
    BudgetError,
    ErrorBudget,
    ErrorReport,
    build_gibbs_mpo,
    build_high_temp_mpo,
    build_merge_plan,
    build_real_time_mpo,
    plan_budget,
    recursion_constants,
)

__version__ = "0.1.0"
