"""Multipartite entanglement measure and marginal-compatibility certificates.

The library evaluates an information-theoretic entanglement measure of pure
states through three independent routes, certifies when a set of claimed
reduced density matrices cannot arise from any common global state, and
checks the monogamy and disorder inequalities that follow from the same
conditions. The ``qcert`` command exposes everything over JSON files.
"""

__version__ = "0.1.0"

from .compatibility import (
    CompatReport,
    MarginalMismatch,
    MarginalSet,
    consistency_precheck,
    required_subsets,
    self_check,
    theorem1_check,
    theorem2_check,
)
from .hilbert import (
    DensityDiagnostics,
    Operator,
    PureState,
    SpaceShape,
    SubsetMask,
    apply_local_unitary,
    partial_trace,
    permute_parties,
    purity,
    tensor,
    validate_density,
)
from .measures import (
    MeasureReport,
    entanglement_E_partitions,
    entanglement_E_projector,
    entanglement_E_subset_sum,
    i_concurrence_sq,
    linear_entropy,
    marginal_purity,
    measure_all,
    mutual_information,
    purity_table,
    subset_purities,
)
from .monogamy import (
    DisorderReport,
    MonogamyReport,
    corollary1_check,
    corollary1_scan,
    disorder_check,
)
from .observables import (
    all_patterns,
    expectation_mixed,
    expectation_pure,
    observable,
    pair_projector,
    purity_via_observables,
    swap_matrix,
    swap_subset_expectation,
)
from .oracle import exhaustive_E, naive_expectation, naive_partial_trace
from .states import (
    ghz_state,
    normal_stream,
    product_state,
    purify,
    random_mixed,
    random_pure,
    w_state,
)

__all__ = [
    "CompatReport",
    "DensityDiagnostics",
    "DisorderReport",
    "MarginalMismatch",
    "MarginalSet",
    "MeasureReport",
    "MonogamyReport",
    "Operator",
    "PureState",
    "SpaceShape",
    "SubsetMask",
    "all_patterns",
    "apply_local_unitary",
    "consistency_precheck",
    "corollary1_check",
    "corollary1_scan",
    "disorder_check",
    "entanglement_E_partitions",
    "entanglement_E_projector",
    "entanglement_E_subset_sum",
    "exhaustive_E",
    "expectation_mixed",
    "expectation_pure",
    "ghz_state",
    "i_concurrence_sq",
    "linear_entropy",
    "marginal_purity",
    "measure_all",
    "mutual_information",
    "naive_expectation",
    "naive_partial_trace",
    "normal_stream",
    "observable",
    "pair_projector",
    "partial_trace",
    "permute_parties",
    "product_state",
    "purify",
    "purity",
    "purity_table",
    "purity_via_observables",
    "random_mixed",
    "random_pure",
    "required_subsets",
    "self_check",
    "subset_purities",
    "swap_matrix",
    "swap_subset_expectation",
    "tensor",
    "theorem1_check",
    "theorem2_check",
    "validate_density",
    "w_state",
]
