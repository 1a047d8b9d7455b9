"""Numerical laboratory for hidden-shift states over small finite groups.

Builds the coset-superposition states of the standard hidden-shift
approach, block-diagonalizes them with the group Fourier transform, and
verifies their spectra, ranks, measurement statistics, and the
indistinguishability results that limit the approach, for symmetric and
finite abelian groups.
"""

__version__ = "0.1.0"

from .errors import CapacityError, ConsistencyError, DomainError
from .groups import (
    Group,
    SubgroupEmbedding,
    abelian_group,
    abelian_subgroup_of_abelian,
    abelian_subgroup_of_symmetric,
    parse_group,
    partitions,
    symmetric_group,
)
from .irreps import (
    FourierTransform,
    Irrep,
    fourier,
    irreps,
    plancherel,
)
from .states import (
    Block,
    ShiftState,
    SpectrumReport,
    averaged_shift_state_dense,
    block_shift_state,
    dense_from_blocks,
    interior_eigenvalue_check,
    maximally_mixed_state,
    one_copy_state,
    rank_closed_form,
    shift_state_dense,
    spectrum,
    spectrum_rows,
    state_block,
    state_rank,
    state_spectrum,
    subgroup_restriction_check,
    to_block_basis,
)
from .subset_sums import (
    MomentReport,
    SubsetSumTable,
    moments,
    subset_sum_rank,
    subset_sum_table,
    success_from_rank,
    success_probability,
)
from .measurements import (
    HelstromResult,
    Povm,
    helstrom,
    indistinguishability_sweep,
    random_povm,
    single_register_distributions,
    tv_distance,
    variance_bound_rows,
    weak_sampling_distribution,
    weighted_variance_sum,
)
from .iso import (
    Graph,
    ShiftOraclePair,
    are_isomorphic,
    automorphism_witness,
    find_shift_bruteforce,
    format_graph,
    graph,
    graph_act,
    is_rigid,
    make_shift_oracles,
    parse_graph_text,
    rigid_corpus,
    states_from_oracles,
)

__all__ = [name for name in dir() if not name.startswith("_")]
