"""Random permutations with a prescribed number of inversions.

Exact Mahonian counting, exact uniform sampling, the uniformity-preserving
ball-throwing Markov chain, block decomposition of the induced permutation
graph, and Monte Carlo verification of the connectivity-threshold limit
laws.
"""

from .counting import (
    InversionTable,
    build_table,
    mahonian_polynomial,
    max_inversions,
)
from .coupling import (
    BetaTable,
    ChainState,
    chain_step,
    materialize_rho,
    rho_entry,
    run_chain,
    symbolic_chain_distributions,
)
from .experiments import (
    ExperimentConfig,
    run_block_census,
    run_component_census,
    run_marked_vs_decomposition,
    run_monotonicity_check,
    tv_distance,
)
from .limits import (
    ThresholdParams,
    alpha_for_mu,
    euler_h,
    marked_points,
    threshold_params,
)
from .permutations import (
    BlockDecomposition,
    blocks,
    blocks_from_inversion_sequence,
    decomposition_points,
    enumerate_inversion_sequences,
    inversion_count,
    inversion_sequence,
    is_indecomposable,
    permutation_from_inversion_sequence,
    permutation_graph_edges,
    psi,
    reflect_sequence,
)
from .rng import SamplerContext
from .sampling import (
    SplitSampler,
    sample_composition,
    sample_inversion_sequence,
)

__version__ = "0.1.0"
