"""Connection-level analysis of multipartite entanglement.

The toolkit classifies pure states by the largest k for which they are
k-connection genuinely entangled (k-CGE), builds the unitaries and
two-layer circuits that witness the complementary biseparable structure,
evaluates linear witnesses with white-noise visibility data, and bounds the
connection level of entangled networks from their graph alone.
"""

from .classify import (
    ClassificationReport,
    DickeFormulaCheck,
    LevelVerdict,
    classify,
    compare_dicke_formula,
    cross_check,
    dicke_cge_formula,
    is_k_cge,
    is_k_connection_biseparable,
    subset_threshold,
)
from .core import (
    DEFAULT_TOLERANCE,
    DensityMatrix,
    PartySubset,
    PureState,
    SchmidtDecomposition,
    Tolerance,
    apply_local_operator,
    basis_state,
    expand_to_full,
    haar_state,
    haar_unitary,
    partial_trace,
    schmidt,
    schmidt_rank,
    state_from_dict,
    state_to_dict,
)
from .disentangle import (
    BiseparableChannel,
    KConnectionChannel,
    TwoDepthDecomposition,
    apply_biseparable_channel,
    apply_k_connection_channel,
    build_disentangling_unitary,
    two_depth_decompose,
)
from .errors import (
    BudgetExceededError,
    ChannelCompletenessError,
    DisentangleRankError,
)
from .network import (
    NetworkBoundReport,
    NetworkGraph,
    network_bound,
    chain_connectivity,
    chain_network,
    complete_network,
    cubic_network,
    cycle_network,
    grid_network,
    star_network,
)
from .states import (
    StateFamily,
    cluster_from_epr,
    dicke,
    epr_pair,
    excitation_count,
    family_from_dict,
    ghz,
    graph_from_epr_ghz,
    max_entangled_pair,
    network_joint_state,
    w_type,
)
from .witness import (
    WitnessSpec,
    exact_radius,
    exact_witness,
    ghz_witness,
    radius_ghz,
    radius_w4,
    w4_visibility_curves,
    w4_witness,
    werner_state,
    werner_visibility_threshold,
    werner_zero_crossing,
    witness_value,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
