"""Heat kernels on finite graphs.

Exact short-time Taylor data (rational arithmetic all the way down), two
independent kernel engines (spectral synthesis and nonnegative
uniformization), geodesic counting, and recovery of distances and geodesic
counts from kernel samples alone.
"""

from .errors import (
    DuplicateEdgeError,
    EdgeListError,
    GraphHeatError,
    NoConvergence,
    ParseError,
    PositivityFloor,
    SelfLoopError,
    UnknownVertexError,
    UnreachableError,
    WeightError,
)
from .graphs import (
    DistanceProfile,
    Graph,
    bfs_profile,
    is_bipartite,
    parse_edge_list,
)
from .kernels import (
    DEFAULT_EPS,
    HeatKernel,
    kernel_spectral,
    kernel_uniformization,
)
from .series import (
    SeriesPrefix,
    kernel_taylor_coefficient,
    laplacian_apply,
    series_prefix,
    walk_vectors,
)
from .spectral import (
    KirchhoffMatrix,
    SpectralDecomposition,
    eigendecompose,
    kirchhoff_matrix,
    spectral_path_identity,
)
from .varadhan import (
    COUNT_TOL,
    EXPONENT_TOL,
    POSITIVITY_FLOOR,
    STABLE_ROUNDS,
    DistanceEstimate,
    VaradhanReport,
    VerificationSummary,
    estimate_pair,
    spectral_sampler,
    uniformization_sampler,
    verify_graph,
    verify_pair,
)

__version__ = "0.1.0"
