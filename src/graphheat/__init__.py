"""Heat kernels on finite graphs.

Exact short-time Taylor data (rational arithmetic all the way down), two
independent kernel engines (spectral synthesis and nonnegative
uniformization), geodesic counting, and recovery of distances and geodesic
counts from kernel samples alone.
"""

import importlib

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
from .series import (
    kernel_taylor_coefficient,
    laplacian_apply,
    series_prefix,
    walk_vectors,
)
from .varadhan import (
    POSITIVITY_FLOOR,
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

# The numpy-backed names load on first use (PEP 562), so the exact layer
# (graphs, series, verification) imports without numpy.
_FLOAT_NAMES = {
    "DEFAULT_EPS": "kernels",
    "kernel_spectral": "kernels",
    "kernel_uniformization": "kernels",
    "KirchhoffMatrix": "spectral",
    "SpectralDecomposition": "spectral",
    "eigendecompose": "spectral",
    "kirchhoff_matrix": "spectral",
    "spectral_path_identity": "spectral",
}


def __getattr__(name: str):
    module = _FLOAT_NAMES.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_FLOAT_NAMES))
