"""Heat kernels on finite graphs.

Exact short-time Taylor data (rational arithmetic all the way down), two
independent kernel engines (spectral synthesis and nonnegative
uniformization), geodesic counting, and recovery of distances and geodesic
counts from kernel samples alone.
"""

import importlib

__version__ = "0.1.0"

# Every public name loads its module on first use (PEP 562), so a command
# imports only what it runs: the exact layer (graphs, series, verification)
# without numpy, and ``graphheat.cli`` without series or verification.
_NAMES = {
    "errors": (
        "DuplicateEdgeError",
        "EdgeListError",
        "GraphHeatError",
        "NoConvergence",
        "ParseError",
        "PositivityFloor",
        "SelfLoopError",
        "UnknownVertexError",
        "UnreachableError",
        "WeightError",
    ),
    "graphs": ("DistanceProfile", "Graph", "bfs_profile", "is_bipartite", "parse_edge_list"),
    "series": ("kernel_taylor_coefficient", "laplacian_apply", "series_prefix", "walk_vectors"),
    "verification": ("VaradhanReport", "VerificationSummary", "verify_graph", "verify_pair"),
    "varadhan": (
        "POSITIVITY_FLOOR",
        "DistanceEstimate",
        "estimate_pair",
        "spectral_sampler",
        "uniformization_sampler",
    ),
    "kernels": ("DEFAULT_EPS", "kernel_spectral", "kernel_uniformization"),
    "spectral": (
        "KirchhoffMatrix",
        "SpectralDecomposition",
        "eigendecompose",
        "kirchhoff_matrix",
        "spectral_path_identity",
    ),
}
_MODULE_OF = {name: module for module, names in _NAMES.items() for name in names}


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_MODULE_OF))
