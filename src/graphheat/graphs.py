"""Immutable simple graphs: parsing, BFS distance profiles, geodesic counts.

Vertices are dense integer indices ``0 .. n-1``.  External names live in
``Graph.labels`` (first-appearance order when parsed from an edge list).
All combinatorial quantities here are exact: counts are Python integers,
weights are :class:`fractions.Fraction`.  ``fractions`` (and its ``decimal``
backend) loads at the first weighted use, so an unweighted graph never loads
it.

Result records, :class:`DistanceProfile` here, are named tuples: read by
field name, index or unpacking, and never assigned to.
"""

from __future__ import annotations

import functools
import math
from collections import deque, namedtuple
from collections.abc import Iterable, Mapping, Sequence

from .errors import (
    DuplicateEdgeError,
    ParseError,
    SelfLoopError,
    UnknownVertexError,
    WeightError,
)

# The annotations are never evaluated, so ``fractions`` loads only for a type
# checker or through _fraction.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from fractions import Fraction


def _fraction() -> type[Fraction]:
    """``fractions.Fraction``, imported at the first weighted use.

    It is bound as this module's global ``Fraction`` and read from there at
    every later use, so rebinding ``graphs.Fraction`` reaches every caller.
    """
    global Fraction
    try:
        return Fraction
    except NameError:
        from fractions import Fraction

        return Fraction


def __getattr__(name: str):
    # ``graphs.Fraction`` stays readable before the first weighted use.
    if name == "Fraction":
        return _fraction()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class Graph:
    """Finite simple undirected graph with optional positive rational weights.

    Parameters
    ----------
    n:
        Number of vertices.
    edges:
        Iterable of index pairs.  Stored canonically with ``u < v``, in the
        order given.  Self-loops and duplicates are rejected.
    weights:
        Optional mapping from edge (either orientation) to a positive
        rational.  Absent edges default to weight 1.  ``None`` means the
        graph is unweighted and all exact arithmetic stays on integers.
        Each weight, and the largest weighted degree, must keep a positive
        finite float value, which is all the float engines see.
    labels:
        Optional external vertex names, one per vertex, unique.

    Instances are immutable after construction and safe to share.

    The exact arithmetic runs on integers.  ``weight_scale`` is ``s``, the
    lcm of the weight denominators (1 when unweighted); each vertex keeps its
    ``(neighbour, w * s)`` pairs and their weight sum, so that
    :func:`scaled_laplacian_apply` needs no fractions.
    """

    __slots__ = (
        "n", "labels", "edges", "weights", "weight_scale", "_wnbrs", "_ideg", "_index"
    )

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        weights: Mapping[tuple[int, int], Fraction | int] | None = None,
        labels: Sequence[str] | None = None,
    ):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if labels is None:
            labels = tuple(str(i) for i in range(n))
        else:
            labels = tuple(labels)
            if len(labels) != n:
                raise ValueError(f"expected {n} labels, got {len(labels)}")
            if len(set(labels)) != n:
                raise ValueError("vertex labels must be unique")

        seen: set[tuple[int, int]] = set()
        elist: list[tuple[int, int]] = []
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u}, {v}) out of range for {n} vertices")
            if u == v:
                raise SelfLoopError(f"self-loop at vertex {labels[u]!r}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise DuplicateEdgeError(
                    f"duplicate edge {labels[key[0]]!r} -- {labels[key[1]]!r}"
                )
            seen.add(key)
            elist.append(key)

        self.n = n
        self.labels = labels
        self.edges = tuple(elist)
        self._index = {name: i for i, name in enumerate(labels)}

        wmap: dict[tuple[int, int], Fraction] | None = None
        if weights is not None:
            Fraction = _fraction()
            wmap = {}
            for (u, v), w in weights.items():
                key = (u, v) if u < v else (v, u)
                if key not in seen:
                    raise WeightError(f"weight given for non-edge ({u}, {v})")
                if not isinstance(w, Fraction):
                    w = Fraction(w)
                if not _is_float_representable(w):
                    raise WeightError(
                        f"edge {labels[key[0]]!r} -- {labels[key[1]]!r}: weight {w} "
                        "is not a positive finite float"
                    )
                wmap[key] = w
            one = Fraction(1)
            for key in elist:
                wmap.setdefault(key, one)
        self.weights = wmap
        scale = math.lcm(*(w.denominator for w in (wmap or {}).values()))

        wnbrs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for u, v in elist:
            if wmap is None:
                w = 1
            else:
                q = wmap[(u, v)]
                w = q.numerator * (scale // q.denominator)  # w * s, an integer
            wnbrs[u].append((v, w))
            wnbrs[v].append((u, w))
        self.weight_scale = scale
        self._wnbrs = tuple(map(tuple, wnbrs))
        self._ideg = tuple(sum(w for _, w in row) for row in wnbrs)
        if wmap:
            heaviest = max(range(n), key=self._ideg.__getitem__)
            if not _is_float_representable(self.weighted_degree(heaviest)):
                raise WeightError(
                    f"weighted degree of vertex {labels[heaviest]!r} is not a finite float"
                )

    # -- basic accessors ---------------------------------------------------

    @property
    def is_weighted(self) -> bool:
        return self.weights is not None

    def weighted_degree(self, v: int):
        """Sum of incident edge weights (== degree when unweighted)."""
        if self.weights is None:
            return self._ideg[v]
        return _fraction()(self._ideg[v], self.weight_scale)

    def max_weighted_degree(self) -> float:
        # Every degree is an integer over weight_scale: one correctly rounded division.
        return max(self._ideg, default=0) / self.weight_scale

    def index_of(self, label: str) -> int:
        """Resolve an external vertex name; raises UnknownVertexError if unknown."""
        try:
            return self._index[label]
        except KeyError:
            raise UnknownVertexError(label) from None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        kind = "weighted " if self.is_weighted else ""
        return f"Graph({kind}n={self.n}, m={len(self.edges)})"


def parse_edge_list(text: str) -> Graph:
    """Parse the plain-text edge-list format.

    One edge per line: ``u v`` or ``u v w``.  Vertex names are arbitrary
    whitespace-free tokens, numbered in first-appearance order.  ``#`` starts
    a comment; blank lines are skipped, and so is one leading byte-order mark
    (U+FEFF), which some editors write.  A weight is a decimal literal
    (``1.5``) or a ratio (``3/2``) and is parsed exactly — ``1.5`` becomes
    the rational 3/2, never a binary float.

    A weight must also keep a positive finite float value, and so must the
    largest weighted degree, because the float engines see only that value.

    Raises :class:`ParseError`, :class:`SelfLoopError`,
    :class:`DuplicateEdgeError` or :class:`WeightError`, each carrying the
    offending line number (none for a weighted degree, which spans lines).
    """
    labels: list[str] = []
    index: dict[str, int] = {}
    edges: list[tuple[int, int]] = []
    weights: dict[tuple[int, int], Fraction] = {}
    seen: set[tuple[int, int]] = set()
    literals: dict[str, Fraction] = {}
    any_weight = False

    def intern(name: str) -> int:
        if name not in index:
            index[name] = len(labels)
            labels.append(name)
        return index[name]

    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) not in (2, 3):
            raise ParseError(
                f"expected 'u v' or 'u v weight', got {raw.strip()!r}", lineno
            )
        u = intern(parts[0])
        v = intern(parts[1])
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {parts[0]!r}", lineno)
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(
                f"duplicate edge {parts[0]!r} -- {parts[1]!r}", lineno
            )
        seen.add(key)
        edges.append(key)
        if len(parts) == 3:
            w = literals.get(parts[2])
            if w is None:  # a literal is parsed and checked at its first line
                # Fraction builds 10**abs(E) first, minutes for 1e30000000, yet
                # a literal with L characters before its exponent E has no
                # float value once E > L + 309 or E < -(L + 324).  Such an
                # exponent is read as 0, for the literal's syntax and sign alone.
                mantissa, e, exponent = parts[2].lower().partition("e")
                L = len(mantissa)
                try:
                    huge = e and not -(L + 324) <= int(exponent) <= L + 309
                    w = _fraction()(mantissa + "e0" if huge else parts[2])
                except (ValueError, ZeroDivisionError):
                    raise WeightError(f"cannot parse weight {parts[2]!r}", lineno) from None
                if w.numerator <= 0:
                    raise WeightError(f"edge weight must be positive, got {parts[2]}", lineno)
                if huge or not _is_float_representable(w):
                    raise WeightError(
                        f"edge weight {parts[2]} is not a positive finite float", lineno
                    )
                literals[parts[2]] = w
            weights[key] = w
            any_weight = True

    return Graph(
        len(labels),
        edges,
        weights=weights if any_weight else None,
        labels=labels,
    )


def _is_float_representable(q: Fraction) -> bool:
    """Whether a positive rational keeps a positive finite float value.

    The spectral and uniformization engines see only that float; a weight
    that underflows to 0 would silently drop its edge there, and one past
    the float range overflows.
    """
    try:
        # float(q) is this correctly rounded division, without the call
        return 0.0 < q.numerator / q.denominator < math.inf
    except OverflowError:
        return False


class DistanceProfile(namedtuple("DistanceProfile", "dist geodesic_count geodesic_weight")):
    """Single-source BFS summary.

    ``dist[v]`` is the hop distance from the source (``None`` if v is in a
    different component).  ``geodesic_count[v]`` counts shortest paths as an
    exact integer; ``geodesic_weight[v]`` sums, over those paths, the product
    of edge weights along each (equal to the count when unweighted).
    Unreachable vertices get count 0 and weight 0.
    """

    __slots__ = ()
    dist: tuple[int | None, ...]
    geodesic_count: tuple[int, ...]
    geodesic_weight: tuple[int | Fraction, ...]


def bfs_profile(g: Graph, source: int) -> DistanceProfile:
    """Layered BFS from ``source`` with geodesic counting.

    Counts obey the layer recurrence: a vertex at distance k accumulates the
    counts of its neighbours at distance k-1.  Weights follow the same
    recurrence with the connecting edge weight multiplied in.  Everything is
    exact; counts can exceed 64-bit range without issue.
    """
    if not (0 <= source < g.n):
        raise ValueError(f"vertex {source} out of range for {g.n} vertices")
    dist: list[int | None] = [None] * g.n
    count: list[int] = [0] * g.n
    weight: list[int] = [0] * g.n  # times s^dist, on the integer weights
    dist[source] = 0
    count[source] = 1
    weight[source] = 1
    queue = deque([source])
    wnbrs = g._wnbrs
    while queue:
        v = queue.popleft()
        dv = dist[v]
        for u, w in wnbrs[v]:
            if dist[u] is None:
                dist[u] = dv + 1
                count[u] = count[v]
                weight[u] = weight[v] * w
                queue.append(u)
            elif dist[u] == dv + 1:
                count[u] += count[v]
                weight[u] += weight[v] * w
    if not g.is_weighted:
        return DistanceProfile(tuple(dist), tuple(count), tuple(count))
    Fraction = _fraction()
    geodesic_weight = tuple(
        Fraction(wv, g.weight_scale**dv) if dv else wv for wv, dv in zip(weight, dist)
    )
    return DistanceProfile(tuple(dist), tuple(count), geodesic_weight)


def scaled_laplacian_apply(g: Graph, u: Sequence, rows: Iterable[int] | None = None) -> list:
    """``s * (A - D) u`` on the integer edge weights, ``s = g.weight_scale``.

    With ``rows``, only those entries of the product, in the order given.
    Integer input gives integer output, so a walk of k steps stays in
    integers with the common denominator ``s^k``.
    """
    wnbrs, ideg = g._wnbrs, g._ideg
    out = []
    for v in range(g.n) if rows is None else rows:
        acc = -ideg[v] * u[v]
        for nbr, w in wnbrs[v]:
            acc += w * u[nbr]
        out.append(acc)
    return out


@functools.lru_cache(maxsize=1)
def closed_neighbourhoods(g: Graph) -> tuple[tuple[int, ...], ...]:
    """``(v, *neighbours of v)`` for each vertex v; the latest graph's are kept."""
    return tuple((v, *[nbr for nbr, _ in row]) for v, row in enumerate(g._wnbrs))


def is_bipartite(g: Graph) -> tuple[int, ...] | None:
    """2-colour the graph by BFS, or return None if an odd cycle exists.

    Deterministic: each component is explored from its lowest-index vertex,
    which gets colour 0.
    """
    color: list[int | None] = [None] * g.n
    for start in range(g.n):
        if color[start] is not None:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            v = queue.popleft()
            cv = color[v]
            for u, _ in g._wnbrs[v]:
                if color[u] is None:
                    color[u] = 1 - cv
                    queue.append(u)
                elif color[u] == cv:
                    return None
    return tuple(color)  # type: ignore[arg-type]
