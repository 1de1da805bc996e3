"""Reference computations and output checks, made apart from the program.

Each graph is parsed again from its edge-list text.  Distances, geodesic
counts and geodesic weights come from a BFS written here; Taylor
coefficients from exact integer powers of the scaled Kirchhoff matrix;
spectra and kernels from ``numpy.linalg.eigh`` of a Laplacian built here.
Nothing is taken from the program's own output of an earlier run.

:func:`check` reads one CLI call's CSV and returns an :class:`Outcome`: the
number of operations (one per vertex pair; one per eigenvalue list or
colouring), the failed ones by category, and any structural problem (wrong
header, missing or extra rows, unexpected exit status) that makes the run
incorrect as a whole.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np

# Failure categories of the estimator's two known faults.  Any other failed
# category makes a run incorrect.
KNOWN_FAULTS = ("estimate.blank", "estimate.false_unreachable", "estimate.wrong")

KERNEL_ATOL = 1e-9
ROW_SUM_TOL = 1e-8
SPECTRUM_RTOL = 1e-9
# Two primes below 2**25: residues of sums of n <= 1024 products stay in int64.
PRIMES = (33554393, 33554383)


@dataclass
class Outcome:
    attempted: int = 0
    failed: Counter = field(default_factory=Counter)
    problems: list[str] = field(default_factory=list)

    def fail(self, category: str) -> None:
        self.failed[category] += 1

    @property
    def n_failed(self) -> int:
        return sum(self.failed.values())

    def add(self, other: "Outcome") -> None:
        self.attempted += other.attempted
        self.failed.update(other.failed)
        self.problems.extend(other.problems)


class Ref:
    """Reference data for one graph, computed lazily from its edge-list text."""

    def __init__(self, text: str):
        self.labels: list[str] = []
        self.index: dict[str, int] = {}
        self.edges: list[tuple[int, int, Fraction]] = []
        self.weighted = False
        for line in text.splitlines():
            parts = line.split()
            if not parts:
                continue
            u, v = (self._intern(p) for p in parts[:2])
            if len(parts) == 3:
                self.weighted = True
            self.edges.append((u, v, Fraction(parts[2]) if len(parts) == 3 else Fraction(1)))
        self.n = len(self.labels)
        self.adj: list[list[tuple[int, Fraction]]] = [[] for _ in range(self.n)]
        for u, v, w in self.edges:
            self.adj[u].append((v, w))
            self.adj[v].append((u, w))
        self._bfs: dict[int, tuple[list, list, list]] = {}

    def _intern(self, label: str) -> int:
        if label not in self.index:
            self.index[label] = len(self.labels)
            self.labels.append(label)
        return self.index[label]

    # -- combinatorics ------------------------------------------------------

    def bfs(self, x: int) -> tuple[list, list, list]:
        """Distances, geodesic counts and geodesic weights from ``x``."""
        if x not in self._bfs:
            dist: list[int | None] = [None] * self.n
            count = [0] * self.n
            weight = [Fraction(0)] * self.n
            dist[x], count[x], weight[x] = 0, 1, Fraction(1)
            order = [x]
            queue = deque([x])
            while queue:
                v = queue.popleft()
                for u, _ in self.adj[v]:
                    if dist[u] is None:
                        dist[u] = dist[v] + 1
                        order.append(u)
                        queue.append(u)
            for v in order[1:]:
                for u, w in self.adj[v]:
                    if dist[u] == dist[v] - 1:
                        count[v] += count[u]
                        weight[v] += weight[u] * w
            self._bfs[x] = (dist, count, weight)
        return self._bfs[x]

    @cached_property
    def component(self) -> list[int]:
        comp = [-1] * self.n
        for s in range(self.n):
            if comp[s] < 0:
                for v, d in enumerate(self.bfs(s)[0]):
                    if d is not None:
                        comp[v] = s
        return comp

    @cached_property
    def two_colouring(self) -> list[int] | None:
        """A proper 2-colouring, or None when an edge closes an odd cycle."""
        colour = [0] * self.n
        for root in set(self.component):
            for v, d in enumerate(self.bfs(root)[0]):
                if d is not None:
                    colour[v] = d % 2
        if any(colour[u] == colour[v] for u, v, _ in self.edges):
            return None
        return colour

    @cached_property
    def eccentricity(self) -> int:
        return max(d for x in range(self.n) for d in self.bfs(x)[0] if d is not None)

    # -- exact Taylor coefficients --------------------------------------------

    @cached_property
    def scale(self) -> int:
        """Least common multiple of the weight denominators."""
        return math.lcm(*(w.denominator for _, _, w in self.edges))

    def scaled_kirchhoff(self) -> list[list[int]]:
        """``scale * (A - D)`` as a matrix of Python ints."""
        s = self.scale
        M = [[0] * self.n for _ in range(self.n)]
        for u, v, w in self.edges:
            iw = int(w * s)
            M[u][v] += iw
            M[v][u] += iw
            M[u][u] -= iw
            M[v][v] -= iw
        return M

    def exact_powers(self, kmax: int) -> list[np.ndarray]:
        """``M^0 .. M^kmax`` for ``M = scale * (A - D)``, exactly.

        int64 when the row-sum bound ``B^kmax`` stays below 2**62, Python
        ints otherwise.
        """
        M = self.scaled_kirchhoff()
        bound = max((sum(abs(e) for e in row) for row in M), default=0)
        dtype = np.int64 if bound**kmax < 2**62 else object
        Mx = np.array(M, dtype=dtype)
        powers = [np.eye(self.n, dtype=dtype)]
        for _ in range(kmax):
            powers.append(powers[-1] @ Mx)
        return powers

    def modular_powers(self, kmax: int, p: int) -> list[np.ndarray]:
        """``M^0 .. M^kmax`` modulo the prime p."""
        Mp = np.array(self.scaled_kirchhoff(), dtype=np.int64) % p
        powers = [np.eye(self.n, dtype=np.int64)]
        for _ in range(kmax):
            powers.append(powers[-1] @ Mp % p)
        return powers

    # -- spectra and kernels ----------------------------------------------------

    @cached_property
    def laplacian(self) -> np.ndarray:
        """The nonnegative Laplacian ``D - A`` in float64."""
        L = np.zeros((self.n, self.n))
        for u, v, w in self.edges:
            fw = float(w)
            L[u, v] -= fw
            L[v, u] -= fw
            L[u, u] += fw
            L[v, v] += fw
        return L

    @cached_property
    def eigh(self) -> tuple[np.ndarray, np.ndarray]:
        return np.linalg.eigh(self.laplacian)

    def kernel(self, t: float) -> np.ndarray:
        lam, V = self.eigh
        return (V * np.exp(-lam * t)) @ V.T

    @cached_property
    def total_degree(self) -> Fraction:
        return sum((2 * w for _, _, w in self.edges), Fraction(0))


# --- CSV checks -----------------------------------------------------------


def _flag_values(argv: tuple[str, ...], flag: str) -> list[str]:
    return [argv[i + 1] for i, a in enumerate(argv) if a == flag]


def _explicit_pairs(argv: tuple[str, ...]) -> list[tuple[str, str]] | None:
    pairs = [(argv[i + 1], argv[i + 2]) for i, a in enumerate(argv) if a == "--pair"]
    return pairs or None


def _pairs(ref: Ref, argv: tuple[str, ...], diagonal: bool) -> list[tuple[int, int]]:
    explicit = _explicit_pairs(argv)
    if explicit is not None:
        return [(ref.index[u], ref.index[v]) for u, v in explicit]
    lo = 0 if diagonal else 1
    return [(x, y) for x in range(ref.n) for y in range(x + lo, ref.n)]


def _rows(out: bytes, header: list[str], outcome: Outcome) -> list[list[str]] | None:
    lines = out.decode("utf-8").splitlines()
    if not lines or lines[0].split(",") != header:
        outcome.problems.append(f"header {lines[:1]!r} != {header!r}")
        return None
    return [line.split(",") for line in lines[1:]]


def _by_pair(out: bytes, header: list[str], ref: Ref, pairs, outcome: Outcome):
    """Rows grouped by their label pair, or None on a wrong header.

    Malformed rows and rows for pairs not asked for are problems.
    """
    rows = _rows(out, header, outcome)
    if rows is None:
        return None
    grouped: dict[tuple[int, int], list[list[str]]] = {}
    for row in rows:
        if len(row) != len(header) or row[0] not in ref.index or row[1] not in ref.index:
            outcome.problems.append(f"malformed row {row!r}")
            continue
        grouped.setdefault((ref.index[row[0]], ref.index[row[1]]), []).append(row)
    extra = set(grouped) - set(pairs)
    if extra:
        outcome.problems.append(f"{len(extra)} rows for pairs not asked for")
    return grouped


def check_kernel(ref: Ref, argv, out: bytes, outcome: Outcome) -> None:
    rows = _rows(out, ["t", "x_label", "y_label", "p"], outcome)
    if rows is None:
        return
    ts = [float(t) for t in _flag_values(argv, "--t")]
    uniformization = "uniformization" in argv
    pairs = _pairs(ref, argv, diagonal=True)
    values: dict[tuple[float, int, int], float] = {}
    for row in rows:
        try:
            values[(float(row[0]), ref.index[row[1]], ref.index[row[2]])] = float(row[3])
        except (ValueError, IndexError, KeyError):
            outcome.problems.append(f"malformed row {row!r}")
    if len(rows) != len(ts) * len(pairs):
        outcome.problems.append(f"{len(rows)} rows for {len(ts)} t x {len(pairs)} pairs")
    bad: set[tuple[int, int]] = set()
    for t in ts:
        K = ref.kernel(t)
        for x, y in pairs:
            p = values.get((t, x, y))
            if (
                p is None
                or not abs(p - K[x, y]) <= KERNEL_ATOL
                or (uniformization and p < 0)
                or values.get((t, y, x), p) != p  # symmetry, where both asked
            ):
                bad.add((x, y))
        if _explicit_pairs(argv) is None:
            # Unit row sums; a row already holding a wrong entry is not
            # counted twice, other rows fail through their diagonal pair.
            full = np.zeros((ref.n, ref.n))
            for x, y in pairs:
                full[x, y] = full[y, x] = values.get((t, x, y), math.nan)
            rows_with_bad = {v for pair in bad for v in pair}
            for x in np.flatnonzero(~(np.abs(full.sum(axis=1) - 1.0) <= ROW_SUM_TOL)):
                if int(x) not in rows_with_bad:
                    bad.add((int(x), int(x)))
    outcome.attempted += len(set(pairs))
    for _ in bad:
        outcome.fail("kernel.wrong")


def check_spectrum(ref: Ref, argv, out: bytes, outcome: Outcome) -> None:
    rows = _rows(out, ["k", "lambda"], outcome)
    if rows is None:
        return
    outcome.attempted += 1
    try:
        ks = [int(r[0]) for r in rows]
        lam = np.array([float(r[1]) for r in rows])
    except (ValueError, IndexError):
        outcome.problems.append("unparseable spectrum rows")
        return
    ref_lam = np.sort(ref.eigh[0])
    norm = max(float(np.abs(ref_lam).max(initial=0.0)), 1.0)
    tol = SPECTRUM_RTOL * norm
    ok = (
        ks == list(range(1, ref.n + 1))
        and lam.shape == ref_lam.shape
        and bool(np.all(np.diff(lam) >= 0))
        and bool(np.all(np.abs(lam - ref_lam) <= tol))
        and int(np.sum(np.abs(lam) <= 1e3 * tol)) == len(set(ref.component))
        and abs(float(lam.sum()) - float(ref.total_degree)) <= ref.n * tol
    )
    if not ok:
        outcome.fail("spectrum.wrong")


def check_series(ref: Ref, argv, out: bytes, outcome: Outcome) -> None:
    pairs = _pairs(ref, argv, diagonal=True)
    header = ["x_label", "y_label", "k", "numerator", "denominator"]
    grouped = _by_pair(out, header, ref, pairs, outcome)
    if grouped is None:
        return
    max_order = int((_flag_values(argv, "--max-order") or ["6"])[0])
    powers = ref.exact_powers(max_order)
    s = ref.scale
    outcome.attempted += len(pairs)
    for x, y in pairs:
        got = grouped.get((x, y), [])
        expected = [
            [str(k), *_num_den(Fraction(int(powers[k][x, y]), s**k * math.factorial(k)))]
            for k in range(max_order + 1)
        ]
        if [r[2:] for r in got] != expected:
            outcome.fail("series.wrong")


def _num_den(q: Fraction) -> list[str]:
    return [str(q.numerator), str(q.denominator)]


def _fmt_rational(q: Fraction) -> str:
    return str(q.numerator) if q.denominator == 1 else f"{q.numerator}/{q.denominator}"


_VERIFY_HEADER = [
    "x", "y", "d", "N", "leading_num", "leading_den", "next_num", "next_den",
    "vanish_ok", "leading_ok", "bipartite_sign",
]
_UNREACHABLE_TAIL = ["unreachable", "", "", "", "", "", "na", "na", "na"]


def check_verify(ref: Ref, argv, out: bytes, outcome: Outcome) -> None:
    pairs = _pairs(ref, argv, diagonal=False)
    grouped = _by_pair(out, _VERIFY_HEADER, ref, pairs, outcome)
    if grouped is None:
        return
    bipartite = ref.two_colouring is not None
    depth = ref.eccentricity + 1
    mod_powers = [(p, ref.modular_powers(depth, p)) for p in PRIMES]
    s = ref.scale
    outcome.attempted += len(pairs)
    for x, y in pairs:
        got = grouped.get((x, y), [])
        if len(got) != 1 or not _verify_row_ok(ref, x, y, got[0][2:], bipartite, mod_powers, s):
            outcome.fail("verify.wrong")


def _verify_row_ok(ref: Ref, x, y, row, bipartite, mod_powers, s) -> bool:
    dist, count, weight = ref.bfs(x)
    d = dist[y]
    if d is None:
        return row == _UNREACHABLE_TAIL
    n_geo = weight[y] if ref.weighted else Fraction(count[y])
    try:
        leading = Fraction(int(row[2]), int(row[3]))
        nxt = Fraction(int(row[4]), int(row[5]))
    except (ValueError, ZeroDivisionError):
        return False
    # The program's next coefficient, times (d+1)! s^(d+1), must be the
    # integer entry of M^(d+1).
    scaled_next = nxt * math.factorial(d + 1) * s ** (d + 1)
    return (
        row[0] == str(d)
        and row[1] == _fmt_rational(n_geo)
        and leading * math.factorial(d) == n_geo
        and row[6:8] == ["pass", "pass"]
        and scaled_next.denominator == 1
        and all(
            int(scaled_next.numerator % p) == int(pw[d + 1][x, y]) for p, pw in mod_powers
        )
        and (row[8] == "pass" and nxt < 0 if bipartite else row[8] == "na")
    )


def check_paths(ref: Ref, argv, out: bytes, outcome: Outcome) -> None:
    pairs = _pairs(ref, argv, diagonal=False)
    grouped = _by_pair(out, ["x", "y", "d", "count"], ref, pairs, outcome)
    if grouped is None:
        return
    outcome.attempted += len(pairs)
    for x, y in pairs:
        dist, count, _ = ref.bfs(x)
        want = ["unreachable" if dist[y] is None else str(dist[y]), str(count[y])]
        got = grouped.get((x, y), [])
        if len(got) != 1 or got[0][2:] != want:
            outcome.fail("paths.wrong")


def check_bipartite(ref: Ref, argv, out: bytes, outcome: Outcome) -> None:
    rows = _rows(out, ["bipartite", "x", "class"], outcome)
    if rows is None:
        return
    outcome.attempted += 1
    if rows == [["false", "", ""]]:
        ok = ref.two_colouring is None
    else:
        colour = {r[1]: r[2] for r in rows if len(r) == 3 and r[0] == "true"}
        ok = (
            len(rows) == ref.n
            and len(colour) == ref.n
            and set(colour) == set(ref.labels)
            and set(colour.values()) <= {"0", "1"}
            and all(colour[ref.labels[u]] != colour[ref.labels[v]] for u, v, _ in ref.edges)
        )
    if not ok:
        outcome.fail("bipartite.wrong")


def check_estimate(ref: Ref, argv, out: bytes, outcome: Outcome) -> None:
    pairs = _pairs(ref, argv, diagonal=False)
    header = ["x", "y", "d_hat", "N_hat", "t_used", "converged"]
    grouped = _by_pair(out, header, ref, pairs, outcome)
    if grouped is None:
        return
    outcome.attempted += len(pairs)
    for x, y in pairs:
        got = grouped.get((x, y), [])
        if len(got) != 1:
            outcome.fail("estimate.missing")
            continue
        d_hat, n_hat, _, converged = got[0][2:]
        dist, count, _ = ref.bfs(x)
        if d_hat == "":
            outcome.fail("estimate.blank")
        elif d_hat == "unreachable":
            if dist[y] is not None:
                outcome.fail("estimate.false_unreachable")
        elif (d_hat, n_hat, converged) != (str(dist[y]), str(count[y]), "true"):
            outcome.fail("estimate.wrong")


CHECKS = {
    "kernel": check_kernel,
    "spectrum": check_spectrum,
    "series": check_series,
    "verify": check_verify,
    "paths": check_paths,
    "bipartite": check_bipartite,
    "estimate": check_estimate,
}


def check(ref: Ref, argv: tuple[str, ...], out: bytes, status: int) -> Outcome:
    """Check one call's CSV output against the reference for its graph.

    Every call of the workloads exits 0, ``verify`` included (no verdict fails).
    """
    outcome = Outcome()
    if status != 0:
        outcome.problems.append(f"{argv[0]} exited {status}")
    CHECKS[argv[0]](ref, argv, out, outcome)
    return outcome
