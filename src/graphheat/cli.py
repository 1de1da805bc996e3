"""Command-line surface: CSV reports over edge-list graph files.

Every subcommand reads one graph file, writes one CSV report (stdout by
default), and exits 0 on success, 1 when a verification verdict failed, or
2 on input errors.  Input errors include a non-finite ``--t``, ``--t0`` or
``--eps``, an ``--eps`` without ``--method uniformization``, and a
uniformization ``kernel`` whose ``c*t`` (largest weighted degree times time)
exceeds the engine's cap.  Output is deterministic
byte-for-byte for a fixed input, flag set and BLAS thread count: orderings
are stable and floats print in shortest round-trip form.  The
eigendecomposition and the kernel products run in BLAS/LAPACK, whose results
can differ in the last bits between thread counts; ``estimate`` rows read
thresholds off such values and can then change too.

Only ``spectrum``, ``kernel`` and ``estimate`` load numpy; ``series``,
``verify``, ``paths`` and ``bipartite`` run in exact arithmetic without it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import sys
from pathlib import Path

from .errors import (
    EdgeListError,
    GraphHeatError,
    NoConvergence,
    PositivityFloor,
    UnreachableError,
)
from .graphs import Graph, bfs_profile, is_bipartite, parse_edge_list
from .series import series_prefix
from .varadhan import (
    POSITIVITY_FLOOR,
    VaradhanReport,
    check_schedule,
    estimate_pair,
    spectral_sampler,
    uniformization_sampler,
    verify_graph,
    verify_pair,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphheat",
        description="Heat kernels on finite graphs: spectra, exact short-time "
        "series, verification reports, and distance estimation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--graph", required=True, help="edge-list file (u v [weight] per line)")
        p.add_argument("--output", default=None, help="output CSV path (default: stdout)")

    def pair_flag(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--pair",
            nargs=2,
            action="append",
            metavar=("U", "V"),
            help="restrict to this labelled pair (repeatable; default: all pairs)",
        )

    p = sub.add_parser("kernel", help="heat-kernel entries p_t(x, y)")
    common(p)
    pair_flag(p)
    p.add_argument("--t", dest="t_values", type=float, action="append", required=True,
                   metavar="T", help="evaluation time (repeatable)")
    p.add_argument("--method", choices=("spectral", "uniformization"), default="spectral")
    p.add_argument("--eps", type=float, default=None,
                   help="uniformization only: tail bound (default 1e-12)")

    p = sub.add_parser("spectrum", help="Laplacian eigenvalues, ascending")
    common(p)

    p = sub.add_parser("series", help="exact Taylor coefficients of p_t(x, y)")
    common(p)
    pair_flag(p)
    p.add_argument("--max-order", dest="max_order", type=int, default=6,
                   help="highest coefficient order to emit (default 6)")

    p = sub.add_parser("verify", help="short-time expansion checks per pair")
    common(p)
    pair_flag(p)

    p = sub.add_parser("estimate", help="recover (distance, geodesic count) from kernel samples")
    common(p)
    pair_flag(p)
    p.add_argument("--method", choices=("spectral", "uniformization"), default="spectral")
    p.add_argument("--t0", type=float, default=None,
                   help="largest sample time (default min(0.1, 1/(2 max degree)))")
    p.add_argument("--levels", type=int, default=16,
                   help="number of dyadic refinement levels (default 16)")
    p.add_argument("--eps", type=float, default=None,
                   help="uniformization only: sampler tail bound (default: positivity floor)")

    p = sub.add_parser("paths", help="distance and geodesic count per pair")
    common(p)
    pair_flag(p)

    p = sub.add_parser("bipartite", help="two-colouring, if one exists")
    common(p)

    return parser


# --- formatting helpers -----------------------------------------------------


def _fmt_float(v: float) -> str:
    return repr(float(v) + 0.0)  # + 0.0 normalizes -0.0


def _resolve_pairs(
    g: Graph,
    explicit: list[list[str]] | None,
    include_diagonal: bool,
) -> list[tuple[int, int]]:
    if explicit is not None:
        return [(g.index_of(u), g.index_of(v)) for u, v in explicit]
    lo = 0 if include_diagonal else 1
    return [(x, y) for x in range(g.n) for y in range(x + lo, g.n)]


def _write_csv(output: str | None, header: list[str], rows: list[list[str]]) -> None:
    to_stdout = output is None or output == "-"
    with (
        contextlib.nullcontext(sys.stdout)
        if to_stdout
        else open(output, "w", encoding="utf-8", newline="")
    ) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


# --- subcommand implementations ----------------------------------------------


def _cmd_kernel(g: Graph, args: argparse.Namespace):
    from .kernels import DEFAULT_EPS, kernel_spectral, kernel_uniformization
    from .spectral import eigendecompose, kirchhoff_matrix

    pairs = _resolve_pairs(g, args.pair, include_diagonal=True)
    eps = DEFAULT_EPS if args.eps is None else args.eps
    rows = []
    dec = eigendecompose(kirchhoff_matrix(g)) if args.method == "spectral" else None
    sources = None
    at = pairs
    if args.method == "uniformization" and args.pair is not None:
        # Sum only the rows read.  The row block is not symmetric, so every
        # pair is read at its smaller end and (x, y), (y, x) print one value.
        sources = sorted({min(pair) for pair in pairs})
        row_of = {x: i for i, x in enumerate(sources)}
        at = [(row_of[min(pair)], max(pair)) for pair in pairs]
    for t in args.t_values:
        if args.method == "spectral":
            K = kernel_spectral(dec, t)
        else:
            K = kernel_uniformization(g, t, eps, rows=sources)
        for (x, y), (i, j) in zip(pairs, at):
            rows.append([_fmt_float(t), g.labels[x], g.labels[y], _fmt_float(K[i, j])])
    return ["t", "x_label", "y_label", "p"], rows, 0


def _cmd_spectrum(g: Graph, args: argparse.Namespace):
    from .spectral import eigendecompose, kirchhoff_matrix

    dec = eigendecompose(kirchhoff_matrix(g))
    rows = [
        [str(k + 1), _fmt_float(lam)] for k, lam in enumerate(dec.lambdas)
    ]
    return ["k", "lambda"], rows, 0


def _cmd_series(g: Graph, args: argparse.Namespace):
    if args.max_order < 0:
        raise ValueError(f"--max-order must be nonnegative, got {args.max_order}")
    pairs = _resolve_pairs(g, args.pair, include_diagonal=True)
    rows = []
    for x, y in pairs:
        # Consecutive pairs from one source share one walk (see series_prefix).
        for k, c in enumerate(series_prefix(g, x, y, args.max_order)):
            rows.append(
                [g.labels[x], g.labels[y], str(k), str(c.numerator), str(c.denominator)]
            )
    return ["x_label", "y_label", "k", "numerator", "denominator"], rows, 0


_VERIFY_HEADER = [
    "x", "y", "d", "N",
    "leading_num", "leading_den", "next_num", "next_den",
    "vanish_ok", "leading_ok", "bipartite_sign",
]


def _verify_row(report: VaradhanReport | tuple[str, str]) -> list[str]:
    if isinstance(report, tuple):  # the labels of a pair split across components
        return [*report, "unreachable", "", "", "", "", "", "na", "na", "na"]
    return [
        report.x,
        report.y,
        str(report.d),
        str(report.n_geodesics),
        str(report.leading.numerator),
        str(report.leading.denominator),
        str(report.next_coeff.numerator),
        str(report.next_coeff.denominator),
        report.vanish_ok,
        report.leading_ok,
        report.bipartite_sign,
    ]


def _cmd_verify(g: Graph, args: argparse.Namespace):
    if args.pair is None:
        summary = verify_graph(g)
        results = [*summary.reports, *summary.skipped]
    else:
        results = []
        for x, y in _resolve_pairs(g, args.pair, include_diagonal=True):
            try:
                results.append(verify_pair(g, x, y))
            except UnreachableError:
                results.append((g.labels[x], g.labels[y]))
    rows = [_verify_row(r) for r in results]
    any_fail = any(isinstance(r, VaradhanReport) and not r.passed for r in results)
    return _VERIFY_HEADER, rows, (1 if any_fail else 0)


def _cmd_estimate(g: Graph, args: argparse.Namespace):
    if args.method == "spectral":
        sampler = spectral_sampler(g)
    else:
        sampler = uniformization_sampler(g, POSITIVITY_FLOOR if args.eps is None else args.eps)
    if args.t0 is not None:
        t0 = args.t0
    else:
        c = g.max_weighted_degree()
        t0 = min(0.1, 0.5 / c) if c > 0 else 0.1
        if t0 < sys.float_info.min:
            raise ValueError(
                f"largest weighted degree {c!r} is too large for the default "
                f"t0 = 0.5/c = {t0!r}; give --t0"
            )
    pairs = _resolve_pairs(g, args.pair, include_diagonal=False)
    check_schedule(t0, args.levels)  # also on a graph without pairs
    rows = []
    for x, y in pairs:
        lx, ly = g.labels[x], g.labels[y]
        try:
            est = estimate_pair(sampler, x, y, t0=t0, levels=args.levels)
        except (NoConvergence, PositivityFloor):
            rows.append([lx, ly, "", "", "", "false"])
            continue
        if est.unreachable:
            rows.append([lx, ly, "unreachable", "", _fmt_float(est.t_used), "false"])
        else:
            rows.append(
                [lx, ly, str(est.d_hat), str(est.n_hat), _fmt_float(est.t_used), "true"]
            )
    return ["x", "y", "d_hat", "N_hat", "t_used", "converged"], rows, 0


def _cmd_paths(g: Graph, args: argparse.Namespace):
    profiles: dict[int, object] = {}
    rows = []
    for x, y in _resolve_pairs(g, args.pair, include_diagonal=False):
        profile = profiles.get(x)
        if profile is None:
            profile = profiles[x] = bfs_profile(g, x)
        d = profile.dist[y]  # type: ignore[attr-defined]
        count = profile.geodesic_count[y]  # type: ignore[attr-defined]
        rows.append(
            [g.labels[x], g.labels[y], "unreachable" if d is None else str(d), str(count)]
        )
    return ["x", "y", "d", "count"], rows, 0


def _cmd_bipartite(g: Graph, args: argparse.Namespace):
    colors = is_bipartite(g)
    if colors is None:
        rows = [["false", "", ""]]
    else:
        rows = [["true", g.labels[v], str(colors[v])] for v in range(g.n)]
    return ["bipartite", "x", "class"], rows, 0


_DISPATCH = {
    "kernel": _cmd_kernel,
    "spectrum": _cmd_spectrum,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "estimate": _cmd_estimate,
    "paths": _cmd_paths,
    "bipartite": _cmd_bipartite,
}


def __getattr__(name: str):
    # ``cli.eigendecompose`` stays readable without loading numpy at import.
    if name == "eigendecompose":
        from .spectral import eigendecompose

        return eigendecompose
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run(args: argparse.Namespace) -> int:
    """Execute one parsed invocation; returns the process exit status."""
    if getattr(args, "eps", None) is not None and args.method != "uniformization":
        raise ValueError("--eps applies only to --method uniformization")
    text = Path(args.graph).read_text(encoding="utf-8")
    g = parse_edge_list(text)
    header, rows, status = _DISPATCH[args.subcommand](g, args)
    _write_csv(args.output, header, rows)
    return status


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except EdgeListError as exc:
        print(f"error: {args.graph}: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, GraphHeatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
