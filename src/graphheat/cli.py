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

``kernel``, ``estimate``, ``series``, ``paths`` and ``verify`` stream their
rows, per time and per source, so they hold O(n) rows at a time rather than
one per pair.  Every input error is raised before the first byte is written,
so exit status 2 still means empty stdout and an untouched ``--output`` file.
The exit status 1 of ``verify`` is known only once its last row is written.

Only ``spectrum``, ``kernel`` and ``estimate`` load numpy; ``series``,
``verify``, ``paths`` and ``bipartite`` run in exact arithmetic without it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import io
import sys
from collections.abc import Iterable, Sequence

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
    _verify_pairs,
    check_schedule,
    estimate_pair,
    spectral_sampler,
    uniformization_sampler,
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
) -> Iterable[tuple[int, int]]:
    """The ``--pair`` pairs, resolved now, or else all pairs ``x <= y``
    (``x < y`` without the diagonal), made as they are read."""
    if explicit is not None:
        return [(g.index_of(u), g.index_of(v)) for u, v in explicit]
    lo = 0 if include_diagonal else 1
    return ((x, y) for x in range(g.n) for y in range(x + lo, g.n))


def _csv_fields(labels: Iterable[str]) -> list[str]:
    """Each label as ``csv.writer`` writes it as one field of a row.

    Each is written in a row of two, "<field>,": a lone empty field would
    print as "".  Parsed labels hold no line break to split on.
    """
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows((v, "") for v in labels)
    return [line[:-1] for line in buf.getvalue().split("\n")[:-1]]


def _write_csv(
    output: str | None, header: list[str] | str, rows: Iterable[Sequence[str]] | Iterable[str]
) -> None:
    """Write the header, then each row as the iterable yields it.

    A header given as one line of CSV text says that the rows come as CSV
    text too, in blocks of whole lines, which are written as they are.
    """
    to_stdout = output is None or output == "-"
    with (
        contextlib.nullcontext(sys.stdout)
        if to_stdout
        else open(output, "w", encoding="utf-8", newline="")
    ) as fh:
        if isinstance(header, str):
            fh.write(header)
            fh.writelines(rows)
        else:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)


# --- subcommand implementations ----------------------------------------------


def _cmd_kernel(g: Graph, args: argparse.Namespace):
    from .kernels import DEFAULT_EPS, kernel_spectral, kernel_uniformization
    from .spectral import eigendecompose, kirchhoff_matrix

    pairs = None if args.pair is None else _resolve_pairs(g, args.pair, include_diagonal=True)
    eps = DEFAULT_EPS if args.eps is None else args.eps
    sources = None
    at = pairs
    if args.method == "uniformization" and pairs is not None:
        # Sum only the rows read.  The row block is not symmetric, so every
        # pair is read at its smaller end and (x, y), (y, x) print one value.
        sources = sorted({min(pair) for pair in pairs})
        row_of = {x: i for i, x in enumerate(sources)}
        at = [(row_of[min(pair)], max(pair)) for pair in pairs]
    # Every kernel is made before the first row, so a bad --t raises first;
    # T kernels of n^2 floats are far smaller than their rows.
    if args.method == "spectral":
        dec = eigendecompose(kirchhoff_matrix(g))
        kernels = [kernel_spectral(dec, t) for t in args.t_values]
    else:
        kernels = kernel_uniformization(g, args.t_values, eps, rows=sources)  # one pass
    # Rows are joined here, a block per source, with each label quoted once
    # as csv.writer quotes it; times and repr'd floats never need quoting.
    labels = _csv_fields(g.labels)

    def rows():
        for t, K in zip(args.t_values, kernels):
            ts = _fmt_float(t)
            if pairs is None:
                for x, lx in enumerate(labels):
                    # One source's upper-triangle row at a time; + 0.0 maps
                    # -0.0 to 0.0 and repr prints what _fmt_float prints.
                    head = f"{ts},{lx},"
                    yield "".join([
                        f"{head}{ly},{p!r}\n"
                        for ly, p in zip(labels[x:], (K[x, x:] + 0.0).tolist())
                    ])
            else:
                for (x, y), (i, j) in zip(pairs, at):
                    yield f"{ts},{labels[x]},{labels[y]},{_fmt_float(K[i, j])}\n"

    return "t,x_label,y_label,p\n", rows(), lambda: 0


def _cmd_spectrum(g: Graph, args: argparse.Namespace):
    from .spectral import eigendecompose, kirchhoff_matrix

    dec = eigendecompose(kirchhoff_matrix(g))
    rows = [
        [str(k + 1), _fmt_float(lam)] for k, lam in enumerate(dec.lambdas)
    ]
    return ["k", "lambda"], rows, lambda: 0


def _cmd_series(g: Graph, args: argparse.Namespace):
    if args.max_order < 0:
        raise ValueError(f"--max-order must be nonnegative, got {args.max_order}")
    pairs = _resolve_pairs(g, args.pair, include_diagonal=True)

    def rows():
        for x, y in pairs:
            # Consecutive pairs from one source share one walk (see series_prefix).
            for k, c in enumerate(series_prefix(g, x, y, args.max_order)):
                yield [g.labels[x], g.labels[y], str(k), str(c.numerator), str(c.denominator)]

    return ["x_label", "y_label", "k", "numerator", "denominator"], rows(), lambda: 0


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
        results = _verify_pairs(g)
    else:
        pairs = _resolve_pairs(g, args.pair, include_diagonal=True)

        def explicit():
            for x, y in pairs:
                try:
                    yield verify_pair(g, x, y)
                except UnreachableError:
                    yield g.labels[x], g.labels[y]

        results = explicit()
    failed = False

    def rows():
        nonlocal failed
        for r in results:
            failed = failed or (isinstance(r, VaradhanReport) and not r.passed)
            yield _verify_row(r)

    # Exit 1 if any verdict failed, which is known once the last row is written.
    return _VERIFY_HEADER, rows(), lambda: 1 if failed else 0


def _cmd_estimate(g: Graph, args: argparse.Namespace):
    eps = POSITIVITY_FLOOR if args.eps is None else args.eps
    if args.method == "uniformization":
        from .kernels import _check_ct, _check_eps

        _check_eps(eps)
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
    # Every input is checked before a sampler is made: the spectral one
    # decomposes the graph at once.
    if args.method == "spectral":
        sampler = spectral_sampler(g)
    else:
        # Every sample time is at most t0, so this is the engine's c*t check
        # of every sample, made before the first row.
        _check_ct(g.max_weighted_degree(), t0)
        # The times estimate_pair reads, with its expression.  0.5**j is 0.0
        # past j = 1074, so a deeper time is 0.0 too and adds nothing.
        times = [t0 * 0.5**j for j in range(min(args.levels, 1075) + 1)]
        sampler = uniformization_sampler(g, eps, times)

    labels = _csv_fields(g.labels)

    def rows():
        for x, y in pairs:
            head = f"{labels[x]},{labels[y]},"
            try:
                est = estimate_pair(sampler, x, y, t0=t0, levels=args.levels)
            except (NoConvergence, PositivityFloor):
                yield f"{head},,,false\n"
                continue
            if est.unreachable:
                yield f"{head}unreachable,,{_fmt_float(est.t_used)},false\n"
            else:
                yield f"{head}{est.d_hat},{est.n_hat},{_fmt_float(est.t_used)},true\n"

    return "x,y,d_hat,N_hat,t_used,converged\n", rows(), lambda: 0


def _cmd_paths(g: Graph, args: argparse.Namespace):
    pairs = _resolve_pairs(g, args.pair, include_diagonal=False)
    # One profile per source; the global bfs_profile is read at each new
    # source.  All pairs come source by source, so only the latest is kept.
    profile_of = functools.lru_cache(maxsize=None if args.pair else 1)(
        lambda x: bfs_profile(g, x)
    )

    def rows():
        for x, y in pairs:
            profile = profile_of(x)
            d = profile.dist[y]
            count = profile.geodesic_count[y]
            yield [g.labels[x], g.labels[y], "unreachable" if d is None else str(d), str(count)]

    return ["x", "y", "d", "count"], rows(), lambda: 0


def _cmd_bipartite(g: Graph, args: argparse.Namespace):
    colors = is_bipartite(g)
    if colors is None:
        rows = [["false", "", ""]]
    else:
        rows = [["true", g.labels[v], str(colors[v])] for v in range(g.n)]
    return ["bipartite", "x", "class"], rows, lambda: 0


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
    with open(args.graph, encoding="utf-8") as fh:
        g = parse_edge_list(fh.read())
    # Each subcommand returns its header, its rows and a callable giving the
    # exit status, read once the last row is written.
    header, rows, status = _DISPATCH[args.subcommand](g, args)
    _write_csv(args.output, header, rows)
    return status()


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
