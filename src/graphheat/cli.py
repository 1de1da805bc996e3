"""Command-line surface: CSV reports over edge-list graph files.

Every subcommand reads one graph file, writes one CSV report (stdout by
default), and exits 0 on success, 1 when a verification verdict failed, or
2 on input errors or a closed stdout.  Input errors include a non-finite
``--t``, ``--t0`` or ``--eps``, an ``--eps`` without ``--method
uniformization``, and a uniformization ``kernel`` whose ``c*t`` (largest
weighted degree times time) exceeds the engine's cap.  Output is deterministic
byte-for-byte for a fixed input, flag set and BLAS thread count: orderings
are stable and floats print in shortest round-trip form.  The
eigendecomposition and the kernel products run in BLAS/LAPACK, whose results
can differ in the last bits between thread counts; ``estimate`` rows read
thresholds off such values and can then change too.

Each subcommand is a generator: it checks its input, yields the header,
then its rows as whole CSV lines (each label quoted once as ``csv.writer``
quotes it), and returns its exit status.  :func:`run` takes the header
before it opens ``--output``, so every input error comes before the first
byte: exit status 2 means empty stdout and an untouched ``--output`` file.
Rows stream per time and per source, O(n) at a time rather than one per
pair.  ``verify`` walks O(m) per verified source, ``verify --pair`` colours
the graph once and walks only the cone between x and y of each pair, and
its exit status 1 is known only once its last row is written.

Only ``spectrum``, ``kernel`` and ``estimate`` load numpy; ``series``,
``verify``, ``paths`` and ``bipartite`` run in exact arithmetic without it.
Each subcommand imports the modules it runs when it runs: the three float
ones live in :mod:`graphheat.float_commands`, so an exact call neither
loads nor compiles them.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Generator, Iterable, Iterator

from .errors import EdgeListError, GraphHeatError
from .graphs import Graph, bfs_profile, is_bipartite, parse_edge_list


def _subcommand(sub, name: str, summary: str, pairs: bool = True) -> argparse.ArgumentParser:
    """Add subcommand ``name`` with ``--graph``, ``--output`` and, if ``pairs``, ``--pair``."""
    p = sub.add_parser(name, help=summary)
    p.add_argument("--graph", required=True, help="edge-list file (u v [weight] per line)")
    p.add_argument("--output", default=None, help="output CSV path (default: stdout)")
    if pairs:
        p.add_argument("--pair", nargs=2, action="append", metavar=("U", "V"),
                       help="restrict to this labelled pair (repeatable; default: all pairs)")
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphheat",
        description="Heat kernels on finite graphs: spectra, exact short-time "
        "series, verification reports, and distance estimation.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = _subcommand(sub, "kernel", "heat-kernel entries p_t(x, y)")
    p.add_argument("--t", dest="t_values", type=float, action="append", required=True,
                   metavar="T", help="evaluation time (repeatable)")
    p.add_argument("--method", choices=("spectral", "uniformization"), default="spectral")
    p.add_argument("--eps", type=float, default=None,
                   help="uniformization only: tail bound (default 1e-12)")

    _subcommand(sub, "spectrum", "Laplacian eigenvalues, ascending", pairs=False)

    p = _subcommand(sub, "series", "exact Taylor coefficients of p_t(x, y)")
    p.add_argument("--max-order", dest="max_order", type=int, default=6,
                   help="highest coefficient order to emit (default 6)")

    _subcommand(sub, "verify", "short-time expansion checks per pair")

    p = _subcommand(sub, "estimate", "recover (distance, geodesic count) from kernel samples")
    p.add_argument("--method", choices=("spectral", "uniformization"), default="spectral")
    p.add_argument("--t0", type=float, default=None,
                   help="largest sample time (default min(0.1, 1/(2 max degree)))")
    p.add_argument("--levels", type=int, default=16,
                   help="number of dyadic refinement levels (default 16)")
    p.add_argument("--eps", type=float, default=None,
                   help="uniformization only: sampler tail bound (default: positivity floor)")

    _subcommand(sub, "paths", "distance and geodesic count per pair")

    _subcommand(sub, "bipartite", "two-colouring, if one exists", pairs=False)

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

    Parsed labels hold no whitespace, so no line break: ``csv.writer`` then
    quotes a label only for a ``,`` or a ``"``, and doubles each ``"``.
    """
    return ['"' + v.replace('"', '""') + '"' if "," in v or '"' in v else v for v in labels]


# --- subcommand implementations ----------------------------------------------


def _cmd_series(g: Graph, args: argparse.Namespace):
    from .series import series_prefix

    if args.max_order < 0:
        raise ValueError(f"--max-order must be nonnegative, got {args.max_order}")
    pairs = _resolve_pairs(g, args.pair, include_diagonal=True)
    labels = _csv_fields(g.labels)
    yield "x_label,y_label,k,numerator,denominator\n"
    for x, y in pairs:
        head = f"{labels[x]},{labels[y]},"
        # Consecutive pairs from one source share one walk (see series_prefix).
        yield "".join([
            f"{head}{k},{c.numerator},{c.denominator}\n"
            for k, c in enumerate(series_prefix(g, x, y, args.max_order))
        ])
    return 0


def _cmd_verify(g: Graph, args: argparse.Namespace):
    from .verification import _verify_pairs, _verify_source

    if args.pair is None:
        results = _verify_pairs(g)
    else:
        pairs = _resolve_pairs(g, args.pair, include_diagonal=True)
        colors = is_bipartite(g)
        results = ((x, y, r) for x, y in pairs for r in _verify_source(g, x, (y,), colors))
    labels = _csv_fields(g.labels)
    yield (
        "x,y,d,N,leading_num,leading_den,next_num,next_den,"
        "vanish_ok,leading_ok,bipartite_sign\n"
    )
    failed = False
    for x, y, r in results:
        head = f"{labels[x]},{labels[y]},"
        if r is None:  # a pair split across components
            yield f"{head}unreachable,,,,,,na,na,na\n"
            continue
        failed = failed or not r.passed
        lead, after = r.leading, r.next_coeff
        yield (
            f"{head}{r.d},{r.n_geodesics},"
            f"{lead.numerator},{lead.denominator},{after.numerator},{after.denominator},"
            f"{r.vanish_ok},{r.leading_ok},{r.bipartite_sign}\n"
        )
    return 1 if failed else 0


def _cmd_paths(g: Graph, args: argparse.Namespace):
    pairs = _resolve_pairs(g, args.pair, include_diagonal=False)
    labels = _csv_fields(g.labels)
    yield "x,y,d,count\n"
    # One profile per source, kept until the source changes: all pairs come
    # source by source.
    source = profile = None
    for x, y in pairs:
        if x != source:
            source, profile = x, bfs_profile(g, x)
        d = profile.dist[y]
        d = "unreachable" if d is None else d
        yield f"{labels[x]},{labels[y]},{d},{profile.geodesic_count[y]}\n"
    return 0


def _cmd_bipartite(g: Graph, args: argparse.Namespace):
    colors = is_bipartite(g)
    yield "bipartite,x,class\n"
    if colors is None:
        yield "false,,\n"
    else:
        for lx, c in zip(_csv_fields(g.labels), colors):
            yield f"true,{lx},{c}\n"
    return 0


_EXACT_COMMANDS = {
    "series": _cmd_series,
    "verify": _cmd_verify,
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
    command = _EXACT_COMMANDS.get(args.subcommand)
    if command is None:  # kernel, spectrum or estimate
        from .float_commands import COMMANDS

        command = COMMANDS[args.subcommand]
    with open(args.graph, encoding="utf-8") as fh:
        g = parse_edge_list(fh.read())
    # The subcommand's input checks have all run once its header is taken;
    # --output is opened only then.
    lines = command(g, args)
    header = next(lines)
    status = []
    with (
        contextlib.nullcontext(sys.stdout)
        if args.output is None or args.output == "-"
        else open(args.output, "w", encoding="utf-8", newline="")
    ) as fh:
        fh.write(header)
        fh.writelines(_keep_return(lines, status))
    return status[0]


def _keep_return(lines: Generator[str, None, int], status: list[int]) -> Iterator[str]:
    """Yield what ``lines`` yields, then append its return value to ``status``."""
    status.append((yield from lines))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (OSError, ValueError, GraphHeatError) as exc:
        where = f"{args.graph}: " if isinstance(exc, EdgeListError) else ""
        if isinstance(exc, BrokenPipeError):  # stdout is closed: flush it to nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        try:
            print(f"error: {where}{exc}", file=sys.stderr)
        except BrokenPipeError:  # a closed stderr: the error line goes nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stderr.fileno())
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
