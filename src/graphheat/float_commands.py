"""The numpy-backed subcommands: ``kernel``, ``spectrum`` and ``estimate``.

:mod:`graphheat.cli` imports this module only to run one of them, so the
exact subcommands neither load numpy nor compile these commands.  Each one
is a generator, as :func:`graphheat.cli.run` reads it: it checks its input,
yields the header line, then its rows, and returns the exit status 0.
"""

from __future__ import annotations

import argparse
import functools
import sys

# Read as ``varadhan.name`` at each call, where a tracer or a test may have
# rebound it.  Imported with this module, before the graph is parsed: compiled
# after it, ``estimate`` raised its peak resident set by about 0.07 MiB.
from . import varadhan
from .cli import _csv_fields, _resolve_pairs
from .errors import NoConvergence
from .graphs import Graph


def _fmt_float(v: float) -> str:
    return repr(float(v) + 0.0)  # + 0.0 normalizes -0.0


def _cmd_kernel(g: Graph, args: argparse.Namespace):
    from .kernels import DEFAULT_EPS, kernel_spectral, kernel_uniformization
    from .spectral import eigendecompose, kirchhoff_matrix

    pairs = None if args.pair is None else _resolve_pairs(g, args.pair, include_diagonal=True)
    at = pairs
    # Every kernel is made before the first row, so a bad --t raises first;
    # T kernels of n^2 floats are far smaller than their rows.
    if args.method == "spectral":
        if args.eps is not None:
            raise ValueError("--eps applies only to --method uniformization")
        dec = eigendecompose(kirchhoff_matrix(g))
        kernels = [kernel_spectral(dec, t) for t in args.t_values]
    else:
        sources = None
        if pairs is not None:
            # Sum only the rows read.  The row block is not symmetric, so every
            # pair is read at its smaller end and (x, y), (y, x) print one value.
            sources = sorted({min(pair) for pair in pairs})
            row_of = {x: i for i, x in enumerate(sources)}
            at = [(row_of[min(pair)], max(pair)) for pair in pairs]
        eps = DEFAULT_EPS if args.eps is None else args.eps
        kernels = kernel_uniformization(g, args.t_values, eps, rows=sources)  # one pass
    # A block of rows per source; times and repr'd floats need no quoting.
    labels = _csv_fields(g.labels)
    yield "t,x_label,y_label,p\n"
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
    return 0


def _cmd_spectrum(g: Graph, args: argparse.Namespace):
    from .spectral import eigendecompose, kirchhoff_matrix

    dec = eigendecompose(kirchhoff_matrix(g))
    yield "k,lambda\n"
    for k, lam in enumerate(dec.lambdas, 1):
        yield f"{k},{_fmt_float(lam)}\n"
    return 0


def _cmd_estimate(g: Graph, args: argparse.Namespace):
    t0 = args.t0
    if t0 is None:
        c = g.max_weighted_degree()
        t0 = min(0.1, 0.5 / c) if c > 0 else 0.1
        if t0 < sys.float_info.min:
            raise ValueError(
                f"largest weighted degree {c!r} is too large for the default "
                f"t0 = 0.5/c = {t0!r}; give --t0"
            )
    pairs = _resolve_pairs(g, args.pair, include_diagonal=False)
    varadhan.check_schedule(t0, args.levels)  # also on a graph without pairs
    # Every input is checked before a sampler is made: the spectral one
    # decomposes the graph at once, and the uniformization one checks the
    # c*t of its largest time, t0.
    if args.method == "spectral":
        sampler = varadhan.spectral_sampler(g)
    else:  # its kernels are summed at the times estimate_pair reads
        sampler = varadhan.uniformization_sampler(g, varadhan._dyadic_times(t0, args.levels))
    labels = _csv_fields(g.labels)
    fmt_t = functools.cache(_fmt_float)  # rows share the few dyadic times
    yield "x,y,d_hat,N_hat,t_used,converged\n"
    for x, y in pairs:
        head = f"{labels[x]},{labels[y]},"
        try:
            est = varadhan.estimate_pair(sampler, x, y, t0=t0, levels=args.levels)
        except NoConvergence:
            yield f"{head},,,false\n"
            continue
        if est.unreachable:
            yield f"{head}unreachable,,{fmt_t(est.t_used)},false\n"
        else:
            yield f"{head}{est.d_hat},{est.n_hat},{fmt_t(est.t_used)},true\n"
    return 0


COMMANDS = {
    "kernel": _cmd_kernel,
    "spectrum": _cmd_spectrum,
    "estimate": _cmd_estimate,
}
