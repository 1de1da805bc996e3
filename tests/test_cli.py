"""CSV command-line surface: schemas, golden rows, exit codes, determinism."""

import math
import os
import shlex
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpus
from graphheat import VaradhanReport, bfs_profile, parse_edge_list
from graphheat import cli, series, varadhan, verification
from graphheat.cli import main

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: pytest itself depends on tomli there
    import tomli as tomllib

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"
GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.fixture()
def grid_file(tmp_path):
    p = tmp_path / "grid.txt"
    p.write_text(corpus.REFERENCE_GRID_TEXT, encoding="utf-8")
    return str(p)


@pytest.fixture()
def two_component_file(tmp_path):
    p = tmp_path / "split.txt"
    p.write_text("a b\nb c\nd e\n", encoding="utf-8")
    return str(p)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- kernel ------------------------------------------------------------------


def test_kernel_single_edge_values(capsys, tmp_path):
    p = tmp_path / "edge.txt"
    p.write_text("u v\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["kernel", "--graph", str(p), "--t", "0.5"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,x_label,y_label,p"
    # all pairs with the diagonal: uu, uv, vv
    assert len(lines) == 4
    diag = (1 + math.exp(-1.0)) / 2
    off = (1 - math.exp(-1.0)) / 2
    got = {tuple(line.split(",")[1:3]): float(line.split(",")[3]) for line in lines[1:]}
    assert got[("u", "u")] == pytest.approx(diag, abs=1e-14)
    assert got[("u", "v")] == pytest.approx(off, abs=1e-14)
    assert got[("v", "v")] == pytest.approx(diag, abs=1e-14)


def test_kernel_multiple_times_and_pair_selection(capsys, grid_file):
    code, out, _ = run_cli(
        capsys,
        ["kernel", "--graph", grid_file, "--t", "0.1", "--t", "1.0",
         "--pair", "a0", "b2", "--pair", "a0", "a0"],
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5  # header + 2 pairs x 2 times
    assert lines[1].startswith("0.1,a0,b2,")
    assert lines[3].startswith("1.0,a0,b2,")


def test_kernel_methods_agree(capsys, grid_file):
    _, out_s, _ = run_cli(capsys, ["kernel", "--graph", grid_file, "--t", "0.3"])
    _, out_u, _ = run_cli(
        capsys, ["kernel", "--graph", grid_file, "--t", "0.3", "--method", "uniformization"]
    )
    rows_s = [line.split(",") for line in out_s.splitlines()[1:]]
    rows_u = [line.split(",") for line in out_u.splitlines()[1:]]
    for a, b in zip(rows_s, rows_u):
        assert a[:3] == b[:3]
        assert float(a[3]) == pytest.approx(float(b[3]), abs=1e-12)


def test_kernel_output_is_deterministic(capsys, grid_file):
    argv = ["kernel", "--graph", grid_file, "--t", "0.7"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_uniformization_kernel_pairs_sum_only_their_rows(capsys, monkeypatch):
    from graphheat import kernels  # here: the numpy-free CI job imports this file

    graph = str(GOLDEN / "weighted_grid.txt")
    n = 6  # the weighted 2x3 grid
    argv = ["kernel", "--graph", graph, "--t", "0.3", "--t", "1.0", "--method", "uniformization"]
    _, full_out, _ = run_cli(capsys, argv)
    full = {tuple(line.split(",")[:3]): float(line.split(",")[3])
            for line in full_out.splitlines()[1:]}

    block_rows = []
    real = kernels._poisson_series

    def recording(P, B, terms):
        block_rows.append(B.shape[0])
        return real(P, B, terms)

    monkeypatch.setattr(kernels, "_poisson_series", recording)
    code, out, _ = run_cli(
        capsys, [*argv, "--pair", "a0", "b2", "--pair", "b2", "a0", "--pair", "a1", "a1"]
    )
    assert code == 0
    assert block_rows and all(rows < n for rows in block_rows)
    lines = out.splitlines()
    assert lines[0] == "t,x_label,y_label,p"
    assert [line.split(",")[:3] for line in lines[1:]] == [
        [t, x, y] for t in ("0.3", "1.0") for x, y in (("a0", "b2"), ("b2", "a0"), ("a1", "a1"))
    ]
    for first in (1, 4):  # (a0, b2) and (b2, a0) print the same bytes
        assert lines[first].split(",")[3] == lines[first + 1].split(",")[3]
    for line in lines[1:]:
        t, x, y, p = line.split(",")
        want = full.get((t, x, y), full.get((t, y, x)))
        assert float(p) == pytest.approx(want, rel=0, abs=1e-12)


_QUOTED_LABELS = 'a,b q"x\nq"x p\np a,b 3/2\n'


@pytest.mark.parametrize("method", ["spectral", "uniformization"])
def test_kernel_rows_are_what_csv_writer_prints(capsys, tmp_path, method):
    import csv
    import io

    from graphheat import eigendecompose, kernel_spectral, kernel_uniformization, kirchhoff_matrix

    p = tmp_path / "quoted.txt"
    p.write_text(_QUOTED_LABELS, encoding="utf-8")
    g = parse_edge_list(_QUOTED_LABELS)
    times = ["0.5", "2.0"]
    code, out, _ = run_cli(capsys, ["kernel", "--graph", str(p), "--method", method,
                                    *(f"--t={t}" for t in times)])
    assert code == 0
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["t", "x_label", "y_label", "p"])
    for t in times:
        if method == "spectral":
            K = kernel_spectral(eigendecompose(kirchhoff_matrix(g)), float(t))
        else:
            K = kernel_uniformization(g, float(t))
        for x in range(g.n):
            for y in range(x, g.n):
                writer.writerow([t, g.labels[x], g.labels[y], cli._fmt_float(K[x, y])])
    assert '"a,b","q""x",' in out
    assert out == want.getvalue()


# A path of quoted labels and a separate edge: bipartite, two components.
_QUOTED_SPLIT = 'a,b q"x\nq"x p\nr s 1/2\n'
_QUOTED_PAIRS = [('q"x', "a,b"), ("p", "p"), ("a,b", "p")]


@pytest.mark.numpy_free
@pytest.mark.parametrize("text", [_QUOTED_LABELS, _QUOTED_SPLIT], ids=["triangle", "split"])
@pytest.mark.parametrize("subcommand", ["spectrum", "series", "verify", "verify-pairs",
                                        "paths", "bipartite"])
def test_rows_quote_like_csv_writer(capsys, tmp_path, text, subcommand):
    import csv
    import io

    from graphheat import (UnreachableError, is_bipartite, series_prefix, verify_graph,
                           verify_pair)

    p = tmp_path / "quoted.txt"
    p.write_text(text, encoding="utf-8")
    g = parse_edge_list(text)
    split = text == _QUOTED_SPLIT
    argv = [subcommand.split("-")[0], "--graph", str(p)]
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")

    def verify_row(r):
        writer.writerow([r.x, r.y, r.d, r.n_geodesics, r.leading.numerator,
                         r.leading.denominator, r.next_coeff.numerator,
                         r.next_coeff.denominator, r.vanish_ok, r.leading_ok, r.bipartite_sign])

    def unreachable_row(x, y):
        writer.writerow([x, y, "unreachable", "", "", "", "", "", "na", "na", "na"])

    if subcommand == "spectrum":
        pytest.importorskip("numpy")
        from graphheat import eigendecompose, kirchhoff_matrix

        writer.writerow(["k", "lambda"])
        for k, lam in enumerate(eigendecompose(kirchhoff_matrix(g)).lambdas):
            writer.writerow([k + 1, cli._fmt_float(lam)])
    elif subcommand == "series":
        writer.writerow(["x_label", "y_label", "k", "numerator", "denominator"])
        for x in range(g.n):
            for y in range(x, g.n):
                for k, c in enumerate(series_prefix(g, x, y, 6)):
                    writer.writerow([g.labels[x], g.labels[y], k, c.numerator, c.denominator])
    elif subcommand.startswith("verify"):
        writer.writerow(["x", "y", "d", "N", "leading_num", "leading_den", "next_num",
                         "next_den", "vanish_ok", "leading_ok", "bipartite_sign"])
        if subcommand == "verify":
            summary = verify_graph(g)
            for r in summary.reports:
                verify_row(r)
            for pair in summary.skipped:
                unreachable_row(*pair)
            assert bool(summary.skipped) == split
        else:
            pairs = _QUOTED_PAIRS + [("a,b", "r")] * split  # a cross-component row
            for x, y in pairs:
                argv += ["--pair", x, y]
                try:
                    verify_row(verify_pair(g, g.index_of(x), g.index_of(y)))
                except UnreachableError:
                    unreachable_row(x, y)
    elif subcommand == "paths":
        writer.writerow(["x", "y", "d", "count"])
        for x in range(g.n):
            profile = bfs_profile(g, x)
            for y in range(x + 1, g.n):
                d = profile.dist[y]
                writer.writerow([g.labels[x], g.labels[y], "unreachable" if d is None else d,
                                 profile.geodesic_count[y]])
    else:
        writer.writerow(["bipartite", "x", "class"])
        colors = is_bipartite(g)
        assert (colors is not None) == split
        if colors is None:
            writer.writerow(["false", "", ""])
        for v, c in enumerate(colors or ()):
            writer.writerow(["true", g.labels[v], c])
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    if subcommand != "spectrum" and (split or subcommand != "bipartite"):
        assert '"a,b"' in out and '"q""x"' in out
    assert out == want.getvalue()


@pytest.mark.parametrize("pairs", [[], ["--pair", "7", "0", "--pair", "0", "7",
                                        "--pair", "4", "4"]],
                         ids=["all-pairs", "pairs"])
def test_uniformization_kernel_times_print_in_request_order(capsys, tmp_path, pairs):
    p = tmp_path / "grid3.txt"
    p.write_text(corpus.edge_list_text(corpus.grid_graph(3, 3)), encoding="utf-8")
    base = ["kernel", "--graph", str(p), *_UNIF, *pairs]
    code, out, _ = run_cli(capsys, [*base, "--t", "1", "--t", "0.25", "--t", "1"])
    assert code == 0
    single = {}
    for t in ("1", "0.25"):
        _, one, _ = run_cli(capsys, [*base, "--t", t])
        single[t] = one.split("\n", 1)[1]
    header = "t,x_label,y_label,p\n"
    assert out == header + single["1"] + single["0.25"] + single["1"]


def test_output_file_matches_stdout(capsys, grid_file, tmp_path):
    out_file = tmp_path / "report.csv"
    argv = ["series", "--graph", grid_file, "--max-order", "4"]
    code, stdout_text, _ = run_cli(capsys, argv)
    assert code == 0
    code2 = main(argv + ["--output", str(out_file)])
    capsys.readouterr()
    assert code2 == 0
    assert out_file.read_text(encoding="utf-8") == stdout_text


def test_kernel_rows_print_what_fmt_float_prints(capsys, tmp_path, monkeypatch):
    import numpy as np

    from graphheat import kernels

    # all pairs are read a source row at a time, --pair entries one by one
    values = (-0.0, 5e-324, 2.2250738585072014e-308, 1e300, 0.1 + 0.2)
    K = np.array([[-0.0, 5e-324, 2.2250738585072014e-308],
                  [5e-324, 1e300, 0.1 + 0.2],
                  [2.2250738585072014e-308, 0.1 + 0.2, -0.0]])
    K.setflags(write=False)
    monkeypatch.setattr(kernels, "kernel_spectral", lambda dec, t: K)
    p = tmp_path / "path.txt"
    p.write_text("a b\nb c\n", encoding="utf-8")
    labels = ("a", "b", "c")
    pairs = [(x, y) for x in range(3) for y in range(3)]
    for argv in ([], [arg for x, y in pairs for arg in ("--pair", labels[x], labels[y])]):
        code, out, _ = run_cli(capsys, ["kernel", "--graph", str(p), "--t", "1", *argv])
        assert code == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        want = [(x, y) for x, y in pairs if argv or x <= y]
        assert [row[1:3] for row in rows] == [[labels[x], labels[y]] for x, y in want]
        for row, (x, y) in zip(rows, want):
            assert row[3] == cli._fmt_float(K[x, y])
        printed = {row[3] for row in rows}
        assert printed == {"0.0", *map(repr, values[1:])}
        assert "-0.0" not in out


# --- streaming ----------------------------------------------------------------


_STREAMING_ERRORS = [
    pytest.param(["kernel", "--method", "uniformization", "--t", "0.1", "--t", "1e300"],
                 id="kernel-uniformization-huge-second-t"),
    pytest.param(["kernel", "--t", "0.1", "--t", "nan"], id="kernel-nan-second-t"),
    pytest.param(["kernel", "--t", "0.1", "--t", "-1"], id="kernel-negative-second-t"),
    pytest.param(["estimate", "--method", "uniformization", "--t0", "1e5"],
                 id="estimate-uniformization-huge-t0"),
    pytest.param(["verify", "--pair", "a", "c", "--pair", "a", "zz"],
                 id="verify-unknown-second-label", marks=pytest.mark.numpy_free),
]


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("command", _STREAMING_ERRORS)
def test_streamed_input_errors_come_before_the_first_byte(capsys, tmp_path, command, to_file):
    # the kernel cases fail at their second time, the estimate case at its
    # first sample and the verify case at its second pair, so a check left
    # inside the row stream would print the header, and for kernel and
    # verify the first rows, before exiting 2
    graph = tmp_path / "path.txt"
    graph.write_text("a b\nb c\n", encoding="utf-8")
    report = tmp_path / "report.csv"
    report.write_bytes(b"sentinel\r\n")
    argv = [command[0], "--graph", str(graph), *command[1:]]
    code, out, err = run_cli(capsys, [*argv, "--output", str(report)] if to_file else argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert report.read_bytes() == b"sentinel\r\n"


def traced_peak(argv: list[str]) -> int:
    """Peak traced bytes of one call, after a warm-up call has loaded every module."""
    assert main(argv) == 0
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("method", ["spectral", "uniformization"])
def test_kernel_memory_does_not_grow_with_the_row_count(tmp_path, method):
    # built all at once, the n(n+1) rows of two times took 34 x 8 n^2
    # bytes; two kernels and their engine's temporaries take a few 8 n^2
    g = corpus.random_weighted_gnm(7, 200, 600)
    p = tmp_path / "w200.txt"
    p.write_text(corpus.edge_list_text(g), encoding="utf-8")
    report = tmp_path / "report.csv"
    peak = traced_peak(["kernel", "--graph", str(p), "--t", "0.5", "--t", "2",
                        "--method", method, "--output", str(report)])
    assert peak < 16 * 8 * g.n**2
    assert len(report.read_text(encoding="utf-8").splitlines()) == 1 + g.n * (g.n + 1)


@pytest.mark.numpy_free
@pytest.mark.parametrize("subcommand", ["series", "paths"])
def test_series_and_paths_memory_does_not_grow_with_the_row_count(tmp_path, subcommand):
    # built all at once, the rows took about 117 (series) and 19 (paths)
    # x 8 n^2 bytes
    g = corpus.grid_graph(10, 10)
    p = tmp_path / "grid10.txt"
    p.write_text(corpus.edge_list_text(g), encoding="utf-8")
    report = tmp_path / "report.csv"
    peak = traced_peak([subcommand, "--graph", str(p), "--output", str(report)])
    assert peak < 8 * 8 * g.n**2
    rows = g.n * (g.n + 1) // 2 * 7 if subcommand == "series" else g.n * (g.n - 1) // 2
    assert len(report.read_text(encoding="utf-8").splitlines()) == 1 + rows


@pytest.mark.numpy_free
@pytest.mark.parametrize(
    "rows, cols, two", [(10, 10, False), (7, 7, True)], ids=["grid10", "two-grids7"]
)
def test_verify_memory_does_not_grow_with_the_pair_count(tmp_path, rows, cols, two):
    # built all at once, the reports and the skipped pairs took about 48
    # (grid10) and 30 (two-grids7) x 8 n^2 bytes
    g = corpus.interleaved_grids(rows, cols) if two else corpus.grid_graph(rows, cols)
    p = tmp_path / "graph.txt"
    p.write_text(corpus.edge_list_text(g), encoding="utf-8")
    report = tmp_path / "report.csv"
    peak = traced_peak(["verify", "--graph", str(p), "--output", str(report)])
    assert peak < 8 * 8 * g.n**2
    lines = report.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + g.n * (g.n - 1) // 2
    assert sum(line.endswith(",na,na,na") for line in lines) == (g.n // 2) ** 2 * two


# --- spectrum ----------------------------------------------------------------


def test_spectrum_path3(capsys, tmp_path):
    p = tmp_path / "p3.txt"
    p.write_text("0 1\n1 2\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["spectrum", "--graph", str(p)])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "k,lambda"
    assert [line.split(",")[0] for line in lines[1:]] == ["1", "2", "3"]
    lams = [float(line.split(",")[1]) for line in lines[1:]]
    assert lams == pytest.approx([0.0, 1.0, 3.0], abs=1e-12)
    # no "-0.0" may ever appear
    assert "-0.0" not in out


# --- series ------------------------------------------------------------------


def test_series_golden_rows(capsys, grid_file):
    code, out, _ = run_cli(
        capsys,
        ["series", "--graph", grid_file, "--pair", "a0", "b1", "--max-order", "3"],
    )
    assert code == 0
    assert out.splitlines() == [
        "x_label,y_label,k,numerator,denominator",
        "a0,b1,0,0,1",
        "a0,b1,1,0,1",
        "a0,b1,2,1,1",
        "a0,b1,3,-5,2",
    ]


def test_series_default_covers_all_pairs_with_diagonal(capsys, grid_file):
    code, out, _ = run_cli(capsys, ["series", "--graph", grid_file, "--max-order", "2"])
    assert code == 0
    lines = out.splitlines()[1:]
    assert len(lines) == 21 * 3  # C(6,2) + 6 diagonal pairs, 3 coefficients each


def test_series_walks_once_per_source(capsys, tmp_path, monkeypatch):
    g = corpus.random_weighted_graph(3, 12, 0.3)
    p = tmp_path / "w12.txt"
    p.write_text(corpus.edge_list_text(g), encoding="utf-8")
    sources = []
    real = series.walk_vectors

    def counting(g, x, depth, last=None):
        sources.append(x)
        return real(g, x, depth, last)

    monkeypatch.setattr(series, "walk_vectors", counting)
    code, out, _ = run_cli(capsys, ["series", "--graph", str(p), "--max-order", "3"])
    assert code == 0
    assert sources == list(range(g.n))
    assert len(out.splitlines()) == 1 + g.n * (g.n + 1) // 2 * 4


_TWO_PAIRS = ("--pair", "a", "c", "--pair", "e", "a", "--pair", "a", "c",
              "--pair", "b", "y", "--pair", "e", "e")


# Every golden case runs an exact subcommand (series, verify, paths, bipartite).
_WEIGHTED_GOLDEN = [
    pytest.param("weighted_grid", ("series",), "weighted_grid_series", id="series"),
    pytest.param("weighted_grid", ("verify",), "weighted_grid_verify", id="verify"),
    # a weighted 4-cycle with a pendant vertex, plus a separate edge
    pytest.param("weighted_two_component", ("verify",),
                 "weighted_two_component_verify", id="two_component-verify"),
    pytest.param("weighted_two_component", ("verify", *_TWO_PAIRS),
                 "weighted_two_component_verify_pairs", id="two_component-verify-pairs"),
    pytest.param("weighted_two_component", ("paths",),
                 "weighted_two_component_paths", id="two_component-paths"),
    pytest.param("weighted_two_component", ("bipartite",),
                 "weighted_two_component_bipartite", id="two_component-bipartite"),
]


def golden_argv(graph: str, argv: tuple[str, ...]) -> list[str]:
    return [argv[0], "--graph", str(GOLDEN / f"{graph}.txt"), *argv[1:]]


@pytest.mark.numpy_free
@pytest.mark.parametrize("graph, argv, golden", _WEIGHTED_GOLDEN)
def test_weighted_output_matches_golden_bytes(capsys, graph, argv, golden):
    code, out, _ = run_cli(capsys, golden_argv(graph, argv))
    assert code == 0
    assert out == (GOLDEN / f"{golden}.csv").read_text(encoding="utf-8")


# With "blocked", numpy is unimportable: a None entry in sys.modules makes
# every ``import numpy`` raise ImportError.  Either way the child reports on
# stderr which of numpy, dataclasses, inspect and csv were loaded by the time
# main() returned; the exact subcommands need none of them.
_NUMPY_FREE_CHILD = """\
import sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from graphheat.cli import main
code = main(sys.argv[2:])
loaded = [m for m in ("numpy", "dataclasses", "inspect", "csv") if sys.modules.get(m)]
print(loaded, file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.numpy_free
@pytest.mark.parametrize("mode", ["blocked", "unblocked"])
@pytest.mark.parametrize("graph, argv, golden", _WEIGHTED_GOLDEN)
def test_exact_subcommands_run_without_numpy(graph, argv, golden, mode):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_CHILD, mode, *golden_argv(graph, argv)],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / f"{golden}.csv").read_text(encoding="utf-8")
    if mode == "unblocked":
        assert proc.stderr == "[]\n"


@pytest.mark.numpy_free
def test_cli_import_stays_lean_without_site():
    # -S keeps site-packages' .pth files from importing modules of their own;
    # what is left is what ``import graphheat.cli`` itself costs every call.
    # Each command imports the package modules it runs when it runs.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    heavy = ("dataclasses", "inspect", "pathlib", "typing", "numpy", "fractions", "decimal",
             "csv", "graphheat.series", "graphheat.verification", "graphheat.varadhan",
             "graphheat.float_commands")
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         f"import sys, graphheat.cli; print([m for m in {heavy!r} if m in sys.modules])"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


# The child reports on stderr which of the exact-rational and CSV modules
# main() loaded; on an unweighted graph only series and verify need
# ``fractions`` (and with it ``decimal``), and no command needs ``csv``.
_EXACT_FREE_CHILD = """\
import sys
from graphheat.cli import main
code = main(sys.argv[1:])
print([m for m in ("fractions", "decimal", "csv") if m in sys.modules], file=sys.stderr)
sys.exit(code)
"""


@pytest.mark.parametrize("argv", [
    pytest.param(("spectrum",), id="spectrum"),
    pytest.param(("kernel", "--t", "0.5"), id="kernel"),
    pytest.param(("kernel", "--t", "0.5", "--method", "uniformization", "--pair", "a0", "b2"),
                 id="kernel-uniformization-pair"),
    pytest.param(("estimate", "--pair", "a0", "b2"), id="estimate-pair"),
    pytest.param(("estimate", "--method", "uniformization"), id="estimate-uniformization"),
    pytest.param(("paths",), id="paths", marks=pytest.mark.numpy_free),
    pytest.param(("bipartite",), id="bipartite", marks=pytest.mark.numpy_free),
])
def test_unweighted_calls_load_no_fractions_decimal_or_csv(capsys, grid_file, argv):
    argv = [argv[0], "--graph", grid_file, *argv[1:]]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _EXACT_FREE_CHILD, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "[]\n")
    assert proc.stdout == run_cli(capsys, argv)[1]


@pytest.mark.numpy_free
@settings(max_examples=300, derandomize=True)
@given(st.lists(st.text(st.sampled_from(',"a') | st.characters(exclude_characters="\x00")
                        .filter(lambda c: not c.isspace()))))
def test_labels_are_quoted_as_csv_writer_writes_them(labels):
    # a parsed label has no whitespace (csv.writer before Python 3.11 cannot
    # write NUL); each one is written in a row of two, "<field>,", since a
    # lone empty field would print as ""
    import csv
    import io

    want = io.StringIO()
    csv.writer(want, lineterminator="\n").writerows((v, "") for v in labels)
    assert "".join(f"{field},\n" for field in cli._csv_fields(labels)) == want.getvalue()


# --- verify ------------------------------------------------------------------


def test_verify_grid_all_pass(capsys, grid_file):
    code, out, _ = run_cli(capsys, ["verify", "--graph", grid_file])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "x,y,d,N,leading_num,leading_den,next_num,next_den,"
        "vanish_ok,leading_ok,bipartite_sign"
    )
    assert len(lines) == 16
    assert "a0,b2,3,3,1,2,-7,6,pass,pass,pass" in lines
    for line in lines[1:]:
        assert line.split(",")[8:] == ["pass", "pass", "pass"]


def test_verify_skipped_pairs_marked_unreachable(capsys, two_component_file):
    code, out, _ = run_cli(capsys, ["verify", "--graph", two_component_file])
    assert code == 0
    lines = out.splitlines()
    assert "a,d,unreachable,,,,,,na,na,na" in lines
    assert len(lines) == 1 + 10  # header + C(5,2) pairs


def test_verify_explicit_unreachable_pair(capsys, two_component_file):
    code, out, _ = run_cli(
        capsys, ["verify", "--graph", two_component_file, "--pair", "a", "e"]
    )
    assert code == 0
    assert out.splitlines()[1] == "a,e,unreachable,,,,,,na,na,na"


@pytest.mark.numpy_free
def test_verify_failure_sets_exit_one(capsys, grid_file, monkeypatch):
    real = verification._make_report
    monkeypatch.setattr(
        verification, "_make_report", lambda *args: real(*args)._replace(vanish_ok="fail")
    )
    code, out, _ = run_cli(capsys, ["verify", "--graph", grid_file])
    assert code == 1
    assert "fail" in out


@pytest.mark.numpy_free
def test_verify_failure_in_the_middle_writes_every_row(capsys, tmp_path, monkeypatch):
    # the rows stream, so the one failing verdict is seen only after the
    # rows before it are written; all rows follow it, then exit 1
    g = corpus.interleaved_grids(2, 3)
    p = tmp_path / "two.txt"
    p.write_text(corpus.edge_list_text(g), encoding="utf-8")
    argv = ["verify", "--graph", str(p)]
    code, expected, _ = run_cli(capsys, argv)
    assert code == 0
    expected_rows = expected.splitlines()
    middle = len(expected_rows) // 3  # a connected pair; the skipped ones come last
    calls = []
    real = verification._make_report

    def failing_once(*args):
        report = real(*args)
        calls.append(report)
        if len(calls) == middle:
            return VaradhanReport(
                report.x, report.y, report.d, report.n_geodesics, report.leading,
                report.next_coeff, "fail", report.leading_ok, report.bipartite_sign,
            )
        return report

    monkeypatch.setattr(verification, "_make_report", failing_once)
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (1, "")
    rows = out.splitlines()
    assert len(rows) == len(expected_rows)
    assert [i for i, (a, b) in enumerate(zip(rows, expected_rows)) if a != b] == [middle]
    assert rows[middle].split(",")[8:] == ["fail", "pass", "pass"]
    assert expected_rows[-1].endswith(",unreachable,,,,,,na,na,na")
    calls.clear()
    report = tmp_path / "report.csv"
    code, stdout, _ = run_cli(capsys, [*argv, "--output", str(report)])
    assert (code, stdout) == (1, "")
    assert report.read_text(encoding="utf-8") == out


@pytest.mark.numpy_free
def test_verify_rows_keep_the_pairwise_order(capsys, tmp_path):
    # the labels alternate between the two components: connected pairs come
    # first, x-major and y-ascending in the file's vertex order, then the
    # cross-component pairs in the same order
    text = corpus.edge_list_text(corpus.interleaved_grids(2, 3))
    p = tmp_path / "two.txt"
    p.write_text(text, encoding="utf-8")
    g = parse_edge_list(text)
    code, out, _ = run_cli(capsys, ["verify", "--graph", str(p)])
    assert code == 0
    pairs = [(x, y) for x in range(g.n) for y in range(x + 1, g.n)]
    connected = [(x, y) for x, y in pairs if bfs_profile(g, x).dist[y] is not None]
    order = connected + [pair for pair in pairs if pair not in connected]
    assert order != pairs  # the components interleave
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
        [g.labels[x], g.labels[y]] for x, y in order
    ]


def test_verify_pairs_colour_the_graph_once(capsys, grid_file, two_component_file, monkeypatch):
    # one colouring per call, with or without --pair; each --pair walks from
    # its source to order d + 1 only, and a cross-component one takes no step
    colourings, walks = [], []
    real_colouring, real_walk = verification.is_bipartite, verification.walk_vectors

    def counting(g):
        colourings.append(g)
        return real_colouring(g)

    def recording(g, x, depth, last=None):
        walks.append((g.labels[x], depth))
        return real_walk(g, x, depth, last)

    for module in (cli, verification):
        monkeypatch.setattr(module, "is_bipartite", counting)
    monkeypatch.setattr(verification, "walk_vectors", recording)
    code, out, _ = run_cli(capsys, ["verify", "--graph", grid_file])
    assert (code, len(out.splitlines()), len(colourings)) == (0, 16, 1)
    for graph, pairs in ((grid_file, [("a0", "b2", 3), ("a1", "b0", 2), ("b2", "b2", 0)]),
                         (two_component_file, [("a", "c", 2), ("a", "e", None)])):
        colourings.clear()
        walks.clear()
        argv = ["verify", "--graph", graph]
        for x, y, _ in pairs:
            argv += ["--pair", x, y]
        code, out, _ = run_cli(capsys, argv)
        assert (code, len(out.splitlines()), len(colourings)) == (0, 1 + len(pairs), 1)
        assert walks == [(x, 0 if d is None else d + 1) for x, y, d in pairs]


def test_verify_weighted_rational_count(capsys, tmp_path):
    p = tmp_path / "w.txt"
    p.write_text("0 1 2\n1 2 1/3\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["verify", "--graph", p.as_posix(), "--pair", "0", "2"])
    assert code == 0
    assert out.splitlines()[1] == "0,2,2,2/3,1,3,-14,27,pass,pass,pass"


# --- estimate ----------------------------------------------------------------


def test_estimate_grid_golden_row(capsys, grid_file):
    code, out, _ = run_cli(
        capsys, ["estimate", "--graph", grid_file, "--pair", "a0", "b2"]
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "x,y,d_hat,N_hat,t_used,converged"
    assert lines[1] == "a0,b2,3,3,0.00625,true"


def test_estimate_all_pairs_match_paths(capsys, grid_file):
    code, out, _ = run_cli(capsys, ["estimate", "--graph", grid_file])
    assert code == 0
    est_rows = {
        (f[0], f[1]): (f[2], f[3])
        for f in (line.split(",") for line in out.splitlines()[1:])
    }
    assert len(est_rows) == 15
    code, out, _ = run_cli(capsys, ["paths", "--graph", grid_file])
    for line in out.splitlines()[1:]:
        x, y, d, count = line.split(",")
        assert est_rows[(x, y)] == (d, count)


def test_estimate_unreachable_row(capsys, two_component_file):
    code, out, _ = run_cli(
        capsys,
        ["estimate", "--graph", two_component_file,
         "--method", "uniformization", "--pair", "a", "d"],
    )
    assert code == 0
    assert out.splitlines()[1] == "a,d,unreachable,,1.52587890625e-06,false"


def test_estimate_failure_row_stays_blank(capsys, two_component_file):
    # the cancellation-prone engine cannot certify a cross-component zero:
    # it must report a non-converged blank row, not fabricate a distance
    code, out, _ = run_cli(
        capsys,
        ["estimate", "--graph", two_component_file,
         "--method", "spectral", "--pair", "a", "d"],
    )
    assert code == 0
    row = out.splitlines()[1].split(",")
    assert row[:2] == ["a", "d"]
    assert row[5] == "false"
    assert row[2] in ("", "unreachable")


@pytest.mark.parametrize("method", ["spectral", "uniformization"])
def test_estimate_dead_pair_stops_at_the_first_time_that_underflows(
    capsys, two_component_file, method
):
    # every sample across components is dead: the pass ends at the last
    # positive time t0 * 0.5**j (t0 = 0.1 here), however deep --levels goes
    last = min(t for t in (0.1 * 0.5**j for j in range(1100)) if t > 0.0)
    base = ["estimate", "--graph", two_component_file, "--method", method, "--pair", "a", "d"]
    for levels in ("1100", "1000000000"):
        code, out, _ = run_cli(capsys, [*base, "--levels", levels])
        assert code == 0
        assert out.splitlines()[1] == f"a,d,unreachable,,{last!r},false"


def test_estimate_respects_t0_and_levels(capsys, grid_file):
    code, out, _ = run_cli(
        capsys,
        ["estimate", "--graph", grid_file, "--pair", "a0", "a1",
         "--t0", "0.05", "--levels", "12"],
    )
    assert code == 0
    fields = out.splitlines()[1].split(",")
    assert fields[2:4] == ["1", "1"]
    assert float(fields[4]) <= 0.05


@pytest.mark.parametrize(
    "argv, err",
    [
        (["--levels", "1"], "error: levels must be at least 2, got 1\n"),
        (["--pair", "a", "zz"], "error: unknown vertex label 'zz'\n"),
    ],
    ids=["levels", "label"],
)
def test_estimate_checks_its_input_before_decomposing(
    capsys, monkeypatch, two_component_file, argv, err
):
    from graphheat import spectral

    def refuse(*args):
        raise AssertionError("decomposed before the input was checked")

    monkeypatch.setattr(spectral, "eigendecompose", refuse)
    code, out, got = run_cli(capsys, ["estimate", "--graph", two_component_file, *argv])
    assert (code, out, got) == (2, "", err)


def test_estimate_builds_dyadic_levels_in_doubling_blocks(capsys, monkeypatch, tmp_path):
    from graphheat import kernels

    g = corpus.grid_graph(10, 10)
    p = tmp_path / "grid10.txt"
    p.write_text(corpus.edge_list_text(g), encoding="utf-8")
    levels = 40
    schedule = [0.1 * 0.5**j for j in range(levels + 1)]  # t0 = 0.1: c = 4
    passes, asked = [], set()
    real_series, real_sampler = kernels._poisson_series, varadhan.uniformization_sampler

    def counting_series(P, B, terms):
        passes.append(len(terms))
        return real_series(P, B, terms)

    def recording_sampler(*args, **kwargs):
        sampler = real_sampler(*args, **kwargs)

        def sample(t, x, y):
            asked.add(schedule.index(t))
            return sampler(t, x, y)

        return sample

    monkeypatch.setattr(kernels, "_poisson_series", counting_series)
    monkeypatch.setattr(varadhan, "uniformization_sampler", recording_sampler)
    code, out, _ = run_cli(capsys, ["estimate", "--graph", str(p), *_UNIF,
                                    "--levels", str(levels)])
    assert code == 0 and len(out.splitlines()) == 1 + 100 * 99 // 2
    deepest = max(asked)
    assert asked == set(range(deepest + 1))
    # blocks j .. 2j + 1: levels 0-1, 2-5, 6-13, ...
    assert len(passes) <= math.log2(deepest + 2)
    assert sum(passes) <= 2 * (deepest + 1)


def test_estimate_schedule_stops_at_the_first_time_that_underflows(capsys, tmp_path):
    # every time past about 1,080 levels is 0.0, so a huge --levels costs no
    # more than that, and prints what a schedule just past it prints
    p = tmp_path / "path.txt"
    p.write_text("a b\nb c\nc d 1/2\n", encoding="utf-8")  # connected: no pair reads every level
    base = ["estimate", "--graph", str(p), *_UNIF]
    code, huge, _ = run_cli(capsys, [*base, "--levels", "1000000000"])
    assert code == 0
    assert huge == run_cli(capsys, [*base, "--levels", "2000"])[1]


def test_estimate_uniformization_bytes_match_one_pass_per_time(capsys, tmp_path):
    import csv
    import functools
    import io

    text = corpus.edge_list_text(corpus.grid_graph(8, 8))
    p = tmp_path / "grid8.txt"
    p.write_text(text, encoding="utf-8")
    g = parse_edge_list(text)  # the vertex order the command reads
    _, out, _ = run_cli(capsys, ["estimate", "--graph", str(p), *_UNIF])

    kernel_at = functools.cache(
        lambda t: corpus.kernel_uniformization_one_time(g, t, varadhan.POSITIVITY_FLOOR)
    )
    want = io.StringIO()
    writer = csv.writer(want, lineterminator="\n")
    writer.writerow(["x", "y", "d_hat", "N_hat", "t_used", "converged"])
    for x in range(g.n):
        for y in range(x + 1, g.n):
            est = varadhan.estimate_pair(lambda t, u, v: kernel_at(t)[u, v], x, y, t0=0.1,
                                         levels=16)
            writer.writerow([g.labels[x], g.labels[y], est.d_hat, est.n_hat,
                             repr(est.t_used), "true"])
    assert out == want.getvalue()


# --- paths -------------------------------------------------------------------


def test_paths_from_to_golden(capsys, grid_file):
    code, out, _ = run_cli(
        capsys, ["paths", "--graph", grid_file, "--pair", "a0", "b2"]
    )
    assert code == 0
    assert out.splitlines() == ["x,y,d,count", "a0,b2,3,3"]


def test_paths_unreachable(capsys, two_component_file):
    code, out, _ = run_cli(
        capsys, ["paths", "--graph", two_component_file, "--pair", "a", "e"]
    )
    assert code == 0
    assert out.splitlines()[1] == "a,e,unreachable,0"


@pytest.mark.numpy_free
def test_bom_prefixed_graph_file_prints_the_paths_of_the_plain_file(capsys, tmp_path):
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_text("a b\nb c\n", encoding="utf-8")
    marked.write_text("\ufeffa b\nb c\n", encoding="utf-8")
    assert marked.read_bytes().startswith(b"\xef\xbb\xbfa b")
    for pair in ([], ["--pair", "a", "c"]):
        want = run_cli(capsys, ["paths", "--graph", str(plain), *pair])
        assert run_cli(capsys, ["paths", "--graph", str(marked), *pair]) == want
        assert want[0] == 0 and want[2] == ""
    assert want[1].splitlines() == ["x,y,d,count", "a,c,2,1"]


# --- bipartite ---------------------------------------------------------------


def test_bipartite_grid_classes(capsys, grid_file):
    code, out, _ = run_cli(capsys, ["bipartite", "--graph", grid_file])
    assert code == 0
    assert out.splitlines() == [
        "bipartite,x,class",
        "true,a0,0",
        "true,a1,1",
        "true,a2,0",
        "true,b0,1",
        "true,b1,0",
        "true,b2,1",
    ]


def test_bipartite_odd_cycle(capsys, tmp_path):
    p = tmp_path / "c5.txt"
    p.write_text("0 1\n1 2\n2 3\n3 4\n0 4\n", encoding="utf-8")
    code, out, _ = run_cli(capsys, ["bipartite", "--graph", str(p)])
    assert code == 0
    assert out.splitlines() == ["bipartite,x,class", "false,,"]


# --- error handling ----------------------------------------------------------


def test_unknown_label_exits_two(capsys, grid_file):
    code, _, err = run_cli(
        capsys, ["paths", "--graph", grid_file, "--pair", "zz", "a0"]
    )
    assert code == 2
    assert "zz" in err
    assert err == "error: unknown vertex label 'zz'\n"


def test_internal_key_error_is_not_an_unknown_label(capsys, grid_file, monkeypatch):
    def broken(g, source):
        raise KeyError("a0")

    monkeypatch.setattr(cli, "bfs_profile", broken)
    with pytest.raises(KeyError):
        main(["paths", "--graph", grid_file, "--pair", "a0", "b2"])
    assert "unknown vertex label" not in capsys.readouterr().err


def test_missing_graph_file_exits_two(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, ["spectrum", "--graph", str(tmp_path / "nope.txt")]
    )
    assert code == 2
    assert "error" in err


def test_malformed_graph_reports_line(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("a b\nc c\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["verify", "--graph", str(p)])
    assert code == 2
    assert "line 2" in err


def test_bad_weight_value_reported(capsys, tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("a b -2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["kernel", "--graph", str(p), "--t", "0.1"])
    assert code == 2
    assert "weight" in err


FLOAT_ENGINE_COMMANDS = (["spectrum"], ["kernel", "--t", "0.1"], ["estimate"])


def rejected_graph_stderr(capsys, tmp_path, command, text):
    p = tmp_path / "g.txt"
    p.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, [command[0], "--graph", str(p), *command[1:]])
    assert code == 2
    assert out == ""
    return err


@pytest.mark.parametrize("command", FLOAT_ENGINE_COMMANDS, ids=lambda c: c[0])
def test_weight_underflowing_to_zero_rejected(capsys, tmp_path, command):
    # its float value is 0, which would drop the edge from the float engines
    err = rejected_graph_stderr(capsys, tmp_path, command, "a b 1e-400\nb c\n")
    assert "line 1" in err and "weight" in err


@pytest.mark.parametrize("command", FLOAT_ENGINE_COMMANDS, ids=lambda c: c[0])
def test_weight_overflowing_float_rejected(capsys, tmp_path, command):
    err = rejected_graph_stderr(capsys, tmp_path, command, "a b\nb c 1e400\n")
    assert "line 2" in err and "weight" in err


@pytest.mark.parametrize("command", FLOAT_ENGINE_COMMANDS, ids=lambda c: c[0])
def test_weighted_degree_overflowing_float_rejected(capsys, tmp_path, command):
    # each weight is a finite float, their sum at b is not
    err = rejected_graph_stderr(capsys, tmp_path, command, "a b 1e308\nb c 1e308\n")
    assert "degree" in err and "'b'" in err


def test_default_t0_underflow_names_the_weighted_degree(capsys, tmp_path):
    # each weighted degree is finite, but 1/(2c) would pass through 2c = inf
    p = tmp_path / "heavy.txt"
    p.write_text("a b 1e308\nc d 1e308\n", encoding="utf-8")
    code, out, err = run_cli(capsys, ["estimate", "--graph", str(p)])
    assert code == 2
    assert out == ""
    assert "largest weighted degree 1e+308" in err
    assert "t0 must be positive" not in err


_UNIF = ("--method", "uniformization")
_PATH_AC = ("--pair", "a", "c")


@pytest.mark.parametrize(
    "text, command, expect",
    [
        pytest.param("a b\nb c\n", ["kernel", *_PATH_AC, "--t", "inf", *_UNIF],
                     "time must be finite", id="kernel-t-inf-uniformization"),
        pytest.param("a b\nb c\n", ["kernel", *_PATH_AC, "--t", "1", "--eps", "nan", *_UNIF],
                     "eps must be finite", id="kernel-eps-nan"),
        pytest.param("a b\nb c\n", ["kernel", *_PATH_AC, "--t", "nan"],
                     "time must be finite", id="kernel-t-nan-spectral"),
        pytest.param("a b\nb c\n", ["estimate", *_PATH_AC, "--t0", "inf"],
                     "t0 must be finite", id="estimate-t0-inf"),
        pytest.param("a b\nb c\n", ["estimate", *_PATH_AC, "--t0", "nan"],
                     "t0 must be finite", id="estimate-t0-nan"),
        pytest.param("a b\nb c\n", ["estimate", *_PATH_AC, *_UNIF, "--eps", "inf"],
                     "eps must be finite", id="estimate-eps-inf"),
        pytest.param("a b 1e300\nb c\n", ["kernel", "--t", "0.1", *_UNIF],
                     "largest weighted degree 1e+300", id="kernel-huge-weight"),
        pytest.param("a b\nb c\n", ["kernel", "--t", "1e300", *_UNIF],
                     "largest weighted degree 2.0", id="kernel-huge-t"),
    ],
)
def test_non_finite_option_or_huge_ct_rejected(capsys, tmp_path, text, command, expect):
    # each of these once hung, raised a traceback or printed a nan or
    # "unreachable" row
    err = rejected_graph_stderr(capsys, tmp_path, command, text)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expect in err


@pytest.mark.filterwarnings("ignore:overflow encountered in exp:RuntimeWarning")
def test_estimate_inf_sample_flags_its_pair(capsys, tmp_path):
    # eigh returns this graph's zero eigenvalue as a tiny positive number, so
    # the spectral kernel overflows to inf at these times; the inf samples
    # once passed as live, and the call exited 2 after writing the header
    text = "a b\nb c\nc d 1/2\n"
    if not math.isinf(varadhan.spectral_sampler(parse_edge_list(text))(1e30, 0, 1)):
        pytest.skip("this LAPACK returns no positive zero eigenvalue for the graph")
    p = tmp_path / "g.txt"
    p.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, ["estimate", "--graph", str(p), "--t0", "1e30"])
    assert (code, err) == (0, "")
    assert out.splitlines()[1:] == [f"{x},{y},,,,false" for x, y in
                                    ("ab", "ac", "ad", "bc", "bd", "cd")]


@pytest.mark.parametrize("text", ["", "# no edges\n"], ids=["empty", "comments-only"])
@pytest.mark.parametrize(
    "options, expect",
    [
        (["--t0", "-1"], "t0 must be positive"),
        (["--levels", "1"], "levels must be at least 2"),
        ([*_UNIF, "--eps", "-1"], "eps must be positive"),
    ],
    ids=["t0", "levels", "eps"],
)
def test_estimate_options_checked_on_a_graph_without_pairs(
    capsys, tmp_path, text, options, expect
):
    err = rejected_graph_stderr(capsys, tmp_path, ["estimate", *options], text)
    assert err.startswith("error: ") and err.count("\n") == 1
    assert expect in err


_EPS_COMMANDS = [["kernel", *_PATH_AC, "--t", "1"], ["estimate", *_PATH_AC]]


@pytest.mark.parametrize("command", _EPS_COMMANDS, ids=lambda c: c[0])
def test_negative_infinite_eps_message(capsys, tmp_path, command):
    # both commands check "positive" before "finite"; estimate once said "finite"
    err = rejected_graph_stderr(capsys, tmp_path, [*command, *_UNIF, "--eps=-inf"], "a b\nb c\n")
    assert err == "error: eps must be positive, got -inf\n"


@pytest.mark.parametrize("eps", ["nan", "1e-12"])
@pytest.mark.parametrize("command", _EPS_COMMANDS, ids=lambda c: c[0])
def test_eps_without_uniformization_rejected(capsys, tmp_path, command, eps):
    # the spectral engine has no tail bound; these once exited 0 and ignored --eps
    err = rejected_graph_stderr(capsys, tmp_path, [*command, "--eps", eps], "a b\nb c\n")
    assert err == "error: --eps applies only to --method uniformization\n"


@pytest.mark.parametrize("command", _EPS_COMMANDS, ids=lambda c: c[0])
def test_eps_with_uniformization_accepted(capsys, tmp_path, command):
    p = tmp_path / "g.txt"
    p.write_text("a b\nb c\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, [command[0], "--graph", str(p), *command[1:], *_UNIF, "--eps", "1e-12"]
    )
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("1.0,a,c," if command[0] == "kernel" else "a,c,2,1,")


def test_missing_required_t_flag(grid_file):
    with pytest.raises(SystemExit) as exc_info:
        main(["kernel", "--graph", grid_file])
    assert exc_info.value.code == 2


def test_unknown_subcommand(grid_file):
    with pytest.raises(SystemExit) as exc_info:
        main(["frobnicate", "--graph", grid_file])
    assert exc_info.value.code == 2


def test_bad_eps_value(capsys, grid_file):
    code, _, err = run_cli(
        capsys,
        ["kernel", "--graph", grid_file, "--t", "0.1",
         "--method", "uniformization", "--eps", "0"],
    )
    assert code == 2
    assert "eps" in err


@pytest.mark.parametrize("argv", [
    pytest.param(["verify"], id="verify", marks=pytest.mark.numpy_free),
    pytest.param(["kernel", "--t", "0.5"], id="kernel"),
])
def test_closed_pipe_exits_two(tmp_path, argv):
    # `graphheat verify ... 2>&1 | head -1`: stdout and stderr share one pipe,
    # closed after the first line, so the error line has nowhere to go either.
    # Exit 1 would claim a failed verdict, and a traceback or a failed last
    # flush would end with 1 or 120.
    p = tmp_path / "grid.txt"
    p.write_text(corpus.edge_list_text(corpus.grid_graph(10, 10)), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "graphheat.cli", argv[0], "--graph", str(p), *argv[1:]],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
    )
    # thousands of rows, far more than the pipe holds, so the child is still
    # writing when the pipe closes
    first = proc.stdout.readline()
    proc.stdout.close()
    assert proc.wait(timeout=60) == 2
    assert first.startswith(b"x,y,d," if argv[0] == "verify" else b"t,x_label,")


@pytest.mark.parametrize("argv, text", [
    # a parse error names the file
    pytest.param(["verify"], "a b\nb c 0\n", id="verify-parse-error",
                 marks=pytest.mark.numpy_free),
    pytest.param(["kernel", "--t", "-1"], "a b\n", id="kernel-bad-time"),
])
def test_input_error_on_a_closed_pipe_exits_two(tmp_path, argv, text):
    p = tmp_path / "g.txt"
    p.write_text(text, encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes its error line
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "graphheat.cli", argv[0], "--graph", str(p), *argv[1:]],
            stdout=write_end, stderr=write_end, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 2


# --- README examples ----------------------------------------------------------


def test_readme_cli_examples_print_what_the_readme_shows(capsys, tmp_path, monkeypatch):
    # each "$ graphheat ..." example under "Command line" runs on the README
    # grid and prints the lines shown below it, byte for byte
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    (tmp_path / "g.txt").write_text(
        readme.split("```\n# 2x3 grid\n", 1)[1].split("```", 1)[0], encoding="utf-8"
    )
    monkeypatch.chdir(tmp_path)
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    block = section.split("Examples on the grid above:\n\n```sh\n", 1)[1].split("```", 1)[0]
    subcommands = []
    for chunk in block.strip("\n").split("\n\n"):
        command, *shown = chunk.split("\n")
        program, *argv = shlex.split(command.removeprefix("$ "))
        assert program == "graphheat", command
        assert run_cli(capsys, argv) == (0, "".join(f"{line}\n" for line in shown), ""), argv
        subcommands.append(argv[0])
    assert subcommands == ["series", "paths", "estimate"]


# --- installed entry point ----------------------------------------------------


def console_script_command():
    """Command and environment that start the ``graphheat`` console script.

    An installed script on PATH is run as is. Otherwise the entry point that
    ``pyproject.toml`` declares under ``[project.scripts]`` is started in this
    interpreter the way the pip-generated wrapper starts it, importing the
    tree under test from ``src/``.
    """
    exe = shutil.which("graphheat")
    if exe is not None:
        return [exe], None
    with open(REPO_ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    assert "graphheat" in scripts, "pyproject.toml declares no graphheat script"
    module, attr = scripts["graphheat"].split(":")
    wrapper = f"import sys; from {module} import {attr}; sys.exit({attr}())"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC_DIR), env.get("PYTHONPATH")])
    )
    return [sys.executable, "-c", wrapper], env


def test_console_script_smoke(grid_file):
    command, env = console_script_command()
    proc = subprocess.run(
        command + ["paths", "--graph", grid_file, "--pair", "a0", "b2"],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout == "x,y,d,count\na0,b2,3,3\n"


# --- determinism across runs and BLAS thread counts ---------------------------


def run_with_blas_threads(threads: int, argv: list[str]) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from graphheat.cli import main; sys.exit(main())",
         *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def assert_rows_agree(a: str, b: str, tol: float) -> None:
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    assert len(rows_a) == len(rows_b)
    assert rows_a[0] == rows_b[0]
    for ra, rb in zip(rows_a[1:], rows_b[1:]):
        assert ra[:-1] == rb[:-1]
        assert float(ra[-1]) == pytest.approx(float(rb[-1]), rel=0, abs=tol)


def test_output_bytes_fixed_per_blas_thread_count(tmp_path):
    g = corpus.random_weighted_graph(0, 100, 0.05)
    p = tmp_path / "weighted100.txt"
    p.write_text(
        "".join(f"v{u} v{v} {g.weights[(u, v)]}\n" for u, v in g.edges), encoding="utf-8"
    )
    commands = {
        "spectrum": ["spectrum", "--graph", str(p)],
        "kernel": ["kernel", "--graph", str(p), "--t", "0.5"],
        "estimate": ["estimate", "--graph", str(p)],
    }
    outputs = {}
    for threads in (1, 2):
        for name, argv in commands.items():
            first = run_with_blas_threads(threads, argv)
            assert run_with_blas_threads(threads, argv) == first, (name, threads)
            outputs[name, threads] = first
    # the last bits may move with the thread count, the values may not
    assert_rows_agree(outputs["spectrum", 1], outputs["spectrum", 2], 1e-12)
    assert_rows_agree(outputs["kernel", 1], outputs["kernel", 2], 1e-12)
    # estimate rows are threshold reads of kernel samples, so a last-bit change
    # can move a row between thread counts; only the pair list is fixed
    pairs_1 = [line.split(",")[:2] for line in outputs["estimate", 1].splitlines()]
    pairs_2 = [line.split(",")[:2] for line in outputs["estimate", 2].splitlines()]
    assert pairs_1 == pairs_2
