"""Tests of the benchmark itself, on small graphs.

    python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import graphheat.cli as cli  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Call, GraphInput, Workload  # noqa: E402

GRID = GraphInput("grid2x3", workloads.grid_text(2, 3), False)
WEIGHTED = GraphInput("w9", workloads.gnm_text(9, 16, random.Random(3), True), True)
TWO = GraphInput("two", workloads.two_component_text(5, 6, 4, 4, random.Random(4)), False)

SMALL = Workload(
    "small",
    (GRID, WEIGHTED, TWO),
    (
        Call("grid2x3", ("spectrum",)),
        Call("w9", ("kernel", "--t", "0.5")),
        Call("two", ("kernel", "--method", "uniformization", "--t", "1")),
        Call("w9", ("series", "--max-order", "4")),
        Call("grid2x3", ("verify",)),
        Call("two", ("verify", "--pair", "a0", "b0", "--pair", "a1", "a2")),
        Call("grid2x3", ("estimate",)),
        Call("two", ("paths",)),
        Call("grid2x3", ("bipartite",)),
        Call("w9", ("bipartite",)),
    ),
)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    d = tmp_path_factory.mktemp("graphs")
    out = {}
    for g in SMALL.graphs:
        out[g.name] = d / f"{g.name}.txt"
        out[g.name].write_text(g.text)
    return out


@pytest.fixture(scope="module")
def clean_round(paths):
    """Every call in SMALL, run once in-process."""
    return run.inprocess_round(SMALL, paths, cli)


@pytest.fixture(scope="module")
def outputs(clean_round):
    return clean_round.outputs


def test_clean_outputs_pass(clean_round):
    outcome, per_call = run.check_rounds(SMALL, [clean_round])
    assert outcome.problems == []
    assert outcome.n_failed == 0
    assert [c["attempted"] for c in per_call] == [1, 45, 45, 45, 15, 2, 15, 36, 1, 1]


def _check(i: int, out: bytes, status: int = 0) -> oracle.Outcome:
    call = SMALL.calls[i]
    return oracle.check(oracle.Ref(SMALL.graph(call.graph).text), call.argv, out, status)


def _edit(out: bytes, row: int, col: int, value: str) -> bytes:
    lines = out.decode().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    return ("\n".join(lines) + "\n").encode()


def _call_index(sub: str, graph: str) -> int:
    return next(i for i, c in enumerate(SMALL.calls) if (c.subcommand, c.graph) == (sub, graph))


@pytest.mark.parametrize(
    "sub, graph, row, col, value, category",
    [
        ("spectrum", "grid2x3", 3, 1, "1.5", "spectrum.wrong"),
        ("kernel", "w9", 2, 3, "0.25", "kernel.wrong"),
        ("kernel", "two", 2, 3, "-1e-30", "kernel.wrong"),
        ("series", "w9", 7, 3, "7", "series.wrong"),
        ("verify", "grid2x3", 5, 3, "99", "verify.wrong"),
        ("verify", "grid2x3", 5, 6, "-1", "verify.wrong"),
        ("verify", "two", 1, 2, "1", "verify.wrong"),
        ("estimate", "grid2x3", 4, 3, "9", "estimate.wrong"),
        ("estimate", "grid2x3", 4, 2, "", "estimate.blank"),
        ("estimate", "grid2x3", 4, 2, "unreachable", "estimate.false_unreachable"),
        ("paths", "two", 3, 3, "5", "paths.wrong"),
        ("bipartite", "grid2x3", 2, 2, "0", "bipartite.wrong"),
    ],
)
def test_corrupted_row_fails_one_operation(outputs, sub, graph, row, col, value, category):
    i = _call_index(sub, graph)
    out, status = outputs[i]
    clean = _check(i, out, status)
    assert clean.n_failed == 0
    bad = _check(i, _edit(out, row, col, value), status)
    assert bad.failed == Counter({category: 1})
    assert bad.attempted == clean.attempted


def test_false_bipartite_verdict_fails(outputs):
    i = _call_index("bipartite", "grid2x3")
    bad = _check(i, b"bipartite,x,class\nfalse,,\n")
    assert bad.failed == Counter({"bipartite.wrong": 1})


def test_missing_row_is_a_problem(outputs):
    i = _call_index("paths", "two")
    out, status = outputs[i]
    truncated = b"\n".join(out.split(b"\n")[:-3]) + b"\n"
    assert _check(i, truncated, status).failed["paths.wrong"] == 2
    assert _check(i, out, 1).problems


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_byte_identical_per_seed(name):
    a, b, c = workloads.build(name, 7), workloads.build(name, 7), workloads.build(name, 8)
    assert a == b
    assert [len(oracle.Ref(g.text).labels) for g in a.graphs] == [
        len(oracle.Ref(g.text).labels) for g in c.graphs
    ]
    assert [len(x.argv) for x in a.calls] == [len(x.argv) for x in c.calls]


def _weighted_degrees(text: str) -> list[tuple[int, str]]:
    degree: Counter = Counter()
    weights: dict[str, list[str]] = {}
    for line in text.splitlines():
        u, v, *w = line.split()
        for x in (u, v):
            degree[x] += 1
            weights.setdefault(x, []).extend(w)
    return sorted((degree[x], " ".join(sorted(weights[x]))) for x in degree)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_relabels_the_same_graphs(name):
    """Seeds change the files but not the graphs, so not the work of a run."""
    a, b = workloads.build(name, 7), workloads.build(name, 8)
    for ga, gb in zip(a.graphs, b.graphs):
        assert _weighted_degrees(ga.text) == _weighted_degrees(gb.text)
        assert (ga.text == gb.text) == ga.name.startswith("grid")


def test_peak_rss_is_the_childs_own(tmp_path):
    _, status, _, kib = run.run_process([sys.executable, "-c", run.ENTRY, "--help"], tmp_path)
    assert status == 0
    hwm = next(line for line in (tmp_path / "stderr").read_bytes().splitlines()
               if line.startswith(b"VmHWM:"))
    assert kib == int(hwm.split()[1])
    usage = type("Usage", (), {"ru_maxrss": 77})()
    assert run.peak_kib(b"VmHWM:\t   1234 kB\n", usage) == 1234
    assert run.peak_kib(b"", usage) == 77


def test_traced_and_untraced_bytes_match(paths, tmp_path):
    untraced = run.subprocess_round(SMALL, paths, tmp_path)
    tracer = tracing.Tracer()
    with tracer.installed():
        traced = run.inprocess_round(SMALL, paths, cli, tracer)
    assert traced.outputs == untraced.outputs
    metrics = tracer.metrics()
    assert set(metrics) | {"trace.overhead_s"} == {m[0] for m in tracing.LAYER_METRICS}
    assert metrics["spectral.eigendecompose_calls"] == 3
    assert metrics["varadhan.estimate_pair_calls"] == 15
    assert metrics["series.series_prefix_calls.weighted"] == 45
    assert metrics["varadhan.sampler_calls"] > 0
    # Every wrapper is unbound again.
    assert cli.main.__module__ == "graphheat.cli"
    assert cli.eigendecompose.__name__ == "eigendecompose"


def test_estimate_failure_counts_repeat(tmp_path):
    grid = GraphInput("grid10", workloads.grid_text(10, 10), False)
    path = tmp_path / "grid10.txt"
    path.write_text(grid.text)
    wl = Workload("w", (grid,), (Call("grid10", ("estimate",)),))
    first = run.subprocess_round(wl, {"grid10": path}, tmp_path)
    second = run.subprocess_round(wl, {"grid10": path}, tmp_path)
    one, _ = run.check_rounds(wl, [first])
    two, _ = run.check_rounds(wl, [second])
    assert one.failed == two.failed
    assert set(one.failed) <= set(oracle.KNOWN_FAULTS)


def test_benchmark_json_names_every_metric():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == tracing.LAYER_METRICS
    assert sorted(w["name"] for w in doc["workloads"]) == sorted(workloads.WORKLOADS)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "exact", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == b""
