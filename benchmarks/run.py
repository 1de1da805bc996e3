"""Benchmark of the graphheat command line, run from the root of a checkout.

    python3 benchmarks/run.py --workload spectral --seed 1 --seconds 40 --trace 0

With ``--trace 0`` every CLI call is its own process, one after another (a
closed loop with one client), and the run repeats whole rounds of the
workload's calls until ``--seconds`` have passed.  With ``--trace 1`` the same
calls run in this process through ``graphheat.cli.main``, alternating an
untraced round with a traced one (see ``tracing.py``).  Either way every
output row is checked against ``oracle.py`` after the timed rounds.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it is the full
report (per-call and per-subcommand times, failures by category).  Both are
also written to ``.bench_work/`` at the root of the checkout.
"""

from __future__ import annotations

import os

# BLAS threads of every CLI process; one thread keeps the dense kernels'
# timings steady on a small shared machine and their output unchanged.
BLAS_THREADS = 1
BLAS_ENV = {v: str(BLAS_THREADS) for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
if __name__ == "__main__":
    os.environ.update(BLAS_ENV)  # before numpy loads: the traced run computes in this process

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# What the console script generated from ``graphheat = "graphheat.cli:main"``
# runs, followed by the process's own peak resident set (``VmHWM``) on stderr.
# The child's rusage cannot give that figure: Linux carries the resident
# high-water mark of the process that forked it, this benchmark, across exec.
ENTRY = (
    "import sys\n"
    "try:\n"
    "    from graphheat.cli import main\n"
    "    sys.exit(main())\n"
    "finally:\n"
    "    try:\n"
    "        with open('/proc/self/status', encoding='ascii') as fh:\n"
    "            sys.stderr.write(''.join(line for line in fh if line.startswith('VmHWM:')))\n"
    "    except OSError:\n"
    "        pass\n"
)
SETUP = (
    "import sys; import graphheat.cli as cli\n"
    "for path in sys.argv[1:]:\n"
    "    with open(path, encoding='utf-8') as fh: cli.parse_edge_list(fh.read())\n"
)
SETUP_PER_ROUND = 1
CALL_TIMEOUT_S = 150

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("weighted_s", "s"),
    ("peak_rss_mib", "MiB"),
)


def child_env() -> dict[str, str]:
    env = dict(os.environ, **BLAS_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv: list[str], workdir: Path) -> tuple[bytes, int, float, int]:
    """Run one child to its end: (stdout, exit status, wall seconds, peak RSS KiB)."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        timer = threading.Timer(CALL_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, wstatus, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wstatus)
    return out_path.read_bytes(), proc.returncode, elapsed, peak_kib(err_path.read_bytes(), usage)


def peak_kib(stderr: bytes, usage) -> int:
    """The child's own ``VmHWM`` from the last line ENTRY wrote, else its rusage."""
    for line in reversed(stderr.splitlines()):
        if line.startswith(b"VmHWM:"):
            return int(line.split()[1])
    return usage.ru_maxrss


def measure_setup(paths: list[Path], workdir: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI and parsing the graphs."""
    _, status, elapsed, _ = run_process([sys.executable, "-c", SETUP, *map(str, paths)], workdir)
    if status != 0:
        raise RuntimeError(f"set-up child exited {status}: {(workdir / 'stderr').read_text()}")
    return elapsed


class Round:
    """Outputs and times of one pass over the workload's calls."""

    def __init__(self):
        self.outputs: list[tuple[bytes, int]] = []
        self.seconds: list[float] = []
        self.rss_kib: list[int] = []


def subprocess_round(wl: workloads.Workload, paths: dict[str, Path], workdir: Path) -> Round:
    rnd = Round()
    for call in wl.calls:
        out, status, elapsed, rss = run_process(
            [sys.executable, "-c", ENTRY, *call.cli_args(str(paths[call.graph]))], workdir
        )
        rnd.outputs.append((out, status))
        rnd.seconds.append(elapsed)
        rnd.rss_kib.append(rss)
    return rnd


def inprocess_round(wl, paths, cli, tracer: tracing.Tracer | None = None) -> Round:
    rnd = Round()
    for i, call in enumerate(wl.calls):
        if tracer is not None:
            tracer.call_no = i
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            status = cli.main(call.cli_args(str(paths[call.graph])))
        rnd.seconds.append(time.perf_counter() - start)
        rnd.outputs.append((buf.getvalue().encode("utf-8"), status))
    return rnd


def check_rounds(wl: workloads.Workload, rounds: list[Round]) -> tuple[oracle.Outcome, list[dict]]:
    """Check every call of every round; identical repeats reuse the first check."""
    refs = {g.name: oracle.Ref(g.text) for g in wl.graphs}
    total = oracle.Outcome()
    per_call = []
    for i, call in enumerate(wl.calls):
        seen: dict[tuple[bytes, int], oracle.Outcome] = {}
        call_total = oracle.Outcome()
        for rnd in rounds:
            key = rnd.outputs[i]
            if key not in seen:
                seen[key] = oracle.check(refs[call.graph], call.argv, *key)
            call_total.add(seen[key])
        total.add(call_total)
        per_call.append({
            "subcommand": call.subcommand,
            "graph": call.graph,
            "argv": list(call.argv),
            "distinct_outputs": len(seen),
            "attempted": call_total.attempted,
            "failed": dict(call_total.failed),
            "problems": call_total.problems[:5],
            "seconds": [rnd.seconds[i] for rnd in rounds],
        })
    return total, per_call


def timing_report(wl: workloads.Workload, rounds: list[Round]) -> dict[str, float]:
    """Per-call mean times over rounds, summed per subcommand, over the
    weighted calls and over all calls (the mean wall time of a round).

    The host slows calls down by up to a half, in phases that last from
    seconds to minutes.  Over runs of the same code, the mean over a whole
    run spread less from run to run than per-call medians, fastest rounds or
    the mean of the faster half did.
    """
    per_call = [statistics.fmean(r.seconds[i] for r in rounds) for i in range(len(wl.calls))]
    weighted = {g.name for g in wl.graphs if g.weighted}
    report: dict[str, float] = {}
    for call, m in zip(wl.calls, per_call):
        report[f"{call.subcommand}_s"] = report.get(f"{call.subcommand}_s", 0.0) + m
    report["weighted_s"] = sum(m for c, m in zip(wl.calls, per_call) if c.graph in weighted)
    report["wall_s"] = sum(per_call)
    return report


def run_untraced(wl, paths, workdir, seconds) -> tuple[dict, list[Round], dict]:
    """Rounds of CLI processes until ``seconds`` have passed.

    The first round warms the file cache and is not timed; its outputs are
    checked and counted like the others.  Set-up is sampled before every
    timed round, so that its median spreads over the whole run.
    """
    graph_paths = [paths[g.name] for g in wl.graphs]
    start = time.perf_counter()
    warm_up = subprocess_round(wl, paths, workdir)
    setup: list[float] = []
    rounds: list[Round] = []
    while not rounds or time.perf_counter() - start < seconds:
        setup += [measure_setup(graph_paths, workdir) for _ in range(SETUP_PER_ROUND)]
        rounds.append(subprocess_round(wl, paths, workdir))
    times = timing_report(wl, rounds)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": times["wall_s"],
        "weighted_s": times["weighted_s"],
        "peak_rss_mib": max(max(r.rss_kib) for r in rounds) / 1024.0,
    }
    return metrics, [warm_up, *rounds], times


def run_traced(wl, paths, seconds, spans_path: Path) -> tuple[dict, list[Round], dict, list[str]]:
    sys.path.insert(0, str(SRC))
    import graphheat.cli as cli

    plain: list[Round] = []
    traced: list[Round] = []
    tracers: list[tracing.Tracer] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(inprocess_round(wl, paths, cli))
        tracer = tracing.Tracer(len(tracers))
        with tracer.installed():
            traced.append(inprocess_round(wl, paths, cli, tracer))
        tracers.append(tracer)
    per_round = [t.metrics() for t in tracers]
    metrics = {name: statistics.median_low(m[name] for m in per_round) for name in per_round[0]}
    metrics["trace.overhead_s"] = timing_report(wl, traced)["wall_s"] - timing_report(wl, plain)["wall_s"]
    tracing.write_spans(spans_path, tracers)
    mismatched = [
        f"traced output of call {i} ({c.subcommand} {c.graph}) differs from the untraced one"
        for i, c in enumerate(wl.calls)
        if any(r.outputs[i] != plain[0].outputs[i] for r in plain + traced)
    ]
    times = timing_report(wl, plain)
    times["traced_wall_s"] = times["wall_s"] + metrics["trace.overhead_s"]
    return metrics, plain + traced, times, mismatched


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "graphheat" / "cli.py").is_file():
        print(f"error: no graphheat sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    workdir = WORK / f"{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for g in wl.graphs:
            paths[g.name] = workdir / f"{g.name}.txt"
            paths[g.name].write_text(g.text, encoding="utf-8")
        problems: list[str] = []
        if args.trace:
            metrics, rounds, times, problems = run_traced(
                wl, paths, args.seconds, WORK / f"{tag}-spans.json"
            )
            units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        else:
            metrics, rounds, times = run_untraced(wl, paths, workdir, args.seconds)
            units = dict(END_TO_END)
        outcome, per_call = check_rounds(wl, rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems += outcome.problems
    unexpected = {k: v for k, v in outcome.failed.items() if k not in oracle.KNOWN_FAULTS}
    correct = not problems and not unexpected
    result = {
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.n_failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    report = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(rounds),
        "failed_by_category": dict(sorted(outcome.failed.items())),
        "problems": problems[:20],
        "times": {name: {"value": v, "unit": "s"} for name, v in times.items()},
        "calls": per_call,
        "blas_threads": BLAS_THREADS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpus": os.cpu_count(),
    }
    (WORK / f"{tag}.json").write_text(json.dumps({"report": report, "result": result}, indent=1))
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
