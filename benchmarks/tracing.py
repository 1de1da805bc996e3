"""Per-layer timings of in-process CLI calls, taken from outside the package.

:class:`Tracer` replaces each traced public function at every module
attribute of the ``graphheat`` package that binds it (``series.laplacian_apply``
and ``varadhan.laplacian_apply`` alike), so calls between modules are seen
too.  Each call becomes a span: name, start, end, parent span and the CLI
call it belongs to.  A function's self time is its span minus the spans of
the traced calls it made.  The samplers that ``spectral_sampler`` and
``uniformization_sampler`` return are wrapped to count calls and the kernel
builds they trigger; they are counted, not spanned, since there are hundreds
of thousands of them.  Spans stay in memory until :meth:`Tracer.write_spans`.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from collections import Counter

import numpy as np

# (module, function, whether its metrics are split by weighted/unweighted
# graph, whether its call count is reported).
TRACED = (
    ("cli", "main", False, False),
    ("graphs", "parse_edge_list", True, False),
    ("graphs", "bfs_profile", True, True),
    ("graphs", "is_bipartite", True, False),
    ("series", "laplacian_apply", True, True),
    ("series", "series_prefix", True, True),
    ("spectral", "kirchhoff_matrix", False, True),
    ("spectral", "eigendecompose", False, True),
    ("kernels", "kernel_spectral", False, True),
    ("kernels", "kernel_uniformization", False, True),
    ("varadhan", "verify_graph", False, False),
    ("varadhan", "verify_pair", False, False),
    ("varadhan", "estimate_pair", False, True),
)
_SAMPLER_FACTORIES = ("spectral_sampler", "uniformization_sampler")
_KERNEL_BUILDERS = ("kernels.kernel_spectral", "kernels.kernel_uniformization")


def _layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for mod, fn, split, counted in TRACED:
        kinds = [("_s", "s")] + ([("_calls", "count")] if counted else [])
        for suffix, unit in kinds:
            base = f"{mod}.{fn}{suffix}"
            out.append((base, unit, "lower"))
            if split:
                out += [(f"{base}.weighted", unit, "lower"), (f"{base}.unweighted", unit, "lower")]
    out += [
        ("spectral.residual", "ratio", "lower"),
        ("spectral.orthogonality_defect", "ratio", "lower"),
        ("varadhan.sampler_calls", "count", "lower"),
        ("varadhan.sampler_hit_ratio", "ratio", "higher"),
        ("trace.overhead_s", "s", "lower"),
    ]
    return out


LAYER_METRICS = _layer_metrics()


class Tracer:
    """Spans and per-function totals of one traced round of CLI calls."""

    def __init__(self, round_no: int = 0):
        self.round_no = round_no
        self.call_no = 0
        self.names: list[str] = []
        self.spans: list[tuple[int, ...]] = []
        self._stack: list[list[int]] = []  # [span id, ns spent in child spans]
        self._next_id = 0
        self.self_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.kernel_builds = 0
        self.sampler_calls = 0
        self.sampler_builds = 0
        self.decompositions: list[tuple[np.ndarray, object]] = []

    def _span(self, name: str, fn, split: bool):
        name_idx = len(self.names)
        self.names.append(name)
        split_keys = (f"{name}.unweighted", f"{name}.weighted")
        graph_is_result = fn.__name__ == "parse_edge_list"
        keeps_decomposition = fn.__name__ == "eigendecompose"
        builds_kernel = name in _KERNEL_BUILDERS

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = self._stack[-1][0] if self._stack else -1
            frame = [span_id, 0]
            self._stack.append(frame)
            start = time.perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += end - start
                self.spans.append((self.round_no, self.call_no, span_id, parent, name_idx, start, end))
                self_ns = end - start - frame[1]
                self.self_ns[name] += self_ns
                self.calls[name] += 1
                g = result if graph_is_result else args[0] if args else None
                if split and g is not None:
                    key = split_keys[g.is_weighted]
                    self.self_ns[key] += self_ns
                    self.calls[key] += 1
                self.kernel_builds += builds_kernel
                if keeps_decomposition and result is not None:
                    self.decompositions.append((args[0].dense, result))

        return traced

    def _sampler_factory(self, name: str, fn):
        spanned = self._span(name, fn, False)

        def factory(*args, **kwargs):
            sampler = spanned(*args, **kwargs)

            def sample(t, x, y):
                before = self.kernel_builds
                p = sampler(t, x, y)
                self.sampler_calls += 1
                self.sampler_builds += self.kernel_builds != before
                return p

            return sample

        return factory

    @contextlib.contextmanager
    def installed(self):
        """Bind the traced wrappers in every loaded ``graphheat`` module."""
        wrappers = {}
        for mod, fn_name, split, _ in TRACED:
            fn = getattr(importlib.import_module(f"graphheat.{mod}"), fn_name)
            wrappers[id(fn)] = (fn, self._span(f"{mod}.{fn_name}", fn, split))
        for fn_name in _SAMPLER_FACTORIES:
            fn = getattr(importlib.import_module("graphheat.varadhan"), fn_name)
            wrappers[id(fn)] = (fn, self._sampler_factory(f"varadhan.{fn_name}", fn))
        modules = [m for k, m in sys.modules.items() if k == "graphheat" or k.startswith("graphheat.")]
        bound = [
            (m, attr, value)
            for m in modules
            for attr, value in vars(m).items()
            if id(value) in wrappers and wrappers[id(value)][0] is value
        ]
        for m, attr, value in bound:
            setattr(m, attr, wrappers[id(value)][1])
        try:
            yield self
        finally:
            for m, attr, value in bound:
                setattr(m, attr, value)

    def metrics(self) -> dict[str, float]:
        """This round's per-layer values (``trace.overhead_s`` excepted)."""
        out: dict[str, float] = {}
        for mod, fn, split, counted in TRACED:
            key = f"{mod}.{fn}"
            for tag in ("", ".weighted", ".unweighted") if split else ("",):
                out[f"{key}_s{tag}"] = self.self_ns[key + tag] / 1e9
                if counted:
                    out[f"{key}_calls{tag}"] = self.calls[key + tag]
        residual = defect = 0.0
        for L, dec in self.decompositions:
            norm = float(np.linalg.norm(L))
            if norm:
                residual = max(residual, float(np.linalg.norm(L @ dec.V - dec.V * dec.mu)) / norm)
            defect = max(defect, float(np.linalg.norm(dec.V.T @ dec.V - np.eye(dec.n))))
        out["spectral.residual"] = residual
        out["spectral.orthogonality_defect"] = defect
        out["varadhan.sampler_calls"] = self.sampler_calls
        out["varadhan.sampler_hit_ratio"] = (
            1.0 - self.sampler_builds / self.sampler_calls if self.sampler_calls else 0.0
        )
        return out


def write_spans(path, tracers: list[Tracer]) -> None:
    """Write the spans of every traced round as one JSON document."""
    doc = {
        "fields": ["round", "call", "span", "parent", "name", "start_ns", "end_ns"],
        "names": tracers[0].names,
        "spans": [s for t in tracers for s in t.spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, separators=(",", ":"))
