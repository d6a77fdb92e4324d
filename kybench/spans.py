"""Spans for the traced benchmark run, and their reduction to per-layer
metrics.

A span is one timed call into a layer: name, start, end, the span that
caused it, the command it belongs to, and counts taken at that boundary.
Spans are kept in memory and written as JSON lines when the process ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

# per-layer time metric -> the span names whose self time it sums
TIME_METRICS = {
    "diagrams.basis_s": ("diagrams.basis",),
    "symmetric.specht_s": ("symmetric.specht",),
    "gram.assemble_s": ("gram.assemble",),
    "exactmath.det_s": ("exactmath.det",),
    "gram.factor_s": ("gram.factor",),
    "rollet.walk_s": ("rollet.walk",),
    "rollet.mvf_s": ("rollet.mvf",),
    "rollet.export_s": ("rollet.export",),
    "morphisms.solve_s": ("morphisms.solve",),
    "morphisms.step_s": ("morphisms.step",),
    "morphisms.submodule_s": ("morphisms.submodule",),
    "roots.layout_s": ("roots.layout",),
    "cli.cache_put_s": ("cli.cache_put",),
    "cli.cache_get_s": ("cli.cache_get",),
    "cli.residual_s": ("cli.main", "cli.produce"),
}

# count metric -> (span names, count key, how counts combine)
COUNT_METRICS = {
    "diagrams.half_diagrams": (("diagrams.basis",), "half_diagrams", sum),
    "gram.matrices": (("gram.assemble",), "matrices", sum),
    "gram.dim_max": (("gram.assemble",), "dim", max),
    "gram.nonzero_entries": (("gram.assemble",), "nonzero", sum),
    "exactmath.det_calls": (("exactmath.det",), "calls", sum),
    "exactmath.det_points": (("exactmath.det",), "points", sum),
    "roots.claims": (("roots.layout",), "claims", sum),
    "cli.cache_hits": (("cli.cache_get",), "records", sum),
    "cli.cache_misses": (("cli.cache_put",), "records", sum),
    "cli.cache_bytes": (("cli.cache_get", "cli.cache_put"), "bytes", sum),
}


class Tracer:
    """In-memory span recorder for one command process."""

    def __init__(self, command: int):
        self.command = command
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        """Time the body; the yielded dict takes counts set inside it."""
        rec = {"cmd": self.command, "id": len(self.spans),
               "parent": self._stack[-1] if self._stack else None,
               "name": name, "start": time.perf_counter(), "end": None,
               "counts": dict(counts)}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec["counts"]
        except BaseException as exc:
            rec["counts"]["error"] = type(exc).__name__
            raise
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


def self_times(spans: list[dict]) -> list[float]:
    """Duration of each span minus the time its children cover.  Spans of
    one command run in one thread, so children never overlap."""
    index = {(s["cmd"], s["id"]): k for k, s in enumerate(spans)}
    out = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            out[index[(s["cmd"], s["parent"])]] -= s["end"] - s["start"]
    return out


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer self times (s) and counts, summed over all commands."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for metric, names in TIME_METRICS.items():
        out[metric] = sum(t for s, t in zip(spans, own) if s["name"] in names)
    for metric, (names, key, combine) in COUNT_METRICS.items():
        out[metric] = combine([0] + [s["counts"].get(key, 0) for s in spans
                                     if s["name"] in names])
    return out
