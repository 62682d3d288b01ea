"""Spans around the calls into each qcrelax layer, recorded from outside.

`Tracer.install` replaces the layer entry points on the `qcrelax`
package namespace (the names the benchmark calls), SuperLU's `splu` as
the solver looks it up, and the `ConeLayout`/`Scaling` methods, with
wrappers that record a span (name, start, end, parent) around each call.
`Tracer.restore` puts the originals back.  A target that no longer exists
is skipped and its metric reported as absent.  Spans stay in memory until
the run writes them out.

A call made while a span of the same name is open (for example
`apply_Hinv` calling `apply_Winv`) opens no new span, so no time is
counted twice.
"""

from __future__ import annotations

import importlib
import os
import time
from collections import Counter, defaultdict

_API = "qcrelax"
_CONES = "qcrelax.cones"

#: (owner, attribute, span name); the owner is a module or "module:Class"
TARGETS = [
    (_API, "gen_lattice", "generators"),
    (_API, "homogenize", "model"),
    (_API, "aggregate_pattern", "model"),
    (_API, "chordal_extension", "chordal"),
    (_API, "maximal_cliques", "chordal"),
    (_API, "overlap_set", "chordal"),
    *((_API, f, "build") for f in (
        "build_fsdp", "build_ssdp", "build_fsocp", "build_ssocp",
        "build_dual_fsocp", "build_dual_ssocp", "extract_entries", "extract_dual_parts",
    )),
    (_API, "to_standard_form", "program.lower"),
    (_API, "export_sdpa", "program.export"),
    (_API, "solve", "solver"),
    ("scipy.sparse.linalg", "splu", "solver.factor"),
    (f"{_CONES}:ConeLayout", "scaling", "cones.scaling"),
    (f"{_CONES}:ConeLayout", "max_step", "cones.max_step"),
    (f"{_CONES}:ConeLayout", "in_interior", "cones.in_interior"),
    (f"{_CONES}:Scaling", "scale_columns", "cones.scale_columns"),
    *((f"{_CONES}:Scaling", f, "cones.apply") for f in (
        "apply_W", "apply_Winv", "apply_Hinv", "jordan", "lam_solve",
    )),
    (_API, "zero_fill", "completion"),
    (_API, "sdp_complete", "completion"),
    (_API, "sparse_to_full", "recovery"),
    (_API, "full_to_sparse", "recovery"),
    (_API, "dual_residual", "recovery"),
]

#: span name -> metric name for the plain busy-time metrics
BUSY_METRICS = {
    "generators": "generators.busy_s",
    "model": "model.busy_s",
    "chordal": "chordal.busy_s",
    "build": "build.busy_s",
    "program.lower": "program.lower_s",
    "program.export": "program.export_s",
    "solver": "solver.busy_s",
    "solver.factor": "solver.factor_s",
    "solver.lu_solve": "solver.lu_solve_s",
    "cones.max_step": "cones.max_step_s",
    "cones.scale_columns": "cones.scale_columns_s",
    "cones.scaling": "cones.scaling_s",
    "cones.apply": "cones.apply_s",
    "cones.in_interior": "cones.in_interior_s",
    "completion": "completion.busy_s",
    "recovery": "recovery.busy_s",
}

#: every per-layer metric with its unit, in report order
LAYER_METRICS = {
    **{metric: "s" for metric in BUSY_METRICS.values()},
    "solver.self_s": "s",
    "solver.iterations": "count",
    "solver.factor_calls": "count",
    "solver.factor_per_iter": "ratio",
    "solver.kkt_dim": "count",
    "solver.kkt_nnz": "count",
    "solver.lu_nnz": "count",
    "solver.fill_ratio": "ratio",
    "solver.lu_solves_per_iter": "ratio",
    "cones.in_interior_per_iter": "ratio",
    "program.export_bytes": "bytes",
    "program.A_rows": "count",
    "program.A_cols": "count",
    "program.A_nnz": "count",
    "trace.overhead_s": "s",
}

#: metrics that need a given span name to exist
_NEEDS = {
    "solver.self_s": "solver",
    "solver.iterations": "solver",
    "solver.factor_calls": "solver.factor",
    "solver.factor_per_iter": "solver.factor",
    "solver.kkt_dim": "solver.factor",
    "solver.kkt_nnz": "solver.factor",
    "solver.lu_nnz": "solver.factor",
    "solver.fill_ratio": "solver.factor",
    "solver.lu_solves_per_iter": "solver.factor",
    "cones.in_interior_per_iter": "cones.in_interior",
    "program.export_bytes": "program.export",
    "program.A_rows": "program.lower",
    "program.A_cols": "program.lower",
    "program.A_nnz": "program.lower",
}


def _resolve(owner):
    module, _, cls = owner.partition(":")
    try:
        obj = importlib.import_module(module)
        return getattr(obj, cls) if cls else obj
    except (ImportError, AttributeError):
        return None


class _TracedLU:
    """Stands in for a SuperLU factor so its triangular solves get spans."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("solver.lu_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """Spans and counts of one traced run; `targets` defaults to TARGETS."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []  # [name, start, end, parent index or None]
        self.counts = Counter()
        self.present = set()  # span names with at least one live target
        self.missing = []  # "owner.attribute" of targets that do not exist
        self._stack = []
        self._patches = []
        self._lu_nnz = {}  # (kkt dim, kkt nnz) -> L.nnz + U.nnz of its first factor
        self._t0 = time.perf_counter()

    # -- spans -----------------------------------------------------------------

    def span(self, name):
        return _Span(self, name)

    def _wrap(self, orig, name):
        after = {
            "solver": self._after_solve,
            "solver.factor": self._after_factor,
            "program.lower": self._after_lower,
            "program.export": self._after_export,
        }.get(name)

        def wrapper(*args, **kwargs):
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return orig(*args, **kwargs)
            with self.span(name):
                out = orig(*args, **kwargs)
            if after is not None:
                out = after(out, args)
            return out

        return wrapper

    def _after_solve(self, sol, args):
        self.counts["solver.iterations"] += sol.iterations
        return sol

    def _after_factor(self, lu, args):
        mat = args[0]
        key = (mat.shape[0], mat.nnz)
        if key not in self._lu_nnz:
            # extracting L and U copies them; keep that out of the solver's self time
            with self.span("trace.stats"):
                self._lu_nnz[key] = lu.L.nnz + lu.U.nnz
        return _TracedLU(lu, self)

    def _after_lower(self, sf, args):
        self.counts["program.A_rows"] += sf.A.shape[0]
        self.counts["program.A_cols"] += sf.A.shape[1]
        self.counts["program.A_nnz"] += sf.A.nnz
        return sf

    def _after_export(self, out, args):
        self.counts["program.export_bytes"] += os.path.getsize(args[1])
        return out

    # -- install / restore -------------------------------------------------------

    def install(self):
        self.present, self.missing = set(), []
        for owner, attr, name in self.targets:
            obj = _resolve(owner)
            if obj is None or not hasattr(obj, attr):
                self.missing.append(f"{owner}.{attr}")
                continue
            orig = obj.__dict__[attr] if isinstance(obj, type) else getattr(obj, attr)
            setattr(obj, attr, self._wrap(orig, name))
            self._patches.append((obj, attr, orig))
            self.present.add(name)
        if "solver.factor" in self.present:
            self.present.add("solver.lu_solve")

    def restore(self):
        while self._patches:
            obj, attr, orig = self._patches.pop()
            setattr(obj, attr, orig)

    # -- metrics -----------------------------------------------------------------

    def self_times(self):
        """{span name: [busy seconds, self seconds, calls]} over all spans.

        Self time is a span's duration minus that of its direct children.
        """
        out = defaultdict(lambda: [0.0, 0.0, 0])
        child = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child[parent] += end - start
        for k, (name, start, end, _) in enumerate(self.spans):
            row = out[name]
            row[0] += end - start
            row[1] += end - start - child[k]
            row[2] += 1
        return out

    def layer_metrics(self, overhead_s):
        """Per-layer metrics over every span recorded so far; absent ones omitted."""
        times = self.self_times()
        iters = self.counts["solver.iterations"]
        largest = max(self._lu_nnz, default=(0, 0))
        lu_nnz = self._lu_nnz.get(largest, 0)

        def per_iter(n):
            return n / iters if iters else 0.0

        values = {metric: times[name][0] for name, metric in BUSY_METRICS.items()}
        values.update({
            "solver.self_s": times["solver"][1],
            "solver.iterations": iters,
            "solver.factor_calls": times["solver.factor"][2],
            "solver.factor_per_iter": per_iter(times["solver.factor"][2]),
            "solver.kkt_dim": largest[0],
            "solver.kkt_nnz": largest[1],
            "solver.lu_nnz": lu_nnz,
            "solver.fill_ratio": lu_nnz / largest[1] if largest[1] else 0.0,
            "solver.lu_solves_per_iter": per_iter(times["solver.lu_solve"][2]),
            "cones.in_interior_per_iter": per_iter(times["cones.in_interior"][2]),
            "program.export_bytes": self.counts["program.export_bytes"],
            "program.A_rows": self.counts["program.A_rows"],
            "program.A_cols": self.counts["program.A_cols"],
            "program.A_nnz": self.counts["program.A_nnz"],
            "trace.overhead_s": overhead_s,
        })
        span_of = {metric: name for name, metric in BUSY_METRICS.items()} | _NEEDS
        return {
            metric: {"value": values[metric], "unit": unit}
            for metric, unit in LAYER_METRICS.items()
            if metric not in span_of or span_of[metric] in self.present
        }

    def spans_relative(self):
        return [[n, s - self._t0, e - self._t0, p] for n, s, e, p in self.spans]


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        self.index = len(t.spans)
        t.spans.append([self.name, time.perf_counter(), None, t._stack[-1] if t._stack else None])
        t._stack.append(self.index)

    def __exit__(self, *exc):
        t = self.tracer
        t._stack.pop()
        t.spans[self.index][2] = time.perf_counter()
        return False
