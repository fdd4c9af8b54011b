"""Per-layer spans recorded from outside the library.

The tracer wraps the module attributes through which callers reach each
layer (for example ``gibbsmpo.gibbs.truncated_merge_dense`` and
``gibbsmpo.merge.truncated_merge_dense``, which are the same function bound
in two namespaces) and records one span per call.  Spans are kept in memory
and written out when the run ends.  Wrappers exist only while
:meth:`Tracer.installed` is active, so untraced operations run the library
exactly as users do.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict


def _merge_attrs(args, out):
    ms = args[0]
    return {"sites": ms.spec_ab.n, "order": ms.order}


# (module, attribute, span name, attrs(args, result) -> dict or None)
TARGETS = (
    ("model", "dense_matrix", "model.dense_matrix", None),
    ("expsum", "approximate_hamiltonian", "expsum.approximate_hamiltonian", None),
    ("expsum", "fit_kernel", "expsum.fit_kernel",
     lambda args, out: {"terms": out.num_terms}),
    ("mpo", "multiply", "mpo.multiply", None),
    ("mpo", "multiply_compressed", "mpo.multiply_compressed", None),
    ("mpo", "compress", "mpo.compress", None),
    ("mpo", "add", "mpo.add", None),
    ("mpo", "from_dense", "mpo.from_dense", None),
    ("mpo", "hamiltonian_mpo", "mpo.hamiltonian_mpo",
     lambda args, out: {"bond": out.max_bond}),
    ("mpo", "MPO.densify", "mpo.densify", None),
    ("merge", "truncated_merge_dense", "merge.truncated_merge_dense", _merge_attrs),
    ("merge", "build_merge_mpo", "merge.build_merge_mpo", _merge_attrs),
    ("oracle", "dense_exp", "oracle.dense_exp", None),
    ("oracle", "relative_error", "oracle.relative_error", None),
    ("gibbs", "plan_budget", "gibbs.plan_budget", None),
    ("gibbs", "build_high_temp_mpo", "gibbs.build_high_temp_mpo", None),
    ("gibbs", "build_gibbs_mpo", "gibbs.build_gibbs_mpo",
     lambda args, out: {"timings": dict(out[1].timings)}),
)

# verify.ALL_CHECKS entries are wrapped as well; run_checks reads each
# entry's __code__ to decide whether to pass the seed, so the wrapper
# forwards attribute lookups to the check it wraps.
CHECK_PREFIX = "verify."

STAGES = ("plan", "merge", "power", "measure")


class _CheckWrapper:
    def __init__(self, tracer, name, fn):
        self._tracer, self._name, self._fn = tracer, name, fn

    def __call__(self, *args, **kwargs):
        with self._tracer.span(self._name):
            return self._fn(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(self._fn, attr)


class Tracer:
    """Span recorder for one workload run; spans share an operation id."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._next_id = 0
        self._op_id: int | None = None
        self._t0 = time.perf_counter()

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name: str):
        span = {"name": name, "start": time.perf_counter() - self._t0,
                "end": None, "span_id": self._next_id,
                "parent_id": self._stack[-1]["span_id"] if self._stack else None,
                "op_id": self._op_id, "workload": self.workload}
        self._next_id += 1
        self._stack.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter() - self._t0
            self._stack.pop()
            self.spans.append(span)

    @contextlib.contextmanager
    def operation(self, op_id: int):
        """Root span of one benchmark operation."""
        self._op_id = op_id
        try:
            with self.span("op") as span:
                yield span
        finally:
            self._op_id = None

    def _wrap(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as span:
                out = fn(*args, **kwargs)
            if attrs is not None:
                span.update(attrs(args, out))
            return out
        return wrapper

    # -- installing wrappers -----------------------------------------------

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer entry point for the duration of the block."""
        import gibbsmpo  # noqa: F401  (ensures every submodule is loaded)
        import gibbsmpo.verify

        modules = [m for key, m in list(sys.modules.items())
                   if key == "gibbsmpo" or key.startswith("gibbsmpo.")]
        undo = []  # (container, key, original), restored in reverse
        try:
            for mod_name, attr, span_name, attrs in TARGETS:
                module = sys.modules[f"gibbsmpo.{mod_name}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[meth]
                    undo.append((cls, meth, original))
                    setattr(cls, meth, self._wrap(span_name, original, attrs))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(span_name, original, attrs)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            undo.append((mod, key, original))
                            setattr(mod, key, wrapper)
            checks = gibbsmpo.verify.ALL_CHECKS
            for name, fn in list(checks.items()):
                undo.append((checks, name, fn))
                checks[name] = _CheckWrapper(self, CHECK_PREFIX + name, fn)
            yield self
        finally:
            for target, key, original in reversed(undo):
                if isinstance(target, dict):
                    target[key] = original
                else:
                    setattr(target, key, original)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        with open(path, "w") as fh:
            for span in sorted(self.spans, key=lambda s: s["span_id"]):
                fh.write(json.dumps(span, sort_keys=True) + "\n")


def summarize(spans: list[dict], check_names) -> dict:
    """Per-op mean of the per-layer metrics named in BENCHMARK.json.

    ``.s`` is self time (span minus its direct children), ``.calls`` a
    count; the remaining entries are counters read from span attributes.
    """
    by_op: dict[int, list[dict]] = defaultdict(list)
    for span in spans:
        by_op[span["op_id"]].append(span)
    per_op = [_summarize_op(ops, check_names) for _, ops in sorted(by_op.items())]
    if not per_op:
        return {}
    keys = per_op[0].keys()
    return {k: sum(p[k] for p in per_op) / len(per_op) for k in keys}


def _summarize_op(spans: list[dict], check_names) -> dict:
    child_time: dict[int, float] = defaultdict(float)
    by_id = {s["span_id"]: s for s in spans}
    for s in spans:
        if s["parent_id"] is not None:
            child_time[s["parent_id"]] += s["end"] - s["start"]
    self_s: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for s in spans:
        self_s[s["name"]] += s["end"] - s["start"] - child_time[s["span_id"]]
        calls[s["name"]] += 1

    out: dict[str, float] = {}
    for _, _, name, _ in TARGETS:
        out[f"{name}.s"] = self_s[name]
        out[f"{name}.calls"] = calls[name]
    for check in check_names:
        out[f"{CHECK_PREFIX}{check}.s"] = self_s[CHECK_PREFIX + check]

    merges = [s for s in spans if s["name"] in
              ("merge.truncated_merge_dense", "merge.build_merge_mpo")
              and not _has_ancestor(s, by_id, "merge.")]
    top = max((s.get("sites", 0) for s in merges), default=0)
    out["merge.top_merge.s"] = sum(s["end"] - s["start"] for s in merges
                                   if s.get("sites", 0) == top)
    out["merge.order"] = max((s.get("order", 0) for s in merges), default=0)
    out["expsum.series_terms"] = max(
        (s["terms"] for s in spans if "terms" in s), default=0)
    out["mpo.ham_bond"] = max(
        (s["bond"] for s in spans if "bond" in s), default=0)

    builds = [s for s in spans if s["name"] == "gibbs.build_gibbs_mpo"]
    for stage in STAGES:
        out[f"gibbs.stage.{stage}_s"] = sum(
            s.get("timings", {}).get(f"{stage}_s", 0.0) for s in builds)
    # the report's plan and merge stages should match the spans that
    # implement them
    gap = 0.0
    for b in builds:
        kids = [s for s in spans if s["parent_id"] == b["span_id"]]
        for stage, layer in (("plan", "gibbs.plan_budget"),
                             ("merge", "gibbs.build_high_temp_mpo")):
            spanned = sum(k["end"] - k["start"] for k in kids
                          if k["name"] == layer)
            gap += abs(b.get("timings", {}).get(f"{stage}_s", 0.0) - spanned)
    out["trace.stage_gap_s"] = gap

    out["trace.unattributed_s"] = self_s["op"]
    return out


def _has_ancestor(span, by_id, prefix) -> bool:
    parent = by_id.get(span["parent_id"])
    while parent is not None:
        if parent["name"].startswith(prefix):
            return True
        parent = by_id.get(parent["parent_id"])
    return False
