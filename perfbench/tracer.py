"""Span tracer installed around the public functions of the ndqc modules.

Nothing in the package is edited: every public module-level function of
each module (and `NondetMatrix.rank`) is replaced by a wrapper, and every
name in any ndqc module that is bound to a wrapped original is rebound, so
calls through `from .linalg import nullspace` style imports are recorded
too.  Spans (name, start, end, parent) are kept in memory and written out
after the pass.  Deterministic work counts are read from the wrapped calls'
arguments and return values.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import defaultdict

MODULES = ("linalg", "polys", "boolfn", "statevec", "querysim", "commsim",
           "report", "cli")

# tiny helpers whose wrapper would cost more than their body
SKIP = frozenset({"linalg.dot"})

METHODS = (("commsim", "NondetMatrix", "rank"),)

# names that sibling modules import and that must reach the wrappers
MUST_REBIND = (("polys", "nullspace"), ("commsim", "int_rank"),
               ("querysim", "verify_ndet"),
               ("querysim", "apply_scaled_matrix"),
               ("querysim", "apply_matrix_float"),
               ("commsim", "apply_matrix_float"),
               ("commsim", "apply_scaled_matrix"))


class Tracer:
    def __init__(self):
        self.spans = []            # [name, start, end, parent index]
        self.stack = []
        self.counts = defaultdict(int)
        self._undo = []

    # -- spans --------------------------------------------------------------

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self.stack[-1] if self.stack else -1])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    # -- installation -------------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module(f"ndqc.{m}") for m in MODULES}
        wrapped = {}               # id(original) -> wrapper
        for mname, mod in mods.items():
            for name, obj in list(vars(mod).items()):
                full = f"{mname}.{name}"
                if (name.startswith("_") or full in SKIP
                        or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapped[id(obj)] = self._wrap(obj, full)
        for mname, cls_name, meth in METHODS:
            cls = getattr(mods[mname], cls_name)
            orig = vars(cls)[meth]
            setattr(cls, meth, self._wrap(orig, f"{mname}.{cls_name}.{meth}"))
            self._undo.append((cls, meth, orig))
        targets = list(mods.values()) + [importlib.import_module("ndqc")]
        for mod in targets:
            for name, obj in list(vars(mod).items()):
                w = wrapped.get(id(obj))
                if w is not None:
                    setattr(mod, name, w)
                    self._undo.append((mod, name, obj))
        for mname, name in MUST_REBIND:
            if not hasattr(getattr(mods[mname], name), "__wrapped__"):
                raise RuntimeError(f"{mname}.{name} was not rebound")

    def uninstall(self):
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self.stack
        counts = self.counts
        clock = time.perf_counter
        is_boolfn = name.startswith("boolfn.")
        simulate = name == "querysim.simulate"

        def wrapper(*args, **kwargs):
            span = name
            if simulate:
                mode = args[2] if len(args) > 2 else kwargs.get("mode",
                                                                "exact")
                span = f"{name}.{mode}"
            idx = len(spans)
            parent = stack[-1] if stack else -1
            rec = [span, 0.0, None, parent]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as e:
                # a cap hit is counted where it leaves the boolfn layer
                if (is_boolfn and type(e).__name__ == "CapExceeded"
                        and not (parent >= 0
                                 and spans[parent][0].startswith("boolfn."))):
                    counts["boolfn.cap_hits"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                # counting is benchmark work: give it a span of its own
                c = ["trace.count", rec[2], None, parent]
                spans.append(c)
                count(counts, args, kwargs, out)
                c[2] = clock()
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper


# ---------------------------------------------------------------------------
# deterministic counts from arguments and return values


def _count_nullspace(counts, args, kwargs, out):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs["ncols"]
    counts["linalg.nullspace.cells"] += len(rows) * ncols
    bits = max((abs(v).bit_length() for _, vec in out for v in vec),
               default=0)
    if bits > counts["linalg.nullspace.max_bits"]:
        counts["linalg.nullspace.max_bits"] = bits


def _count_int_rank(counts, args, kwargs, out):
    rows = args[0]
    ncols = args[1] if len(args) > 1 else kwargs.get("ncols")
    if rows:
        counts["linalg.int_rank.cells"] += len(rows) * (ncols or len(rows[0]))


def _count_ndeg_decide(counts, args, kwargs, out):
    if out.witness is not None:
        counts["polys.certificates"] += 1
        counts["polys.resamples"] += out.resamples


def _count_extract(counts, args, kwargs, out):
    counts["querysim.extractions"] += 1
    counts["querysim.retries"] += out[1]


COUNTERS = {
    "linalg.nullspace": _count_nullspace,
    "linalg.int_rank": _count_int_rank,
    "polys.ndeg_decide": _count_ndeg_decide,
    "querysim.extract_ndet_poly_stats": _count_extract,
}


# ---------------------------------------------------------------------------
# aggregation


def _span_self(spans):
    """Self seconds of each span: its duration minus its children's."""
    out = [t1 - t0 for _, t0, t1, _ in spans]
    for _, t0, t1, parent in spans:
        if parent >= 0:
            out[parent] -= t1 - t0
    return out


def self_times(spans):
    """Per span name: (calls, self seconds)."""
    calls = defaultdict(int)
    selft = defaultdict(float)
    for (name, _, _, _), s in zip(spans, _span_self(spans)):
        calls[name] += 1
        selft[name] += s
    return dict(calls), dict(selft)


def module_of(span_name):
    return span_name.split(".", 1)[0]


def job_breakdown(spans, top=3):
    """For each root span (one job), its heaviest functions by self time."""
    root = []
    per_root = defaultdict(lambda: defaultdict(float))
    for i, ((name, _, _, parent), s) in enumerate(zip(spans,
                                                      _span_self(spans))):
        root.append(i if parent < 0 else root[parent])
        if name != "speed.sample":
            per_root[root[i]][name] += s
    out = {}
    for r, by_name in per_root.items():
        total = spans[r][2] - spans[r][1]
        best = sorted(by_name.items(), key=lambda kv: -kv[1])[:top]
        out[r] = [(n, s, s / total if total > 0 else 0.0) for n, s in best]
    return out


def write_spans(spans, path):
    with open(path, "w") as fh:
        for rec in spans:
            fh.write(json.dumps(rec, separators=(",", ":")) + "\n")
