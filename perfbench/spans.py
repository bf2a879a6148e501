"""Span recorder for traced passes, and the per-layer metrics built from it.

`instrument` wraps the public functions of the library modules, in every
module that bound them by name (`intersect` in geometry, pairs and angles),
so each call records one span: name, start, end, parent span, job.  Spans
stay in memory in flat arrays; `Recorder.save` writes them out when the
pass ends and `load` reads them back.  A span's self time is its duration
minus the time its child spans cover; spans of one thread nest, so the
children of a span never overlap and their durations simply add up.
"""

from __future__ import annotations

import array
import functools
import importlib
import inspect
import math
import time
from collections import Counter, defaultdict
from fractions import Fraction

LAYER_MODULES = ("geometry", "pairs", "polytope", "angles", "classify", "dsl", "svgfig", "cli")
# methods traced besides the public module functions: (module, class, method)
METHODS = (
    ("geometry", "DivisorClass", "__add__"),
    ("geometry", "DivisorClass", "__sub__"),
    ("geometry", "DivisorClass", "__neg__"),
    ("geometry", "DivisorClass", "__rmul__"),
    ("geometry", "DivisorClass", "__mul__"),
    ("cli", "RunReport", "render"),
)

# per-layer metric -> the span names it aggregates
LAYERS = {
    "polytope.is_feasible": ("polytope.is_feasible",),
    "polytope.closure": ("polytope.closure",),
    "polytope.vertices": ("polytope.vertices",),
    "polytope.remove_redundant": ("polytope.remove_redundant",),
    "polytope.contains": ("polytope.contains",),
    "angles.reparam": ("angles.reparam",),
    "angles.aa_outer_blowup": ("angles.aa_outer_blowup",),
    "angles.verdicts": ("angles.is_log_dp", "angles.is_strongly_aldp", "angles.is_aldp"),
    "angles.aa_halfspaces_rank_le2": ("angles.aa_halfspaces_rank_le2",),
    "geometry.intersect": ("geometry.intersect",),
    "geometry.divisor_ops": tuple(f"geometry.DivisorClass.{m}" for _, c, m in METHODS if c == "DivisorClass"),
    "geometry.is_ample": ("geometry.is_ample",),
    "pairs.make_pair": ("pairs.make_pair",),
    "pairs.log_adjoint": ("pairs.log_adjoint",),
    "pairs.blowup": ("pairs.blow_up_smooth_point", "pairs.blow_up_node"),
    "pairs.contract": ("pairs.contract",),
    "classify.enumerate": ("classify.enumerate_maeda", "classify.enumerate_rank2"),
    "dsl.parse": ("dsl.parse_pair_spec",),
    "cli.render": ("cli.RunReport.render",),
    "svgfig.render": ("svgfig.render_body",),
}


class Recorder:
    """Spans of one pass, in parallel arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array.array("l")
        self.parent = array.array("l")
        self.job = array.array("l")
        self.start = array.array("d")
        self.end = array.array("d")
        self.stack = [-1]
        self.current_job = -1
        self.counts: Counter = Counter()
        # (halfspaces, point) per contains call; rows are counted after the pass
        self.contains_calls: list = []

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str):
        nid = self.intern(name)
        hook = HOOKS.get(name)
        name_ids, parents, jobs = self.name_ids, self.parent, self.job
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            jobs.append(rec.current_job)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
            if hook is not None:
                hook(rec, args, result)
            return result

        return traced

    def finish(self) -> None:
        """Count the rows each contains call evaluated (short-circuit order)."""
        rows = 0
        for halfspaces, x in self.contains_calls:
            point = tuple(Fraction(v) for v in x)
            for hs in halfspaces:
                rows += 1
                if not hs.holds(point):
                    break
        self.counts["polytope.contains.rows_evaluated"] = rows
        self.contains_calls.clear()

    def save(self, path) -> None:
        with open(path, "wb") as fh:
            for arr in (self.name_ids, self.parent, self.job, self.start, self.end):
                arr.tofile(fh)

    def header(self) -> dict:
        return {"names": self.names, "spans": len(self.start), "counts": dict(self.counts)}


def _count(key, amount):
    def hook(rec, args, result):
        rec.counts[key] += amount(args, result)

    return hook


HOOKS = {
    "polytope.is_feasible": _count("polytope.is_feasible.rows_in", lambda a, r: len(a[0].halfspaces)),
    "polytope.vertices": lambda rec, a, r: rec.counts.update(
        {
            "polytope.vertices.subsets": math.comb(len(a[0].halfspaces), a[0].dim),
            "polytope.vertices.found": len(r.vertices),
        }
    ),
    "polytope.contains": lambda rec, a, r: rec.contains_calls.append((a[0].halfspaces, a[1])),
    "angles.aa_outer_blowup": lambda rec, a, r: rec.counts.update(
        {
            "angles.quadratic.grid_points": (r[1].grid_denominator - 1) ** a[0].r,
            "angles.quadratic.samples": r[1].samples,
        }
    ),
    "classify.enumerate_maeda": _count("classify.survivors", lambda a, r: len(r)),
    "classify.enumerate_rank2": _count("classify.survivors", lambda a, r: len(r)),
}


def instrument(rec: Recorder, package) -> None:
    """Replace every traced callable by its recording wrapper, wherever bound."""
    modules = [importlib.import_module(f"{package.__name__}.{name}") for name in LAYER_MODULES]
    wrapped = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                wrapped[id(obj)] = rec.wrap(obj, f"{short}.{name}")
    for mod in modules + [package]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, name, wrapped[id(obj)])
    for short, cls_name, meth in METHODS:
        cls = getattr(getattr(package, short), cls_name)
        setattr(cls, meth, rec.wrap(vars(cls)[meth], f"{short}.{cls_name}.{meth}"))


# ---------------------------------------------------------------------------
# Aggregation


def load(path, spans: int) -> tuple[array.array, ...]:
    arrays = [array.array(code) for code in "llldd"]
    with open(path, "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, spans)
    return tuple(arrays)


def self_times(parent, start, end) -> list[float]:
    child = [0.0] * len(start)
    for i, p in enumerate(parent):
        if p >= 0:
            child[p] += end[i] - start[i]
    return [end[i] - start[i] - child[i] for i in range(len(start))]


def aggregate(names, arrays):
    """Per span name: calls and total self time; per (job, name): self time;
    and the number of calls of each name under each parent name."""
    name_ids, parent, job, start, end = arrays
    selfs = self_times(parent, start, end)
    calls, self_s = Counter(), defaultdict(float)
    by_job = defaultdict(float)
    under = Counter()
    for i, nid in enumerate(name_ids):
        key = names[nid]
        calls[key] += 1
        self_s[key] += selfs[i]
        by_job[job[i], key] += selfs[i]
        if parent[i] >= 0:
            under[key, names[name_ids[parent[i]]]] += 1
    return calls, self_s, by_job, under


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(names, arrays, counts) -> dict[str, float]:
    """The per-layer metrics of one traced pass (trace.overhead_ratio aside)."""
    calls, self_s, _, under = aggregate(names, arrays)
    out = {}
    for layer, spans in LAYERS.items():
        out[f"{layer}.calls"] = sum(calls[s] for s in spans)
        out[f"{layer}.self_s"] = sum(self_s[s] for s in spans)
    out["polytope.is_feasible.rows_in"] = counts.get("polytope.is_feasible.rows_in", 0)
    out["polytope.contains.rows_evaluated"] = counts.get("polytope.contains.rows_evaluated", 0)
    subsets = counts.get("polytope.vertices.subsets", 0)
    out["polytope.vertices.subsets"] = subsets
    out["polytope.vertices.hit_ratio"] = _ratio(counts.get("polytope.vertices.found", 0), subsets)
    grid = counts.get("angles.quadratic.grid_points", 0)
    out["angles.quadratic.grid_points"] = grid
    out["angles.quadratic.hit_ratio"] = _ratio(counts.get("angles.quadratic.samples", 0), grid)
    # a candidate is one positivity test made directly by an enumerator
    candidates = (
        under["angles.is_aldp", "classify.enumerate_rank2"]
        + under["angles.is_log_dp", "classify.enumerate_maeda"]
    )
    out["classify.candidates"] = candidates
    out["classify.survivor_ratio"] = _ratio(counts.get("classify.survivors", 0), candidates)
    return out


def job_shares(names, arrays, job_seconds: list[float], top: int = 4):
    """The layers with the most self time, as shares of the time they ran
    in: for the whole pass, and for each job."""
    _, _, by_job, _ = aggregate(names, arrays)
    layer_of = {span: layer for layer, spans in LAYERS.items() for span in spans}
    per_job = [defaultdict(float) for _ in job_seconds]
    for (j, span), secs in by_job.items():
        if 0 <= j < len(per_job):
            per_job[j][layer_of.get(span, span)] += secs
    whole = defaultdict(float)
    for shares in per_job:
        for layer, secs in shares.items():
            whole[layer] += secs

    def ranked(shares, total):
        return sorted(((layer, _ratio(secs, total)) for layer, secs in shares.items()), key=lambda t: -t[1])[:top]

    return ranked(whole, sum(job_seconds)), [ranked(sh, t) for sh, t in zip(per_job, job_seconds)]
