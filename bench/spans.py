"""Per-layer spans recorded from outside meshbool.

Each layer's entry function is wrapped in the module namespace where its
caller resolves the name (a `from .x import f` copy has to be wrapped where
it was copied to). src/meshbool itself is not edited. A hook whose name no
longer exists raises HookMissing, and a hook that never fires on a workload
that must reach it is reported by `missing_spans`, so a rename or an inlined
function can never turn into a silent zero.

Every `*_s` / `.s` metric is a self time: the span's duration minus the part
its child spans cover. The exception is `pipeline.precheck_s`, which is the
wall time from entering run_pipeline to the first broad-phase call.
"""
from __future__ import annotations

import importlib
import logging
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


class HookMissing(RuntimeError):
    pass


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    op: int = -1
    counts: dict = field(default_factory=dict)


def _one(key):
    return lambda args, result: {key: 1}


def _intersect(args, result):
    segs, report = result
    return {
        "intersect.calls": 1,
        "intersect.segments": len(segs),
        "intersect.point_contacts": report.point_contacts,
        "intersect.coplanar_pairs": len(report.coplanar_pairs),
    }


def _outputs(args, result):
    meshes = result.all_meshes() if result is not None else []
    return {"blocks.outputs": len(meshes), "blocks.output_faces": sum(m.num_faces for m in meshes)}


# (module, attribute, span name, counts taken from (args, result))
HOOKS = (
    ("meshbool.cli", "load_mesh", "io.load", None),
    ("meshbool.cli", "save_mesh", "io.save", lambda args, r: {"io.bytes_written": os.path.getsize(args[1])}),
    ("meshbool.cli", "run_pipeline", "pipeline", None),
    ("meshbool.pipeline", "clip_to_shared_region", "octree.clip", _one("octree.calls")),
    ("meshbool.pipeline", "build_octree", "octree.build", None),
    ("meshbool.pipeline", "candidate_pairs", "octree.pairs", lambda args, r: {"octree.pairs": len(r)}),
    ("meshbool.octree", "find_candidates", "octree.find_candidates",
     lambda args, r: {"octree.calls": 1, "octree.pairs": len(r)}),
    ("meshbool.pipeline", "intersect_all", "intersect", _intersect),
    ("meshbool.intersect", "intersect_all", "intersect", _intersect),
    ("meshbool.pipeline", "split_and_triangulate", "retriangulate",
     lambda args, r: {"retriangulate.faces": 1, "retriangulate.children": len(r)}),
    ("meshbool.pipeline", "build_merged_state", "merge", lambda args, r: {"merge.vertices": len(r.vertices)}),
    ("meshbool.merge", "merge_vertices", "merge.weld", lambda args, r: {"merge.weld_points": len(args[0])}),
    ("meshbool.merge", "clear_topology", "merge.clear",
     lambda args, r: {"merge.faces_dropped": len(args[0].faces) - len(r.faces)}),
    ("meshbool.geometry", "boundary_edges", "geometry.edge_check", _one("geometry.edge_checks")),
    ("meshbool.merge", "is_closed_manifold", "geometry.edge_check", _one("geometry.edge_checks")),
    ("meshbool.blocks", "is_closed_manifold", "geometry.edge_check", _one("geometry.edge_checks")),
    ("meshbool.loops", "build_loops", "loops", lambda args, r: {"loops.count": len(r)}),
    ("meshbool.loops", "loop_edge_map", "loops", None),
    ("meshbool.subsurfaces", "build_subsurfaces", "subsurfaces", lambda args, r: {"subsurfaces.count": len(r)}),
    ("meshbool.blocks", "assemble_blocks", "blocks.assemble", lambda args, r: {"blocks.count": len(r)}),
    ("meshbool.blocks", "classify_non_subtraction", "blocks.classify", None),
    ("meshbool.blocks", "pick_union", "blocks.classify", None),
    ("meshbool.blocks", "classify_subtractions", "blocks.extract", _outputs),
    ("meshbool.blocks", "preprocess_trivial_cases", "blocks.trivial", _outputs),
    ("meshbool.blocks", "meshes_coincident", "blocks.coincident", None),
)

# Spans every op of a workload must produce, by the path its inputs take.
COMMON_SPANS = {
    "cli", "io.load", "io.save", "pipeline", "octree.clip", "octree.build", "octree.pairs",
    "intersect", "geometry.edge_check", "blocks.coincident",
}
REQUIRED_SPANS = {
    "crossing": COMMON_SPANS | {
        "retriangulate", "merge", "merge.weld", "merge.clear", "loops", "subsurfaces",
        "blocks.assemble", "blocks.classify", "blocks.extract",
    },
    "nested": COMMON_SPANS | {"blocks.trivial", "octree.find_candidates"},
}

# Span name -> the self-time metric it adds to. Per-layer times and counts
# are totals over one pass; on the single-op workloads a pass is one op.
SPAN_TIME_METRIC = {
    "octree.clip": "octree.s",
    "octree.build": "octree.s",
    "octree.pairs": "octree.s",
    "octree.find_candidates": "octree.s",
    "intersect": "intersect.s",
    "retriangulate": "retriangulate.s",
    "merge": "merge.s",
    "merge.weld": "merge.weld_s",
    "merge.clear": "merge.clear_s",
    "geometry.edge_check": "geometry.edge_checks_s",
    "loops": "loops.s",
    "subsurfaces": "subsurfaces.s",
    "blocks.assemble": "blocks.assemble_s",
    "blocks.classify": "blocks.classify_s",
    "blocks.extract": "blocks.extract_s",
    "blocks.trivial": "blocks.trivial_s",
    "blocks.coincident": "blocks.coincident_s",
    "io.load": "io.load_s",
    "io.save": "io.save_s",
    "cli": "cli.self_s",
}
PIPELINE_METRICS = ("pipeline.precheck_s", "pipeline.propagate_s", "pipeline.self_s")
COUNT_METRICS = (
    "octree.calls", "octree.pairs",
    "intersect.calls", "intersect.segments", "intersect.point_contacts", "intersect.coplanar_pairs",
    "retriangulate.faces", "retriangulate.children",
    "pipeline.warnings",
    "merge.weld_points", "merge.vertices", "merge.faces_dropped",
    "geometry.edge_checks",
    "loops.count", "subsurfaces.count",
    "blocks.count", "blocks.outputs", "blocks.output_faces",
    "io.bytes_written",
)


class _WarningCounter(logging.Handler):
    def __init__(self, tracer):
        super().__init__(logging.WARNING)
        self.tracer = tracer

    def emit(self, record):
        self.tracer.warnings += 1


class Tracer:
    """Keeps spans in memory; hooks only fire on the calling thread, since
    meshbool calls every hooked function from the thread that called main."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self.warnings = 0
        self.op_warnings: dict[int, int] = {}

    @contextmanager
    def span(self, name):
        sp = Span(name, 0.0, parent=self.stack[-1] if self.stack else -1, op=self.op)
        self.stack.append(len(self.spans))
        self.spans.append(sp)
        sp.start = time.perf_counter()
        try:
            yield sp
        finally:
            sp.end = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name, counts_fn):
        def hooked(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counts_fn is not None:
                sp.counts = counts_fn(args, result)
            return result

        hooked.__wrapped__ = fn
        return hooked

    @contextmanager
    def installed(self):
        """Patch every hook in; restore the originals on exit."""
        saved = []
        handler = _WarningCounter(self)
        log = logging.getLogger("meshbool")
        try:
            for mod_name, attr, name, counts_fn in HOOKS:
                mod = importlib.import_module(mod_name)
                if not hasattr(mod, attr):
                    raise HookMissing(f"hook {mod_name}.{attr} no longer exists; update bench/spans.py")
                orig = getattr(mod, attr)
                saved.append((mod, attr, orig))
                setattr(mod, attr, self.wrap(orig, name, counts_fn))
            log.addHandler(handler)
            yield self
        finally:
            log.removeHandler(handler)
            for mod, attr, orig in reversed(saved):
                setattr(mod, attr, orig)

    @contextmanager
    def op_root(self, op_id):
        """The root span of one CLI call; everything else nests under it."""
        self.op = op_id
        before = self.warnings
        with self.span("cli"):
            yield
        self.op_warnings[op_id] = self.warnings - before

    def missing_spans(self, op_ids, expect: str) -> set[str]:
        ops = set(op_ids)
        seen = {s.name for s in self.spans if s.op in ops}
        return REQUIRED_SPANS[expect] - seen

    def metrics(self, op_ids) -> dict[str, float]:
        """Per-layer totals over the given ops (one pass)."""
        ops = set(op_ids)
        idx = [i for i, s in enumerate(self.spans) if s.op in ops]
        child_time: dict[int, float] = {}
        children: dict[int, list[int]] = {}
        for i in idx:
            s = self.spans[i]
            if s.parent >= 0:
                child_time[s.parent] = child_time.get(s.parent, 0.0) + (s.end - s.start)
                children.setdefault(s.parent, []).append(i)

        def self_time(i):
            s = self.spans[i]
            return (s.end - s.start) - child_time.get(i, 0.0)

        out = dict.fromkeys(SPAN_TIME_METRIC.values(), 0.0)
        for i in idx:
            metric = SPAN_TIME_METRIC.get(self.spans[i].name)
            if metric is not None:
                out[metric] += self_time(i)
        out.update(dict.fromkeys(PIPELINE_METRICS, 0.0))
        for i in idx:
            if self.spans[i].name == "pipeline":
                pre, prop, rest = self._pipeline_split(i, children.get(i, []), self_time(i))
                out["pipeline.precheck_s"] += pre
                out["pipeline.propagate_s"] += prop
                out["pipeline.self_s"] += rest
        counts = dict.fromkeys(COUNT_METRICS, 0)
        for i in idx:
            for k, v in self.spans[i].counts.items():
                counts[k] += v
        counts["pipeline.warnings"] = sum(self.op_warnings.get(o, 0) for o in ops)
        out.update(counts)
        pairs = counts["octree.pairs"]
        out["octree.hit_ratio"] = counts["intersect.segments"] / pairs if pairs else 0.0
        return out

    def _pipeline_split(self, i, kids, self_total):
        """Split run_pipeline's own time into pre-checks, stage-3 glue and
        the rest. precheck is wall time up to the first broad-phase call;
        propagate is run_pipeline's self time between the end of the narrow
        phase and the end of build_merged_state."""
        sp = self.spans[i]
        kids = [self.spans[k] for k in kids]
        broad = [k.start for k in kids if k.name.startswith("octree.")]
        pre_end = min(broad) if broad else sp.end
        precheck = pre_end - sp.start
        pre_self = _self_in(sp, kids, sp.start, pre_end)
        narrow_end = [k.end for k in kids if k.name == "intersect"]
        merge_end = [k.end for k in kids if k.name == "merge"]
        propagate = 0.0
        if narrow_end and merge_end:
            propagate = _self_in(sp, kids, min(narrow_end), max(merge_end))
        return precheck, propagate, self_total - pre_self - propagate


def _self_in(sp, kids, lo, hi):
    def overlap(a, b):
        return max(0.0, min(b, hi) - max(a, lo))

    return overlap(sp.start, sp.end) - sum(overlap(k.start, k.end) for k in kids)
