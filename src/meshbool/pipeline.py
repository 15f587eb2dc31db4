"""End-to-end orchestration of the six pipeline stages.

1. search candidate pairs (octree), 2. intersect pairs, 3. re-triangulate +
merge + clear, 4. form loops, 5. create sub-surfaces, 6. assemble and
distinguish sub-blocks. Stages 1-3 work on coordinates; stages 4-6 operate
purely on vertex indices.
"""
from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import blocks as blk
from . import loops as lps
from . import subsurfaces as ssf
from .errors import CoincidentInput, GeometryError, NotClosed, TopologyError
from .geometry import MERGE_TOL_REL, PLANE_TOL_REL, TriMesh, scene_scale, signed_volume
from .halfedge import EdgeTable
from .intersect import intersect_all
from .merge import build_merged_state
from .octree import OctreeConfig, build_octree, candidate_pairs, clip_to_shared_region, triangle_boxes
from .retriangulate import split_and_triangulate

log = logging.getLogger(__name__)

STAGES = (
    "1 search pairs",
    "2 intersect pairs",
    "3 merge and update",
    "4 form loops",
    "5 create sub-surfaces",
    "6 assemble blocks",
)

@dataclass
class PipelineOptions:
    merge_tol: float | None = None
    octree: OctreeConfig = field(default_factory=OctreeConfig)
    threads: int = 0  # accepted for compatibility and ignored: the narrow phase is serial
    strict: bool = False
    classify: bool = True  # distinguish blocks (closed-closed only)

    def __post_init__(self):
        if self.merge_tol is not None and not (math.isfinite(self.merge_tol) and self.merge_tol > 0):
            raise GeometryError(f"merge tolerance must be finite and > 0, got {self.merge_tol!r}")


@dataclass
class PipelineState:
    mesh_a: TriMesh
    mesh_b: TriMesh
    options: PipelineOptions
    pairs: np.ndarray | None = None
    segments: list = field(default_factory=list)
    narrow_report: object = None
    merged: object = None
    loops: list = field(default_factory=list)
    completed_loops: list = field(default_factory=list)
    dangling: list = field(default_factory=list)
    subsurfaces: list = field(default_factory=list)
    blocks: list = field(default_factory=list)
    result: blk.BooleanResult | None = None
    trivial: bool = False
    timings: list = field(default_factory=list)

    def subsurface_mesh(self, ss) -> TriMesh:
        from .geometry import compact_submesh

        return compact_submesh(self.merged.vertices, self.merged.faces[ss.triangles],
                               source=ss.source, name=f"{ss.source}_sub_{ss.id}")


def _dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis. Stacked 1x3 @ 3x1 products
    run numpy's vector dot on each row, the same as 1-D `@` on that row."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _propagate_edge_points(mesh: TriMesh, per_face: dict, tol: float) -> dict:
    """Points every face must embed because a neighbour subdivides the shared
    edge there (keeps the re-triangulated surface free of T-junctions)."""
    owner, pts = [], []
    for fid, segs in per_face.items():
        for p in {tuple(q) for pq in segs for q in pq}:
            owner.append(fid)
            pts.append(p)
    if not pts:
        return {}
    # Project every (point, edge of its face) pair at once.
    tri = mesh.faces[owner]
    va = mesh.vertices[tri]
    ab = mesh.vertices[tri[:, [1, 2, 0]]] - va
    p = np.asarray(pts, dtype=np.float64)
    length2 = _dots(ab, ab)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = _dots(p[:, None, :] - va, ab) / length2
        # pow() as the reference's scalar ** 0.5; np.sqrt may differ by an ulp.
        length = np.float_power(length2, 0.5)
        off = p[:, None, :] - (va + t[..., None] * ab)
        hit = (tol < t * length) & (t * length < length - tol) & (np.sqrt(_dots(off, off)) < tol)
    rows, ks = np.nonzero(hit & (length2 != 0.0))
    u, v = tri[rows, ks], tri[rows, (ks + 1) % 3]
    # Neighbours come from an edge table over the faces holding two hit ends.
    ends = np.zeros(len(mesh.vertices), dtype=bool)
    ends[u] = ends[v] = True
    near = np.nonzero(ends[mesh.faces].sum(axis=1) >= 2)[0]
    table = EdgeTable(mesh.faces[near])
    extra: dict[int, list] = {}
    for i, a, b in zip(rows.tolist(), u.tolist(), v.tolist()):
        for nb in near[table.faces_on(a, b)].tolist():
            if nb != owner[i]:
                extra.setdefault(nb, []).append(p[i])
    return extra


def run_pipeline(mesh_a: TriMesh, mesh_b: TriMesh, options: PipelineOptions | None = None) -> PipelineState:
    """Run all stages; classification only happens for closed-closed input."""
    options = options or PipelineOptions()
    a = TriMesh(mesh_a.vertices, mesh_a.faces, source="A", name=mesh_a.name or "A")
    b = TriMesh(mesh_b.vertices, mesh_b.faces, source="B", name=mesh_b.name or "B")
    state = PipelineState(a, b, options)
    both_closed = a.closed and b.closed
    for m in (a, b):
        if m.closed and signed_volume(m) <= 0:
            raise GeometryError(
                f"closed input {m.name!r} is inward-oriented (negative volume); "
                "windings must point outward"
            )
    scale0 = scene_scale(a, b)
    tol0 = options.merge_tol if options.merge_tol is not None else MERGE_TOL_REL * scale0
    if blk.meshes_coincident(a, b, tol0):
        raise CoincidentInput("input meshes are coincident; handled in pre-process by design")

    t0 = time.perf_counter()
    ids_a, ids_b, cube = clip_to_shared_region(a, b)
    if len(ids_a) and len(ids_b):
        tree = build_octree(ids_a, ids_b, triangle_boxes(a), triangle_boxes(b), cube, options.octree)
        state.pairs = candidate_pairs(tree)
    else:
        state.pairs = np.zeros((0, 2), dtype=np.int64)
    state.timings.append((STAGES[0], time.perf_counter() - t0))

    scale = scene_scale(a, b, cube)
    plane_tol = PLANE_TOL_REL * scale
    merge_tol = options.merge_tol if options.merge_tol is not None else MERGE_TOL_REL * scale

    t0 = time.perf_counter()
    state.segments, state.narrow_report = intersect_all(state.pairs, a, b, plane_tol, strict=options.strict)
    state.timings.append((STAGES[1], time.perf_counter() - t0))

    if not state.segments:
        state.trivial = True
        for stage in STAGES[2:]:
            state.timings.append((stage, 0.0))
        if both_closed and options.classify:
            state.result = blk.preprocess_trivial_cases(a, b, merge_tol, plane_tol)
        return state

    t0 = time.perf_counter()
    by_tri: dict[tuple[str, int], list] = {}
    for s in state.segments:
        by_tri.setdefault(("A", s.tri_a), []).append((s.p0, s.p1))
        by_tri.setdefault(("B", s.tri_b), []).append((s.p0, s.p1))
    replacements = {}
    for tag, mesh in (("A", a), ("B", b)):
        per_face = {fid: segs for (t, fid), segs in by_tri.items() if t == tag}
        extra = _propagate_edge_points(mesh, per_face, merge_tol)
        for fid in sorted(set(per_face) | set(extra)):
            replacements[(tag, fid)] = split_and_triangulate(
                mesh.face_coords(fid),
                per_face.get(fid, []),
                merge_tol,
                parent_tri=fid,
                boundary_points=extra.get(fid, []),
            )
    state.merged = build_merged_state(a, b, replacements, state.segments, merge_tol)
    state.timings.append((STAGES[2], time.perf_counter() - t0))

    t0 = time.perf_counter()
    state.loops = lps.build_loops(state.merged.edges)
    edge_map = lps.loop_edge_map(state.loops)
    next_id = len(state.loops)
    for source, closed in ((0, a.closed), (1, b.closed)):
        if closed:
            continue
        surf_mesh = TriMesh(
            state.merged.vertices, state.merged.surface_faces(source),
            source="A" if source == 0 else "B",
        )
        comp, dang = lps.close_open_loops_on_boundary(state.loops, surf_mesh, next_id)
        next_id += len(comp)
        state.completed_loops.extend(comp)
        state.dangling.extend(dang)
    state.timings.append((STAGES[3], time.perf_counter() - t0))

    t0 = time.perf_counter()
    state.subsurfaces = ssf.build_subsurfaces(state.merged, state.loops, edge_map)
    state.timings.append((STAGES[4], time.perf_counter() - t0))

    t0 = time.perf_counter()
    state.blocks = blk.assemble_blocks(state.subsurfaces, state.loops)
    if both_closed and options.classify:
        lonely = [
            s.id for s in state.subsurfaces
            if not s.owners and not s.has_boundary_loop
        ]
        if lonely:
            raise TopologyError(
                f"closed component(s) without intersection curves: sub-surfaces {lonely}; "
                "partially disjoint multi-component input is unsupported"
            )
        candidates, subtractions = blk.classify_non_subtraction(state.blocks, state.subsurfaces)
        union_blk, inter_blks = blk.pick_union(candidates, state.merged, state.subsurfaces)
        state.result = blk.classify_subtractions(
            state.blocks, union_blk, inter_blks, state.merged, state.subsurfaces
        )
    state.timings.append((STAGES[5], time.perf_counter() - t0))
    return state


def _require_closed(state: PipelineState):
    if state.result is None:
        raise NotClosed("Boolean volume results require two closed input surfaces")
    return state.result


def boolean_union(a, b, **kw) -> list[TriMesh]:
    return _require_closed(run_pipeline(a, b, PipelineOptions(**kw))).union


def boolean_intersection(a, b, **kw) -> list[TriMesh]:
    return _require_closed(run_pipeline(a, b, PipelineOptions(**kw))).intersection


def boolean_a_minus_b(a, b, **kw) -> list[TriMesh]:
    return _require_closed(run_pipeline(a, b, PipelineOptions(**kw))).a_minus_b


def boolean_b_minus_a(a, b, **kw) -> list[TriMesh]:
    return _require_closed(run_pipeline(a, b, PipelineOptions(**kw))).b_minus_a
