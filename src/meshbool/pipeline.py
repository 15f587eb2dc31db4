"""End-to-end orchestration of the six pipeline stages.

1. search candidate pairs (octree), 2. intersect pairs, 3. re-triangulate +
merge + clear, 4. form loops, 5. create sub-surfaces, 6. assemble and
distinguish sub-blocks. Stages 1-3 work on coordinates; stages 4-6 operate
purely on vertex indices.

Stage 3 reads the narrow phase's SegmentTable by columns. Per surface it
groups the segment ends by face, adds the points a neighbour's split puts on
a shared edge (_propagate_edge_points), prepares all split faces in one
numpy pass and splits them one by one; each split face gives its children as
rows of the surface's point table, and build_merged_state gathers, welds and
clears both surfaces at once. The Python loops of the stage run over split
faces and their points only.
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
from .geometry import (MERGE_TOL_REL, PLANE_TOL_REL, TriMesh, compact_submesh, row_dots, scene_scale,
                       signed_volume)
from .halfedge import pair_key
from .intersect import SegmentTable, intersect_all
from .merge import build_merged_state
from .octree import OctreeConfig, build_octree, candidate_pairs, clip_to_shared_region
from .retriangulate import prepare_splits, split_and_triangulate

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
    segments: SegmentTable = field(default_factory=SegmentTable.empty)
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
        return compact_submesh(self.merged.vertices, self.merged.faces[ss.triangles],
                               source=ss.source, name=f"{ss.source}_sub_{ss.id}")


def _propagate_edge_points(mesh: TriMesh, per_face: dict, tol: float) -> dict:
    """Points every face must embed because a neighbour subdivides the shared
    edge there (keeps the re-triangulated surface free of T-junctions).

    per_face maps a split face to its segments as (p, q) end pairs. Returns
    neighbour face -> points, filled by owner in per_face's order, each
    owner's distinct ends in set order, then by edge and by neighbour id.
    """
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
    length2 = row_dots(ab, ab)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = row_dots(p[:, None, :] - va, ab) / length2
        # pow() as the reference's scalar ** 0.5; np.sqrt may differ by an ulp.
        length = np.float_power(length2, 0.5)
        off = p[:, None, :] - (va + t[..., None] * ab)
        hit = (tol < t * length) & (t * length < length - tol) & (np.sqrt(row_dots(off, off)) < tol)
    rows, ks = np.nonzero(hit & (length2 != 0.0))
    u, v = tri[rows, ks], tri[rows, (ks + 1) % 3]
    # Every use of a hit edge by a face holding two hit ends, from one search
    # of the hit edges' undirected keys among those faces' edge keys. Both
    # sides take n from the whole mesh, so the keys agree. The stable sort
    # keeps each key's uses in face order.
    ends = np.zeros(len(mesh.vertices), dtype=bool)
    ends[u] = ends[v] = True
    near = np.nonzero(ends[mesh.faces].sum(axis=1) >= 2)[0]
    n = int(mesh.faces.max()) + 1
    near_faces = mesh.faces[near]
    keys = pair_key(near_faces, near_faces[:, [1, 2, 0]], n).ravel() >> 1
    order = np.argsort(keys, kind="stable")
    hit_keys = pair_key(u, v, n) >> 1
    lo, hi = keys[order].searchsorted(np.stack((hit_keys, hit_keys + 1)))
    cnt = hi - lo
    src = np.repeat(rows, cnt)
    nb = near[order[np.arange(len(src)) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)] // 3]
    keep = nb != np.asarray(owner)[src]
    extra: dict[int, list] = {}
    for f, i in zip(nb[keep].tolist(), src[keep].tolist()):
        extra.setdefault(f, []).append(pts[i])
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
    ids_a, ids_b, cube, boxes = clip_to_shared_region(a, b)
    pairs = np.zeros((0, 2), dtype=np.int64)
    if len(ids_a) and len(ids_b):
        tree = build_octree(ids_a, ids_b, *boxes, cube, options.octree)
        del boxes  # neither is held through the stages that follow its use
        pairs = candidate_pairs(tree)
        del tree
    state.timings.append((STAGES[0], time.perf_counter() - t0))

    scale = scene_scale(a, b, cube)
    plane_tol = PLANE_TOL_REL * scale
    merge_tol = options.merge_tol if options.merge_tol is not None else MERGE_TOL_REL * scale

    t0 = time.perf_counter()
    state.segments, state.narrow_report = intersect_all(pairs, a, b, plane_tol, strict=options.strict)
    del pairs, ids_a, ids_b  # stage 1's arrays end here, before the trivial repeat
    state.timings.append((STAGES[1], time.perf_counter() - t0))

    if not state.segments:
        state.trivial = True
        for stage in STAGES[2:]:
            state.timings.append((stage, 0.0))
        if both_closed and options.classify:
            state.result = blk.preprocess_trivial_cases(a, b, merge_tol, plane_tol)
        return state

    t0 = time.perf_counter()
    table = state.segments
    ends = np.stack((table.p0, table.p1), axis=1).tolist()
    splits = []
    for mesh, tri in ((a, table.tri_a), (b, table.tri_b)):
        per_face: dict[int, list] = {}  # faces in order of first appearance in the table
        for fid, pq in zip(tri.tolist(), ends):
            per_face.setdefault(fid, []).append(pq)
        extra = _propagate_edge_points(mesh, per_face, merge_tol)
        fids = sorted(per_face.keys() | extra.keys())
        segs = [per_face.get(fid, []) for fid in fids]
        points = [extra.get(fid, []) for fid in fids]
        tris = mesh.vertices[mesh.faces[fids]]
        kids = []
        for fid, tri, s, p, setup in zip(fids, tris, segs, points, prepare_splits(tris, segs, points, merge_tol)):
            kids.append(split_and_triangulate(tri, s, merge_tol, parent_tri=fid, boundary_points=p, setup=setup))
        # Every segment has a face on each surface, so fids is never empty here.
        splits.append((fids, kids, setup.pts3))
    state.merged = build_merged_state(a, b, splits, state.segments, merge_tol)
    state.timings.append((STAGES[2], time.perf_counter() - t0))

    t0 = time.perf_counter()
    state.loops = lps.build_loops(state.merged.edges)
    edge_map = lps.loop_edge_map(state.loops)
    state.timings.append((STAGES[3], time.perf_counter() - t0))

    t0 = time.perf_counter()
    state.subsurfaces = ssf.build_subsurfaces(state.merged, state.loops, edge_map)
    for tag, closed in (("A", a.closed), ("B", b.closed)):
        if closed:
            continue
        side = [s for s in state.subsurfaces if s.source == tag]
        comp, dang = lps.complete_open_loops(state.loops, side, len(state.loops) + len(state.completed_loops))
        state.completed_loops.extend(comp)
        state.dangling.extend(dang)
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
