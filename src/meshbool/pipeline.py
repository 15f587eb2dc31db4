"""End-to-end orchestration of the six pipeline stages.

1. search candidate pairs (octree), 2. intersect pairs, 3. re-triangulate +
merge + clear, 4. form loops, 5. create sub-surfaces, 6. assemble and
distinguish sub-blocks. Stages 1-3 work on coordinates; stages 4-6 operate
purely on vertex indices.

Stage 3 keeps the narrow phase's SegmentTable as columns up to the split.
Per surface one stable argsort by face keeps each face's segments in table
order; _propagate_edge_points adds the points a neighbour's split puts on a
shared edge as (face, point) columns, in an order that does not depend on
the scale; and prepare_splits prepares and walks all split faces in one
numpy pass, which gives one point table per surface and one record per face.
Each record is triangulated on its own into children as rows of that table,
and build_merged_state gathers, welds and clears both surfaces at once. The
Python loops of the stage run over split faces and their points only.
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


def _propagate_edge_points(mesh: TriMesh, face: np.ndarray, ends: np.ndarray, tol: float) -> tuple:
    """Points every face must embed because a neighbour subdivides the shared
    edge there (keeps the re-triangulated surface free of T-junctions).

    face (k,) ascending and ends (k, 2, 3) are a surface's segments. Each
    owner's distinct ends (by value, -0.0 equal to 0.0) are taken in first
    occurrence, owners ascending. Returns (neighbour face, point) columns,
    stably sorted by neighbour: by owner, point, edge and neighbour id.
    """
    owner, p = np.repeat(face, 2), ends.reshape(-1, 3)
    first = np.sort(np.unique(np.column_stack((owner, p)), axis=0, return_index=True)[1])
    owner, p = owner[first], p[first]
    # Project every (point, edge of its face) pair at once.
    tri = mesh.faces[owner]
    va = mesh.vertices[tri]
    ab = mesh.vertices[tri[:, [1, 2, 0]]] - va
    length2 = row_dots(ab, ab)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = row_dots(p[:, None, :] - va, ab) / length2
        # pow() as the reference's scalar ** 0.5; np.sqrt may differ by an ulp.
        length = np.float_power(length2, 0.5)
        off = p[:, None, :] - (va + t[..., None] * ab)
        hit = (tol < t * length) & (t * length < length - tol) & (np.sqrt(row_dots(off, off)) < tol)
    rows, ks = np.divmod(np.flatnonzero(hit & (length2 != 0.0)), 3)  # np.nonzero's row-major order
    u, v = tri[rows, ks], tri[rows, (ks + 1) % 3]
    # Every use of a hit edge by a face holding two hit ends, from one search
    # of the hit edges' undirected keys among those faces' edge keys. Both
    # sides take n from the whole mesh, so the keys agree. The stable sort
    # keeps each key's uses in face order.
    on_edge = np.zeros(len(mesh.vertices), dtype=np.uint8)
    on_edge[u] = on_edge[v] = 1
    near = np.flatnonzero(sum(on_edge[mesh.faces[:, c]] for c in range(3)) >= 2)  # by corner column
    n = int(mesh.faces.max()) + 1
    near_faces = mesh.faces[near]
    keys = pair_key(near_faces, near_faces[:, [1, 2, 0]], n).ravel() >> 1
    order = np.argsort(keys, kind="stable")
    hit_keys = pair_key(u, v, n) >> 1
    lo, hi = keys[order].searchsorted(np.stack((hit_keys, hit_keys + 1)))
    cnt = hi - lo
    src = np.repeat(rows, cnt)
    nb = near[order[np.arange(len(src)) + np.repeat(lo - np.cumsum(cnt) + cnt, cnt)] // 3]
    keep = nb != owner[src]
    nb, src = nb[keep], src[keep]
    order = np.argsort(nb, kind="stable")
    return nb[order], p[src[order]]


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
        del ids_a, ids_b, boxes  # the tree holds the boxes for the pair pass
        pairs = candidate_pairs(tree)
        del tree
    state.timings.append((STAGES[0], time.perf_counter() - t0))

    scale = scale0 if cube.is_empty else scene_scale(a, b, cube)  # an empty cube falls back to the boxes
    plane_tol = PLANE_TOL_REL * scale
    merge_tol = options.merge_tol if options.merge_tol is not None else MERGE_TOL_REL * scale

    t0 = time.perf_counter()
    state.segments, state.narrow_report = intersect_all(pairs, a, b, plane_tol, strict=options.strict)
    del pairs  # stage 1's pairs end here, before the trivial repeat
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
    ends = np.stack((table.p0, table.p1), axis=1)
    splits = []
    for mesh, tri in ((a, table.tri_a), (b, table.tri_b)):
        by_face = np.argsort(tri, kind="stable")  # each face's segments in table order
        seg_face, seg_ends = tri[by_face], ends[by_face]
        pt_face, pts = _propagate_edge_points(mesh, seg_face, seg_ends, merge_tol)
        fids = np.union1d(seg_face, pt_face)
        points, setups = prepare_splits(mesh.vertices[mesh.faces[fids]], fids.searchsorted(seg_face), seg_ends,
                                        fids.searchsorted(pt_face), pts, merge_tol)
        kids = [split_and_triangulate(setup, fid) for fid, setup in zip(fids.tolist(), setups)]
        splits.append((fids, kids, points))
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
