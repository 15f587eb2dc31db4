"""Vertex merging, renumbering and the topology clearing requirements.

After re-triangulation every vertex (originals, new intersection points,
segment endpoints) goes through one tolerance weld so both surfaces and the
intersection edges share a single index space. The weld's result is that of
a first-fit scan in index order: each point joins the first kept point
within tol in its 27-cell neighbourhood of a tol-sized grid, or is kept.
merge_vertices reaches it without a Python step per point. Exact copies of
a point are grouped first: one stable sort by cell key, then a lexsort by
coordinates of only the key runs that hold distinct points. A cell hash
(Teschner et al. 2003) finds every pair the scan could compare, with one
binary search per neighbour offset, and the pairs closer than tol are the
edges of a graph. A point can only join a kept point it shares an edge
with, so the scan never looks across a component and each component can be
resolved on its own. When all members of a component lie within tol of its
lowest index (the usual case: it holds for all 32,401 weld points of the
spheres-fine benchmark), that member is kept first and is the only kept
point a later member can find, so it becomes the vertex of all of them. Any
other component, such as a chain of points 0.6 tol apart, runs through the
scan itself, restricted to its own points. The pair search is quadratic in
the distinct points that share one cell. A tol so small that a coordinate
reaches 2**62 tol raises GeometryError, as the cells would leave int64.

Clearing then enforces: no duplicate vertices, no degenerate triangles, no
repeated directed edges within one surface, and children aligned with their
parent's winding.
"""
from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import GeometryError, TopologyError
from .geometry import TriMesh, is_closed_manifold, triangle_areas
from .halfedge import EdgeTable, edge_keys, min_labels

log = logging.getLogger(__name__)

CLEARING_MAX_PASSES = 10

# Cell hash of Teschner et al. (2003) with a sum in place of the xor: the key
# is linear mod 2**64, so key(cell + offset) == key(cell) + key(offset).
_CELL_HASH = np.array([73856093, 19349663, 83492791], dtype=np.int64)
# Cells stay below this in magnitude, so they and their neighbours fit in int64.
_CELL_LIMIT = 2.0**62
# The 13 neighbour offsets after (0, 0, 0) plus itself: each cell pair once.
_HALF_OFFSETS = np.array(
    [(dx, dy, dz) for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
     if (dx, dy, dz) >= (0, 0, 0)],
    dtype=np.int64,
)


@dataclass
class MergedState:
    """Global arrays after merging: vertices, per-surface faces, edges."""

    vertices: np.ndarray
    faces: np.ndarray          # (m, 3) indices into vertices
    face_source: np.ndarray    # (m,) 0 for A, 1 for B
    edges: np.ndarray          # (e, 2) unique undirected intersection edges
    edge_tri_pairs: list       # one (tri_a, tri_b) witness per edge
    tol: float
    extrema: np.ndarray | None = None  # [min_x, max_x, min_y, max_y, min_z, max_z] vertex ids
    a_closed: bool = True
    b_closed: bool = True

    def surface_faces(self, source: int) -> np.ndarray:
        return self.faces[self.face_source == source]

    def surface_face_ids(self, source: int) -> np.ndarray:
        return np.nonzero(self.face_source == source)[0]


def _greedy_weld(raw: np.ndarray, cells: np.ndarray, ids: np.ndarray, tol2: float) -> np.ndarray:
    """The first-fit scan over ids in index order: a point joins the first kept
    point within tol met in its 27-cell neighbourhood, scanned in (dx, dy, dz)
    order, or is kept itself. Returns the kept point each id maps to."""
    grid: dict[tuple[int, int, int], list[int]] = {}
    target = np.empty(len(ids), dtype=np.int64)
    for k, i in enumerate(ids.tolist()):
        cx, cy, cz = cells[i].tolist()
        p = raw[i]
        found = next((
            j for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
            for j in grid.get((cx + dx, cy + dy, cz + dz), ())
            if (p[0] - raw[j][0]) ** 2 + (p[1] - raw[j][1]) ** 2 + (p[2] - raw[j][2]) ** 2 < tol2
        ), -1)
        if found < 0:
            found = i
            grid.setdefault((cx, cy, cz), []).append(i)
        target[k] = found
    return target


def _sorted_copies(raw: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows in order of key, x, y, z and index, and a mask of the rows in
    that order that differ from the one before. One stable sort by key, then
    a lexsort of only the rows of key runs that hold more than one distinct
    point."""
    order = np.argsort(key, kind="stable")
    skey, pts = key[order], raw[order]
    new_run = np.r_[True, skey[1:] != skey[:-1]]
    run = np.cumsum(new_run) - 1
    mixed = np.zeros(run[-1] + 1, dtype=bool)
    mixed[run[1:][~new_run[1:] & (pts[1:] != pts[:-1]).any(axis=1)]] = True
    sub = np.nonzero(mixed[run])[0]
    if len(sub):
        o, q = order[sub], pts[sub]
        perm = np.lexsort((o, q[:, 2], q[:, 1], q[:, 0], run[sub]))
        order[sub], pts[sub] = o[perm], q[perm]
    return order, np.r_[True, (pts[1:] != pts[:-1]).any(axis=1)]


def merge_vertices(raw: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Weld points within tol, exactly as the first-fit scan does (see above).

    Returns (vertices, remap); a cluster's first point is its vertex and
    vertices keep first-occurrence order.
    """
    raw = np.asarray(raw, dtype=np.float64)
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"merge tolerance must be finite and > 0, got {tol!r}")
    n = len(raw)
    if not n:
        return raw.copy(), np.zeros(0, dtype=np.int64)
    reach = np.abs(raw).max()
    if not reach / tol < _CELL_LIMIT:
        raise GeometryError(
            f"merge tolerance {tol!r} is too small for coordinates up to {reach!r}: "
            "weld cells would leave the int64 range"
        )
    tol2 = tol * tol
    cells = np.floor(raw / tol).astype(np.int64)
    key = cells @ _CELL_HASH
    # Exact duplicates share their lowest index as representative, so k copies
    # of a point add k edges below instead of k^2 pairs.
    order, first = _sorted_copies(raw, key)
    rep = order[first]
    rep_of = np.empty(n, dtype=np.int64)
    rep_of[order] = rep[np.cumsum(first) - 1]
    ukey, ucell, upts = key[rep], cells[rep], raw[rep]
    # Where each key's run of representatives ends, read at its start.
    run_end = np.r_[np.nonzero(ukey[1:] != ukey[:-1])[0] + 1, len(rep)]
    end_of = np.repeat(run_end, np.diff(np.r_[0, run_end]))
    pa, pb = [], []
    for off in _HALF_OFFSETS:
        # Points of cell c + off, one offset at a time; the cell check drops hash collisions.
        target = ukey + off @ _CELL_HASH
        start = np.minimum(ukey.searchsorted(target), len(rep) - 1)
        cnt = np.where(ukey[start] == target, end_of[start] - start, 0)
        a = np.repeat(np.arange(len(rep)), cnt)
        b = np.arange(len(a)) + np.repeat(start - np.cumsum(cnt) + cnt, cnt)
        ok = (ucell[b] == ucell[a] + off).all(axis=1) & ((a < b) | off.any())
        a, b = a[ok], b[ok]
        sq = np.float_power(upts[a] - upts[b], 2)  # pow(), like the scan's scalar ** 2
        hit = (sq[:, 0] + sq[:, 1]) + sq[:, 2] < tol2
        pa.append(rep[a[hit]])
        pb.append(rep[b[hit]])
    pa, pb = np.concatenate(pa), np.concatenate(pb)
    label = min_labels(n, np.concatenate([pa, rep_of]), np.concatenate([pb, np.arange(n)]))
    # A component goes through the scan unless each member touches its root.
    lo, hi = np.minimum(pa, pb), np.maximum(pa, pb)
    touches_root = label == np.arange(n)
    touches_root[hi[lo == label[hi]]] = True
    chained = np.zeros(n, dtype=bool)
    chained[label[~touches_root[rep_of]]] = True
    ids = np.nonzero(chained[label])[0]
    label[ids] = _greedy_weld(raw, cells, ids, tol2)
    kept = label == np.arange(n)
    return raw[kept], (np.cumsum(kept) - 1)[label]


def compute_extrema(vertices: np.ndarray) -> np.ndarray:
    """Per-axis argmin/argmax vertex indices, ties to the lowest index."""
    out = np.empty(6, dtype=np.int64)
    for axis in range(3):
        out[2 * axis] = int(np.argmin(vertices[:, axis]))
        out[2 * axis + 1] = int(np.argmax(vertices[:, axis]))
    return out


def _directed_edge_duplicates(faces: np.ndarray) -> dict[tuple[int, int], list[int]]:
    """Repeated directed edges -> ids of the faces using them, in face order."""
    srt = np.sort(edge_keys(faces))
    if not (srt[1:] == srt[:-1]).any():
        return {}
    table = EdgeTable(faces)
    bad: dict[tuple[int, int], list[int]] = {}
    for e in np.nonzero(table.duplicate)[0].tolist():
        edge = (int(table.u[e]), int(table.v[e]))
        bad.setdefault(edge, [int(table.first[e]) // 3]).append(e // 3)
    return bad


def clear_topology(state: MergedState) -> MergedState:
    """Enforce the clearing requirements; idempotent.

    Degenerate faces (repeated index or area below tol^2) are dropped and
    repeated directed edges within one surface are repaired by deleting the
    smallest-area offender, re-checking until stable or the pass budget runs
    out.
    """
    verts = state.vertices
    faces = state.faces
    source = state.face_source
    area_tol = state.tol * state.tol
    present = {surf for surf in (0, 1) if (source == surf).any()}

    for _ in range(CLEARING_MAX_PASSES):
        keep = ~(
            (faces[:, 0] == faces[:, 1])
            | (faces[:, 1] == faces[:, 2])
            | (faces[:, 2] == faces[:, 0])
        )
        keep &= triangle_areas(verts, faces) > area_tol
        faces, source = faces[keep], source[keep]

        drop = np.zeros(len(faces), dtype=bool)
        for surf in (0, 1):
            ids = np.nonzero(source == surf)[0]
            dup = _directed_edge_duplicates(faces[ids])
            if not dup:
                continue
            areas = triangle_areas(verts, faces[ids])
            for e, locals_ in dup.items():
                victim = min(locals_, key=lambda li: (areas[li], li))
                drop[ids[victim]] = True
                log.warning("clearing: dropped face %d duplicating edge %s", ids[victim], e)
        if not drop.any():
            break
        faces, source = faces[~drop], source[~drop]
    else:
        leftovers = []
        for surf in (0, 1):
            leftovers += list(_directed_edge_duplicates(faces[source == surf]))
        if leftovers:
            raise TopologyError(f"clearing did not converge, repeated edges remain: {leftovers[:5]}")

    # Drop intersection edges whose endpoints merged together.
    edges = state.edges
    pairs = state.edge_tri_pairs
    keep_e = edges[:, 0] != edges[:, 1]
    edges = edges[keep_e]
    pairs = [p for p, k in zip(pairs, keep_e) if k]

    out = MergedState(
        verts, faces, source, edges, pairs, state.tol,
        a_closed=state.a_closed, b_closed=state.b_closed,
    )
    out.extrema = compute_extrema(verts) if len(verts) else None

    for surf, was_closed, tag in ((0, state.a_closed, "A"), (1, state.b_closed, "B")):
        if surf not in present:
            continue
        sf = out.surface_faces(surf)
        if len(sf) == 0:
            raise TopologyError(f"surface {tag} lost all triangles during clearing")
        if was_closed and not is_closed_manifold(TriMesh(verts, sf, source=tag)):
            raise TopologyError(f"surface {tag} is no longer a closed manifold after clearing")
    if len(out.faces) and int(out.faces.max()) >= len(verts):
        raise TopologyError("dangling vertex index after merge")
    return out


def build_merged_state(
    a: TriMesh,
    b: TriMesh,
    splits,
    segments,
    tol: float,
) -> MergedState:
    """Assemble the global merged arrays from both meshes plus split output.

    splits holds, for A and then B, the split faces' ids in ascending order,
    each one's children as (k, 3) rows of the surface's point table, and that
    (m, 3) table; untouched faces pass through. Each surface's children are
    gathered from its table at once. The end points of segments, the narrow
    phase's SegmentTable, join the weld pool so the intersection edges land
    in the same index space.
    """
    raw_chunks = [a.vertices, b.vertices]
    cursor = len(a.vertices) + len(b.vertices)
    face_rows, parent_rows, source_rows, normal_rows = [], [], [], []
    # Rows: untouched A faces, A children by parent id, then the same for B.
    for surf, mesh, offset, (fids, kids, table) in zip((0, 1), (a, b), (0, len(a.vertices)), splits):
        fids = np.asarray(fids, dtype=np.int64)
        counts = np.array([len(k) for k in kids], dtype=np.int64)
        n_kept, n_kids = mesh.num_faces - len(fids), int(counts.sum())
        rows = np.fromiter(chain.from_iterable(chain.from_iterable(kids)), dtype=np.int64, count=3 * n_kids)
        raw_chunks.append(table[rows])
        untouched = np.ones(mesh.num_faces, dtype=bool)
        untouched[fids] = False
        face_rows += [mesh.faces[untouched] + offset, cursor + np.arange(3 * n_kids).reshape(-1, 3)]
        parent_rows += [np.full(n_kept, -1, dtype=np.int64), np.repeat(fids, counts)]
        source_rows.append(np.full(n_kept + n_kids, surf, dtype=np.int8))
        tri = mesh.vertices[mesh.faces[fids]]
        parent_normal = np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])
        normal_rows.append(np.repeat(parent_normal, counts, axis=0))
        cursor += 3 * n_kids

    seg_base = cursor
    if len(segments):
        raw_chunks.append(np.stack((segments.p0, segments.p1), axis=1).reshape(-1, 3))

    raw = np.concatenate(raw_chunks, axis=0)
    vertices, remap = merge_vertices(raw, tol)

    faces = remap[np.concatenate(face_rows)]
    source = np.concatenate(source_rows)
    parent = np.concatenate(parent_rows)

    # Parent-winding alignment for re-triangulated children (clearing item 4).
    # Only clearly anti-parallel children flip; slivers with noise-level
    # normals keep their combinatorial orientation from the splitter.
    child_mask = parent >= 0
    if child_mask.any():
        p = vertices[faces[child_mask]]
        normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        pn = np.concatenate(normal_rows)
        dots = np.einsum("ij,ij->i", normals, pn)
        n_len = np.linalg.norm(normals, axis=1)
        p_len = np.linalg.norm(pn, axis=1)
        flip = (dots < -0.5 * n_len * p_len) & (n_len > 1e-9 * p_len)
        if flip.any():
            rows = np.nonzero(child_mask)[0][flip]
            faces[rows] = faces[rows][:, ::-1]
            log.debug("reversed %d re-triangulated children", len(rows))

    ends = remap[seg_base:].reshape(-1, 2)
    live = ends[:, 0] != ends[:, 1]
    if live.any():
        uniq, first = np.unique(np.sort(ends[live], axis=1), axis=0, return_index=True)
        order = np.argsort(first)
        edges = uniq[order]
        witnesses = list(zip(segments.tri_a[live].tolist(), segments.tri_b[live].tolist()))
        pairs = [witnesses[first[i]] for i in order]
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
        pairs = []

    state = MergedState(
        vertices, faces, source, edges, pairs, tol,
        a_closed=a.closed, b_closed=b.closed,
    )
    return clear_topology(state)
