"""Vertex merging, renumbering and the topology clearing requirements.

After re-triangulation every vertex (originals, new intersection points,
segment endpoints) goes through one tolerance weld so both surfaces and the
intersection edges share a single index space. The weld's result is that of
a first-fit scan in index order: each point joins the first kept point
within tol in its 27-cell neighbourhood of a tol-sized grid, or is kept.
merge_vertices reaches it with a Python step only for the few points below.

A sort and sweep (Cohen et al. 1995) along one fixed direction splits the
points into groups. Exact copies form runs in projection order, and two
neighbouring runs whose projections differ by at most tol (1 + 2**-40) +
2**-45 max|coordinate| share a group. Points in different groups never weld:
a pair the scan welds is less than tol (1 + 4 eps) apart, so its computed
projections are within that bound; so is every run sorted between them, so
both lie in one group (ties in the sort included). A group whose members all
pass the scan's test against its lowest index (within tol, and in that
index's 27 cells) welds to it: that index is scanned first and kept, each
later member finds it, and no other point of the group is kept. A run of
copies needs no test. Every other group, such as a chain of points 0.6 tol
apart, goes in index order through the scan itself (0 of 32,401 points on
the spheres-fine benchmark, seed 1; 14 of 56,412 on bumpy-band). The scan
costs points times the kept points around them. Its worst case is one giant
group: many points whose projections leave no gap wider than tol, as on a
plane normal to the sweep direction, where a 180 x 180 grid given twice takes
~0.4 s. A tol so small that a coordinate reaches 2**62 tol raises
GeometryError, as the scan's cells would leave int64.

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
from .geometry import TriMesh, is_closed_manifold, triangle_areas, triangle_normals
from .halfedge import edge_keys

log = logging.getLogger(__name__)

CLEARING_MAX_PASSES = 10

# Cells stay below this in magnitude, so they and their neighbours fit in int64.
_CELL_LIMIT = 2.0**62
# The weld's sweep direction: a fixed unit vector along no axis or diagonal,
# so the mirror pairs of symmetric inputs rarely project to the same value.
_SWEEP = np.array([0.5377, 0.6513, 0.5354])
_SWEEP /= np.linalg.norm(_SWEEP)


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


def _greedy_weld(raw: np.ndarray, tol: float) -> np.ndarray:
    """The first-fit scan over raw in index order: a point joins the first kept
    point within tol met in its 27-cell neighbourhood, scanned in (dx, dy, dz)
    order, or is kept itself. Returns the row each point maps to."""
    tol2 = tol * tol
    pts = raw.tolist()
    grid: dict[tuple[int, int, int], list[int]] = {}
    target = []
    for i, (cx, cy, cz) in enumerate(np.floor(raw / tol).astype(np.int64).tolist()):
        x, y, z = pts[i]
        found = next((
            j for dx in (-1, 0, 1) for dy in (-1, 0, 1) for dz in (-1, 0, 1)
            for j in grid.get((cx + dx, cy + dy, cz + dz), ())
            if (x - pts[j][0]) ** 2 + (y - pts[j][1]) ** 2 + (z - pts[j][2]) ** 2 < tol2
        ), -1)
        if found < 0:
            found = i
            grid.setdefault((cx, cy, cz), []).append(i)
        target.append(found)
    return np.array(target, dtype=np.int64)


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
    # Groups (see above): runs of exact copies in projection order, split
    # where two neighbouring runs lie farther apart than tol plus rounding.
    proj = (raw[:, 0] * _SWEEP[0] + raw[:, 1] * _SWEEP[1]) + raw[:, 2] * _SWEEP[2]
    order = np.argsort(proj)
    x, y, z = (c[order] for c in raw.T)
    lead = np.r_[True, (x[1:] != x[:-1]) | (y[1:] != y[:-1]) | (z[1:] != z[:-1])]
    starts = np.nonzero(lead)[0]
    far = np.r_[True, np.diff(proj[order[starts]]) > tol * (1 + 2.0**-40) + 2.0**-45 * reach]
    group = (np.cumsum(far) - 1)[np.cumsum(lead) - 1]
    label = np.empty(n, dtype=np.int64)
    label[order] = np.minimum.reduceat(order, starts[far])[group]
    # The root rule on groups of two or more runs: the scan's own test of
    # each member against the group's lowest index (within tol, and at most
    # one cell away on each axis).
    multi = np.diff(np.r_[np.nonzero(far)[0], len(starts)]) > 1
    pos = np.nonzero(multi[group])[0]
    member = order[pos]
    p, q = raw[member], raw[label[member]]
    sq = np.float_power(p - q, 2)  # pow(), like the scan's scalar ** 2
    joins = ((sq[:, 0] + sq[:, 1]) + sq[:, 2] < tol * tol) & (
        np.abs(np.floor(p / tol) - np.floor(q / tol)) <= 1).all(axis=1)
    scanned = np.zeros(len(multi), dtype=bool)
    scanned[group[pos[~joins]]] = True
    ids = np.sort(order[scanned[group]])
    if len(ids):
        label[ids] = ids[_greedy_weld(raw[ids], tol)]
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
    """Repeated directed edges -> ids of the faces using them, in face order.

    Edges come in the order of their lowest repeat. A stable sort of the keys
    puts each run's lowest edge id first, so every later member of a run
    repeats it.
    """
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    key = edge_keys(faces)
    srt = np.sort(key)
    if not (srt[1:] == srt[:-1]).any():
        return {}
    order = np.argsort(key, kind="stable")
    srt = key[order]
    again = np.r_[False, srt[1:] == srt[:-1]]
    lead = np.empty_like(order)
    lead[order] = order[np.maximum.accumulate(np.where(again, 0, np.arange(len(order))))]
    bad: dict[tuple[int, int], list[int]] = {}
    for e in np.sort(order[again]).tolist():
        edge = (int(faces.flat[e]), int(faces[e // 3, (e + 1) % 3]))
        bad.setdefault(edge, [int(lead[e]) // 3]).append(e // 3)
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

    # Dropping faces moves no vertex, so one filter finds every degenerate face.
    areas = triangle_areas(verts, faces)
    keep = ~(
        (faces[:, 0] == faces[:, 1])
        | (faces[:, 1] == faces[:, 2])
        | (faces[:, 2] == faces[:, 0])
    )
    keep &= areas > area_tol
    faces, source, areas = faces[keep], source[keep], areas[keep]

    for _ in range(CLEARING_MAX_PASSES):
        drop = np.zeros(len(faces), dtype=bool)
        for surf in (0, 1):
            ids = np.nonzero(source == surf)[0]
            for e, locals_ in _directed_edge_duplicates(faces[ids]).items():
                victim = min(locals_, key=lambda li: (areas[ids[li]], li))
                drop[ids[victim]] = True
                log.warning("clearing: dropped face %d duplicating edge %s", ids[victim], e)
        if not drop.any():
            break
        faces, source, areas = faces[~drop], source[~drop], areas[~drop]
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
        normal_rows.append(np.repeat(triangle_normals(mesh.vertices, mesh.faces[fids]), counts, axis=0))
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
        normals = triangle_normals(vertices, faces[child_mask])
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
