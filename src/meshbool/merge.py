"""Vertex merging, renumbering and the topology clearing requirements.

After re-triangulation every vertex (originals, new intersection points,
segment endpoints) goes through one tolerance weld so both surfaces and the
intersection edges share a single index space. Clearing then enforces: no
duplicate vertices, no degenerate triangles, no repeated directed edges
within one surface, and children aligned with their parent's winding.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import TopologyError
from .geometry import TriMesh, is_closed_manifold, triangle_areas
from .halfedge import EdgeTable

log = logging.getLogger(__name__)

CLEARING_MAX_PASSES = 10


@dataclass
class MergedState:
    """Global arrays after merging: vertices, per-surface faces, edges."""

    vertices: np.ndarray
    faces: np.ndarray          # (m, 3) indices into vertices
    face_source: np.ndarray    # (m,) 0 for A, 1 for B
    face_parent: np.ndarray    # (m,) parent triangle id of a re-triangulated child, -1 for an untouched face
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


def merge_vertices(raw: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Weld points within tol using a uniform hash grid.

    Deterministic first-occurrence order: the first point of a cluster
    becomes the canonical vertex. Returns (vertices, remap).
    """
    raw = np.asarray(raw, dtype=np.float64)
    if tol <= 0:
        raise ValueError("merge tolerance must be positive")
    n = len(raw)
    remap = np.empty(n, dtype=np.int64)
    cells = np.floor(raw / tol).astype(np.int64)
    grid: dict[tuple[int, int, int], list[int]] = {}
    keep: list[int] = []
    tol2 = tol * tol
    for i in range(n):
        cx, cy, cz = cells[i]
        p = raw[i]
        found = -1
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    bucket = grid.get((cx + dx, cy + dy, cz + dz))
                    if not bucket:
                        continue
                    for j in bucket:
                        q = raw[keep[j]]
                        if (
                            (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2
                            < tol2
                        ):
                            found = j
                            break
                    if found >= 0:
                        break
                if found >= 0:
                    break
            if found >= 0:
                break
        if found < 0:
            found = len(keep)
            keep.append(i)
            grid.setdefault((cx, cy, cz), []).append(found)
        remap[i] = found
    return raw[keep].copy(), remap


def compute_extrema(vertices: np.ndarray) -> np.ndarray:
    """Per-axis argmin/argmax vertex indices, ties to the lowest index."""
    out = np.empty(6, dtype=np.int64)
    for axis in range(3):
        out[2 * axis] = int(np.argmin(vertices[:, axis]))
        out[2 * axis + 1] = int(np.argmax(vertices[:, axis]))
    return out


def _directed_edge_duplicates(faces: np.ndarray) -> dict[tuple[int, int], list[int]]:
    """Repeated directed edges -> ids of the faces using them, in face order."""
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
    parent = state.face_parent
    area_tol = state.tol * state.tol
    present = {surf for surf in (0, 1) if (source == surf).any()}

    for _ in range(CLEARING_MAX_PASSES):
        keep = ~(
            (faces[:, 0] == faces[:, 1])
            | (faces[:, 1] == faces[:, 2])
            | (faces[:, 2] == faces[:, 0])
        )
        keep &= triangle_areas(verts, faces) > area_tol
        faces, source, parent = faces[keep], source[keep], parent[keep]

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
        faces, source, parent = faces[~drop], source[~drop], parent[~drop]
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
        verts, faces, source, parent, edges, pairs, state.tol,
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
    replacements: dict,
    segments,
    tol: float,
) -> MergedState:
    """Assemble the global merged arrays from both meshes plus split output.

    replacements maps ('A'|'B', face_id) -> (k, 3, 3) child coordinates for
    every intersected face; untouched faces pass through. Segment endpoints
    join the weld pool so the intersection edges land in the same index
    space.
    """
    raw_chunks = [a.vertices, b.vertices]
    offset_b = len(a.vertices)
    cursor = offset_b + len(b.vertices)

    face_rows = []
    parent_rows = []
    source_rows = []
    child_parent_normals = []

    for surf, mesh, offset in ((0, a, 0), (1, b, offset_b)):
        tag = "A" if surf == 0 else "B"
        replaced = {fid for (t, fid) in replacements if t == tag}
        for fid in range(mesh.num_faces):
            if fid not in replaced:
                face_rows.append(mesh.faces[fid] + offset)
                parent_rows.append(-1)
                source_rows.append(surf)
        for fid in sorted(replaced):
            children = replacements[(tag, fid)]
            k = len(children)
            raw_chunks.append(np.asarray(children, dtype=np.float64).reshape(-1, 3))
            idx = np.arange(cursor, cursor + 3 * k).reshape(k, 3)
            cursor += 3 * k
            tri = mesh.face_coords(fid)
            pn = np.cross(tri[1] - tri[0], tri[2] - tri[0])
            for row in idx:
                face_rows.append(row)
                parent_rows.append(fid)
                source_rows.append(surf)
                child_parent_normals.append(pn)

    seg_base = cursor
    seg_pts = []
    for s in segments:
        seg_pts.append(s.p0)
        seg_pts.append(s.p1)
    if seg_pts:
        raw_chunks.append(np.asarray(seg_pts, dtype=np.float64))

    raw = np.concatenate(raw_chunks, axis=0) if raw_chunks else np.zeros((0, 3))
    vertices, remap = merge_vertices(raw, tol)

    faces = remap[np.asarray(face_rows, dtype=np.int64)]
    source = np.asarray(source_rows, dtype=np.int8)
    parent = np.asarray(parent_rows, dtype=np.int64)

    # Parent-winding alignment for re-triangulated children (clearing item 4).
    # Only clearly anti-parallel children flip; slivers with noise-level
    # normals keep their combinatorial orientation from the splitter.
    child_mask = parent >= 0
    if child_mask.any():
        p = vertices[faces[child_mask]]
        normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        pn = np.asarray(child_parent_normals)
        dots = np.einsum("ij,ij->i", normals, pn)
        n_len = np.linalg.norm(normals, axis=1)
        p_len = np.linalg.norm(pn, axis=1)
        flip = (dots < -0.5 * n_len * p_len) & (n_len > 1e-9 * p_len)
        if flip.any():
            rows = np.nonzero(child_mask)[0][flip]
            faces[rows] = faces[rows][:, ::-1]
            log.debug("reversed %d re-triangulated children", len(rows))

    edge_rows = []
    edge_pairs = []
    for si, s in enumerate(segments):
        h = int(remap[seg_base + 2 * si])
        t = int(remap[seg_base + 2 * si + 1])
        if h == t:
            continue
        edge_rows.append((min(h, t), max(h, t)))
        edge_pairs.append((s.tri_a, s.tri_b))
    if edge_rows:
        earr = np.asarray(edge_rows, dtype=np.int64)
        uniq, first = np.unique(earr, axis=0, return_index=True)
        order = np.argsort(first)
        edges = uniq[order]
        pairs = [edge_pairs[first[i]] for i in order]
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
        pairs = []

    state = MergedState(
        vertices, faces, source, parent, edges, pairs, tol,
        a_closed=a.closed, b_closed=b.closed,
    )
    return clear_topology(state)
