"""The broad phase's box code in its (m, 3) row form, frozen as a
differential oracle.

Copies of meshbool.geometry.Aabb.of_points and meshbool.octree's
triangle_boxes and clip_to_shared_region as they were before they worked
one coordinate column at a time: axis-0 min/max over (m, 3) arrays, an
axis-1 all for the clip's inside mask, and (m, 3) row gathers for the cube
extents. The column forms in src must give the same bits, signed zeros
included.
"""
from __future__ import annotations

import numpy as np

from meshbool.geometry import Aabb, TriMesh, aabb_intersection, as_points
from meshbool.octree import CUBE_INFLATE


def of_points(pts: np.ndarray) -> Aabb:
    pts = as_points(pts)
    return Aabb(pts.min(axis=0), pts.max(axis=0))


def triangle_boxes(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    v, f = mesh.vertices, mesh.faces
    p0, p1, p2 = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    return np.minimum(np.minimum(p0, p1), p2), np.maximum(np.maximum(p0, p1), p2)


def clip_to_shared_region(a: TriMesh, b: TriMesh):
    box_ab = aabb_intersection(of_points(a.vertices), of_points(b.vertices))
    if box_ab.is_empty:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), Aabb.empty(), None

    def inside(mesh):
        lo, hi = triangle_boxes(mesh)
        mask = ((lo <= box_ab.hi) & (hi >= box_ab.lo)).all(axis=1)
        return np.nonzero(mask)[0], lo, hi

    ids_a, lo_a, hi_a = inside(a)
    ids_b, lo_b, hi_b = inside(b)
    if len(ids_a) == 0 or len(ids_b) == 0:
        return ids_a, ids_b, Aabb.empty(), None

    all_lo = np.minimum(lo_a[ids_a].min(axis=0), lo_b[ids_b].min(axis=0))
    all_hi = np.maximum(hi_a[ids_a].max(axis=0), hi_b[ids_b].max(axis=0))
    center = box_ab.center
    half = max(
        float(box_ab.extent.max()) * 0.5,
        float(np.abs(all_lo - center).max()),
        float(np.abs(all_hi - center).max()),
    )
    half *= 1.0 + CUBE_INFLATE
    if half == 0.0:
        half = CUBE_INFLATE
    cube = Aabb(center - half, center + half)
    return ids_a, ids_b, cube, ((lo_a, hi_a), (lo_b, hi_b))
