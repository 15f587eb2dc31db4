"""The narrow phase as it was before the plane test was computed once per
pair: a verbatim copy of the old meshbool.intersect, kept as the differential
oracle for the new one.

Its chunk prefilter builds unit normals with the axis form of the norm and
einsum distances; tri_tri_intersect then rebuilds both unit normals and both
snapped distance rows for every surviving pair on its own. Its triangle boxes
and its row-wise box test are the (k, 3) forms from before meshbool moved both
to per-axis columns. One edit since: _chord lerps each crossing edge from its
lexicographically smaller end, as meshbool.intersect does now.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from meshbool.errors import CoplanarPairError, DegenerateTriangle
from meshbool.geometry import TriMesh

COPLANAR = "coplanar"
CHUNK = 4096  # pairs gathered at once; bounds the per-call coordinate arrays


@dataclass
class IntersectionSegment:
    p0: np.ndarray
    p1: np.ndarray
    tri_a: int
    tri_b: int
    degenerate: bool = False


@dataclass
class NarrowPhaseReport:
    coplanar_pairs: list = field(default_factory=list)
    point_contacts: int = 0


def triangle_boxes(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle AABB corners, (m, 3) lo and (m, 3) hi, as a reduction
    over the gathered (m, 3, 3) corners; meshbool.octree's is checked
    against it."""
    p = mesh.vertices[mesh.faces]
    return p.min(axis=1), p.max(axis=1)


def _unit_normal(tri, tol):
    n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    norm = np.linalg.norm(n)
    if norm <= tol * tol:
        raise DegenerateTriangle("triangle area below tolerance")
    return n / norm


def _snap(d, tol):
    d = d.copy()
    d[np.abs(d) < tol] = 0.0
    return d


def _chord(tri, d, tol):
    """Points where the triangle meets the other plane (0, 1 or 2 of them).

    Edited from the verbatim copy: a crossing edge is lerped from its
    lexicographically smaller end, as meshbool.intersect does, so that both
    faces on an edge compute the crossing bit-equal."""
    pts = [tri[i] for i in range(3) if d[i] == 0.0]
    for i in range(3):
        j = (i + 1) % 3
        if d[i] * d[j] < 0.0:
            s, e = (i, j) if tuple(tri[i]) <= tuple(tri[j]) else (j, i)
            t = d[s] / (d[s] - d[e])
            pts.append(tri[s] + t * (tri[e] - tri[s]))
    uniq: list[np.ndarray] = []
    for p in pts:
        if not any(np.linalg.norm(p - q) <= tol for q in uniq):
            uniq.append(p)
    if len(uniq) > 2:
        # Keep the farthest pair; extras are tolerance-level duplicates.
        best, pair = -1.0, uniq[:2]
        for i in range(len(uniq)):
            for j in range(i + 1, len(uniq)):
                dij = float(np.linalg.norm(uniq[i] - uniq[j]))
                if dij > best:
                    best, pair = dij, [uniq[i], uniq[j]]
        uniq = pair
    return uniq


def _coplanar_overlap_2d(pa, pb, normal):
    """Overlap test for coplanar triangles, projected on the dominant axis."""
    axis = int(np.argmax(np.abs(normal)))
    keep = [k for k in range(3) if k != axis]
    qa = pa[:, keep]
    qb = pb[:, keep]

    def tri_sign(p, a, b):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    def point_in(p, tri):
        d = [tri_sign(p, tri[i], tri[(i + 1) % 3]) for i in range(3)]
        return all(x >= 0 for x in d) or all(x <= 0 for x in d)

    def segs_cross(p1, p2, p3, p4):
        d1 = tri_sign(p3, p1, p2)
        d2 = tri_sign(p4, p1, p2)
        d3 = tri_sign(p1, p3, p4)
        d4 = tri_sign(p2, p3, p4)
        return ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0))

    if any(point_in(q, qb) for q in qa) or any(point_in(q, qa) for q in qb):
        return True
    for i in range(3):
        for j in range(3):
            if segs_cross(qa[i], qa[(i + 1) % 3], qb[j], qb[(j + 1) % 3]):
                return True
    return False


def tri_tri_intersect(pa: np.ndarray, pb: np.ndarray, plane_tol: float):
    """Intersection of two triangles given as (3, 3) coordinate arrays.

    Returns None when disjoint, the string COPLANAR for overlapping coplanar
    pairs, otherwise an IntersectionSegment (degenerate=True for point
    contact). plane_tol is the absolute distance used to zero-snap the sign
    tests.
    """
    pa = np.asarray(pa, dtype=np.float64)
    pb = np.asarray(pb, dtype=np.float64)
    na = _unit_normal(pa, plane_tol)
    nb = _unit_normal(pb, plane_tol)

    da = _snap((pa - pb[0]) @ nb, plane_tol)
    if (da > 0).all() or (da < 0).all():
        return None
    db = _snap((pb - pa[0]) @ na, plane_tol)
    if (db > 0).all() or (db < 0).all():
        return None

    if (da == 0).all() or (db == 0).all():
        return COPLANAR if _coplanar_overlap_2d(pa, pb, na) else None

    ca = _chord(pa, da, plane_tol)
    cb = _chord(pb, db, plane_tol)
    if not ca or not cb:
        return None

    direction = np.cross(na, nb)
    norm = np.linalg.norm(direction)
    if norm < 1e-12:
        ref = ca if len(ca) == 2 else cb
        if len(ref) < 2:
            return None
        direction = ref[1] - ref[0]
        norm = np.linalg.norm(direction)
        if norm == 0.0:
            return None
    direction = direction / norm

    sa = [float(p @ direction) for p in ca]
    sb = [float(p @ direction) for p in cb]
    lo_a, hi_a = (ca[int(np.argmin(sa))], ca[int(np.argmax(sa))])
    lo_b, hi_b = (cb[int(np.argmin(sb))], cb[int(np.argmax(sb))])
    lo = lo_a if min(sa) >= min(sb) else lo_b
    hi = hi_a if max(sa) <= max(sb) else hi_b
    span = float((hi - lo) @ direction)
    if span < -plane_tol:
        return None
    if span <= plane_tol:
        return IntersectionSegment(lo.copy(), lo.copy(), -1, -1, degenerate=True)
    return IntersectionSegment(lo.copy(), hi.copy(), -1, -1, degenerate=False)


def _plane_reject(p, q, tol):
    """Pairs whose p vertices all lie strictly on one side of q's plane."""
    n = np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0])
    norm = np.linalg.norm(n, axis=1, keepdims=True)
    norm[norm == 0] = 1.0
    n = n / norm
    d = np.einsum("kij,kj->ki", p - q[:, None, 0], n)
    d[np.abs(d) < tol] = 0.0
    return (d > 0).all(axis=1) | (d < 0).all(axis=1)


def intersect_all(
    pairs: np.ndarray,
    a: TriMesh,
    b: TriMesh,
    plane_tol: float,
    strict: bool = False,
) -> tuple[list[IntersectionSegment], NarrowPhaseReport]:
    """Segments for every actually intersecting candidate pair.

    Degenerate point contacts are filtered; coplanar overlapping pairs are
    reported (and abort under strict). Output is sorted by (tri_a, tri_b).
    """
    report = NarrowPhaseReport()
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) == 0:
        return [], report

    lo_a, hi_a = triangle_boxes(a)
    lo_b, hi_b = triangle_boxes(b)
    segs: list[IntersectionSegment] = []
    for start in range(0, len(pairs), CHUNK):
        chunk = pairs[start : start + CHUNK]
        ia, ib = chunk[:, 0], chunk[:, 1]
        chunk = chunk[(lo_a[ia] <= hi_b[ib]).all(axis=1) & (lo_b[ib] <= hi_a[ia]).all(axis=1)]
        pa = a.vertices[a.faces[chunk[:, 0]]]
        pb = b.vertices[b.faces[chunk[:, 1]]]
        keep = ~_plane_reject(pa, pb, plane_tol)
        keep[keep] &= ~_plane_reject(pb[keep], pa[keep], plane_tol)
        for idx in np.nonzero(keep)[0]:
            res = tri_tri_intersect(pa[idx], pb[idx], plane_tol)
            if res is None:
                continue
            ta, tb = int(chunk[idx, 0]), int(chunk[idx, 1])
            if res is COPLANAR:
                report.coplanar_pairs.append((ta, tb))
            elif res.degenerate:
                report.point_contacts += 1
            else:
                res.tri_a, res.tri_b = ta, tb
                segs.append(res)
    if strict and report.coplanar_pairs:
        raise CoplanarPairError(
            f"{len(report.coplanar_pairs)} overlapping coplanar triangle pair(s), "
            f"first {report.coplanar_pairs[0]}"
        )
    segs.sort(key=lambda s: (s.tri_a, s.tri_b))
    return segs, report
