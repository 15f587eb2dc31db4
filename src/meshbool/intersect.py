"""Narrow phase: intersection segments for candidate triangle pairs.

Per pair this is the classic two-plane interval test (Möller 1997): signed
distances of each triangle's vertices to the other's plane (zero-snapped near
the plane), then the overlap of the two clipped chords along the common line.
First one box test over all pairs, in fixed chunks and one axis at a time on
the per-triangle boxes (computed per call), drops the pairs whose boxes miss
(most of the broad phase's output). The survivors are then taken in fixed
chunks: one numpy pass computes both unit normals and both distance rows and
drops the pairs with one triangle strictly on one side of the other's plane.
Only the rest run the per-pair tail, on those rows. tri_tri_intersect is a
batch of one. The loop is serial; segments are sorted by (tri_a, tri_b).
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoplanarPairError, DegenerateTriangle
from .geometry import TriMesh, row_dots
from .octree import triangle_boxes

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


def _planes(pa, pb, tol):
    """For (k, 3, 3) stacks: both unit normals, the snapped distances of each
    triangle's corners to the other's plane, the zero-area flag, and whether
    the pair straddles both planes. Rows run the one-pair kernels (np.cross,
    sqrt of a vector dot, matrix @ vector). NaN distances never reject."""
    tris = np.stack((pa, pb))
    n = np.cross(tris[:, :, 1] - tris[:, :, 0], tris[:, :, 2] - tris[:, :, 0])
    norm = _norm(n)
    with np.errstate(divide="ignore", invalid="ignore"):
        unit = n / norm[..., None]
    d = ((tris - tris[::-1, :, :1]) @ unit[[1, 0], :, :, None])[..., 0]
    d[np.abs(d) < tol] = 0.0
    straddle = ~((d > 0).all(axis=2) | (d < 0).all(axis=2)).any(axis=0)
    return unit[0], unit[1], d[0], d[1], (norm <= tol * tol).any(axis=0), straddle


def _norm(v):
    return np.sqrt(row_dots(v, v))


def _chord(tri, d, tol):
    """Points where the triangle meets the other plane (0, 1 or 2 of them)."""
    pts = [tri[i] for i in range(3) if d[i] == 0.0]
    for i in range(3):
        j = (i + 1) % 3
        if d[i] * d[j] < 0.0:
            t = d[i] / (d[i] - d[j])
            pts.append(tri[i] + t * (tri[j] - tri[i]))
    uniq: list[np.ndarray] = []
    for p in pts:
        if not any(_norm(p - q) <= tol for q in uniq):
            uniq.append(p)
    if len(uniq) > 2:
        # Keep the farthest pair; extras are tolerance-level duplicates.
        best, pair = -1.0, uniq[:2]
        for i in range(len(uniq)):
            for j in range(i + 1, len(uniq)):
                dij = float(_norm(uniq[i] - uniq[j]))
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


def _segment(pa, pb, na, da, db, direction, norm, tol):
    """Coplanar test, both chords and their overlap along the common line."""
    if all(x == 0.0 for x in da) or all(x == 0.0 for x in db):
        return COPLANAR if _coplanar_overlap_2d(pa, pb, na) else None
    ca = _chord(pa, da, tol)
    cb = _chord(pb, db, tol)
    if not ca or not cb:
        return None
    if norm < 1e-12:
        ref = ca if len(ca) == 2 else cb
        if len(ref) < 2:
            return None
        direction = ref[1] - ref[0]
        norm = _norm(direction)
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
    if span < -tol:
        return None
    if span <= tol:
        return IntersectionSegment(lo.copy(), lo.copy(), -1, -1, degenerate=True)
    return IntersectionSegment(lo.copy(), hi.copy(), -1, -1, degenerate=False)


def _tails(pa, pb, tol, area_first=False):
    """Yields (row, result) for each pair of the stacks that straddles both
    planes. A zero-area triangle raises once its pair straddles, or before any
    plane test with area_first."""
    na, nb, da, db, flat, straddle = _planes(pa, pb, tol)
    if flat[straddle | area_first].any():
        raise DegenerateTriangle("triangle area below tolerance")
    keep = np.nonzero(straddle)[0]
    if len(keep) == 0:
        return
    line = np.cross(na[keep], nb[keep])
    rows = zip(keep.tolist(), da[keep].tolist(), db[keep].tolist(), line, _norm(line).tolist())
    for i, da_i, db_i, line_i, norm_i in rows:
        yield i, _segment(pa[i], pb[i], na[i], da_i, db_i, line_i, norm_i, tol)


def tri_tri_intersect(pa: np.ndarray, pb: np.ndarray, plane_tol: float):
    """Intersection of two triangles given as (3, 3) coordinate arrays.

    Returns None when disjoint, the string COPLANAR for overlapping coplanar
    pairs, otherwise an IntersectionSegment (degenerate=True for point
    contact). plane_tol is the absolute distance used to zero-snap the sign
    tests. A zero-area triangle raises DegenerateTriangle.
    """
    pa = np.asarray(pa, dtype=np.float64)[None]
    pb = np.asarray(pb, dtype=np.float64)[None]
    for _, res in _tails(pa, pb, plane_tol, area_first=True):
        return res
    return None


def intersect_all(pairs: np.ndarray, a: TriMesh, b: TriMesh, plane_tol: float,
                  strict: bool = False) -> tuple[list[IntersectionSegment], NarrowPhaseReport]:
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
    kept = []
    for start in range(0, len(pairs), CHUNK):
        ia, ib = pairs[start : start + CHUNK].T
        for k in range(3):
            hit = (lo_a[:, k][ia] <= hi_b[:, k][ib]) & (lo_b[:, k][ib] <= hi_a[:, k][ia])
            ia, ib = ia[hit], ib[hit]
        kept.append(np.stack((ia, ib), axis=1))
    pairs = np.concatenate(kept)
    segs: list[IntersectionSegment] = []
    for start in range(0, len(pairs), CHUNK):
        chunk = pairs[start : start + CHUNK]
        pa = a.vertices[a.faces[chunk[:, 0]]]
        pb = b.vertices[b.faces[chunk[:, 1]]]
        for idx, res in _tails(pa, pb, plane_tol):
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
