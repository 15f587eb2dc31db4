"""Narrow phase: intersection segments for candidate triangle pairs.

Per pair this is the two-plane interval test (Möller 1997): signed distances
of each triangle's corners to the other's plane (zero-snapped near the
plane), then the overlap of the two chords along the common line. First one
box test over all pairs, in fixed chunks and one axis at a time on the
per-triangle boxes (computed per call), drops the pairs whose boxes miss
(most of the broad phase's output). The survivors are then taken in fixed
chunks, and each chunk is one numpy pass: both unit normals and distance
rows, the drop of pairs with one triangle strictly on one side of the
other's plane, then the interval test on all the remaining rows at once.

The batch decides a row when it is generic: no snapped distance is zero, the
planes are not parallel (|na x nb| >= 1e-12), the chord positions are
finite, and each chord has two ends more than the tolerance apart. For such
a row it does the operations of the scalar tail, _segment, in the same
order, so its segments are the tail's to the byte. Every other row (a shared
corner or edge, an edge in the other plane, coplanar or parallel planes, a
chord within the tolerance) runs _segment. tri_tri_intersect is a batch of
one. intersect_all returns a SegmentTable sorted by (tri_a, tri_b), then by
pair position.
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


@dataclass(eq=False)
class SegmentTable:
    """Segments as columns: end points p0, p1 (k, 3) float64 and triangle ids
    tri_a, tri_b (k,) int64. Iterating yields IntersectionSegment views."""

    p0: np.ndarray
    p1: np.ndarray
    tri_a: np.ndarray
    tri_b: np.ndarray

    @classmethod
    def empty(cls) -> SegmentTable:
        return cls(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, np.int64), np.zeros(0, np.int64))

    def __len__(self) -> int:
        return len(self.tri_a)

    def __iter__(self):
        for p0, p1, ta, tb in zip(self.p0, self.p1, self.tri_a.tolist(), self.tri_b.tolist()):
            yield IntersectionSegment(p0, p1, ta, tb)


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


def _chord_ends(tri, d, tol):
    """For (k, 3, 3) triangles and their (k, 3) distance rows: the two chord
    ends, by _chord's lerp on the first two crossing edges in edge order, and
    whether the row has exactly two crossing edges with ends more than tol
    apart (two crossing edges leave no zero distance)."""
    nxt = [1, 2, 0]
    with np.errstate(all="ignore"):
        t = d / (d - d[:, nxt])
        ends = tri + t[..., None] * (tri[:, nxt] - tri)
        cross = d * d[:, nxt] < 0.0
        rows = np.arange(len(d))
        q0 = ends[rows, np.argmax(cross, axis=1)]
        q1 = ends[rows, 2 - np.argmax(cross[:, ::-1], axis=1)]
        return q0, q1, (cross.sum(axis=1) == 2) & (_norm(q1 - q0) > tol)


def _chunk(pa, pb, tol, area_first=False):
    """The narrow phase on (k, 3, 3) stacks.

    Returns (rows, lo, hi, point) for the rows the batch finds touching,
    point marking a contact no longer than tol, and the tail's (row, result)
    for every straddling row the batch leaves undecided, in row order. A
    zero-area triangle raises once its pair straddles, or before any plane
    test with area_first.
    """
    na, nb, da, db, flat, straddle = _planes(pa, pb, tol)
    if flat[straddle | area_first].any():
        raise DegenerateTriangle("triangle area below tolerance")
    keep = np.nonzero(straddle)[0]
    if len(keep) == 0:  # no straddling row: the common chunk of a nested or near-miss scene
        return keep, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, bool), []
    na, da, db, line = na[keep], da[keep], db[keep], np.cross(na[keep], nb[keep])
    norm = _norm(line)
    a0, a1, chord_a = _chord_ends(pa[keep], da, tol)
    b0, b1, chord_b = _chord_ends(pb[keep], db, tol)
    # Rows the batch leaves to the tail may hold zeros and non-finite values.
    with np.errstate(all="ignore"):
        u = line / norm[:, None]
        sa0, sa1, sb0, sb1 = s = [row_dots(q, u) for q in (a0, a1, b0, b1)]
        # argmin and argmax over two positions: index 0 wins ties.
        lo_a, hi_a = np.where((sa1 < sa0)[:, None], a1, a0), np.where((sa1 > sa0)[:, None], a1, a0)
        lo_b, hi_b = np.where((sb1 < sb0)[:, None], b1, b0), np.where((sb1 > sb0)[:, None], b1, b0)
        lo = np.where((np.minimum(sa0, sa1) >= np.minimum(sb0, sb1))[:, None], lo_a, lo_b)
        hi = np.where((np.maximum(sa0, sa1) <= np.maximum(sb0, sb1))[:, None], hi_a, hi_b)
        span = row_dots(hi - lo, u)
    generic = chord_a & chord_b & (norm >= 1e-12) & np.isfinite(s).all(axis=0)
    hit = generic & ~(span < -tol)
    tail = [(int(keep[k]), _segment(pa[keep[k]], pb[keep[k]], na[k], da[k].tolist(), db[k].tolist(),
                                    line[k], float(norm[k]), tol))
            for k in np.nonzero(~generic)[0].tolist()]
    return keep[hit], lo[hit], hi[hit], span[hit] <= tol, tail


def tri_tri_intersect(pa: np.ndarray, pb: np.ndarray, plane_tol: float):
    """Intersection of two triangles given as (3, 3) coordinate arrays.

    Returns None when disjoint, the string COPLANAR for overlapping coplanar
    pairs, otherwise an IntersectionSegment (degenerate=True for point
    contact). plane_tol is the absolute distance used to zero-snap the sign
    tests. A zero-area triangle raises DegenerateTriangle.
    """
    pa = np.asarray(pa, dtype=np.float64)[None]
    pb = np.asarray(pb, dtype=np.float64)[None]
    rows, lo, hi, point, tail = _chunk(pa, pb, plane_tol, area_first=True)
    if len(rows):
        return IntersectionSegment(lo[0], (lo if point[0] else hi)[0], -1, -1, degenerate=bool(point[0]))
    return tail[0][1] if tail else None


def intersect_all(pairs: np.ndarray, a: TriMesh, b: TriMesh, plane_tol: float,
                  strict: bool = False) -> tuple[SegmentTable, NarrowPhaseReport]:
    """Segments for every actually intersecting candidate pair.

    Degenerate point contacts are filtered; coplanar overlapping pairs are
    reported (and abort under strict). The table is sorted by (tri_a, tri_b)
    and then by position in pairs.
    """
    report = NarrowPhaseReport()
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) == 0:
        return SegmentTable.empty(), report

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
    # Per segment: its position in pairs and its two end points.
    pos, p0, p1 = [np.zeros(0, np.int64)], [np.zeros((0, 3))], [np.zeros((0, 3))]
    for start in range(0, len(pairs), CHUNK):
        chunk = pairs[start : start + CHUNK]
        pa = a.vertices[a.faces[chunk[:, 0]]]
        pb = b.vertices[b.faces[chunk[:, 1]]]
        rows, lo, hi, point, tail = _chunk(pa, pb, plane_tol)
        report.point_contacts += int(point.sum())
        pos.append(start + rows[~point])
        p0.append(lo[~point])
        p1.append(hi[~point])
        for idx, res in tail:
            if res is None:
                continue
            if res is COPLANAR:
                report.coplanar_pairs.append((int(chunk[idx, 0]), int(chunk[idx, 1])))
            elif res.degenerate:
                report.point_contacts += 1
            else:
                pos.append(np.array([start + idx]))
                p0.append(res.p0[None])
                p1.append(res.p1[None])
    if strict and report.coplanar_pairs:
        raise CoplanarPairError(
            f"{len(report.coplanar_pairs)} overlapping coplanar triangle pair(s), "
            f"first {report.coplanar_pairs[0]}"
        )
    pos = np.concatenate(pos)
    order = np.lexsort((pos, pairs[pos, 1], pairs[pos, 0]))
    pos = pos[order]
    return (SegmentTable(np.concatenate(p0)[order], np.concatenate(p1)[order], pairs[pos, 0], pairs[pos, 1]),
            report)
