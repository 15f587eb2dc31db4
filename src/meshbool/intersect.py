"""Narrow phase: intersection segments for candidate triangle pairs.

Per pair this is the two-plane interval test (Möller 1997): signed distances
of each triangle's corners to the other's plane (zero-snapped near the
plane), then the overlap of the two chords along the common line. The pairs
are taken in fixed chunks, and each chunk's corners are gathered once. A box
test on those corners drops the pairs whose boxes miss: none of the broad
phase's, which returns only overlapping pairs, but other callers may pass
any; no whole-mesh box array is built. The rest of the chunk is one numpy
pass: both unit normals and distance rows, the drop of pairs with one
triangle strictly on one side of the other's plane, then the chords and
their overlap on all the remaining rows at once. Only a row whose
distance row is all zero (coplanar triangles) runs the scalar 2D overlap
test. tri_tri_intersect is a batch of one. intersect_all returns a
SegmentTable sorted by (tri_a, tri_b), then by pair position.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CoplanarPairError, DegenerateTriangle
from .geometry import TriMesh, row_dots

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
    tri_a, tri_b (k,) int64."""

    p0: np.ndarray
    p1: np.ndarray
    tri_a: np.ndarray
    tri_b: np.ndarray

    @classmethod
    def empty(cls) -> SegmentTable:
        return cls(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, np.int64), np.zeros(0, np.int64))

    def __len__(self) -> int:
        return len(self.tri_a)


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
    pos, neg, flat = d > 0, d < 0, norm <= tol * tol
    side = (pos[..., 0] & pos[..., 1] & pos[..., 2]) | (neg[..., 0] & neg[..., 1] & neg[..., 2])
    return unit[0], unit[1], d[0], d[1], flat[0] | flat[1], ~(side[0] | side[1])


def _norm(v):
    return np.sqrt(row_dots(v, v))


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


def _chord_ends(tri, d, tol):
    """For (k, 3, 3) triangles and their (k, 3) distance rows: the chord where
    each triangle meets the other plane, as its first and last point
    (k, 2, 3), and its point count (k,), 0, 1 or 2.

    The candidates are the corners with d == 0, then the lerps on the edges
    with d_i * d_j < 0, each in index order; the chord is the first and the
    last of them. A row that is not all zero (_chunk passes no other) has at
    most two: three nonzero signs change an even number of times around the
    triangle (0 or 2 crossing edges), one zero corner leaves only its
    opposite edge without a zero (at most 1 + 1), and two leave none. Two
    points within tol count as one, the first. An edge is lerped from its
    lexicographically smaller end s to its other end e, s + d_s / (d_s -
    d_e) (e - s): a crossing is named by its edge, not by the pair, so both
    faces on the edge find it bit-equal from bit-equal distances.
    """
    nxt = [1, 2, 0]
    rows = np.arange(len(d))
    step = tri[:, nxt] - tri
    # flip (k, 3, 1): an edge's next corner is its lexicographically smaller end.
    flip = np.take_along_axis(step, np.argmax(step != 0.0, axis=2)[..., None], 2) < 0.0
    s, e = np.where(flip, tri[:, nxt], tri), np.where(flip, tri, tri[:, nxt])
    ds, de = np.where(flip[..., 0], d[:, nxt], d), np.where(flip[..., 0], d, d[:, nxt])
    with np.errstate(all="ignore"):
        cands = np.concatenate((tri, s + (ds / (ds - de))[..., None] * (e - s)), axis=1)
        on = np.concatenate((d == 0.0, d * d[:, nxt] < 0.0), axis=1)
        first, last = np.argmax(on, axis=1), 5 - np.argmax(on[:, ::-1], axis=1)
        ends = cands[rows[:, None], np.stack((first, last), axis=1)]
        # With at most two candidates, a row has two exactly when its first
        # candidate is not its last.
        hit = on[rows, first]
        two = hit & (first != last) & ~(_norm(ends[:, 1] - ends[:, 0]) <= tol)
    ends[~two, 1] = ends[~two, 0]
    return ends, np.where(two, 2, hit)


def _chunk(pa, pb, tol, area_first=False):
    """The narrow phase on (k, 3, 3) stacks.

    Returns (rows, lo, hi, point) for the rows found touching, point marking
    a contact no longer than tol, and the coplanar rows (one distance row all
    zero) whose triangles overlap, in row order. A zero-area triangle raises
    once its pair straddles, or before any plane test with area_first.
    """
    na, nb, da, db, flat, straddle = _planes(pa, pb, tol)
    if flat[straddle | area_first].any():
        raise DegenerateTriangle("triangle area below tolerance")
    keep = np.nonzero(straddle)[0]
    if len(keep) == 0:  # no straddling row: the common chunk of a nested or near-miss scene
        return keep, np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0, bool), []
    za, zb = da[keep] == 0.0, db[keep] == 0.0  # by column: all(axis=1) costs ~15x more
    flat = za[:, 0] & za[:, 1] & za[:, 2] | zb[:, 0] & zb[:, 1] & zb[:, 2]
    coplanar = [r for r in keep[flat].tolist() if _coplanar_overlap_2d(pa[r], pb[r], na[r])]
    keep = keep[~flat]
    ea, ca = _chord_ends(pa[keep], da[keep], tol)
    eb, cb = _chord_ends(pb[keep], db[keep], tol)
    ends = np.concatenate((ea, eb), axis=1)  # per row: A's two ends, then B's
    rows = np.arange(len(keep))
    # Dropped rows may hold zeros and non-finite values.
    with np.errstate(all="ignore"):
        line = np.cross(na[keep], nb[keep])
        norm = _norm(line)
        # Near-parallel planes: the line runs along A's chord if it has two
        # points, else along B's; a row with neither is dropped.
        par = norm < 1e-12
        ref = np.where((ca[par] == 2)[:, None, None], ea[par], eb[par])
        line[par] = ref[:, 1] - ref[:, 0]
        norm[par] = _norm(line[par])
        u = line / norm[:, None]
        s = row_dots(ends, u[:, None])
        # Per chord (A, B), np.argmin (argmax) of its two positions picks the
        # second when the first is not NaN and the second is NaN or strictly
        # lower (higher); Python's min (max) only when strictly lower (higher).
        first, second = s[:, ::2], s[:, 1::2]
        i_min = (first == first) & ~(second >= first)
        i_max = (first == first) & ~(second <= first)
        s_min = np.where(second < first, second, first)
        s_max = np.where(second > first, second, first)
        lo = ends[rows, np.where(s_min[:, 0] >= s_min[:, 1], i_min[:, 0], 2 + i_min[:, 1])]
        hi = ends[rows, np.where(s_max[:, 0] <= s_max[:, 1], i_max[:, 0], 2 + i_max[:, 1])]
        span = row_dots(hi - lo, u)
    live = (ca > 0) & (cb > 0) & ~(par & ((np.maximum(ca, cb) < 2) | (norm == 0.0)))
    hit = live & ~(span < -tol)
    return keep[hit], lo[hit], hi[hit], span[hit] <= tol, coplanar


def _boxes_meet(pa, pb):
    """Rows of two (k, 3, 3) corner stacks whose closed boxes overlap, by
    the per-axis test lo_a <= hi_b and lo_b <= hi_a on corner columns."""
    hit = np.ones(len(pa), dtype=bool)
    for k in range(3):
        (lo_a, hi_a), (lo_b, hi_b) = (_span(p[:, :, k]) for p in (pa, pb))
        hit &= (lo_a <= hi_b) & (lo_b <= hi_a)
    return np.nonzero(hit)[0]


def _span(x):
    """Per row of a (k, 3) column, its least and greatest value."""
    return np.minimum(np.minimum(x[:, 0], x[:, 1]), x[:, 2]), np.maximum(np.maximum(x[:, 0], x[:, 1]), x[:, 2])


def tri_tri_intersect(pa: np.ndarray, pb: np.ndarray, plane_tol: float):
    """Intersection of two triangles given as (3, 3) coordinate arrays.

    Returns None when disjoint, the string COPLANAR for overlapping coplanar
    pairs, otherwise an IntersectionSegment (degenerate=True for point
    contact). plane_tol is the absolute distance used to zero-snap the sign
    tests. A zero-area triangle raises DegenerateTriangle.
    """
    pa = np.asarray(pa, dtype=np.float64)[None]
    pb = np.asarray(pb, dtype=np.float64)[None]
    rows, lo, hi, point, coplanar = _chunk(pa, pb, plane_tol, area_first=True)
    if not len(rows):
        return COPLANAR if coplanar else None
    return IntersectionSegment(lo[0], (lo if point[0] else hi)[0], -1, -1, degenerate=bool(point[0]))


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

    # Per segment: its position in pairs and its two end points.
    pos, p0, p1 = [np.zeros(0, np.int64)], [np.zeros((0, 3))], [np.zeros((0, 3))]
    for start in range(0, len(pairs), CHUNK):
        chunk = pairs[start : start + CHUNK]
        pa = a.vertices[a.faces[chunk[:, 0]]]
        pb = b.vertices[b.faces[chunk[:, 1]]]
        keep = _boxes_meet(pa, pb)
        if len(keep) < len(chunk):
            chunk, pa, pb = chunk[keep], pa[keep], pb[keep]
        rows, lo, hi, point, coplanar = _chunk(pa, pb, plane_tol)
        report.point_contacts += int(point.sum())
        report.coplanar_pairs += [tuple(p) for p in chunk[coplanar].tolist()]
        pos.append(start + keep[rows[~point]])
        p0.append(lo[~point])
        p1.append(hi[~point])
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
