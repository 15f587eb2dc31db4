"""Split intersected triangles along their segments and re-triangulate.

Splitting builds the planar subdivision induced by the chords inside the
triangle (boundary pieces + segment edges) and extracts its faces, which is
equivalent to dividing the triangle loop by loop but also copes with chords
meeting at junction vertices and with nested closed loops. Faces are then
ear-clipped; closed loops floating inside a face become holes and are joined
to the outer ring by bridge edges before clipping.

All split faces of a surface are prepared in one numpy pass, prepare_splits,
which takes their segments and boundary points as columns tagged by face
and returns the surface's one point table and one record per face, a
FaceSetup: the face's fault or its polygons as rows of that table. The float
work (frames, 2D coordinates, edge snaps, containment) keeps dot products,
norms and hypot in numpy, where they round as the same expression on one face
did. The walk is batched over the faces too: weld, snap, tail prune, turn
table, face cycles and their areas. Only a face whose graph has more than one
component places its holes in Python, face by face. split_and_triangulate
raises a face's fault or ear-clips its polygons on Python floats and ints
with no numpy call, into rows of the point table, which build_merged_state
gathers once per surface.

The combinatorial ear-clipping core follows the well-known earcut algorithm,
on a ring held as a Python list of point ids into the polygon's coordinates:
a clip deletes one position, and a hole bridge splices the hole's points and
copies of the bridge's two ends in after one position. Copies repeat ids, so
the clip tracks ring positions. It runs without the z-order acceleration
and without collinear-vertex filtering: points inserted on shared triangle
edges must survive into the output or the neighbouring triangle would see a
T-junction. It also has none of earcut's
fallback passes (a retry, curing local self-intersections, splitting along a
diagonal; Held 2001, "FIST"). The faces of a planar subdivision are weakly
simple polygons, and by the two-ears theorem every such polygon with more
than three vertices has two ears. The ear test is conservative: points within
a noise band of an ear block it. Where that hides every ear left (seen only
in faces with a bridged hole), one more cycle tests without the band and
lets copies of an ear's corners, which a hole bridge leaves of its two ends,
pass. A cycle without an ear after that is a numeric fault: ear clipping
raises DegeneratePolygon there, where the fallbacks returned triangles that
lose area.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import DegeneratePolygon, DegenerateTriangle, GeometryError, NotSimple
from .geometry import row_dots
from .halfedge import min_labels, sort_runs


def _pairs(ring) -> list:
    """A ring of (x, y) points as a list; an array's become Python floats."""
    return ring.tolist() if hasattr(ring, "tolist") else list(ring)


# ---------------------------------------------------------------------------
# Ear clipping (earcut on a ring of point ids, holes via bridges)
# ---------------------------------------------------------------------------


def _area(X, Y, p, q, r):
    # Positive for clockwise turns in the math convention used throughout.
    return (Y[q] - Y[p]) * (X[r] - X[q]) - (X[q] - X[p]) * (Y[r] - Y[q])


def _point_in_triangle(ax, ay, bx, by, cx, cy, px, py, eps=0.0):
    return (
        (cx - px) * (ay - py) - (ax - px) * (cy - py) >= -eps
        and (ax - px) * (by - py) - (bx - px) * (ay - py) >= -eps
        and (bx - px) * (cy - py) - (cx - px) * (by - py) >= -eps
    )


def _locally_inside(X, Y, ring, i, b):
    """Whether point b lies inside the polygon's angle at ring position i."""
    p, a, q = ring[i - 1], ring[i], ring[(i + 1) % len(ring)]
    if _area(X, Y, p, a, q) < 0:
        return _area(X, Y, a, b, q) >= 0 and _area(X, Y, a, p, b) >= 0
    return _area(X, Y, a, b, p) < 0 or _area(X, Y, a, q, b) < 0


def _ring(X, Y, first, count, ccw):
    """The point ids first to first + count - 1 as a ring: reversed unless
    their signed area is positive exactly when ccw is set (outer rings
    positive, holes negative), with exact duplicates of a neighbour dropped
    and collinear points kept. The ring starts at the last id put in; a
    start that duplicates its successor gives way to it, and one that its
    predecessor duplicates, to that predecessor."""
    ids = range(first, first + count)
    s, i, repeats = 0.0, first, False
    for k in (*ids[1:], *ids[:1]):  # the shoelace sum, in ring order
        s += X[i] * Y[k] - X[k] * Y[i]
        repeats = repeats or (X[i] == X[k] and Y[i] == Y[k])
        i = k
    if (0.5 * s > 0) != ccw:  # the area: a subnormal s halves to zero
        ids = ids[::-1]
    ring = [*ids[-1:], *ids[:-1]]
    if repeats:
        if X[ring[0]] == X[ring[1 % count]] and Y[ring[0]] == Y[ring[1 % count]]:
            del ring[0]
        kept = ring[:1]
        for i in ring[1:]:
            if X[i] != X[kept[-1]] or Y[i] != Y[kept[-1]]:
                kept.append(i)
        if len(kept) > 1 and X[kept[-1]] == X[kept[0]] and Y[kept[-1]] == Y[kept[0]]:
            kept = kept[-1:] + kept[1:-1]
        ring = kept
    return ring


def _find_hole_bridge(X, Y, ring, h):
    """The ring position that hole point h, its hole's leftmost, bridges
    to, or None when no ring edge meets the leftward ray from h."""
    n = len(ring)
    hx, hy = X[h], Y[h]
    qx = -math.inf
    m = None
    for i in range(n):
        p, q = ring[i], ring[(i + 1) % n]
        if hy <= Y[p] and hy >= Y[q] and Y[q] != Y[p]:
            x = X[p] + (hy - Y[p]) * (X[q] - X[p]) / (Y[q] - Y[p])
            if x <= hx and x > qx:
                qx = x
                m = i if X[p] < X[q] else (i + 1) % n
                if x == hx:
                    return m
    if m is None:
        return None
    # A point of the triangle (h, the hit at qx, m) that h sees takes the
    # bridge from m: the one nearest the ray, then the rightmost, then the
    # one whose sector lies in the current end's.
    mx, my = X[ring[m]], Y[ring[m]]
    tan_min = math.inf
    for i in (*range(m, n), *range(m)):
        p, end = ring[i], ring[m]
        if hx >= X[p] >= mx and hx != X[p] and _point_in_triangle(
            hx if hy < my else qx, hy, mx, my, qx if hy < my else hx, hy, X[p], Y[p]
        ):
            tan = abs(hy - Y[p]) / (hx - X[p])
            if _locally_inside(X, Y, ring, i, h) and (tan < tan_min or tan == tan_min and (
                X[p] > X[end] or X[p] == X[end]
                and _area(X, Y, ring[m - 1], end, ring[i - 1]) < 0
                and _area(X, Y, ring[(i + 1) % n], end, ring[(m + 1) % n]) < 0
            )):
                m = i
                tan_min = tan
    return m


def _is_ear(X, Y, ring, j, eps, exact):
    """Whether the corner at ring position j is an ear: it turns by more
    than eps, and no reflex or straight corner of the ring lies in its
    triangle within eps. The exact test (eps 0) lets copies of the ear's
    corners pass."""
    if exact:
        eps = 0.0
    n = len(ring)
    a, b, c = ring[j - 1], ring[j], ring[j + 1 - n]
    ax, ay, bx, by, cx, cy = X[a], Y[a], X[b], Y[b], X[c], Y[c]
    if (by - ay) * (cx - bx) - (bx - ax) * (cy - by) >= -eps:
        return False  # reflex or straight tip (within noise)
    for k in range(j + 2 - n, j - 1):  # from after c to before a, as valid indices
        p = ring[k]
        px, py = X[p], Y[p]
        # A copy of a corner, as a hole bridge leaves, blocks only the noisy test.
        if exact and ((px == ax and py == ay) or (px == bx and py == by) or (px == cx and py == cy)):
            continue
        if _point_in_triangle(ax, ay, bx, by, cx, cy, px, py, eps) and (
            _area(X, Y, ring[k - 1], p, ring[k + 1]) >= -eps
        ):
            return False
    return True


def ear_clip(loop2d, holes2d=()) -> list[tuple[int, int, int]]:
    """Triangulate a CCW 2D polygon, optionally with hole rings.

    Returns index triples into the concatenation of the outer ring and the
    hole rings. A simple hole-free n-gon yields exactly n - 2 triangles.
    Raises DegeneratePolygon when no ear is left, even under exact tests; a
    weakly simple polygon always has one.
    """
    pts = _pairs(loop2d)
    if len(pts) < 3:
        raise DegeneratePolygon("polygon needs at least 3 vertices")
    holes = [_pairs(h) for h in holes2d]
    X, Y = zip(*pts, *(p for h in holes for p in h))
    ring = _ring(X, Y, 0, len(pts), True)
    if len(ring) < 3:
        raise DegeneratePolygon("polygon degenerates to fewer than 3 points")

    # Each hole, from its first leftmost point, is spliced in after the ring
    # position it bridges to, closed by copies of the bridge's two ends.
    bridged, first = [], len(pts)
    for h in holes:
        hole = _ring(X, Y, first, len(h), False)
        first += len(h)
        if hole:
            k = min(range(len(hole)), key=lambda k: (X[hole[k]], Y[hole[k]]))
            bridged.append(hole[k:] + hole[:k])
    bridged.sort(key=lambda hole: (X[hole[0]], Y[hole[0]]))
    for hole in bridged:
        m = _find_hole_bridge(X, Y, ring, hole[0])
        if m is None:
            raise NotSimple("no visible bridge from hole to outer ring")
        ring[m + 1:m + 1] = [*hole, hole[0], ring[m]]

    # Clip ears from the ring's start until two points are left. A bridge's
    # copies repeat ids, so the ear and the stop are ring positions. A cycle
    # without an ear is repeated once with exact tests: a vertex within eps
    # of a bridge can block every ear near it. An exact cycle without an
    # ear raises.
    eps = 1e-12 * ((max(X) - min(X)) ** 2 + (max(Y) - min(Y)) ** 2)
    triangles: list[tuple[int, int, int]] = []
    j = stop = 0
    exact = False
    n = len(ring)
    while n > 2:
        if _is_ear(X, Y, ring, j, eps, exact):
            triangles.append((ring[j - 1], ring[j], ring[j + 1 - n]))
            del ring[j]
            n -= 1
            j = stop = (j % n + 1) % n
        else:
            j = (j + 1) % n
            if j == stop:
                if exact:
                    raise DegeneratePolygon("no ear left to clip: polygon is not weakly simple")
                exact = True
    # Emitted triples follow the ring's (CCW) traversal order, so shared
    # diagonals come out in opposite directions; no numeric re-orientation.
    return triangles


# ---------------------------------------------------------------------------
# Triangle splitting by planar subdivision
# ---------------------------------------------------------------------------


def _project(rel: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(..., m, 3) offsets from the origin as (..., m, 2) frame coordinates.
    A stacked m x 3 @ 3 x 1 product runs the kernel `rel @ u` runs on one
    face: a vector dot for m = 1, a matrix-vector product (which rounds
    differently) for m > 1."""
    return np.stack([(rel @ u[..., None])[..., 0], (rel @ v[..., None])[..., 0]], axis=-1)


@dataclass(slots=True)
class FaceSetup:
    """One face's split, made by prepare_splits: fault, the (error class,
    message) of its first failing check, "{tri}" standing for the parent; or
    polygons, each (rows, ring2d, holes, holes2d): the outer and hole rings
    as rows of the point table and in the face's 2D frame. A face with no
    points is one polygon, its corner rows, with no 2D ring."""

    fault: tuple | None
    polygons: list


def prepare_splits(tris, seg_face, seg_ends, pt_face, pts, tol) -> tuple[np.ndarray, Iterator[FaceSetup]]:
    """Split many faces in one numpy pass, given as columns: segments with
    ends seg_ends (k, 2, 3) on face seg_face (k,) of tris, within tol, and
    boundary points pts (m, 3) on face pt_face (m,), which a neighbour's
    split puts on a shared edge and which keep that edge watertight. Chord
    tails that end inside bound no face and are pruned. Returns the point
    table the faces share: every face's corners (face f's are rows 3f to
    3f + 2), then the boundary points and the segment ends in the order
    given; and a generator of each face's setup in turn, so that only the
    face being split holds Python lists. A face's fault is zero area, no
    frame, a point outside it, a floating loop in no face, or faces that do
    not cover it. _project_points does the float work; _walk the walk.
    """
    tris = np.asarray(tris, dtype=np.float64).reshape(-1, 3, 3)
    nf = len(tris)
    seg_face, pt_face = np.asarray(seg_face, dtype=np.int64), np.asarray(pt_face, dtype=np.int64)
    bpts = np.asarray(pts, dtype=np.float64).reshape(-1, 1, 3)
    spts = np.asarray(seg_ends, dtype=np.float64).reshape(-1, 2, 3)
    nb, ns = np.bincount(pt_face, minlength=nf), np.bincount(seg_face, minlength=nf)
    table = np.concatenate([tris.reshape(-1, 3), bpts.reshape(-1, 3), spts.reshape(-1, 3)])
    zero, why, corners2, points = _project_points(tris, bpts, spts, pt_face, seg_face, tol)
    size = nb + 2 * ns
    faults = [(DegeneratePolygon, w) if w else None for w in why.tolist()]
    walked = np.nonzero((size > 0) & ~zero & (why == ""))[0]
    slots, polygons = [-1] * nf, None
    if len(walked):
        firsts = np.cumsum(size) - size
        walk_faults, polygons = _walk(walked, corners2[walked], firsts[walked], size[walked], nb[walked], points, tol)
        for slot, f in enumerate(walked.tolist()):
            faults[f], slots[f] = walk_faults[slot], slot

    def setups():
        for f, (zero_area, count) in enumerate(zip(zero.tolist(), size.tolist())):
            if zero_area:
                yield FaceSetup((DegenerateTriangle, "cannot split a zero-area triangle"), [])
            elif not count:
                yield FaceSetup(None, [([3 * f, 3 * f + 1, 3 * f + 2], None, [], [])])
            else:  # a face without a fault was walked
                yield FaceSetup(faults[f], [] if faults[f] else polygons(slots[f]))

    return table, setups()


def _project_points(tris, bpts, spts, bface, sface, tol):
    """The float work of the split: parent normals, frames, frame
    coordinates, edge snaps and containment. A face's frame has its origin
    at corner 0, its normal n is the corners' Newell normal turned towards
    the cross-product normal, u runs along the longest edge and v = n x u,
    so the corners stay CCW in 2D. Every product uses the numpy kernel the
    same expression runs on a single face, so each float equals the one a
    face-by-face computation gives.

    bface and sface name each boundary point's and segment's face. Returns
    whether each face has zero area, the reason its frame fails ("" if
    none), its corners in 2D, and the points of all faces, face by face
    (boundary points, then segment ends), as the columns _walk reads.
    """
    nf = len(tris)
    with np.errstate(divide="ignore", invalid="ignore"):
        normal = np.cross(tris[:, 1] - tris[:, 0], tris[:, 2] - tris[:, 0])
        nn = np.sqrt(row_dots(normal, normal))
        nxt = tris[:, [1, 2, 0]]
        terms = (tris - nxt)[..., [1, 2, 0]] * (tris + nxt)[..., [2, 0, 1]]
        n = terms[:, 0] + terms[:, 1] + terms[:, 2]
        newell = np.sqrt(row_dots(n, n))
        n = n / newell[:, None]
        n = np.where((row_dots(n, normal / nn[:, None]) < 0)[:, None], -n, n)
        edges = nxt - tris
        sq = edges * edges
        u = edges[np.arange(nf), np.argmax(np.sqrt(sq[..., 0] + sq[..., 1] + sq[..., 2]), axis=1)]
        u = u - row_dots(u, n)[:, None] * n
        un = np.sqrt(row_dots(u, u))
        u = u / un[:, None]
        v = np.cross(n, u)
        origin = tris[:, :1]
        corners2 = _project(tris - origin, u, v)
        pts2 = np.concatenate([
            _project(bpts - origin[bface], u[bface], v[bface]).reshape(-1, 2),
            _project(spts - origin[sface], u[sface], v[sface]).reshape(-1, 2),
        ])
        span = corners2.max(axis=1) - corners2.min(axis=1)
        diameter = np.sqrt(row_dots(span, span))
        snap = np.where(1e-12 * diameter > tol, 1e-12 * diameter, tol)

        # Per face, boundary points then segment ends, in the order given.
        order = np.argsort(np.concatenate([bface, np.repeat(sface, 2)]), kind="stable")
        pf, p2 = np.concatenate([bface, np.repeat(sface, 2)])[order], pts2[order]
        a = corners2[pf]
        ab = a[:, [1, 2, 0]] - a
        denom = row_dots(ab, ab)
        length = np.float_power(denom, 0.5)  # pow(), as the scalar ** 0.5
        t = row_dots(p2[:, None] - a, ab) / denom
        foot = a + t[..., None] * ab
        off = p2[:, None] - foot
        tl, sp = t * length, snap[pf, None]
        hit = (denom != 0.0) & ~(tl < -sp) & ~(tl > length + sp) & ~(np.hypot(off[..., 0], off[..., 1]) > sp)
        edge = np.where(hit.any(axis=1), hit.argmax(axis=1), -1)
        k = np.arange(len(pf)), np.maximum(edge, 0)
        pos = np.where((edge >= 0)[:, None], foot[k], p2)
        rel = pos[:, None] - a
        cross = ab[..., 0] * rel[..., 1] - ab[..., 1] * rel[..., 0]
        inside = ~(cross < -(snap * diameter)[pf, None]).any(axis=1)
    why = np.select([newell == 0.0, un == 0.0], ["zero-area polygon", "degenerate longest edge"], "")
    return nn == 0.0, why, corners2, (p2, pos, edge, np.clip(t[k], 0.0, 1.0), inside, 3 * nf + order)


def _rounds(length):
    """Round j of a lock-step pass over rows of the given lengths: the rows
    still running (length > j), longest first. A row takes part in as many
    rounds as its length, so the rounds cost the rows' total length, not
    the number of rows times the longest."""
    order = np.argsort(-length, kind="stable")
    stop = -length[order]
    for j in range(int(length.max(initial=0))):
        yield j, order[:np.searchsorted(stop, -j)]


def _weld(x, y, base, size, tol):
    """Each point joins the first node within tol, or starts one; the nodes
    are the corners, then the earlier points that started one, unsnapped.
    x and y hold every face's entries from its base on: 3 corners, then its
    size points. One round per point position, over the faces that have a
    point there, so a face with many points costs no other face a round.
    Returns each entry's node id, the nodes numbered in entry order over all
    faces, and whether the entry started its node."""
    tol2 = tol * tol
    # The scalar test (x - qx) ** 2 + (y - qy) ** 2 <= tol2 squares with
    # pow(), which differs from x * x in the last bit on a few inputs. x * x
    # only picks the pairs within twice the bound (or below 1e-300, where
    # subnormal squares round coarsely), and pow() decides among them.
    near = max(2.0 * tol2, 1e-300)
    starts = np.zeros(len(x), dtype=bool)
    starts[(base[:, None] + np.arange(3)).ravel()] = True
    joins = np.arange(len(x))
    for k, act in _rounds(size):
        q = base[act] + 3 + k
        prior = base[act, None] + np.arange(3 + k)
        dx, dy = x[q, None] - x[prior], y[q, None] - y[prior]
        r, c = np.nonzero((dx * dx + dy * dy <= near) & starts[prior])
        ok = np.float_power(dx[r, c], 2.0) + np.float_power(dy[r, c], 2.0) <= tol2
        hit = np.zeros(dx.shape, dtype=bool)
        hit[r[ok], c[ok]] = True
        found = hit.any(axis=1)
        joins[q[found]] = prior[found, hit[found].argmax(axis=1)]
        starts[q] = ~found
    return (np.cumsum(starts) - 1)[joins], starts


def _walk(walked, corners2, firsts, size, nb, points, tol):
    """The planar subdivisions of the walked faces, built and walked all at
    once. points holds every face's points in face order (boundary points,
    then segment ends) as columns: frame coordinates, snapped position,
    first boundary edge within the snap distance (-1 if none) with its
    clamped parameter, containment once snapped and point-table row; a
    walked face's points start at its entry of firsts. Returns each walked
    face's fault, and a function that makes the polygons of the k-th walked
    face, so that only the face being split holds Python lists. Only a face
    whose graph has more than one component runs Python code of its own
    here (_place_holes).
    """
    nw = len(walked)
    xy, row, face, a, b, outside = _subdivisions(walked, corners2, firsts, size, nb, points, tol)
    nodes, length, area = _cycles(xy, face, a, b, nw)
    first = np.cumsum(length) - length
    lead = nodes[first]  # each cycle's first node
    cface = face[lead]
    comp = min_labels(len(xy), a, b)
    live = np.zeros(len(xy), dtype=bool)
    live[a] = live[b] = True
    multi = np.bincount(face[live & (comp == np.arange(len(xy)))], minlength=nw) > 1
    multi &= ~outside  # such a face fails before its holes are placed

    # A one-component face's polygons are its positive cycles in order.
    pos = np.nonzero((area > 0) & ~multi[cface])[0]
    count = np.bincount(cface[pos], minlength=nw)
    pos_first = np.cumsum(count) - count
    total = np.zeros(nw)
    for j, act in _rounds(count):
        total[act] = total[act] + area[pos[pos_first[act] + j]]

    keep = np.nonzero((area > 0) | multi[cface])[0]
    klen = length[keep]
    kept = nodes[np.arange(klen.sum()) + np.repeat(first[keep] - (np.cumsum(klen) - klen), klen)]
    rows, ring2d = row[kept], xy[kept]
    cyc_end = np.cumsum(np.bincount(cface[keep], minlength=nw))
    node_end = np.concatenate([[0], np.cumsum(klen)])[cyc_end]
    lengths, cyc_end, node_end = klen.tolist(), cyc_end.tolist(), node_end.tolist()

    def cycles(k):
        """Walked face k's kept cycles as (rows, ring2d, [], []), in walk order."""
        c, n = (cyc_end[k - 1], node_end[k - 1]) if k else (0, 0)
        face_rows, face_xy = rows[n:node_end[k]].tolist(), ring2d[n:node_end[k]].tolist()
        out, s = [], 0
        for m in lengths[c:cyc_end[k]]:
            out.append((face_rows[s:s + m], face_xy[s:s + m], [], []))
            s += m
        return out

    placed = {}
    floating = np.zeros(nw, dtype=bool)
    for k in np.nonzero(multi)[0].tolist():
        mine = keep[cyc_end[k - 1] if k else 0:cyc_end[k]]
        outer = comp[np.searchsorted(face, k)]  # of corner 0, the face's first node
        got = _place_holes(cycles(k), area[mine].tolist(), comp[lead[mine]].tolist(), outer)
        if got is None:
            floating[k] = True
        else:
            placed[k], total[k] = got

    c, cn = corners2, corners2[:, [1, 2, 0]]
    terms = c[..., 0] * cn[..., 1] - cn[..., 0] * c[..., 1]
    tri_area = 0.5 * (0.0 + terms[:, 0] + terms[:, 1] + terms[:, 2])
    short = np.abs(total - tri_area) > 1e-6 * np.abs(tri_area)
    faults = [None] * nw
    for k in np.nonzero(outside | floating | short)[0].tolist():
        if outside[k]:
            faults[k] = (GeometryError, "intersection point outside triangle {tri}")
        elif floating[k]:
            faults[k] = (GeometryError, "floating loop not contained in any face")
        else:
            faults[k] = (GeometryError,
                         f"split faces cover {total[k]:.3e} of triangle area {tri_area[k]:.3e} (tri {{tri}})")
    return faults, lambda k: placed[k] if k in placed else cycles(k)


def _subdivisions(walked, corners2, firsts, size, nb, points, tol):
    """Nodes and edges of the walked faces' planar subdivisions. Node ids
    run face by face: the corners, then the points that started a node.
    Edges are the segments' node pairs and each triangle edge's chain
    through the nodes snapped onto it, (a, b) with a < b, sorted, with
    dangling tails pruned. Returns the nodes' 2D positions, point-table rows
    and faces, the edges, and whether a face has a node outside it."""
    pxy, ppos, pedge, pt, pinside, prow = points
    nw = len(walked)
    per = 3 + size
    base = np.cumsum(per) - per
    owner = np.repeat(np.arange(nw), per)  # each entry's face: its corners, then its points
    local = np.arange(len(owner)) - base[owner]
    corner_at, point_at = np.nonzero(local < 3)[0], np.nonzero(local >= 3)[0]
    p = firsts[owner[point_at]] + local[point_at] - 3
    x, y = np.empty(len(owner)), np.empty(len(owner))
    x[corner_at], y[corner_at] = corners2[..., 0].ravel(), corners2[..., 1].ravel()
    x[point_at], y[point_at] = pxy[p, 0], pxy[p, 1]
    node, starts = _weld(x, y, base, size, tol)

    n = int(starts.sum())
    face = owner[starts]
    corner = node[corner_at]
    new = starts[point_at]
    sw, sp, snode = owner[point_at[new]], p[new], node[point_at[new]]
    xy = np.empty((n, 2))
    xy[corner], xy[snode] = corners2.reshape(-1, 2), ppos[sp]
    row = np.empty(n, dtype=np.int64)
    row[corner], row[snode] = (3 * walked[:, None] + np.arange(3)).ravel(), prow[sp]
    boundary = np.ones(n, dtype=bool)
    boundary[snode] = pedge[sp] >= 0
    outside = np.bincount(sw[~pinside[sp]], minlength=nw) > 0

    # Segment edges, then per triangle edge e the chain: corner e, the nodes
    # snapped onto it by (t, id), corner e + 1.
    seg = local[point_at] - 3 - nb[owner[point_at]]
    end0 = point_at[(seg >= 0) & (seg % 2 == 0)]
    on = pedge[sp] >= 0
    chain = np.concatenate([np.arange(3 * nw), np.arange(3 * nw), 3 * sw[on] + pedge[sp[on]]])
    cnode = np.concatenate([corner, corner.reshape(-1, 3)[:, [1, 2, 0]].ravel(), snode[on]])
    key = np.concatenate([np.full(3 * nw, -1.0), np.full(3 * nw, 2.0), pt[sp[on]]])
    o = np.lexsort((cnode, key, chain))
    link = chain[o][1:] == chain[o][:-1]
    a = np.concatenate([node[end0], cnode[o][:-1][link]])
    b = np.concatenate([node[end0 + 1], cnode[o][1:][link]])
    a, b = a[a != b], b[a != b]
    pair = np.minimum(a, b) * n + np.maximum(a, b)
    order, new = sort_runs(pair)
    pair = pair[order[new]]
    a, b = pair // n, pair % n

    # Prune dangling tails: interior nodes of degree one, until none is left.
    while True:
        tip = (np.bincount(a, minlength=n) + np.bincount(b, minlength=n) == 1) & ~boundary
        if not tip.any():
            return xy, row, face, a, b, outside
        keep = ~(tip[a] | tip[b])
        a, b = a[keep], b[keep]


def _turns(xy, a, b):
    """The directed edge that follows each of a -> b, then b -> a, on its
    cycle: around each node the outgoing edges are sorted by angle, then by
    neighbour, and after u -> v comes the edge before v -> u. Only a node
    of degree three or more needs the angle, taken with math.atan2
    (np.arctan2 differs from it in the last bit)."""
    ne = len(a)
    i = np.arange(2 * ne)
    tail, head = np.concatenate([a, b]), np.concatenate([b, a])
    angle = np.zeros(2 * ne)
    j = np.nonzero(np.bincount(tail)[tail] > 2)[0]
    d = xy[head[j]] - xy[tail[j]]
    angle[j] = list(map(math.atan2, d[:, 1].tolist(), d[:, 0].tolist()))
    angle += 0.0  # -0.0 to 0.0, which it ties with
    srt = np.lexsort((head, angle, tail))
    lo = np.searchsorted(tail[srt], tail[srt])
    hi = np.searchsorted(tail[srt], tail[srt], side="right")
    rank = np.empty(2 * ne, dtype=np.int64)
    rank[srt] = i
    before = srt[np.where(rank > lo[rank], rank - 1, hi[rank] - 1)]  # v -> w: v's next edge clockwise
    return before[np.concatenate([i[ne:], i[:ne]])]


def _cycles(xy, face, a, b, nw):
    """The face cycles of the subdivisions with edges (a, b): their nodes,
    cycle after cycle, with their lengths and signed areas. A cycle follows
    _turns and starts at its first directed edge in the order: its face's
    (a < b) edges sorted, then the same edges reversed. Cycles come in that
    order, face by face."""
    ne = len(a)
    i = np.arange(2 * ne)
    tail, head, nxt = np.concatenate([a, b]), np.concatenate([b, a]), _turns(xy, a, b)

    # A cycle's label is the smallest place in the start order among its
    # edges, spread by pointer doubling. Walking from the labels in lock
    # step gives each cycle's nodes.
    ef = face[a]
    e0 = np.searchsorted(ef, np.arange(nw))
    k = i[:ne] - e0[ef]
    place = np.concatenate([2 * e0[ef] + k, 2 * e0[ef] + np.bincount(ef, minlength=nw)[ef] + k])
    label, jump = place, nxt
    while True:
        low = np.minimum(label, label[jump])
        if np.array_equal(low, label):
            break
        label, jump = low, jump[jump]
    order, new = sort_runs(label)
    run = np.flatnonzero(new)
    starts, length = label[order[run]], np.diff(run, append=len(label))
    at = np.empty(2 * ne, dtype=np.int64)
    at[place] = i
    cur = at[starts]
    first = np.cumsum(length) - length

    # Signed areas, added term by term in ring order, as a scalar shoelace
    # sum adds them.
    nodes = np.empty(2 * ne, dtype=np.int64)
    s = np.zeros(len(cur))
    for j, act in _rounds(length):
        e = cur[act]
        u, v = tail[e], head[e]
        nodes[first[act] + j] = u
        s[act] = s[act] + (xy[u, 0] * xy[v, 1] - xy[v, 0] * xy[u, 1])
        cur[act] = nxt[e]
    return nodes, length, 0.5 * s


def _place_holes(cycles, areas, comps, outer):
    """Polygons and their area total of a split whose graph has more than
    one component, or None when a floating loop lies in no face. cycles
    are its (rows, ring2d, [], []) in walk order, with their signed areas
    and the components of their first nodes; outer is the boundary's
    component. Every positive cycle is a face. The contour of a floating
    component, its cycles of area <= 0, becomes a hole of the smallest face
    of another component that contains its first node."""
    pos = [k for k, area in enumerate(areas) if area > 0]
    holes = {k: [] for k in pos}
    for k, area in enumerate(areas):
        if area > 0 or comps[k] == outer:
            continue
        best, best_area = None, math.inf
        for p in pos:
            if comps[p] != comps[k] and areas[p] < best_area and _point_in_ring(cycles[k][1][0], cycles[p][1]):
                best, best_area = p, areas[p]
        if best is None:
            return None
        holes[best].append(k)
    total = 0.0
    for p in pos:
        area = areas[p]
        for h in holes[p]:
            area += areas[h]
        total += area
    polys = [(cycles[p][0], cycles[p][1], [cycles[h][0] for h in holes[p]], [cycles[h][1] for h in holes[p]])
             for p in pos]
    return polys, total


def _point_in_ring(p, ring):
    x, y = p
    inside = False
    n = len(ring)
    for i in range(n):
        x1, y1 = ring[i]
        x2, y2 = ring[(i + 1) % n]
        if (y1 > y) != (y2 > y):
            xc = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
            if x < xc:
                inside = not inside
    return inside


def split_and_triangulate(setup: FaceSetup, parent_tri: int = -1) -> list[tuple[int, int, int]]:
    """One face's children, as row triples of the point table prepare_splits
    returned with setup: each polygon ear-clipped. A face left whole, one
    hole-free polygon of three rows, is its rows in ascending order. Raises
    the face's fault, or DegeneratePolygon or NotSimple from ear clipping,
    naming parent_tri."""
    if setup.fault:
        error, message = setup.fault
        raise error(message.format(tri=parent_tri))
    polys = setup.polygons
    if len(polys) == 1 and not polys[0][2] and len(polys[0][0]) == 3:
        return [tuple(sorted(polys[0][0]))]
    children = []
    for rows, ring2d, holes, holes2d in polys:
        try:
            tris = ear_clip(ring2d, holes2d)
        except (DegeneratePolygon, NotSimple) as err:
            raise type(err)(f"{err} (tri {parent_tri})") from err
        rows = [r for ring in (rows, *holes) for r in ring]
        children += [(rows[i], rows[j], rows[k]) for i, j, k in tris]
    return children
