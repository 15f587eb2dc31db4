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
minus the z-order acceleration and minus collinear-vertex filtering: points
inserted on shared triangle edges must survive into the output or the
neighbouring triangle would see a T-junction. It also has none of earcut's
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
from itertools import accumulate
from typing import Iterator

import numpy as np

from .errors import DegeneratePolygon, DegenerateTriangle, GeometryError, NotSimple
from .geometry import row_dots
from .halfedge import min_labels


def _pairs(ring) -> list:
    """A ring of (x, y) points as a list; an array's become Python floats."""
    return ring.tolist() if hasattr(ring, "tolist") else list(ring)


def shoelace(ring2d) -> float:
    """Signed area of a ring of (x, y) points, summed in ring order."""
    pts = _pairs(ring2d)
    s = 0.0
    for (x, y), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        s += x * y1 - x1 * y
    return 0.5 * s


# ---------------------------------------------------------------------------
# Ear clipping (earcut-style linked list, holes via bridges)
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("i", "x", "y", "prev", "next")

    def __init__(self, i, x, y):
        self.i = i
        self.x = x
        self.y = y
        self.prev = None
        self.next = None


def _area(p, q, r):
    # Positive for clockwise turns in the math convention used throughout.
    return (q.y - p.y) * (r.x - q.x) - (q.x - p.x) * (r.y - q.y)


def _equals(p1, p2):
    return p1.x == p2.x and p1.y == p2.y


def _point_in_triangle(ax, ay, bx, by, cx, cy, px, py, eps=0.0):
    return (
        (cx - px) * (ay - py) - (ax - px) * (cy - py) >= -eps
        and (ax - px) * (by - py) - (bx - px) * (ay - py) >= -eps
        and (bx - px) * (cy - py) - (cx - px) * (by - py) >= -eps
    )


def _locally_inside(a, b):
    if _area(a.prev, a, a.next) < 0:
        return _area(a, b, a.next) >= 0 and _area(a, a.prev, b) >= 0
    return _area(a, b, a.prev) < 0 or _area(a, a.next, b) < 0


def _sector_contains_sector(m, p):
    return _area(m.prev, m, p.prev) < 0 and _area(p.next, m, m.next) < 0


def _split_ring(a, b):
    a2 = _Node(a.i, a.x, a.y)
    b2 = _Node(b.i, b.x, b.y)
    an, bp = a.next, b.prev
    a.next = b
    b.prev = a
    a2.next = an
    an.prev = a2
    b2.next = a2
    a2.prev = b2
    bp.next = b2
    b2.prev = bp


def _remove_node(p):
    p.next.prev = p.prev
    p.prev.next = p.next


def _insert_node(i, x, y, last):
    p = _Node(i, x, y)
    if last is None:
        p.prev = p
        p.next = p
    else:
        p.next = last.next
        p.prev = last
        last.next.prev = p
        last.next = p
    return p


def _linked_list(coords, index_offset, clockwise):
    """Ring as circular list; orientation forced, exact duplicates dropped.

    clockwise=True keeps rings with positive shoelace forward (the earcut
    convention: outer rings positive, holes negative).
    """
    sa = shoelace(coords)
    last = None
    order = range(len(coords)) if (sa > 0) == clockwise else range(len(coords) - 1, -1, -1)
    for k in order:
        last = _insert_node(index_offset + k, coords[k][0], coords[k][1], last)
    if last is not None and _equals(last, last.next):
        nxt = last.next
        _remove_node(last)
        last = nxt if nxt is not last else None
    # drop remaining coincident neighbours, keep collinear vertices
    if last is not None:
        p = last
        while True:
            again = False
            if _equals(p, p.next) and p.next is not p:
                if p.next is last:  # the walk ends at last: move it to the node it merges into
                    last = p
                _remove_node(p.next)
                again = True
            if not again:
                p = p.next
                if p is last:
                    break
    return last


def _get_leftmost(start):
    p = start
    leftmost = start
    while True:
        if p.x < leftmost.x or (p.x == leftmost.x and p.y < leftmost.y):
            leftmost = p
        p = p.next
        if p is start:
            break
    return leftmost


def _find_hole_bridge(hole, outer):
    p = outer
    hx, hy = hole.x, hole.y
    qx = -math.inf
    m = None
    while True:
        if hy <= p.y and hy >= p.next.y and p.next.y != p.y:
            x = p.x + (hy - p.y) * (p.next.x - p.x) / (p.next.y - p.y)
            if x <= hx and x > qx:
                qx = x
                m = p if p.x < p.next.x else p.next
                if x == hx:
                    return m
        p = p.next
        if p is outer:
            break
    if m is None:
        return None
    stop = m
    mx, my = m.x, m.y
    tan_min = math.inf
    p = m
    while True:
        if hx >= p.x >= mx and hx != p.x and _point_in_triangle(
            hx if hy < my else qx, hy, mx, my, qx if hy < my else hx, hy, p.x, p.y
        ):
            tan = abs(hy - p.y) / (hx - p.x)
            if _locally_inside(p, hole) and (
                tan < tan_min
                or (tan == tan_min and (p.x > m.x or (p.x == m.x and _sector_contains_sector(m, p))))
            ):
                m = p
                tan_min = tan
        p = p.next
        if p is stop:
            break
    return m


def _eliminate_holes(outer, hole_rings, offsets):
    queue = []
    for ring, off in zip(hole_rings, offsets):
        lst = _linked_list(ring, off, clockwise=False)
        if lst is None:
            continue
        queue.append(_get_leftmost(lst))
    queue.sort(key=lambda n: (n.x, n.y))
    for hole in queue:
        bridge = _find_hole_bridge(hole, outer)
        if bridge is None:
            raise NotSimple("no visible bridge from hole to outer ring")
        _split_ring(bridge, hole)


def _is_ear(ear, eps, exact=False):
    if exact:
        eps = 0.0
    a, b, c = ear.prev, ear, ear.next
    if _area(a, b, c) >= -eps:
        return False  # reflex or straight tip (within noise)
    p = c.next
    while p is not a:
        # A copy of a corner, as a hole bridge leaves, blocks only the noisy test.
        copy = exact and (_equals(p, a) or _equals(p, b) or _equals(p, c))
        if not copy and _point_in_triangle(a.x, a.y, b.x, b.y, c.x, c.y, p.x, p.y, eps) and _area(
            p.prev, p, p.next
        ) >= -eps:
            return False
        p = p.next
    return True


def _earcut_linked(ear, triangles, eps):
    """Clip ears until two nodes are left. A cycle without an ear is
    repeated once with exact tests: a hole bridge duplicates its two ends,
    and a vertex within eps of a bridge can block every ear near it. An
    exact cycle without an ear raises."""
    stop = ear
    exact = False
    while ear.prev is not ear.next:
        prev_node = ear.prev
        next_node = ear.next
        if _is_ear(ear, eps, exact):
            triangles.append((prev_node.i, ear.i, next_node.i))
            _remove_node(ear)
            ear = stop = next_node.next
            continue
        ear = next_node
        if ear is stop:
            if exact:
                raise DegeneratePolygon("no ear left to clip: polygon is not weakly simple")
            exact = True


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

    outer = _linked_list(pts, 0, clockwise=True)
    if outer is None or outer.next is outer.prev:
        raise DegeneratePolygon("polygon degenerates to fewer than 3 points")
    holes = [_pairs(h) for h in holes2d]
    if holes:
        _eliminate_holes(outer, holes, accumulate([len(pts)] + [len(h) for h in holes]))

    xs, ys = zip(*pts, *(p for h in holes for p in h))
    eps = 1e-12 * ((max(xs) - min(xs)) ** 2 + (max(ys) - min(ys)) ** 2)

    triangles: list[tuple[int, int, int]] = []
    _earcut_linked(outer, triangles, eps)
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
    pair = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
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
    starts, length = np.unique(label, return_counts=True)
    at = np.empty(2 * ne, dtype=np.int64)
    at[place] = i
    cur = at[starts]
    first = np.cumsum(length) - length

    # Signed areas, added term by term in ring order, as the scalar
    # shoelace adds them.
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
    the face's fault, or DegeneratePolygon from ear clipping, naming
    parent_tri."""
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
        except DegeneratePolygon as err:
            raise DegeneratePolygon(f"{err} (tri {parent_tri})") from err
        rows = [r for ring in (rows, *holes) for r in ring]
        children += [(rows[i], rows[j], rows[k]) for i, j, k in tris]
    return children
