"""Split intersected triangles along their segments and re-triangulate.

Splitting builds the planar subdivision induced by the chords inside the
triangle (boundary pieces + segment edges) and extracts its faces, which is
equivalent to dividing the triangle loop by loop but also copes with chords
meeting at junction vertices and with nested closed loops. Faces are then
ear-clipped; closed loops floating inside a face become holes and are joined
to the outer ring by bridge edges before clipping.

The float work (frames, 2D coordinates, edge snaps, containment) is done for
all split faces of a surface in one numpy pass, prepare_splits; the walk over
one face then runs on Python floats and ints only. Dot products, norms and
hypot stay in numpy, where they round as the same expression on one face did.

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
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Iterator

import numpy as np

from .errors import DegeneratePolygon, DegenerateTriangle, GeometryError, NotSimple
from .geometry import row_dots


@dataclass
class SplitPolygon:
    """One face of a split triangle: 3D outer ring plus optional hole rings,
    and the same rings in the parent triangle's CCW local frame."""

    vertices: np.ndarray
    parent_tri: int = -1
    holes: list = field(default_factory=list)
    ring2d: np.ndarray | None = None
    holes2d: list = field(default_factory=list)


def shoelace(ring2d) -> float:
    """Signed area of a ring of (x, y) points, summed in ring order."""
    pts = ring2d.tolist() if isinstance(ring2d, np.ndarray) else list(ring2d)
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
    ring = np.asarray(loop2d, dtype=np.float64)
    if len(ring) < 3:
        raise DegeneratePolygon("polygon needs at least 3 vertices")

    pts = ring.tolist()
    outer = _linked_list(pts, 0, clockwise=True)
    if outer is None or outer.next is outer.prev:
        raise DegeneratePolygon("polygon degenerates to fewer than 3 points")
    holes = [np.asarray(h, dtype=np.float64).tolist() for h in holes2d]
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
    """The float work of one face's split, made by prepare_splits. Points
    are the boundary points, then both ends of each segment; each has frame
    coordinates, its first boundary edge within the snap distance (-1 if
    none) with the clamped edge parameter and foot, and whether it lies in
    the triangle once snapped. rows index pts3 for the corners and points."""

    zero_area: bool
    fault: str | None
    corners2: list
    points2: list
    edge: list
    t: list
    foot: list
    inside: list
    rows: list
    pts3: np.ndarray


def prepare_splits(tris, segments, boundary_points, tol) -> Iterator[FaceSetup]:
    """The float work of splitting many faces, as one numpy pass: parent
    normals, frames, frame coordinates, edge snaps and containment. Yields
    each face's setup in turn.

    A face's frame has its origin at corner 0, its normal n is the corners'
    Newell normal turned towards the cross-product normal, u runs along the
    longest edge and v = n x u, so the corners stay CCW in 2D. Every product
    uses the numpy kernel the same expression runs on a single face, so each
    float equals the one a face-by-face computation gives.
    """
    tris = np.asarray(tris, dtype=np.float64).reshape(-1, 3, 3)
    nf = len(tris)
    nb = [len(pts) for pts in boundary_points]
    ns = [len(segs) for segs in segments]
    bpts = np.asarray([p for pts in boundary_points for p in pts], dtype=np.float64).reshape(-1, 1, 3)
    spts = np.asarray([pq for segs in segments for pq in segs], dtype=np.float64).reshape(-1, 2, 3)
    bface, sface = np.repeat(np.arange(nf), nb), np.repeat(np.arange(nf), ns)
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
    pts3 = np.concatenate([tris.reshape(-1, 3), bpts.reshape(-1, 3), spts.reshape(-1, 3)])
    fault = np.select([newell == 0.0, un == 0.0], ["zero-area polygon", "degenerate longest edge"], "")
    per_point = (p2, edge, np.clip(t[k], 0.0, 1.0), pos, inside, 3 * nf + order)
    ends = np.cumsum([0] + [b + 2 * s for b, s in zip(nb, ns)]).tolist()

    def setups():  # a face's lists are made when it is reached, and dropped after it
        for f, (zero, why) in enumerate(zip((nn == 0.0).tolist(), fault.tolist())):
            pp, ee, tt, ff, ii, rr = (x[ends[f]:ends[f + 1]].tolist() for x in per_point)
            rows = [3 * f, 3 * f + 1, 3 * f + 2] + rr
            yield FaceSetup(zero, why or None, corners2[f].tolist(), pp, ee, tt, ff, ii, rows, pts3)

    return setups()


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


def split_triangle(
    tri_coords, segments, tol, parent_tri: int = -1, boundary_points=(), setup: FaceSetup | None = None
) -> list[SplitPolygon]:
    """Partition a triangle into faces bounded by its intersection chords.

    segments is a list of (p0, p1) 3D endpoint pairs lying on the triangle
    (within tol). boundary_points are extra vertices to embed on the
    triangle's edges (subdivision points propagated from a neighbour's
    split, so shared edges stay watertight). setup is the face's entry of
    prepare_splits over these arguments; without it the face is prepared
    alone. Without segments the triangle itself is the single face. Dangling
    chord tails (chains ending strictly inside) do not bound any face and
    are pruned. Raises GeometryError when a segment leaves the triangle or
    the extracted faces fail to cover its area.
    """
    if setup is None:
        setup = next(prepare_splits([tri_coords], [segments], [boundary_points], tol))
    elif len(setup.points2) != len(boundary_points) + 2 * len(segments):
        raise GeometryError(f"setup does not match the points of triangle {parent_tri}")
    if setup.zero_area:
        raise DegenerateTriangle("cannot split a zero-area triangle")
    if not len(segments) and not len(boundary_points):
        return [SplitPolygon(np.asarray(tri_coords, dtype=np.float64).reshape(3, 3).copy(), parent_tri)]
    if setup.fault:
        raise DegeneratePolygon(setup.fault)

    # Weld: each point joins the first node within tol, or starts a node.
    tol2 = tol * tol
    nodes2 = list(setup.corners2)
    made = []  # the point that started each node past the corners
    ids = []
    for k, (x, y) in enumerate(setup.points2):
        for nid, (qx, qy) in enumerate(nodes2):
            if (x - qx) ** 2 + (y - qy) ** 2 <= tol2:
                break
        else:
            nid = len(nodes2)
            nodes2.append((x, y))
            made.append(k)
        ids.append(nid)
    nb = len(boundary_points)
    edges = {(min(a, b), max(a, b)) for a, b in zip(ids[nb::2], ids[nb + 1::2]) if a != b}

    # Snap nodes onto the boundary edges they touch so collinearity tests in
    # the ear clipper see exact geometry; keep original 3D coordinates.
    on_edge: tuple[list, list, list] = ([], [], [])
    for nid, k in enumerate(made, 3):
        if not setup.inside[k]:
            raise GeometryError(f"intersection point outside triangle {parent_tri}")
        if setup.edge[k] >= 0:
            nodes2[nid] = setup.foot[k]
            on_edge[setup.edge[k]].append((setup.t[k], nid))
    for e in range(3):
        chain = [e] + [nid for _, nid in sorted(on_edge[e])] + [(e + 1) % 3]
        edges.update((min(a, b), max(a, b)) for a, b in zip(chain, chain[1:]))

    adj: dict[int, list[int]] = {}
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        adj.setdefault(b, []).append(a)
    # Prune dangling chord tails: interior nodes of degree one.
    boundary = {0, 1, 2}.union(*([nid for _, nid in lst] for lst in on_edge))
    tips = [v for v, nbrs in adj.items() if len(nbrs) == 1 and v not in boundary]
    while tips:
        v = tips.pop()
        for w in adj.pop(v):
            adj[w].remove(v)
            if len(adj[w]) == 1 and w not in boundary:
                tips.append(w)

    polys = []
    total = 0.0
    rows = setup.rows[:3] + [setup.rows[3 + k] for k in made]
    for face in _extract_faces(nodes2, adj):
        area = face[0][1]
        for _, hole_area in face[1:]:
            area += hole_area
        total += area
        ring3, *holes3 = (setup.pts3[[rows[i] for i in cyc]] for cyc, _ in face)
        ring2d, *holes2d = (np.array([nodes2[i] for i in cyc]) for cyc, _ in face)
        polys.append(SplitPolygon(ring3, parent_tri, holes3, ring2d=ring2d, holes2d=holes2d))
    area_tri = shoelace(setup.corners2)
    if abs(total - area_tri) > 1e-6 * abs(area_tri):
        raise GeometryError(
            f"split faces cover {total:.3e} of triangle area {area_tri:.3e} (tri {parent_tri})"
        )
    return polys


def _extract_faces(nodes2, adj):
    """Faces of the planar subdivision given as node -> neighbours, each a
    list of (cycle, signed area) pairs: the outer cycle, then its holes.

    A cycle leaves each node by the clockwise neighbour of the edge it came
    in on. At a node of degree two or less that needs no angle sort.
    """
    turn = {}
    for v, ring in adj.items():
        if len(ring) > 2:
            x, y = nodes2[v]
            ring = sorted(ring, key=lambda w: (math.atan2(nodes2[w][1] - y, nodes2[w][0] - x), w))
        for k, w in enumerate(ring):
            turn[w, v] = ring[k - 1]

    edges = sorted((a, b) for a, ring in adj.items() for b in ring if a < b)
    cycles = []
    for u, v in edges + [(b, a) for a, b in edges]:
        cyc = []
        w = turn.pop((u, v), None)
        while w is not None:
            cyc.append(u)
            u, v = v, w
            w = turn.pop((u, v), None)
        if cyc:
            cycles.append((cyc, shoelace([nodes2[i] for i in cyc])))

    def reach(root):
        seen, stack = {root}, [root]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return seen

    pos = [c for c in cycles if c[1] > 0]
    faces = [[c] for c in pos]
    if len(reach(0)) == len(adj):
        return faces  # one component: every other cycle is its outer contour
    comp = {}
    for v in adj:
        if v not in comp:
            comp.update(dict.fromkeys(reach(v), v))
    for cyc, area in cycles:
        if area > 0 or comp[cyc[0]] == comp[0]:
            continue  # a face, or the unbounded contour of the boundary component
        probe = nodes2[cyc[0]]
        best = None
        best_area = math.inf
        for fi, (pcyc, parea) in enumerate(pos):
            if comp[pcyc[0]] == comp[cyc[0]]:
                continue
            if parea < best_area and _point_in_ring(probe, [nodes2[i] for i in pcyc]):
                best = fi
                best_area = parea
        if best is None:
            raise GeometryError("floating loop not contained in any face")
        faces[best].append((cyc, area))
    return faces


def triangulate_polygon(poly: SplitPolygon) -> np.ndarray:
    """Ear-clip one split face, as made by split_triangle, back into 3D
    triangles, (k, 3, 3)."""
    pts3 = np.concatenate([poly.vertices, *poly.holes], axis=0) if poly.holes else poly.vertices
    try:
        tris = ear_clip(poly.ring2d, poly.holes2d)
    except DegeneratePolygon as err:
        raise DegeneratePolygon(f"{err} (tri {poly.parent_tri})") from err
    return pts3[np.asarray(tris, dtype=np.intp).reshape(-1, 3)]


def split_and_triangulate(
    tri_coords, segments, tol, parent_tri: int = -1, boundary_points=(), setup: FaceSetup | None = None
) -> np.ndarray:
    """Split one triangle and return its replacement triangles as coordinates."""
    polys = split_triangle(tri_coords, segments, tol, parent_tri, boundary_points, setup)
    if len(polys) == 1 and not polys[0].holes and len(polys[0].vertices) == 3:
        return np.asarray(tri_coords, dtype=np.float64).reshape(1, 3, 3)
    chunks = [triangulate_polygon(p) for p in polys]
    return np.concatenate(chunks, axis=0)
