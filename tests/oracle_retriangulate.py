"""The splitter as it was before the ear clipper lost its fallback passes and
the local frame was built from the parent normal: a verbatim copy of the old
meshbool.retriangulate, kept as the differential oracle for the new one.

Its ear clipper retries a failed pass, cures local self-intersections and
splits the ring along a valid diagonal; its frame comes from the Newell
normal of the triangle, flipped to the parent side.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from meshbool.errors import DegeneratePolygon, DegenerateTriangle, GeometryError, NotSimple


@dataclass
class LocalFrame:
    origin: np.ndarray
    u: np.ndarray
    v: np.ndarray
    n: np.ndarray

    def to_2d(self, pts: np.ndarray) -> np.ndarray:
        rel = np.asarray(pts, dtype=np.float64) - self.origin
        return np.stack([rel @ self.u, rel @ self.v], axis=-1)


@dataclass
class SplitPolygon:
    """One face of a split triangle: 3D outer ring plus optional hole rings,
    and the same rings in the parent triangle's CCW local frame."""

    vertices: np.ndarray
    parent_tri: int = -1
    normal: np.ndarray | None = None
    holes: list = field(default_factory=list)
    ring2d: np.ndarray | None = None
    holes2d: list = field(default_factory=list)


def newell_normal(ring: np.ndarray) -> np.ndarray:
    """Plane normal tolerant of slight non-coplanarity."""
    ring = np.asarray(ring, dtype=np.float64)
    nxt = np.roll(ring, -1, axis=0)
    n = np.zeros(3)
    n[0] = np.sum((ring[:, 1] - nxt[:, 1]) * (ring[:, 2] + nxt[:, 2]))
    n[1] = np.sum((ring[:, 2] - nxt[:, 2]) * (ring[:, 0] + nxt[:, 0]))
    n[2] = np.sum((ring[:, 0] - nxt[:, 0]) * (ring[:, 1] + nxt[:, 1]))
    return n


def shoelace(ring2d: np.ndarray) -> float:
    r = np.asarray(ring2d, dtype=np.float64)
    x, y = r[:, 0], r[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def make_frame(ring: np.ndarray) -> LocalFrame:
    ring = np.asarray(ring, dtype=np.float64)
    n = newell_normal(ring)
    nn = np.linalg.norm(n)
    if nn == 0.0:
        raise DegeneratePolygon("zero-area polygon")
    n = n / nn
    edges = np.roll(ring, -1, axis=0) - ring
    u = edges[int(np.argmax(np.linalg.norm(edges, axis=1)))]
    u = u - (u @ n) * n
    un = np.linalg.norm(u)
    if un == 0.0:
        raise DegeneratePolygon("degenerate longest edge")
    u = u / un
    return LocalFrame(ring[0].copy(), u, np.cross(n, u), n)


# ---------------------------------------------------------------------------
# Ear clipping (earcut-style linked list, holes via bridges)
# ---------------------------------------------------------------------------


class _Node:
    __slots__ = ("i", "x", "y", "prev", "next", "steiner")

    def __init__(self, i, x, y):
        self.i = i
        self.x = x
        self.y = y
        self.prev = None
        self.next = None
        self.steiner = False


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


def _sign(num):
    return 1 if num > 0 else (-1 if num < 0 else 0)


def _on_segment(p, q, r):
    return (
        min(p.x, r.x) <= q.x <= max(p.x, r.x)
        and min(p.y, r.y) <= q.y <= max(p.y, r.y)
    )


def _intersects(p1, q1, p2, q2):
    o1 = _sign(_area(p1, q1, p2))
    o2 = _sign(_area(p1, q1, q2))
    o3 = _sign(_area(p2, q2, p1))
    o4 = _sign(_area(p2, q2, q1))
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, p2, q1):
        return True
    if o2 == 0 and _on_segment(p1, q2, q1):
        return True
    if o3 == 0 and _on_segment(p2, p1, q2):
        return True
    if o4 == 0 and _on_segment(p2, q1, q2):
        return True
    return False


def _intersects_polygon(a, b):
    p = a
    while True:
        if (
            p.i != a.i
            and p.next.i != a.i
            and p.i != b.i
            and p.next.i != b.i
            and _intersects(p, p.next, a, b)
        ):
            return True
        p = p.next
        if p is a:
            break
    return False


def _locally_inside(a, b):
    if _area(a.prev, a, a.next) < 0:
        return _area(a, b, a.next) >= 0 and _area(a, a.prev, b) >= 0
    return _area(a, b, a.prev) < 0 or _area(a, a.next, b) < 0


def _middle_inside(a, b):
    p = a
    inside = False
    px = (a.x + b.x) / 2
    py = (a.y + b.y) / 2
    while True:
        if ((p.y > py) != (p.next.y > py)) and p.next.y != p.y and (
            px < (p.next.x - p.x) * (py - p.y) / (p.next.y - p.y) + p.x
        ):
            inside = not inside
        p = p.next
        if p is a:
            break
    return inside


def _sector_contains_sector(m, p):
    return _area(m.prev, m, p.prev) < 0 and _area(p.next, m, m.next) < 0


def _is_valid_diagonal(a, b):
    return (
        a.next.i != b.i
        and a.prev.i != b.i
        and not _intersects_polygon(a, b)
        and (
            _locally_inside(a, b)
            and _locally_inside(b, a)
            and _middle_inside(a, b)
            and (_area(a.prev, a, b.prev) or _area(a, b.prev, b))
            or _equals(a, b)
            and _area(a.prev, a, a.next) > 0
            and _area(b.prev, b, b.next) > 0
        )
    )


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
    return b2


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
        last = _insert_node(index_offset + k, float(coords[k][0]), float(coords[k][1]), last)
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
        if lst is lst.next:
            lst.steiner = True
        queue.append(_get_leftmost(lst))
    queue.sort(key=lambda n: (n.x, n.y))
    for hole in queue:
        bridge = _find_hole_bridge(hole, outer)
        if bridge is None:
            raise NotSimple("no visible bridge from hole to outer ring")
        _split_ring(bridge, hole)
    return outer


def _cure_local_intersections(start, triangles):
    p = start
    while True:
        a = p.prev
        b = p.next.next
        if (
            not _equals(a, b)
            and _intersects(a, p, p.next, b)
            and _locally_inside(a, b)
            and _locally_inside(b, a)
        ):
            triangles.append((a.i, p.i, b.i))
            _remove_node(p)
            _remove_node(p.next)
            p = start = b
        p = p.next
        if p is start:
            break
    return p


def _is_ear(ear, eps):
    a, b, c = ear.prev, ear, ear.next
    if _area(a, b, c) >= -eps:
        return False  # reflex or straight tip (within noise)
    p = c.next
    while p is not a:
        if _point_in_triangle(a.x, a.y, b.x, b.y, c.x, c.y, p.x, p.y, eps) and _area(
            p.prev, p, p.next
        ) >= -eps:
            return False
        p = p.next
    return True


def _earcut_linked(ear, triangles, eps, pass_num=0):
    if ear is None:
        return
    stop = ear
    while ear.prev is not ear.next:
        prev_node = ear.prev
        next_node = ear.next
        if _is_ear(ear, eps):
            triangles.append((prev_node.i, ear.i, next_node.i))
            _remove_node(ear)
            ear = next_node.next
            stop = next_node.next
            continue
        ear = next_node
        if ear is stop:
            if pass_num == 0:
                _earcut_linked(ear, triangles, eps, 1)
            elif pass_num == 1:
                ear = _cure_local_intersections(ear, triangles)
                _earcut_linked(ear, triangles, eps, 2)
            elif pass_num == 2:
                _split_earcut(ear, triangles, eps)
            break


def _split_earcut(start, triangles, eps):
    a = start
    while True:
        b = a.next.next
        while b is not a.prev:
            if a.i != b.i and _is_valid_diagonal(a, b):
                c = _split_ring(a, b)
                _earcut_linked(a, triangles, eps)
                _earcut_linked(c, triangles, eps)
                return
            b = b.next
        a = a.next
        if a is start:
            break


def _ring_is_simple(ring):
    """Reject strictly crossing edges; shared endpoints are allowed."""

    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    n = len(ring)
    for i in range(n):
        a1 = ring[i]
        a2 = ring[(i + 1) % n]
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or j == (i + 1) % n:
                continue
            b1 = ring[j]
            b2 = ring[(j + 1) % n]
            d1 = cross2(a2 - a1, b1 - a1)
            d2 = cross2(a2 - a1, b2 - a1)
            d3 = cross2(b2 - b1, a1 - b1)
            d4 = cross2(b2 - b1, a2 - b1)
            if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != d2 and d3 != d4:
                return False
    return True


def ear_clip(loop2d, holes2d=(), validate=True) -> list[tuple[int, int, int]]:
    """Triangulate a CCW 2D polygon, optionally with hole rings.

    Returns index triples into the concatenation of the outer ring and the
    hole rings. A simple hole-free n-gon yields exactly n - 2 triangles.
    """
    ring = np.asarray(loop2d, dtype=np.float64)
    if len(ring) < 3:
        raise DegeneratePolygon("polygon needs at least 3 vertices")
    if validate and not _ring_is_simple(ring):
        raise NotSimple("self-intersecting polygon boundary")

    outer = _linked_list(ring, 0, clockwise=True)
    if outer is None or outer.next is outer.prev:
        raise DegeneratePolygon("polygon degenerates to fewer than 3 points")
    offsets = []
    off = len(ring)
    holes2d = [np.asarray(h, dtype=np.float64) for h in holes2d]
    for h in holes2d:
        offsets.append(off)
        off += len(h)
    if holes2d:
        outer = _eliminate_holes(outer, holes2d, offsets)

    all_pts = np.concatenate([ring] + holes2d, axis=0) if holes2d else ring
    span = all_pts.max(axis=0) - all_pts.min(axis=0)
    eps = 1e-12 * float(span[0] ** 2 + span[1] ** 2)

    triangles: list[tuple[int, int, int]] = []
    _earcut_linked(outer, triangles, eps)
    # Emitted triples follow the ring's (CCW) traversal order, so shared
    # diagonals come out in opposite directions; no numeric re-orientation.
    return triangles


# ---------------------------------------------------------------------------
# Triangle splitting by planar subdivision
# ---------------------------------------------------------------------------


def _weld_nodes(pts2, pts3, nodes2, nodes3, tol):
    """Map each point to an existing node within tol or append a new one."""
    ids = []
    for p2, p3 in zip(pts2, pts3):
        hit = -1
        for k, q in enumerate(nodes2):
            if (p2[0] - q[0]) ** 2 + (p2[1] - q[1]) ** 2 <= tol * tol:
                hit = k
                break
        if hit < 0:
            nodes2.append(p2)
            nodes3.append(p3)
            hit = len(nodes2) - 1
        ids.append(hit)
    return ids


def _point_on_segment_2d(p, a, b, tol):
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return None
    length = denom ** 0.5
    t = float((p - a) @ ab) / denom
    if t * length < -tol or t * length > length + tol:
        return None
    foot = a + t * ab
    if float(np.hypot(*(p - foot))) > tol:
        return None
    return min(max(t, 0.0), 1.0), foot


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
    tri_coords, segments, tol, parent_tri: int = -1, boundary_points=()
) -> list[SplitPolygon]:
    """Partition a triangle into faces bounded by its intersection chords.

    segments is a list of (p0, p1) 3D endpoint pairs lying on the triangle
    (within tol). boundary_points are extra vertices to embed on the
    triangle's edges (subdivision points propagated from a neighbour's
    split, so shared edges stay watertight). Without segments the triangle
    itself is the single face. Dangling chord tails (chains ending strictly
    inside) do not bound any face and are pruned. Raises GeometryError when
    a segment leaves the triangle or the extracted faces fail to cover its
    area.
    """
    tri = np.asarray(tri_coords, dtype=np.float64).reshape(3, 3)
    normal = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    nn = np.linalg.norm(normal)
    if nn == 0.0:
        raise DegenerateTriangle("cannot split a zero-area triangle")
    normal = normal / nn

    if not segments and not len(boundary_points):
        return [SplitPolygon(tri.copy(), parent_tri, normal)]

    frame = make_frame(tri)
    if frame.n @ normal < 0:  # make_frame follows vertex order, keep parent side
        frame = LocalFrame(frame.origin, frame.u, -frame.v, -frame.n)
    corners2 = frame.to_2d(tri)

    nodes2 = [corners2[k] for k in range(3)]
    nodes3 = [tri[k].copy() for k in range(3)]
    for p in boundary_points:
        p = np.asarray(p, dtype=np.float64)
        _weld_nodes(frame.to_2d(p.reshape(1, 3)), [p], nodes2, nodes3, tol)
    seg_pairs = []
    for p0, p1 in segments:
        p0 = np.asarray(p0, dtype=np.float64)
        p1 = np.asarray(p1, dtype=np.float64)
        ids = _weld_nodes(frame.to_2d(np.stack([p0, p1])), [p0, p1], nodes2, nodes3, tol)
        if ids[0] != ids[1]:
            seg_pairs.append((min(ids), max(ids)))

    # Snap nodes onto the boundary edges they touch so collinearity tests in
    # the ear clipper see exact geometry; keep original 3D coordinates.
    diameter = float(np.linalg.norm(corners2.max(axis=0) - corners2.min(axis=0)))
    snap = max(tol, 1e-12 * diameter)
    on_edge: dict[int, list[tuple[float, int]]] = {0: [], 1: [], 2: []}
    for nid in range(3, len(nodes2)):
        for e in range(3):
            a, b = corners2[e], corners2[(e + 1) % 3]
            hit = _point_on_segment_2d(nodes2[nid], a, b, snap)
            if hit is not None:
                t, foot = hit
                nodes2[nid] = foot
                on_edge[e].append((t, nid))
                break

    # Interior containment check (precondition of the split).
    area_tri = shoelace(corners2)
    for nid in range(3, len(nodes2)):
        p = nodes2[nid]
        bary_ok = True
        for e in range(3):
            ex, ey = corners2[(e + 1) % 3] - corners2[e]
            px, py = p - corners2[e]
            if ex * py - ey * px < -snap * diameter:
                bary_ok = False
                break
        if not bary_ok:
            raise GeometryError(f"intersection point outside triangle {parent_tri}")

    edges = set()
    for e in range(3):
        chain = [e] + [nid for _, nid in sorted(on_edge[e])] + [(e + 1) % 3]
        for a, b in zip(chain, chain[1:]):
            if a != b:
                edges.add((min(a, b), max(a, b)))
    edges.update(seg_pairs)

    # Prune dangling chord tails: interior nodes of degree one.
    degree: dict[int, int] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    boundary_nodes = {0, 1, 2} | {nid for lst in on_edge.values() for _, nid in lst}
    changed = True
    while changed:
        changed = False
        for a, b in list(edges):
            for tip in (a, b):
                if degree.get(tip, 0) == 1 and tip not in boundary_nodes:
                    edges.discard((a, b))
                    degree[a] -= 1
                    degree[b] -= 1
                    changed = True
                    break

    faces = _extract_faces(nodes2, edges)

    polys = []
    total = 0.0
    pts3 = np.asarray(nodes3)
    for outer_cycle, hole_cycles in faces:
        ring3 = pts3[outer_cycle]
        holes3 = [pts3[h] for h in hole_cycles]
        area = shoelace(np.asarray([nodes2[i] for i in outer_cycle]))
        for h in hole_cycles:
            area += shoelace(np.asarray([nodes2[i] for i in h]))
        total += area
        polys.append(SplitPolygon(
            ring3, parent_tri, normal, holes3,
            ring2d=np.asarray([nodes2[i] for i in outer_cycle]),
            holes2d=[np.asarray([nodes2[i] for i in h]) for h in hole_cycles],
        ))
    if abs(total - area_tri) > 1e-6 * abs(area_tri):
        raise GeometryError(
            f"split faces cover {total:.3e} of triangle area {area_tri:.3e} (tri {parent_tri})"
        )
    return polys


def _extract_faces(nodes2, edges):
    """Faces of the planar subdivision as (outer cycle, hole cycles) lists."""
    out: dict[int, list[tuple[float, int]]] = {}
    for a, b in edges:
        pa, pb = nodes2[a], nodes2[b]
        out.setdefault(a, []).append((math.atan2(pb[1] - pa[1], pb[0] - pa[0]), b))
        out.setdefault(b, []).append((math.atan2(pa[1] - pb[1], pa[0] - pb[0]), a))
    for v in out:
        out[v].sort()

    # Union-find components over the subdivision graph
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[rb] = ra

    visited = set()
    cycles = []
    for a, b in sorted(edges) + [(b, a) for a, b in sorted(edges)]:
        if (a, b) in visited:
            continue
        cyc = []
        u, v = a, b
        while (u, v) not in visited:
            visited.add((u, v))
            cyc.append(u)
            ring = out[v]
            k = next(i for i, (_, w) in enumerate(ring) if w == u)
            # step to the clockwise neighbour of the reversed edge
            _, w = ring[(k - 1) % len(ring)]
            u, v = v, w
        area = shoelace(np.asarray([nodes2[i] for i in cyc]))
        cycles.append((cyc, area, find(cyc[0])))

    pos = [(cyc, area, comp) for cyc, area, comp in cycles if area > 0]
    neg = [(cyc, area, comp) for cyc, area, comp in cycles if area <= 0]
    main_comp = find(0)

    faces = [[cyc, []] for cyc, _, _ in pos]
    for cyc, area, comp in neg:
        if comp == main_comp:
            continue  # unbounded contour of the boundary component
        probe = nodes2[cyc[0]]
        best = None
        best_area = math.inf
        for fi, (pcyc, parea, pcomp) in enumerate(pos):
            if pcomp == comp:
                continue
            if parea < best_area and _point_in_ring(probe, [nodes2[i] for i in pcyc]):
                best = fi
                best_area = parea
        if best is None:
            raise GeometryError("floating loop not contained in any face")
        faces[best][1].append(cyc)
    return [(outer, holes) for outer, holes in faces]


def triangulate_polygon(poly: SplitPolygon) -> np.ndarray:
    """Ear-clip one split face, as made by split_triangle, back into 3D
    triangles, (k, 3, 3)."""
    pts3 = np.concatenate([poly.vertices, *poly.holes], axis=0)
    tris = ear_clip(poly.ring2d, poly.holes2d, validate=False)
    return np.asarray([[pts3[i], pts3[j], pts3[k]] for i, j, k in tris]).reshape(-1, 3, 3)


def split_and_triangulate(
    tri_coords, segments, tol, parent_tri: int = -1, boundary_points=()
) -> np.ndarray:
    """Split one triangle and return its replacement triangles as coordinates."""
    polys = split_triangle(tri_coords, segments, tol, parent_tri, boundary_points)
    if len(polys) == 1 and not polys[0].holes and len(polys[0].vertices) == 3:
        return np.asarray(tri_coords, dtype=np.float64).reshape(1, 3, 3)
    chunks = [triangulate_polygon(p) for p in polys]
    return np.concatenate(chunks, axis=0)
