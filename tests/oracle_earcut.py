"""The linked-list ear clipper, frozen as a differential oracle.

A copy of meshbool.retriangulate's ear_clip as it was before the clipper
moved to a list of point ids: earcut on a circular doubly linked list of
nodes, holes joined by bridges that copy their two end nodes, one more
cycle with exact tests when the noisy test finds no ear, and no fallback
passes. The clipper in src must give the same triangles, or raise the
same error class with the same message, on every input.
"""
from __future__ import annotations

import math
from itertools import accumulate

from meshbool.errors import DegeneratePolygon, NotSimple

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
