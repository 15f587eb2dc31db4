"""Parametric fixture meshes and independent test oracles.

Oracles here deliberately avoid the library's own code paths: volumes are
summed per tetrahedron in a plain loop, containment uses its own axis-ray
parity counter, and candidate-pair ground truth is the O(n*m) box test.
The edge-adjacency oracles are the dict and set implementations that the
numpy edge table in meshbool.halfedge replaced, kept to test it against; the
octree oracles are the recursive node tree that the level-synchronous
meshbool.octree replaced, the coincidence oracle is the weld-only test
that now sits behind a bounding-box reject, and the narrow-phase oracle is
the thread-pooled intersect_all that the serial box-first loop replaced.
The weld oracle is the per-point first-fit scan that the cell-hash weld in
meshbool.merge replaced, and the assembly oracle is the per-face loop that
built the merged arrays before they were built from masks and repeats.
"""
from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from meshbool.errors import CoplanarPairError, TopologyError
from meshbool.geometry import TriMesh
from meshbool.intersect import COPLANAR, NarrowPhaseReport, tri_tri_intersect
from meshbool.merge import MergedState, clear_topology
from meshbool.octree import OctreeConfig


# ---------------------------------------------------------------------------
# Primitive generators
# ---------------------------------------------------------------------------


def cube(origin=(0.0, 0.0, 0.0), side=1.0, source="A") -> TriMesh:
    o = np.asarray(origin, dtype=np.float64)
    s = float(side)
    verts = o + s * np.array(
        [
            [0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0],
            [0, 0, 1], [1, 0, 1], [1, 1, 1], [0, 1, 1],
        ],
        dtype=np.float64,
    )
    faces = np.array(
        [
            [0, 2, 1], [0, 3, 2],  # z = 0
            [4, 5, 6], [4, 6, 7],  # z = 1
            [0, 1, 5], [0, 5, 4],  # y = 0
            [2, 3, 7], [2, 7, 6],  # y = 1
            [1, 2, 6], [1, 6, 5],  # x = 1
            [3, 0, 4], [3, 4, 7],  # x = 0
        ],
        dtype=np.int64,
    )
    return TriMesh(verts, faces, source=source, name="cube")


def icosphere(radius=1.0, center=(0.0, 0.0, 0.0), subdivisions=3, source="A") -> TriMesh:
    t = (1.0 + 5.0 ** 0.5) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    faces = [
        (0, 11, 5), (0, 5, 1), (0, 1, 7), (0, 7, 10), (0, 10, 11),
        (1, 5, 9), (5, 11, 4), (11, 10, 2), (10, 7, 6), (7, 1, 8),
        (3, 9, 4), (3, 4, 2), (3, 2, 6), (3, 6, 8), (3, 8, 9),
        (4, 9, 5), (2, 4, 11), (6, 2, 10), (8, 6, 7), (9, 8, 1),
    ]
    verts = [v / np.linalg.norm(v) for v in verts]
    for _ in range(subdivisions):
        cache: dict[tuple[int, int], int] = {}
        new_faces = []

        def midpoint(i, j):
            key = (min(i, j), max(i, j))
            if key not in cache:
                m = verts[i] + verts[j]
                verts.append(m / np.linalg.norm(m))
                cache[key] = len(verts) - 1
            return cache[key]

        for a, b, c in faces:
            ab, bc, ca = midpoint(a, b), midpoint(b, c), midpoint(c, a)
            new_faces += [(a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca)]
        faces = new_faces
    v = np.asarray(verts) * radius + np.asarray(center, dtype=np.float64)
    return TriMesh(v, np.asarray(faces, dtype=np.int64), source=source, name="icosphere")


def closed_cylinder(radius=1.0, half_height=2.0, n_theta=24, n_rings=9,
                    axis="z", source="A") -> TriMesh:
    """Capped cylinder with a vertex ring exactly at the mid plane and a
    vertex exactly at angle 0 and pi (tangency-friendly)."""
    thetas = np.arange(n_theta) * (2.0 * np.pi / n_theta)
    zs = np.linspace(-half_height, half_height, n_rings)
    verts = []
    for z in zs:
        for th in thetas:
            verts.append([radius * np.cos(th), radius * np.sin(th), z])
    bottom_c = len(verts)
    verts.append([0.0, 0.0, -half_height])
    top_c = len(verts)
    verts.append([0.0, 0.0, half_height])
    faces = []
    for r in range(n_rings - 1):
        for i in range(n_theta):
            a = r * n_theta + i
            b = r * n_theta + (i + 1) % n_theta
            c = (r + 1) * n_theta + (i + 1) % n_theta
            d = (r + 1) * n_theta + i
            faces += [[a, b, c], [a, c, d]]
    for i in range(n_theta):
        a, b = i, (i + 1) % n_theta
        faces.append([bottom_c, b, a])
        a, b = (n_rings - 1) * n_theta + i, (n_rings - 1) * n_theta + (i + 1) % n_theta
        faces.append([top_c, a, b])
    verts = np.asarray(verts, dtype=np.float64)
    if axis == "y":
        # exact permutation map: (x, y, z) -> (x, -z, y), keeps (r, 0, 0) fixed
        verts = np.stack([verts[:, 0], -verts[:, 2], verts[:, 1]], axis=1)
    mesh = TriMesh(verts, np.asarray(faces, dtype=np.int64), source=source, name=f"cyl_{axis}")
    return mesh


def tangent_cylinders(radius=1.0, n_theta=24, n_rings=9):
    """Equal-radius cylinders with crossing axes, tangent at (+-r, 0, 0)."""
    a = closed_cylinder(radius, 2.0, n_theta, n_rings, axis="z", source="A")
    b = closed_cylinder(radius, 2.0, n_theta, n_rings, axis="y", source="B")
    return a, b


def torus(major=1.0, minor=0.35, center=(0.0, 0.0, 0.0), n_major=36, n_minor=16,
          source="A") -> TriMesh:
    cx, cy, cz = center
    verts = []
    for i in range(n_major):
        th = 2.0 * np.pi * i / n_major
        for j in range(n_minor):
            ph = 2.0 * np.pi * j / n_minor
            r = major + minor * np.cos(ph)
            verts.append([cx + r * np.cos(th), cy + r * np.sin(th), cz + minor * np.sin(ph)])
    faces = []
    for i in range(n_major):
        for j in range(n_minor):
            a = i * n_minor + j
            b = i * n_minor + (j + 1) % n_minor
            c = ((i + 1) % n_major) * n_minor + (j + 1) % n_minor
            d = ((i + 1) % n_major) * n_minor + j
            faces += [[a, c, b], [a, d, c]]
    return TriMesh(np.asarray(verts), np.asarray(faces, dtype=np.int64), source=source, name="torus")


def torus_pair(major=1.0, minor=0.35, n_major=36, n_minor=16):
    """Coplanar overlapping equal tori, tube surfaces crossing transversally."""
    a = torus(major, minor, (0.0, 0.0, 0.0), n_major, n_minor, source="A")
    b = torus(major, minor, (major, 0.0, 0.0), n_major, n_minor, source="B")
    return a, b


def strip_surface(profile_xy, z0=0.0, z1=1.0, cols_per_span=6, n_z=5, source="A") -> TriMesh:
    """Open ruled surface over a polyline profile, extruded along z."""
    pts = []
    profile_xy = np.asarray(profile_xy, dtype=np.float64)
    for k in range(len(profile_xy) - 1):
        a, b = profile_xy[k], profile_xy[k + 1]
        for s in range(cols_per_span):
            pts.append(a + (b - a) * (s / cols_per_span))
    pts.append(profile_xy[-1])
    pts = np.asarray(pts)
    zs = np.linspace(z0, z1, n_z)
    verts = []
    for z in zs:
        for p in pts:
            verts.append([p[0], p[1], z])
    ncol = len(pts)
    faces = []
    for r in range(n_z - 1):
        for i in range(ncol - 1):
            a = r * ncol + i
            b = r * ncol + i + 1
            c = (r + 1) * ncol + i + 1
            d = (r + 1) * ncol + i
            faces += [[a, b, c], [a, c, d]]
    return TriMesh(np.asarray(verts), np.asarray(faces, dtype=np.int64), source=source, name="strip")


def vw_pair():
    """Open V and W strips crossing in four vertical lines."""
    v_profile = [(-1.0, 1.0), (0.0, 0.0), (1.0, 1.0)]
    w_profile = [(-1.0, -0.4), (-0.5, 0.6), (0.0, -0.4), (0.5, 0.6), (1.0, -0.4)]
    a = strip_surface(v_profile, cols_per_span=9, n_z=5, source="A")
    b = strip_surface(w_profile, cols_per_span=7, n_z=5, source="B")
    return a, b


def lobed_blob(radius=1.0, bump=1.0, tilt_deg=55.0, power=8, subdivisions=3,
               source="A") -> TriMesh:
    """Star-shaped blob with three upward-tilted lobes (lion stand-in)."""
    base = icosphere(1.0, subdivisions=subdivisions)
    tilt = np.deg2rad(tilt_deg)
    dirs = np.array(
        [
            [np.sin(tilt) * np.cos(a), np.sin(tilt) * np.sin(a), np.cos(tilt)]
            for a in (0.1, 0.1 + 2 * np.pi / 3, 0.1 + 4 * np.pi / 3)
        ]
    )
    u = base.vertices
    dots = np.clip(u @ dirs.T, 0.0, None) ** power
    r = radius * (1.0 + bump * dots.sum(axis=1))
    return TriMesh(u * r[:, None], base.faces, source=source, name="blob")


def grid_plane(z=0.0, half=2.0, n=16, source="B") -> TriMesh:
    xs = np.linspace(-half, half, n + 1)
    verts = []
    for y in xs:
        for x in xs:
            verts.append([x, y, z])
    faces = []
    for j in range(n):
        for i in range(n):
            a = j * (n + 1) + i
            b = a + 1
            c = a + n + 2
            d = a + n + 1
            faces += [[a, b, c], [a, c, d]]
    return TriMesh(np.asarray(verts), np.asarray(faces, dtype=np.int64), source=source, name="plane")


def blob_and_plane(cut_z=None):
    blob = lobed_blob(source="A")
    if cut_z is None:
        # between the central dome and the three lobe tips
        tips = blob.vertices[:, 2].max()
        dome = blob.vertices[np.argmax(blob.vertices @ np.array([0, 0, 1.0]) -
                                       np.linalg.norm(blob.vertices[:, :2], axis=1)), 2]
        cut_z = 0.5 * (tips + 1.004)
    plane = grid_plane(z=cut_z, half=2.0, n=14, source="B")
    return blob, plane


def random_convex_pair(rng, n_points=30):
    """Two random intersecting convex hulls (outward-oriented)."""
    from scipy.spatial import ConvexHull

    def hull_mesh(pts, source):
        hull = ConvexHull(pts)
        verts = pts[hull.vertices]
        lookup = {int(v): i for i, v in enumerate(hull.vertices)}
        faces = np.asarray([[lookup[int(i)] for i in s] for s in hull.simplices], dtype=np.int64)
        centroid = verts.mean(axis=0)
        p = verts[faces]
        n = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        inward = np.einsum("ij,ij->i", n, p[:, 0] - centroid) < 0
        faces[inward] = faces[inward][:, ::-1]
        return TriMesh(verts, faces, source=source)

    while True:
        pa = rng.uniform(-1, 1, size=(n_points, 3))
        pb = rng.uniform(-1, 1, size=(n_points, 3)) + rng.uniform(0.2, 0.9, size=3)
        a = hull_mesh(pa, "A")
        b = hull_mesh(pb, "B")
        boxes_overlap = (a.vertices.min(0) < b.vertices.max(0)).all() and (
            b.vertices.min(0) < a.vertices.max(0)
        ).all()
        if not boxes_overlap:
            continue
        # require genuine surface crossing: some vertex of each on both sides
        if _oracle_point_in_mesh(b.vertices.mean(0), a) or _oracle_point_in_mesh(
            a.vertices.mean(0), b
        ):
            return a, b
        inside_ab = sum(_oracle_point_in_mesh(p, b) for p in a.vertices[:8])
        if 0 < inside_ab < 8:
            return a, b


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def oracle_volume(mesh: TriMesh) -> float:
    """Tetrahedron-sum volume, plain loop, no shared code with the library."""
    total = 0.0
    v = mesh.vertices
    for a, b, c in mesh.faces:
        pa, pb, pc = v[a], v[b], v[c]
        det = (
            pa[0] * (pb[1] * pc[2] - pb[2] * pc[1])
            - pa[1] * (pb[0] * pc[2] - pb[2] * pc[0])
            + pa[2] * (pb[0] * pc[1] - pb[1] * pc[0])
        )
        total += det / 6.0
    return total


def oracle_shoelace(ring2d) -> float:
    s = 0.0
    r = np.asarray(ring2d, dtype=np.float64)
    for i in range(len(r)):
        x1, y1 = r[i]
        x2, y2 = r[(i + 1) % len(r)]
        s += x1 * y2 - x2 * y1
    return 0.5 * s


def oracle_aabb_pairs(a: TriMesh, b: TriMesh) -> set[tuple[int, int]]:
    """Brute-force all-pairs triangle AABB overlap."""
    pa = a.vertices[a.faces]
    pb = b.vertices[b.faces]
    lo_a, hi_a = pa.min(axis=1), pa.max(axis=1)
    lo_b, hi_b = pb.min(axis=1), pb.max(axis=1)
    out = set()
    for i in range(len(lo_a)):
        mask = ((lo_a[i] <= hi_b) & (hi_a[i] >= lo_b)).all(axis=1)
        for j in np.nonzero(mask)[0]:
            out.add((i, int(j)))
    return out


def _oracle_point_in_mesh(point, mesh: TriMesh, axis=0) -> bool:
    """Parity along a coordinate axis ray with jitter fallback."""
    p = np.asarray(point, dtype=np.float64)
    tris = mesh.vertices[mesh.faces]
    for attempt in range(24):
        if attempt == 0:
            d = np.zeros(3)
            d[axis] = 1.0
        else:
            rng = np.random.default_rng(1000 + attempt)
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
        count = 0
        ok = True
        for tri in tris:
            e1 = tri[1] - tri[0]
            e2 = tri[2] - tri[0]
            h = np.cross(d, e2)
            det = e1 @ h
            if abs(det) < 1e-13:
                continue
            s = p - tri[0]
            u = (s @ h) / det
            q = np.cross(s, e1)
            v = (d @ q) / det
            t = (e2 @ q) / det
            if -1e-10 < u < 1e-10 or -1e-10 < v < 1e-10 or abs(u + v - 1) < 1e-10 or abs(t) < 1e-12:
                if -1e-9 <= u <= 1 + 1e-9 and -1e-9 <= v <= 1 + 1e-9 and u + v <= 1 + 1e-9:
                    ok = False
                    break
            if t > 0 and 0 < u < 1 and 0 < v < 1 and u + v < 1:
                count += 1
        if ok:
            return count % 2 == 1
    raise RuntimeError("oracle parity test failed to settle")


def oracle_point_in_mesh(point, mesh: TriMesh) -> bool:
    return _oracle_point_in_mesh(point, mesh)


def oracle_point_in_mesh_many(points, mesh: TriMesh):
    """Vectorized axis-ray parity for many points; returns (inside, unsure)."""
    pts = np.asarray(points, dtype=np.float64)
    tris = mesh.vertices[mesh.faces]
    v0 = tris[:, 0]
    e1 = tris[:, 1] - v0
    e2 = tris[:, 2] - v0
    inside = np.zeros(len(pts), dtype=bool)
    unsure = np.zeros(len(pts), dtype=bool)
    d = np.array([1.0, 0.0, 0.0])
    h = np.cross(d, e2)
    det = np.einsum("ij,ij->i", e1, h)
    good = np.abs(det) > 1e-13
    for k, p in enumerate(pts):
        s = p - v0
        u = np.einsum("ij,ij->i", s, h) / np.where(good, det, 1.0)
        q = np.cross(s, e1)
        v = (q @ d) / np.where(good, det, 1.0)
        t = np.einsum("ij,ij->i", q, e2) / np.where(good, det, 1.0)
        near = good & (
            (np.abs(u) < 1e-10) | (np.abs(v) < 1e-10) | (np.abs(u + v - 1) < 1e-10) | (np.abs(t) < 1e-12)
        ) & (u > -1e-9) & (v > -1e-9) & (u + v < 1 + 1e-9)
        if near.any():
            unsure[k] = True
            continue
        hits = good & (t > 0) & (u > 0) & (v > 0) & (u + v < 1)
        inside[k] = int(hits.sum()) % 2 == 1
    return inside, unsure


def oracle_point_mesh_distance(points, mesh: TriMesh) -> np.ndarray:
    """Exact distance to the surface: plane foot when it lands inside the
    triangle, else the nearest of the three edge segments."""
    pts = np.asarray(points, dtype=np.float64)
    tris = mesh.vertices[mesh.faces]
    v0, v1, v2 = tris[:, 0], tris[:, 1], tris[:, 2]
    e0 = v1 - v0
    e1 = v2 - v0
    n = np.cross(e0, e1)
    nn2 = np.einsum("ij,ij->i", n, n)
    nn2 = np.where(nn2 <= 0, 1e-300, nn2)
    a = np.einsum("ij,ij->i", e0, e0)
    b = np.einsum("ij,ij->i", e0, e1)
    c = np.einsum("ij,ij->i", e1, e1)
    det = np.where(a * c - b * b <= 0, 1e-300, a * c - b * b)

    def seg_dist(p, sa, sb):
        ab = sb - sa
        denom = np.einsum("ij,ij->i", ab, ab)
        t = np.clip(
            np.einsum("ij,ij->i", p - sa, ab) / np.where(denom > 0, denom, 1e-300), 0.0, 1.0
        )
        return np.linalg.norm(sa + t[:, None] * ab - p, axis=1)

    best = np.empty(len(pts))
    for k, p in enumerate(pts):
        w = p - v0
        d0 = np.einsum("ij,ij->i", w, e0)
        d1 = np.einsum("ij,ij->i", w, e1)
        s = (c * d0 - b * d1) / det
        t = (a * d1 - b * d0) / det
        inside = (s >= 0) & (t >= 0) & (s + t <= 1)
        plane = np.abs(np.einsum("ij,ij->i", w, n)) / np.sqrt(nn2)
        edge = np.minimum(seg_dist(p, v0, v1), np.minimum(seg_dist(p, v1, v2), seg_dist(p, v2, v0)))
        best[k] = float(np.where(inside, plane, edge).min())
    return best


def random_simple_polygon(rng, n=10, spikiness=0.45):
    """Star-shaped (hence simple) polygon with jittered radii and angles.

    Simplicity needs every angular gap below pi so the boundary winds once
    around the origin; resample until that holds.
    """
    while True:
        angles = np.sort(rng.uniform(0, 2 * np.pi, size=n))
        gaps = np.diff(np.concatenate([angles, [angles[0] + 2 * np.pi]]))
        if gaps.min() > 1e-3 and gaps.max() < 0.9 * np.pi:
            break
    radii = rng.uniform(1 - spikiness, 1 + spikiness, size=n)
    return np.stack([radii * np.cos(angles), radii * np.sin(angles)], axis=1)


# ---------------------------------------------------------------------------
# Edge-adjacency oracles: one Python dict or set entry per directed edge
# ---------------------------------------------------------------------------


def _oracle_directed_edges(faces) -> np.ndarray:
    faces = np.asarray(faces)
    return np.stack([faces[:, [0, 1, 2]].ravel(), faces[:, [1, 2, 0]].ravel()], axis=1)


def oracle_boundary_edges(faces) -> np.ndarray:
    if len(faces) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    de = _oracle_directed_edges(faces)
    have = set(map(tuple, de))
    mask = [(v, u) not in have for u, v in de]
    return de[np.asarray(mask, dtype=bool)]


def oracle_is_closed_manifold(mesh: TriMesh) -> bool:
    if mesh.num_faces == 0:
        return False
    seen = {}
    for u, v in map(tuple, _oracle_directed_edges(mesh.faces)):
        if u == v or (u, v) in seen:
            return False
        seen[(u, v)] = True
    for u, v in seen:
        if (v, u) not in seen:
            return False
    return True


def oracle_euler_characteristic(mesh: TriMesh) -> int:
    if mesh.num_faces == 0:
        return 0
    verts = np.unique(mesh.faces)
    und = np.unique(np.sort(_oracle_directed_edges(mesh.faces), axis=1), axis=0)
    return int(len(verts) - len(und) + len(mesh.faces))


def oracle_connected_face_components(faces) -> list[np.ndarray]:
    if len(faces) == 0:
        return []
    owner = {}
    for fi, tri in enumerate(faces):
        for k in range(3):
            u, v = tri[k], tri[(k + 1) % 3]
            owner.setdefault((min(u, v), max(u, v)), []).append(fi)
    parent = list(range(len(faces)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for fids in owner.values():
        for other in fids[1:]:
            ra, rb = find(fids[0]), find(other)
            if ra != rb:
                parent[rb] = ra
    groups = {}
    for fi in range(len(faces)):
        groups.setdefault(find(fi), []).append(fi)
    return [np.asarray(g, dtype=np.int64) for g in sorted(groups.values(), key=lambda g: g[0])]


def oracle_directed_edge_duplicates(faces) -> dict[tuple[int, int], list[int]]:
    bad: dict[tuple[int, int], list[int]] = {}
    seen: dict[tuple[int, int], int] = {}
    for fi, tri in enumerate(faces):
        for k in range(3):
            e = (int(tri[k]), int(tri[(k + 1) % 3]))
            if e in seen:
                bad.setdefault(e, [seen[e]]).append(fi)
            else:
                seen[e] = fi
    return bad


def oracle_propagate_edge_points(mesh: TriMesh, per_face: dict, tol: float) -> dict:
    edge_faces: dict[tuple[int, int], list[int]] = {}
    for fid, tri in enumerate(mesh.faces):
        for k in range(3):
            u, v = int(tri[k]), int(tri[(k + 1) % 3])
            edge_faces.setdefault((min(u, v), max(u, v)), []).append(fid)

    extra: dict[int, list] = {}
    for fid, segs in per_face.items():
        tri_idx = mesh.faces[fid]
        for p in {tuple(q) for pq in segs for q in pq}:
            p = np.asarray(p)
            for k in range(3):
                u, v = int(tri_idx[k]), int(tri_idx[(k + 1) % 3])
                va, vb = mesh.vertices[u], mesh.vertices[v]
                ab = vb - va
                length2 = float(ab @ ab)
                if length2 == 0.0:
                    continue
                t = float((p - va) @ ab) / length2
                length = length2 ** 0.5
                if not (tol < t * length < length - tol):
                    continue
                if float(np.linalg.norm(p - (va + t * ab))) >= tol:
                    continue
                for nb in edge_faces[(min(u, v), max(u, v))]:
                    if nb != fid:
                        extra.setdefault(nb, []).append(p)
    return extra


class OracleSurfaceTopology:
    """Directed edge -> face dict with breadth-first floods and fan walks."""

    def __init__(self, faces):
        self.faces = np.asarray(faces, dtype=np.int64)
        self.edge_face: dict[tuple[int, int], int] = {}
        for fi, (a, b, c) in enumerate(map(tuple, self.faces)):
            for u, v in ((a, b), (b, c), (c, a)):
                if (u, v) in self.edge_face:
                    raise TopologyError(f"directed edge {(u, v)} used twice")
                self.edge_face[(u, v)] = fi

    def face_of(self, u, v):
        return self.edge_face.get((u, v))

    def third(self, fi, u, v):
        a, b, c = self.faces[fi]
        for x in (a, b, c):
            if x != u and x != v:
                return int(x)
        raise TopologyError(f"face {fi} is degenerate")

    def flood_regions(self, walls) -> np.ndarray:
        n = len(self.faces)
        labels = np.full(n, -1, dtype=np.int64)
        current = 0
        for seed in range(n):
            if labels[seed] >= 0:
                continue
            labels[seed] = current
            queue = deque([seed])
            while queue:
                fi = queue.popleft()
                a, b, c = self.faces[fi]
                for u, v in ((a, b), (b, c), (c, a)):
                    key = (u, v) if u < v else (v, u)
                    if key in walls:
                        continue
                    g = self.edge_face.get((v, u))
                    if g is not None and labels[g] < 0:
                        labels[g] = current
                        queue.append(g)
            current += 1
        return labels

    def flood_from(self, seeds, walls) -> np.ndarray:
        visited = set()
        queue = deque()
        for s in seeds:
            if s not in visited:
                visited.add(int(s))
                queue.append(int(s))
        while queue:
            fi = queue.popleft()
            a, b, c = self.faces[fi]
            for u, v in ((a, b), (b, c), (c, a)):
                key = (u, v) if u < v else (v, u)
                if key in walls:
                    continue
                g = self.edge_face.get((v, u))
                if g is not None and g not in visited:
                    visited.add(g)
                    queue.append(g)
        return np.asarray(sorted(visited), dtype=np.int64)

    def region_boundary(self, member) -> list[tuple[int, int]]:
        flags = np.zeros(len(self.faces), dtype=bool)
        flags[np.asarray(member, dtype=np.int64)] = True
        out = []
        for fi in np.nonzero(flags)[0]:
            a, b, c = self.faces[int(fi)]
            for u, v in ((a, b), (b, c), (c, a)):
                g = self.edge_face.get((v, u))
                if g is None or not flags[g]:
                    out.append((int(u), int(v)))
        return out

    def next_boundary_edge(self, u, v, in_region) -> tuple[int, int]:
        fi = self.edge_face[(u, v)]
        w = self.third(fi, u, v)
        while True:
            g = self.edge_face.get((w, v))
            if g is None or not in_region(g):
                return (v, w)
            w = self.third(g, w, v)

    def boundary_cycles(self, member) -> list[list[tuple[int, int]]]:
        flags = np.zeros(len(self.faces), dtype=bool)
        flags[member] = True

        def in_region(g):
            return bool(flags[g])

        edges = sorted(self.region_boundary(np.asarray(member)))
        unused = set(edges)
        cycles = []
        for start in edges:
            if start not in unused:
                continue
            cyc = [start]
            unused.discard(start)
            cur = self.next_boundary_edge(start[0], start[1], in_region)
            guard = 0
            while cur != start:
                if cur not in unused:
                    raise TopologyError(f"boundary walk left the region at edge {cur}")
                cyc.append(cur)
                unused.discard(cur)
                cur = self.next_boundary_edge(cur[0], cur[1], in_region)
                guard += 1
                if guard > 4 * len(self.faces) + 16:
                    raise TopologyError("boundary walk did not close")
            cycles.append(cyc)
        return cycles


# ---------------------------------------------------------------------------
# Broad-phase oracles: the recursive octree, one Python call per node
# ---------------------------------------------------------------------------


@dataclass
class OracleOctreeNode:
    lo: np.ndarray
    hi: np.ndarray
    depth: int
    tris_a: np.ndarray
    tris_b: np.ndarray
    children: list = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children


def oracle_build_octree(ids_a, ids_b, boxes_a, boxes_b, root, cfg=None) -> OracleOctreeNode:
    cfg = cfg or OctreeConfig()
    lo_a, hi_a = boxes_a
    lo_b, hi_b = boxes_b

    def make(lo, hi, depth, ia, ib):
        node = OracleOctreeNode(lo, hi, depth, ia, ib)
        if (
            depth >= cfg.max_depth
            or (len(ia) <= cfg.leaf_capacity and len(ib) <= cfg.leaf_capacity)
            or len(ia) == 0
            or len(ib) == 0
        ):
            return node
        mid = 0.5 * (lo + hi)
        for oct_index in range(8):
            sel = np.array([oct_index & 1, (oct_index >> 1) & 1, (oct_index >> 2) & 1])
            clo = np.where(sel == 0, lo, mid)
            chi = np.where(sel == 0, mid, hi)
            sub_a = ia[((lo_a[ia] <= chi) & (hi_a[ia] >= clo)).all(axis=1)]
            sub_b = ib[((lo_b[ib] <= chi) & (hi_b[ib] >= clo)).all(axis=1)]
            node.children.append(make(clo, chi, depth + 1, sub_a, sub_b))
        return node

    ids_a = np.asarray(ids_a, dtype=np.int64)
    ids_b = np.asarray(ids_b, dtype=np.int64)
    return make(np.asarray(root.lo, float), np.asarray(root.hi, float), 0, ids_a, ids_b)


def oracle_leaves(tree: OracleOctreeNode) -> list[OracleOctreeNode]:
    if tree.is_leaf:
        return [tree]
    return [leaf for child in tree.children for leaf in oracle_leaves(child)]


def oracle_candidate_pairs(tree: OracleOctreeNode) -> np.ndarray:
    chunks = []
    for node in oracle_leaves(tree):
        if len(node.tris_a) and len(node.tris_b):
            ga, gb = np.meshgrid(node.tris_a, node.tris_b, indexing="ij")
            chunks.append(np.stack([ga.ravel(), gb.ravel()], axis=1))
    if not chunks:
        return np.zeros((0, 2), dtype=np.int64)
    return np.unique(np.concatenate(chunks, axis=0), axis=0)


# ---------------------------------------------------------------------------
# Stage-3 oracles: the per-point weld scan and the per-face assembly loop
# ---------------------------------------------------------------------------


def oracle_merge_vertices(raw: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    raw = np.asarray(raw, dtype=np.float64)
    if tol <= 0:
        raise ValueError("merge tolerance must be positive")
    n = len(raw)
    remap = np.empty(n, dtype=np.int64)
    cells = np.floor(raw / tol).astype(np.int64)
    grid: dict[tuple[int, int, int], list[int]] = {}
    keep: list[int] = []
    tol2 = tol * tol
    for i in range(n):
        cx, cy, cz = cells[i]
        p = raw[i]
        found = -1
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                for dz in (-1, 0, 1):
                    bucket = grid.get((cx + dx, cy + dy, cz + dz))
                    if not bucket:
                        continue
                    for j in bucket:
                        q = raw[keep[j]]
                        if (
                            (p[0] - q[0]) ** 2 + (p[1] - q[1]) ** 2 + (p[2] - q[2]) ** 2
                            < tol2
                        ):
                            found = j
                            break
                    if found >= 0:
                        break
                if found >= 0:
                    break
            if found >= 0:
                break
        if found < 0:
            found = len(keep)
            keep.append(i)
            grid.setdefault((cx, cy, cz), []).append(found)
        remap[i] = found
    return raw[keep].copy(), remap


def oracle_build_merged_state(a: TriMesh, b: TriMesh, replacements: dict, segments, tol: float):
    raw_chunks = [a.vertices, b.vertices]
    offset_b = len(a.vertices)
    cursor = offset_b + len(b.vertices)

    face_rows = []
    parent_rows = []
    source_rows = []
    child_parent_normals = []

    for surf, mesh, offset in ((0, a, 0), (1, b, offset_b)):
        tag = "A" if surf == 0 else "B"
        replaced = {fid for (t, fid) in replacements if t == tag}
        for fid in range(mesh.num_faces):
            if fid not in replaced:
                face_rows.append(mesh.faces[fid] + offset)
                parent_rows.append(-1)
                source_rows.append(surf)
        for fid in sorted(replaced):
            children = replacements[(tag, fid)]
            k = len(children)
            raw_chunks.append(np.asarray(children, dtype=np.float64).reshape(-1, 3))
            idx = np.arange(cursor, cursor + 3 * k).reshape(k, 3)
            cursor += 3 * k
            tri = mesh.face_coords(fid)
            pn = np.cross(tri[1] - tri[0], tri[2] - tri[0])
            for row in idx:
                face_rows.append(row)
                parent_rows.append(fid)
                source_rows.append(surf)
                child_parent_normals.append(pn)

    seg_base = cursor
    seg_pts = []
    for s in segments:
        seg_pts.append(s.p0)
        seg_pts.append(s.p1)
    if seg_pts:
        raw_chunks.append(np.asarray(seg_pts, dtype=np.float64))

    raw = np.concatenate(raw_chunks, axis=0) if raw_chunks else np.zeros((0, 3))
    vertices, remap = oracle_merge_vertices(raw, tol)

    faces = remap[np.asarray(face_rows, dtype=np.int64)]
    source = np.asarray(source_rows, dtype=np.int8)
    parent = np.asarray(parent_rows, dtype=np.int64)

    child_mask = parent >= 0
    if child_mask.any():
        p = vertices[faces[child_mask]]
        normals = np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])
        pn = np.asarray(child_parent_normals)
        dots = np.einsum("ij,ij->i", normals, pn)
        n_len = np.linalg.norm(normals, axis=1)
        p_len = np.linalg.norm(pn, axis=1)
        flip = (dots < -0.5 * n_len * p_len) & (n_len > 1e-9 * p_len)
        if flip.any():
            rows = np.nonzero(child_mask)[0][flip]
            faces[rows] = faces[rows][:, ::-1]

    edge_rows = []
    edge_pairs = []
    for si, s in enumerate(segments):
        h = int(remap[seg_base + 2 * si])
        t = int(remap[seg_base + 2 * si + 1])
        if h == t:
            continue
        edge_rows.append((min(h, t), max(h, t)))
        edge_pairs.append((s.tri_a, s.tri_b))
    if edge_rows:
        earr = np.asarray(edge_rows, dtype=np.int64)
        uniq, first = np.unique(earr, axis=0, return_index=True)
        order = np.argsort(first)
        edges = uniq[order]
        pairs = [edge_pairs[first[i]] for i in order]
    else:
        edges = np.zeros((0, 2), dtype=np.int64)
        pairs = []

    state = MergedState(
        vertices, faces, source, parent, edges, pairs, tol,
        a_closed=a.closed, b_closed=b.closed,
    )
    return clear_topology(state)


# ---------------------------------------------------------------------------
# Coincidence oracle: the full weld, with no cheap reject in front
# ---------------------------------------------------------------------------


def oracle_meshes_coincident(a: TriMesh, b: TriMesh, tol: float) -> bool:
    if a.num_vertices != b.num_vertices or a.num_faces != b.num_faces:
        return False
    raw = np.concatenate([a.vertices, b.vertices])
    merged, remap = oracle_merge_vertices(raw, tol)
    if len(merged) != a.num_vertices:
        return False

    def canon(faces, offset):
        out = set()
        for tri in faces:
            t = [int(remap[v + offset]) for v in tri]
            k = int(np.argmin(t))
            out.add((t[k], t[(k + 1) % 3], t[(k + 2) % 3]))
        return out

    return canon(a.faces, 0) == canon(b.faces, a.num_vertices)


# ---------------------------------------------------------------------------
# Narrow-phase oracle: per-pair boxes rebuilt from gathered coordinates, a
# thread pool over fixed chunks, results concatenated in chunk order
# ---------------------------------------------------------------------------


def _oracle_prefilter(pairs, pa, pb, tol):
    keep = np.ones(len(pairs), dtype=bool)
    keep &= (pa.min(axis=1) <= pb.max(axis=1)).all(axis=1)
    keep &= (pb.min(axis=1) <= pa.max(axis=1)).all(axis=1)

    def plane_reject(p, q):
        n = np.cross(q[:, 1] - q[:, 0], q[:, 2] - q[:, 0])
        norm = np.linalg.norm(n, axis=1, keepdims=True)
        norm[norm == 0] = 1.0
        n = n / norm
        d = np.einsum("kij,kj->ki", p - q[:, None, 0], n)
        d[np.abs(d) < tol] = 0.0
        return (d > 0).all(axis=1) | (d < 0).all(axis=1)

    keep &= ~plane_reject(pa, pb)
    keep[keep] &= ~plane_reject(pb[keep], pa[keep])
    return keep


def _oracle_run_chunk(pairs, verts_a, faces_a, verts_b, faces_b, tol):
    if len(pairs) == 0:
        return [], []
    pa = verts_a[faces_a[pairs[:, 0]]]
    pb = verts_b[faces_b[pairs[:, 1]]]
    keep = _oracle_prefilter(pairs, pa, pb, tol)
    segs = []
    coplanar = []
    for idx in np.nonzero(keep)[0]:
        res = tri_tri_intersect(pa[idx], pb[idx], tol)
        if res is None:
            continue
        ta, tb = int(pairs[idx, 0]), int(pairs[idx, 1])
        if res is COPLANAR:
            coplanar.append((ta, tb))
            continue
        res.tri_a, res.tri_b = ta, tb
        segs.append(res)
    return segs, coplanar


def oracle_intersect_all(pairs, a: TriMesh, b: TriMesh, plane_tol, threads=0, strict=False,
                         chunk=4096):
    report = NarrowPhaseReport()
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    if len(pairs) == 0:
        return [], report

    if threads <= 0:
        threads = os.cpu_count() or 1
    chunks = [pairs[i : i + chunk] for i in range(0, len(pairs), chunk)]
    args = (a.vertices, a.faces, b.vertices, b.faces, plane_tol)
    if threads == 1 or len(chunks) == 1:
        results = [_oracle_run_chunk(c, *args) for c in chunks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(lambda c: _oracle_run_chunk(c, *args), chunks))

    segs = []
    for got, cop in results:
        report.coplanar_pairs.extend(cop)
        for s in got:
            if s.degenerate:
                report.point_contacts += 1
            else:
                segs.append(s)
    if strict and report.coplanar_pairs:
        raise CoplanarPairError(
            f"{len(report.coplanar_pairs)} overlapping coplanar triangle pair(s), "
            f"first {report.coplanar_pairs[0]}"
        )
    segs.sort(key=lambda s: (s.tri_a, s.tri_b))
    return segs, report
