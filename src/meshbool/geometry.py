"""Core primitives: points, axis-aligned boxes, indexed triangle meshes.

All coordinates are float64. Meshes are value types: once built they are
treated as read-only and can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, GeometryError, NotClosed, TopologyError
from .halfedge import EdgeTable, min_labels


def as_points(data) -> np.ndarray:
    """Coerce to an (n, 3) float64 array and reject NaN/Inf."""
    pts = np.asarray(data, dtype=np.float64)
    if pts.ndim == 1:
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise GeometryError(f"expected (n, 3) coordinates, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise GeometryError("non-finite coordinate in point data")
    return pts


@dataclass(frozen=True)
class Aabb:
    """Axis-aligned box; the empty box is a first-class value (lo > hi)."""

    lo: np.ndarray
    hi: np.ndarray

    @staticmethod
    def empty() -> "Aabb":
        return Aabb(np.full(3, np.inf), np.full(3, -np.inf))

    @staticmethod
    def of_points(pts: np.ndarray) -> "Aabb":
        pts = as_points(pts)
        return Aabb(pts.min(axis=0), pts.max(axis=0))

    @property
    def is_empty(self) -> bool:
        return bool((self.lo > self.hi).any())

    @property
    def extent(self) -> np.ndarray:
        return self.hi - self.lo

    @property
    def center(self) -> np.ndarray:
        return 0.5 * (self.lo + self.hi)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Aabb):
            return NotImplemented
        if self.is_empty and other.is_empty:
            return True
        return bool(np.array_equal(self.lo, other.lo) and np.array_equal(self.hi, other.hi))


def aabb_intersection(a: Aabb, b: Aabb) -> Aabb:
    """Componentwise max of mins / min of maxes; empty when disjoint."""
    lo = np.maximum(a.lo, b.lo)
    hi = np.minimum(a.hi, b.hi)
    if (lo > hi).any():
        return Aabb.empty()
    return Aabb(lo, hi)


@dataclass
class TriMesh:
    """Indexed triangle surface with a source tag ('A' or 'B').

    vertices: (n, 3) float64, faces: (m, 3) integer indices. The winding of
    each face defines its outward normal.
    """

    vertices: np.ndarray
    faces: np.ndarray
    source: str = "A"
    name: str = ""
    _closed: bool | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.vertices = as_points(self.vertices) if len(self.vertices) else np.zeros((0, 3))
        self.faces = np.asarray(self.faces, dtype=np.int64).reshape(-1, 3)
        if len(self.faces) and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise GeometryError("face index out of range")

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_faces(self) -> int:
        return len(self.faces)

    @property
    def closed(self) -> bool:
        if self._closed is None:
            self._closed = len(boundary_edges(self.faces)) == 0 and self.num_faces > 0
        return self._closed

    def face_coords(self, i: int) -> np.ndarray:
        return self.vertices[self.faces[i]]

    def reversed(self) -> "TriMesh":
        return TriMesh(self.vertices, self.faces[:, ::-1].copy(), self.source, self.name)

    def boundary_loops(self) -> list[list[int]]:
        return chain_boundary_loops(boundary_edges(self.faces))


def boundary_edges(faces: np.ndarray) -> np.ndarray:
    """Directed edges whose reverse does not occur (surface boundary), in face order."""
    table = EdgeTable(faces)
    return np.stack([table.u, table.v], axis=1)[table.boundary]


def chain_boundary_loops(bedges: np.ndarray) -> list[list[int]]:
    """Chain directed boundary edges into closed vertex cycles."""
    nxt = {}
    for u, v in map(tuple, bedges):
        if u in nxt:
            raise TopologyError(f"vertex {u} has two outgoing boundary edges")
        nxt[u] = v
    loops = []
    seen = set()
    for start in sorted(nxt):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        v = nxt[start]
        while v != start:
            cyc.append(v)
            seen.add(v)
            v = nxt[v]
        loops.append(cyc)
    return loops


def is_closed_manifold(mesh: TriMesh) -> bool:
    """Every undirected edge shared by exactly two faces, opposite directions."""
    if mesh.num_faces == 0:
        return False
    table = EdgeTable(mesh.faces)
    return not ((table.u == table.v).any() or table.duplicate.any() or table.boundary.any())


def mesh_aabb(mesh: TriMesh) -> Aabb:
    """Smallest box containing all vertices."""
    if mesh.num_vertices == 0:
        raise EmptyInput("mesh has no vertices")
    return Aabb.of_points(mesh.vertices)


# Tolerances are these fractions of the scene scale.
PLANE_TOL_REL = 1e-12
MERGE_TOL_REL = 1e-9


def scene_scale(a: TriMesh, b: TriMesh, cube: Aabb | None = None) -> float:
    """Characteristic length for tolerances: the root cube side when the
    broad phase produced one, otherwise the combined bounding extent."""
    if cube is not None and not cube.is_empty:
        return float(cube.extent.max())
    lo = np.minimum(mesh_aabb(a).lo, mesh_aabb(b).lo)
    hi = np.maximum(mesh_aabb(a).hi, mesh_aabb(b).hi)
    return max(float((hi - lo).max()), 1e-30)


def triangle_normals(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Non-unit face normals (cross products), (m, 3)."""
    p = vertices[faces]
    return np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


def triangle_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    return 0.5 * np.linalg.norm(triangle_normals(vertices, faces), axis=1)


def signed_volume(mesh: TriMesh) -> float:
    """Divergence-theorem volume: sum of det(v0, v1, v2) / 6 over faces.

    Positive when all windings point outward. Raises NotClosed for open
    surfaces, where the quantity is not translation-invariant.
    """
    if not mesh.closed:
        raise NotClosed("signed_volume requires a closed surface")
    p = mesh.vertices[mesh.faces]
    return float(np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2])).sum() / 6.0)


def euler_characteristic(mesh: TriMesh) -> int:
    """V - E + F counting only referenced vertices and undirected edges."""
    if mesh.num_faces == 0:
        return 0
    table = EdgeTable(mesh.faces)
    # One edge per directed key; a pair seen in both directions counts from its u <= v side.
    undirected = ~table.duplicate & ((table.u <= table.v) | table.boundary)
    return int(len(np.unique(mesh.faces)) - int(undirected.sum()) + mesh.num_faces)


def connected_face_components(faces: np.ndarray) -> list[np.ndarray]:
    """Group face ids into edge-connected components, ordered by lowest face id."""
    if len(faces) == 0:
        return []
    table = EdgeTable(faces)
    # Faces sharing an edge in either direction meet via first (same key) or twin.
    edges = np.arange(len(table.u))
    paired = edges[~table.boundary]
    a = np.concatenate([edges, paired]) // 3
    b = np.concatenate([table.first, table.twin[paired]]) // 3
    label = min_labels(len(table.faces), a, b)
    order = np.argsort(label, kind="stable")
    return np.split(order, np.nonzero(np.diff(label[order]))[0] + 1)


def compact_submesh(vertices: np.ndarray, faces: np.ndarray, source="A", name="") -> TriMesh:
    """Build a TriMesh from a face subset, dropping unreferenced vertices."""
    if len(faces) == 0:
        return TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64), source, name)
    used, inverse = np.unique(np.asarray(faces, dtype=np.int64).ravel(), return_inverse=True)
    return TriMesh(vertices[used], inverse.reshape(-1, 3), source, name)
