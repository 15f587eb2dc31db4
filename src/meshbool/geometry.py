"""Core primitives: points, axis-aligned boxes, indexed triangle meshes.

All coordinates are float64. Meshes are value types: once built they are
treated as read-only and can be shared freely across threads.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EmptyInput, GeometryError, NotClosed
from .halfedge import SurfaceTopology, edge_keys, paired


def row_dots(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise dot products over the last axis. Stacked 1xk @ kx1 products
    run numpy's vector dot on each row, the same as 1-D `@` on that row (and
    as np.linalg.norm, which squares a vector by that dot)."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


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

    def reversed(self) -> "TriMesh":
        return TriMesh(self.vertices, self.faces[:, ::-1].copy(), self.source, self.name)

    def boundary_loops(self) -> list[list[int]]:
        """Closed vertex cycles of the directed boundary, each from its lowest
        (u, v) edge, in the order of their starts. A vertex the boundary
        passes twice starts or joins two cycles; a directed edge used by two
        faces raises TopologyError."""
        topo = SurfaceTopology(self.faces)
        return [topo.u[c].tolist() for c in topo.boundary_cycles(np.zeros(self.num_faces, dtype=np.int64))]


def boundary_edges(faces: np.ndarray) -> np.ndarray:
    """Directed edges whose reverse does not occur (surface boundary), in face order."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    keys = edge_keys(faces)
    srt = np.sort(keys)
    if paired(srt):
        return np.zeros((0, 2), dtype=np.int64)
    u, v = faces.ravel(), faces[:, [1, 2, 0]].ravel()
    partner = keys ^ (u != v)  # a u == v edge is its own reverse
    found = srt[np.minimum(srt.searchsorted(partner), len(srt) - 1)] == partner
    return np.stack([u, v], axis=1)[~found]


def is_closed_manifold(mesh: TriMesh) -> bool:
    """Every undirected edge shared by exactly two faces, opposite directions."""
    return mesh.num_faces > 0 and paired(np.sort(edge_keys(mesh.faces)))


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
    box_a, box_b = mesh_aabb(a), mesh_aabb(b)
    return max(float((np.maximum(box_a.hi, box_b.hi) - np.minimum(box_a.lo, box_b.lo)).max()), 1e-30)


def _face_cross(vertices: np.ndarray, faces: np.ndarray, edges: bool = True) -> tuple:
    """Each face's (v1 - v0) x (v2 - v0), or v1 x v2 when edges is False, and
    v0, as (x, y, z) columns gathered per corner; np.cross's own products
    (a1*b2 - a2*b1, ...), so the columns equal np.cross's bit for bit."""
    p = [[c[f] for c in vertices.T] for f in np.asarray(faces).reshape(-1, 3).T]
    a, b = ([p[k][i] - p[0][i] for i in range(3)] for k in (1, 2)) if edges else p[1:]
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]), p[0]


def _lengths(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x + y * y) + z * z)  # in np.linalg.norm's order


def triangle_normals(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    """Non-unit face normals (cross products), (m, 3)."""
    return np.stack(_face_cross(vertices, faces)[0], axis=1)


def triangle_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    return 0.5 * _lengths(*_face_cross(vertices, faces)[0])


def unit_normals(vertices: np.ndarray, faces: np.ndarray, dtype=np.float64) -> np.ndarray:
    """Unit face normals as an (m, 3) array of dtype, each column divided by
    the normal's length in float64 and then cast; a zero normal stays zero."""
    cols = _face_cross(vertices, faces)[0]
    lens = _lengths(*cols)
    lens[lens == 0] = 1.0
    out = np.empty((len(lens), 3), dtype=dtype)
    for k, c in enumerate(cols):
        out[:, k] = c / lens
    return out


def signed_volume(mesh: TriMesh) -> float:
    """Divergence-theorem volume: sum of det(v0, v1, v2) / 6 over faces.

    Positive when all windings point outward. Raises NotClosed for open
    surfaces, where the quantity is not translation-invariant.
    """
    if not mesh.closed:
        raise NotClosed("signed_volume requires a closed surface")
    (cx, cy, cz), (x0, y0, z0) = _face_cross(mesh.vertices, mesh.faces, edges=False)
    return float(((x0 * cx + y0 * cy) + z0 * cz).sum() / 6.0)


def compact_submesh(vertices: np.ndarray, faces: np.ndarray, source="A", name="") -> TriMesh:
    """Build a TriMesh from a face subset, dropping unreferenced vertices; the
    rest keep their order, renumbered by a running count of a used mask."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    used = np.zeros(len(vertices), dtype=bool)
    used[faces] = True
    return TriMesh(vertices[used], (np.cumsum(used) - 1)[faces], source, name)
