"""The whole-array STL welding and containment test, frozen as oracles.

Copies of meshbool.io._index_soup and of meshbool.blocks._ray_parity and
point_in_closed_mesh as they were before they worked in bounded sets: the
weld builds the sorted copy of every corner row and gathers the vertices
from it, and the containment test casts each ray at all the faces' corners
at once. The bounded versions in src must give the same vertex bits, the
same faces and the same verdicts, retries and errors.
"""
from __future__ import annotations

import numpy as np

from meshbool.errors import ClassificationError, EmptyInput
from meshbool.geometry import TriMesh


def index_soup(tris: np.ndarray, source: str = "A", name: str = "soup") -> TriMesh:
    """Weld float-identical corners of a float64 triangle soup (the loader's
    degenerate-facet warning is left out)."""
    if len(tris) == 0:
        raise EmptyInput(f"{name}: no facets")
    flat = tris.reshape(-1, 3)
    order = np.lexsort(flat.T[::-1])
    rows = flat[order]
    new = np.concatenate(([True], (rows[1:] != rows[:-1]).any(axis=1)))
    faces = np.empty(len(flat), dtype=np.int64)
    faces[order] = np.cumsum(new) - 1
    verts, faces = rows[new], faces.reshape(-1, 3)
    degen = (faces[:, 0] == faces[:, 1]) | (faces[:, 1] == faces[:, 2]) | (faces[:, 2] == faces[:, 0])
    faces = faces[~degen]
    if len(faces) == 0:
        raise EmptyInput(f"{name}: all facets degenerate")
    return TriMesh(verts, faces, source=source, name=name)


RAY_DIRS = np.array(
    [
        [0.57735026918962584, 0.57735026918962584, 0.57735026918962584],
        [0.85065080835203999, 0.52573111211913359, 0.0],
        [0.0, 0.85065080835203999, 0.52573111211913359],
        [0.52573111211913359, 0.0, 0.85065080835203999],
    ]
)


def ray_parity(origin, direction, tris, scale):
    v0 = tris[:, 0]
    e1 = tris[:, 1] - v0
    e2 = tris[:, 2] - v0
    h = np.cross(direction, e2)
    det = np.einsum("ij,ij->i", e1, h)
    parallel = np.abs(det) < 1e-14 * scale * scale
    safe = np.where(parallel, 1.0, det)
    s = origin - v0
    u = np.einsum("ij,ij->i", s, h) / safe
    q = np.cross(s, e1)
    v = np.einsum("ij,j->i", q, direction) / safe
    t = np.einsum("ij,ij->i", q, e2) / safe
    eps_b = 1e-9
    eps_t = 1e-12 * scale
    strict = (~parallel) & (t > eps_t) & (u > eps_b) & (v > eps_b) & (u + v < 1 - eps_b)
    loose = (~parallel) & (t > -eps_t) & (u > -eps_b) & (v > -eps_b) & (u + v < 1 + eps_b)
    ambiguous = (loose & ~strict).any()
    return int(strict.sum()), bool(ambiguous)


def point_in_closed_mesh(point, mesh: TriMesh, max_retries: int = 32) -> bool:
    point = np.asarray(point, dtype=np.float64)
    tris = mesh.vertices[mesh.faces]
    scale = max(float(np.ptp(c)) for c in mesh.vertices.T)
    rng = np.random.default_rng(20240811)
    for attempt in range(max_retries):
        if attempt < len(RAY_DIRS):
            d = RAY_DIRS[attempt]
        else:
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
        count, ambiguous = ray_parity(point, d, tris, scale)
        if not ambiguous:
            return count % 2 == 1
    raise ClassificationError("containment ray test kept grazing the surface")
