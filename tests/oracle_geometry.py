"""The whole-array per-face helpers, frozen as a differential oracle.

A copy of meshbool.geometry's _face_cross and its four callers, and of
meshbool.io's binary STL writer, as they were before they worked in fixed
blocks of faces: every helper gathers the corners of all faces at once, and
the writer builds one record array for the whole mesh. The blocked helpers
in src must give the same bits, the same float and the same bytes.
"""
from __future__ import annotations

import struct

import numpy as np

from meshbool.errors import NotClosed
from meshbool.geometry import TriMesh


def _face_cross(vertices: np.ndarray, faces: np.ndarray, edges: bool = True) -> tuple:
    p = [[c[f] for c in vertices.T] for f in np.asarray(faces).reshape(-1, 3).T]
    a, b = ([p[k][i] - p[0][i] for i in range(3)] for k in (1, 2)) if edges else p[1:]
    return (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2], a[0] * b[1] - a[1] * b[0]), p[0]


def _lengths(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    return np.sqrt((x * x + y * y) + z * z)


def triangle_normals(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    return np.stack(_face_cross(vertices, faces)[0], axis=1)


def triangle_areas(vertices: np.ndarray, faces: np.ndarray) -> np.ndarray:
    return 0.5 * _lengths(*_face_cross(vertices, faces)[0])


def unit_normals(vertices: np.ndarray, faces: np.ndarray, dtype=np.float64) -> np.ndarray:
    cols = _face_cross(vertices, faces)[0]
    lens = _lengths(*cols)
    lens[lens == 0] = 1.0
    out = np.empty((len(lens), 3), dtype=dtype)
    for k, c in enumerate(cols):
        out[:, k] = c / lens
    return out


def signed_volume(mesh: TriMesh) -> float:
    if not mesh.closed:
        raise NotClosed("signed_volume requires a closed surface")
    (cx, cy, cz), (x0, y0, z0) = _face_cross(mesh.vertices, mesh.faces, edges=False)
    return float(((x0 * cx + y0 * cy) + z0 * cz).sum() / 6.0)


def save_stl_binary(mesh: TriMesh, path) -> None:
    count = mesh.num_faces
    rec = np.zeros((count, 50), dtype=np.uint8)
    rec[:, 0:12] = unit_normals(mesh.vertices, mesh.faces, "<f4").view(np.uint8).reshape(count, 12)
    tris = mesh.vertices.astype("<f4")[mesh.faces]
    rec[:, 12:48] = tris.reshape(count, 9).view(np.uint8).reshape(count, 36)
    with open(path, "wb") as fh:
        fh.write(b"meshbool".ljust(80, b"\0") + struct.pack("<I", count))
        fh.write(rec)
