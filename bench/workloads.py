"""Seeded, deterministic inputs for the benchmark workloads (numpy only).

Every generator takes the seed as an argument and returns the operations of
one pass. meshbool only ever sees the binary STL files written here, never
the arrays, so the benchmark measures the same path a user takes.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# small-batch: one pass holds enough ops for ten samples to lie beyond p90.
SMALL_BATCH_OPS = 100


@dataclass
class Op:
    """One `meshbool all A B -o DIR` call and what its outputs must satisfy."""

    name: str
    tris_a: np.ndarray  # (m, 3, 3) float64 triangle soup, outward winding
    tris_b: np.ndarray
    # "single": exactly one union and one intersection mesh (inputs are
    # star-shaped about a shared interior point).
    # "nested": B lies inside A, so union == A and intersection == B.
    expect: str = "single"
    path_a: Path | None = None
    path_b: Path | None = None


def icosphere(subdivisions: int) -> tuple[np.ndarray, np.ndarray]:
    """Unit icosphere (vertices, faces) with outward winding."""
    t = (1.0 + 5.0 ** 0.5) / 2.0
    verts = np.array(
        [
            [-1, t, 0], [1, t, 0], [-1, -t, 0], [1, -t, 0],
            [0, -1, t], [0, 1, t], [0, -1, -t], [0, 1, -t],
            [t, 0, -1], [t, 0, 1], [-t, 0, -1], [-t, 0, 1],
        ],
        dtype=np.float64,
    )
    faces = np.array(
        [
            [0, 11, 5], [0, 5, 1], [0, 1, 7], [0, 7, 10], [0, 10, 11],
            [1, 5, 9], [5, 11, 4], [11, 10, 2], [10, 7, 6], [7, 1, 8],
            [3, 9, 4], [3, 4, 2], [3, 2, 6], [3, 6, 8], [3, 8, 9],
            [4, 9, 5], [2, 4, 11], [6, 2, 10], [8, 6, 7], [9, 8, 1],
        ],
        dtype=np.int64,
    )
    verts /= np.linalg.norm(verts, axis=1, keepdims=True)
    for _ in range(subdivisions):
        n = len(verts)
        a, b, c = faces[:, 0], faces[:, 1], faces[:, 2]
        edges = np.stack([np.stack([a, b], 1), np.stack([b, c], 1), np.stack([c, a], 1)], 1)
        keys = np.sort(edges, axis=2).reshape(-1, 2)
        uniq, inverse = np.unique(keys, axis=0, return_inverse=True)
        mids = verts[uniq[:, 0]] + verts[uniq[:, 1]]
        verts = np.concatenate([verts, mids / np.linalg.norm(mids, axis=1, keepdims=True)])
        m = (n + inverse).reshape(-1, 3)
        ab, bc, ca = m[:, 0], m[:, 1], m[:, 2]
        faces = np.concatenate(
            [np.stack(f, 1) for f in ((a, ab, ca), (b, bc, ab), (c, ca, bc), (ab, bc, ca))]
        )
    return verts, faces


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    """Uniform random rotation matrix from a normalised quaternion."""
    w, x, y, z = rng.normal(size=4)
    n = (w * w + x * x + y * y + z * z) ** 0.5
    w, x, y, z = w / n, x / n, y / n, z / n
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
            [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
            [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
        ]
    )


def random_offset(rng: np.random.Generator, max_len: float) -> np.ndarray:
    d = rng.normal(size=3)
    return d / np.linalg.norm(d) * rng.uniform(0.0, max_len)


def spheres_fine(rng: np.random.Generator) -> list[Op]:
    # One loop of ~700 segments, ~3% of faces split: the whole-mesh passes
    # (weld, edge checks, region flood, output validation, I/O) dominate.
    v, f = icosphere(5)
    b = v @ random_rotation(rng).T + np.array([0.5, 0.31, 0.17])
    return [Op("spheres-fine", v[f], b[f])]


def bumpy_band(rng: np.random.Generator) -> list[Op]:
    # The bumps cross the unit sphere everywhere, so the intersection band is
    # a large share of faces: 30-65 loops and as many output meshes.
    v, f = icosphere(4)
    x, y, z = v[:, 0], v[:, 1], v[:, 2]
    r = 1.0 + 0.05 * np.sin(7 * x + 0.3) * np.sin(7 * y + 0.7) * np.sin(7 * z + 1.1)
    a = v * r[:, None]
    b = v @ random_rotation(rng).T + random_offset(rng, 0.01)
    return [Op("bumpy-band", a[f], b[f])]


def nested_shell(rng: np.random.Generator) -> list[Op]:
    # Hollowing for 3D printing: no surface crossing, so the trivial-case
    # path runs after the full broad and narrow phases.
    v, f = icosphere(5)
    inner = 0.97 * v @ random_rotation(rng).T + random_offset(rng, 1e-3)
    return [Op("nested-shell", v[f], inner[f], expect="nested")]


def small_batch(rng: np.random.Generator, count: int = SMALL_BATCH_OPS) -> list[Op]:
    # B is centred on A's surface, so the surfaces always cross: B reaches at
    # least 0.3 out along A's normal there, which is outside convex A, and at
    # most 0.45 in, which stays inside A because A's smallest radius of
    # curvature is at least 0.7^2 / 1.0 = 0.49. Both are convex, so the
    # intersection and the union are single solids.
    v, f = icosphere(2)
    ops = []
    for i in range(count):
        frame_a, frame_b = random_rotation(rng), random_rotation(rng)
        axes_a = rng.uniform(0.7, 1.0, size=3)
        axes_b = rng.uniform(0.3, 0.45, size=3)
        centre = rng.uniform(-1.0, 1.0, size=3)
        u = rng.normal(size=3)
        on_a = frame_a @ (axes_a * u / np.linalg.norm(u))
        a = (v * axes_a) @ frame_a.T + centre
        b = (v * axes_b) @ frame_b.T + centre + on_a
        ops.append(Op(f"small-batch-{i:03d}", a[f], b[f]))
    return ops


GENERATORS = {
    "spheres-fine": spheres_fine,
    "bumpy-band": bumpy_band,
    "nested-shell": nested_shell,
    "small-batch": small_batch,
}
WORKLOADS = tuple(GENERATORS)


def write_stl(tris: np.ndarray, path: Path) -> None:
    """Binary STL of a triangle soup (float32 on disk, as the format says)."""
    tris32 = np.asarray(tris, dtype="<f4")
    n = np.cross(tris32[:, 1] - tris32[:, 0], tris32[:, 2] - tris32[:, 0]).astype(np.float64)
    n /= np.maximum(np.linalg.norm(n, axis=1, keepdims=True), 1e-300)
    rec = np.zeros(len(tris32), dtype=[("n", "<f4", 3), ("v", "<f4", (3, 3)), ("attr", "<u2")])
    rec["n"] = n
    rec["v"] = tris32
    path.write_bytes(b"meshbool-bench".ljust(80, b" ") + struct.pack("<I", len(rec)) + rec.tobytes())


def generate(workload: str, seed: int, outdir: Path) -> list[Op]:
    """Write the STL inputs of one pass of `workload` under outdir."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    # The mask maps negative seeds to distinct non-negative ones.
    rng = np.random.default_rng([seed & (2**64 - 1), WORKLOADS.index(workload)])
    ops = GENERATORS[workload](rng)
    outdir.mkdir(parents=True, exist_ok=True)
    for op in ops:
        op.path_a = outdir / f"{op.name}_a.stl"
        op.path_b = outdir / f"{op.name}_b.stl"
        write_stl(op.tris_a, op.path_a)
        write_stl(op.tris_b, op.path_b)
    return ops
