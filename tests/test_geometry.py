import numpy as np
import pytest

from meshbool.errors import EmptyInput, NotClosed
from meshbool.geometry import (
    Aabb,
    TriMesh,
    aabb_intersection,
    compact_submesh,
    is_closed_manifold,
    mesh_aabb,
    signed_volume,
)
from meshbool.halfedge import SurfaceTopology
from meshes import cube, icosphere, oracle_volume


def test_mesh_aabb_cube():
    box = mesh_aabb(cube((0, 0, 0), 1.0))
    assert np.allclose(box.lo, [0, 0, 0]) and np.allclose(box.hi, [1, 1, 1])


def test_mesh_aabb_single_triangle():
    m = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    box = mesh_aabb(m)
    assert np.allclose(box.lo, [0, 0, 0]) and np.allclose(box.hi, [1, 1, 0])


def test_mesh_aabb_translation_equivariance():
    box = mesh_aabb(cube((2, 0, 0), 1.0))
    assert np.allclose(box.lo, [2, 0, 0]) and np.allclose(box.hi, [3, 1, 1])


def test_mesh_aabb_empty_mesh():
    with pytest.raises(EmptyInput):
        mesh_aabb(TriMesh(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.int64)))


def test_aabb_intersection_examples():
    a = Aabb(np.zeros(3), np.ones(3))
    b = Aabb(np.full(3, 0.5), np.full(3, 1.5))
    got = aabb_intersection(a, b)
    assert np.allclose(got.lo, 0.5) and np.allclose(got.hi, 1.0)
    assert aabb_intersection(a, Aabb(np.full(3, 2.0), np.full(3, 3.0))).is_empty
    assert aabb_intersection(a, a) == a


def test_aabb_intersection_algebra():
    rng = np.random.default_rng(7)
    for _ in range(50):
        lo = rng.uniform(-2, 1, size=(3, 3))
        hi = lo + rng.uniform(0.1, 2, size=(3, 3))
        a, b, c = (Aabb(lo[i], hi[i]) for i in range(3))
        assert aabb_intersection(a, b) == aabb_intersection(b, a)
        ab_c = aabb_intersection(aabb_intersection(a, b), c)
        a_bc = aabb_intersection(a, aabb_intersection(b, c))
        assert ab_c == a_bc
        assert aabb_intersection(a, a) == a


def test_signed_volume_cube():
    assert signed_volume(cube((0, 0, 0), 1.0)) == pytest.approx(1.0, abs=1e-12)


def test_signed_volume_reversed_cube():
    assert signed_volume(cube().reversed()) == pytest.approx(-1.0, abs=1e-12)


def test_signed_volume_icosphere_against_tet_sum_oracle():
    ico = icosphere(1.0, subdivisions=3)
    assert ico.num_faces == 1280
    fast = signed_volume(ico)
    brute = oracle_volume(ico)
    assert fast == pytest.approx(brute, rel=1e-12)
    assert fast == pytest.approx(4.0 * np.pi / 3.0, rel=0.01)


def test_signed_volume_translation_invariant():
    rng = np.random.default_rng(3)
    m = icosphere(0.8, subdivisions=2)
    v = signed_volume(m)
    for _ in range(5):
        t = rng.uniform(-10, 10, size=3)
        shifted = TriMesh(m.vertices + t, m.faces)
        assert abs(signed_volume(shifted) - v) < 1e-9 * abs(v)


def test_signed_volume_requires_closed():
    open_mesh = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    with pytest.raises(NotClosed):
        signed_volume(open_mesh)


def test_closed_and_manifold_checks():
    c = cube()
    assert c.closed and is_closed_manifold(c)
    open_mesh = TriMesh(c.vertices, c.faces[:-1])
    assert not open_mesh.closed
    assert len(open_mesh.boundary_loops()) == 1


def test_compact_submesh_and_components():
    c = cube()
    sub = compact_submesh(c.vertices, c.faces[:4])
    assert sub.num_faces == 4
    assert sub.faces.max() < sub.num_vertices
    two = TriMesh(
        np.concatenate([c.vertices, c.vertices + 10.0]),
        np.concatenate([c.faces, c.faces + 8]),
    )
    labels = SurfaceTopology(two.faces).flood_regions(walls=())
    assert np.bincount(labels).tolist() == [12, 12]
