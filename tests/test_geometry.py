import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshbool import geometry, octree
from meshbool.errors import EmptyInput, NotClosed
from meshbool.geometry import (
    Aabb,
    TriMesh,
    aabb_intersection,
    compact_submesh,
    is_closed_manifold,
    mesh_aabb,
    scene_scale,
    signed_volume,
    triangle_areas,
    triangle_normals,
    unit_normals,
)
from meshbool.halfedge import SurfaceTopology
from meshbool.pipeline import run_pipeline
from meshes import cube, icosphere, lobed_blob, oracle_volume, torus_pair


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


def test_scene_scale_builds_each_box_once(monkeypatch):
    built = []
    monkeypatch.setattr(geometry, "mesh_aabb", lambda m, _box=mesh_aabb: built.append(m) or _box(m))
    a, b = cube((0, 0, 0), 1.0, "A"), cube((0.5, -2.0, 0.25), 1.5, "B")
    assert scene_scale(a, b) == 3.0  # y spans -2 to 1
    assert built == [a, b]


def test_disjoint_run_derives_the_scene_scale_once(monkeypatch):
    """Inputs whose boxes do not overlap give an empty root cube, and the run
    keeps the scale it derived before the broad phase: two boxes for that
    scale, two for the clip and two for the trivial path's repeated clip."""
    built = []

    def counted(mesh):
        built.append(mesh)
        return mesh_aabb(mesh)

    monkeypatch.setattr(geometry, "mesh_aabb", counted)
    monkeypatch.setattr(octree, "mesh_aabb", counted)
    state = run_pipeline(cube((0, 0, 0), 1.0, "A"), cube((3.0, 0.5, 0.25), 1.0, "B"))
    assert state.trivial and len(state.result.union) == 2
    assert len(built) == 6


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


# ---------------------------------------------------------------------------
# The face-geometry kernel against the row formulas it replaced
# ---------------------------------------------------------------------------


def old_normals(vertices, faces):
    p = vertices[faces]
    return np.cross(p[:, 1] - p[:, 0], p[:, 2] - p[:, 0])


def old_unit_normals(vertices, faces):
    n = old_normals(vertices, faces)
    lens = np.linalg.norm(n, axis=1)
    lens[lens == 0] = 1.0
    return n / lens[:, None]


def old_volume(mesh):
    p = mesh.vertices[mesh.faces]
    return float(np.einsum("ij,ij->i", p[:, 0], np.cross(p[:, 1], p[:, 2])).sum() / 6.0)


def volume_bound(mesh):
    """Both add the same products per face, three terms in another order
    (einsum pairs the first and last), then sum the faces pairwise. Bound:
    4 ulps of S / 6, S the sum of the terms' magnitudes; 9,000 shifted and
    scaled icospheres differ by at most 0.5 of those ulps. (The worst case
    grows with log2 of the face count.)"""
    p = mesh.vertices[mesh.faces]
    return 4 * np.spacing(np.abs(p[:, 0] * np.cross(p[:, 1], p[:, 2])).sum() / 6.0)


def kernel_meshes():
    """Closed fixtures, a soup with zero-area faces (a repeated corner, a
    collinear triple, one point three times) and a face with a -0.0 corner."""
    torus = torus_pair(1.0, 0.35, n_major=24, n_minor=12)[0]
    yield from (cube(), icosphere(1.3, subdivisions=3), torus, lobed_blob())
    verts = np.array([[0.0, 0, 0], [1, 0, 0], [2, 0, 0], [0, 1, 0], [-0.0, 0.5, 3]])
    yield TriMesh(verts, [[0, 1, 3], [0, 0, 3], [0, 1, 2], [4, 4, 4], [4, 1, 3]])


def assert_kernel_matches(mesh):
    v, f = mesh.vertices, mesh.faces
    n = old_normals(v, f)
    assert triangle_normals(v, f).tobytes() == n.tobytes()
    assert triangle_areas(v, f).tobytes() == (0.5 * np.linalg.norm(n, axis=1)).tobytes()
    want = old_unit_normals(v, f)
    assert unit_normals(v, f).tobytes() == want.tobytes()
    assert unit_normals(v, f, "<f4").tobytes() == want.astype("<f4").tobytes()
    if mesh.closed:
        assert abs(signed_volume(mesh) - old_volume(mesh)) <= volume_bound(mesh)


@pytest.mark.parametrize("scale", [2.0**-40, 1.0, 2.0**40])
def test_face_kernel_matches_the_row_formulas(scale):
    meshes = list(kernel_meshes())
    assert (old_normals(meshes[-1].vertices, meshes[-1].faces) == 0).all(axis=1).sum() == 3
    for mesh in meshes:
        assert_kernel_matches(TriMesh(mesh.vertices * scale, mesh.faces))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2.0**-40, 1.0, 2.0**40]))
def test_face_kernel_matches_the_row_formulas_on_random_soups(seed, scale):
    rng = np.random.default_rng(seed)
    verts = rng.standard_normal((30, 3)) * rng.choice([1e-3, 1.0, 1e3], size=(30, 1)) * scale
    assert_kernel_matches(TriMesh(verts, rng.integers(0, 30, size=(80, 3))))
    shifted = icosphere(1.0, subdivisions=2)
    assert_kernel_matches(TriMesh((shifted.vertices + rng.uniform(-5, 5, 3)) * scale, shifted.faces))


def old_compact(vertices, faces):
    used, inverse = np.unique(np.asarray(faces, dtype=np.int64).ravel(), return_inverse=True)
    return vertices[used], inverse.reshape(-1, 3)


@pytest.mark.parametrize("pick", ["unsorted", "repeated", "empty", "all"])
def test_compact_submesh_matches_unique(pick):
    ico = icosphere(1.0, subdivisions=2)
    rng = np.random.default_rng(5)
    faces = {
        "unsorted": ico.faces[rng.permutation(ico.num_faces)[:50]],
        "repeated": np.concatenate([ico.faces[[7, 3, 7]], [[9, 9, 2], [2, 2, 2]]]),
        "empty": np.zeros((0, 3), dtype=np.int64),
        "all": ico.faces,
    }[pick]
    got = compact_submesh(ico.vertices, faces, source="R", name="x")
    verts, want = old_compact(ico.vertices, faces)
    assert got.vertices.tobytes() == verts.tobytes() and got.vertices.shape == verts.shape
    assert got.faces.dtype == np.int64 and np.array_equal(got.faces, want)
    assert (got.source, got.name) == ("R", "x")
