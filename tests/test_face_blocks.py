"""The per-face passes in fixed blocks of faces give the bits of the frozen
whole-array helpers (tests/oracle_geometry.py): normals, areas and unit
normals bit for bit, the signed volume as an equal float, and binary STL as
equal bytes, at face counts around the block size and on drawn meshes with a
block of a few faces."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_geometry as frozen
from meshbool import geometry, io
from meshbool.geometry import TriMesh, signed_volume, triangle_areas, triangle_normals, unit_normals
from meshbool.io import save_mesh
from meshes import icosphere_arrays


def assert_helpers_match(mesh: TriMesh, tmp_dir):
    """Every blocked helper against its frozen copy on one mesh. The volume is
    taken as if the mesh were closed: the sum is the same arithmetic."""
    v, f = mesh.vertices, mesh.faces
    for got, want in (
        (triangle_normals(v, f), frozen.triangle_normals(v, f)),
        (triangle_areas(v, f), frozen.triangle_areas(v, f)),
        (unit_normals(v, f), frozen.unit_normals(v, f)),
        (unit_normals(v, f, "<f4"), frozen.unit_normals(v, f, "<f4")),
    ):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    closed = TriMesh(v, f, _closed=True)
    assert signed_volume(closed) == frozen.signed_volume(closed)
    got, want = tmp_dir / "got.stl", tmp_dir / "want.stl"
    save_mesh(closed, got)
    frozen.save_stl_binary(closed, want)
    assert got.read_bytes() == want.read_bytes()


def sphere_faces(count: int) -> TriMesh:
    """The first count faces of a turned and scaled 81,920-face icosphere,
    with some faces made degenerate (a repeated corner: a zero normal)."""
    v, f = icosphere_arrays(6)
    f = f[:count].copy()
    f[::97, 2] = f[::97, 0]
    turn = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))[0]
    return TriMesh(1.7 * v @ turn.T + [0.25, -3.0, 1e3], f)


BLOCK = geometry.BLOCK


@pytest.mark.parametrize("count", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 7])
def test_block_edges_match_frozen_helpers(count, tmp_path):
    assert_helpers_match(sphere_faces(count), tmp_path)


FINITE = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)


@st.composite
def soups(draw):
    """A few vertices, some repeated or at wide scales, and faces that may
    repeat a corner."""
    n = draw(st.integers(3, 12))
    verts = np.asarray(draw(st.lists(st.tuples(FINITE, FINITE, FINITE), min_size=n, max_size=n)))
    faces = draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3), max_size=40))
    return TriMesh(verts, np.asarray(faces, dtype=np.int64).reshape(-1, 3))


@pytest.fixture(scope="module")
def stl_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("stl")


@settings(max_examples=150, deadline=None)
@given(mesh=soups(), block=st.integers(1, 7))
def test_drawn_meshes_match_frozen_helpers(mesh, block, stl_dir):
    """A block of 1 to 7 faces splits a drawn mesh of up to 40 faces into
    many blocks and a short last one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "BLOCK", block)
        mp.setattr(io, "BLOCK", block)
        assert_helpers_match(mesh, stl_dir)
