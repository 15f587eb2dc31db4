"""The STL weld and the containment test in bounded working sets give what
their whole-array forms (tests/oracle_io_blocks.py) give: the weld the same
vertex bits and faces for float32 and float64 soups with repeated rows and
signed zeros, the containment test the same verdicts, retries and errors at
face counts around the block size and on drawn meshes with a block of a few
faces."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_io_blocks as frozen
from meshbool import blocks, geometry
from meshbool.errors import ClassificationError, EmptyInput
from meshbool.geometry import TriMesh
from meshbool.io import _index_soup
from meshes import icosphere_arrays

BLOCK = geometry.BLOCK


def assert_same_weld(tris: np.ndarray):
    """The weld of tris (float32 or float64) against the frozen weld of its
    float64 copy: equal vertex bytes (so -0.0 is not 0.0), equal faces."""
    try:
        want = frozen.index_soup(tris.astype(np.float64))
    except EmptyInput:
        with pytest.raises(EmptyInput):
            _index_soup(tris, "A", "soup")
        return
    got = _index_soup(tris, "A", "soup")
    assert got.vertices.dtype == np.float64 and got.vertices.tobytes() == want.vertices.tobytes()
    assert got.faces.dtype == np.int64 and np.array_equal(got.faces, want.faces)


# A small pool of rows, so corners repeat; zeros get either sign per corner.
_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0 ** -30, 3.0e5]) | st.floats(-1e3, 1e3, width=32)


@st.composite
def _soups(draw):
    pool = np.asarray(draw(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=8)))
    m = draw(st.integers(1, 30))
    corners = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=3 * m, max_size=3 * m))]
    flip = np.asarray(draw(st.lists(st.booleans(), min_size=9 * m, max_size=9 * m))).reshape(-1, 3)
    corners = np.where((corners == 0) & flip, -corners, corners)
    return corners.reshape(m, 3, 3)


@settings(max_examples=200, deadline=None)
@given(_soups())
def test_drawn_soups_weld_as_frozen(tris):
    assert_same_weld(tris)
    assert_same_weld(tris.astype("<f4"))


def test_signed_zero_rows_weld_into_the_first_in_sort_order():
    """(0, 0, 0) and (-0.0, 0, 0) are one vertex: the row first in the
    stable sort, here the earlier corner, gives its bits."""
    tris = np.array([[[-0.0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0.0, 0, 0], [0, 1, 0], [0, 0, 1]]])
    for dtype in (np.float64, np.float32):
        mesh = _index_soup(tris.astype(dtype), "A", "soup")
        assert mesh.num_vertices == 4 and np.signbit(mesh.vertices[mesh.faces[1, 0], 0])
        assert_same_weld(tris.astype(dtype))


def _verdict(fn, point, mesh):
    try:
        with np.errstate(invalid="ignore"):  # a drawn mesh may have zero extent: 0 / 0
            return fn(point, mesh)
    except ClassificationError:
        return "error"


def sphere_prefix(count: int) -> TriMesh:
    """The first count faces of a turned, moved 81,920-face icosphere."""
    v, f = icosphere_arrays(6)
    turn = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
    return TriMesh(1.3 * v @ turn.T + [0.5, -2.0, 40.0], f[:count])


def _grazing(mesh: TriMesh, face: int = 0) -> np.ndarray:
    """A point whose first ray passes through a vertex of face: grazing."""
    return mesh.vertices[mesh.faces[face, 1]] - 0.7 * frozen.RAY_DIRS[0]


@pytest.mark.parametrize("count", [BLOCK - 1, BLOCK, BLOCK + 1, 20 * BLOCK])
def test_block_edges_match_frozen_containment(count):
    mesh = sphere_prefix(count)
    scale = max(float(np.ptp(c)) for c in mesh.vertices.T)
    on_face = mesh.vertices[mesh.faces[0]].mean(axis=0)  # grazes every ray: an error
    points = [[0.5, -2.0, 40.0], [0.6, -1.9, 40.2], [5.0, 0.0, 0.0], on_face,
              _grazing(mesh), _grazing(mesh, count - 1)]
    for point in points:
        assert _verdict(blocks.point_in_closed_mesh, point, mesh) == _verdict(frozen.point_in_closed_mesh, point, mesh)
    tris = mesh.vertices[mesh.faces]
    assert frozen.ray_parity(points[4], frozen.RAY_DIRS[0], tris, scale)[1]  # a retry is forced
    assert _verdict(frozen.point_in_closed_mesh, on_face, mesh) == "error"


_FINITE = st.floats(-100, 100, allow_nan=False)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), block=st.integers(1, 7))
def test_drawn_meshes_match_frozen_containment(data, block):
    """Meshes of up to 40 faces over a few drawn vertices, split into blocks
    of 1 to 7 faces; the point is drawn or put on a first ray's grazing path."""
    n = data.draw(st.integers(3, 10))
    verts = np.asarray(data.draw(st.lists(st.tuples(_FINITE, _FINITE, _FINITE), min_size=n, max_size=n)))
    faces = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3), min_size=1, max_size=40))
    mesh = TriMesh(verts, np.asarray(faces, dtype=np.int64))
    point = data.draw(st.one_of(st.tuples(_FINITE, _FINITE, _FINITE).map(np.asarray),
                                st.integers(0, len(faces) - 1).map(lambda f: _grazing(mesh, f))))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(blocks, "BLOCK", block)
        got = _verdict(blocks.point_in_closed_mesh, point, mesh)
    assert got == _verdict(frozen.point_in_closed_mesh, point, mesh)
