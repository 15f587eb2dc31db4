"""The broad phase's column-wise box code against its frozen (m, 3) form.

Aabb.of_points, triangle_boxes and clip_to_shared_region reduce, mask and
gather one coordinate column at a time. A min or max over a column may pick
either of two equal signed zeros, so the soups draw their coordinates from
a small pool of dyadic values holding both 0.0 and -0.0: columns repeat
values, and zeros of both signs tie. On them the column forms must give the
bits of the (m, 3) forms in tests/oracle_broad_phase.py: the same boxes, the
same ids and the same cube.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_broad_phase as oracle
from meshbool.geometry import Aabb, TriMesh
from meshbool.octree import clip_to_shared_region, triangle_boxes

POOL = (0.0, -0.0, 0.25, -0.25, 0.5, -0.5, 1.0, -1.0, 0.375)


def same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes(), (got, want)  # C-order bytes, whatever the layout


def same_box(got: Aabb, want: Aabb):
    same_bits(got.lo, want.lo)
    same_bits(got.hi, want.hi)


@st.composite
def points(draw, min_size=1, max_size=80):
    """(n, 3) pool coordinates, C- or Fortran-ordered."""
    coord = st.sampled_from(POOL)
    rows = draw(st.lists(st.tuples(coord, coord, coord), min_size=min_size, max_size=max_size))
    pts = np.asarray(rows, dtype=np.float64)
    return np.asfortranarray(pts) if draw(st.booleans()) else pts


@st.composite
def soups(draw, source):
    v = draw(points(min_size=3))
    corner = st.integers(0, len(v) - 1)
    faces = draw(st.lists(st.tuples(corner, corner, corner), min_size=1, max_size=40))
    return TriMesh(v, faces, source=source)


@settings(max_examples=200, deadline=None)
@given(points())
def test_of_points_matches_row_form(pts):
    same_box(Aabb.of_points(pts), oracle.of_points(pts))


@settings(max_examples=200, deadline=None)
@given(soups("A"))
def test_triangle_boxes_match_row_form(mesh):
    for got, want in zip(triangle_boxes(mesh), oracle.triangle_boxes(mesh)):
        same_bits(got, want)


@settings(max_examples=200, deadline=None)
@given(soups("A"), soups("B"), st.sampled_from([0.0, 0.75, 2.5]), st.integers(0, 2))
def test_clip_matches_row_form(a, b, shift, axis):
    """Overlapping, partly overlapping (0.75) and disjoint (2.5) boxes; only
    the shifted column is touched, so the others keep their -0.0."""
    if shift:
        v = b.vertices.copy()
        v[:, axis] += shift
        b = TriMesh(v, b.faces, source="B")
    (ids_a, ids_b, cube, boxes), (want_a, want_b, want_cube, want_boxes) = (
        clip_to_shared_region(a, b), oracle.clip_to_shared_region(a, b))
    same_bits(ids_a, want_a)
    same_bits(ids_b, want_b)
    same_box(cube, want_cube)
    assert (boxes is None) == (want_boxes is None)
    for got, want in zip(boxes or (), want_boxes or ()):
        same_bits(got[0], want[0])
        same_bits(got[1], want[1])


def test_long_columns_match_row_form():
    """Columns long enough for every unrolled and vectorised reduction path,
    at lengths around their strides."""
    rng = np.random.default_rng(5)
    for n in (*range(1, 40), 255, 256, 257, 1000, 20_481):
        pts = rng.choice(POOL, size=(n, 3))
        for layout in (pts, np.asfortranarray(pts)):
            same_box(Aabb.of_points(layout), oracle.of_points(layout))
        if n >= 3:
            a = TriMesh(pts, rng.integers(0, n, size=(n, 3)))
            b = TriMesh(pts[::-1].copy(), rng.integers(0, n, size=(n, 3)), source="B")
            for got, want in zip(triangle_boxes(a), oracle.triangle_boxes(a)):
                same_bits(got, want)
            got, want = clip_to_shared_region(a, b), oracle.clip_to_shared_region(a, b)
            same_bits(got[0], want[0])
            same_bits(got[1], want[1])
            same_box(got[2], want[2])
