import numpy as np
import pytest

from meshbool.errors import GeometryError, NotSimple
from meshbool.retriangulate import (
    ear_clip,
    split_and_triangulate,
    split_triangle,
)
from meshes import oracle_shoelace, random_simple_polygon

TRI = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])


def poly_area3d(ring):
    ring = np.asarray(ring, dtype=float)
    total = np.zeros(3)
    for i in range(1, len(ring) - 1):
        total += np.cross(ring[i] - ring[0], ring[i + 1] - ring[0])
    return 0.5 * np.linalg.norm(total)


# --- split_triangle -------------------------------------------------------


def test_single_chord_two_polygons():
    segs = [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))]
    polys = split_triangle(TRI, segs, 1e-9)
    assert len(polys) == 2


def test_no_segments_identity():
    polys = split_triangle(TRI, [], 1e-9)
    assert len(polys) == 1
    assert np.array_equal(polys[0].vertices, TRI)


def test_two_noncrossing_chords_three_polygons_area_sum():
    segs = [
        (np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])),
        (np.array([1.5, 0.0, 0.0]), np.array([0.0, 1.5, 0.0])),
    ]
    polys = split_triangle(TRI, segs, 1e-9)
    assert len(polys) == 3
    total = sum(oracle_shoelace(p.ring2d) for p in polys)
    assert total == pytest.approx(2.0, rel=1e-12)


def test_interior_closed_loop_makes_hole_and_disk():
    square = [
        np.array([0.3, 0.3, 0.0]), np.array([0.7, 0.3, 0.0]),
        np.array([0.7, 0.7, 0.0]), np.array([0.3, 0.7, 0.0]),
    ]
    segs = [(square[i], square[(i + 1) % 4]) for i in range(4)]
    polys = split_triangle(TRI, segs, 1e-9)
    assert len(polys) == 2
    holed = [p for p in polys if p.holes]
    assert len(holed) == 1 and len(holed[0].holes) == 1
    tris = split_and_triangulate(TRI, segs, 1e-9)
    area = sum(poly_area3d(t) for t in tris)
    assert area == pytest.approx(2.0, rel=1e-9)


def test_segment_outside_triangle_raises():
    segs = [(np.array([3.0, 3.0, 0.0]), np.array([4.0, 4.0, 0.0]))]
    with pytest.raises(GeometryError):
        split_triangle(TRI, segs, 1e-9)


def test_dangling_tail_pruned():
    segs = [(np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.5, 0.0]))]
    polys = split_triangle(TRI, segs, 1e-9)
    assert len(polys) == 1  # a slit does not divide the triangle
    tris = split_and_triangulate(TRI, segs, 1e-9)
    assert sum(poly_area3d(t) for t in tris) == pytest.approx(2.0, rel=1e-9)


def test_junction_star_splits_into_sectors():
    center = np.array([0.5, 0.5, 0.0])
    spokes = [
        np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.5, 0.0]),
        np.array([1.5, 0.5, 0.0]), np.array([0.5, 1.5, 0.0]),  # on the hypotenuse
    ]
    segs = [(center, s) for s in spokes]
    polys = split_triangle(TRI, segs, 1e-9)
    assert len(polys) == 4
    total = sum(oracle_shoelace(p.ring2d) for p in polys)
    assert total == pytest.approx(2.0, rel=1e-12)


# --- ear_clip -------------------------------------------------------------


def test_ear_clip_triangle_identity():
    tris = ear_clip(np.array([[0, 0], [1, 0], [0, 1]], dtype=float))
    assert len(tris) == 1


def test_ear_clip_convex_quad():
    tris = ear_clip(np.array([[0, 0], [1, 0], [1, 1], [0, 1]], dtype=float))
    assert len(tris) == 2


def test_ear_clip_random_10gon():
    rng = np.random.default_rng(1)
    ring = random_simple_polygon(rng, 10)
    tris = ear_clip(ring)
    assert len(tris) == 8
    area = sum(
        oracle_shoelace([ring[i], ring[j], ring[k]]) for i, j, k in tris
    )
    assert area == pytest.approx(oracle_shoelace(ring), rel=1e-12)


def test_ear_clip_count_and_area_laws_200_random():
    rng = np.random.default_rng(2024)
    for trial in range(200):
        n = int(rng.integers(4, 24))
        ring = random_simple_polygon(rng, n)
        tris = ear_clip(ring)
        assert len(tris) == n - 2, f"trial {trial}"
        area = sum(oracle_shoelace([ring[i], ring[j], ring[k]]) for i, j, k in tris)
        expect = oracle_shoelace(ring)
        assert abs(area - expect) <= 1e-10 * abs(expect), f"trial {trial}"
        # all triangles CCW: no inverted output on simple input
        assert all(
            oracle_shoelace([ring[i], ring[j], ring[k]]) >= 0 for i, j, k in tris
        ), f"trial {trial}"


def test_ear_clip_collinear_vertices_preserved():
    # mid-edge vertex must appear in the output (T-junction safety)
    ring = np.array([[0, 0], [1, 0], [2, 0], [2, 2], [0, 2]], dtype=float)
    tris = ear_clip(ring)
    assert len(tris) == 3
    used = {i for t in tris for i in t}
    assert 1 in used


def test_ear_clip_square_with_hole():
    outer = np.array([[0, 0], [4, 0], [4, 4], [0, 4]], dtype=float)
    hole = np.array([[1, 1], [1, 2], [2, 2], [2, 1]], dtype=float)  # CW
    tris = ear_clip(outer, [hole])
    pts = np.concatenate([outer, hole])
    area = sum(oracle_shoelace([pts[i], pts[j], pts[k]]) for i, j, k in tris)
    assert area == pytest.approx(15.0, rel=1e-10)


def test_ear_clip_rejects_self_intersection():
    bowtie = np.array([[0, 0], [2, 2], [2, 0], [0, 2]], dtype=float)
    with pytest.raises(NotSimple):
        ear_clip(bowtie)


def test_winding_preserved_through_split():
    segs = [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))]
    tris = split_and_triangulate(TRI, segs, 1e-9)
    parent_n = np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0])
    for t in tris:
        n = np.cross(t[1] - t[0], t[2] - t[0])
        assert n @ parent_n > 0
