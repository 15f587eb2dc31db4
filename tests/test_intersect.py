from unittest import mock

import numpy as np
import pytest

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import meshbool.intersect as intersect_mod
import oracle_intersect as oracle
from meshbool.errors import CoplanarPairError, DegenerateTriangle, GeometryError
from meshbool.geometry import TriMesh
from meshbool.intersect import COPLANAR, SegmentTable, intersect_all, tri_tri_intersect
from meshbool.octree import find_candidates, triangle_boxes
from meshes import (
    blob_and_plane,
    cube,
    icosphere,
    nested_pair,
    oracle_intersect_all,
    tangent_cylinders,
    torus_pair,
    vw_pair,
)


def seg_points(seg):
    return {tuple(np.round(seg.p0, 10)), tuple(np.round(seg.p1, 10))}


def interval_clip_oracle(ta, tb):
    """Independent endpoint computation: chord of each triangle on the other
    plane by explicit edge-plane lerp, then 1D interval overlap."""

    def chord(tri, other):
        n = np.cross(other[1] - other[0], other[2] - other[0])
        d = [float(n @ (v - other[0])) for v in tri]
        pts = []
        for i in range(3):
            j = (i + 1) % 3
            if d[i] == 0.0:
                pts.append(tri[i])
            if d[i] * d[j] < 0:
                t = d[i] / (d[i] - d[j])
                pts.append(tri[i] + t * (tri[j] - tri[i]))
        return pts

    ca, cb = chord(ta, tb), chord(tb, ta)
    axis = np.cross(
        np.cross(ta[1] - ta[0], ta[2] - ta[0]), np.cross(tb[1] - tb[0], tb[2] - tb[0])
    )
    axis = axis / np.linalg.norm(axis)
    sa = sorted((float(p @ axis), tuple(p)) for p in ca)
    sb = sorted((float(p @ axis), tuple(p)) for p in cb)
    lo = max(sa[0], sb[0])
    hi = min(sa[-1], sb[-1])
    return np.asarray(lo[1]), np.asarray(hi[1])


def test_parallel_triangles_disjoint_planes():
    ta = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    tb = ta + [0, 0, 1]
    assert tri_tri_intersect(ta, tb, 1e-12) is None


def test_perpendicular_pair_matches_interval_clip_oracle():
    ta = np.array([(-1, -1, 0), (2, -1, 0), (-1, 2, 0)], dtype=float)
    tb = np.array([(0, 0, -1), (1, 0, -1), (0.5, 0, 2)], dtype=float)
    seg = tri_tri_intersect(ta, tb, 1e-12)
    assert seg is not None and seg is not COPLANAR and not seg.degenerate
    lo, hi = interval_clip_oracle(ta, tb)
    assert {tuple(np.round(lo, 10)), tuple(np.round(hi, 10))} == seg_points(seg)
    # frozen values from the oracle: x in [1/6, 5/6] on the x-axis
    assert sorted([seg.p0[0], seg.p1[0]]) == pytest.approx([1 / 6, 5 / 6], abs=1e-12)
    assert abs(seg.p0[1]) < 1e-12 and abs(seg.p0[2]) < 1e-12


def test_shared_vertex_degenerate_contact():
    ta = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    tb = np.array([[0, 0, 0], [-1, 0, 1], [0, -1, 1]], dtype=float)
    seg = tri_tri_intersect(ta, tb, 1e-12)
    assert seg is not None and seg.degenerate


def test_symmetry_random_pairs():
    rng = np.random.default_rng(11)
    hits = 0
    for _ in range(300):
        ta = rng.uniform(-1, 1, size=(3, 3))
        tb = rng.uniform(-1, 1, size=(3, 3))
        r1 = tri_tri_intersect(ta, tb, 1e-12)
        r2 = tri_tri_intersect(tb, ta, 1e-12)
        assert (r1 is None) == (r2 is None)
        if r1 is not None and r1 is not COPLANAR and not r1.degenerate:
            hits += 1
            assert seg_points(r1) == seg_points(r2)
    assert hits > 20  # the sample actually exercised the interesting branch


def test_endpoints_on_both_planes():
    rng = np.random.default_rng(5)
    for _ in range(200):
        ta = rng.uniform(-1, 1, size=(3, 3))
        tb = rng.uniform(-1, 1, size=(3, 3))
        seg = tri_tri_intersect(ta, tb, 1e-12)
        if seg is None or seg is COPLANAR or seg.degenerate:
            continue
        for tri in (ta, tb):
            n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
            n = n / np.linalg.norm(n)
            for p in (seg.p0, seg.p1):
                assert abs(n @ (p - tri[0])) < 1e-9


def test_degenerate_input_raises():
    ta = np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float)
    tb = np.array([[0, 0, -1], [1, 0, 1], [0, 1, 1]], dtype=float)
    with pytest.raises(DegenerateTriangle):
        tri_tri_intersect(ta, tb, 1e-9)


@pytest.mark.parametrize("flip", [False, True])
def test_chord_within_tolerance_matches_oracle(flip):
    """A's apex pokes through B's plane by more than the tolerance, but its
    two crossing points lie closer together than the tolerance: the chord is
    one point, a point contact on the chord's first crossing point."""
    ta = np.array([[0, 0, 2e-9], [0.1, 0, -1], [0, 0.1, -1]])
    tb = np.array([[-1, -1, 0], [2, -1, 0], [-1, 2, 0]], dtype=float)
    if flip:
        ta = ta[:, [1, 0, 2]]
    got = pair_outcome(tri_tri_intersect, ta, tb, 1e-9)
    assert got[0] is True and got == pair_outcome(oracle.tri_tri_intersect, ta, tb, 1e-9)


def test_coplanar_overlap_reported_and_strict_aborts():
    ta = np.array([[0, 0, 0], [2, 0, 0], [0, 2, 0]], dtype=float)
    tb = np.array([[0.5, 0.5, 0], [1.5, 0.5, 0], [0.5, 1.5, 0]], dtype=float)
    assert tri_tri_intersect(ta, tb, 1e-12) is COPLANAR
    # coplanar but far apart: plain miss
    tc = tb + [10, 0, 0]
    assert tri_tri_intersect(ta, tc, 1e-12) is None

    a = TriMesh(ta, [[0, 1, 2]], source="A")
    b = TriMesh(tb, [[0, 1, 2]], source="B")
    pairs = np.array([[0, 0]])
    segs, report = intersect_all(pairs, a, b, 1e-12)
    assert len(segs) == 0 and report.coplanar_pairs == [(0, 0)]
    with pytest.raises(CoplanarPairError):
        intersect_all(pairs, a, b, 1e-12, strict=True)


def test_empty_pair_set():
    a = TriMesh([[0, 0, 0], [1, 0, 0], [0, 1, 0]], [[0, 1, 2]])
    segs, report = intersect_all(np.zeros((0, 2), dtype=np.int64), a, a, 1e-12)
    assert len(segs) == 0 and not segs


def narrow_outcome(fn, *args, **kw):
    """Everything a narrow-phase call returns, exact to the byte, or the
    class and message of the error it raises."""
    try:
        segs, report = fn(*args, **kw)
    except GeometryError as exc:
        return type(exc), str(exc)
    if isinstance(segs, SegmentTable):  # by columns; a table holds no degenerate segment
        rows = zip(segs.tri_a.tolist(), segs.tri_b.tolist(), [False] * len(segs), segs.p0, segs.p1)
    else:  # the oracle's list of IntersectionSegment
        rows = ((s.tri_a, s.tri_b, s.degenerate, s.p0, s.p1) for s in segs)
    return (
        [(ta, tb, degenerate, p0.tobytes(), p1.tobytes()) for ta, tb, degenerate, p0, p1 in rows],
        list(report.coplanar_pairs),
        report.point_contacts,
    )


def assert_matches_oracle(pairs, a, b, tol, threads=(1, 4), **oracle_kw):
    """Compare with and without strict; returns the non-strict outcome."""
    outcomes = []
    for strict in (False, True):
        got = narrow_outcome(intersect_all, pairs, a, b, tol, strict=strict)
        for n in threads:
            expect = narrow_outcome(oracle_intersect_all, pairs, a, b, tol,
                                    threads=n, strict=strict, **oracle_kw)
            assert got == expect, (strict, n)
        outcomes.append(got)
    return outcomes[0]


def test_thread_count_invariance_on_torus_fixture():
    """The serial narrow phase equals the thread-pooled oracle at 1 and 4
    threads; the small oracle chunk makes the pool really run."""
    a, b = torus_pair(1.0, 0.35, n_major=24, n_minor=12)
    pairs = find_candidates(a, b)
    segs, _, _ = assert_matches_oracle(pairs, a, b, 1e-12 * 3.0, chunk=64)
    assert len(segs) > 0 and len(pairs) > 4 * 64


def _coplanar_cubes():
    return cube((0, 0, 0), 1.0, "A"), cube((0.5, 0.5, 0), 1.0, "B")


NARROW_FIXTURES = {
    "cube_sphere": lambda: (cube((-1, -1, -1), 2.0, "A"), icosphere(1.3, subdivisions=3, source="B")),
    "torus_pair": lambda: torus_pair(1.0, 0.35, n_major=24, n_minor=12),
    "blob_and_plane": blob_and_plane,
    "vw_pair": vw_pair,
    "tangent_cylinders": lambda: tangent_cylinders(1.0, n_theta=24, n_rings=9),
    "coplanar_cubes": _coplanar_cubes,
    # Many box survivors and no straddle; at CHUNK = 5 whole blocks of pairs
    # have no survivor.
    "nested_pair": lambda: nested_pair(subdivisions=2),
}


@pytest.mark.parametrize("name", sorted(NARROW_FIXTURES))
def test_matches_pooled_oracle_on_fixtures(name, monkeypatch):
    a, b = NARROW_FIXTURES[name]()
    pairs = find_candidates(a, b)
    tol = 1e-12 * float(np.ptp(np.concatenate([a.vertices, b.vertices]), axis=0).max())
    got = assert_matches_oracle(pairs, a, b, tol)
    # chunk boundaries move nothing: a tiny chunk on both sides
    monkeypatch.setattr(intersect_mod, "CHUNK", 5)
    assert assert_matches_oracle(pairs, a, b, tol, chunk=37) == got
    segs, coplanar, _ = got
    if name == "nested_pair":
        assert segs == [] and coplanar == []
    else:
        assert coplanar if name == "coplanar_cubes" else segs


def test_segments_sorted_for_unsorted_pairs():
    a, b = torus_pair(1.0, 0.35, n_major=24, n_minor=12)
    pairs = find_candidates(a, b)[::-1].copy()
    assert_matches_oracle(pairs, a, b, 1e-12 * 3.0, threads=(1,))


# Dyadic grid: box faces meet exactly (the <= ties), corners are shared
# between A and B, edges lie in the other triangle's plane, and triangles
# on one grid plane overlap exactly coplanar.
GRID = st.integers(0, 4).map(lambda k: k * 0.25)


@st.composite
def triangle_soup_pair(draw):
    pool = draw(st.lists(st.tuples(GRID, GRID, GRID), min_size=4, max_size=9, unique=True))
    pool = np.asarray(pool, dtype=np.float64)
    if draw(st.booleans()):  # half the pool on one plane: coplanar overlaps
        pool[: len(pool) // 2 + 1, 2] = 0.5

    def side():
        tris = []
        for _ in range(draw(st.integers(1, 6))):
            i, j, k = draw(st.lists(st.integers(0, len(pool) - 1), min_size=3, max_size=3, unique=True))
            tri = pool[[i, j, k]].copy()
            if draw(st.booleans()):  # sliver: the apex near the opposite edge
                eps = 2.0 ** -draw(st.integers(4, 30))
                tri[2] = 0.5 * (tri[0] + tri[1]) + eps * (tri[2] - 0.5 * (tri[0] + tri[1]))
            if np.linalg.norm(np.cross(tri[1] - tri[0], tri[2] - tri[0])) > 0:
                tris.append(tri)
        return tris

    ta, tb = side(), side()
    assume(ta and tb)
    mesh = lambda tris: TriMesh(np.concatenate(tris), np.arange(3 * len(tris)).reshape(-1, 3))
    return mesh(ta), mesh(tb)


@settings(max_examples=150, deadline=None)
@given(triangle_soup_pair())
def test_matches_pooled_oracle_on_dyadic_soups(soups):
    a, b = soups
    ga, gb = np.meshgrid(np.arange(a.num_faces), np.arange(b.num_faces), indexing="ij")
    pairs = np.stack([ga.ravel(), gb.ravel()], axis=1)
    assert_matches_oracle(pairs, a, b, 1e-12, chunk=4)


@settings(max_examples=150, deadline=None)
@given(triangle_soup_pair(), st.data())
def test_triangle_boxes_match_frozen_reduction(soups, data):
    """Pairwise per-axis min/max equals the (m, 3, 3) reduction byte for byte:
    corners repeated within a face, coordinates shared across corners, and
    signs flipped per coordinate, so 0.0 and -0.0 meet on one axis of one
    triangle next to smaller and larger corners."""
    for mesh in soups:
        n = len(mesh.vertices)
        extra = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=3, max_size=3), max_size=6))
        faces = np.concatenate([mesh.faces, np.asarray(extra, dtype=np.int64).reshape(-1, 3)])
        flip = data.draw(st.lists(st.booleans(), min_size=3 * n, max_size=3 * n))
        m = TriMesh(np.where(np.reshape(flip, (n, 3)), -mesh.vertices, mesh.vertices), faces)
        for got, want in zip(triangle_boxes(m), oracle.triangle_boxes(m)):
            assert got.tobytes() == want.tobytes()


def test_degenerate_triangle_raises_only_when_its_box_overlaps():
    line = TriMesh([[0, 0, 0.5], [1, 0, 0.5], [2, 0, 0.5]], [[0, 1, 2]], source="A")
    far = TriMesh([[5, 5, 5], [6, 5, 5], [5, 6, 5]], [[0, 1, 2]], source="B")
    near = TriMesh([[0.5, -1, 0], [0.5, 1, 0], [0.5, 0, 1]], [[0, 1, 2]], source="B")
    pairs = np.array([[0, 0]])
    assert narrow_outcome(intersect_all, pairs, line, far, 1e-12) == ([], [], 0)
    assert_matches_oracle(pairs, line, far, 1e-12)
    got = assert_matches_oracle(pairs, line, near, 1e-12)
    assert got[0] is DegenerateTriangle


# One triangle pair at a time, against the old per-pair test. Corners sit on a
# dyadic grid and the second triangle is built from the first, so shared
# corners and edges, edges in the other plane and coplanar overlaps are exact;
# slivers reach 2**-30 and zero-area triangles (collinear or repeated corners)
# ride along. The rigid move by a power-of-two scale and a random shift keeps
# every relation but puts the coordinates off the grid.
QUARTERS = st.integers(-4, 4).map(lambda k: k * 0.25)
MODES = ("free", "shared_vertex", "shared_edge", "edge_in_plane", "coplanar", "zero_area")


@st.composite
def triangle_pairs(draw, tols=(0.0, 1e-12, 1e-9, 2.0 ** -20)):
    corner = lambda: [draw(QUARTERS) for _ in range(3)]
    ta = np.array([corner() for _ in range(3)])
    tb = np.array([corner() for _ in range(3)])
    in_plane = lambda: ta[0] + draw(QUARTERS) * (ta[1] - ta[0]) + draw(QUARTERS) * (ta[2] - ta[0])
    mode = draw(st.sampled_from(MODES))
    if mode == "shared_vertex":
        tb[0] = ta[draw(st.integers(0, 2))]
    elif mode == "shared_edge":
        i = draw(st.integers(0, 2))
        tb[0], tb[1] = ta[i], ta[(i + 1) % 3]
    elif mode == "edge_in_plane":
        tb[0], tb[1] = in_plane(), in_plane()
    elif mode == "coplanar":
        tb = np.array([in_plane() for _ in range(3)])
    elif mode == "zero_area":
        tb[2] = tb[0] + draw(QUARTERS) * (tb[1] - tb[0])
    for tri in (ta, tb):
        if draw(st.booleans()):  # sliver: the apex near the opposite edge
            mid = 0.5 * (tri[0] + tri[1])
            tri[2] = mid + 2.0 ** -draw(st.integers(4, 30)) * (tri[2] - mid)
    if draw(st.booleans()):
        ta, tb = tb, ta
    if draw(st.booleans()):
        shift = np.array([draw(st.floats(-8, 8, allow_subnormal=False)) for _ in range(3)])
        scale = 2.0 ** draw(st.integers(-20, 20))
        ta, tb = ta * scale + shift, tb * scale + shift
    tol = draw(st.sampled_from(tols))
    return ta, tb, tol


def pair_outcome(fn, ta, tb, tol):
    """A one-pair result exact to the byte, or the class of the error."""
    try:
        res = fn(ta, tb, tol)
    except GeometryError as exc:
        return type(exc)
    if res is None or isinstance(res, str):
        return res
    return res.degenerate, res.tri_a, res.tri_b, res.p0.tobytes(), res.p1.tobytes()


@settings(max_examples=600, deadline=None)
@given(triangle_pairs())
def test_tri_tri_intersect_matches_oracle_on_pair_strategy(pair):
    ta, tb, tol = pair
    assert pair_outcome(tri_tri_intersect, ta, tb, tol) == pair_outcome(oracle.tri_tri_intersect, ta, tb, tol)


# plane_tol is positive in the pipeline. At 0 the old module is no oracle for
# itself: its chunk prefilter and its pair test computed the distances with
# two formulas, and where an exact zero comes out as a rounding residue they
# disagree in sign (the prefilter keeps a pair the pair test then rejects).
@settings(max_examples=300, deadline=None)
@given(triangle_pairs(tols=(1e-12, 1e-9, 2.0 ** -20)))
def test_intersect_all_matches_oracle_on_pair_strategy(pair):
    ta, tb, tol = pair
    a = TriMesh(ta, [[0, 1, 2]], source="A")
    b = TriMesh(tb, [[0, 1, 2]], source="B")
    assert_matches_oracle(np.array([[0, 0]]), a, b, tol, threads=(1,))


@st.composite
def packed_pairs(draw):
    """Many triangle_pairs draws side by side in one TriMesh pair under one
    tolerance, so crossing rows and degenerate rows (shared corners and edges,
    edges in the other plane, coplanar pairs, zero-area triangles, slivers)
    meet in one chunk. Most calls drop the zero-area draws and run to the end."""
    tol = draw(st.sampled_from((1e-12, 1e-9, 2.0 ** -20)))
    draws = draw(st.lists(triangle_pairs(), min_size=2, max_size=12))
    tris = [(ta, tb) for ta, tb, _ in draws]
    if draw(st.integers(0, 3)):
        area = lambda t: np.linalg.norm(np.cross(t[1] - t[0], t[2] - t[0]))
        tris = [(ta, tb) for ta, tb in tris if min(area(ta), area(tb)) > tol * tol]
    assume(tris)
    mesh = lambda side: TriMesh(np.concatenate(side), np.arange(3 * len(side)).reshape(-1, 3))
    return mesh([ta for ta, _ in tris]), mesh([tb for _, tb in tris]), tol


@settings(max_examples=150, deadline=None)
@given(packed_pairs())
def test_packed_pair_draws_match_oracle(packed):
    """Every pair of the packed triangles, at the default CHUNK and at 5:
    segment bytes, coplanar order and point contacts, with and without
    strict."""
    a, b, tol = packed
    ga, gb = np.meshgrid(np.arange(a.num_faces), np.arange(b.num_faces), indexing="ij")
    pairs = np.stack([ga.ravel(), gb.ravel()], axis=1)
    got = assert_matches_oracle(pairs, a, b, tol, threads=(1,))
    with mock.patch.object(intersect_mod, "CHUNK", 5):
        assert assert_matches_oracle(pairs, a, b, tol, threads=(1,), chunk=5) == got


@pytest.mark.parametrize("name", ["cube_sphere", "coplanar_cubes"])
def test_coplanar_test_runs_only_on_all_zero_distance_rows(name, monkeypatch):
    """The scalar 2D overlap test sees only pairs with a distance row all
    zero; a change that sends other rows to it fails here."""
    a, b = NARROW_FIXTURES[name]()
    pairs = find_candidates(a, b)
    tol = 1e-12 * float(np.ptp(np.concatenate([a.vertices, b.vertices]), axis=0).max())
    calls, test = [], intersect_mod._coplanar_overlap_2d
    monkeypatch.setattr(intersect_mod, "_coplanar_overlap_2d", lambda *args: calls.append(args) or test(*args))
    segs, report = intersect_all(pairs, a, b, tol)
    for pa, pb, _ in calls:
        _, _, da, db, _, _ = intersect_mod._planes(pa[None], pb[None], tol)
        assert (da == 0.0).all() or (db == 0.0).all()
    if name == "cube_sphere":
        assert len(segs) > 0 and calls == []
    else:
        assert len(calls) >= len(report.coplanar_pairs) > 0
