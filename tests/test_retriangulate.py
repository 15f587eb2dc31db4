import functools
import itertools
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_earcut as frozen
import oracle_retriangulate as oracle
from deadline import deadline
from meshbool import pipeline, retriangulate
from meshbool.errors import DegeneratePolygon, DegenerateTriangle, GeometryError, NotSimple
from meshbool.pipeline import run_pipeline
from meshbool.retriangulate import FaceSetup, ear_clip, split_and_triangulate
from meshes import (
    blob_and_plane,
    bumpy_pair,
    cube,
    icosphere,
    lobed_blob,
    oracle_shoelace,
    random_simple_polygon,
    tangent_cylinders,
    torus_pair,
    vw_pair,
)

TRI = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])


def columns(segments, boundary_points):
    """Per-face lists of segments and of boundary points as prepare_splits'
    columns: seg_face, seg_ends, pt_face, pts."""
    return ([f for f, segs in enumerate(segments) for _ in segs], [pq for segs in segments for pq in segs],
            [f for f, pts in enumerate(boundary_points) for _ in pts], [p for pts in boundary_points for p in pts])


def alone(tri, segments, tol, boundary_points=()):
    """The point table and setup of one face prepared alone: the table is
    the corners, the boundary points, then the segment ends."""
    table, setups = retriangulate.prepare_splits([tri], *columns([segments], [boundary_points]), tol)
    return table, next(setups)


def polygons(tri, segments, tol, boundary_points=()):
    """The polygons of a face prepared alone, which must have no fault."""
    _, setup = alone(tri, segments, tol, boundary_points)
    assert setup.fault is None
    return setup.polygons


def gather(table, rows):
    """Child row triples as (k, 3, 3) coordinates of the point table."""
    return table[np.array(rows, dtype=np.intp).reshape(-1, 3)]


def children(tri, segments, tol, parent_tri=-1, boundary_points=()):
    """split_and_triangulate's children of a face prepared alone, as coordinates."""
    table, setup = alone(tri, segments, tol, boundary_points)
    return gather(table, split_and_triangulate(setup, parent_tri))


def poly_area3d(ring):
    ring = np.asarray(ring, dtype=float)
    total = np.zeros(3)
    for i in range(1, len(ring) - 1):
        total += np.cross(ring[i] - ring[0], ring[i + 1] - ring[0])
    return 0.5 * np.linalg.norm(total)


# --- prepare_splits -------------------------------------------------------


def test_single_chord_two_polygons():
    segs = [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))]
    assert len(polygons(TRI, segs, 1e-9)) == 2


def test_no_segments_identity():
    table, setup = alone(TRI, [], 1e-9)
    assert setup.fault is None and len(setup.polygons) == 1
    rows, ring2d, holes, holes2d = setup.polygons[0]
    assert rows == [0, 1, 2] and ring2d is None and holes == holes2d == []
    assert np.array_equal(table[rows], TRI)
    assert split_and_triangulate(setup) == [(0, 1, 2)]


def test_two_noncrossing_chords_three_polygons_area_sum():
    segs = [
        (np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.5, 0.0])),
        (np.array([1.5, 0.0, 0.0]), np.array([0.0, 1.5, 0.0])),
    ]
    polys = polygons(TRI, segs, 1e-9)
    assert len(polys) == 3
    total = sum(oracle_shoelace(p[1]) for p in polys)
    assert total == pytest.approx(2.0, rel=1e-12)


def test_interior_closed_loop_makes_hole_and_disk():
    square = [
        np.array([0.3, 0.3, 0.0]), np.array([0.7, 0.3, 0.0]),
        np.array([0.7, 0.7, 0.0]), np.array([0.3, 0.7, 0.0]),
    ]
    segs = [(square[i], square[(i + 1) % 4]) for i in range(4)]
    polys = polygons(TRI, segs, 1e-9)
    assert len(polys) == 2
    holed = [p for p in polys if p[2]]
    assert len(holed) == 1 and len(holed[0][2]) == 1
    tris = children(TRI, segs, 1e-9)
    area = sum(poly_area3d(t) for t in tris)
    assert area == pytest.approx(2.0, rel=1e-9)


def test_segment_outside_triangle_raises():
    segs = [(np.array([3.0, 3.0, 0.0]), np.array([4.0, 4.0, 0.0]))]
    with pytest.raises(GeometryError, match="outside triangle 7"):
        split_and_triangulate(alone(TRI, segs, 1e-9)[1], 7)


def test_dangling_tail_pruned():
    segs = [(np.array([1.0, 0.0, 0.0]), np.array([0.5, 0.5, 0.0]))]
    assert len(polygons(TRI, segs, 1e-9)) == 1  # a slit does not divide the triangle
    tris = children(TRI, segs, 1e-9)
    assert sum(poly_area3d(t) for t in tris) == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("inner", [1, 2], ids=["segment", "chain"])
def test_chord_inside_the_triangle_is_pruned_whole(inner):
    pts = [np.array([0.3, 0.3, 0.0]), np.array([0.5, 0.4, 0.0]), np.array([0.6, 0.7, 0.0])][: inner + 1]
    segs = list(zip(pts, pts[1:]))
    table, setup = alone(TRI, segs, 1e-9)
    assert len(setup.polygons) == 1 and len(setup.polygons[0][0]) == 3
    assert_same_rings(setup, oracle.split_triangle(TRI, segs, 1e-9), table)


def test_junction_star_splits_into_sectors():
    center = np.array([0.5, 0.5, 0.0])
    spokes = [
        np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.5, 0.0]),
        np.array([1.5, 0.5, 0.0]), np.array([0.5, 1.5, 0.0]),  # on the hypotenuse
    ]
    segs = [(center, s) for s in spokes]
    polys = polygons(TRI, segs, 1e-9)
    assert len(polys) == 4
    total = sum(oracle_shoelace(p[1]) for p in polys)
    assert total == pytest.approx(2.0, rel=1e-12)


# --- ear_clip -------------------------------------------------------------


def clipped_as_frozen(ring, holes=()):
    """ear_clip's triangles, or the (error class, message) it raises, which
    must equal the frozen linked-list clipper's."""
    def outcome(clip):
        try:
            return clip(ring, holes)
        except GeometryError as err:
            return type(err), str(err)

    got = outcome(ear_clip)
    assert got == outcome(frozen.ear_clip), (ring, holes)
    return got


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
        # the same ring clockwise: clipped as its reverse, still no inverted output
        cw = ring[::-1]
        tris = ear_clip(cw)
        assert len(tris) == n - 2, f"trial {trial}"
        areas = [oracle_shoelace([cw[i], cw[j], cw[k]]) for i, j, k in tris]
        assert min(areas) >= 0, f"trial {trial}"
        assert abs(sum(areas) - abs(oracle_shoelace(cw))) <= 1e-10 * abs(expect), f"trial {trial}"


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
    # Seeded hole scenes, holes either way round and apart from each other,
    # clip as the frozen clipper does.
    rng = np.random.default_rng(25)
    for _ in range(40):
        outer = 4 * random_simple_polygon(rng, int(rng.integers(8, 16)))
        holes = []
        for centre in [(-0.8, -0.8), (0.8, -0.8), (0.0, 0.8)][:int(rng.integers(1, 4))]:
            h = np.add(centre, 0.3 * random_simple_polygon(rng, int(rng.integers(3, 7))))
            holes.append(h[::-1] if rng.random() < 0.7 else h)
        clipped_as_frozen(outer, holes)


def test_ear_clip_preconditions_raise():
    with pytest.raises(DegeneratePolygon, match="at least 3 vertices"):
        ear_clip([(0, 0), (1, 0)])
    with pytest.raises(DegeneratePolygon, match="fewer than 3 points"):
        ear_clip([(0, 0), (1, 0), (0, 0)])


def test_ear_clip_returns_when_a_duplicate_merges_the_ring_start():
    """The duplicate filter walks the ring from its start node; when the
    start itself merges into its predecessor, the walk must still end."""
    with deadline(10):
        with pytest.raises(DegeneratePolygon, match="fewer than 3 points"):
            ear_clip([(0, 0), (0, 0), (1, 0)])
        assert ear_clip([(0, 0), (1, 0), (1, 1), (0, 0), (0, 0)]) == [(2, 3, 1)]


def test_ear_clip_returns_on_every_small_ring_with_repeats():
    """Every ring of 3 to 6 points drawn from the unit square's corners and
    centre, repeats included, is triangulated or refused, never looped over,
    and exactly as the frozen clipper does it."""
    points = [(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)]
    with deadline(30):
        for n in (3, 4, 5, 6):
            for ring in itertools.product(points, repeat=n):
                got = clipped_as_frozen(ring)
                if isinstance(got, tuple):
                    assert got[0] is DegeneratePolygon
                    continue
                assert all(0 <= i < n for t in got for i in t)


def test_winding_preserved_through_split():
    segs = [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))]
    tris = children(TRI, segs, 1e-9)
    parent_n = np.cross(TRI[1] - TRI[0], TRI[2] - TRI[0])
    for t in tris:
        n = np.cross(t[1] - t[0], t[2] - t[0])
        assert n @ parent_n > 0


# --- no ear: a raise, not a triangulation that loses area -----------------

BOWTIE = np.array([[0, 0], [2, 2], [2, 0], [0, 2]], dtype=float)
COLLINEAR = np.array([[0, 0], [1, 0], [2, 0], [1, 0]], dtype=float)


@pytest.mark.parametrize("ring", [BOWTIE, COLLINEAR], ids=["bowtie", "collinear"])
def test_ear_clip_without_an_ear_raises(ring):
    with pytest.raises(DegeneratePolygon, match="no ear"):
        ear_clip(ring)
    # the fallback passes returned one triangle and none
    assert len(oracle.ear_clip(ring, validate=False)) == (1 if ring is BOWTIE else 0)


def test_polygon_without_an_ear_names_the_parent_triangle():
    setup = FaceSetup(None, [([0, 1, 2, 3], BOWTIE.tolist(), [], [])])
    with pytest.raises(DegeneratePolygon, match=r"no ear .*\(tri 17\)"):
        split_and_triangulate(setup, 17)


def test_hole_without_a_bridge_names_the_parent_triangle():
    outer = [(0, 0), (1, 0), (1, 1), (0, 1)]
    hole = [(-2, 0.25), (-2, 0.75), (-1.5, 0.75), (-1.5, 0.25)]  # left of the square
    setup = FaceSetup(None, [([0, 1, 2, 3], outer, [[4, 5, 6, 7]], [hole])])
    with pytest.raises(NotSimple, match=r"\(tri 17\)") as info:
        split_and_triangulate(setup, 17)
    assert info.value.exit_code == 3


def test_split_and_triangulate_names_the_parent_triangle(monkeypatch):
    monkeypatch.setattr(retriangulate, "_is_ear", lambda *args: False)
    segs = [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))]
    with pytest.raises(DegeneratePolygon, match=r"\(tri 42\)") as info:
        split_and_triangulate(alone(TRI, segs, 1e-9)[1], 42)
    assert info.value.exit_code == 3


# --- differential tests against the splitter with fallbacks ----------------


SPLIT_RUNS = {
    "cube_cube": lambda: (cube((0, 0, 0), 1.0, "A"), cube((0.5, 0.5, 0.5), 1.0, "B")),
    "cube_sphere": lambda: (cube((-1, -1, -1), 2.0, "A"), icosphere(1.3, subdivisions=3, source="B")),
    "torus_pair": lambda: torus_pair(1.0, 0.35, n_major=24, n_minor=12),
    "blob_and_plane": blob_and_plane,
    "blob_sphere": lambda: (lobed_blob(source="A"),
                            icosphere(1.2, center=(0.3, -0.2, 0.4), subdivisions=3, source="B")),
    "vw": vw_pair,
    "tangent_cylinders": tangent_cylinders,
}


def record_splits(make):
    """run_pipeline on make()'s meshes. Returns every split face as (args,
    setup, table, children): the oracle's arguments (triangle, segments,
    tol, parent, boundary points) as the pipeline prepared the face, the
    setup and point table prepare_splits made, and the children
    split_and_triangulate returned; and the number of _place_holes calls."""
    faces, calls, placed = [], [], []
    prepare, place = retriangulate.prepare_splits, retriangulate._place_holes

    def prepared(tris, seg_face, seg_ends, pt_face, pts, tol):
        table, setups = prepare(tris, seg_face, seg_ends, pt_face, pts, tol)
        # The pipeline's columns run face by face.
        segments = np.split(seg_ends, np.cumsum(np.bincount(seg_face, minlength=len(tris)))[:-1])
        boundary_points = np.split(pts, np.cumsum(np.bincount(pt_face, minlength=len(tris)))[:-1])
        faces.extend((tri, segs.tolist(), tol, points.tolist(), table)
                     for tri, segs, points in zip(tris, segments, boundary_points))
        return table, setups

    def split(setup, parent_tri):
        got = split_and_triangulate(setup, parent_tri)
        calls.append((setup, parent_tri, got))
        return got

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "prepare_splits", prepared)
        mp.setattr(pipeline, "split_and_triangulate", split)
        mp.setattr(retriangulate, "_place_holes", lambda *args: placed.append(args) or place(*args))
        run_pipeline(*make())
    assert calls and len(calls) == len(faces)
    return [((tri, segs, tol, parent, points), setup, table, got)
            for (tri, segs, tol, points, table), (setup, parent, got) in zip(faces, calls)], len(placed)


@functools.cache
def fixture_splits(name):
    """Every split face of one fixture run (see record_splits)."""
    return record_splits(SPLIT_RUNS[name])[0]


def assert_same_rings(setup, want, table):
    """A setup without a fault whose polygons are byte-equal to the old
    splitter's, in the same order, each ring with the same start and
    direction. The 3D rings are gathered from table, the point table the
    polygons' rows index."""
    assert setup.fault is None
    assert len(setup.polygons) == len(want)
    for (rows, ring2d, holes, holes2d), w in zip(setup.polygons, want):
        assert len(holes) == len(w.holes) and len(holes2d) == len(w.holes2d)
        assert (ring2d is None) == (w.ring2d is None)
        pairs = [(table[rows], w.vertices), *((table[h], wh) for h, wh in zip(holes, w.holes)),
                 *((np.array(h), wh) for h, wh in zip(holes2d, w.holes2d))]
        if ring2d is not None:
            pairs.append((np.array(ring2d), w.ring2d))
        for x, y in pairs:
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name", sorted(SPLIT_RUNS))
def test_split_rings_match_oracle_on_fixture_runs(name):
    for args, setup, table, _ in fixture_splits(name):
        want = oracle.split_triangle(*args)
        assert_same_rings(setup, want, table)
        for _, ring2d, _, holes2d in setup.polygons:
            if ring2d is not None:
                clipped_as_frozen(ring2d, holes2d)
        table, setup = alone(args[0], args[1], args[2], args[4])
        assert_same_rings(setup, want, table)


@pytest.mark.parametrize("name", sorted(SPLIT_RUNS))
def test_split_matches_oracle_on_fixture_runs(name):
    for args, _, table, got in fixture_splits(name):
        # The pipeline's children, made from its setup, against the old
        # splitter on the geometric arguments alone.
        want = oracle.split_and_triangulate(*args)
        got = gather(table, got)
        assert got.dtype == want.dtype and got.shape == want.shape, args[3]
        assert got.tobytes() == want.tobytes(), args[3]


def _ulp_off(draw, p):
    """p, or p moved one ulp along one axis (off the edge it was put on)."""
    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        p[k] = np.nextafter(p[k], draw(st.sampled_from([np.inf, -np.inf])))
    return p


EIGHTHS = st.integers(1, 8).map(lambda k: k / 8)


@st.composite
def chord_scenes(draw):
    """A triangle in space with a planar set of chords, as a manifold
    narrow phase hands them to the splitter, plus propagated boundary points.

    Cut scenes: chains cross the corner k from edge (k, k+1) to edge
    (k, k+2). Point (t, r) is c_k + r (e1 + t (e2 - e1)) for the edges e1, e2
    from c_k; all chains break at the same rays t_j, and per ray their radii
    are sorted, so chains never cross. Equal radii on one ray make a junction;
    r = 1 puts a vertex on the far edge, or on a corner at t = 0 and t = 1.
    Floating loops (holes) sit strictly between two chains on interior rays.
    Star scenes: spokes from an interior hub to distinct boundary points,
    some through their collinear midpoint, or nested loops around the hub.
    Points put on an edge may sit one ulp off it, and the triangle may be
    small and far from the origin.
    """
    c = _triangle(draw)
    chains = []

    if draw(st.booleans()):
        k = draw(st.integers(0, 2))
        ck, e1, e2 = c[k], c[(k + 1) % 3] - c[k], c[(k + 2) % 3] - c[k]
        inner = sorted(draw(st.lists(st.integers(1, 7), max_size=3, unique=True)))
        ts = [0.0] + [i / 8 for i in inner] + [1.0]
        radii = np.sort(np.asarray([
            [draw(EIGHTHS) for _ in ts]
            for _ in range(draw(st.integers(1, 3)))
        ]), axis=0)
        keep = []
        for row in radii:  # no shared span and none along the far edge
            if ((row[:-1] == 1) & (row[1:] == 1)).any():
                continue
            if keep and ((keep[-1][:-1] == row[:-1]) & (keep[-1][1:] == row[1:])).any():
                continue
            keep.append(row)

        def point(t, r, on_edge):
            p = ck + r * (e1 + t * (e2 - e1))
            return _ulp_off(draw, p) if on_edge else p

        for row in keep:
            chains.append([point(t, r, t in (0.0, 1.0) or r == 1.0) for t, r in zip(ts, row)])
        bounds = [np.zeros(len(ts))] + keep + [np.ones(len(ts))]
        for _ in range(draw(st.integers(0, 2)) if len(ts) > 3 else 0):
            g = draw(st.integers(0, len(bounds) - 2))
            lo, hi = bounds[g], bounds[g + 1]
            a = draw(st.integers(1, len(ts) - 3))
            b = draw(st.integers(a + 1, len(ts) - 2))
            if (lo[a:b + 1] >= hi[a:b + 1]).any():
                continue
            rin = [lo[j] + (hi[j] - lo[j]) / 3 for j in range(a, b + 1)]
            rout = [lo[j] + 2 * (hi[j] - lo[j]) / 3 for j in range(a, b + 1)]
            ring = [point(ts[j], r, False) for j, r in zip(range(a, b + 1), rin)]
            ring += [point(ts[j], r, False) for j, r in reversed(list(zip(range(a, b + 1), rout)))]
            chains.append(ring + [ring[0]])
    else:
        w = np.asarray(draw(st.tuples(*[st.integers(1, 12)] * 3)), float)
        hub = (w / w.sum()) @ c
        if draw(st.booleans()):
            ends = {}
            for _ in range(draw(st.integers(2, 4))):
                e = draw(st.integers(0, 2))
                t = draw(st.sampled_from([0.0, 0.25, 0.5, 0.625, 0.875]))
                ends[(e, t)] = c[e] + t * (c[(e + 1) % 3] - c[e])
            for (e, t), end in sorted(ends.items()):
                end = _ulp_off(draw, end) if t else end
                chains.append([hub, (hub + end) / 2, end] if draw(st.booleans()) else [hub, end])
        else:
            # towards the corners and edge midpoints, in angular order around
            # the hub: a polygon star-shaped about it, so scaled copies nest
            dirs = [c[0], (c[0] + c[1]) / 2, c[1], (c[1] + c[2]) / 2, c[2], (c[2] + c[0]) / 2]
            dirs = [hub + draw(st.sampled_from([0.5, 1.0])) * (d - hub) for d in dirs]
            for r in draw(st.sampled_from([(), (0.5,), (0.8, 0.4), (0.6, 0.3, 0.15)])):
                ring = [hub + r * (d - hub) for d in dirs]
                chains.append(ring + [ring[0]])

    return _scene(draw, c, chains)


def _triangle(draw):
    """A triangle in space, maybe small and far from the origin."""
    raw = draw(st.lists(st.tuples(*[st.integers(-8, 8)] * 3), min_size=3, max_size=3, unique=True))
    scale, offset = draw(st.sampled_from([
        (1.0, (0, 0, 0)), (3.7, (0, 0, 0)), (0.1, (-7.5, 0.25, 3.0)), (1e-3, (1e3, -2e3, 5e2)),
    ]))
    c = np.asarray(raw, float) * scale / 8
    n = np.cross(c[1] - c[0], c[2] - c[0])
    longest = max(np.linalg.norm(c[(k + 1) % 3] - c[k]) for k in range(3))
    if np.linalg.norm(n) < 0.05 * longest**2:  # too thin: lift the third corner
        c[2] = c[2] + (c[2] - (c[0] + c[1]) / 2) + scale * np.array([0.3, -0.2, 0.5])
    return c + np.asarray(offset, float)


def _scene(draw, c, chains):
    """Chains as segments in random direction and order, plus propagated
    boundary points: the splitter's arguments."""
    segments = []
    for pts in chains:
        for p, q in zip(pts, pts[1:]):
            segments.append((q, p) if draw(st.booleans()) else (p, q))
    order = draw(st.permutations(range(len(segments))))
    segments = [segments[i] for i in order]
    boundary = []
    for _ in range(draw(st.integers(0, 3))):
        e = draw(st.integers(0, 2))
        t = draw(EIGHTHS.filter(lambda t: t < 1))
        boundary.append(_ulp_off(draw, c[e] + t * (c[(e + 1) % 3] - c[e])))
    tol = 1e-9 * float(np.abs(c - c.mean(axis=0)).max())
    return c, segments, tol, boundary


@st.composite
def chain_scenes(draw):
    """Chains whose inner nodes all have degree two, so the face walk meets
    no junction inside the triangle: one chain between boundary points on
    two edges, either end maybe exactly at a corner, and maybe a second
    chain from the same point on an edge (two chains meeting there). Chains
    are straight, so collinear, or their inner nodes move towards the
    centroid. They are drawn in the triangle's (u, v) coordinates and
    rejected where two of their pieces touch away from a shared end.
    """
    c = _triangle(draw)
    uv = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])

    def end(exclude):
        e = draw(st.integers(0, 2))
        t = draw(st.sampled_from([0.0, 0.25, 0.5, 0.625, 0.875]))
        sides = {e, (e - 1) % 3} if t == 0.0 else {e}  # a corner lies on two edges
        assume(not sides & exclude)
        return (e, t), sides

    def chain(p, q):
        a, b = (uv[e] + t * (uv[(e + 1) % 3] - uv[e]) for e, t in (p, q))
        fs = sorted(draw(st.lists(st.integers(1, 7), max_size=3, unique=True)))
        bend = draw(st.sampled_from([0.0, 0.125, 0.25]))
        return [p, *(m + bend * (uv.mean(axis=0) - m) for m in (a + f / 8 * (b - a) for f in fs)), q]

    p, p_sides = end(set())
    q, q_sides = end(p_sides)
    chains = [chain(p, q)]
    if len(q_sides) == 1 and draw(st.booleans()):
        r, _ = end(q_sides)
        assume(r != p)
        chains.append(chain(q, r))

    ends = {}  # one 3D point per boundary end, shared by the chains through it

    def to_uv(x):
        return uv[x[0]] + x[1] * (uv[(x[0] + 1) % 3] - uv[x[0]]) if isinstance(x, tuple) else x

    def to_3d(x):
        if isinstance(x, tuple):
            if x not in ends:
                e, t = x
                ends[x] = c[e] if t == 0.0 else _ulp_off(draw, c[e] + t * (c[(e + 1) % 3] - c[e]))
            return ends[x]
        return c[0] + x[0] * (c[1] - c[0]) + x[1] * (c[2] - c[0])

    pieces = [(to_uv(a), to_uv(b)) for ch in chains for a, b in zip(ch, ch[1:])]

    def orient(a, b, p):
        return (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])

    for i, (a, b) in enumerate(pieces):
        for p2, q2 in pieces[i + 1:]:
            if any(np.array_equal(x, y) for x in (a, b) for y in (p2, q2)):
                continue
            assume(orient(a, b, p2) * orient(a, b, q2) > 0 or orient(p2, q2, a) * orient(p2, q2, b) > 0)
    return _scene(draw, c, [[to_3d(x) for x in ch] for ch in chains])


def covers(tri, children):
    """Children tile the triangle: signed and unsigned areas, measured in
    the parent's plane, both add up to its area."""
    n = np.cross(tri[1] - tri[0], tri[2] - tri[0])
    area = np.linalg.norm(n)
    n = n / area
    kids = np.cross(children[:, 1] - children[:, 0], children[:, 2] - children[:, 0]) @ n
    return abs(kids.sum() - area) <= 1e-6 * area and abs(np.abs(kids).sum() - area) <= 1e-6 * area


def conforming(tri, children):
    """Every child edge is shared, reversed, by another child or lies on an
    edge of the parent: no T-junction or crack inside the triangle."""
    edges = {}
    for t in children:
        for k in range(3):
            edges[t[k].tobytes(), t[(k + 1) % 3].tobytes()] = (t[k], t[(k + 1) % 3])
    size = max(np.linalg.norm(tri[k] - tri[k - 1]) for k in range(3))

    def sides(p):
        return {e for e in range(3) if np.linalg.norm(np.cross(p - tri[e], tri[e - 1] - tri[e]))
                <= 1e-9 * size * np.linalg.norm(tri[e - 1] - tri[e])}

    return all((q, p) in edges or sides(a) & sides(b) for (p, q), (a, b) in edges.items())


@contextmanager
def oracle_passes():
    """The pass numbers the old ear clipper runs; any above 0 is a fallback."""
    passes = []
    clip = oracle._earcut_linked

    def traced(ear, triangles, eps, pass_num=0):
        passes.append(pass_num)
        return clip(ear, triangles, eps, pass_num)

    oracle._earcut_linked = traced
    try:
        yield passes
    finally:
        oracle._earcut_linked = clip


def check_children(scene):
    tri, segments, tol, boundary = scene
    args = (tri, segments, tol, 5, boundary)
    try:
        with oracle_passes() as passes:
            want = oracle.split_and_triangulate(*args)
    except GeometryError as err:
        with pytest.raises(type(err)):
            split_and_triangulate(alone(tri, segments, tol, boundary)[1], 5)
        return
    fell_back = any(passes)
    try:
        got = children(*args)
    except DegeneratePolygon:
        assert fell_back and not covers(tri, want)  # the fallbacks lost area here
        return
    if fell_back:  # the old children came from a fallback pass
        assert covers(tri, got) and conforming(tri, got)
    else:
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert conforming(tri, got)


def check_rings(scene):
    tri, segments, tol, boundary = scene
    args = (tri, segments, tol, 5, boundary)
    table, setup = alone(tri, segments, tol, boundary)
    try:
        want = oracle.split_triangle(*args)
    except GeometryError as err:
        assert setup.fault is not None  # raised before any ear clipping
        with pytest.raises(type(err)):
            split_and_triangulate(setup, 5)
        return
    assert_same_rings(setup, want, table)


@settings(max_examples=400, deadline=None)
@given(chord_scenes())
def test_split_matches_oracle_on_chord_chains(scene):
    check_children(scene)


@settings(max_examples=400, deadline=None)
@given(chain_scenes())
def test_split_matches_oracle_on_chain_scenes(scene):
    check_children(scene)


@settings(max_examples=400, deadline=None)
@given(chord_scenes())
def test_split_rings_match_oracle_on_chord_chains(scene):
    check_rings(scene)


@settings(max_examples=400, deadline=None)
@given(chain_scenes())
def test_split_rings_match_oracle_on_chain_scenes(scene):
    check_rings(scene)


def outcome(table, setup, fid):
    """A face's split as the error it raises, or as its polygons' bytes (3D
    rings gathered from its point table and 2D rings, in order) with its
    children's."""
    try:
        kids = split_and_triangulate(setup, fid)
    except GeometryError as err:
        return type(err), str(err)
    return [(table[rows].tobytes(), [table[h].tobytes() for h in holes],
             None if ring2d is None else np.array(ring2d).tobytes(), [np.array(h).tobytes() for h in holes2d])
            for rows, ring2d, holes, holes2d in setup.polygons], gather(table, kids).tobytes()


SQUARE = [np.array(p) for p in ([0.3, 0.3, 0.0], [0.7, 0.3, 0.0], [0.7, 0.7, 0.0], [0.3, 0.7, 0.0])]
WAVE = [np.array([r * np.cos(a), r * np.sin(a), 0.0])  # edge 0 to edge 2 in 60 zigzag segments
        for a, r in zip(np.linspace(0.0, np.pi / 2, 61), [1.0, 0.95] * 30 + [1.0])]
PACKED_FACES = {  # faces every packed batch holds, with the error each raises
    "no points": ((TRI, [], []), None),
    "long chain": ((TRI, [(WAVE[i], WAVE[i + 1]) for i in range(60)], []), None),
    "zero area": ((np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                   [(np.array([0.5, 0.0, 0.0]), np.array([1.5, 0.0, 0.0]))], []), DegenerateTriangle),
    "point outside": ((TRI, [(np.array([3.0, 3.0, 0.0]), np.array([4.0, 4.0, 0.0]))], []), GeometryError),
    "floating loop": ((TRI, [(SQUARE[i], SQUARE[(i + 1) % 4]) for i in range(4)], []), None),
}
NON_FINITE = (np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, np.nan, 0.0]]),
              [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))], [])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.one_of(chord_scenes(), chain_scenes()), min_size=1, max_size=5), st.randoms())
def test_packed_faces_split_as_each_face_alone(scenes, rand):
    """Faces prepared in one batch split exactly as each prepared alone, and
    a face's error is raised when that face is split, not before."""
    tol = scenes[0][2]
    faces = [(None, (tri, segments, boundary)) for tri, segments, _, boundary in scenes]
    faces += [(name, face) for name, (face, _) in PACKED_FACES.items()] + [(None, NON_FINITE)]
    rand.shuffle(faces)
    tris, segments, boundary_points = zip(*(face for _, face in faces))
    table, setups = retriangulate.prepare_splits(tris, *columns(segments, boundary_points), tol)
    setups = list(setups)
    for fid, ((name, (tri, segments, boundary)), setup) in enumerate(zip(faces, setups)):
        got = outcome(table, setup, fid)
        assert got == outcome(*alone(tri, segments, tol, boundary), fid)
        if name is not None:
            error = PACKED_FACES[name][1]
            assert got[0] is error if error else isinstance(got[0], list), name


@pytest.mark.parametrize("name", ["bumpy_band", "cube_sphere"])
def test_only_faces_with_floating_components_reach_hole_placement(name):
    """The batch decides every face whose graph is one component; the
    Python hole placement sees exactly the faces with more than one, which
    the old splitter gives holes. A crossing without floating loops sends
    none there."""
    faces, placed = record_splits(bumpy_pair if name == "bumpy_band" else SPLIT_RUNS[name])
    holed = sum(any(p.holes for p in oracle.split_triangle(*args)) for args, *_ in faces)
    assert placed == holed
    assert (placed > 0) if name == "bumpy_band" else (placed == 0)


class NumpyLookups:
    """Stands in for numpy in the splitter's module and records every name
    looked up on it."""

    def __init__(self):
        self.names = []

    def __getattr__(self, name):
        self.names.append(name)
        return getattr(np, name)


@settings(max_examples=200, deadline=None)
@given(chord_scenes())
def test_split_of_a_prepared_face_makes_no_numpy_call(scene):
    """Once prepare_splits has done a face's float work, the walk, the ear
    clipper and the children's rows run on Python values alone."""
    tri, segments, tol, boundary = scene
    _, setup = alone(tri, segments, tol, boundary)
    lookups = NumpyLookups()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retriangulate, "np", lookups)
        try:
            split_and_triangulate(setup, 5)
        except GeometryError:
            pass
    assert lookups.names == []


# A chord along an edge, from a corner to a propagated point on it: the
# chord and the boundary piece are one edge of the subdivision.
ALONG_EDGE = (
    np.array([[-0.25, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.5]]),
    [(np.array([0.0, 0.0, 0.0]), np.array([-0.21, 0.0, 0.0]))],
    1e-9,
    [np.array([-0.21, 0.0, 0.0])],
)


def test_split_rings_match_oracle_on_a_chord_along_an_edge():
    tri, segments, tol, boundary = ALONG_EDGE
    table, setup = alone(tri, segments, tol, boundary)
    assert_same_rings(setup, oracle.split_triangle(tri, segments, tol, 38, boundary), table)
    assert len(setup.polygons) == 1


# A scene found by the chord-chain strategy: a floating loop whose vertices
# tie with outer vertices in the local frame, so an ulp of the frame (the
# parent's cross-product normal in place of the Newell normal) changes the
# children.
FRAME_TIE = (
    [[-3.7, 0.4625, -3.2375000000000003], [0.4625, -3.2375000000000003, 1.3875000000000002],
     [0.925, 1.3875000000000002, -0.4625]],
    [[[-0.7830965909090909, -0.24176136363636347, -0.8829545454545455],
      [-1.4085227272727274, -0.31534090909090906, -1.2823863636363637]],
     [[-1.245596590909091, 0.7988636363636366, -1.6923295454545455],
      [-0.13664772727272734, 1.072159090909091, -1.0511363636363638]],
     [[-0.13664772727272734, 1.072159090909091, -1.0511363636363638],
      [-0.7252840909090909, 0.3363636363636364, -1.1142045454545455]],
     [[-1.4085227272727274, -0.31534090909090906, -1.2823863636363637],
      [-2.4491477272727273, 0.609659090909091, -2.438636363636364]],
     [[-0.7830965909090909, -0.24176136363636347, -0.8829545454545455],
      [-0.7252840909090909, 0.3363636363636364, -1.1142045454545455]],
     [[-2.4491477272727273, 0.609659090909091, -2.438636363636364],
      [-1.245596590909091, 0.7988636363636366, -1.6923295454545455]]],
    2.929166666666667e-09,
    [[-0.578125, -2.3125000000000004, 0.23124999999999973], [-2.54375, 0.6937500000000002, -2.54375],
     [-1.0984375, -1.85, -0.34687500000000027]],
)


def test_split_matches_oracle_where_the_frame_decides_a_tie():
    tri, segments, tol, boundary = FRAME_TIE
    segments = [tuple(np.asarray(pq)) for pq in segments]
    args = (np.asarray(tri), segments, tol, 5, np.asarray(boundary))
    assert children(*args).tobytes() == oracle.split_and_triangulate(*args).tobytes()


# Faces found by the chord-chain strategy on which the first cycle finds no
# ear: a floating loop bridged into a non-convex face. In the first, the
# bridge's duplicated ends block the last ears; in the second, an outer
# vertex one ulp off the bridge (within eps) blocks them.
BRIDGED = {
    "duplicate_ends": (
        [[-0.4898556659742048, -0.2969283188127537], [1.83863633530044, -0.2969283188127537],
         [0.9672342719631933, -0.18558019925797106], [0.14374831293892013, -0.11134811955478265],
         [0.06920050075834229, -0.22269623910956532]],
        [[0.3034686606488314, -0.23506825239343004], [0.2236084867938758, -0.17320818597410634],
         [1.160681126355832, -0.22269623910956524], [1.3541279807484707, -0.2598122789611594]],
    ),
    "vertex_by_bridge": (
        [[0.0, 0.0], [-0.16839382851364082, -0.11032163100914759],
         [-0.1075014173100475, -0.1103216310091476], [0.04285021529141754, -0.3309648930274428],
         [0.17891844279574337, -0.4412865240365904], [0.150351632601465, -0.2206432620182952]],
        [[0.014283405097139174, -0.11032163100914759], [0.059639480931914464, -0.14709550801219679],
         [0.11927896186382893, -0.29419101602439357], [0.02856681019427835, -0.22064326201829518]],
    ),
}


@pytest.mark.parametrize("name", sorted(BRIDGED))
def test_exact_cycle_clips_bridged_faces(name):
    ring, hole = (np.asarray(r) for r in BRIDGED[name])
    with oracle_passes() as passes:
        oracle.ear_clip(ring, [hole], validate=False)
    assert any(passes)  # the old clipper needed its fallbacks here
    tris = clipped_as_frozen(ring, [hole])
    pts = np.concatenate([ring, hole])
    assert len(tris) == len(pts)  # n - 2 + 2 per hole
    areas = [oracle_shoelace(pts[list(t)]) for t in tris]
    assert min(areas) > 0
    assert sum(areas) == pytest.approx(oracle_shoelace(ring) + oracle_shoelace(hole), rel=1e-12)
    edges = {(t[k], t[k - 2]) for t in tris for k in range(3)}
    rings = [range(len(ring)), range(len(ring), len(pts))]
    boundary = {(r[k], r[(k + 1) % len(r)]) for r in rings for k in range(len(r))}
    assert all((j, i) in edges or (i, j) in boundary for i, j in edges)
