import functools
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle_retriangulate as oracle
from meshbool import pipeline, retriangulate
from meshbool.errors import DegeneratePolygon, GeometryError
from meshbool.pipeline import run_pipeline
from meshbool.retriangulate import (
    SplitPolygon,
    ear_clip,
    split_and_triangulate,
    split_triangle,
    triangulate_polygon,
)
from meshes import (
    blob_and_plane,
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


def alone(tri, segments, tol, boundary_points=()):
    """The setup of one face prepared alone: its point table is the corners,
    the boundary points, then the segment ends."""
    return next(retriangulate.prepare_splits([tri], [segments], [boundary_points], tol))


def gather(table, rows):
    """Child row triples as (k, 3, 3) coordinates of the point table."""
    return table[np.array(rows, dtype=np.intp).reshape(-1, 3)]


def children(tri, segments, tol, parent_tri=-1, boundary_points=()):
    """split_and_triangulate's children of a face prepared alone, as coordinates."""
    setup = alone(tri, segments, tol, boundary_points)
    return gather(setup.pts3, split_and_triangulate(tri, segments, tol, parent_tri, boundary_points, setup))


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


def test_split_rejects_the_setup_of_other_points():
    one = [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))]
    two = one + [(np.array([0.5, 0.0, 0.0]), np.array([0.0, 0.5, 0.0]))]
    setup = next(retriangulate.prepare_splits([TRI], [one], [()], 1e-9))
    assert len(split_triangle(TRI, one, 1e-9, 7, (), setup)) == 2
    with pytest.raises(GeometryError, match="triangle 7"):
        split_triangle(TRI, two, 1e-9, 7, (), setup)


def test_no_segments_identity():
    polys = split_triangle(TRI, [], 1e-9)
    assert len(polys) == 1
    assert polys[0].rows == [0, 1, 2] and polys[0].ring2d is None
    assert np.array_equal(alone(TRI, [], 1e-9).pts3[polys[0].rows], TRI)


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
    tris = children(TRI, segs, 1e-9)
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
    tris = children(TRI, segs, 1e-9)
    assert sum(poly_area3d(t) for t in tris) == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("inner", [1, 2], ids=["segment", "chain"])
def test_chord_inside_the_triangle_is_pruned_whole(inner):
    pts = [np.array([0.3, 0.3, 0.0]), np.array([0.5, 0.4, 0.0]), np.array([0.6, 0.7, 0.0])][: inner + 1]
    segs = list(zip(pts, pts[1:]))
    polys = split_triangle(TRI, segs, 1e-9)
    assert len(polys) == 1 and len(polys[0].rows) == 3
    assert_same_rings(polys, oracle.split_triangle(TRI, segs, 1e-9), alone(TRI, segs, 1e-9).pts3)


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


def test_triangulate_polygon_names_the_parent_triangle():
    poly = SplitPolygon([0, 1, 2, 3], parent_tri=17, ring2d=BOWTIE.tolist())
    with pytest.raises(DegeneratePolygon, match=r"no ear .*\(tri 17\)"):
        triangulate_polygon(poly)


def test_split_and_triangulate_names_the_parent_triangle(monkeypatch):
    monkeypatch.setattr(retriangulate, "_is_ear", lambda *args: False)
    segs = [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))]
    with pytest.raises(DegeneratePolygon, match=r"\(tri 42\)") as info:
        split_and_triangulate(TRI, segs, 1e-9, parent_tri=42)
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


@functools.cache
def fixture_splits(name):
    """Every split_and_triangulate call of one fixture run: its arguments,
    as the pipeline passed them, and the children it returned."""
    calls = []

    def recorded(*args, **kw):
        got = split_and_triangulate(*args, **kw)
        calls.append((args, kw, got))
        return got

    pipeline.split_and_triangulate = recorded
    try:
        run_pipeline(*SPLIT_RUNS[name]())
    finally:
        pipeline.split_and_triangulate = split_and_triangulate
    assert calls
    return calls


def assert_same_rings(got, want, table):
    """Polygons byte-equal to the old splitter's, in the same order, each
    ring with the same start and direction. The 3D rings are gathered from
    table, the point table the polygons' rows index."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.parent_tri == w.parent_tri
        assert len(g.holes) == len(w.holes) and len(g.holes2d) == len(w.holes2d)
        assert (g.ring2d is None) == (w.ring2d is None)
        pairs = [(table[g.rows], w.vertices), *((table[h], wh) for h, wh in zip(g.holes, w.holes)),
                 *((np.array(h), wh) for h, wh in zip(g.holes2d, w.holes2d))]
        if g.ring2d is not None:
            pairs.append((np.array(g.ring2d), w.ring2d))
        for x, y in pairs:
            assert x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


def _geometric(kw):
    return {k: v for k, v in kw.items() if k != "setup"}


@pytest.mark.parametrize("name", sorted(SPLIT_RUNS))
def test_split_rings_match_oracle_on_fixture_runs(name):
    for args, kw, _ in fixture_splits(name):
        want = oracle.split_triangle(*args, **_geometric(kw))
        assert_same_rings(split_triangle(*args, **kw), want, kw["setup"].pts3)
        table = alone(args[0], args[1], args[2], kw["boundary_points"]).pts3
        assert_same_rings(split_triangle(*args, **_geometric(kw)), want, table)


@pytest.mark.parametrize("name", sorted(SPLIT_RUNS))
def test_split_matches_oracle_on_fixture_runs(name):
    for args, kw, got in fixture_splits(name):
        # The pipeline's children, made from its precomputed setup, against
        # the old splitter on the geometric arguments alone.
        assert kw["setup"] is not None
        want = oracle.split_and_triangulate(*args, **_geometric(kw))
        got = gather(kw["setup"].pts3, got)
        assert got.dtype == want.dtype and got.shape == want.shape, kw["parent_tri"]
        assert got.tobytes() == want.tobytes(), kw["parent_tri"]


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
            split_and_triangulate(*args)
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
    try:
        want = oracle.split_triangle(*args)
    except GeometryError as err:
        with pytest.raises(type(err)):
            split_triangle(*args)
        return
    assert_same_rings(split_triangle(*args), want, alone(tri, segments, tol, boundary).pts3)


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
    setup = alone(tri, segments, tol, boundary)
    lookups = NumpyLookups()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retriangulate, "np", lookups)
        try:
            split_and_triangulate(tri, segments, tol, 5, boundary, setup)
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
    assert_same_rings(split_triangle(tri, segments, tol, 38, boundary),
                      oracle.split_triangle(tri, segments, tol, 38, boundary), alone(tri, segments, tol, boundary).pts3)
    assert len(split_triangle(tri, segments, tol, 38, boundary)) == 1


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
    tris = ear_clip(ring, [hole])
    pts = np.concatenate([ring, hole])
    assert len(tris) == len(pts)  # n - 2 + 2 per hole
    areas = [oracle_shoelace(pts[list(t)]) for t in tris]
    assert min(areas) > 0
    assert sum(areas) == pytest.approx(oracle_shoelace(ring) + oracle_shoelace(hole), rel=1e-12)
    edges = {(t[k], t[k - 2]) for t in tris for k in range(3)}
    rings = [range(len(ring)), range(len(ring), len(pts))]
    boundary = {(r[k], r[(k + 1) % len(r)]) for r in rings for k in range(len(r))}
    assert all((j, i) in edges or (i, j) in boundary for i, j in edges)
