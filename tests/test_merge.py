import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshbool import halfedge, merge, pipeline
from meshbool.errors import GeometryError, TopologyError
from meshbool.geometry import TriMesh, is_closed_manifold
from meshbool.intersect import intersect_all
from meshbool.merge import (
    MergedState,
    build_merged_state,
    clear_topology,
    compute_extrema,
    merge_vertices,
)
from meshbool.octree import find_candidates
from meshbool.pipeline import run_pipeline
from meshes import (
    blob_and_plane,
    cube,
    icosphere,
    oracle_build_merged_state,
    oracle_merge_vertices,
    tangent_cylinders,
    torus_pair,
    vw_pair,
)


def test_merge_exact_duplicate():
    verts, remap = merge_vertices(np.array([[0, 0, 0], [0, 0, 0], [1, 0, 0]], dtype=float), 1e-9)
    assert len(verts) == 2
    assert remap.tolist() == [0, 0, 1]


def test_merge_within_tolerance():
    tol = 1e-6
    verts, remap = merge_vertices(np.array([[0, 0, 0], [tol / 2, 0, 0]]), tol)
    assert len(verts) == 1
    assert remap.tolist() == [0, 0]
    # first occurrence is the canonical position
    assert np.array_equal(verts[0], [0, 0, 0])


def test_merge_keeps_separated_points():
    tol = 1e-6
    verts, remap = merge_vertices(np.array([[0, 0, 0], [3 * tol, 0, 0]]), tol)
    assert len(verts) == 2


def test_cube_cube_endpoints_all_shared():
    """Every intersection endpoint occurs at least twice in the raw segment
    stream (once per adjacent pair) and welds to one vertex. Counted with an
    independent rounding-dict oracle."""
    a = cube((0, 0, 0), 1.0, "A")
    b = cube((0.5, 0.5, 0.5), 1.0, "B")
    pairs = find_candidates(a, b)
    segs, _ = intersect_all(pairs, a, b, 1e-12)
    raw = np.stack((segs.p0, segs.p1), axis=1).reshape(-1, 3)
    counts = {}
    for p in raw:
        counts[tuple(np.round(p, 9))] = counts.get(tuple(np.round(p, 9)), 0) + 1
    assert len(segs) >= 6
    assert all(c >= 2 for c in counts.values())
    verts, remap = merge_vertices(raw, 1e-9)
    assert len(verts) == len(counts)


def _state_from_faces(verts, faces, source=None, tol=1e-9):
    faces = np.asarray(faces, dtype=np.int64)
    if source is None:
        source = np.zeros(len(faces), dtype=np.int8)
    return MergedState(
        vertices=np.asarray(verts, dtype=float),
        faces=faces,
        face_source=np.asarray(source, dtype=np.int8),
        edges=np.zeros((0, 2), dtype=np.int64),
        edge_tri_pairs=[],
        tol=tol,
        a_closed=False,
        b_closed=False,
    )


def test_clear_drops_repeated_index_triangle():
    state = _state_from_faces(np.eye(3), [[0, 0, 1]])
    with pytest.raises(TopologyError):
        # the surface would lose its only face
        clear_topology(state)


def test_clear_same_edge_configuration():
    # two faces sharing the same directed edge (0, 1): a folded-flat sliver
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -0.001, 0]])
    state = _state_from_faces(verts, [[0, 1, 2], [0, 1, 3]])
    cleared = clear_topology(state)
    faces = cleared.surface_faces(0)
    assert len(faces) == 1  # the sliver is gone
    seen = set()
    for tri in faces:
        for k in range(3):
            e = (tri[k], tri[(k + 1) % 3])
            assert e not in seen
            seen.add(e)


def test_clearing_names_repeated_edges_without_a_table(monkeypatch):
    """The repair reads the repeated edges off one stable sort of the keys:
    no edge table (SurfaceTopology, or any other class of halfedge) is built."""
    built = []
    for cls in [c for c in vars(halfedge).values()
                if isinstance(c, type) and c.__module__ == halfedge.__name__]:
        monkeypatch.setattr(cls, "__init__",
                            lambda self, faces, _build=cls.__init__: built.append(self) or _build(self, faces))
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -0.001, 0]])
    cleared = clear_topology(_state_from_faces(verts, [[0, 1, 2], [0, 1, 3]]))
    assert cleared.faces.tolist() == [[0, 1, 2]]
    assert built == []


def test_clear_idempotent_on_clean_cube():
    c = cube()
    state = _state_from_faces(c.vertices, c.faces)
    state.a_closed = True
    once = clear_topology(state)
    twice = clear_topology(once)
    assert np.array_equal(once.faces, twice.faces)
    assert np.array_equal(once.faces, c.faces)


@pytest.mark.parametrize("name, searched", [("cube_sphere", False), ("vw", True)])
def test_only_surfaces_that_are_not_closed_manifolds_are_searched_for_repeated_edges(monkeypatch, name, searched):
    """A closed manifold repeats no directed edge, so clearing searches a
    surface for repeated edges only when it was open or fails that check:
    never on a closed fixture run, on every pass of an open one."""
    calls = []
    find = merge.repeated_edges
    monkeypatch.setattr(merge, "repeated_edges", lambda faces: calls.append(len(faces)) or find(faces))
    run_pipeline(*STAGE3_RUNS[name]())
    assert bool(calls) == searched


def test_compute_extrema_cube():
    c = cube()
    ext = compute_extrema(c.vertices)
    assert np.array_equal(c.vertices[ext[0]], [0, 0, 0])  # min x, lowest index
    assert c.vertices[ext[1]][0] == 1.0
    assert c.vertices[ext[5]][2] == 1.0


def test_compute_extrema_single_point():
    ext = compute_extrema(np.array([[1.0, 2.0, 3.0]]))
    assert ext.tolist() == [0, 0, 0, 0, 0, 0]


def test_compute_extrema_matches_scan_oracle_on_cylinders():
    a, b = tangent_cylinders(1.0, n_theta=24, n_rings=9)
    state = run_pipeline(a, b).merged
    ext = state.extrema
    for axis in range(3):
        lo = min(range(len(state.vertices)), key=lambda i: (state.vertices[i][axis], i))
        hi = max(range(len(state.vertices)), key=lambda i: (state.vertices[i][axis], -i))
        assert ext[2 * axis] == lo and ext[2 * axis + 1] == hi
    # all six extrema are original (non-intersection) vertices
    n_orig = a.num_vertices + b.num_vertices
    assert all(int(e) < n_orig for e in ext)


def test_merged_state_cube_cube_invariants():
    a = cube((0, 0, 0), 1.0, "A")
    b = cube((0.5, 0.5, 0.5), 1.0, "B")
    state = run_pipeline(a, b).merged
    # both surfaces manifold after clearing
    for surf, tag in ((0, "A"), (1, "B")):
        mesh = TriMesh(state.vertices, state.surface_faces(surf), source=tag)
        assert is_closed_manifold(mesh)
    # no dangling indices
    assert state.faces.max() < len(state.vertices)
    assert state.edges.max() < len(state.vertices)
    # vertex count law: originals plus unique intersection points
    unique_curve_points = len(np.unique(state.edges))
    assert len(state.vertices) == a.num_vertices + b.num_vertices + unique_curve_points


def test_clearing_convergence_error_reported():
    # twelve faces over the same directed edge: one repair per pass cannot
    # finish within the pass budget
    verts = np.concatenate(
        [np.array([[0.0, 0, 0], [1.0, 0, 0]]),
         np.stack([np.full(12, 0.5), np.linspace(1, 12, 12), np.zeros(12)], axis=1)]
    )
    faces = [[0, 1, 2 + k] for k in range(12)]
    state = _state_from_faces(verts, faces)
    with pytest.raises(TopologyError):
        clear_topology(state)


# ---------------------------------------------------------------------------
# The weld and the array-built merged state against the seed loops
# ---------------------------------------------------------------------------


def assert_same_weld(raw, tol):
    verts, remap = merge_vertices(raw, tol)
    want_verts, want_remap = oracle_merge_vertices(raw, tol)
    assert np.array_equal(remap, want_remap)
    assert np.array_equal(verts, want_verts)
    assert verts.dtype == want_verts.dtype and remap.dtype == want_remap.dtype


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
def test_merge_rejects_a_tolerance_that_is_not_finite_and_positive(tol):
    with pytest.raises(ValueError, match="finite and > 0"):
        merge_vertices(np.zeros((2, 3)), tol)


def test_merge_chain_follows_the_first_fit_scan():
    tol = 1e-6
    # 0.6 tol steps: the third point is 1.2 tol from the first and is kept
    chain = np.array([[0, 0, 0], [0.6 * tol, 0, 0], [1.2 * tol, 0, 0]])
    assert merge_vertices(chain, tol)[1].tolist() == [0, 0, 1]
    # the middle point touches both kept points and joins the one whose cell
    # the scan visits first (dx = -1), not the lowest index
    bridge = np.array([[0, 0, 0], [-1.2 * tol, 0, 0], [-0.6 * tol, 0, 0]])
    assert merge_vertices(bridge, tol)[1].tolist() == [0, 1, 1]
    assert_same_weld(chain, tol)
    assert_same_weld(bridge, tol)


def test_merge_squares_like_the_scan_at_exactly_tol():
    """The scan squares with pow(), which can land one ulp below x * x: a pair
    exactly tol apart then welds. Find such a tol and check both agree."""
    tols = (1e-6 * (1 + k * 2.0**-30) for k in range(1, 20000))
    tol = next((t for t in tols if np.float64(t) ** 2 < t * t), None)
    if tol is None:
        pytest.skip("pow(x, 2) == x * x for every candidate on this platform")
    pair = np.array([[0.0, 0.0, 0.0], [tol, 0.0, 0.0]])
    assert merge_vertices(pair, tol)[1].tolist() == [0, 0]
    assert_same_weld(pair, tol)


STAGE3_RUNS = {
    "cube_cube": lambda: (cube((0, 0, 0), 1.0, "A"), cube((0.5, 0.5, 0.5), 1.0, "B")),
    "cube_sphere": lambda: (cube((-1, -1, -1), 2.0, "A"), icosphere(1.3, subdivisions=3, source="B")),
    "torus_pair": lambda: torus_pair(1.0, 0.35, n_major=24, n_minor=12),
    "blob_and_plane": blob_and_plane,
    "vw": vw_pair,
    "tangent_cylinders": tangent_cylinders,
}


def _recorder(fn, into, key):
    def recorded(*args):
        into[key] = args
        return fn(*args)

    return recorded


@pytest.fixture(scope="module")
def stage3_inputs():
    """The weld and assembly arguments of one pipeline run per fixture pair."""
    out = {}
    for name, make in STAGE3_RUNS.items():
        rec = {}
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(merge, "merge_vertices", _recorder(merge.merge_vertices, rec, "weld"))
            mp.setattr(pipeline, "build_merged_state", _recorder(pipeline.build_merged_state, rec, "assembly"))
            run_pipeline(*make())
        out[name] = rec
    return out


@pytest.mark.parametrize("name", sorted(STAGE3_RUNS))
def test_weld_matches_oracle_on_fixture_runs(stage3_inputs, name):
    raw, tol = stage3_inputs[name]["weld"]
    assert_same_weld(raw, tol)
    # the same input far from the origin and at millimetre scale
    assert_same_weld(raw + 1e3, tol)
    assert_same_weld(raw * 1e-3, tol * 1e-3)


def replacements(splits):
    """The oracle's form of the split output: ('A'|'B', face) -> the
    children's (k, 3, 3) coordinates, gathered from the surface's point table."""
    return {
        (tag, fid): table[np.array(rows, dtype=np.intp).reshape(-1, 3)]
        for tag, (fids, kids, table) in zip("AB", splits)
        for fid, rows in zip(fids, kids)
    }


@pytest.mark.parametrize("name", ["cube_sphere", "torus_pair", "blob_and_plane", "vw"])
def test_assembly_matches_oracle(stage3_inputs, name):
    a, b, splits, segments, tol = args = stage3_inputs[name]["assembly"]
    got = build_merged_state(*args)
    want = oracle_build_merged_state(a, b, replacements(splits), segments, tol)
    for field in ("vertices", "faces", "face_source", "edges"):
        a, b = getattr(got, field), getattr(want, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    assert got.edge_tri_pairs == want.edge_tri_pairs


DIRECTIONS = [
    np.asarray(d, dtype=float) / np.linalg.norm(d)
    for d in ((1, 0, 0), (0, 1, 0), (0, 0, -1), (1, 1, 0), (1, 1, 1), (-1, 0.5, 0.25))
]


# A cell offset that once collided in the weld's cell hash (since deleted):
# under the keys 73856093 x + 19349663 y + 83492791 z, cells c and
# c + COLLISION shared a key.
COLLISION = np.array([19349663, -73856093, 0])


@st.composite
def weld_clouds(draw):
    """Clusters around cell-border centres k*tol (or one ulp below): members
    at 0, 0.3, 0.6, 0.99 and 1.01 tol, chains of 0.6 tol steps that make
    components the scan must resolve, and exact duplicates, in drawn order.
    A cluster may sit COLLISION cells away, where its cells' keys equal those
    of the cells around the origin, and a zero coordinate may be copied as
    -0.0."""
    tol = draw(st.sampled_from([1e-9, 1e-6, 0.25]))
    k0 = round(draw(st.sampled_from([0.0, 1e-3, -1e-3, 1e3, -1e3])) / tol)
    pts = []
    for _ in range(draw(st.integers(1, 5))):
        cell = np.asarray(draw(st.tuples(*[st.integers(-2, 2)] * 3))) + k0
        if draw(st.booleans()):
            cell = cell + COLLISION
        centre = cell * tol
        if draw(st.booleans()):
            centre = np.nextafter(centre, -np.inf)
        pts.append(centre)
        for f, d in draw(st.lists(st.tuples(st.sampled_from([0.0, 0.3, 0.6, 0.99, 1.01]),
                                            st.sampled_from(DIRECTIONS)), max_size=4)):
            pts.append(centre + f * tol * d)
        d = draw(st.sampled_from(DIRECTIONS))
        pts += [centre + 0.6 * step * tol * d for step in range(1, draw(st.integers(0, 4)) + 1)]
    pts = np.asarray(pts)
    pts = np.concatenate([pts, pts[draw(st.lists(st.integers(0, len(pts) - 1), max_size=4))]])
    signed = pts[draw(st.lists(st.integers(0, len(pts) - 1), max_size=4))]
    pts = np.concatenate([pts, np.where(signed == 0.0, -0.0, signed)])
    return pts[draw(st.permutations(range(len(pts))))], tol


@settings(max_examples=400, deadline=None)
@given(weld_clouds())
def test_weld_matches_oracle_on_generated_clusters(cloud):
    assert_same_weld(*cloud)


def test_colliding_cells_and_signed_zeros_weld_like_the_scan():
    tol = 1e-6
    near = np.array([[0.0, 0.0, 0.0], [0.5 * tol, 0.0, 0.0], [1.5 * tol, 0.0, 0.0]])
    far = near + COLLISION * tol  # the same keys, other cells
    raw = np.concatenate([near, far, np.where(near == 0.0, -0.0, near), far[:1] * [1, 1, -1]])
    assert merge_vertices(raw, tol)[1].tolist() == [0, 0, 1, 2, 2, 3, 0, 0, 1, 2]
    assert_same_weld(raw, tol)


def test_weld_matches_oracle_on_a_crowded_cell():
    """1,000 distinct points in one tol-sized cell: they form one group that
    the root rule cannot settle, so all of them go through the scan."""
    tol = 1e-6
    raw = (np.random.default_rng(7).random((1000, 3)) + [3.0, -2.0, 5.0]) * tol
    assert len(np.unique(np.floor(raw / tol), axis=0)) == 1
    assert_same_weld(raw, tol)


# ---------------------------------------------------------------------------
# The sweep's groups, the root rule and the scan
# ---------------------------------------------------------------------------


def _across(d):
    """A unit vector at right angles to d."""
    v = np.cross(d, [1.0, 0.0, 0.0])
    return v / np.linalg.norm(v)


ALONG, ACROSS = merge._SWEEP, _across(merge._SWEEP)


@st.composite
def sweep_clouds(draw):
    """Points that test the sweep's bound: pairs 1 - 2**-k or 1 + 2**-k tol
    apart along the sweep axis or across it, exact copies, 0.6 tol chains
    (their components go through the scan), the sign and axis images of a
    point, which an axis-aligned sort would tie, and pairs many tol apart
    across the sweep axis, whose projections tie up to rounding. Coordinates
    and tol are scaled by 2**-40, 1 or 2**40."""
    tol = draw(st.sampled_from([1e-9, 1e-3]))
    pts = []
    for _ in range(draw(st.integers(1, 4))):
        centre = np.asarray(draw(st.tuples(*[st.integers(-40, 40)] * 3)), dtype=float) * 0.37 * tol
        pts.append(centre)
        kind = draw(st.sampled_from(["pair", "copy", "chain", "mirror", "tie"]))
        if kind == "pair":
            f = 1 + draw(st.sampled_from([-1, 1])) * 2.0 ** -draw(st.integers(20, 52))
            pts.append(centre + f * tol * draw(st.sampled_from([ALONG, ACROSS, -ALONG])))
        elif kind == "copy":
            pts += [centre] * draw(st.integers(1, 3))
        elif kind == "chain":
            d = draw(st.sampled_from([ALONG, ACROSS]))
            pts += [centre + 0.6 * step * tol * d for step in range(1, draw(st.integers(2, 5)))]
        elif kind == "mirror":
            perm = draw(st.permutations(range(3)))
            pts += [centre[perm] * sign for sign in ([1, 1, 1], [-1, 1, 1], [1, -1, -1])]
        else:
            pts.append(centre + draw(st.sampled_from([2.0, 50.0])) * tol * ACROSS)
    pts = np.asarray(pts)
    pts = pts[draw(st.permutations(range(len(pts))))]
    scale = draw(st.sampled_from([2.0**-40, 1.0, 2.0**40]))
    return pts * scale, tol * scale


@settings(max_examples=300, deadline=None)
@given(sweep_clouds())
def test_sweep_welds_like_the_scan(cloud):
    assert_same_weld(*cloud)


def test_sweep_ties_and_bound_edges():
    """A pair 50 tol apart across the sweep axis projects to nearly the same
    value and must not weld; pairs 2**-30 tol under and over tol apart along
    the axis weld and stay apart as in the scan."""
    tol = 1e-6
    p = np.array([0.3, -0.2, 0.7])
    q = p + 50 * tol * ACROSS
    proj = lambda r: (r[0] * ALONG[0] + r[1] * ALONG[1]) + r[2] * ALONG[2]
    assert abs(proj(q) - proj(p)) < 1e-3 * tol
    assert merge_vertices(np.array([p, q]), tol)[1].tolist() == [0, 1]
    for f, want in ((1 - 2.0**-30, [0, 0]), (1 + 2.0**-30, [0, 1])):
        pair = np.array([p, p + f * tol * ALONG])
        assert merge_vertices(pair, tol)[1].tolist() == want
        assert_same_weld(pair, tol)


def test_sweep_bound_covers_projection_rounding():
    """Far from the origin, a pair the scan welds can project more than tol
    apart: the sweep's rounding allowance must keep such a pair near."""
    tol = 1e-6
    proj = lambda r: (r[0] * ALONG[0] + r[1] * ALONG[1]) + r[2] * ALONG[2]
    pairs = [np.array([p, p + (1 - 2.0**-40) * tol * ALONG])
             for p in np.array([1000.0, -700.0, 1300.0]) + 0.37 * np.arange(50)[:, None]]
    wide = [pair for pair in pairs if abs(proj(pair[1]) - proj(pair[0])) > tol
            and oracle_merge_vertices(pair, tol)[1].tolist() == [0, 0]]
    assert wide
    for pair in wide:
        assert_same_weld(pair, tol)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_weld_rejects_non_finite_points(bad):
    raw = np.zeros((3, 3))
    raw[1, 2] = bad
    with pytest.raises(GeometryError, match="too small"):
        merge_vertices(raw, 1e-6)


def test_weld_rejects_a_tol_the_cells_cannot_hold():
    raw = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    with pytest.raises(GeometryError, match="int64 range"):
        merge_vertices(raw, 2.0**-63)
    with pytest.raises(ValueError, match="finite and > 0"):
        merge_vertices(raw, -2.0**-63)


def _scanned(monkeypatch):
    """Wrap merge._greedy_weld; returns the list of the rows each call got."""
    seen, scan = [], merge._greedy_weld
    monkeypatch.setattr(merge, "_greedy_weld", lambda raw, tol: seen.append(raw.tolist()) or scan(raw, tol))
    return seen


def test_only_groups_the_root_rule_cannot_settle_reach_the_scan(monkeypatch):
    """A change that sends isolated points, exact copies or groups within tol
    of their lowest index to the scan, or that settles a chain without it,
    fails here."""
    pools = []
    weld = merge.merge_vertices
    monkeypatch.setattr(merge, "merge_vertices", lambda raw, tol: pools.append((raw, tol)) or weld(raw, tol))
    scanned = _scanned(monkeypatch)
    # torus_pair's pool still holds distinct points within tol of each other;
    # cube_sphere's, since each crossing is lerped from one end of its edge,
    # only exact copies.
    run_pipeline(*STAGE3_RUNS["torus_pair"]())
    (raw, tol), = pools
    verts, remap = merge_vertices(raw, tol)
    # the root rule welds distinct points, and none of them is scanned
    assert (verts[remap] != raw).any(axis=1).any()
    assert not any(scanned)
    tol = 1e-6
    isolated = np.array([[0.0, 0.0, 0.0], [5 * tol, 0.0, 0.0], [0.0, -7 * tol, 3 * tol]])
    root = np.array([0.3, -0.2, 0.7])
    group = root + tol * np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [0.0, 0.6, 0.0], [-0.4, 0.0, -0.5]])
    chain = 2.0 + 0.6 * tol * np.arange(3)[:, None] * DIRECTIONS[4]
    settled = np.concatenate([isolated, isolated[[2, 0]], group, group[[1]]])
    scanned.clear()
    assert_same_weld(settled, tol)
    assert not any(scanned)
    assert_same_weld(np.concatenate([settled, chain]), tol)
    assert scanned == [chain.tolist()]


def test_root_rule_checks_cells_like_the_scan():
    """A pair that passes the distance test two cells apart: the scan never
    compares it, so the root rule must not weld it either."""
    tols = (1e-6 * (1 + k * 2.0**-30) for k in range(1, 20000))
    tol = next((t for t in tols if np.float64(t) ** 2 < t * t), None)
    if tol is None:
        pytest.skip("pow(x, 2) == x * x for every candidate on this platform")
    pair = np.array([[-1e-30, 0.0, 0.0], [tol, 0.0, 0.0]])
    assert np.float_power(pair[1] - pair[0], 2).sum() < tol * tol
    assert np.floor(pair[:, 0] / tol).tolist() == [-1, 1]
    assert merge_vertices(pair, tol)[1].tolist() == [0, 1]
    assert_same_weld(pair, tol)


def test_weld_matches_oracle_on_a_giant_group(monkeypatch):
    """The worst case: a grid on the plane normal to the sweep direction
    projects into one group, which the root rule cannot settle. Every point is
    given twice, some have a partner 0.5 tol away and one row is a 0.6 tol
    chain; the scan must resolve them all."""
    tol = 1e-6
    u = ACROSS
    v = np.cross(ALONG, u)
    g = 3 * tol * np.arange(30)
    grid = (g[:, None, None] * u + g[None, :, None] * v).reshape(-1, 3) + [0.3, -0.2, 0.7]
    partners = grid[::7] + 0.5 * tol * (u + v) / math.sqrt(2)
    chain = grid[-1] + 0.6 * tol * np.arange(1, 6)[:, None] * u
    raw = np.concatenate([grid, partners, grid, chain])
    raw = raw[np.random.default_rng(3).permutation(len(raw))]
    scanned = _scanned(monkeypatch)
    assert_same_weld(raw, tol)
    assert sum(map(len, scanned)) == len(raw)
