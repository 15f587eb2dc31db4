"""The numpy edge table against the dict-based oracles it replaced, and
against the searchsorted table of tests/oracle_halfedge.py.

Every helper that reads the table must give the oracle's answer, in the same
order, on the fixture meshes, on both merged surfaces of full pipeline runs
and on generated face arrays with duplicated, flipped and dropped faces,
edges shared by three faces and boundaries that pass one vertex twice.
"""
import sys

import numpy as np
import oracle_halfedge as frozen
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshbool.errors import GeometryError, TopologyError
from meshbool.geometry import TriMesh, boundary_edges, is_closed_manifold
from meshbool.halfedge import EdgeTable, SurfaceTopology, edge_keys, min_labels
from meshbool.loops import loop_edge_map
from meshbool.merge import _directed_edge_duplicates
from meshbool.pipeline import _propagate_edge_points, run_pipeline
from meshes import (
    OracleSurfaceTopology,
    blob_and_plane,
    bumpy_pair,
    closed_cylinder,
    cube,
    grid_plane,
    icosphere,
    lobed_blob,
    oracle_boundary_edges,
    oracle_chain_boundary_loops,
    oracle_directed_edge_duplicates,
    oracle_is_closed_manifold,
    oracle_propagate_edge_points,
    random_convex_pair,
    strip_surface,
    tangent_cylinders,
    torus,
    torus_pair,
    vw_pair,
)


def _fixture_meshes():
    out = {
        "cube": cube(),
        "icosphere": icosphere(1.0, subdivisions=2),
        "cylinder": closed_cylinder(),
        "torus": torus(n_major=24, n_minor=12),
        "strip": strip_surface([(0, 0), (1, 1), (2, 0)]),
        "blob": lobed_blob(subdivisions=2),
        "plane": grid_plane(n=8),
        "cube_reversed": cube().reversed(),
    }
    pairs = {
        "tangent_cylinders": tangent_cylinders(),
        "torus_pair": torus_pair(n_major=24, n_minor=12),
        "vw": vw_pair(),
        "blob_and_plane": blob_and_plane(),
        "convex": random_convex_pair(np.random.default_rng(7)),
    }
    for name, (a, b) in pairs.items():
        out[name + "_a"], out[name + "_b"] = a, b
    return out


FIXTURES = _fixture_meshes()

PIPELINE_PAIRS = {
    "cube_cube": lambda: (cube((0, 0, 0), 1.0, "A"), cube((0.5, 0.5, 0.5), 1.0, "B")),
    "cube_sphere": lambda: (cube((-1, -1, -1), 2.0, "A"), icosphere(1.3, subdivisions=3, source="B")),
    "torus_pair": lambda: torus_pair(1.0, 0.35, n_major=24, n_minor=12),
    "blob_and_plane": blob_and_plane,
    "vw": vw_pair,
}


@pytest.fixture(scope="module")
def pipeline_runs():
    return {name: run_pipeline(*make()) for name, make in PIPELINE_PAIRS.items()}


def _undirected(faces):
    """Sorted unique (min, max) vertex pairs of a face array's edges."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    return np.unique(np.sort(np.stack([faces.ravel(), faces[:, [1, 2, 0]].ravel()], 1), 1), axis=0)


def _pairs(topo, edges):
    """(u, v) tuples of edge ids."""
    return list(zip(topo.u[edges].tolist(), topo.v[edges].tolist()))


def _points(extra):
    return [(k, [tuple(p) for p in v]) for k, v in extra.items()]


def assert_table_agrees(faces):
    """Every field and lookup of the table equals the frozen table's."""
    got, want = EdgeTable(faces), frozen.EdgeTable(faces)
    for name in ("first", "twin", "boundary", "duplicate"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    for u, v in _undirected(faces).tolist():
        assert np.array_equal(got.faces_on(u, v), want.faces_on(u, v)), (u, v)


def assert_edge_helpers_agree(faces, n_vertices):
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    mesh = TriMesh(np.zeros((n_vertices, 3)), faces)
    assert_table_agrees(faces)
    assert mesh.closed == (len(faces) > 0 and len(oracle_boundary_edges(faces)) == 0)
    assert np.array_equal(boundary_edges(faces), oracle_boundary_edges(faces))
    assert is_closed_manifold(mesh) == oracle_is_closed_manifold(mesh)
    assert_boundary_loops_agree(mesh)
    assert list(_directed_edge_duplicates(faces).items()) == list(
        oracle_directed_edge_duplicates(faces).items()
    )


def assert_boundary_loops_agree(mesh):
    """boundary_loops gives the dict walk's cycles wherever the walk returns.

    Where the walk raises at a vertex with two outgoing boundary edges, the
    cycles close and cover every boundary edge once. A repeated directed
    edge, which the walk may pass over, is a TopologyError.
    """
    if EdgeTable(mesh.faces).duplicate.any():
        with pytest.raises(TopologyError, match="used twice"):
            mesh.boundary_loops()
        return
    got = mesh.boundary_loops()
    try:
        want = oracle_chain_boundary_loops(oracle_boundary_edges(mesh.faces))
    except TopologyError:
        steps = [(c[i], c[(i + 1) % len(c)]) for c in got for i in range(len(c))]
        assert sorted(steps) == sorted(map(tuple, boundary_edges(mesh.faces).tolist()))
        return
    assert got == want


def assert_topology_agrees(faces, walls):
    """Both raise TopologyError, or the floods agree and the one labelled
    boundary_cycles call gives each region the cycles that the frozen
    table's walk gives its face set, region by region, in the same order."""
    try:
        want = OracleSurfaceTopology(faces)
    except TopologyError:
        with pytest.raises(TopologyError):
            SurfaceTopology(faces)
        return
    got = SurfaceTopology(faces)
    labels = got.flood_regions(walls)
    assert np.array_equal(labels, want.flood_regions(walls))
    per_region = [[] for _ in range(int(labels.max()) + 1 if len(labels) else 0)]
    for cyc in got.boundary_cycles(labels):
        assert (labels[cyc // 3] == labels[cyc[0] // 3]).all()
        per_region[labels[cyc[0] // 3]].append(_pairs(got, cyc))
    walk = frozen.SurfaceTopology(faces)
    for rid, cycles in enumerate(per_region):
        member = np.nonzero(labels == rid)[0]
        assert sorted(e for cyc in cycles for e in cyc) == sorted(want.region_boundary(member))
        assert cycles == walk.boundary_cycles(member)


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_edge_helpers_match_oracle(name):
    mesh = FIXTURES[name]
    assert_edge_helpers_agree(mesh.faces, mesh.num_vertices)
    rng = np.random.default_rng(3)
    und = _undirected(mesh.faces)
    walls = {tuple(map(int, e)) for e in und[rng.random(len(und)) < 0.3]}
    assert_topology_agrees(mesh.faces, walls)


@pytest.mark.parametrize("name", sorted(PIPELINE_PAIRS))
def test_merged_surfaces_match_oracle(pipeline_runs, name):
    state = pipeline_runs[name]
    merged = state.merged
    walls = set(loop_edge_map(state.loops))
    for surf in (0, 1):
        faces = merged.surface_faces(surf)
        assert_edge_helpers_agree(faces, len(merged.vertices))
        assert_topology_agrees(faces, walls)


@pytest.mark.parametrize("name", sorted(PIPELINE_PAIRS))
def test_propagated_edge_points_match_oracle(pipeline_runs, name):
    state = pipeline_runs[name]
    for tag, mesh in (("A", state.mesh_a), ("B", state.mesh_b)):
        per_face = {}
        for s in state.segments:
            fid = s.tri_a if tag == "A" else s.tri_b
            per_face.setdefault(fid, []).append((s.p0, s.p1))
        got = _propagate_edge_points(mesh, per_face, state.merged.tol)
        assert got
        assert _points(got) == _points(oracle_propagate_edge_points(mesh, per_face, state.merged.tol))


def test_propagated_edge_points_on_an_edge_of_three_faces():
    verts = np.array([[0, 0, 0], [1, 0, 0], [0.5, 1, 0], [0.5, -1, 0], [0.5, 0, 1.0]])
    # faces 0-3 share edge {0, 1}; degenerate face 4 uses it twice
    mesh = TriMesh(verts, [[0, 1, 2], [1, 0, 3], [0, 1, 4], [1, 0, 2], [1, 0, 1]])
    per_face = {0: [(np.array([0.25, 0.0, 0.0]), np.array([0.5, 0.5, 0.0]))],
                3: [(np.array([0.75, 0.0, 0.0]), np.array([0.4, 0.4, 0.0]))]}
    got = _propagate_edge_points(mesh, per_face, 1e-9)
    assert sorted(got) == [0, 1, 2, 3, 4] and len(got[4]) == 4
    assert _points(got) == _points(oracle_propagate_edge_points(mesh, per_face, 1e-9))


PROPAGATION_MESH = icosphere(1.0, subdivisions=1)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, PROPAGATION_MESH.num_faces - 1), st.integers(0, 2),
                          st.sampled_from([0.5, 0.99, 1.0, 1.01, 3.0, -0.99, -1.0, -1.01]),
                          st.sampled_from([0.0, 0.5, 0.99, 1.0, 1.01, -1.0])),
                min_size=1, max_size=12))
def test_propagated_points_at_the_tolerances_match_oracle(picks):
    """Points tol-fractions from an edge's ends (negative: from the far end)
    and from its line, where each of the three tests flips."""
    mesh, tol = PROPAGATION_MESH, 1e-6
    per_face = {}
    for fid, k, along, off in picks:
        tri = mesh.vertices[mesh.faces[fid]]
        va, ab = tri[k], tri[(k + 1) % 3] - tri[k]
        length = float(np.linalg.norm(ab))
        t = along * tol / length if along > 0 else 1 + along * tol / length
        side = np.cross(np.cross(tri[1] - tri[0], tri[2] - tri[0]), ab)
        p = va + t * ab + off * tol * side / np.linalg.norm(side)
        per_face.setdefault(fid, []).append((p, tri.mean(axis=0)))
    got = _propagate_edge_points(mesh, per_face, tol)
    assert _points(got) == _points(oracle_propagate_edge_points(mesh, per_face, tol))


def test_table_invariants_on_open_and_repeated_edges():
    table = EdgeTable([[0, 1, 2], [0, 1, 3], [2, 1, 0]])
    assert table.duplicate.tolist() == [False, False, False, True] + [False] * 5
    assert table.first[3] == 0
    assert table.twin[0] == 7 and table.twin[7] == 0
    assert table.faces_on(0, 1).tolist() == [0, 1, 2]
    with pytest.raises(TopologyError, match=r"\(0, 1\) used twice"):
        SurfaceTopology(table.faces)


def test_edge_keys_pair_each_edge_with_its_reverse():
    big = 2**31 - 1  # the largest id allowed: the key of (big - 1, big) is just below 2**63
    faces = [[0, big - 1, big], [big, big - 1, 0], [3, 3, 2]]
    keys = edge_keys(faces)
    assert (keys > 0).all()
    assert (keys[[0, 1, 5]] + 1 == keys[[4, 3, 2]]).all()  # u < v is even, its reverse odd
    assert keys[6] % 2 == 0 and keys[8] + 1 == keys[7]  # (3, 3) is its own reverse
    assert boundary_edges(faces[:2]).tolist() == []


def test_edge_keys_refuse_ids_past_the_key_range():
    with pytest.raises(GeometryError, match=r"2\*\*31"):
        edge_keys(np.array([[0, 1, 2**31]]))
    with pytest.raises(GeometryError, match=r"2\*\*31"):
        EdgeTable(np.array([[0, 1, 2**31]]))


def _callers():
    """Names of the functions on the stack, from the one that called the
    caller outward."""
    names, frame = [], sys._getframe(2)
    while frame is not None:
        names.append(frame.f_code.co_name)
        frame = frame.f_back
    return names


@pytest.mark.parametrize("name", ["cube_sphere", "torus_pair", "vw"])
def test_edge_tables_built_once_per_merged_surface(monkeypatch, name):
    """Closed and duplicate verdicts build no table; build_subsurfaces builds
    one per merged surface, open or closed, and loop completion none. The
    propagation finds neighbours without a table."""
    built = []
    build = EdgeTable.__init__

    def counted(self, faces):
        built.append(_callers())
        build(self, faces)

    monkeypatch.setattr(EdgeTable, "__init__", counted)
    state = run_pipeline(*PIPELINE_PAIRS[name]())
    assert (state.result is not None) == (name != "vw")
    per_surface = [c for c in built if "build_subsurfaces" in c]
    neighbours = [c for c in built if "_propagate_edge_points" in c]
    assert len(per_surface) == 2
    assert len(neighbours) == 0
    assert len(built) == len(per_surface), built


def test_propagation_makes_no_edge_lookup_per_point(monkeypatch):
    """The faces across every hit edge come from one key search, not from
    a faces_on call per hit."""
    calls = []
    lookup = EdgeTable.faces_on
    monkeypatch.setattr(EdgeTable, "faces_on", lambda self, u, v: calls.append((u, v)) or lookup(self, u, v))
    state = run_pipeline(*bumpy_pair(3))
    assert len(state.loops) > 10
    assert calls == []


def test_one_flood_and_one_cycle_pass_per_merged_surface(monkeypatch):
    """Many loops, one region pass: each merged surface of a bumpy pair
    (dozens of regions) is flooded once and has its cycles read once."""
    calls = []
    for name in ("flood_regions", "boundary_cycles"):
        method = getattr(SurfaceTopology, name)
        monkeypatch.setattr(SurfaceTopology, name,
                            lambda self, arg, _m=method, _n=name: calls.append(_n) or _m(self, arg))
    state = run_pipeline(*bumpy_pair(2))
    assert state.result is not None and len(state.subsurfaces) > 10
    assert calls == ["flood_regions", "boundary_cycles"] * 2


def test_min_labels_smallest_id_per_component():
    assert min_labels(6, [5, 3, 4], [3, 1, 2]).tolist() == [0, 1, 2, 1, 2, 1]
    assert min_labels(3, [], []).tolist() == [0, 1, 2]


# ---------------------------------------------------------------------------
# Property tests on generated face arrays
# ---------------------------------------------------------------------------

OCTAHEDRON = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4), (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]


@st.composite
def face_soups(draw):
    """Small random triples over few vertices: flips and pinched boundaries
    are common. A triple that repeats a directed edge, its own or an earlier
    triple's, is dropped; edited_octahedra draws the repeats. One soup in
    four draws any triples and may close up: a repeated corner (u, u, v), or
    a triple and its flip, is a closed surface of its own. The rest draw
    distinct corners and keep a triple only if it brings a new undirected
    edge, so the last triple kept leaves a boundary for the walk."""
    n = draw(st.integers(3, 7))
    index = st.integers(0, n - 1)
    closable = draw(st.sampled_from([False, False, False, True]))
    triple = st.tuples(index, index, index)
    if not closable:
        triple = st.lists(index, min_size=3, max_size=3, unique=True).map(tuple)
    faces, used = [], set()
    for a, b, c in draw(st.lists(triple, min_size=1, max_size=14)):
        edges = {(a, b), (b, c), (c, a)}
        fresh = any((u, v) not in used and (v, u) not in used for u, v in edges)
        if len(edges) == 3 and not edges & used and (closable or fresh):
            faces.append((a, b, c))
            used |= edges
    return np.asarray(faces, dtype=np.int64).reshape(-1, 3), n


# A hexagonal bipyramid without faces (0, 1, 6) and (3, 4, 6): its apex 6 is
# a bowtie, two fans that share the vertex and no edge, so the boundary
# passes 6 twice.
BOWTIE = ([(k, (k + 1) % 6, 6) for k in (1, 2, 4, 5)]
          + [((k + 1) % 6, k, 7) for k in range(6)])


@st.composite
def edited_octahedra(draw):
    """A closed octahedron or the open bowtie bipyramid, with faces dropped,
    duplicated, flipped, or a fin face added on an edge so three faces share
    it."""
    base, n = draw(st.sampled_from([(OCTAHEDRON, 6), (BOWTIE, 8)]))
    faces = list(base)
    edits = st.tuples(st.sampled_from(["drop", "duplicate", "flip", "fin", "fin_reversed"]),
                      st.integers(0, 63))
    for op, i in draw(st.lists(edits, max_size=5)):
        if not faces:
            break
        k = i % len(faces)
        a, b, c = faces[k]
        if op == "drop":
            faces.pop(k)
        elif op == "duplicate":
            faces.append((a, b, c))
        elif op == "flip":
            faces[k] = (c, b, a)
        else:
            faces.append((a, b, n) if op == "fin" else (b, a, n))
            n += 1
    return np.asarray(faces, dtype=np.int64).reshape(-1, 3), n


def test_bowtie_boundary_passes_the_apex_twice():
    topo = SurfaceTopology(BOWTIE)
    (cycle,) = topo.boundary_cycles(np.zeros(len(BOWTIE), dtype=np.int64))
    assert _pairs(topo, cycle) == [(0, 6), (6, 4), (4, 3), (3, 6), (6, 1), (1, 0)]
    assert_topology_agrees(np.asarray(BOWTIE), walls=set())
    assert_topology_agrees(np.asarray(BOWTIE), walls={(2, 6), (5, 6)})


def test_boundary_loops_split_at_a_bowtie_vertex():
    """Two fans that share vertex 0: the dict walk raised there; the cycles
    leave 0 once each, in the order of their lowest edges."""
    fans = TriMesh(np.zeros((7, 3)), [(0, 1, 2), (0, 2, 3), (0, 4, 5), (0, 5, 6)])
    with pytest.raises(TopologyError, match="two outgoing"):
        oracle_chain_boundary_loops(oracle_boundary_edges(fans.faces))
    assert fans.boundary_loops() == [[0, 1, 2, 3], [0, 4, 5, 6]]
    assert TriMesh(np.zeros((8, 3)), BOWTIE).boundary_loops() == [[0, 6, 4, 3, 6, 1]]
    assert_boundary_loops_agree(fans)


@settings(max_examples=300, deadline=None)
@given(st.one_of(face_soups(), edited_octahedra()), st.data())
def test_generated_faces_match_oracle(case, data):
    faces, n = case
    assert_edge_helpers_agree(faces, n)
    pairs = [tuple(e) for e in _undirected(faces).tolist()]
    walls = set(data.draw(st.lists(st.sampled_from(pairs), max_size=6))) if pairs else set()
    assert_topology_agrees(faces, walls)


CLOSED = {"icosphere": icosphere(1.0, subdivisions=2), "torus": torus(n_major=16, n_minor=8)}


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(sorted(CLOSED)), st.lists(st.integers(0, 10**6), max_size=80),
       st.tuples(st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1)), st.floats(-0.5, 0.5))
def test_random_walls_flood_like_oracle(name, picks, normal, offset):
    """Random wall subsets plus the edges a random plane cuts."""
    mesh = CLOSED[name]
    und = _undirected(mesh.faces)
    side = mesh.vertices @ np.asarray(normal) > offset
    cut = und[side[und[:, 0]] != side[und[:, 1]]]
    walls = {tuple(map(int, und[i % len(und)])) for i in picks} | {tuple(map(int, e)) for e in cut}
    assert_topology_agrees(mesh.faces, walls)
