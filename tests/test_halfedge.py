"""The numpy edge table against the dict-based oracles it replaced.

Every helper that reads the table must give the oracle's answer, in the same
order, on the fixture meshes, on both merged surfaces of full pipeline runs
and on generated face arrays with duplicated, flipped and dropped faces and
edges shared by three faces.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meshbool.errors import TopologyError
from meshbool.geometry import (
    TriMesh,
    boundary_edges,
    connected_face_components,
    euler_characteristic,
    is_closed_manifold,
)
from meshbool.halfedge import EdgeTable, SurfaceTopology, min_labels
from meshbool.loops import loop_edge_map
from meshbool.merge import _directed_edge_duplicates
from meshbool.pipeline import _propagate_edge_points, run_pipeline
from meshes import (
    OracleSurfaceTopology,
    blob_and_plane,
    closed_cylinder,
    cube,
    grid_plane,
    icosphere,
    lobed_blob,
    oracle_boundary_edges,
    oracle_connected_face_components,
    oracle_directed_edge_duplicates,
    oracle_euler_characteristic,
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


def _points(extra):
    return [(k, [tuple(p) for p in v]) for k, v in extra.items()]


def assert_edge_helpers_agree(faces, n_vertices):
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    mesh = TriMesh(np.zeros((n_vertices, 3)), faces)
    assert np.array_equal(boundary_edges(faces), oracle_boundary_edges(faces))
    assert is_closed_manifold(mesh) == oracle_is_closed_manifold(mesh)
    assert euler_characteristic(mesh) == oracle_euler_characteristic(mesh)
    got = connected_face_components(faces)
    want = oracle_connected_face_components(faces)
    assert len(got) == len(want)
    assert all(np.array_equal(g, w) for g, w in zip(got, want))
    assert list(_directed_edge_duplicates(faces).items()) == list(
        oracle_directed_edge_duplicates(faces).items()
    )


def assert_topology_agrees(faces, walls, seeds=()):
    """Both raise TopologyError, or floods, boundaries and cycles all agree."""
    try:
        want = OracleSurfaceTopology(faces)
    except TopologyError:
        with pytest.raises(TopologyError):
            SurfaceTopology(faces)
        return
    got = SurfaceTopology(faces)
    labels = got.flood_regions(walls)
    assert np.array_equal(labels, want.flood_regions(walls))
    if len(seeds):
        assert np.array_equal(got.flood_from(seeds, walls), want.flood_from(seeds, walls))
    for rid in range(int(labels.max()) + 1 if len(labels) else 0):
        member = np.nonzero(labels == rid)[0]
        assert got.region_boundary(member) == want.region_boundary(member)
        try:
            expect = want.boundary_cycles(member)
        except TopologyError:
            with pytest.raises(TopologyError):
                got.boundary_cycles(member)
            continue
        assert got.boundary_cycles(member) == expect


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_edge_helpers_match_oracle(name):
    mesh = FIXTURES[name]
    assert_edge_helpers_agree(mesh.faces, mesh.num_vertices)
    rng = np.random.default_rng(3)
    und = _undirected(mesh.faces)
    walls = {tuple(map(int, e)) for e in und[rng.random(len(und)) < 0.3]}
    assert_topology_agrees(mesh.faces, walls, seeds=[0, mesh.num_faces - 1])


@pytest.mark.parametrize("name", sorted(PIPELINE_PAIRS))
def test_merged_surfaces_match_oracle(pipeline_runs, name):
    state = pipeline_runs[name]
    merged = state.merged
    walls = set(loop_edge_map(state.loops))
    for surf in (0, 1):
        faces = merged.surface_faces(surf)
        assert_edge_helpers_agree(faces, len(merged.vertices))
        assert_topology_agrees(faces, walls, seeds=[0])


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
    assert table.face_of(1, 2) == 0 and table.face_of(2, 9) is None
    assert table.faces_on(0, 1).tolist() == [0, 1, 2]
    with pytest.raises(TopologyError, match=r"\(0, 1\) used twice"):
        SurfaceTopology(table.faces)


def test_min_labels_smallest_id_per_component():
    assert min_labels(6, [5, 3, 4], [3, 1, 2]).tolist() == [0, 1, 2, 1, 2, 1]
    assert min_labels(3, [], []).tolist() == [0, 1, 2]


# ---------------------------------------------------------------------------
# Property tests on generated face arrays
# ---------------------------------------------------------------------------

OCTAHEDRON = [(0, 2, 4), (2, 1, 4), (1, 3, 4), (3, 0, 4), (2, 0, 5), (1, 2, 5), (3, 1, 5), (0, 3, 5)]


@st.composite
def face_soups(draw):
    """Small random triples over few vertices: repeats, flips and fins are common."""
    n = draw(st.integers(3, 7))
    index = st.integers(0, n - 1)
    faces = draw(st.lists(st.tuples(index, index, index), max_size=14))
    return np.asarray(faces, dtype=np.int64).reshape(-1, 3), n


@st.composite
def edited_octahedra(draw):
    """A closed octahedron with faces dropped, duplicated, flipped, or a fin
    face added on an edge so three faces share it."""
    faces = list(OCTAHEDRON)
    n = 6
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


@settings(max_examples=300, deadline=None)
@given(st.one_of(face_soups(), edited_octahedra()), st.data())
def test_generated_faces_match_oracle(case, data):
    faces, n = case
    assert_edge_helpers_agree(faces, n)
    pairs = [tuple(e) for e in _undirected(faces).tolist()]
    walls = set(data.draw(st.lists(st.sampled_from(pairs), max_size=6))) if pairs else set()
    seeds = data.draw(st.lists(st.integers(0, len(faces) - 1), max_size=3)) if len(faces) else []
    assert_topology_agrees(faces, walls, seeds)


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
    assert_topology_agrees(mesh.faces, walls, seeds=[picks[0] % mesh.num_faces] if picks else [])
