import numpy as np
import pytest

from meshbool.errors import TopologyError
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
from meshes import cube, tangent_cylinders


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
    counts = {}
    for s in segs:
        for p in (s.p0, s.p1):
            counts[tuple(np.round(p, 9))] = counts.get(tuple(np.round(p, 9)), 0) + 1
    assert len(segs) >= 6
    assert all(c >= 2 for c in counts.values())
    raw = np.array([p for s in segs for p in (s.p0, s.p1)])
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
        face_parent=np.full(len(faces), -1, dtype=np.int64),
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


def test_clear_idempotent_on_clean_cube():
    c = cube()
    state = _state_from_faces(c.vertices, c.faces)
    state.a_closed = True
    once = clear_topology(state)
    twice = clear_topology(once)
    assert np.array_equal(once.faces, twice.faces)
    assert np.array_equal(once.faces, c.faces)


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
