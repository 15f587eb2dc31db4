import numpy as np
import pytest
from collections import Counter

from meshbool.errors import TopologyError
from meshbool.geometry import TriMesh
from meshbool.loops import (
    HARD_CLOSED,
    OPEN,
    SOFT_CLOSED,
    build_loops,
    complete_open_loops,
    loop_edge_map,
    vertex_degrees,
)
from meshbool.pipeline import run_pipeline
from meshes import (
    blob_and_plane,
    cube,
    icosphere,
    oracle_close_open_loops_on_boundary,
    strip_surface,
    tangent_cylinders,
    vw_pair,
)


def classify_loop(loop, deg: dict[int, int]) -> str:
    """Recompute the kind of a chained loop from vertex degrees, independently
    of the chaining in build_loops."""
    if loop.kind == HARD_CLOSED:
        if any(deg[v] != 2 for v in loop.verts):
            raise TopologyError(f"cycle {loop.id} touches a junction vertex")
        return HARD_CLOSED
    first, last = loop.verts[0], loop.verts[-1]
    if any(deg[v] != 2 for v in loop.verts[1:-1]):
        raise TopologyError(f"loop {loop.id} has a junction in its interior")
    if deg[first] == 1 or deg[last] == 1:
        return OPEN
    if deg[first] > 2 and deg[last] > 2:
        return SOFT_CLOSED
    raise TopologyError(f"loop {loop.id} terminates at a degree-2 vertex")


def test_single_edge_open_loop():
    loops = build_loops(np.array([[3, 7]]))
    assert len(loops) == 1
    assert loops[0].kind == OPEN
    assert loops[0].verts == [3, 7]


def test_three_cycle_hard_closed():
    loops = build_loops(np.array([[0, 1], [1, 2], [0, 2]]))
    assert len(loops) == 1
    assert loops[0].kind == HARD_CLOSED
    assert loops[0].verts[0] == 0  # canonical start


def test_square_cycle_hard_closed():
    loops = build_loops(np.array([[0, 1], [1, 2], [2, 3], [0, 3]]))
    assert loops[0].kind == HARD_CLOSED
    assert len(loops[0].verts) == 4


def test_junction_splits_chains():
    # two triangles joined at vertex 0: degree-4 junction, no degree-1 ends
    edges = np.array([[0, 1], [1, 2], [2, 0], [0, 3], [3, 4], [4, 0]])
    loops = build_loops(edges)
    assert len(loops) == 2
    assert all(lp.kind == SOFT_CLOSED for lp in loops)
    assert all(lp.verts[0] == lp.verts[-1] == 0 for lp in loops)


def test_edge_partition_invariant():
    rng = np.random.default_rng(6)
    edges = set()
    while len(edges) < 40:
        u, v = rng.integers(0, 25, size=2)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    arr = np.array(sorted(edges))
    loops = build_loops(arr)
    used = [e for lp in loops for e in lp.edges]
    assert sorted(used) == list(range(len(arr)))
    deg = vertex_degrees(arr)
    for lp in loops:
        assert classify_loop(lp, deg) == lp.kind


def test_cube_sphere_six_hard_loops():
    a = cube((-1, -1, -1), 2.0, "A")
    b = icosphere(1.3, subdivisions=3, source="B")
    state = run_pipeline(a, b)
    kinds = Counter(lp.kind for lp in state.loops)
    assert kinds == {HARD_CLOSED: 6}


def test_cylinders_four_soft_loops_with_degree4_junctions():
    a, b = tangent_cylinders(1.0, n_theta=24, n_rings=9)
    state = run_pipeline(a, b)
    soft = [lp for lp in state.loops if lp.kind == SOFT_CLOSED]
    assert len(soft) == 4 and len(state.loops) == 4
    deg = vertex_degrees(state.merged.edges)
    for lp in soft:
        assert deg[lp.verts[0]] == 4
        assert deg[lp.verts[-1]] == 4
        assert all(deg[v] == 2 for v in lp.verts[1:-1])


def test_vw_four_open_loops_five_completed_each():
    a, b = vw_pair()
    state = run_pipeline(a, b)
    assert Counter(lp.kind for lp in state.loops) == {OPEN: 4}
    # completed loops were built per open surface, 5 regions each
    assert len(state.completed_loops) == 10
    assert state.dangling == []


def test_loop_edge_map_rejects_reuse():
    loops = build_loops(np.array([[0, 1], [1, 2], [0, 2]]))
    m = loop_edge_map(loops)
    assert set(m) == {(0, 1), (1, 2), (0, 2)}
    loops2 = build_loops(np.array([[0, 1]]))
    loops2[0].id = loops[0].id  # force a collision
    with pytest.raises(TopologyError):
        loop_edge_map(loops + loops2)


def test_orientation_consecutive_pairs_are_chain_edges():
    a, b = tangent_cylinders(1.0, n_theta=24, n_rings=9)
    state = run_pipeline(a, b)
    und = {tuple(sorted(e)) for e in state.merged.edges.tolist()}
    for lp in state.loops:
        for u, v in lp.vertex_pairs:
            assert (min(u, v), max(u, v)) in und


def strip_and_fin():
    """A wide strip in the y=0 plane pierced mid-face by a small fin in the
    z=0 plane: the curve's endpoints land strictly inside strip triangles."""
    strip = strip_surface([(-1.0, 0.0), (1.0, 0.0)], z0=-1.0, z1=1.0,
                          cols_per_span=8, n_z=5, source="A")
    fin = TriMesh(
        np.array([
            [-0.21, -0.5, 0.0], [0.23, -0.5, 0.0], [0.23, 0.5, 0.0], [-0.21, 0.5, 0.0]
        ]),
        np.array([[0, 1, 2], [0, 2, 3]]),
        source="B",
    )
    return strip, fin


def test_dangling_loop_detection(caplog):
    with caplog.at_level("WARNING", logger="meshbool.loops"):
        state = run_pipeline(*strip_and_fin())
    assert len(state.loops) == 1 and state.loops[0].kind == OPEN
    assert len(state.dangling) >= 1
    assert any(d.loop_id == state.loops[0].id for d in state.dangling)
    assert "loop 0 dangles at (49, 51); excluded from completion" in caplog.messages


def test_completed_loops_require_boundary_endpoints():
    a, b = vw_pair()
    state = run_pipeline(a, b)
    side = [s for s in state.subsurfaces if s.source == "A"]
    completed, dangling = complete_open_loops(state.loops, side, 0)
    assert len(completed) == 5
    assert [lp.id for lp in completed] == list(range(5))
    assert dangling == []


OPEN_RUNS = {"vw": vw_pair, "blob_and_plane": blob_and_plane, "strip_and_fin": strip_and_fin}


@pytest.mark.parametrize("name", sorted(OPEN_RUNS))
def test_completion_matches_frozen_oracle(name):
    """Completed loops read off the sub-surfaces equal the second flood of
    each open surface that completion ran before, loop for loop, and so do
    the dangling loops. Every loop vertex is a plain int."""
    state = run_pipeline(*OPEN_RUNS[name]())
    completed, dangling = [], []
    for source, mesh in enumerate((state.mesh_a, state.mesh_b)):
        if mesh.closed:
            continue
        comp, dang = oracle_close_open_loops_on_boundary(
            state.loops, state.merged.surface_faces(source), len(state.loops) + len(completed)
        )
        completed += comp
        dangling += dang
    assert completed and state.completed_loops == completed
    assert state.dangling == dangling
    for lp in state.loops + state.completed_loops:
        assert all(type(v) is int for v in lp.verts), lp
