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
    close_open_loops_on_boundary,
    loop_edge_map,
    vertex_degrees,
)
from meshbool.pipeline import run_pipeline
from meshes import cube, icosphere, strip_surface, tangent_cylinders, vw_pair


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


def test_dangling_loop_detection():
    # wide strip in the y=0 plane pierced mid-face by a small fin in the
    # z=0 plane: the curve's endpoints land strictly inside strip triangles
    strip = strip_surface([(-1.0, 0.0), (1.0, 0.0)], z0=-1.0, z1=1.0,
                          cols_per_span=8, n_z=5, source="A")
    fin = TriMesh(
        np.array([
            [-0.21, -0.5, 0.0], [0.23, -0.5, 0.0], [0.23, 0.5, 0.0], [-0.21, 0.5, 0.0]
        ]),
        np.array([[0, 1, 2], [0, 2, 3]]),
        source="B",
    )
    state = run_pipeline(strip, fin)
    assert len(state.loops) == 1 and state.loops[0].kind == OPEN
    assert len(state.dangling) >= 1
    assert any(d.loop_id == state.loops[0].id for d in state.dangling)


def test_close_open_loops_requires_boundary_endpoints():
    a, b = vw_pair()
    state = run_pipeline(a, b)
    surf = TriMesh(state.merged.vertices, state.merged.surface_faces(0), source="A")
    completed, dangling = close_open_loops_on_boundary(state.loops, surf)
    assert len(completed) == 5
    assert dangling == []
