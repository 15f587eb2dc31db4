import numpy as np
import pytest
from collections import Counter

from meshbool.errors import TopologyError
from meshbool.geometry import TriMesh
from meshbool.halfedge import SurfaceTopology
from meshbool.loops import loop_edge_map
from meshbool.pipeline import PipelineOptions, run_pipeline
from meshes import bumpy_pair, cube, icosphere, tangent_cylinders, torus_pair, vw_pair


def prism(x=0.4, y=0.4, z=4.0, center=(0, 0, 0)):
    c = cube((-0.5, -0.5, -0.5), 1.0, "B")
    scaled = c.vertices * [x, y, z] + np.asarray(center, dtype=float)
    return TriMesh(scaled, c.faces, source="B", name="prism")


def test_sphere_with_two_loops_band_is_public():
    sphere = icosphere(1.0, subdivisions=3, source="A")
    bar = prism()
    state = run_pipeline(sphere, bar)
    a_surfs = [s for s in state.subsurfaces if s.source == "A"]
    assert len(a_surfs) == 3  # two caps and the band
    publics = [s for s in a_surfs if s.cycles >= 2]
    privates = [s for s in a_surfs if s.cycles == 1]
    assert len(publics) == 1 and publics[0].cycles == 2
    assert len(privates) == 2
    owner_loops = {lp for (lp, sg) in publics[0].owners}
    assert len(owner_loops) == 2  # owned by both loops


def test_single_loop_sphere_two_privates():
    sphere = icosphere(1.0, subdivisions=3, source="A")
    box = cube((0.3, 0.3, 0.3), 2.0, "B")
    state = run_pipeline(sphere, box)
    assert len(state.loops) == 1
    a_surfs = [s for s in state.subsurfaces if s.source == "A"]
    assert len(a_surfs) == 2
    assert all(s.cycles == 1 for s in a_surfs)


def test_cylinders_four_subsurfaces_each():
    a, b = tangent_cylinders(1.0, n_theta=24, n_rings=9)
    state = run_pipeline(a, b)
    counts = Counter(s.source for s in state.subsurfaces)
    assert counts == {"A": 4, "B": 4}
    assert all(s.cycles == 1 for s in state.subsurfaces)


def test_vw_five_subsurfaces_each_with_boundary():
    a, b = vw_pair()
    state = run_pipeline(a, b)
    counts = Counter(s.source for s in state.subsurfaces)
    assert counts == {"A": 5, "B": 5}
    assert all(s.has_boundary_loop for s in state.subsurfaces)
    # boundary-carrying sub-surfaces never assemble: open-open yields no blocks
    assert state.blocks == []
    assert state.result is None


def test_coverage_and_disjointness():
    a = cube((-1, -1, -1), 2.0, "A")
    b = icosphere(1.3, subdivisions=3, source="B")
    state = run_pipeline(a, b)
    merged = state.merged
    for surf, tag in ((0, "A"), (1, "B")):
        ids = set(merged.surface_face_ids(surf).tolist())
        got = []
        for s in state.subsurfaces:
            if s.source == tag:
                got.extend(int(t) for t in s.triangles)
        assert sorted(got) == sorted(ids)  # partition: cover, no overlap


def test_boundary_law_owner_loops_reproduced():
    """The directed boundary of each sub-surface equals its owner loops."""
    a = cube((0, 0, 0), 1.0, "A")
    b = cube((0.5, 0.5, 0.5), 1.0, "B")
    state = run_pipeline(a, b)
    merged = state.merged
    for surf, tag in ((0, "A"), (1, "B")):
        face_ids = merged.surface_face_ids(surf)
        side = [s for s in state.subsurfaces if s.source == tag]
        labels = np.empty(len(face_ids), dtype=np.int64)
        for i, s in enumerate(side):
            labels[np.searchsorted(face_ids, s.triangles)] = i
        topo = SurfaceTopology(merged.faces[face_ids])
        boundary = [set() for _ in side]
        for cyc in topo.boundary_cycles(labels):
            boundary[labels[cyc[0] // 3]] |= set(zip(topo.u[cyc].tolist(), topo.v[cyc].tolist()))
        for s, got in zip(side, boundary):
            expect = set()
            for lp_id, sign in s.owners:
                for u, v in state.loops[lp_id].vertex_pairs:
                    expect.add((u, v) if sign > 0 else (v, u))
            assert got == expect


def test_partition_owns_both_sides_of_a_loop():
    a = cube((0, 0, 0), 1.0, "A")
    b = cube((0.5, 0.5, 0.5), 1.0, "B")
    state = run_pipeline(a, b)
    lp = state.loops[0]
    side_a = [s for s in state.subsurfaces if s.source == "A"]
    (plus,) = [s for s in side_a if (lp.id, 1) in s.owners]
    (minus,) = [s for s in side_a if (lp.id, -1) in s.owners]
    assert plus.id != minus.id
    # A's sub-surfaces are disjoint and cover every face of A
    faces = np.concatenate([s.triangles for s in side_a])
    assert np.array_equal(np.sort(faces), state.merged.surface_face_ids(0))


def test_public_private_counts_on_sphere_like_fixtures():
    fixtures = []
    fixtures.append((cube((-1, -1, -1), 2.0, "A"), icosphere(1.3, subdivisions=3, source="B")))
    fixtures.append((cube((0, 0, 0), 1.0, "A"), cube((0.5, 0.5, 0.5), 1.0, "B")))
    fixtures.append(tangent_cylinders(1.0, n_theta=24, n_rings=9))
    for a, b in fixtures:
        state = run_pipeline(a, b)
        for tag in ("A", "B"):
            side = [s for s in state.subsurfaces if s.source == tag]
            assert sum(s.cycles >= 2 for s in side) <= 1  # at most one public
            assert any(s.cycles == 1 for s in side)      # at least one private


def test_torus_public_sub_surfaces_log_nothing(caplog):
    """Non-separating loops on a torus leave two public sub-surfaces (two or
    more boundary cycles each). The torus is not a sphere, so the region
    count is not checked: nothing is raised and nothing is logged."""
    a, b = torus_pair(1.0, 0.35, n_major=24, n_minor=12)
    with caplog.at_level("WARNING", logger="meshbool"):
        state = run_pipeline(a, b, PipelineOptions(classify=False))
    publics = {tag: [s.id for s in state.subsurfaces if s.source == tag and s.cycles >= 2] for tag in "AB"}
    assert any(len(ids) > 1 for ids in publics.values())
    assert caplog.records == []


def _regions_cut_by_loops(state):
    """1 + E - V + c of the loops' edge graph: its regions on a sphere."""
    edges = np.asarray(list(loop_edge_map(state.loops)))
    verts = np.unique(edges)
    parent = {v: v for v in verts.tolist()}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in edges.tolist():
        parent[find(u)] = find(v)
    components = len({find(v) for v in parent})
    return 1 + len(edges) - len(verts) + components


@pytest.mark.parametrize("make", [
    lambda: (cube((-1, -1, -1), 2.0, "A"), icosphere(1.3, subdivisions=3, source="B")),
    lambda: tangent_cylinders(1.0, n_theta=24, n_rings=9),
    lambda: bumpy_pair(2),
], ids=["cube_sphere", "cylinders", "bumpy"])
def test_sphere_like_region_count_is_exact(make):
    state = run_pipeline(*make())
    expect = _regions_cut_by_loops(state)
    for tag in "AB":
        assert sum(s.source == tag for s in state.subsurfaces) == expect


def test_regions_merged_across_a_loop_raise(monkeypatch):
    """A flood that joins two regions across a loop leaves that loop without
    owners and one region short of Euler's count: a TopologyError."""
    flood = SurfaceTopology.flood_regions

    def merged(self, walls):
        labels = flood(self, walls)
        return np.where(labels == 1, 0, labels - (labels > 1))

    monkeypatch.setattr(SurfaceTopology, "flood_regions", merged)
    a = cube((-1, -1, -1), 2.0, "A")
    b = icosphere(1.3, subdivisions=3, source="B")
    with pytest.raises(TopologyError, match=r"surface A: 6 sub-surfaces where its loops cut a sphere into 7"):
        run_pipeline(a, b)
