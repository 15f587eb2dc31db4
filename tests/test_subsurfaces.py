import numpy as np
import pytest
from collections import Counter

from meshbool.geometry import TriMesh
from meshbool.loops import loop_edge_map
from meshbool.pipeline import PipelineOptions, run_pipeline
from meshbool.subsurfaces import classify_subsurfaces
from meshes import cube, icosphere, tangent_cylinders, vw_pair


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
    publics = [s for s in a_surfs if s.is_public]
    privates = [s for s in a_surfs if not s.is_public]
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
    assert all(not s.is_public for s in a_surfs)


def test_cylinders_four_subsurfaces_each():
    a, b = tangent_cylinders(1.0, n_theta=24, n_rings=9)
    state = run_pipeline(a, b)
    counts = Counter(s.source for s in state.subsurfaces)
    assert counts == {"A": 4, "B": 4}
    assert all(not s.is_public for s in state.subsurfaces)  # one cycle each


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
    from meshbool.halfedge import SurfaceTopology

    a = cube((0, 0, 0), 1.0, "A")
    b = cube((0.5, 0.5, 0.5), 1.0, "B")
    state = run_pipeline(a, b)
    merged = state.merged
    edge_map = loop_edge_map(state.loops)
    for s in state.subsurfaces:
        surf = 0 if s.source == "A" else 1
        face_ids = merged.surface_face_ids(surf)
        local = {int(g): i for i, g in enumerate(face_ids)}
        topo = SurfaceTopology(merged.faces[face_ids])
        member = np.asarray([local[int(t)] for t in s.triangles])
        edges = topo.region_boundary(member)
        boundary = zip(topo.u[edges].tolist(), topo.v[edges].tolist())
        expect = set()
        for lp_id, sign in s.owners:
            for u, v in state.loops[lp_id].vertex_pairs:
                expect.add((u, v) if sign > 0 else (v, u))
        assert set(boundary) == expect


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
            assert sum(s.is_public for s in side) <= 1  # at most one public
            assert any(not s.is_public for s in side)   # at least one private


def test_double_public_warning_names_both_public_ids(caplog):
    """Non-separating loops on a torus leave two public sub-surfaces: a
    warning, naming both, not an error."""
    from meshes import torus_pair

    a, b = torus_pair(1.0, 0.35, n_major=24, n_minor=12)
    state = run_pipeline(a, b, PipelineOptions(classify=False))
    caplog.clear()
    with caplog.at_level("WARNING", logger="meshbool.subsurfaces"):
        classify_subsurfaces(state.subsurfaces)
    publics = {tag: [s.id for s in state.subsurfaces if s.source == tag and s.is_public] for tag in "AB"}
    doubles = {tag: ids for tag, ids in publics.items() if len(ids) > 1}
    assert doubles
    messages = [r.getMessage() for r in caplog.records]
    for tag, ids in doubles.items():
        assert [m for m in messages if m.startswith(f"surface {tag} ")] == [
            f"surface {tag} has {len(ids)} public sub-surfaces: {ids} "
            "(expected at most one on sphere-like surfaces)"
        ]
