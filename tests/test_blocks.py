import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import meshbool.blocks as blocks
import meshbool.geometry as geometry
from meshbool.blocks import (
    CASE_OPPOSITE,
    CASE_SAME,
    assemble_blocks,
    block_vertex_ids,
    classify_non_subtraction,
    combine_meshes,
    meshes_coincident,
    pick_union,
    point_in_closed_mesh,
    preprocess_trivial_cases,
    trivial_from_no_crossing,
)
from meshbool.errors import ClassificationError, CoincidentInput
from meshbool.geometry import TriMesh, is_closed_manifold, signed_volume
from meshbool.pipeline import run_pipeline
from meshes import cube, icosphere, oracle_meshes_coincident, oracle_point_in_mesh, oracle_volume


def cube_cube_state():
    a = cube((0, 0, 0), 1.0, "A")
    b = cube((0.5, 0.5, 0.5), 1.0, "B")
    return run_pipeline(a, b)


def find_subsurface(state, source, containing_vertex):
    """The sub-surface of `source` whose vertex set holds the given point."""
    merged = state.merged
    target = np.asarray(containing_vertex, dtype=float)
    for s in state.subsurfaces:
        if s.source != source:
            continue
        ids = merged.faces[s.triangles].ravel()
        if (np.linalg.norm(merged.vertices[ids] - target, axis=1) < 1e-9).any():
            return s
    raise AssertionError("no sub-surface holds that vertex")


def test_cube_cube_four_blocks_hand_enumerated():
    state = cube_cube_state()
    a_out = find_subsurface(state, "A", (0, 0, 0))
    b_out = find_subsurface(state, "B", (1.5, 1.5, 1.5))
    a_in = next(s for s in state.subsurfaces if s.source == "A" and s.id != a_out.id)
    b_in = next(s for s in state.subsurfaces if s.source == "B" and s.id != b_out.id)
    got = {frozenset(blk.surfaces) for blk in state.blocks}
    assert got == {
        frozenset({a_out.id, b_out.id}),
        frozenset({a_in.id, b_in.id}),
        frozenset({a_out.id, b_in.id}),
        frozenset({a_in.id, b_out.id}),
    }
    # every private sub-surface is used exactly twice
    uses = {}
    for blk in state.blocks:
        for sid in blk.surfaces:
            uses[sid] = uses.get(sid, 0) + 1
    assert all(n == 2 for n in uses.values())


def test_cube_cube_sign_cases():
    state = cube_cube_state()
    a_out = find_subsurface(state, "A", (0, 0, 0))
    b_out = find_subsurface(state, "B", (1.5, 1.5, 1.5))
    by_key = {frozenset(blk.surfaces): blk for blk in state.blocks}
    a_in = next(s for s in state.subsurfaces if s.source == "A" and s.id != a_out.id)
    b_in = next(s for s in state.subsurfaces if s.source == "B" and s.id != b_out.id)
    # opposite signs across surfaces -> candidate, same signs -> subtraction
    assert by_key[frozenset({a_out.id, b_out.id})].case == CASE_OPPOSITE
    assert by_key[frozenset({a_in.id, b_in.id})].case == CASE_OPPOSITE
    assert by_key[frozenset({a_out.id, b_in.id})].case == CASE_SAME
    assert by_key[frozenset({a_in.id, b_out.id})].case == CASE_SAME
    lp = state.loops[0].id
    sign_of = lambda s: dict((l, g) for l, g in s.owners)[lp]
    assert sign_of(a_out) == -sign_of(b_out)
    assert sign_of(a_out) == sign_of(b_in)


def test_classify_non_subtraction_split():
    state = cube_cube_state()
    candidates, subtractions = classify_non_subtraction(state.blocks, state.subsurfaces)
    assert len(candidates) == 2 and len(subtractions) == 2


def test_pick_union_by_extrema():
    state = cube_cube_state()
    candidates, _ = classify_non_subtraction(state.blocks, state.subsurfaces)
    union_blk, rest = pick_union(candidates, state.merged, state.subsurfaces)
    ids = block_vertex_ids(union_blk, state.merged, state.subsurfaces)
    assert all(int(e) in ids for e in state.merged.extrema)
    assert len(rest) == 1
    inter_ids = block_vertex_ids(rest[0], state.merged, state.subsurfaces)
    assert not all(int(e) in inter_ids for e in state.merged.extrema)


def test_cube_cube_labels_and_volumes():
    state = cube_cube_state()
    r = state.result
    assert signed_volume(r.union[0]) == pytest.approx(1.875, rel=1e-9)
    assert signed_volume(r.intersection[0]) == pytest.approx(0.125, rel=1e-9)
    assert signed_volume(r.a_minus_b[0]) == pytest.approx(0.875, rel=1e-9)
    assert signed_volume(r.b_minus_a[0]) == pytest.approx(0.875, rel=1e-9)
    for m in r.all_meshes():
        assert is_closed_manifold(m)
        assert signed_volume(m) == pytest.approx(oracle_volume(m), rel=1e-12)


def test_trivial_disjoint():
    a = cube((0, 0, 0), 1.0, "A")
    b = cube((5, 5, 5), 1.0, "B")
    res = preprocess_trivial_cases(a, b)
    assert res is not None
    assert len(res.union) == 2 and res.intersection == []
    assert signed_volume(res.a_minus_b[0]) == pytest.approx(1.0)


def test_trivial_containment_cavity():
    small = cube((0.4, 0.4, 0.4), 0.2, "A")
    big = cube((0, 0, 0), 1.0, "B")
    res = preprocess_trivial_cases(small, big)
    assert res is not None
    assert signed_volume(res.intersection[0]) == pytest.approx(0.008, rel=1e-12)
    assert res.a_minus_b == []
    cavity = res.b_minus_a[0]
    assert is_closed_manifold(cavity)
    assert signed_volume(cavity) == pytest.approx(1.0 - 0.008, rel=1e-12)


def test_trivial_coincident_rejected():
    a = cube((0, 0, 0), 1.0, "A")
    with pytest.raises(CoincidentInput):
        preprocess_trivial_cases(a, cube((0, 0, 0), 1.0, "B"))
    assert meshes_coincident(a, cube((0, 0, 0), 1.0, "B"), 1e-9)
    assert not meshes_coincident(a, cube((0.1, 0, 0), 1.0, "B"), 1e-9)


COINCIDENT_TOL = 1e-3


def _jittered(mesh, factor, seed=0):
    """Each vertex moved by factor * tol in its own random direction."""
    d = np.random.default_rng(seed).normal(size=mesh.vertices.shape)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    return TriMesh(mesh.vertices + factor * COINCIDENT_TOL * d, mesh.faces, source="B")


def _permuted(mesh, seed=0):
    perm = np.random.default_rng(seed).permutation(mesh.num_vertices)
    inverse = np.argsort(perm)
    return TriMesh(mesh.vertices[perm], inverse[mesh.faces], source="B")


def _coincidence_cases():
    a = icosphere(1.0, subdivisions=1)
    far = TriMesh(np.vstack([cube().vertices, [[50.0, 50.0, 50.0]]]), cube().faces)
    dup = TriMesh(np.vstack([cube().vertices, cube().vertices[:1]]), cube().faces, source="B")
    return {
        "identical": (a, TriMesh(a.vertices.copy(), a.faces.copy(), source="B")),
        "permuted": (a, _permuted(a)),
        "jitter_0.4": (a, _jittered(a, 0.4)),
        "jitter_1.5": (a, _jittered(a, 1.5)),
        "jitter_3": (a, _jittered(a, 3.0)),
        "shift_3": (a, TriMesh(a.vertices + [3 * COINCIDENT_TOL, 0, 0], a.faces, source="B")),
        "far_unreferenced_vertex": (far, dup),
        "other_mesh": (a, TriMesh(a.vertices[::-1].copy(), a.faces, source="B")),
    }


@pytest.mark.parametrize("case", sorted(_coincidence_cases()))
def test_meshes_coincident_matches_oracle(case):
    a, b = _coincidence_cases()[case]
    got = meshes_coincident(a, b, COINCIDENT_TOL)
    assert got == oracle_meshes_coincident(a, b, COINCIDENT_TOL)
    assert got == (case in ("identical", "permuted", "jitter_0.4", "far_unreferenced_vertex"))


def test_meshes_coincident_box_reject_skips_weld(monkeypatch):
    a = icosphere(1.0, subdivisions=1)
    b = TriMesh(a.vertices + [0, 0, 2.5 * COINCIDENT_TOL], a.faces, source="B")

    def no_weld(*args):
        raise AssertionError("weld reached although the boxes rule coincidence out")

    monkeypatch.setattr(blocks, "merge_vertices", no_weld)
    assert not meshes_coincident(a, b, COINCIDENT_TOL)


@settings(max_examples=60, deadline=None)
@given(st.floats(0.2, 3.0), st.integers(0, 2**16), st.booleans(), st.booleans())
def test_meshes_coincident_jitter_property(factor, seed, permute, translate):
    a = icosphere(1.0, subdivisions=1)
    if translate:  # every vertex moved by the same vector
        d = np.random.default_rng(seed).normal(size=3)
        shift = factor * COINCIDENT_TOL * d / np.linalg.norm(d)
        b = TriMesh(a.vertices + shift, a.faces, source="B")
    else:
        b = _jittered(a, factor, seed)
    if permute:
        b = _permuted(b, seed)
    assert meshes_coincident(a, b, COINCIDENT_TOL) == oracle_meshes_coincident(a, b, COINCIDENT_TOL)


def test_validated_records_closed_verdict(monkeypatch):
    mesh = cube()
    assert mesh._closed is None

    def no_rebuild(faces):
        raise AssertionError("closed verdict recomputed after the manifold check")

    with monkeypatch.context() as m:  # signed_volume must reuse the verdict
        m.setattr(geometry, "boundary_edges", no_rebuild)
        assert blocks._validated(mesh) is mesh and mesh._closed is True
    assert TriMesh(mesh.vertices, mesh.faces).closed
    open_mesh = TriMesh(mesh.vertices, mesh.faces[1:])
    with pytest.raises(ClassificationError):
        blocks._validated(open_mesh)
    assert open_mesh._closed is None


def test_crossing_meshes_return_none():
    a = cube((0, 0, 0), 1.0, "A")
    b = cube((0.5, 0.5, 0.5), 1.0, "B")
    assert preprocess_trivial_cases(a, b) is None


def _record_plane_tols(monkeypatch):
    """Wrap both intersect_all bindings; returns the (caller, plane_tol) log."""
    import meshbool.intersect as intersect
    import meshbool.pipeline as pipeline

    seen = []
    for mod, where in ((pipeline, "pipeline"), (intersect, "trivial")):
        def recorded(pairs, a, b, plane_tol, *args, _fn=mod.intersect_all, _where=where, **kw):
            seen.append((_where, plane_tol))
            return _fn(pairs, a, b, plane_tol, *args, **kw)

        monkeypatch.setattr(mod, "intersect_all", recorded)
    return seen


@pytest.mark.parametrize("shift", [0.0, 1000.0])
def test_trivial_path_repeat_uses_the_pipeline_plane_tol(monkeypatch, shift):
    """Nested spheres: the trivial path repeats the narrow phase with the
    pipeline's plane tolerance, and public callers get the same rule."""
    seen = _record_plane_tols(monkeypatch)
    a = icosphere(1.0, center=(shift, 0, 0), subdivisions=2, source="A")
    b = icosphere(0.97, center=(shift, 0, 0), subdivisions=2, source="B")
    state = run_pipeline(a, b)
    assert state.trivial and len(state.result.intersection) == 1
    assert preprocess_trivial_cases(a, b) is not None
    assert [w for w, _ in seen] == ["pipeline", "trivial", "trivial"]
    assert seen[0][1] == seen[1][1] == seen[2][1]
    assert seen[0][1] == pytest.approx(2e-12, rel=1e-6)  # 1e-12 x the root cube side


def test_point_in_closed_mesh_agrees_with_oracle():
    rng = np.random.default_rng(17)
    sphere = icosphere(1.0, subdivisions=2)
    pts = rng.uniform(-1.4, 1.4, size=(120, 3))
    for p in pts:
        if abs(np.linalg.norm(p) - 1.0) < 0.05:
            continue  # skip the discretization shell
        assert point_in_closed_mesh(p, sphere) == oracle_point_in_mesh(p, sphere)


def test_membership_sampling_cube_cube():
    state = cube_cube_state()
    r = state.result
    a, b = state.mesh_a, state.mesh_b
    rng = np.random.default_rng(99)
    pts = rng.uniform(-0.3, 1.8, size=(200, 3))
    for p in pts:
        near = min(
            np.abs(p - 0).min(), np.abs(p - 1).min(),
            np.abs(p - 0.5).min(), np.abs(p - 1.5).min(),
        )
        if near < 1e-3:
            continue
        in_a = oracle_point_in_mesh(p, a)
        in_b = oracle_point_in_mesh(p, b)
        in_union = any(point_in_closed_mesh(p, m) for m in r.union)
        in_inter = any(point_in_closed_mesh(p, m) for m in r.intersection)
        in_amb = any(point_in_closed_mesh(p, m) for m in r.a_minus_b)
        in_bma = any(point_in_closed_mesh(p, m) for m in r.b_minus_a)
        assert in_union == (in_a or in_b)
        assert in_inter == (in_a and in_b)
        assert in_amb == (in_a and not in_b)
        assert in_bma == (in_b and not in_a)


def test_volume_identities_exact():
    state = cube_cube_state()
    r = state.result
    va = signed_volume(state.mesh_a)
    vb = signed_volume(state.mesh_b)
    vu = sum(signed_volume(m) for m in r.union)
    vi = sum(signed_volume(m) for m in r.intersection)
    vab = sum(signed_volume(m) for m in r.a_minus_b)
    assert vu + vi == pytest.approx(va + vb, rel=1e-12)
    assert vab + vi == pytest.approx(va, rel=1e-12)


def test_combine_meshes_concatenates():
    pair = combine_meshes([cube((0, 0, 0), 1.0), cube((5, 5, 5), 1.0)])
    assert pair.num_faces == 24 and is_closed_manifold(pair)
    assert signed_volume(pair) == pytest.approx(2.0, rel=1e-12)
