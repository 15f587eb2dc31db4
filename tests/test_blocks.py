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
from meshes import (cube, grid_plane, icosphere, oracle_meshes_coincident, oracle_point_in_mesh, oracle_volume,
                    strip_surface, torus)


def block_vertex_ids(blk, state, surfs) -> set[int]:
    """Merged vertex ids used by the faces of a block's sub-surfaces."""
    by_id = {s.id: s for s in surfs}
    ids: set[int] = set()
    for sid in blk.surfaces:
        ids.update(int(v) for v in state.faces[by_id[sid].triangles].ravel())
    return ids


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


@pytest.mark.parametrize("offset", [(1, 1, 1), (-1, -1, -1)])
def test_corner_contact_ends_trivial(offset):
    """Unit cubes touching at one corner: no segment, and the containment
    probe (face 0's centroid, not its corner on the other cube) never grazes."""
    a, b = cube((0, 0, 0), 1.0, "A"), cube(offset, 1.0, "B")
    state = run_pipeline(a, b)
    r = state.result
    same = lambda m, n: np.array_equal(m.vertices, n.vertices) and np.array_equal(m.faces, n.faces)
    assert state.trivial and r.intersection == []
    assert len(r.union) == 2 and same(r.union[0], a) and same(r.union[1], b)
    assert len(r.a_minus_b) == 1 and same(r.a_minus_b[0], a)
    assert len(r.b_minus_a) == 1 and same(r.b_minus_a[0], b)


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


@pytest.mark.parametrize("extra", ["none", "same_set", "other_set"])
def test_meshes_coincident_matches_oracle_on_a_large_permuted_sphere(extra):
    a = icosphere(1.0, subdivisions=5)  # 20,480 faces
    b = _permuted(_jittered(a, 0.4), seed=3)
    if extra != "none":  # one face repeated on each side: duplicates collapse in the set
        a = TriMesh(a.vertices, np.vstack([a.faces, a.faces[:1]]))
        keep = b.faces if extra == "same_set" else b.faces[1:]
        b = TriMesh(b.vertices, np.vstack([keep, b.faces[7:7 + len(b.faces) + 1 - len(keep)]]), source="B")
    got = meshes_coincident(a, b, COINCIDENT_TOL)
    assert got == oracle_meshes_coincident(a, b, COINCIDENT_TOL)
    assert got == (extra != "other_set")
    flipped = TriMesh(b.vertices, b.faces[:, [0, 2, 1]], source="B")  # every face turned over
    assert not meshes_coincident(a, flipped, COINCIDENT_TOL)


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


CLOSEDNESS_FIXTURES = {
    "cube": cube,
    "icosphere": lambda: icosphere(1.0, subdivisions=2),
    "torus": lambda: torus(n_major=12, n_minor=6),
    "grid_plane": lambda: grid_plane(n=4),
    "strip": lambda: strip_surface([(0, 0), (1, 1), (2, 0)]),
    "cube_minus_face": lambda: TriMesh(cube().vertices, cube().faces[1:]),
}


def _fresh_closed(mesh: TriMesh) -> bool:
    return len(geometry.boundary_edges(mesh.faces)) == 0 and mesh.num_faces > 0


@pytest.mark.parametrize("second", sorted(CLOSEDNESS_FIXTURES))
@pytest.mark.parametrize("first", sorted(CLOSEDNESS_FIXTURES))
def test_reversed_and_combine_carry_closedness(first, second, monkeypatch):
    """reversed() keeps a known verdict and combine_meshes sets one only when
    every part is known closed; neither runs an edge check, and a carried
    verdict equals a fresh one."""
    a, b = CLOSEDNESS_FIXTURES[first](), CLOSEDNESS_FIXTURES[second]()
    unknown = combine_meshes([a, b.reversed()])
    a.closed, b.closed  # compute and cache both verdicts
    with monkeypatch.context() as m:
        m.setattr(geometry, "boundary_edges", lambda faces: pytest.fail("closedness recomputed"))
        assert a.reversed()._closed is a._closed and b.reversed()._closed is b._closed
        known = combine_meshes([a, b.reversed()])
        assert unknown._closed is None
        assert known._closed is (True if a._closed and b._closed else None)
    for mesh in (a.reversed(), b.reversed(), known):
        assert mesh.closed == _fresh_closed(mesh)
    assert unknown.closed == _fresh_closed(unknown)


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


def assert_nested_result(r, a, b, shift=0.0):
    """One shell inside the other: the outer is the union, the inner the
    intersection, the cavity the outer minus the inner, and the volume
    identities hold, measured back at the origin."""

    def vol(m):
        return signed_volume(TriMesh(m.vertices - shift, m.faces))

    va, vb = vol(a), vol(b)
    a_outer = va > vb
    counts = (len(r.union), len(r.intersection), len(r.a_minus_b), len(r.b_minus_a))
    assert counts == ((1, 1, 1, 0) if a_outer else (1, 1, 0, 1))
    vu, vi = vol(r.union[0]), vol(r.intersection[0])
    cavity = vol((r.a_minus_b if a_outer else r.b_minus_a)[0])
    assert vu + vi == pytest.approx(va + vb, rel=1e-9)
    assert cavity == pytest.approx(max(va, vb) - vi, rel=1e-9)
    assert vi == pytest.approx(min(va, vb), rel=1e-9)


@pytest.mark.parametrize("shift", [0.0, 1e3, 1e6])
def test_nested_shells_classify_alike_far_from_the_origin(shift):
    off = np.array([shift, 0.0, 0.0])
    a = icosphere(1.0, subdivisions=5, source="A")
    b = icosphere(0.5, subdivisions=5, source="B")
    a, b = TriMesh(a.vertices + off, a.faces, "A"), TriMesh(b.vertices + off, b.faces, "B")
    state = run_pipeline(a, b)
    assert state.trivial
    assert_nested_result(state.result, a, b, off)


@pytest.mark.parametrize("inner_side", ["A", "B"])
def test_containment_probe_skips_vertices_no_face_uses(tmp_path, inner_side):
    from meshbool.io import load_mesh, save_mesh

    outer = icosphere(1.0, subdivisions=3)
    inner = icosphere(0.5, subdivisions=3)
    # One degenerate facet whose repeated corner sorts first: the reader drops
    # the facet but keeps (-5, 0, 0) as vertex 0, which no face references.
    stray = TriMesh(
        np.vstack([inner.vertices, [[-5.0, 0.0, 0.0]]]),
        np.vstack([inner.faces, [[len(inner.vertices)] * 2 + [0]]]),
    )
    pair = (stray, outer) if inner_side == "A" else (outer, stray)
    save_mesh(pair[0], tmp_path / "a.stl")
    save_mesh(pair[1], tmp_path / "b.stl")
    a, b = load_mesh(tmp_path / "a.stl", "A"), load_mesh(tmp_path / "b.stl", "B")
    loaded = a if inner_side == "A" else b
    assert loaded.vertices[0].tolist() == [-5.0, 0.0, 0.0] and 0 not in loaded.faces
    assert_nested_result(run_pipeline(a, b).result, a, b)
