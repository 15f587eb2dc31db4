"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""
import time
from collections import Counter

import numpy as np
import pytest

from meshbool.geometry import is_closed_manifold, signed_volume
from meshbool.intersect import intersect_all
from meshbool.loops import HARD_CLOSED, OPEN, SOFT_CLOSED, vertex_degrees
from meshbool.octree import find_candidates
from meshbool.pipeline import run_pipeline
from meshbool.retriangulate import ear_clip, prepare_splits
from meshes import (
    blob_and_plane,
    cube,
    icosphere,
    oracle_aabb_pairs,
    oracle_connected_face_components,
    oracle_euler_characteristic,
    oracle_intersect_all,
    oracle_point_in_mesh,
    oracle_point_in_mesh_many,
    oracle_point_mesh_distance,
    oracle_shoelace,
    random_convex_pair,
    random_simple_polygon,
    tangent_cylinders,
    torus_pair,
    vw_pair,
)

MERGE_TOL_REL = 1e-9


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_cube_cube_analytic_volumes():
    a = cube((0, 0, 0), 1.0, "A")
    b = cube((0.5, 0.5, 0.5), 1.0, "B")
    t0 = time.perf_counter()
    state = run_pipeline(a, b)
    elapsed = time.perf_counter() - t0
    r = state.result
    assert signed_volume(r.union[0]) == pytest.approx(1.875, rel=1e-9)
    assert signed_volume(r.intersection[0]) == pytest.approx(0.125, rel=1e-9)
    assert signed_volume(r.a_minus_b[0]) == pytest.approx(0.875, rel=1e-9)
    assert signed_volume(r.b_minus_a[0]) == pytest.approx(0.875, rel=1e-9)
    assert elapsed < 1.0
    report(1, f"cube-cube volumes exact to 1e-9, runtime {elapsed * 1e3:.0f} ms")


def test_criterion_2_loop_count_fixtures():
    a = cube((-1, -1, -1), 2.0, "A")
    b = icosphere(1.3, subdivisions=3, source="B")
    state = run_pipeline(a, b)
    assert Counter(lp.kind for lp in state.loops) == {HARD_CLOSED: 6}

    a, b = tangent_cylinders(1.0, n_theta=24, n_rings=9)
    state = run_pipeline(a, b)
    assert Counter(lp.kind for lp in state.loops) == {SOFT_CLOSED: 4}
    deg = vertex_degrees(state.merged.edges)
    for lp in state.loops:
        assert deg[lp.verts[0]] == 4 and deg[lp.verts[-1]] == 4

    a, b = vw_pair()
    state = run_pipeline(a, b)
    assert Counter(lp.kind for lp in state.loops) == {OPEN: 4}
    assert len(state.completed_loops) == 10  # five per surface
    per_source = Counter(s.source for s in state.subsurfaces)
    assert per_source == {"A": 5, "B": 5}
    report(2, "cube-sphere 6 hard, cylinders 4 soft with degree-4 junctions, "
              "V/W 4 open -> 5 completed loops and 5 sub-surfaces per surface")


def test_criterion_3_lion_style_blob():
    blob, plane = blob_and_plane()
    state = run_pipeline(blob, plane)
    assert Counter(lp.kind for lp in state.loops) == {HARD_CLOSED: 3}
    per_source = Counter(s.source for s in state.subsurfaces)
    assert per_source == {"A": 4, "B": 4}
    assert len(state.blocks) == 4
    report(3, "three-lobe blob cut by plane: 3 loops, 4 sub-surfaces per "
              "surface, 4 sub-blocks")


def test_criterion_4_conservation_suite():
    rng = np.random.default_rng(20240811)
    checked = 0
    for trial in range(50):
        a, b = random_convex_pair(rng, n_points=26)
        state = run_pipeline(a, b)
        r = state.result
        assert r is not None, f"trial {trial}"
        va, vb = signed_volume(a), signed_volume(b)
        vu = sum(signed_volume(m) for m in r.union)
        vi = sum(signed_volume(m) for m in r.intersection)
        vab = sum(signed_volume(m) for m in r.a_minus_b)
        vbb = sum(signed_volume(m) for m in r.b_minus_a)
        assert abs(vu + vi - va - vb) <= 1e-6 * abs(va + vb), f"trial {trial}"
        assert abs(vab + vi - va) <= 1e-6 * abs(va), f"trial {trial}"
        assert abs(vbb + vi - vb) <= 1e-6 * abs(vb), f"trial {trial}"
        from meshbool.geometry import compact_submesh

        for meshes, genus0 in (
            (r.union, True),          # union/intersection of convex bodies
            (r.intersection, True),   # are simply connected, hence genus 0
            (r.a_minus_b, False),     # a skewering hull makes a tunnel
            (r.b_minus_a, False),
        ):
            for m in meshes:
                assert is_closed_manifold(m), f"trial {trial}"
                assert signed_volume(m) > 0, f"trial {trial}"
                for comp in oracle_connected_face_components(m.faces):
                    sub = compact_submesh(m.vertices, m.faces[comp])
                    chi = oracle_euler_characteristic(sub)
                    if genus0:
                        assert chi == 2, f"trial {trial}: genus != 0"
                    else:
                        assert chi in (2, 0), f"trial {trial}: invalid genus"
        checked += 1
    assert checked == 50
    report(4, "50 random convex pairs conserve volume at 1e-6; all outputs "
              "manifold and outward, union/intersection genus 0")


def _membership(points, meshes):
    got = np.zeros(len(points), dtype=bool)
    undecided = np.zeros(len(points), dtype=bool)
    for m in meshes:
        inside, unsure = oracle_point_in_mesh_many(points, m)
        for k in np.nonzero(unsure)[0]:
            inside[k] = oracle_point_in_mesh(points[k], m)
        got |= inside
    return got


def test_criterion_5_ray_parity_oracle_equivalence():
    fixtures = [
        (cube((0, 0, 0), 1.0, "A"), cube((0.5, 0.5, 0.5), 1.0, "B")),
        (cube((-1, -1, -1), 2.0, "A"), icosphere(1.3, subdivisions=2, source="B")),
        tangent_cylinders(1.0, n_theta=18, n_rings=7),
    ]
    rng = np.random.default_rng(5)
    for a, b in fixtures:
        state = run_pipeline(a, b)
        r = state.result
        lo = np.minimum(a.vertices.min(0), b.vertices.min(0)) - 0.1
        hi = np.maximum(a.vertices.max(0), b.vertices.max(0)) + 0.1
        pts = rng.uniform(lo, hi, size=(1000, 3))
        scale = float((hi - lo).max())
        shell = 2.0 * MERGE_TOL_REL * scale + 1e-7 * scale
        keep = (oracle_point_mesh_distance(pts, a) > shell) & (
            oracle_point_mesh_distance(pts, b) > shell
        )
        pts = pts[keep]
        in_a = _membership(pts, [a])
        in_b = _membership(pts, [b])
        assert np.array_equal(_membership(pts, r.union), in_a | in_b)
        assert np.array_equal(_membership(pts, r.intersection), in_a & in_b)
        assert np.array_equal(_membership(pts, r.a_minus_b), in_a & ~in_b)
        assert np.array_equal(_membership(pts, r.b_minus_a), in_b & ~in_a)
    report(5, "1000-point ray-parity membership matches all four outputs on "
              "three closed-closed fixtures (0 mismatches)")


def test_criterion_6_broadphase_soundness_and_thread_determinism():
    from meshbool.geometry import TriMesh
    from meshbool.octree import clip_to_shared_region

    rng = np.random.default_rng(66)
    for trial in range(100):
        def soup(n, offset):
            tris = rng.uniform(0, 1, size=(n, 3, 3)) + offset
            return TriMesh(tris.reshape(-1, 3), np.arange(3 * n).reshape(n, 3))

        a = soup(int(rng.integers(4, 20)), np.zeros(3))
        b = soup(int(rng.integers(4, 20)), rng.uniform(-0.4, 0.4, 3))
        got = set(map(tuple, find_candidates(a, b)))
        ids_a, ids_b, _, _ = clip_to_shared_region(a, b)
        in_a, in_b = set(ids_a.tolist()), set(ids_b.tolist())
        expect = {(i, j) for (i, j) in oracle_aabb_pairs(a, b) if i in in_a and j in in_b}
        assert expect <= got, f"trial {trial}"

    a, b = torus_pair(1.0, 0.35, n_major=24, n_minor=12)
    pairs = find_candidates(a, b)
    segs, narrow = intersect_all(pairs, a, b, 1e-12 * 3.0)
    assert len(segs) > 0
    for threads in (1, 4):
        expect, expect_report = oracle_intersect_all(pairs, a, b, 1e-12 * 3.0, threads=threads, chunk=64)
        assert len(segs) == len(expect)
        for k, e in enumerate(expect):
            assert (segs.tri_a[k], segs.tri_b[k]) == (e.tri_a, e.tri_b)
            assert np.array_equal(segs.p0[k], e.p0) and np.array_equal(segs.p1[k], e.p1)
        assert narrow.coplanar_pairs == expect_report.coplanar_pairs
        assert narrow.point_contacts == expect_report.point_contacts
    report(6, "octree candidates cover brute-force box pairs on 100 random "
              "configurations; serial narrow phase bitwise identical to the "
              "thread-pooled version it replaced at 1 and 4 threads")


def test_criterion_7_retriangulation_laws():
    rng = np.random.default_rng(7)
    for trial in range(200):
        n = int(rng.integers(4, 30))
        ring = random_simple_polygon(rng, n)
        tris = ear_clip(ring)
        assert len(tris) == n - 2, f"trial {trial}"
        area = sum(oracle_shoelace([ring[i], ring[j], ring[k]]) for i, j, k in tris)
        expect = oracle_shoelace(ring)
        assert abs(area - expect) <= 1e-10 * abs(expect), f"trial {trial}"

    tri = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
    chord = [(np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0]))]
    _, setups = prepare_splits([tri], [0], chord, [], [], 1e-9)
    assert len(next(setups).polygons) == 2
    report(7, "ear clipping: n-2 triangles and area conserved at 1e-10 on 200 "
              "random polygons; single chord divides a triangle into 2 polygons")


def test_criterion_8_torus_torus_structural():
    a, b = torus_pair(1.0, 0.35, n_major=36, n_minor=16)
    state = run_pipeline(a, b)
    r = state.result
    assert r is not None
    assert len(r.union) == 1
    assert len(r.intersection) >= 1
    for m in r.all_meshes():
        assert is_closed_manifold(m)
        assert signed_volume(m) > 0
    va, vb = signed_volume(a), signed_volume(b)
    vu = sum(signed_volume(m) for m in r.union)
    vi = sum(signed_volume(m) for m in r.intersection)
    vab = sum(signed_volume(m) for m in r.a_minus_b)
    assert abs(vu + vi - va - vb) <= 1e-6 * abs(va + vb)
    assert abs(vab + vi - va) <= 1e-6 * abs(va)
    report(8, f"torus pair: one union, {len(r.intersection)} intersection "
              f"piece(s), all outputs manifold, volumes conserved")
