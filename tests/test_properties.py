"""Whole-pipeline properties on generated inputs.

Tolerances come from the scene scale, so scaling both inputs by a power of
two scales every output exactly: its vertices and its facets, since no step
visits points in an order that depends on float hashes. Swapping A and B
swaps the two subtractions, and each output's vertices are the same set of
exact points: every crossing is lerped from the lexicographically smaller
end of its edge, so both faces on an edge and both input orders compute it
bit-equal. The swap is pinned for torus_pair, whose weld pool still holds
distinct points within tol of each other; such a group's vertex is the
pool's first point, which is A's. A rigid motion of both inputs (a rotation
and a translation of about 10) keeps every output a closed manifold of
positive volume, and the volume identities within 1e-10 relative.
"""
import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from meshbool.geometry import TriMesh, is_closed_manifold, signed_volume
from meshbool.pipeline import run_pipeline
from meshes import bumpy_pair, cube, icosphere, random_convex_pair, torus_pair

PAIRS = {
    "cube_sphere": lambda: (cube((-1, -1, -1), 2.0, "A"), icosphere(1.3, subdivisions=2, source="B")),
    "bumpy_pair": lambda: bumpy_pair(2),
    "torus_pair": lambda: torus_pair(1.0, 0.35, n_major=24, n_minor=12),
}
OUTPUTS = ("union", "intersection", "a_minus_b", "b_minus_a")

# A fixture's name, or the seed of a random_convex_pair draw.
pairs = st.one_of(st.sampled_from(sorted(PAIRS)), st.integers(0, 2**16))


def make(pair):
    return PAIRS[pair]() if isinstance(pair, str) else random_convex_pair(np.random.default_rng(pair))


def scaled(mesh, s):
    return TriMesh(mesh.vertices * s, mesh.faces, source=mesh.source, name=mesh.name)


@settings(max_examples=12, deadline=None)
@given(pairs, st.sampled_from([-20, 7, 40]))
def test_power_of_two_scaling_scales_every_output_vertex(pair, k):
    a, b = make(pair)
    s = 2.0**k
    base, big = run_pipeline(a, b), run_pipeline(scaled(a, s), scaled(b, s))
    assert len(big.loops) == len(base.loops)
    assert len(big.subsurfaces) == len(base.subsurfaces)
    for label in OUTPUTS:
        want, got = base.result.by_label(label), big.result.by_label(label)
        assert [m.num_faces for m in got] == [m.num_faces for m in want], label
        for g, w in zip(got, want):
            assert g.vertices.tobytes() == (w.vertices * s).tobytes(), label
            assert g.vertices[g.faces].tobytes() == (w.vertices[w.faces] * s).tobytes(), label


SWAPS = (("union", "union"), ("intersection", "intersection"),
         ("a_minus_b", "b_minus_a"), ("b_minus_a", "a_minus_b"))
# Pairs whose swapped outputs are known to differ in exact points, and why.
SWAP_PINNED = {
    "torus_pair": "48 of the 54 vertices each output differs by are welds of distinct points within "
                  "tol, where the vertex is the pool's first point, which is A's",
}


def swap_results(pair):
    a, b = make(pair)
    return run_pipeline(a, b).result, run_pipeline(TriMesh(b.vertices, b.faces), TriMesh(a.vertices, a.faces)).result


def vertex_set(meshes):
    return sorted(set(map(tuple, np.concatenate([m.vertices for m in meshes]).tolist())))


@settings(max_examples=8, deadline=None)
@given(pairs)
def test_swapping_the_inputs_swaps_the_subtractions(pair):
    ab, ba = swap_results(pair)
    for x, y in SWAPS:
        got, want = ba.by_label(x), ab.by_label(y)
        assert sorted((m.num_faces, m.num_vertices) for m in got) == \
            sorted((m.num_faces, m.num_vertices) for m in want), x
        vol_got, vol_want = sum(map(signed_volume, got)), sum(map(signed_volume, want))
        assert abs(vol_got - vol_want) <= 1e-12 * abs(vol_want), x
        if pair not in SWAP_PINNED:  # pinned by the strict xfail below
            assert vertex_set(got) == vertex_set(want), x


@pytest.mark.xfail(strict=True, reason=SWAP_PINNED["torus_pair"])
def test_swapping_torus_pair_keeps_exact_vertex_sets():
    ab, ba = swap_results("torus_pair")
    for x, y in SWAPS:
        assert vertex_set(ba.by_label(x)) == vertex_set(ab.by_label(y)), x


def moved(mesh, rotation, shift):
    return TriMesh(mesh.vertices @ rotation.T + shift, mesh.faces, source=mesh.source, name=mesh.name)


def motion(seed):
    """A random rotation, from a normalised Gaussian quaternion, and a
    translation of length 10 in a random direction."""
    rng = np.random.default_rng(seed)
    q, d = rng.normal(size=4), rng.normal(size=3)
    w, x, y, z = q / np.linalg.norm(q)
    rotation = np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)],
        [2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)],
        [2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)],
    ])
    return rotation, 10.0 * d / np.linalg.norm(d)


@settings(max_examples=20, deadline=None)
@given(pairs, st.integers(0, 2**32 - 1))
def test_rigid_motions_keep_closed_outputs_and_volume_identities(pair, seed):
    a, b = (moved(m, *motion(seed)) for m in make(pair))
    result = run_pipeline(a, b).result
    for label in OUTPUTS:
        for m in result.by_label(label):
            assert is_closed_manifold(m) and signed_volume(m) > 0, label
    vol = {label: sum(map(signed_volume, result.by_label(label))) for label in OUTPUTS}
    va, vb, vi = signed_volume(a), signed_volume(b), vol["intersection"]
    assert abs(vol["union"] + vi - (va + vb)) <= 1e-10 * (va + vb)
    assert abs(vol["a_minus_b"] - (va - vi)) <= 1e-10 * va
    assert abs(vol["b_minus_a"] - (vb - vi)) <= 1e-10 * vb
