"""The level-synchronous octree against the recursive one it replaced.

Leaves (box, depth, A and B members in order) must be identical to the
oracle's, and candidate pairs to the oracle's leaf pairs whose closed
triangle boxes overlap, on the fixtures, on random soups, across the depth x
capacity grid and on dyadic soups whose boxes end exactly on the mid-planes,
where the closed overlap tests decide ties.
"""
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import meshbool.octree as octree_mod
from meshbool.geometry import Aabb, TriMesh
from meshbool.octree import (
    Octree,
    OctreeConfig,
    build_octree,
    candidate_pairs,
    clip_to_shared_region,
    find_candidates,
    triangle_boxes,
)
from meshes import (
    blob_and_plane,
    closed_cylinder,
    cube,
    grid_plane,
    icosphere,
    lobed_blob,
    nested_pair,
    oracle_aabb_pairs,
    oracle_build_octree,
    oracle_candidate_pairs,
    oracle_leaves,
    random_convex_pair,
    strip_surface,
    tangent_cylinders,
    torus,
    torus_pair,
    vw_pair,
)
from peak import traced_peak


def random_soup(rng, n, offset=(0, 0, 0), scale=1.0):
    tris = rng.uniform(0, 1, size=(n, 3, 3)) * scale + np.asarray(offset, dtype=float)
    verts = tris.reshape(-1, 3)
    faces = np.arange(3 * n).reshape(n, 3)
    return TriMesh(verts, faces)


def test_disjoint_cubes_empty_clip():
    ids_a, ids_b, cube_box, _ = clip_to_shared_region(cube((0, 0, 0)), cube((5, 5, 5)))
    assert len(ids_a) == 0 and len(ids_b) == 0
    assert find_candidates(cube((0, 0, 0)), cube((5, 5, 5))).shape == (0, 2)


def test_identical_meshes_full_clip():
    a = cube()
    ids_a, ids_b, cube_box, _ = clip_to_shared_region(a, cube())
    assert len(ids_a) == a.num_faces and len(ids_b) == a.num_faces
    assert not cube_box.is_empty
    extent = cube_box.extent
    assert extent[0] == pytest.approx(extent[1]) == pytest.approx(extent[2])


def test_offset_cube_clip_matches_box_oracle():
    a = cube((0, 0, 0), 1.0)
    b = cube((0.5, 0.5, 0.5), 1.0)
    ids_a, ids_b, _, _ = clip_to_shared_region(a, b)
    from meshbool.geometry import aabb_intersection, mesh_aabb

    box = aabb_intersection(mesh_aabb(a), mesh_aabb(b))
    lo, hi = triangle_boxes(a)
    expect = {i for i in range(a.num_faces) if ((lo[i] <= box.hi) & (hi[i] >= box.lo)).all()}
    assert set(ids_a.tolist()) == expect


def _leaf_key(lo, hi, depth, tris_a, tris_b) -> tuple:
    return (tuple(lo.tolist()), tuple(hi.tolist()), int(depth), tuple(tris_a.tolist()),
            tuple(tris_b.tolist()))


def leaf_set(tree: Octree) -> list[tuple]:
    """(lo, hi, depth, A ids, B ids) per leaf, members in stored order."""
    members_a, members_b = (
        np.split(tri, np.cumsum(np.bincount(leaf, minlength=len(tree.depth)))[:-1])
        for leaf, tri in (tree.a, tree.b)
    )
    return sorted(map(_leaf_key, tree.lo, tree.hi, tree.depth, members_a, members_b))


def oracle_leaf_set(tree) -> list[tuple]:
    return sorted(_leaf_key(n.lo, n.hi, n.depth, n.tris_a, n.tris_b) for n in oracle_leaves(tree))


def assert_flat_tree_invariants(tree: Octree, cfg: OctreeConfig, root: Aabb, boxes_a, boxes_b):
    """Every leaf obeys the leaf rule and holds only triangles touching it.

    Leaf sides are the root side over 2**depth, the boxes are distinct, and
    the 8**-depth sum is exactly 1: the leaves tile the root cube, which they
    do only when every split node has exactly eight children.
    """
    count_a, count_b = (np.bincount(leaf, minlength=len(tree.depth))
                        for leaf, _ in (tree.a, tree.b))
    cap = cfg.leaf_capacity
    assert (
        (tree.depth >= cfg.max_depth)
        | ((count_a <= cap) & (count_b <= cap))
        | (count_a == 0)
        | (count_b == 0)
    ).all()
    for (leaf, tri), (t_lo, t_hi) in ((tree.a, boxes_a), (tree.b, boxes_b)):
        assert (np.diff(leaf) >= 0).all()
        assert ((t_lo[tri] <= tree.hi[leaf]) & (t_hi[tri] >= tree.lo[leaf])).all()
    assert (tree.depth <= cfg.max_depth).all()
    assert float(np.sum(8.0 ** -tree.depth.astype(float))) == 1.0
    side = (root.hi - root.lo) / 2.0 ** tree.depth[:, None]
    assert np.allclose(tree.hi - tree.lo, side, rtol=1e-9, atol=0)
    assert len(np.unique(np.hstack([tree.lo, tree.hi]), axis=0)) == len(tree.depth)


def test_leaf_rules_trivial():
    a = cube()
    b = cube((0.5, 0.5, 0.5))
    ids_a, ids_b, root, _ = clip_to_shared_region(a, b)
    tree = build_octree(np.array([], dtype=np.int64), ids_b, triangle_boxes(a),
                        triangle_boxes(b), root, OctreeConfig())
    assert tree.depth.tolist() == [0]  # one side empty: the root alone is a leaf
    tree = build_octree(ids_a[:1], ids_b[:1], triangle_boxes(a), triangle_boxes(b),
                        root, OctreeConfig(leaf_capacity=8))
    assert tree.depth.tolist() == [0]  # both under capacity


def test_leaf_invariant_walk_cube_sphere():
    a = cube((-1, -1, -1), 2.0)
    b = icosphere(1.3, subdivisions=3)
    cfg = OctreeConfig(max_depth=6, leaf_capacity=32)
    ids_a, ids_b, root, _ = clip_to_shared_region(a, b)
    tree = build_octree(ids_a, ids_b, triangle_boxes(a), triangle_boxes(b), root, cfg)
    assert len(tree.depth) > 1
    assert_flat_tree_invariants(tree, cfg, root, triangle_boxes(a), triangle_boxes(b))


def test_candidates_single_leaf_cross_product():
    a = cube()
    b = cube((0.5, 0.5, 0.5))
    _, _, root, _ = clip_to_shared_region(a, b)
    i, j = min(oracle_aabb_pairs(a, b))
    tree = build_octree(np.array([i]), np.array([j]), triangle_boxes(a), triangle_boxes(b),
                        root, OctreeConfig())
    pairs = candidate_pairs(tree)
    assert pairs.tolist() == [[i, j]]


def test_superset_property_random_configurations():
    rng = np.random.default_rng(42)
    for trial in range(100):
        a = random_soup(rng, rng.integers(4, 24))
        b = random_soup(rng, rng.integers(4, 24), offset=rng.uniform(-0.5, 0.5, 3))
        got = set(map(tuple, find_candidates(a, b)))
        ids_a, ids_b, _, _ = clip_to_shared_region(a, b)
        in_a, in_b = set(ids_a.tolist()), set(ids_b.tolist())
        expect = {
            (i, j) for (i, j) in oracle_aabb_pairs(a, b) if i in in_a and j in in_b
        }
        # Exactly the box-overlapping pairs: a superset, and nothing more.
        assert expect == got, f"trial {trial}: missing {expect - got}, extra {got - expect}"


def test_pair_pass_never_holds_the_unfiltered_pairs(monkeypatch):
    """On a nested pair most pairs sharing a leaf have boxes that miss. With
    small runs, candidate_pairs peaks below the bytes of the unfiltered
    (k, 2) int64 pair array: that array is never built."""
    a, b = nested_pair(subdivisions=4)
    ids_a, ids_b, root, boxes = clip_to_shared_region(a, b)
    tree = build_octree(ids_a, ids_b, *boxes, root)
    (leaf_a, tri_a), (leaf_b, tri_b) = tree.a, tree.b
    by_leaf = np.split(tri_b, np.cumsum(np.bincount(leaf_b, minlength=len(tree.depth)))[:-1])
    n_b = int(tri_b.max()) + 1
    unfiltered = len(np.unique(np.concatenate([t * n_b + by_leaf[leaf] for leaf, t in zip(leaf_a, tri_a)])))
    monkeypatch.setattr(octree_mod, "PAIR_CHUNK", 4096)
    with traced_peak() as peak:
        pairs = candidate_pairs(tree)
    assert 0 < len(pairs) < unfiltered
    assert peak.bytes < 16 * unfiltered, (peak.bytes, unfiltered, len(pairs))


def test_determinism():
    a, b = tangent_cylinders(1.0, n_theta=12, n_rings=5)
    p1 = find_candidates(a, b)
    p2 = find_candidates(a, b)
    assert np.array_equal(p1, p2)


def test_capacity_monotonicity_keeps_true_pairs():
    from meshbool.intersect import tri_tri_intersect

    a = cube((0, 0, 0), 1.0)
    b = cube((0.4, 0.4, 0.4), 1.0)
    sets = {}
    for cap in (2, 8, 64):
        sets[cap] = set(map(tuple, find_candidates(a, b, OctreeConfig(leaf_capacity=cap))))
    truth = set()
    for i in range(a.num_faces):
        for j in range(b.num_faces):
            res = tri_tri_intersect(a.vertices[a.faces[i]], b.vertices[b.faces[j]], 1e-12)
            if res is not None and not getattr(res, "degenerate", False):
                truth.add((i, j))
    for cap, got in sets.items():
        assert truth <= got, f"capacity {cap} lost a truly intersecting pair"


# ---------------------------------------------------------------------------
# Differential tests against the recursive oracle
# ---------------------------------------------------------------------------


def overlapping(pairs, boxes_a, boxes_b):
    """The rows of pairs whose closed triangle boxes overlap."""
    (lo_a, hi_a), (lo_b, hi_b) = boxes_a, boxes_b
    ia, ib = pairs.T
    return pairs[((lo_a[ia] <= hi_b[ib]) & (lo_b[ib] <= hi_a[ia])).all(axis=1)]


def assert_matches_oracle(ids_a, ids_b, boxes_a, boxes_b, root, cfg=None):
    tree = build_octree(ids_a, ids_b, boxes_a, boxes_b, root, cfg)
    want = oracle_build_octree(ids_a, ids_b, boxes_a, boxes_b, root, cfg)
    assert leaf_set(tree) == oracle_leaf_set(want)
    pairs = candidate_pairs(tree)
    expect = overlapping(oracle_candidate_pairs(want), boxes_a, boxes_b)
    assert pairs.dtype == expect.dtype and np.array_equal(pairs, expect)
    assert_flat_tree_invariants(tree, cfg or OctreeConfig(), root, boxes_a, boxes_b)
    return pairs


def assert_meshes_match_oracle(a, b, cfg=None):
    ids_a, ids_b, root, boxes = clip_to_shared_region(a, b)
    # The clip hands build_octree the boxes triangle_boxes computes.
    for got, want in zip(boxes or (), (triangle_boxes(a), triangle_boxes(b))):
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
    if len(ids_a) and len(ids_b):
        pairs = assert_matches_oracle(ids_a, ids_b, triangle_boxes(a), triangle_boxes(b), root, cfg)
        assert np.array_equal(find_candidates(a, b, cfg), pairs)


def _shifted(mesh, offset=(0.21, -0.13, 0.08)):
    return TriMesh(mesh.vertices + np.asarray(offset), mesh.faces, source="B")


FIXTURE_PAIRS = {
    "cube_cube": lambda: (cube(), cube((0.5, 0.5, 0.5))),
    "cube_sphere": lambda: (cube((-1, -1, -1), 2.0), icosphere(1.3, subdivisions=3)),
    "icosphere3_pair": lambda: (
        icosphere(1.0, subdivisions=3),
        icosphere(1.0, center=(0.5, 0.31, 0.17), subdivisions=3),
    ),
    "tangent_cylinders": tangent_cylinders,
    "torus_pair": torus_pair,
    "vw": vw_pair,
    "blob_and_plane": blob_and_plane,
    "convex": lambda: random_convex_pair(np.random.default_rng(7)),
    "cylinder_shifted": lambda: (closed_cylinder(), _shifted(closed_cylinder())),
    "torus_shifted": lambda: (
        torus(n_major=24, n_minor=12),
        _shifted(torus(n_major=24, n_minor=12)),
    ),
    "strip_shifted": lambda: (
        strip_surface([(0, 0), (1, 1), (2, 0)]),
        _shifted(strip_surface([(0, 0), (1, 1), (2, 0)])),
    ),
    "blob_shifted": lambda: (lobed_blob(subdivisions=2), _shifted(lobed_blob(subdivisions=2))),
    "plane_shifted": lambda: (grid_plane(n=8), _shifted(grid_plane(n=8))),
    "identical_cubes": lambda: (cube(), cube()),
    "nested_pair": lambda: nested_pair(subdivisions=2),
}


@pytest.mark.parametrize("name", sorted(FIXTURE_PAIRS))
def test_fixture_pairs_match_oracle(name):
    assert_meshes_match_oracle(*FIXTURE_PAIRS[name]())


def test_random_soups_match_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        a = random_soup(rng, rng.integers(1, 40))
        b = random_soup(rng, rng.integers(1, 40), offset=rng.uniform(-0.5, 0.5, 3))
        # Large overlapping triangles split nearly every node, so keep trees shallow.
        cfg = OctreeConfig(int(rng.integers(1, 5)), int(rng.integers(4, 17)))
        assert_meshes_match_oracle(a, b, cfg)
        assert_meshes_match_oracle(a, b)


def _sparse_soup(rng, n, size, source):
    """n small triangles scattered over the unit cube: deep trees stay small
    even at capacity 1, since few boxes of both sides overlap."""
    tris = rng.uniform(0, 1, (n, 1, 3)) + rng.uniform(-size, size, (n, 3, 3))
    return TriMesh(tris.reshape(-1, 3), np.arange(3 * n).reshape(n, 3), source=source)


@pytest.mark.parametrize("depth", range(1, 9))
def test_depth_capacity_grid_matches_oracle(depth):
    rng = np.random.default_rng(depth)
    soups = (_sparse_soup(rng, 24, 0.15, "A"), _sparse_soup(rng, 24, 0.15, "B"))
    spheres = (cube((-1, -1, -1), 2.0), icosphere(1.3, subdivisions=1))
    for cap in (1, 2, 3, 4, 8, 16, 32, 64):
        assert_meshes_match_oracle(*soups, OctreeConfig(depth, cap))
        if cap >= 4:  # below 4 the cube faces keep every sphere node splitting
            assert_meshes_match_oracle(*spheres, OctreeConfig(depth, cap))


# Coordinates on the 1/16 grid put box faces exactly on the mid-planes of the
# unit root down to depth 4, so the closed test's ties decide membership.
_dyadic = st.integers(0, 16).map(lambda i: i / 16.0)
_point = st.tuples(_dyadic, _dyadic, _dyadic)
_triangle = st.one_of(
    st.tuples(_point, _point, _point),
    _point.map(lambda p: (p, p, p)),  # zero-extent box
    st.tuples(_point, _dyadic).map(lambda t: (t[0], (t[1], *t[0][1:]), t[0])),  # flat on two axes
)


@st.composite
def _dyadic_soup(draw, min_size):
    tris = draw(st.lists(_triangle, min_size=min_size, max_size=24))
    if tris:
        tris += draw(st.lists(st.sampled_from(tris), max_size=6))  # duplicated triangles
    return np.asarray(tris, dtype=np.float64).reshape(-1, 3, 3)


@settings(max_examples=150, deadline=None)
@given(
    _dyadic_soup(1), _dyadic_soup(0), st.integers(1, 4), st.integers(1, 6), st.booleans(),
    st.sampled_from([1, 2, 7, 1 << 16]),
)
def test_dyadic_ties_match_oracle(tris_a, tris_b, depth, cap, swap, pair_chunk):
    if swap:
        tris_a, tris_b = tris_b, tris_a
    root = Aabb(np.zeros(3), np.ones(3))
    boxes = [(t.min(axis=1), t.max(axis=1)) for t in (tris_a, tris_b)]
    ids = [np.arange(len(t), dtype=np.int64) for t in (tris_a, tris_b)]
    with mock.patch.object(octree_mod, "PAIR_CHUNK", pair_chunk):
        assert_matches_oracle(*ids, *boxes, root, OctreeConfig(depth, cap))


@pytest.mark.parametrize("pair_chunk", [1, 5, 64, 1000])
@pytest.mark.parametrize("name", ["cube_sphere", "icosphere3_pair", "torus_pair", "identical_cubes"])
def test_pair_runs_match_oracle(name, pair_chunk, monkeypatch):
    """candidate_pairs expands the cross product in runs of whole leaves
    and box-tests each run; runs of every size, down to one leaf each, give
    the oracle's overlapping pairs. A leaf can expand to more rows than a run
    holds."""
    monkeypatch.setattr(octree_mod, "PAIR_CHUNK", pair_chunk)
    assert_meshes_match_oracle(*FIXTURE_PAIRS[name]())


@pytest.mark.parametrize("block", [1, 3, 64])
@pytest.mark.parametrize("name", ["cube_sphere", "icosphere3_pair", "torus_pair", "identical_cubes"])
def test_build_blocks_match_oracle(name, block, monkeypatch):
    """build_octree splits each level's memberships in blocks of whole
    nodes; blocks of every size, down to one node each, join into the
    oracle's tree."""
    monkeypatch.setattr(octree_mod, "BLOCK", block)
    assert_meshes_match_oracle(*FIXTURE_PAIRS[name]())


def test_pair_keys_do_not_overflow_int32_ids():
    """Memberships are int32, but a pair key tri_a * n_b + tri_b passes
    2**31 once both sides have ~46k triangles: the keys stay int64."""
    n = 70_000
    lo, hi = np.full((n, 3), 5.0), np.full((n, 3), 6.0)
    lo[-3:], hi[-3:] = 0.0, 1.0  # three triangles at the top ids share the unit box
    ids = np.array([n - 3, n - 2, n - 1])
    tree = build_octree(ids, ids[:2], (lo, hi), (lo, hi), Aabb(np.zeros(3), np.ones(3)))
    pairs = candidate_pairs(tree)
    assert pairs.dtype == np.int64
    assert pairs.tolist() == [[a, b] for a in ids.tolist() for b in ids[:2].tolist()]
