"""Broad phase: shared-box clipping and the octree candidate-pair search.

Triangles are placed in every node their bounding box touches, so any two
whose boxes overlap share a leaf, and the pair pass keeps exactly the pairs
whose closed boxes overlap. Triangle boxes are computed by the clip and
handed to the tree build, which keeps them for the pair pass. Every mask,
reduction and gather over the triangles' (m, 3) coordinates works one axis
column at a time: numpy's axis-0 min/max and axis-1 all on (m, 3) rows run
~10x slower than the same work on three columns. Besides the boxes, the build holds
int32 (node or leaf, triangle) columns of the level and of the leaves found,
and one block's temporaries; the pair pass the tree, an int32 repeat count
per A membership, one run of whole leaves' rows, and the int64 keys of the
box-overlapping rows, sorted once at the end.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GeometryError
from .geometry import BLOCK, Aabb, TriMesh, aabb_intersection, mesh_aabb

CUBE_INFLATE = 1e-9
PAIR_CHUNK = 1 << 14  # cross-product rows expanded at once in candidate_pairs


@dataclass
class OctreeConfig:
    max_depth: int = 8
    leaf_capacity: int = 32

    def __post_init__(self):
        if self.max_depth < 1 or self.leaf_capacity < 1:
            raise GeometryError("octree depth and capacity must be >= 1")


@dataclass
class Octree:
    """The leaves as flat arrays: boxes lo, hi (L, 3) and depth (L,); per side,
    (leaf ids, triangle ids) memberships grouped by leaf, triangles ascending."""

    lo: np.ndarray
    hi: np.ndarray
    depth: np.ndarray
    a: tuple[np.ndarray, np.ndarray]
    b: tuple[np.ndarray, np.ndarray]
    boxes: tuple  # the triangle boxes built on, ((lo, hi) of A, (lo, hi) of B)


# Octant o takes the upper half of axis k when bit k of o is set.
_OCTANT_BITS = ((np.arange(8)[:, None] >> np.arange(3)) & 1).astype(bool)


def triangle_boxes(mesh: TriMesh) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle AABB corners, (m, 3) lo and (m, 3) hi, one axis at a time."""
    v, f = mesh.vertices, mesh.faces
    lo, hi = np.empty((2, 3, len(f)))
    for k in range(3):
        p0, p1, p2 = (v[:, k][f[:, c]] for c in range(3))
        np.minimum(np.minimum(p0, p1), p2, out=lo[k])
        np.maximum(np.maximum(p0, p1), p2, out=hi[k])
    return lo.T, hi.T  # (m, 3) views whose axis columns are contiguous


def clip_to_shared_region(a: TriMesh, b: TriMesh):
    """Split both meshes against the shared box and build the root cube.

    Returns (ids_a, ids_b, root_cube, boxes). The id arrays hold the
    triangles whose boxes touch the shared region; both are empty when the
    meshes' boxes are disjoint and the pipeline short-circuits. boxes is
    (triangle_boxes(a), triangle_boxes(b)) for build_octree, or None when
    either id array is empty.
    """
    box_ab = aabb_intersection(mesh_aabb(a), mesh_aabb(b))
    if box_ab.is_empty:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), Aabb.empty(), None

    def inside(mesh):
        lo, hi = triangle_boxes(mesh)
        touch = [(lo[:, k] <= box_ab.hi[k]) & (hi[:, k] >= box_ab.lo[k]) for k in range(3)]
        return np.flatnonzero(np.logical_and.reduce(touch)), lo, hi

    ids_a, lo_a, hi_a = inside(a)
    ids_b, lo_b, hi_b = inside(b)
    if len(ids_a) == 0 or len(ids_b) == 0:
        return ids_a, ids_b, Aabb.empty(), None

    # Cube extension: center-preserving, grown to cover every clipped
    # triangle box, then inflated to dodge boundary-exact misses. Only
    # |corner - center| is read, so which zero a column's min or max gives does not matter.
    all_lo = np.array([min(lo_a[:, k][ids_a].min(), lo_b[:, k][ids_b].min()) for k in range(3)])
    all_hi = np.array([max(hi_a[:, k][ids_a].max(), hi_b[:, k][ids_b].max()) for k in range(3)])
    center = box_ab.center
    half = max(float(box_ab.extent.max()) * 0.5, float(np.abs(all_lo - center).max()),
               float(np.abs(all_hi - center).max()))
    half *= 1.0 + CUBE_INFLATE
    if half == 0.0:
        half = CUBE_INFLATE
    cube = Aabb(center - half, center + half)
    return ids_a, ids_b, cube, ((lo_a, hi_a), (lo_b, hi_b))


def _children(node, tri, t_lo, t_hi, lo, hi, mid, child_base):
    """Split nodes' (node, triangle) memberships as their children's, by child."""
    # Per axis, whether the box touches the lower and the upper half; the
    # mask [z, y, x] flattens to octant 4z + 2y + x, as in _OCTANT_BITS.
    at_tri = tri.astype(np.intp)  # gathers index fastest by intp
    halves = []
    for k in range(3):
        b_lo, b_hi, n_mid = t_lo[:, k][at_tri], t_hi[:, k][at_tri], mid[:, k][node]
        halves.append(np.stack(((b_lo <= n_mid) & (b_hi >= lo[:, k][node]),
                                (b_lo <= hi[:, k][node]) & (b_hi >= n_mid))))
    x, y, z = halves  # a flat nonzero split by divmod: np.nonzero's (8, n) order, ~3x faster
    octant, row = np.divmod(np.flatnonzero(z[:, None, None] & y[None, :, None] & x[None, None, :]), len(tri))
    child = child_base[node[row]] + octant
    # Octant-major rows are eight runs sorted by child; a stable merge
    # groups them by child and keeps triangle ids ascending.
    order = np.argsort(child, kind="stable")
    return child[order].astype(np.int32), tri[row[order]]


def build_octree(
    ids_a: np.ndarray,
    ids_b: np.ndarray,
    boxes_a: tuple[np.ndarray, np.ndarray],
    boxes_b: tuple[np.ndarray, np.ndarray],
    root: Aabb,
    cfg: OctreeConfig | None = None,
) -> Octree:
    """Eight-way subdivision of the root cube, one depth level at a time.

    A node is a leaf when it reaches max depth, when both triangle counts
    are within the capacity, or when either count is zero. A split node gets
    eight children, and each of its triangles joins every child its box
    touches (closed test).
    """
    cfg = cfg or OctreeConfig()
    lo, hi = (np.asarray(corner, float).reshape(1, 3) for corner in (root.lo, root.hi))
    # Per side: (node, triangle) memberships of the current level, by node.
    members = [(np.zeros(len(ids), np.int32), np.asarray(ids, np.int32)) for ids in (ids_a, ids_b)]
    leaves, found, n_leaves, cap = [], ([], []), 0, cfg.leaf_capacity
    for depth in range(cfg.max_depth + 1):
        ca, cb = (np.bincount(node, minlength=len(lo)) for node, _ in members)
        leaf = (depth >= cfg.max_depth) | ((ca <= cap) & (cb <= cap)) | (ca == 0) | (cb == 0)
        leaf_id = (n_leaves + np.cumsum(leaf) - 1).astype(np.int32)
        leaves.append((lo[leaf], hi[leaf], np.full(int(leaf.sum()), depth)))
        n_leaves += len(leaves[-1][2])
        if leaf.all():  # the last level: its memberships join the leaves' without a mask copy
            for side, (node, tri) in enumerate(members):
                found[side].append((leaf_id[node], tri))
            break
        split = ~leaf
        child_base, mid = 8 * (np.cumsum(split) - 1), 0.5 * (lo + hi)
        for side, boxes in enumerate((boxes_a, boxes_b)):
            (node, tri), members[side] = members[side], None  # unmasked arrays end below
            node = node.astype(np.intp)  # gathers index fastest by intp
            done = leaf[node]
            found[side].append((leaf_id[node[done]], tri[done]))
            node, tri = node[~done], tri[~done]
            # Blocks of whole nodes, about BLOCK memberships each, give their
            # children in child order, so the blocks join without a sort.
            cuts = [*node.searchsorted(node[::BLOCK]), len(node)]
            parts = [_children(node[i:j], tri[i:j], *boxes, lo, hi, mid, child_base)
                     for i, j in zip(cuts[:-1], cuts[1:]) if i < j]
            members[side] = tuple(np.concatenate(col) for col in zip(*parts))
        del node, tri, done, parts  # the split memberships end with their children built
        plo, phi, pmid = lo[split][:, None], hi[split][:, None], mid[split][:, None]
        lo = np.where(_OCTANT_BITS, pmid, plo).reshape(-1, 3)
        hi = np.where(_OCTANT_BITS, phi, pmid).reshape(-1, 3)
    del members
    for parts in found:  # each side's parts end as soon as the side is joined
        parts[:] = [np.concatenate(col) for col in zip(*parts)]
    lo, hi, depth = (np.concatenate(col) for col in zip(*leaves))
    return Octree(lo, hi, depth, *map(tuple, found), (boxes_a, boxes_b))


def candidate_pairs(tree: Octree) -> np.ndarray:
    """The A x B pairs sharing a leaf whose closed boxes overlap, sorted, unique.

    A memberships come grouped by leaf and are taken in runs of whole leaves
    that expand to about PAIR_CHUNK cross-product rows. A run gathers its A
    boxes once per axis and its rows' B boxes (a B slice would also span the
    B-only leaves between its leaves), and box-tests every row before any
    sort: the transient arrays are bounded by the run, and only overlapping
    rows' keys are kept. One in-place sort and a neighbour compare then drop
    the copies of pairs that share several leaves.
    """
    (leaf_a, tri_a), (leaf_b, tri_b) = tree.a, tree.b
    (lo_a, hi_a), (lo_b, hi_b) = tree.boxes
    count_b = np.bincount(leaf_b, minlength=len(tree.depth)).astype(np.int32)
    start_b = np.cumsum(count_b) - count_b
    reps = count_b[leaf_a]
    if not reps.any():
        return np.zeros((0, 2), dtype=np.int64)
    n_b = int(tri_b.max()) + 1
    heads = np.flatnonzero(np.concatenate(([True], leaf_a[1:] != leaf_a[:-1])))
    bucket = (np.cumsum(reps)[heads] - reps[heads]) // PAIR_CHUNK
    cuts = [*heads[np.concatenate(([True], bucket[1:] != bucket[:-1]))], len(leaf_a)]
    keys = []
    for first, stop in zip(cuts[:-1], cuts[1:]):
        run, ta = reps[first:stop], tri_a[first:stop].astype(np.intp)
        # An A membership's row r meets B membership start_b + r of its leaf.
        at_b = np.arange(int(run.sum())) - np.repeat(np.cumsum(run) - run - start_b[leaf_a[first:stop]], run)
        tb = tri_b[at_b].astype(np.intp)
        hit = np.ones(len(tb), dtype=bool)
        for k in range(3):
            a_lo, a_hi = lo_a[:, k][ta], hi_a[:, k][ta]
            hit &= (np.repeat(a_lo, run) <= hi_b[:, k][tb]) & (lo_b[:, k][tb] <= np.repeat(a_hi, run))
        keys.append(np.repeat(ta, run)[hit] * n_b + tb[hit])  # int64: tri * n_b overflows int32
        del at_b, tb, hit  # the run's rows end before the next run's are built
    keys = np.concatenate(keys)
    keys.sort()
    new = np.ones(len(keys), dtype=bool)  # no np.unique: its first call imports numpy.ma
    new[1:] = keys[1:] != keys[:-1]
    return np.stack(np.divmod(keys[new], n_b), axis=1)


def find_candidates(a: TriMesh, b: TriMesh, cfg: OctreeConfig | None = None) -> np.ndarray:
    """Full broad phase: clip, build the tree, collect pairs."""
    ids_a, ids_b, cube, boxes = clip_to_shared_region(a, b)
    if len(ids_a) == 0 or len(ids_b) == 0:
        return np.zeros((0, 2), dtype=np.int64)
    tree = build_octree(ids_a, ids_b, *boxes, cube, cfg)
    del ids_a, ids_b, boxes  # the tree holds what the pair pass reads
    return candidate_pairs(tree)
