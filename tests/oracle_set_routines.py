"""meshbool's dedup, grouping and set sites in their numpy set-routine forms.

Each function is one site as it read before halfedge.sort_runs replaced
np.unique, np.union1d and np.isin there, fed the arrays that site reads.
tests/test_sort_runs.py checks the sort_runs forms against them bit for bit.
"""
from __future__ import annotations

import numpy as np


def first_distinct_ends(owner, p):
    """pipeline._propagate_edge_points: the first (owner, point) of each
    distinct value, by position; -0.0 equals 0.0."""
    return np.sort(np.unique(np.column_stack((owner, p)), axis=0, return_index=True)[1])


def split_face_ids(seg_face, pt_face):
    """pipeline.run_pipeline: the faces that get split, ascending."""
    return np.union1d(seg_face, pt_face)


def distinct_node_pairs(a, b, n):
    """retriangulate._graph: each undirected edge once, by (min, max)."""
    pair = np.unique(np.minimum(a, b) * n + np.maximum(a, b))
    return pair // n, pair % n


def label_runs(label):
    """retriangulate._cycles: each cycle label and how many edges carry it."""
    return np.unique(label, return_counts=True)


def vertex_ranks(ends):
    """subsurfaces._check_region_count: the number of distinct loop vertices
    and each edge end's rank among them, as (k, 2) pairs."""
    verts, pairs = np.unique(ends, return_inverse=True)
    return len(verts), pairs.reshape(-1, 2)


def loop_edges(ends):
    """merge.build_merged_state: the distinct (min, max) edges of the live
    segment ends in order of first use, and the index of that first use."""
    uniq, first = np.unique(np.sort(ends, axis=1), axis=0, return_index=True)
    order = np.argsort(first)
    return uniq[order], first[order]


def canonical_faces(t):
    """blocks.meshes_coincident: welded faces, each already turned to start
    at its smallest id, as the sorted set of rows."""
    return np.unique(t, axis=0)


def attains(extrema, faces):
    """blocks.pick_union: does the block use every extreme vertex?"""
    return bool(np.isin(extrema, faces).all())
