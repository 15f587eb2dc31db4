"""halfedge.sort_runs in place of numpy's set routines, bit for bit.

Each form below is how a meshbool site now reads sort_runs' order and run
starts; tests/oracle_set_routines.py holds the same site's np.unique,
np.union1d or np.isin form. Drawn inputs repeat values from small pools:
float rows with either-signed zeros, int rows, 1-D ints, and empty arrays.
"""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle_set_routines as frozen
from meshbool.halfedge import sort_runs


def first_distinct_ends(owner, p):
    order, new = sort_runs(owner, *p.T)
    return np.sort(order[new])


def split_face_ids(seg_face, pt_face):
    fids = np.concatenate((seg_face, pt_face))
    order, new = sort_runs(fids)
    return fids[order[new]]


def distinct_node_pairs(a, b, n):
    pair = np.minimum(a, b) * n + np.maximum(a, b)
    order, new = sort_runs(pair)
    pair = pair[order[new]]
    return pair // n, pair % n


def label_runs(label):
    order, new = sort_runs(label)
    run = np.flatnonzero(new)
    return label[order[run]], np.diff(run, append=len(label))


def vertex_ranks(ends):
    order, new = sort_runs(ends.ravel())
    pairs = np.empty_like(order)
    pairs[order] = np.cumsum(new) - 1
    return int(new.sum()), pairs.reshape(-1, 2)


def loop_edges(ends):
    rows = np.sort(ends, axis=1)
    order, new = sort_runs(*rows.T)
    first = np.sort(order[new])
    return rows[first], first


def canonical_faces(t):
    order, new = sort_runs(*t.T)
    return t[order[new]]


def attains(extrema, faces, n):
    used = np.zeros(n, dtype=bool)
    used[faces] = True
    return bool(used[extrema].all())


def assert_same(got, want):
    """Equal values, dtypes, shapes and bytes, item by item."""
    got = got if isinstance(got, tuple) else (got,)
    want = want if isinstance(want, tuple) else (want,)
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert (g.dtype, g.shape, g.tobytes()) == (w.dtype, w.shape, w.tobytes())
        else:
            assert type(g) is type(w) and g == w


_COORD = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 2.0 ** -1074, 3.0e300])


@st.composite
def float_rows(draw):
    """(owner, (m, 3) points) from small pools, zeros of either sign."""
    pool = np.asarray(draw(st.lists(st.tuples(_COORD, _COORD, _COORD), min_size=1, max_size=6)))
    m = draw(st.integers(0, 40))
    p = pool[draw(st.lists(st.integers(0, len(pool) - 1), min_size=m, max_size=m))].reshape(m, 3)
    flip = np.asarray(draw(st.lists(st.booleans(), min_size=3 * m, max_size=3 * m)), dtype=bool).reshape(m, 3)
    p = np.where((p == 0) & flip, -p, p)
    owner = np.asarray(draw(st.lists(st.integers(0, 4), min_size=m, max_size=m)), dtype=np.int64)
    return owner, p


def int_array(shape_tail=(), lo=0, hi=6, max_rows=40):
    """int64 arrays of up to max_rows rows from [lo, hi], so rows repeat."""
    width = int(np.prod(shape_tail))
    return st.integers(0, max_rows).flatmap(
        lambda m: st.lists(st.integers(lo, hi), min_size=m * width, max_size=m * width).map(
            lambda xs: np.asarray(xs, dtype=np.int64).reshape(m, *shape_tail)))


@settings(max_examples=200, deadline=None)
@given(float_rows())
def test_first_distinct_float_rows_match_unique(rows):
    owner, p = rows
    assert_same(first_distinct_ends(owner, p), frozen.first_distinct_ends(owner, p))


def test_signed_zero_rows_are_one_row_first_by_position():
    owner = np.array([3, 3, 3, 1], dtype=np.int64)
    p = np.array([[0.0, 1.0, -0.0], [-0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]])
    assert_same(first_distinct_ends(owner, p), np.array([0, 3]))
    assert_same(first_distinct_ends(owner, p), frozen.first_distinct_ends(owner, p))


@settings(max_examples=200, deadline=None)
@given(int_array(hi=30), int_array(hi=30))
def test_split_face_ids_match_union1d(seg_face, pt_face):
    assert_same(split_face_ids(np.sort(seg_face), np.sort(pt_face)),
                frozen.split_face_ids(np.sort(seg_face), np.sort(pt_face)))
    assert_same(split_face_ids(seg_face, pt_face), frozen.split_face_ids(seg_face, pt_face))


@settings(max_examples=200, deadline=None)
@given(int_array((2,), hi=9), st.sampled_from([10, 11, 2**31]))
def test_distinct_node_pairs_match_unique(ab, n):
    a, b = ab.T
    assert_same(distinct_node_pairs(a, b, n), frozen.distinct_node_pairs(a, b, n))


@settings(max_examples=200, deadline=None)
@given(int_array(lo=-3, hi=2**40, max_rows=60) | int_array(lo=-3, hi=5, max_rows=60))
def test_label_runs_match_unique_counts(label):
    assert_same(label_runs(label), frozen.label_runs(label))


@settings(max_examples=200, deadline=None)
@given(int_array((2,), hi=12))
def test_vertex_ranks_match_unique_inverse(ends):
    assert_same(vertex_ranks(ends), frozen.vertex_ranks(ends))


@settings(max_examples=200, deadline=None)
@given(int_array((2,), hi=6))
def test_loop_edges_match_unique_rows_with_index(ends):
    assert_same(loop_edges(ends), frozen.loop_edges(ends))


@settings(max_examples=200, deadline=None)
@given(int_array((3,), hi=5))
def test_canonical_faces_match_unique_rows(t):
    assert_same(canonical_faces(t), frozen.canonical_faces(t))


@settings(max_examples=200, deadline=None)
@given(int_array((3,), hi=600), st.lists(st.integers(0, 600), min_size=6, max_size=6))
def test_attains_matches_isin(faces, extrema):
    """Ids spread over 601 values, far more than a few faces use: the range
    where np.isin sorts rather than masks."""
    extrema = np.asarray(extrema, dtype=np.int64)
    assert attains(extrema, faces, 601) == frozen.attains(extrema, faces)


@pytest.mark.parametrize("form", ["first_distinct_ends", "split_face_ids", "distinct_node_pairs", "label_runs",
                                  "vertex_ranks", "loop_edges", "canonical_faces"])
def test_empty_inputs_match(form):
    args = {
        "first_distinct_ends": (np.zeros(0, np.int64), np.zeros((0, 3))),
        "split_face_ids": (np.zeros(0, np.int64), np.zeros(0, np.int64)),
        "distinct_node_pairs": (np.zeros(0, np.int64), np.zeros(0, np.int64), 7),
        "label_runs": (np.zeros(0, np.int64),),
        "vertex_ranks": (np.zeros((0, 2), np.int64),),
        "loop_edges": (np.zeros((0, 2), np.int64),),
        "canonical_faces": (np.zeros((0, 3), np.int64),),
    }[form]
    assert_same(globals()[form](*args), getattr(frozen, form)(*args))


def test_sort_runs_is_the_stable_lexsort_and_its_run_starts():
    x = np.array([2, 1, 2, 1, 0])
    y = np.array([0.0, 5.0, -0.0, 5.0, 1.0])
    order, new = sort_runs(x, y)
    assert order.tolist() == [4, 1, 3, 0, 2]
    assert new.tolist() == [True, True, False, True, False]
