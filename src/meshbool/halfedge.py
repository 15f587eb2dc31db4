"""Directed-edge keys and the edge table of one triangle surface.

Edge e = 3*f + k of a face array is the directed edge (u, v) = (faces[f, k],
faces[f, (k + 1) % 3]) and belongs to face e // 3. Its key is

    2 * (min(u, v) * n + max(u, v)) + (u > v),    n = largest vertex id + 1.

The undirected pair sits in the high bits and the direction in the low bit,
so an edge and its reverse are the adjacent integers 2c and 2c + 1. An edge
with u == v is its own reverse: its key is even and 2c + 1 would need u > v.
The largest key is below 2 * n * n, so edge_keys refuses vertex ids of 2**31
and above rather than let the key wrap in int64. The keys are built in place,
one corner column at a time, and is_closed_manifold sorts them in place, so
a whole-mesh check holds one key array and a column of temporaries.

The yes/no questions read one np.sort of the keys and build no table:
closed manifold means the sorted keys are exactly the pairs (2c, 2c + 1),
every directed edge once and its reverse once (no u == v edge fits); a
repeated directed edge is two equal neighbours; a boundary edge is a key
whose partner (k ^ 1, or k itself when u == v) is missing.

SurfaceTopology is the edge table of a surface with no repeated directed
edge, whose keys are distinct, so one default sort orders them. Equal keys
raise TopologyError naming the first entry of repeated_edges, the one search
for repeated directed edges, which clearing also uses. Every key then occurs
at most once, and the table keeps only what its two methods read: faces, u,
v, n and

- twin[e]: the edge holding e's partner key, which sits next to e in the
  sorted keys when it exists (equal neighbours of the codes key >> 1); e
  itself when u == v; -1 when there is none. twin[twin[e]] == e.
- boundary: twin < 0, the directed edges whose reverse does not occur.

The sorted keys and their order end with the constructor.

On that table it does what sub-surface construction and
TriMesh.boundary_loops need: one region flood (components over twin pairs
that are not walls, labelled by hook-and-compress so region ids follow the
lowest face id), and the boundary cycles of every region of a labelling at
once. The successor of every region-boundary edge is found in one numpy
pass; the only Python loop emits the cycles and visits each boundary edge
once.

sort_runs is the one sort-and-runs pass behind every dedup, grouping and
set operation in meshbool. None calls np.unique, np.union1d or np.isin: in
numpy 2.4 the first of those that sorts imports numpy.ma (about 1 MB), inside
the process's first Boolean op.
"""
from __future__ import annotations

import numpy as np

from .errors import GeometryError, TopologyError

ID_LIMIT = 2**31  # vertex ids must stay below this for the keys to fit in int64
_NEXT_IN_FACE = np.array([1, 1, -2])  # e + _NEXT_IN_FACE[e % 3]: the next edge of e's face


def min_labels(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest node id in each node's component of the graph with edges (a[i], b[i]).

    Hook and compress: each round hooks the larger root of every edge whose
    ends still differ onto the smaller one, then pointer-jumps every node to
    its root. Labels only decrease, so the hooks never form a cycle.
    """
    label = np.arange(n, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    while len(a):
        la, lb = label[a], label[b]
        cross = la != lb
        a, b, la, lb = a[cross], b[cross], la[cross], lb[cross]
        np.minimum.at(label, np.maximum(la, lb), np.minimum(la, lb))
        while True:
            jumped = label[label]
            if np.array_equal(jumped, label):
                break
            label = jumped
    return label


def sort_runs(*cols) -> tuple[np.ndarray, np.ndarray]:
    """The stable lexicographic order of the rows whose columns are cols, the
    first column most significant, and the mask of sorted rows that start a
    run of equal rows. Columns compare by value, so -0.0 equals 0.0, and are
    gathered in sorted order one at a time. order[new] are the first rows of
    the runs in sorted order; np.cumsum(new) - 1 is each sorted row's run.
    """
    order = np.lexsort(cols[::-1])
    new = np.zeros(len(order), dtype=bool)
    new[:1] = True
    for col in cols:
        col = col[order]
        new[1:] |= col[1:] != col[:-1]
    return order, new


def pair_key(u, v, n: int):
    """Key of the directed edge (u, v) among vertex ids below n; see above.
    min * n + max is built in place as min * (n - 1) + u + v, so an array
    key needs no other integer array of its size."""
    key = np.minimum(u, v)
    key *= n - 1
    key += u
    key += v
    key *= 2
    key += u > v
    return key


def edge_keys(faces: np.ndarray) -> np.ndarray:
    """Key of every directed edge of a face array, in edge order, filled one
    corner column at a time."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    n = int(faces.max()) + 1 if len(faces) else 0
    if n > ID_LIMIT:
        raise GeometryError(f"vertex id {n - 1} too large for edge keys; ids must be below 2**31")
    keys = np.empty(faces.shape, dtype=np.int64)
    for k in range(3):
        keys[:, k] = pair_key(faces[:, k], faces[:, (k + 1) % 3], n)
    return keys.ravel()


def paired(sorted_keys: np.ndarray) -> bool:
    """True when the sorted keys are exactly the pairs (2c, 2c + 1)."""
    lo, hi = sorted_keys[0::2], sorted_keys[1::2]
    return len(lo) == len(hi) and bool(((hi - lo == 1) & (lo % 2 == 0)).all())


def repeated_edges(faces: np.ndarray) -> dict[tuple[int, int], list[int]]:
    """Repeated directed edges -> ids of the faces using them, in face order,
    edges in the order of their lowest repeat. A stable sort of the keys puts
    each run's lowest edge id first, so every later member of a run repeats it."""
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
    key = edge_keys(faces)
    srt = np.sort(key)
    if not (srt[1:] == srt[:-1]).any():
        return {}
    order, new = sort_runs(key)
    lead = np.empty_like(order)
    lead[order] = order[np.maximum.accumulate(np.where(new, np.arange(len(order)), 0))]
    bad: dict[tuple[int, int], list[int]] = {}
    for e in np.sort(order[~new]).tolist():
        edge = (int(faces.flat[e]), int(faces[e // 3, (e + 1) % 3]))
        bad.setdefault(edge, [int(lead[e]) // 3]).append(e // 3)
    return bad


class SurfaceTopology:
    """The edge table: faces, u and v by edge id, n, twin and boundary."""

    def __init__(self, faces: np.ndarray):
        self.faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
        self.u = self.faces.ravel()
        self.v = self.faces[:, [1, 2, 0]].ravel()
        self.n = int(self.faces.max()) + 1 if len(self.faces) else 0
        keys = edge_keys(self.faces)
        order = np.argsort(keys)
        keys = keys[order]
        if (keys[1:] == keys[:-1]).any():
            raise TopologyError(f"directed edge {next(iter(repeated_edges(self.faces)))} used twice")
        keys >>= 1
        i = np.nonzero(keys[1:] == keys[:-1])[0]
        del keys
        self.twin = np.full(len(order), -1, dtype=np.int64)
        self.twin[order[i]] = order[i + 1]
        self.twin[order[i + 1]] = order[i]
        own = np.nonzero(self.u == self.v)[0]  # a u == v edge is its own reverse
        self.twin[own] = own
        self.boundary = self.twin < 0

    def flood_regions(self, walls) -> np.ndarray:
        """Label faces by flooding across shared edges not listed in walls.

        walls holds undirected (min, max) vertex pairs, as a (k, 2) array or
        tuples. Every face gets a label; label order follows the lowest face id
        per region. Each twin pair is taken once, from its lower edge id e,
        and its code min * n + max is searched among the walls' sorted codes;
        a hit takes both directed edges out of the flood.
        """
        e = np.nonzero(self.twin > np.arange(len(self.twin)))[0]
        w = np.asarray(walls if isinstance(walls, np.ndarray) else list(walls), dtype=np.int64).reshape(-1, 2)
        # An id outside [0, n) would alias another pair's code.
        w = w[(w.min(axis=1) >= 0) & (w.max(axis=1) < self.n)]
        if len(w):
            c = np.sort(w[:, 0] * self.n + w[:, 1])
            code = pair_key(self.u[e], self.v[e], self.n) >> 1
            e = e[c[np.minimum(c.searchsorted(code), len(c) - 1)] != code]
            del code  # before the labels are built
        # roots: the lowest face id of each face's region; labels rank them.
        roots = min_labels(len(self.faces), e // 3, self.twin[e] // 3)
        return np.cumsum(roots == np.arange(len(roots)))[roots] - 1

    def boundary_cycles(self, labels) -> list[np.ndarray]:
        """Every region's directed boundary as closed cycles of edge ids.

        labels gives each face its region: flood_regions' output, or one
        label for the whole surface. An edge lies on its region's boundary
        when it has no twin or its twin's face has another label. Cycles come
        by region in label order; within a region a cycle starts at its
        lowest (u, v) edge and cycles come in the order of their starts. The
        successor of boundary edge (u, v) leaves v: from the next edge of its
        face, turn about v across twins while the twin's face has the same
        label. Without repeated directed edges this maps the boundary edges
        one to one onto themselves, also where the boundary passes a vertex
        more than once.
        """
        label = np.repeat(np.asarray(labels, dtype=np.int64), 3)  # per edge
        inner = np.where(self.boundary, False, label[self.twin] == label)
        ids = np.nonzero(~inner)[0]
        by_key = np.lexsort((self.v[ids], self.u[ids], label[ids]))
        edges = ids[by_key]
        own = label[edges]
        succ = edges + _NEXT_IN_FACE[edges % 3]
        turning = np.arange(len(edges))
        while len(turning):
            t = self.twin[succ[turning]]
            inside = t >= 0
            inside[inside] = label[t[inside]] == own[turning[inside]]
            turning, t = turning[inside], t[inside]
            succ[turning] = t + _NEXT_IN_FACE[t % 3]
        rank = np.empty(len(ids), dtype=np.int64)
        rank[by_key] = np.arange(len(ids))
        step = rank[ids.searchsorted(succ)].tolist()
        seen = [False] * len(edges)
        cycles = []
        for start in range(len(edges)):
            cyc = []
            i = start
            while not seen[i]:
                seen[i] = True
                cyc.append(i)
                i = step[i]
            if cyc:
                cycles.append(edges[cyc])
        return cycles
