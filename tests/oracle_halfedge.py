"""The edge table as it was before edges were keyed by their undirected pair:
a verbatim copy of the old meshbool.halfedge, kept as the differential oracle
for the new one.

Its EdgeTable sorts the keys u*n + v and finds every twin with a searchsorted
of the reversed keys; SurfaceTopology walks region boundaries in Python, one
face_of lookup per fan step.
"""
from __future__ import annotations

import numpy as np

from meshbool.errors import TopologyError


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


class EdgeTable:
    def __init__(self, faces: np.ndarray):
        self.faces = np.asarray(faces, dtype=np.int64).reshape(-1, 3)
        self.u = self.faces.ravel()
        self.v = self.faces[:, [1, 2, 0]].ravel()
        self.n = int(self.faces.max()) + 1 if len(self.faces) else 0
        key = self.u * self.n + self.v
        self.order = np.argsort(key, kind="stable")
        self.keys = key[self.order]
        run_start = np.ones(len(key), dtype=bool)
        run_start[1:] = self.keys[1:] != self.keys[:-1]
        self.first = np.empty_like(self.order)
        self.first[self.order] = self.order[run_start][np.cumsum(run_start) - 1]
        reverse = self.v * self.n + self.u
        pos = np.minimum(self.keys.searchsorted(reverse), len(key) - 1)
        self.twin = np.where(self.keys[pos] == reverse, self.order[pos], -1)
        self.boundary = self.twin < 0
        self.duplicate = self.first != np.arange(len(key))

    def face_of(self, u: int, v: int) -> int | None:
        """Face holding the directed edge (u, v), None when there is none."""
        if not (0 <= u < self.n and 0 <= v < self.n):
            return None
        key = u * self.n + v
        pos = int(self.keys.searchsorted(key))
        if pos == len(self.keys) or self.keys[pos] != key:
            return None
        return int(self.order[pos]) // 3

    def faces_on(self, u: int, v: int) -> np.ndarray:
        """Faces using the edge {u, v} in either direction, once per use, in face order."""
        keys = sorted({u * self.n + v, v * self.n + u})
        lo = self.keys.searchsorted(keys)
        hi = self.keys.searchsorted(keys, side="right")
        return np.sort(np.concatenate([self.order[s:e] for s, e in zip(lo, hi)])) // 3


class SurfaceTopology(EdgeTable):
    def __init__(self, faces: np.ndarray):
        super().__init__(faces)
        if self.duplicate.any():
            e = int(np.argmax(self.duplicate))
            raise TopologyError(f"directed edge {(int(self.u[e]), int(self.v[e]))} used twice")

    def third(self, fi: int, u: int, v: int) -> int:
        a, b, c = self.faces[fi]
        for x in (a, b, c):
            if x != u and x != v:
                return int(x)
        raise TopologyError(f"face {fi} is degenerate")

    def _region_roots(self, walls) -> np.ndarray:
        """Lowest face id of each face's region; regions never cross walls."""
        e = np.nonzero(~self.boundary)[0]
        w = np.asarray(list(walls), dtype=np.int64).reshape(-1, 2)
        w = w[(w.min(axis=1) >= 0) & (w.max(axis=1) < self.n)]
        if len(w):
            u, v = self.u[e], self.v[e]
            crossed = np.minimum(u, v) * self.n + np.maximum(u, v)
            e = e[~np.isin(crossed, w[:, 0] * self.n + w[:, 1])]
        return min_labels(len(self.faces), e // 3, self.twin[e] // 3)

    def flood_regions(self, walls) -> np.ndarray:
        """Label faces by flooding across shared edges not listed in walls.

        walls holds undirected vertex pairs as (min, max) tuples. Every face
        gets a label; label order follows the lowest face id per region.
        """
        return np.unique(self._region_roots(walls), return_inverse=True)[1]

    def flood_from(self, seeds, walls) -> np.ndarray:
        """Faces reachable from the seed faces without crossing walls."""
        roots = self._region_roots(walls)
        return np.nonzero(np.isin(roots, roots[np.asarray(seeds, dtype=np.int64)]))[0]

    def region_boundary(self, member: np.ndarray) -> list[tuple[int, int]]:
        """Directed edges of member faces whose twin lies outside the set."""
        flags = np.zeros(len(self.faces), dtype=bool)
        flags[np.asarray(member, dtype=np.int64)] = True
        across = np.where(self.boundary, False, flags[self.twin // 3])
        mask = np.repeat(flags, 3) & ~across
        return list(zip(self.u[mask].tolist(), self.v[mask].tolist()))

    def next_boundary_edge(self, u: int, v: int, in_region) -> tuple[int, int]:
        """Fan-walk around v inside the region to the successor boundary edge."""
        fi = self.face_of(u, v)
        w = self.third(fi, u, v)
        while True:
            g = self.face_of(w, v)
            if g is None or not in_region(g):
                return (v, w)
            w = self.third(g, w, v)

    def boundary_cycles(self, member: np.ndarray) -> list[list[tuple[int, int]]]:
        """Decompose a face set's directed boundary into closed edge cycles."""
        flags = np.zeros(len(self.faces), dtype=bool)
        flags[member] = True

        def in_region(g):
            return bool(flags[g])

        edges = sorted(self.region_boundary(np.asarray(member)))
        unused = set(edges)
        cycles = []
        for start in edges:
            if start not in unused:
                continue
            cyc = [start]
            unused.discard(start)
            cur = self.next_boundary_edge(start[0], start[1], in_region)
            guard = 0
            while cur != start:
                if cur not in unused:
                    raise TopologyError(f"boundary walk left the region at edge {cur}")
                cyc.append(cur)
                unused.discard(cur)
                cur = self.next_boundary_edge(cur[0], cur[1], in_region)
                guard += 1
                if guard > 4 * len(self.faces) + 16:
                    raise TopologyError("boundary walk did not close")
            cycles.append(cyc)
        return cycles
