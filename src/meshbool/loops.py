"""Chain merged intersection edges into oriented loops and classify them.

Chaining connects head to tail and never walks through a junction (a vertex
with more than two incident intersection edges); chains terminate there.
Kinds: open (an endpoint of edge-degree one, typically on a surface
boundary), hard_closed (a plain cycle, every vertex degree two) and
soft_closed (a chain whose two terminal vertices are junctions; the
terminals coincide when the curve network pinches at a single point).
Completed loops stitch open loops with pieces of an open surface's outer
boundary. They are not chained here: they are the boundary cycles of the
open surface's sub-surfaces that run along that boundary, read from the
one region pass of subsurfaces.build_subsurfaces.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import TopologyError

log = logging.getLogger(__name__)

OPEN = "open"
HARD_CLOSED = "hard_closed"
SOFT_CLOSED = "soft_closed"
COMPLETED = "completed"


@dataclass
class OrientedLoop:
    id: int
    verts: list[int]
    kind: str
    edges: list[int] = field(default_factory=list)

    @property
    def is_closed(self) -> bool:
        return self.kind != OPEN

    @property
    def vertex_pairs(self) -> list[tuple[int, int]]:
        if self.kind == HARD_CLOSED:
            return [
                (self.verts[i], self.verts[(i + 1) % len(self.verts)])
                for i in range(len(self.verts))
            ]
        return list(zip(self.verts, self.verts[1:]))


@dataclass
class DanglingLoop:
    loop_id: int
    endpoints: tuple[int, int]


def vertex_degrees(edges: np.ndarray) -> dict[int, int]:
    deg: dict[int, int] = {}
    for u, v in np.asarray(edges).reshape(-1, 2).tolist():
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return deg


def build_loops(edges: np.ndarray) -> list[OrientedLoop]:
    """Partition the intersection edges into oriented loops.

    Every edge lands in exactly one loop. Loops start at a canonical vertex
    (lowest index rules) so repeated runs produce identical output.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    deg = vertex_degrees(edges)
    incident: dict[int, list[int]] = {}
    pairs = edges.tolist()
    for ei, (u, v) in enumerate(pairs):
        incident.setdefault(u, []).append(ei)
        incident.setdefault(v, []).append(ei)
    for lst in incident.values():
        lst.sort()

    used = np.zeros(len(edges), dtype=bool)
    loops: list[OrientedLoop] = []

    def other(ei, v):
        u, w = pairs[ei]
        return w if u == v else u

    def walk(start_vertex, first_edge):
        verts = [start_vertex]
        eids = []
        v, ei = start_vertex, first_edge
        while True:
            used[ei] = True
            eids.append(ei)
            v = other(ei, v)
            verts.append(v)
            if deg[v] != 2:
                break
            nxt = [e for e in incident[v] if not used[e]]
            if not nxt:
                break
            ei = nxt[0]
        return verts, eids

    terminals = sorted(v for v, d in deg.items() if d != 2)
    for tv in terminals:
        for ei in incident[tv]:
            if used[ei]:
                continue
            verts, eids = walk(tv, ei)
            loops.append(_make_loop(len(loops), verts, eids, deg, closed=False))

    # Remaining edges belong to pure cycles (every vertex degree two).
    for ei in range(len(edges)):
        if used[ei]:
            continue
        start = min(pairs[ei])
        first = [e for e in incident[start] if not used[e]][0]
        verts, eids = walk(start, first)
        if verts[0] != verts[-1]:
            raise TopologyError(f"degree-2 chain did not close at vertex {verts[-1]}")
        loops.append(_make_loop(len(loops), verts[:-1], eids, deg, closed=True))
    return loops


def _make_loop(lid, verts, eids, deg, closed):
    if closed:
        # canonical start: lowest vertex, direction toward its smaller neighbour
        k = int(np.argmin(verts))
        verts = verts[k:] + verts[:k]
        eids = eids[k:] + eids[:k]
        if len(verts) > 2 and verts[-1] < verts[1]:
            verts = [verts[0]] + verts[:0:-1]
            eids = eids[::-1]
        return OrientedLoop(lid, verts, HARD_CLOSED, eids)
    fwd = (verts[0], verts[1] if len(verts) > 1 else verts[0])
    rev = (verts[-1], verts[-2] if len(verts) > 1 else verts[-1])
    if fwd > rev:
        verts = verts[::-1]
        eids = eids[::-1]
    kind = OPEN if deg[verts[0]] == 1 or deg[verts[-1]] == 1 else SOFT_CLOSED
    return OrientedLoop(lid, verts, kind, eids)


def loop_edge_map(loops) -> dict[tuple[int, int], tuple[int, int]]:
    """Map undirected vertex pair -> (loop id, +1 if loop runs min->max)."""
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for lp in loops:
        for u, v in lp.vertex_pairs:
            key = (u, v) if u < v else (v, u)
            if key in out:
                raise TopologyError(f"edge {key} appears in two loops")
            out[key] = (lp.id, 1 if u < v else -1)
    return out


def complete_open_loops(loops, surfs, next_id: int) -> tuple[list[OrientedLoop], list[DanglingLoop]]:
    """Completed and dangling loops of one open surface, from its sub-surfaces.

    An open loop with an end off the surface boundary (the rims of surfs)
    dangles and is reported with a warning. A loop that ends free inside
    the surface separates no regions, so no cycle runs along it. The
    completed loops are the boundary loops of surfs, the cycles that stitch
    open loops with pieces of the surface's boundary, in sub-surface order
    and numbered from next_id.
    """
    rim = set().union(*(s.rim for s in surfs))
    dangling: list[DanglingLoop] = []
    for lp in loops:
        ends = (lp.verts[0], lp.verts[-1])
        if lp.kind == OPEN and not all(v in rim for v in ends):
            dangling.append(DanglingLoop(lp.id, ends))
            log.warning("loop %d dangles at %s; excluded from completion", lp.id, ends)
    cycles = [verts for s in surfs for verts in s.boundary_loops]
    completed = [OrientedLoop(next_id + i, verts, COMPLETED) for i, verts in enumerate(cycles)]
    return completed, dangling
