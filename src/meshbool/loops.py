"""Chain merged intersection edges into oriented loops and classify them.

Chaining connects head to tail and never walks through a junction (a vertex
with more than two incident intersection edges); chains terminate there.
Kinds: open (an endpoint of edge-degree one, typically on a surface
boundary), hard_closed (a plain cycle, every vertex degree two) and
soft_closed (a chain whose two terminal vertices are junctions; the
terminals coincide when the curve network pinches at a single point).
Completed loops stitch open loops with pieces of an open surface's outer
boundary, which is what lets sub-surfaces grow on open inputs.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import TopologyError
from .geometry import TriMesh
from .halfedge import SurfaceTopology

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
    for u, v in map(tuple, edges):
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
    for ei, (u, v) in enumerate(map(tuple, edges)):
        incident.setdefault(u, []).append(ei)
        incident.setdefault(v, []).append(ei)
    for lst in incident.values():
        lst.sort()

    used = np.zeros(len(edges), dtype=bool)
    loops: list[OrientedLoop] = []

    def other(ei, v):
        u, w = edges[ei]
        return int(w) if int(u) == v else int(u)

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
        start = int(edges[ei].min())
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


def close_open_loops_on_boundary(
    loops: list[OrientedLoop], surface: TriMesh, next_id: int = 0
) -> tuple[list[OrientedLoop], list[DanglingLoop]]:
    """Stitch open loops with the surface's boundary into closed cycles.

    The boundary is split at the open loops' endpoints and concatenated with
    them, yielding one completed loop per sub-surface-to-be. Open loops with
    an endpoint away from the boundary are reported as dangling and excluded.
    """
    topo = SurfaceTopology(surface.faces)
    boundary_verts = set(topo.u[topo.boundary].tolist())

    dangling: list[DanglingLoop] = []
    walls: list[tuple[int, int]] = []
    for lp in loops:
        if lp.kind == OPEN:
            ends = (lp.verts[0], lp.verts[-1])
            if not all(v in boundary_verts for v in ends):
                dangling.append(DanglingLoop(lp.id, ends))
                log.warning("loop %d dangles at %s; excluded from completion", lp.id, ends)
                continue
        walls.extend((u, v) if u < v else (v, u) for u, v in lp.vertex_pairs)

    labels = topo.flood_regions(walls)
    completed: list[OrientedLoop] = []
    for rid in range(int(labels.max()) + 1 if len(labels) else 0):
        member = np.nonzero(labels == rid)[0]
        for cyc in topo.boundary_cycles(member):
            if topo.boundary[cyc].any():
                completed.append(OrientedLoop(next_id + len(completed), topo.u[cyc].tolist(), COMPLETED))
    return completed, dangling
