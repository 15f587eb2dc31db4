"""Partition each surface into sub-surfaces along the loops.

A sub-surface is a maximal triangle region that never crosses an
intersection loop. build_subsurfaces builds one edge table per merged
surface, floods it once across every shared edge that is not a merged
intersection edge (the walls, which the loops partition), so each region is
one sub-surface and the regions partition the surface's faces, and reads
every region's boundary cycles from one boundary_cycles call. Ids follow the
surface (A first) and, within it, the lowest face id of each region. The
cycles give each region its owners: an entry (loop, +1) means the region's
own directed boundary runs along the loop's stored direction; the region
across the loop carries -1. A cycle that runs along the surface's own
boundary is one of the region's boundary loops, which
loops.complete_open_loops turns into completed loops.

cycles counts connected boundary cycles, not raw owner entries: a region
whose boundary chains several loop arcs through junction vertices into one
closed curve has one cycle.

On a connected closed surface of Euler characteristic 2 the region count is
exact: the loops' edge graph, with E edges, V vertices and c components, cuts
a sphere into 1 + E - V + c regions. A partition that disagrees raises
TopologyError; other genus, such as a torus, is not checked.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import TopologyError
from .halfedge import SurfaceTopology, min_labels
from .merge import MergedState


@dataclass
class SubSurface:
    id: int
    source: str
    triangles: np.ndarray                    # face ids into MergedState.faces
    owners: list = field(default_factory=list)   # (loop id, sign) entries
    cycles: int = 0                          # connected boundary cycles
    boundary_loops: list = field(default_factory=list)  # vertex lists of cycles along the surface boundary
    rim: set = field(default_factory=set)    # start vertices of its surface-boundary edges

    @property
    def has_boundary_loop(self) -> bool:
        return bool(self.boundary_loops)


def _region_subsurface(topo: SurfaceTopology, tag: str, cycles, triangles, ss_id, loops, edge_map) -> SubSurface:
    """Assemble one SubSurface record from its region's boundary cycles."""
    ss = SubSurface(id=ss_id, source=tag, triangles=triangles, cycles=len(cycles))
    owners: dict[tuple[int, int], int] = {}
    for cyc in cycles:
        us = topo.u[cyc].tolist()
        on_boundary = topo.boundary[cyc].tolist()
        if any(on_boundary):
            ss.boundary_loops.append(us)
        for u, v, rim in zip(us, topo.v[cyc].tolist(), on_boundary):
            if rim:
                ss.rim.add(u)
                continue
            key = (u, v) if u < v else (v, u)
            hit = edge_map.get(key)
            if hit is None:
                raise TopologyError(f"surface {tag}: region boundary crosses interior edge {key}")
            loop_id, stored_dir = hit
            sign = 1 if (1 if u < v else -1) == stored_dir else -1
            owners[(loop_id, sign)] = owners.get((loop_id, sign), 0) + 1
    for (loop_id, sign), count in owners.items():
        expect = len(loops[loop_id].edges)
        if count != expect:
            raise TopologyError(f"surface {tag}: region traverses {count}/{expect} edges of loop {loop_id}")
    ss.owners = sorted(owners)
    return ss


def _check_region_count(topo: SurfaceTopology, tag: str, surfs: list[SubSurface], ends: np.ndarray):
    """Raise unless a connected closed genus-0 surface has 1 + E - V + c regions."""
    used = np.zeros(topo.n, dtype=bool)
    used[topo.faces] = True
    if int(used.sum()) - len(topo.faces) // 2 != 2:  # V - E + F with E = 3F/2
        return
    side = {key: i for i, s in enumerate(surfs) for key in s.owners}
    links = [(i, side[(lp, -1)]) for (lp, sign), i in side.items() if sign == 1 and (lp, -1) in side]
    a, b = np.asarray(links, dtype=np.int64).reshape(-1, 2).T
    if min_labels(len(surfs), a, b).any():  # the regions do not join into one surface
        return
    verts, pairs = np.unique(ends, return_inverse=True)
    joined = min_labels(len(verts), *pairs.reshape(-1, 2).T)
    expect = 1 + len(ends) - len(verts) + int((joined == np.arange(len(verts))).sum())
    if len(surfs) != expect:
        raise TopologyError(
            f"surface {tag}: {len(surfs)} sub-surfaces where its loops cut a sphere into {expect}"
        )


def _surface_subsurfaces(state: MergedState, source: int, first_id: int, loops, edge_map) -> list[SubSurface]:
    """One merged surface's sub-surfaces from one edge table, flood and cycle pass.

    A function of its own so that the surface's table is freed before the
    next surface's is built.
    """
    tag = "AB"[source]
    face_ids = state.surface_face_ids(source)
    topo = SurfaceTopology(state.faces[face_ids])
    labels = topo.flood_regions(state.edges)
    per_region = [[] for _ in range(int(labels.max()) + 1 if len(labels) else 0)]
    for cyc in topo.boundary_cycles(labels):
        per_region[labels[cyc[0] // 3]].append(cyc)
    members = np.split(face_ids[np.argsort(labels, kind="stable")], np.cumsum(np.bincount(labels))[:-1])
    surfs = [
        _region_subsurface(topo, tag, cycles, triangles, first_id + i, loops, edge_map)
        for i, (cycles, triangles) in enumerate(zip(per_region, members))
    ]
    if len(topo.faces) and not topo.boundary.any():
        _check_region_count(topo, tag, surfs, state.edges)
    return surfs


def build_subsurfaces(state: MergedState, loops, edge_map) -> list[SubSurface]:
    """Partition both surfaces into sub-surfaces along the merged edges;
    edge_map (loops.loop_edge_map) names the loop of each."""
    out: list[SubSurface] = []
    for source in (0, 1):
        out.extend(_surface_subsurfaces(state, source, len(out), loops, edge_map))
    return out
