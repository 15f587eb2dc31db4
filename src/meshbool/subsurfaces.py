"""Partition each surface into sub-surfaces along the loops; classify them.

A sub-surface is a maximal triangle region that never crosses an
intersection loop. build_subsurfaces floods each merged surface once, across
every shared edge that is not a loop edge (the walls), so each region is one
sub-surface and the regions partition the surface's faces; ids follow the
surface (A first) and, within it, the lowest face id of each region. The
region's boundary cycles give its owners: an entry (loop, +1) means the
region's own directed boundary runs along the loop's stored direction; the
region across the loop carries -1.

Public/private counts connected boundary cycles, not raw owner entries: a
region whose boundary chains several loop arcs through junction vertices
into one closed curve is still private.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import TopologyError
from .halfedge import SurfaceTopology
from .merge import MergedState

log = logging.getLogger(__name__)


@dataclass
class SubSurface:
    id: int
    source: str
    triangles: np.ndarray                    # face ids into MergedState.faces
    owners: list = field(default_factory=list)   # (loop id, sign) entries
    cycles: int = 0                          # connected boundary cycles
    has_boundary_loop: bool = False
    is_public: bool = False

    @property
    def key(self) -> frozenset:
        return frozenset(int(t) for t in self.triangles)


class _SurfaceData:
    """Per-surface topology plus the loop-edge map, whose keys are the walls."""

    def __init__(self, state: MergedState, source: int, edge_map):
        self.source = source
        self.tag = "A" if source == 0 else "B"
        self.face_ids = state.surface_face_ids(source)
        self.topo = SurfaceTopology(state.faces[self.face_ids])
        self.edge_map = edge_map


def _region_subsurface(data: _SurfaceData, member_local, ss_id, loops) -> SubSurface:
    """Assemble one SubSurface record from a local face-id set."""
    topo = data.topo
    cycles = topo.boundary_cycles(member_local)
    owners: dict[tuple[int, int], int] = {}
    has_boundary = False
    for cyc in cycles:
        for u, v, on_boundary in zip(topo.u[cyc].tolist(), topo.v[cyc].tolist(), topo.boundary[cyc].tolist()):
            if on_boundary:
                has_boundary = True
                continue
            key = (u, v) if u < v else (v, u)
            hit = data.edge_map.get(key)
            if hit is None:
                raise TopologyError(
                    f"surface {data.tag}: region boundary crosses interior edge {key}"
                )
            loop_id, stored_dir = hit
            sign = 1 if (1 if u < v else -1) == stored_dir else -1
            owners[(loop_id, sign)] = owners.get((loop_id, sign), 0) + 1
    for (loop_id, sign), count in owners.items():
        expect = len(loops[loop_id].vertex_pairs)
        if count != expect:
            raise TopologyError(
                f"surface {data.tag}: region traverses {count}/{expect} edges of loop {loop_id}"
            )
    ss = SubSurface(
        id=ss_id,
        source=data.tag,
        triangles=data.face_ids[np.sort(np.asarray(member_local, dtype=np.int64))],
        owners=sorted(owners),
        cycles=len(cycles),
        has_boundary_loop=has_boundary,
    )
    return ss


def build_subsurfaces(state: MergedState, loops, edge_map) -> list[SubSurface]:
    """Partition both surfaces into sub-surfaces along the loop walls."""
    out: list[SubSurface] = []
    for source in (0, 1):
        data = _SurfaceData(state, source, edge_map)
        labels = data.topo.flood_regions(data.edge_map)
        for rid in range(int(labels.max()) + 1 if len(labels) else 0):
            member = np.nonzero(labels == rid)[0]
            out.append(_region_subsurface(data, member, len(out), loops))
    return classify_subsurfaces(out)


def classify_subsurfaces(surfs: list[SubSurface]) -> list[SubSurface]:
    """Mark public sub-surfaces and sanity-check the per-surface counts.

    On sphere-like surfaces at most one sub-surface is public; toroidal
    surfaces cut by non-separating loops legitimately exceed that, so the
    violation is logged as a warning, not raised.
    """
    for tag in ("A", "B"):
        publics = []
        for s in surfs:
            if s.source != tag:
                continue
            s.is_public = s.cycles >= 2
            if s.is_public:
                publics.append(s.id)
        if len(publics) > 1:
            msg = f"surface {tag} has {len(publics)} public sub-surfaces: {publics}"
            log.warning("%s (expected at most one on sphere-like surfaces)", msg)
    return surfs
