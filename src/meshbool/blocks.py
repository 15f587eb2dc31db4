"""Assemble sub-blocks from sub-surfaces and tell the Boolean results apart.

A block is found by closure: pick a seed sub-surface and a matching rule,
then for every owner loop attach the sub-surface from the other original
surface that traverses the loop with the required sign. Opposite signs on
the two sides of a loop mean the block is a union-or-intersection candidate;
equal signs mean a subtraction. The closure may use a sub-surface in one
candidate block and one subtraction block (twice in total); sub-surfaces
carrying a piece of an open surface's outer boundary can never close and are
skipped. The union is the unique candidate holding all six extreme vertices;
remaining candidates are intersection volumes, and subtraction blocks are
attributed by which outer/inner sub-surfaces they contain, with inner ones
winding-reversed in the output.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import AssemblyError, ClassificationError, CoincidentInput, TopologyError
from .geometry import (BLOCK, MERGE_TOL_REL, PLANE_TOL_REL, TriMesh, compact_submesh, is_closed_manifold,
                       scene_scale, signed_volume)
from .halfedge import sort_runs
from .merge import MergedState, merge_vertices

log = logging.getLogger(__name__)

UNION = "union"
INTERSECTION = "intersection"
A_MINUS_B = "a_minus_b"
B_MINUS_A = "b_minus_a"
UNCLASSIFIED = "unclassified"

CASE_OPPOSITE = 1  # union or intersection (Step 1 case 1)
CASE_SAME = 2      # subtraction (Step 1 case 2)


@dataclass
class SubBlock:
    id: int
    surfaces: list[int]
    case: int
    label: str = UNCLASSIFIED


@dataclass
class BooleanResult:
    union: list[TriMesh] = field(default_factory=list)
    intersection: list[TriMesh] = field(default_factory=list)
    a_minus_b: list[TriMesh] = field(default_factory=list)
    b_minus_a: list[TriMesh] = field(default_factory=list)

    def by_label(self, label: str) -> list[TriMesh]:
        return getattr(self, label)

    def all_meshes(self):
        return self.union + self.intersection + self.a_minus_b + self.b_minus_a


def assemble_blocks(surfs, loops) -> list[SubBlock]:
    """Enumerate closed sub-blocks; each seed is closed under loop matching."""
    by_id = {s.id: s for s in surfs}
    own: dict[tuple[str, int, int], int] = {}
    for s in surfs:
        for lp, sg in s.owners:
            key = (s.source, lp, sg)
            if key in own:
                raise TopologyError(f"sub-surfaces {own[key]} and {s.id} both own {key}")
            own[key] = s.id

    def closure(seed, case):
        members = {seed.id}
        stack = [seed.id]
        while stack:
            s = by_id[stack.pop()]
            other = "B" if s.source == "A" else "A"
            for lp, sg in s.owners:
                need = -sg if case == CASE_OPPOSITE else sg
                pid = own.get((other, lp, need))
                if pid is None:
                    raise AssemblyError(
                        f"no sub-surface of {other} owns loop {lp} with sign {need:+d}"
                    )
                if by_id[pid].has_boundary_loop:
                    return None  # boundary-carrying partner: block cannot close
                if pid not in members:
                    members.add(pid)
                    stack.append(pid)
        return members

    blocks: list[SubBlock] = []
    seen: dict[frozenset, int] = {}
    for seed in sorted(surfs, key=lambda s: s.id):
        if seed.has_boundary_loop or not seed.owners:
            continue
        for case in (CASE_OPPOSITE, CASE_SAME):
            members = closure(seed, case)
            if members is None:
                continue
            key = frozenset(members)
            if key in seen:
                if seen[key] != case:
                    raise TopologyError(f"block {sorted(members)} matches under both cases")
                continue
            seen[key] = case
            blocks.append(SubBlock(len(blocks), sorted(members), case))

    use = {}
    for blk in blocks:
        for sid in blk.surfaces:
            use[sid] = use.get(sid, 0) + 1
    over = [sid for sid, n in use.items() if n > 2]
    if over:
        raise TopologyError(f"sub-surfaces used more than twice: {over}")
    return blocks


def classify_non_subtraction(blocks, surfs) -> tuple[list[SubBlock], list[SubBlock]]:
    """Validate per-loop sign agreement and split candidates vs subtractions."""
    by_id = {s.id: s for s in surfs}
    candidates, subtractions = [], []
    for blk in blocks:
        verdicts = set()
        per_loop: dict[int, dict[str, list[int]]] = {}
        for sid in blk.surfaces:
            s = by_id[sid]
            for lp, sg in s.owners:
                per_loop.setdefault(lp, {"A": [], "B": []})[s.source].append(sg)
        for lp, sides in per_loop.items():
            if len(sides["A"]) != len(sides["B"]):
                raise TopologyError(
                    f"block {blk.id}: loop {lp} pairs {len(sides['A'])} A-sides "
                    f"with {len(sides['B'])} B-sides"
                )
            for sa in sides["A"]:
                verdicts.add(CASE_OPPOSITE if -sa in sides["B"] else CASE_SAME)
        if len(verdicts) > 1:
            raise TopologyError(f"block {blk.id}: loops disagree on case classification")
        if verdicts and verdicts != {blk.case}:
            raise TopologyError(f"block {blk.id}: stored case {blk.case} contradicts owners")
        (candidates if blk.case == CASE_OPPOSITE else subtractions).append(blk)
    return candidates, subtractions


def extract_block_mesh(
    blk: SubBlock, state: MergedState, surfs, reverse_ids=frozenset(), name=""
) -> TriMesh:
    by_id = {s.id: s for s in surfs}
    rows = []
    for sid in blk.surfaces:
        faces = state.faces[by_id[sid].triangles]
        rows.append(faces[:, ::-1] if sid in reverse_ids else faces)
    faces = np.concatenate(rows, axis=0)
    del rows  # the parts end before the renumbered copy is made
    return compact_submesh(state.vertices, faces, source="R", name=name)


def pick_union(candidates, state: MergedState, surfs) -> tuple[SubBlock, list[SubBlock]]:
    """Select the union among case-1 blocks via the stored extreme vertices."""
    if not candidates:
        raise ClassificationError("no union/intersection candidate block")
    by_id = {s.id: s for s in surfs}

    def attains(blk):
        used = np.zeros(len(state.vertices), dtype=bool)
        for sid in blk.surfaces:
            used[state.faces[by_id[sid].triangles]] = True
        return bool(used[state.extrema].all())

    attaining = [blk for blk in candidates if attains(blk)]
    if len(attaining) == 1:
        union = attaining[0]
    elif not attaining:
        raise ClassificationError("no candidate block attains the global extrema")
    else:
        log.warning("extrema test ambiguous (%d blocks); falling back to volume", len(attaining))
        union = max(
            attaining,
            key=lambda blk: signed_volume(extract_block_mesh(blk, state, surfs)),
        )
    rest = [blk for blk in candidates if blk is not union]
    union.label = UNION
    for blk in rest:
        blk.label = INTERSECTION
    return union, rest


def classify_subtractions(
    blocks, union_blk, inter_blks, state: MergedState, surfs
) -> BooleanResult:
    """Label subtraction blocks via outer/inner membership and build meshes."""
    outer = set(union_blk.surfaces)
    inner: set[int] = set()
    for blk in inter_blks:
        inner.update(blk.surfaces)
    by_id = {s.id: s for s in surfs}

    result = BooleanResult()
    result.union.append(_validated(extract_block_mesh(union_blk, state, surfs, name=UNION)))
    for blk in inter_blks:
        result.intersection.append(
            _validated(extract_block_mesh(blk, state, surfs, name=INTERSECTION))
        )

    for blk in blocks:
        if blk.case != CASE_SAME:
            continue
        votes = set()
        for sid in blk.surfaces:
            src = by_id[sid].source
            if sid in outer:
                votes.add(A_MINUS_B if src == "A" else B_MINUS_A)
            if sid in inner:
                votes.add(B_MINUS_A if src == "A" else A_MINUS_B)
        if len(votes) != 1:
            raise ClassificationError(
                f"block {blk.id}: outer/inner membership gives verdicts {sorted(votes)}"
            )
        blk.label = votes.pop()
        reverse = {sid for sid in blk.surfaces if sid in inner}
        mesh = extract_block_mesh(blk, state, surfs, reverse_ids=reverse, name=blk.label)
        result.by_label(blk.label).append(_validated(mesh))
    return result


def _validated(mesh: TriMesh) -> TriMesh:
    if not is_closed_manifold(mesh):
        raise ClassificationError(f"output mesh {mesh.name!r} is not a closed manifold")
    mesh._closed = True  # a closed manifold has faces and no boundary edge
    if signed_volume(mesh) <= 0:
        raise ClassificationError(f"output mesh {mesh.name!r} is not outward-oriented")
    return mesh


# ---------------------------------------------------------------------------
# Trivial-case preprocessing (disjoint, containment, coincident)
# ---------------------------------------------------------------------------


def combine_meshes(meshes) -> TriMesh:
    """Parts share no vertex: closed when each is known closed, else unknown."""
    offsets = np.cumsum([0] + [m.num_vertices for m in meshes])
    faces = np.concatenate([m.faces + offset for m, offset in zip(meshes, offsets)])
    closed = True if all(m._closed for m in meshes) else None
    return TriMesh(np.concatenate([m.vertices for m in meshes]), faces, source="R", _closed=closed)


def meshes_coincident(a: TriMesh, b: TriMesh, tol: float) -> bool:
    if a.num_vertices != b.num_vertices or a.num_faces != b.num_faces:
        return False
    # Weld clusters lie within tol of their first point, so coincident
    # meshes have boxes of referenced vertices less than 2 tol apart.
    referenced = []
    for m in (a, b):
        used = np.zeros(m.num_vertices, dtype=bool)
        used[m.faces.ravel()] = True
        referenced.append(m.vertices[used])
    lo_a, lo_b = (p.min(axis=0, initial=np.inf) for p in referenced)
    hi_a, hi_b = (p.max(axis=0, initial=-np.inf) for p in referenced)
    if (np.abs(lo_a - lo_b) > 2 * tol).any() or (np.abs(hi_a - hi_b) > 2 * tol).any():
        return False
    raw = np.concatenate([a.vertices, b.vertices])
    merged, remap = merge_vertices(raw, tol)
    if len(merged) != a.num_vertices:
        return False

    def canon(faces, offset):
        """Welded faces rotated to start at their smallest index, as a set."""
        t = remap[faces + offset]
        turn = (np.argmin(t, axis=1)[:, None] + np.arange(3)) % 3
        t = np.take_along_axis(t, turn, axis=1)
        order, new = sort_runs(*t.T)
        return t[order[new]]

    return np.array_equal(canon(a.faces, 0), canon(b.faces, a.num_vertices))


_RAY_DIRS = np.array(
    [
        [0.57735026918962584, 0.57735026918962584, 0.57735026918962584],
        [0.85065080835203999, 0.52573111211913359, 0.0],
        [0.0, 0.85065080835203999, 0.52573111211913359],
        [0.52573111211913359, 0.0, 0.85065080835203999],
    ]
)


def _ray_parity(origin, direction, tris, scale):
    v0 = tris[:, 0]
    e1 = tris[:, 1] - v0
    e2 = tris[:, 2] - v0
    h = np.cross(direction, e2)
    det = np.einsum("ij,ij->i", e1, h)
    parallel = np.abs(det) < 1e-14 * scale * scale
    safe = np.where(parallel, 1.0, det)
    s = origin - v0
    u = np.einsum("ij,ij->i", s, h) / safe
    q = np.cross(s, e1)
    v = np.einsum("ij,j->i", q, direction) / safe
    t = np.einsum("ij,ij->i", q, e2) / safe
    eps_b = 1e-9
    eps_t = 1e-12 * scale
    strict = (~parallel) & (t > eps_t) & (u > eps_b) & (v > eps_b) & (u + v < 1 - eps_b)
    loose = (~parallel) & (t > -eps_t) & (u > -eps_b) & (v > -eps_b) & (u + v < 1 + eps_b)
    ambiguous = (loose & ~strict).any()
    return int(strict.sum()), bool(ambiguous)


def point_in_closed_mesh(point, mesh: TriMesh, max_retries: int = 32) -> bool:
    """Ray-parity containment with perturbation retries on grazing hits. A
    ray meets one block of BLOCK faces' corners at a time; the crossings are
    summed, and a grazing hit in any block retries with the next ray."""
    point = np.asarray(point, dtype=np.float64)
    # The bounding extent, as for the pipeline's tolerances: no change under translation.
    scale = max(float(np.ptp(c)) for c in mesh.vertices.T)
    rng = np.random.default_rng(20240811)
    for attempt in range(max_retries):
        if attempt < len(_RAY_DIRS):
            d = _RAY_DIRS[attempt]
        else:
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
        hits = [_ray_parity(point, d, mesh.vertices[mesh.faces[start:start + BLOCK]], scale)
                for start in range(0, mesh.num_faces, BLOCK)]
        if not any(ambiguous for _, ambiguous in hits):
            return sum(count for count, _ in hits) % 2 == 1
    raise ClassificationError("containment ray test kept grazing the surface")


def trivial_from_no_crossing(a: TriMesh, b: TriMesh) -> BooleanResult:
    """Results when the surfaces provably do not intersect (closed inputs)."""
    # Probe face 0's centroid: not a stray STL vertex, nor a corner touching the other surface.
    a_in_b = point_in_closed_mesh(a.vertices[a.faces[0]].mean(axis=0), b)
    b_in_a = point_in_closed_mesh(b.vertices[b.faces[0]].mean(axis=0), a)
    res = BooleanResult()
    if a_in_b and b_in_a:
        raise ClassificationError("mutual containment without intersection")
    if a_in_b:
        res.union = [b]
        res.intersection = [a]
        res.b_minus_a = [combine_meshes([b, a.reversed()])]
    elif b_in_a:
        res.union = [a]
        res.intersection = [b]
        res.a_minus_b = [combine_meshes([a, b.reversed()])]
    else:
        res.union = [a, b]
        res.a_minus_b = [a]
        res.b_minus_a = [b]
    return res


def preprocess_trivial_cases(
    a: TriMesh, b: TriMesh, merge_tol: float | None = None, plane_tol: float | None = None
):
    """Return a BooleanResult for coincident/disjoint/contained inputs.

    Returns None when the surfaces genuinely cross and the full pipeline is
    needed. Raises CoincidentInput for equal solids, which the distinguishing
    step cannot handle by design. Omitted tolerances follow the pipeline's
    rule: a fixed fraction of the scene scale.
    """
    from .intersect import intersect_all
    from .octree import clip_to_shared_region, find_candidates

    if merge_tol is None:
        merge_tol = MERGE_TOL_REL * scene_scale(a, b)
    if meshes_coincident(a, b, merge_tol):
        raise CoincidentInput("input meshes are coincident; Booleans are the mesh itself")
    if not (a.closed and b.closed):
        return None
    pairs = find_candidates(a, b)
    if len(pairs):
        if plane_tol is None:
            plane_tol = PLANE_TOL_REL * scene_scale(a, b, clip_to_shared_region(a, b)[2])
        segs, _ = intersect_all(pairs, a, b, plane_tol=plane_tol)
        if segs:
            return None
    return trivial_from_no_crossing(a, b)
