"""STL / OBJ readers and writers plus the debug JSON dump.

STL carries no indexing, so loading welds duplicate vertices at exact bit
equality; tolerance-based welding happens later in the merge stage. The
binary STL reader holds the float32 corners, their sort order and the faces
once the file's bytes end, and only the distinct vertices become float64.
The weld's sort and runs are halfedge.sort_runs, which compares one column
at a time in sorted order.
The binary STL writer builds and writes its records one block of
geometry.BLOCK faces at a time, so it holds no whole-mesh record array.
"""
from __future__ import annotations

import json
import logging
import math
import struct
from pathlib import Path

import numpy as np

from .errors import EmptyInput, IoError, ParseError
from .geometry import BLOCK, TriMesh, unit_normals
from .halfedge import sort_runs

log = logging.getLogger(__name__)

DEBUG_SCHEMA_VERSION = 1


def sniff_format(path) -> str:
    """Infer the format from extension and file content."""
    p = Path(path)
    ext = p.suffix.lower()
    if ext == ".obj":
        return "obj"
    if ext != ".stl":
        raise ParseError(f"{path}: unsupported extension {ext!r}")
    with open(p, "rb") as fh:  # only the 84-byte preamble is read
        head, size = fh.read(84), p.stat().st_size
    if len(head) < 84:
        return "stl_ascii"
    if head[:5].lower() == b"solid":
        # Some binary exporters also start with 'solid'; trust the facet
        # count arithmetic over the keyword.
        (count,) = struct.unpack_from("<I", head, 80)
        if size == 84 + 50 * count:
            return "stl_binary"
        return "stl_ascii"
    return "stl_binary"


def _index_soup(tris: np.ndarray, source: str, name: str) -> TriMesh:
    """Weld float-identical corners of a float32 or float64 soup into a mesh."""
    if len(tris) == 0:
        raise EmptyInput(f"{name}: no facets")
    flat = tris.reshape(-1, 3)
    # Equal rows form runs in a stable lexicographic sort, so the first of
    # them (say -0.0 before 0.0) becomes the vertex. Only the runs' first
    # rows are gathered.
    order, new = sort_runs(*flat.T)
    verts = flat[order[new]].astype(np.float64, copy=False)
    rank = np.cumsum(new)
    rank -= 1
    faces = np.empty_like(rank)
    faces[order] = rank
    faces = faces.reshape(-1, 3)
    degen = (faces[:, 0] == faces[:, 1]) | (faces[:, 1] == faces[:, 2]) | (faces[:, 2] == faces[:, 0])
    if degen.any():
        log.warning("%s: dropped %d degenerate facet(s)", name, int(degen.sum()))
        faces = faces[~degen]
    if len(faces) == 0:
        raise EmptyInput(f"{name}: all facets degenerate")
    return TriMesh(verts, faces, source=source, name=name)


def _load_stl_binary(path, source) -> TriMesh:
    data = Path(path).read_bytes()
    if len(data) < 84:
        raise ParseError(f"{path}: binary STL shorter than 84-byte preamble")
    (count,) = struct.unpack_from("<I", data, 80)
    need = 84 + 50 * count
    if len(data) < need:
        raise ParseError(f"{path}: facet count {count} needs {need} bytes, file has {len(data)}")
    if count == 0:
        raise EmptyInput(f"{path}: zero facets")
    raw = np.frombuffer(data, dtype=np.uint8, count=50 * count, offset=84)
    rec = raw.reshape(count, 50)[:, 12:48].copy().view("<f4").reshape(count, 3, 3)
    del data, raw  # the file's bytes end once the corners are copied
    if not np.isfinite(rec).all():  # one flat test; the facet search runs only on failure
        bad = np.flatnonzero(~np.isfinite(rec).all(axis=(1, 2)))[0]
        raise ParseError(f"{path}: facet {bad} (0-based): non-finite coordinate")
    return _index_soup(rec, source, str(path))


def _coords(tok, path, lineno) -> list[float]:
    """The three coordinates after a vertex keyword; a ParseError naming the
    line when one is missing, not a number, or not finite."""
    if len(tok) < 4:
        raise ParseError(f"{path}:{lineno}: {tok[0]} needs 3 coordinates")
    try:
        xyz = [float(tok[1]), float(tok[2]), float(tok[3])]
    except ValueError as exc:
        raise ParseError(f"{path}:{lineno}: bad coordinate: {exc}") from None
    if not all(map(math.isfinite, xyz)):
        raise ParseError(f"{path}:{lineno}: non-finite coordinate in {' '.join(tok[1:4])!r}")
    return xyz


def _load_stl_ascii(path, source) -> TriMesh:
    coords = []
    with open(path, "r", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            tok = line.split()
            if not tok:
                continue
            if tok[0] == "vertex":
                coords.append(_coords(tok, path, lineno))
    if not coords:
        raise EmptyInput(f"{path}: zero facets")
    if len(coords) % 3:
        raise ParseError(f"{path}: vertex count {len(coords)} not a multiple of 3")
    tris = np.asarray(coords, dtype=np.float64).reshape(-1, 3, 3)
    return _index_soup(tris, source, str(path))


def _load_obj(path, source) -> TriMesh:
    verts = []
    faces = []
    warned_attrs = False
    fanned = 0
    with open(path, "r", errors="replace") as fh:
        for lineno, line in enumerate(fh, 1):
            tok = line.split()
            if not tok or tok[0].startswith("#"):
                continue
            if tok[0] == "v":
                verts.append(_coords(tok, path, lineno))
            elif tok[0] == "f":
                idx = []
                for ref in tok[1:]:
                    try:
                        i = int(ref.split("/")[0])
                    except ValueError:
                        raise ParseError(f"{path}:{lineno}: bad face reference {ref!r}") from None
                    if i == 0:
                        raise ParseError(f"{path}:{lineno}: OBJ indices are 1-based, got 0")
                    idx.append(i - 1 if i > 0 else len(verts) + i)
                if len(idx) < 3:
                    raise ParseError(f"{path}:{lineno}: face needs at least 3 vertices")
                for k in range(1, len(idx) - 1):
                    faces.append([idx[0], idx[k], idx[k + 1]])
                if len(idx) > 3:
                    fanned += 1
            elif tok[0] in ("vt", "vn") and not warned_attrs:
                log.warning("%s: vt/vn attributes ignored", path)
                warned_attrs = True
    if not faces:
        raise EmptyInput(f"{path}: no faces")
    if fanned:
        log.warning("%s: fan-triangulated %d non-triangular face(s)", path, fanned)
    varr = np.asarray(verts, dtype=np.float64)
    farr = np.asarray(faces, dtype=np.int64)
    if farr.min() < 0 or farr.max() >= len(varr):
        raise ParseError(f"{path}: face index out of range")
    return TriMesh(varr, farr, source=source, name=str(path))


def load_mesh(path, source: str = "A", format: str | None = None) -> TriMesh:
    """Load an STL or OBJ file into an indexed TriMesh."""
    try:
        fmt = format or sniff_format(path)
        if fmt == "stl_binary":
            return _load_stl_binary(path, source)
        if fmt == "stl_ascii":
            return _load_stl_ascii(path, source)
        if fmt == "obj":
            return _load_obj(path, source)
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc
    raise ParseError(f"unknown format {fmt!r}")


def save_mesh(mesh: TriMesh, path, format: str | None = None) -> None:
    """Write a mesh; format inferred from the extension unless given."""
    fmt = format
    if fmt is None:
        ext = Path(path).suffix.lower()
        fmt = "obj" if ext == ".obj" else "stl_binary"
    if fmt.startswith("stl") and not mesh.closed:
        log.warning("%s: saving an open surface to STL (format assumes solids)", path)
    try:
        if fmt == "stl_binary":
            _save_stl_binary(mesh, path)
        elif fmt == "stl_ascii":
            _save_stl_ascii(mesh, path)
        elif fmt == "obj":
            _save_obj(mesh, path)
        else:
            raise IoError(f"unknown output format {fmt!r}")
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc


def _save_stl_binary(mesh: TriMesh, path) -> None:
    with open(path, "wb") as fh:
        fh.write(b"meshbool".ljust(80, b"\0") + struct.pack("<I", mesh.num_faces))
        for start in range(0, mesh.num_faces, BLOCK):
            faces = mesh.faces[start : start + BLOCK]
            rec = np.zeros((len(faces), 50), dtype=np.uint8)
            rec[:, 0:12] = unit_normals(mesh.vertices, faces, "<f4").view(np.uint8)
            rec[:, 12:48] = mesh.vertices[faces].astype("<f4").reshape(-1, 9).view(np.uint8)
            fh.write(rec)


def _save_stl_ascii(mesh: TriMesh, path) -> None:
    normals = unit_normals(mesh.vertices, mesh.faces)
    with open(path, "w") as fh:
        fh.write(f"solid {mesh.name or 'meshbool'}\n")
        for tri, n in zip(mesh.vertices[mesh.faces], normals):
            fh.write(f"  facet normal {n[0]:.9g} {n[1]:.9g} {n[2]:.9g}\n    outer loop\n")
            for v in tri:
                fh.write(f"      vertex {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
            fh.write("    endloop\n  endfacet\n")
        fh.write("endsolid\n")


def _save_obj(mesh: TriMesh, path) -> None:
    with open(path, "w") as fh:
        fh.write("# meshbool\n")
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def dump_debug(state, path) -> None:
    """Serialize pipeline entity arrays (indices, coordinates for vertices)."""
    merged = getattr(state, "merged", None)
    doc = {
        "version": DEBUG_SCHEMA_VERSION,
        "vertices": [] if merged is None else np.round(merged.vertices, 12).tolist(),
        "edges": [],
        "loops": [],
        "surfaces": [],
        "blocks": [],
    }
    if merged is not None:
        doc["edges"] = [
            [int(h), int(t), int(a), int(b)]
            for (h, t), (a, b) in zip(merged.edges, merged.edge_tri_pairs)
        ]
    for lp in getattr(state, "loops", []) or []:
        doc["loops"].append(
            {"verts": [int(v) for v in lp.verts], "kind": lp.kind, "closed": lp.is_closed}
        )
    for lp in getattr(state, "completed_loops", []) or []:
        doc["loops"].append(
            {"verts": [int(v) for v in lp.verts], "kind": lp.kind, "closed": lp.is_closed}
        )
    for ss in getattr(state, "subsurfaces", []) or []:
        doc["surfaces"].append(
            {
                "tris": [int(t) for t in ss.triangles],
                "owners": [{"loop": int(l), "sign": int(s)} for l, s in ss.owners],
                "public": ss.cycles >= 2,
                "source": ss.source,
            }
        )
    for blk in getattr(state, "blocks", []) or []:
        doc["blocks"].append(
            {"surfaces": [int(s) for s in blk.surfaces], "label": blk.label}
        )
    try:
        with open(path, "w") as fh:
            json.dump(doc, fh)
    except OSError as exc:
        raise IoError(f"{path}: {exc}") from exc
