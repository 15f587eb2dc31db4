"""Independent correctness checks on one `meshbool all` output directory.

Nothing here calls meshbool: the STL reader, the manifold test and the
volume are re-implemented in numpy so a bug in meshbool's own validators
cannot hide a wrong output.
"""
from __future__ import annotations

import hashlib
import re
from pathlib import Path

import numpy as np

LABELS = ("union", "intersection", "a_minus_b", "b_minus_a")
_OUTPUT = re.compile(r"^(union|intersection|a_minus_b|b_minus_a)(?:_\d+)?\.stl$")

# Volumes are computed from the float32 STL coordinates on both sides. The
# identities then held to 3e-9 relative on every workload, so 1e-7 leaves
# margin for other seeds while a misplaced piece of any size that matters
# still shows. The facet check in check_op catches slivers below it.
VOLUME_RTOL = 1e-7


def read_stl(path: Path) -> np.ndarray:
    """Triangles (m, 3, 3) float64 of a binary STL file."""
    data = path.read_bytes()
    if len(data) < 84:
        raise ValueError(f"{path.name}: shorter than the 84-byte preamble")
    count = int(np.frombuffer(data, dtype="<u4", count=1, offset=80)[0])
    if len(data) != 84 + 50 * count:
        raise ValueError(f"{path.name}: {count} facets need {84 + 50 * count} bytes, have {len(data)}")
    rec = np.frombuffer(data, dtype=np.uint8, offset=84).reshape(count, 50)
    return rec[:, 12:48].copy().view("<f4").reshape(count, 3, 3).astype(np.float64)


def index(tris: np.ndarray) -> np.ndarray:
    """Faces over vertices welded at exact coordinate equality."""
    _, inverse = np.unique(tris.reshape(-1, 3), axis=0, return_inverse=True)
    return inverse.reshape(-1, 3)


def closed_manifold(tris: np.ndarray) -> bool:
    """Each directed edge occurs once and its reverse occurs once."""
    if len(tris) == 0:
        return False
    faces = index(tris)
    if ((faces[:, 0] == faces[:, 1]) | (faces[:, 1] == faces[:, 2]) | (faces[:, 2] == faces[:, 0])).any():
        return False
    n = int(faces.max()) + 1
    u = faces.ravel()
    v = faces[:, [1, 2, 0]].ravel()
    keys = np.sort(u * n + v)
    if (keys[1:] == keys[:-1]).any():
        return False
    rev = v * n + u
    pos = np.searchsorted(keys, rev)
    return bool((pos < len(keys)).all() and (keys[np.minimum(pos, len(keys) - 1)] == rev).all())


def volume(tris: np.ndarray) -> float:
    return float(np.einsum("ij,ij->i", tris[:, 0], np.cross(tris[:, 1], tris[:, 2])).sum() / 6.0)


def output_digest(outdir: Path) -> str:
    """One hash over every output file name and its bytes."""
    h = hashlib.sha256()
    for p in sorted(outdir.iterdir()):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def check_op(op, outdir: Path) -> tuple[list[str], dict]:
    """Problems found in one op's outputs (empty when correct) and facts
    the traced run compares against: file count, facets and bytes."""
    problems: list[str] = []
    vols = dict.fromkeys(LABELS, 0.0)
    meshes = dict.fromkeys(LABELS, 0)
    tris_of: dict[str, np.ndarray] = {}
    facts = {"files": 0, "facets": 0, "bytes": 0}
    for p in sorted(outdir.iterdir()):
        m = _OUTPUT.match(p.name)
        if not m:
            problems.append(f"unexpected output file {p.name}")
            continue
        try:
            tris = read_stl(p)
        except ValueError as exc:
            problems.append(str(exc))
            continue
        facts["files"] += 1
        facts["facets"] += len(tris)
        facts["bytes"] += p.stat().st_size
        label = m.group(1)
        if not closed_manifold(tris):
            problems.append(f"{p.name} is not a closed manifold")
        vol = volume(tris)
        if not vol > 0:
            problems.append(f"{p.name} has non-positive signed volume {vol:.6g}")
        vols[label] += vol
        meshes[label] += 1
        tris_of[p.name] = tris

    a = np.asarray(op.tris_a, dtype="<f4").astype(np.float64)
    b = np.asarray(op.tris_b, dtype="<f4").astype(np.float64)
    va, vb = volume(a), volume(b)
    u, i = vols["union"], vols["intersection"]
    for what, got, want, scale in (
        ("U + I = vol A + vol B", u + i, va + vb, va + vb),
        ("A - B = vol A - I", vols["a_minus_b"], va - i, va),
        ("B - A = vol B - I", vols["b_minus_a"], vb - i, vb),
    ):
        if abs(got - want) > VOLUME_RTOL * scale:
            problems.append(f"{what}: {got:.9g} vs {want:.9g}")

    # U + I and (A - B) + (B - A) both tile the split surfaces of A and B,
    # only with different orientations, so their facets must match exactly.
    # Unlike the volumes this also catches a missing sliver piece.
    def tiles(*labels):
        parts = [t for name, t in tris_of.items() if name.startswith(labels)]
        return facet_rows(np.concatenate(parts) if parts else np.zeros((0, 3, 3)), oriented=False)

    if not np.array_equal(tiles("union", "intersection"), tiles("a_minus_b", "b_minus_a")):
        problems.append("facets of U + I differ from those of (A - B) + (B - A)")

    if op.expect == "single":
        if meshes["union"] != 1 or meshes["intersection"] != 1:
            problems.append(
                f"expected one union and one intersection mesh, got "
                f"{meshes['union']} and {meshes['intersection']}"
            )
    elif op.expect == "nested":
        for name, want in (("union.stl", a), ("intersection.stl", b)):
            got = tris_of.get(name)
            if got is None or not np.array_equal(facet_rows(got, True), facet_rows(want, True)):
                problems.append(f"{name} is not the {'outer' if want is a else 'inner'} input")
    return problems, facts


def facet_rows(tris: np.ndarray, oriented: bool) -> np.ndarray:
    """One row of 9 coordinates per facet, rows sorted, so equal facet sets
    give equal arrays. Oriented rows start each facet at its smallest corner
    and keep the winding; unoriented rows sort all three corners."""
    if len(tris) == 0:
        return np.zeros((0, 9))
    order = np.lexsort(tris.transpose(2, 0, 1)[::-1])  # corners by (x, y, z)
    if oriented:
        order = (order[:, :1] + np.arange(3)) % 3
    rows = np.take_along_axis(tris, order[..., None], axis=1).reshape(len(tris), 9)
    return rows[np.lexsort(rows.T[::-1])]
