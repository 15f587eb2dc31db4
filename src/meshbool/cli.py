"""Command-line front end for the Boolean pipeline."""
from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import dataclass
from pathlib import Path

from .blocks import combine_meshes
from .errors import MeshBoolError, NotClosed
from .geometry import TriMesh
from .io import dump_debug, load_mesh, save_mesh
from .octree import OctreeConfig
from .pipeline import PipelineOptions, run_pipeline

log = logging.getLogger(__name__)

OPS = ("union", "intersect", "subtract-ab", "subtract-ba", "all", "split-surfaces", "intersect-open")
OP_TO_LABEL = {
    "union": "union",
    "intersect": "intersection",
    "subtract-ab": "a_minus_b",
    "subtract-ba": "b_minus_a",
}


@dataclass
class RunConfig:
    op: str
    input_a: str
    input_b: str
    output: str
    merge_tol: float | None = None
    octree_depth: int = 8
    octree_capacity: int = 32
    strict: bool = False
    debug_json: str | None = None


def _write_single(meshes: list[TriMesh], path: str) -> None:
    if not meshes:
        log.warning("%s: result is empty; writing a zero-facet file", path)
        save_mesh(TriMesh([[0, 0, 0]], [], source="R"), path)
        return
    save_mesh(combine_meshes(meshes) if len(meshes) > 1 else meshes[0], path)


def _write_group(meshes: list[TriMesh], outdir: Path, stem: str) -> list[str]:
    written = []
    if len(meshes) == 1:
        p = outdir / f"{stem}.stl"
        save_mesh(meshes[0], p)
        written.append(str(p))
    else:
        for i, m in enumerate(meshes):
            p = outdir / f"{stem}_{i}.stl"
            save_mesh(m, p)
            written.append(str(p))
    return written


def run(config: RunConfig) -> int:
    """Execute the six-step flow for one operation; returns the exit status."""
    mesh_a = load_mesh(config.input_a, source="A")
    mesh_b = load_mesh(config.input_b, source="B")

    if config.op == "intersect-open" and (mesh_a.closed or mesh_b.closed):
        raise NotClosed("intersect-open expects two open surfaces")

    options = PipelineOptions(
        merge_tol=config.merge_tol,
        octree=OctreeConfig(config.octree_depth, config.octree_capacity),
        strict=config.strict,
        classify=config.op not in ("split-surfaces", "intersect-open"),
    )
    state = run_pipeline(mesh_a, mesh_b, options)

    for stage, seconds in state.timings:
        print(f"stage {stage}: {seconds:.3f} s")

    if config.debug_json:
        dump_debug(state, config.debug_json)

    if config.op in OP_TO_LABEL:
        result = state.result
        if result is None:
            raise NotClosed(f"{config.op} requires two closed input surfaces")
        _write_single(result.by_label(OP_TO_LABEL[config.op]), config.output)
        print(f"wrote {config.output}")
    elif config.op == "all":
        result = state.result
        if result is None:
            raise NotClosed("op=all requires two closed input surfaces")
        outdir = Path(config.output)
        outdir.mkdir(parents=True, exist_ok=True)
        written = []
        for stem in ("union", "intersection", "a_minus_b", "b_minus_a"):
            written += _write_group(result.by_label(stem), outdir, stem)
        print(f"wrote {len(written)} file(s) to {outdir}")
    else:  # split-surfaces / intersect-open
        outdir = Path(config.output)
        outdir.mkdir(parents=True, exist_ok=True)
        count = 0
        for ss in state.subsurfaces:
            mesh = state.subsurface_mesh(ss)
            save_mesh(mesh, outdir / f"{ss.source.lower()}_sub_{ss.id}.stl")
            count += 1
        print(f"wrote {count} sub-surface file(s) to {outdir}")
        if state.trivial:
            log.warning("surfaces do not intersect; no sub-surfaces were produced")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="meshbool",
        description="Boolean operations on a pair of triangulated surfaces",
    )
    p.add_argument("op_pos", nargs="?", choices=OPS, metavar="op",
                   help=f"operation, one of: {', '.join(OPS)} (default: all)")
    p.add_argument("input_a", help="first surface (STL or OBJ)")
    p.add_argument("input_b", help="second surface (STL or OBJ)")
    p.add_argument("--op", dest="op_flag", choices=OPS, help="operation (alternative to the positional)")
    p.add_argument("-o", "--out", required=True, help="output file (single op) or directory (all/split)")
    p.add_argument("--merge-tol", type=float, default=None,
                   help="vertex weld tolerance (default: 1e-9 x bounding-cube side)")
    p.add_argument("--octree-depth", type=int, default=8)
    p.add_argument("--octree-capacity", type=int, default=32)
    p.add_argument("--threads", type=int, default=None,
                   help="accepted for compatibility and ignored: the narrow phase is serial")
    p.add_argument("--strict", action="store_true",
                   help="abort on overlapping coplanar triangle pairs")
    p.add_argument("--debug-json", default=None, help="dump pipeline entities to this JSON file")
    return p


def main(argv=None) -> int:
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    if args.op_pos and args.op_flag and args.op_pos != args.op_flag:
        print(f"error: conflicting operations {args.op_pos!r} and {args.op_flag!r}", file=sys.stderr)
        return 2
    config = RunConfig(
        op=args.op_pos or args.op_flag or "all",
        input_a=args.input_a,
        input_b=args.input_b,
        output=args.out,
        merge_tol=args.merge_tol,
        octree_depth=args.octree_depth,
        octree_capacity=args.octree_capacity,
        strict=args.strict,
        debug_json=args.debug_json,
    )
    try:
        return run(config)
    except MeshBoolError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
