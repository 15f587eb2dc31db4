"""The benchmark's per-layer hooks name functions of meshbool by module and
attribute; a rename in src/ would otherwise fail only the traced benchmark.
bench/spans.py is loaded read-only; only its own Tracer patches meshbool, and
it restores every hook on exit."""
import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from meshbool import cli
from meshbool.geometry import TriMesh
from meshbool.io import save_mesh
from meshes import icosphere

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # nothing lands in bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        del sys.modules[spec.name]
    return module


spans = load_spans()
HOOKS = spans.HOOKS


@pytest.mark.parametrize("mod_name, attr", sorted({(m, a) for m, a, _, _ in HOOKS}))
def test_hook_resolves(mod_name, attr):
    assert callable(getattr(importlib.import_module(mod_name), attr, None)), f"{mod_name}.{attr}"


def test_both_intersect_all_bindings_are_hooked():
    """The pipeline calls its own copy of the name, the trivial path imports
    it from meshbool.intersect at call time: both must stay the one function."""
    hooked = {(m, a) for m, a, _, _ in HOOKS if a == "intersect_all"}
    assert hooked == {("meshbool.pipeline", "intersect_all"), ("meshbool.intersect", "intersect_all")}
    pipeline = importlib.import_module("meshbool.pipeline")
    intersect = importlib.import_module("meshbool.intersect")
    assert pipeline.intersect_all is intersect.intersect_all


def _placed(radius, angle=0.0, offset=(0.0, 0.0, 0.0)):
    """A 2-subdivision icosphere scaled, turned about z and moved, so that
    no face of it lies on a face of another placement."""
    sphere = icosphere(1.0, subdivisions=2)
    c, s = np.cos(angle), np.sin(angle)
    turn = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    return TriMesh(radius * sphere.vertices @ turn.T + offset, sphere.faces)


SMALL_PAIRS = {
    "crossing": (_placed(1.0), _placed(1.0, offset=(0.5, 0.31, 0.17))),
    "nested": (_placed(1.0), _placed(0.97, angle=0.3)),
}


@pytest.mark.parametrize("expect", sorted(SMALL_PAIRS))
def test_every_required_span_fires(tmp_path, expect):
    """A CLI run traced as the benchmark traces it reaches every span its
    path needs, edge checks included (on the nested path TriMesh.closed is
    the only one), so a rewrite cannot bypass a hook unnoticed."""
    paths = []
    for name, mesh in zip("ab", SMALL_PAIRS[expect]):
        paths.append(str(tmp_path / f"{name}.stl"))
        save_mesh(mesh, paths[-1])
    tracer = spans.Tracer()
    with tracer.installed(), tracer.op_root(0):
        assert cli.main(["all", *paths, "-o", str(tmp_path / "out")]) == 0
    assert tracer.missing_spans([0], expect) == set()
    assert tracer.metrics([0])["geometry.edge_checks"] > 0
