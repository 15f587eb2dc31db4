"""The benchmark's per-layer hooks name functions of meshbool by module and
attribute; a rename in src/ would otherwise fail only the traced benchmark.
bench/spans.py is loaded read-only and nothing is patched."""
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_hooks():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    write_bytecode, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # nothing lands in bench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = write_bytecode
        del sys.modules[spec.name]
    return module.HOOKS


HOOKS = load_hooks()


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
