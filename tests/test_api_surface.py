"""Every public module-level function and class in src/meshbool, and every
public method of a public class there, has a use.

A public name passes when code in src/meshbool refers to it (as a name or
an attribute), when meshbool exports it in __all__, when a hook of the
benchmark's span tracer names it, or when ALLOWED lists it with its reason.
A public method passes when an attribute of its name appears in src/meshbool
or bench/*.py, or when ALLOWED lists it. The check goes by name only: an
attribute of the same name on another object counts as a use. A second
implementation that only tests call fails here: keep it in the tests as an
oracle instead. Sources are parsed with ast; nothing is imported from bench/.
"""
import ast
from pathlib import Path

import meshbool

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "meshbool").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))

# Public on purpose without a caller in src/meshbool; a method as
# (module, "Class.method"):
ALLOWED = {
    # The narrow phase's per-pair test as a batch of one; the hypothesis
    # differential tests drive it pair by pair against the oracle.
    ("intersect", "tri_tri_intersect"),
}


def _nodes(paths):
    for path in paths:
        yield from ast.walk(ast.parse(path.read_text()))


def referenced_names() -> set[str]:
    return ({node.id for node in _nodes(SOURCES) if isinstance(node, ast.Name)}
            | attribute_names(SOURCES))


def attribute_names(paths) -> set[str]:
    return {node.attr for node in _nodes(paths) if isinstance(node, ast.Attribute)}


def hooked_names() -> set[str]:
    """Attribute names in the HOOKS table of bench/spans.py."""
    tree = ast.parse((ROOT / "bench" / "spans.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "HOOKS" for t in node.targets):
            return {hook.elts[1].value for hook in node.value.elts}
    raise AssertionError("bench/spans.py has no HOOKS table")


def test_every_public_definition_has_a_use():
    used = referenced_names() | set(meshbool.__all__) | hooked_names()
    unused = []
    for path in SOURCES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name not in used and (path.stem, node.name) not in ALLOWED:
                unused.append(f"{path.stem}.{node.name}")
    assert not unused, f"public definitions no code uses: {unused}"



def test_every_public_method_has_a_use():
    used = attribute_names(SOURCES + BENCH)
    unused = []
    for path in SOURCES:
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef) or cls.name.startswith("_"):
                continue
            for node in cls.body:
                if (isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
                        and node.name not in used and (path.stem, f"{cls.name}.{node.name}") not in ALLOWED):
                    unused.append(f"{path.stem}.{cls.name}.{node.name}")
    assert not unused, f"public methods no code uses: {unused}"
