"""Every public module-level function and class in src/meshbool has a use.

A public name passes when code in src/meshbool refers to it (as a name or
an attribute), when meshbool exports it in __all__, when a hook of the
benchmark's span tracer names it, or when ALLOWED lists it with its reason.
A second implementation that only tests call fails here: keep it in the
tests as an oracle instead. Sources are parsed with ast; nothing is
imported from bench/.
"""
import ast
from pathlib import Path

import meshbool

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "meshbool").glob("*.py"))

# Public on purpose without a caller in src/meshbool:
ALLOWED = {
    # The narrow phase's per-pair test as a batch of one; the hypothesis
    # differential tests drive it pair by pair against the oracle.
    ("intersect", "tri_tri_intersect"),
}


def referenced_names() -> set[str]:
    names = set()
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


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

