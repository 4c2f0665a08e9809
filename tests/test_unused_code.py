"""Ratchet against package code that only the tests use.

Every ``def`` in ``src/qcablocks`` must be used by the program itself: its
name must be read somewhere in the package, the benchmark harness or the CI
workflows.  In Python files a use is code, collected from the syntax tree:
a name, an attribute, an imported name, or a part of a dotted string
constant (the benchmark tracer names the functions it wraps by strings such
as ``"GeneratedAlgebra.projection_residual"``); a mention in a comment or
docstring is not a use.  The workflows are shell and YAML, so there a name
counts where it appears as a word.  Names the tests alone reach are listed
in ALLOWED with the reason they stay; anything else fails here, so new
test-only code cannot enter the package silently.  Dunder methods are
called by Python and are not checked.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcablocks"
PYTHON_USERS = [PACKAGE, ROOT / "perfbench"]
WORKFLOWS = ROOT / ".github" / "workflows"
DOTTED = re.compile(r"\w+(\.\w+)+")

ALLOWED = {
    # the paper's gallery examples, exercised by the acceptance tests
    "kari_ca_step",
    "kari_random_grid",
    "toffoli_probe_states",
    "toffoli_ca",
    "xor_ca",
    # the grouping and the sparse-state constructor the shipped specs and
    # the acceptance tests build with; tests/gallery_specs.py was their
    # only package caller
    "from_cells",
    "group_cells",
}


def _defs() -> set[str]:
    """Every def name in the package."""
    return {node.name for path in sorted(PACKAGE.rglob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _code_uses(tree: ast.AST) -> set[str]:
    """The names a Python module reads: names, attributes, imported names
    and the parts of dotted string constants."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.update(node.name.split("."))
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and DOTTED.fullmatch(node.value)):
            used.update(node.value.split("."))
    return used


def _unused() -> set[str]:
    defs = _defs()
    used = set()
    for root in PYTHON_USERS:
        for path in sorted(root.rglob("*.py")):
            used |= _code_uses(ast.parse(path.read_text()))
    for path in sorted(WORKFLOWS.rglob("*.yml")):
        used.update(re.findall(r"\w+", path.read_text()))
    return {name for name in defs - used
            if not (name.startswith("__") and name.endswith("__"))}


def test_every_package_def_is_used_outside_the_tests():
    unused = _unused()
    assert unused <= ALLOWED, f"used by tests only, or not at all: {sorted(unused - ALLOWED)}"
    # an allow-list entry whose name is now used, or gone, is dropped here
    assert ALLOWED <= unused, f"stale allow-list entries: {sorted(ALLOWED - unused)}"
