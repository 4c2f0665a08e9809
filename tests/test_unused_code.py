"""Ratchet against package code that only the tests use.

Every ``def`` in ``src/qcablocks`` must be used by the program itself: its
name must appear as a word, outside its own def line, somewhere in the
package, the benchmark harness or the CI workflows.  Names the tests alone
reach are listed in ALLOWED with the reason they stay; anything else fails
here, so new test-only code cannot enter the package silently.  Dunder
methods are called by Python and are not checked.
"""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "qcablocks"
USERS = [PACKAGE, ROOT / "perfbench", ROOT / ".github" / "workflows"]
TEXT_SUFFIXES = {".py", ".md", ".yml", ".yaml"}

ALLOWED = {
    # the paper's gallery examples, exercised by the acceptance tests
    "kari_ca_step",
    "kari_random_grid",
    "toffoli_probe_states",
    # test-only code still in the package; moving it to a tests/ helper
    # shrinks this list
    "conjugated_commuting_pair",  # rand.py: random test inputs
    "random_block_qca",
    "random_sparse_state",
    "embed_on_factors",  # linalg.py: oracles of the residual kernels
    "matrix_units",
    "step_config",  # model.py: used by tests/state_oracle.py
    "ungroup_cells",
    "write_gallery_specs",  # gallery.py: regenerates specs/
}


def _defs() -> dict[str, set[tuple[Path, int]]]:
    """Every def name in the package and the (file, line) of its def lines."""
    out: dict[str, set[tuple[Path, int]]] = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.setdefault(node.name, set()).add((path, node.lineno))
    return out


def _unused() -> set[str]:
    defs = _defs()
    used = set()
    for root in USERS:
        for path in sorted(root.rglob("*")):
            if not path.is_file() or path.suffix not in TEXT_SUFFIXES:
                continue
            for lineno, line in enumerate(path.read_text().splitlines(), 1):
                for word in set(re.findall(r"\w+", line)) & defs.keys():
                    if (path, lineno) not in defs[word]:
                        used.add(word)
    return {name for name in defs
            if name not in used and not (name.startswith("__") and name.endswith("__"))}


def test_every_package_def_is_used_outside_the_tests():
    unused = _unused()
    assert unused <= ALLOWED, f"used by tests only, or not at all: {sorted(unused - ALLOWED)}"
    # an allow-list entry whose name is now used, or gone, is dropped here
    assert ALLOWED <= unused, f"stale allow-list entries: {sorted(ALLOWED - unused)}"
