"""The package keeps only code that the package itself uses.

A top-level function or class of ``src/pursuitrl`` that nothing in the
package reads is called by tests alone; it belongs in ``tests/reference.py``
(or nowhere), not in the program the commands run.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pursuitrl"


def _read_names(tree: ast.AST) -> list[str]:
    """Every name ``tree`` reads: a loaded name, an attribute, an imported alias."""
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.append(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.append(node.attr)
        elif isinstance(node, ast.alias):
            names.append(node.name)
    return names


def test_every_top_level_definition_is_read_elsewhere_in_src():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "cli" in modules, f"no package sources under {SRC}"
    reads = [name for tree in modules.values() for name in _read_names(tree)]
    unread = []
    for module, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                # a read inside the definition itself (recursion) does not count
                if reads.count(node.name) == _read_names(node).count(node.name):
                    unread.append(f"{module}.{node.name}")
    assert not unread, f"defined in src/ but read only by tests: {unread}"
