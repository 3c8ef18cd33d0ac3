"""The package keeps only code that the package itself uses.

A top-level function or class of ``src/pursuitrl`` that nothing in the
package reads is called by tests alone; it belongs in ``tests/reference.py``
(or nowhere), not in the program the commands run. Likewise a defaulted
parameter that no call in the package passes is a path that only tests take.
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


# Defaulted parameters that callers outside the package pass, by name:
# the console script calls main() bare, while tests and the benchmark pass argv.
PASSED_FROM_OUTSIDE = {"cli.main": {"argv"}}


def _defaulted(function: ast.FunctionDef) -> list[tuple[str, int | None]]:
    """Each defaulted parameter of ``function``: its name and its position
    among the positional parameters (``None`` for a keyword-only one)."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    first = len(positional) - len(args.defaults)
    return ([(arg.arg, i) for i, arg in enumerate(positional) if i >= first]
            + [(arg.arg, None) for arg, default in zip(args.kwonlyargs, args.kw_defaults)
               if default is not None])


def _passes(call: ast.Call, name: str, position: int | None) -> bool:
    """Whether ``call`` may pass the parameter ``name`` at ``position``; a
    method's ``self`` is not among a bound call's arguments, and a ``*`` or
    ``**`` argument may pass any parameter."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(keyword.arg in (None, name) for keyword in call.keywords):
        return True
    return position is not None and position < len(call.args)


def test_every_defaulted_parameter_is_passed_somewhere_in_src():
    modules = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    assert "cli" in modules, f"no package sources under {SRC}"
    calls: dict[str, list[ast.Call]] = {}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unpassed = []
    for module, tree in modules.items():
        methods = {id(item) for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
                   for item in node.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            qualname = f"{module}.{node.name}"
            shift = 1 if id(node) in methods else 0     # self, bound by the call
            for name, position in _defaulted(node):
                if name in PASSED_FROM_OUTSIDE.get(qualname, ()):
                    continue
                at = None if position is None else position - shift
                if not any(_passes(call, name, at) for call in calls.get(node.name, ())):
                    unpassed.append(f"{qualname}({name}=)")
    assert not unpassed, f"defaulted in src/ but passed only by tests: {unpassed}"
