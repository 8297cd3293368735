"""Every public function of the package has a caller.

Each function named in the ``__all__`` of a ``src/ttwsusy`` module must
be referenced from another module of the package or from a demo: an
import of it (``from .model import energy``, ``from ttwsusy import
energy``) or an attribute read on an imported module (``model.energy``).
The package's re-exports in ``__init__`` are no caller.  A function
that only tests call is a capability nothing runs, and belongs in the
tests or nowhere.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ttwsusy"

# functions with no caller that perfbench/tracer.py looks up by name in
# Tracer.metrics(), which tests/test_perfbench.py runs; they go with the
# benchmark change that stops the tracer reading them
PINNED = {
    "model.eval_radial": "the tracer's model.eval_calls counts its calls",
    "model.eval_angular": "the tracer's model.eval_calls counts its calls",
    "states.state_field": "the tracer's states.field_calls counts its calls, and a hook counts its terms",
    "irreps.sp2_family_state": "the tracer's irreps.state_calls counts its calls (IRREP_STATE_BUILDERS)",
}


def _public_functions(path: Path) -> list[str]:
    """The module-level functions named in the module's ``__all__``."""
    tree = ast.parse(path.read_text())
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return [e.value for e in node.value.elts if e.value in functions]
    return []


def _references(path: Path) -> set[tuple[str | None, str]]:
    """(module, name) of every package name the file imports or reads as a
    module attribute; module None for a name imported from the package."""
    tree = ast.parse(path.read_text())
    refs, modules = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = (node.module or "").removeprefix("ttwsusy").lstrip(".")
            for alias in node.names:
                if source:
                    refs.add((source, alias.name))
                else:
                    refs.add((None, alias.name))
                    modules[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            refs.add((modules[node.value.id], node.attr))
    return refs


def _callerless() -> list[str]:
    """``module.function`` of every public function with no caller."""
    sources = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    refs = {p: _references(p) for p in [*sources, *sorted((ROOT / "demos").glob("*.py"))]}
    out = []
    for module in sources:
        for name in _public_functions(module):
            used = any((module.stem, name) in r or (None, name) in r for p, r in refs.items() if p != module)
            if not used:
                out.append(f"{module.stem}.{name}")
    return out


def test_every_public_function_has_a_caller():
    # equality, not inclusion: a pinned function that gained a caller, or
    # is gone, leaves the list
    assert sorted(_callerless()) == sorted(PINNED)
