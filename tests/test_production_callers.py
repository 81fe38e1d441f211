"""Every function of the package has a caller in the package, or a reason here.

A module-level function or a non-dunder method counts as called when some
name or attribute anywhere in ``src/dirac8`` spells its name.  Matching by
name alone can miss dead code that shares a name with live code; code that a
library calls by itself, like an argparse override, needs a pin.  A function
that only the tests call fails this test: give it a production caller, move it
into the tests, or pin it below with its reason.
"""

import ast
from pathlib import Path

import dirac8

PACKAGE = Path(dirac8.__file__).parent

UNCALLED = {
    # ROADMAP item 1, the chain of limits as verify checks, will call it
    "evolution.evolve_kgf",
    # ROADMAP item 5 will call it for the evolve summary; the packet workload calls it
    "evolution.conserved_quadratic",
    "cli._SubcommandParser.error",  # argparse calls this override
}


def _functions(tree, module):
    """(name, module.name) of each module-level function, (name, module.Class.name)
    of each non-dunder method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, f"{module}.{node.name}"
        elif isinstance(node, ast.ClassDef):
            yield from ((item.name, f"{module}.{node.name}.{item.name}") for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not (item.name.startswith("__") and item.name.endswith("__")))


def test_each_function_has_a_production_caller_or_a_pinned_reason():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    spelled = {node.id if isinstance(node, ast.Name) else node.attr
               for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, (ast.Name, ast.Attribute))}
    uncalled = {qualified for module, tree in trees.items()
                for name, qualified in _functions(tree, module) if name not in spelled}
    assert uncalled == UNCALLED
