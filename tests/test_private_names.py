"""No module of the package reads another module's private (underscore) name.

Every cross-module call then goes through a public name, which is also what
the benchmark's per-layer tracer wraps, so no production path hides from it.
"""

import ast
from pathlib import Path

import dirac8

PACKAGE = Path(dirac8.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _private_reads(path):
    """(line, text) of each read of another dirac8 module's underscore name in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, found = {}, []  # local name -> dirac8 module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "dirac8"
            if not package:
                continue
            within = (node.module or "").split(".")[-1] if node.module else None
            for alias in node.names:
                if within in MODULES and within != path.stem and _private(alias.name):
                    found.append((node.lineno, f"from {within} import {alias.name}"))
                elif within in (None, "dirac8") and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "dirac8" and len(parts) == 2 and alias.asname:
                    aliases[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and _private(node.attr)
                and aliases[node.value.id] != path.stem):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return found


def test_no_module_reads_another_modules_private_names():
    found = {path.name: reads for path in sorted(PACKAGE.glob("*.py"))
             if (reads := _private_reads(path))}
    assert found == {}


def test_the_guard_sees_both_forms(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import chain as c, report\n"
                    "from .params import _bad, ChainParams\n"
                    "import dirac8.verify as v\n"
                    "c._kernel(); report.__name__; v._add; c.simulate\n")
    assert sorted(_private_reads(path)) == [(2, "from params import _bad"),
                                            (4, "c._kernel"), (4, "v._add")]
