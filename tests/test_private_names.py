"""No module of the package reads another module's private (underscore) name,
nor a name that the other module only imports.

Every cross-module call then goes through a public name, looked up in the
module that defines it.  That is where the benchmark's per-layer tracer wraps
it, so no production path hides from the tracer.
"""

import ast
from pathlib import Path

import dirac8

PACKAGE = Path(dirac8.__file__).parent
MODULES = {path.stem for path in PACKAGE.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def _reads(path):
    """(line, module, name, text) of each read of another dirac8 module's name in path."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases, found = {}, []  # local name -> dirac8 module it is bound to
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level > 0 or (node.module or "").split(".")[0] == "dirac8"
            if not package:
                continue
            within = (node.module or "").split(".")[-1] if node.module else None
            for alias in node.names:
                if within in MODULES and within != path.stem:
                    found.append((node.lineno, within, alias.name,
                                  f"from {within} import {alias.name}"))
                elif within in (None, "dirac8") and alias.name in MODULES:
                    aliases[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "dirac8" and len(parts) == 2 and alias.asname:
                    aliases[alias.asname] = parts[1]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in aliases and aliases[node.value.id] != path.stem):
            found.append((node.lineno, aliases[node.value.id], node.attr,
                          f"{node.value.id}.{node.attr}"))
    return found


def _private_reads(path):
    """(line, text) of each read of another dirac8 module's underscore name in path."""
    return [(line, text) for line, _, name, text in _reads(path) if _private(name)]


def _imported_only(module):
    """The top-level names that a dirac8 module binds by import and by nothing else."""
    defined, imported = set(), set()
    for node in ast.parse((PACKAGE / f"{module}.py").read_text()).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        else:
            defined.update(n.id for n in ast.walk(node)
                           if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store))
    return imported - defined


def _reexport_reads(path):
    """(line, text) of each read of a name that its dirac8 module only imports."""
    return [(line, text) for line, module, name, text in _reads(path)
            if name in _imported_only(module)]


def test_no_module_reads_another_modules_private_names():
    found = {path.name: reads for path in sorted(PACKAGE.glob("*.py"))
             if (reads := _private_reads(path))}
    assert found == {}


def test_each_name_is_read_from_the_module_that_defines_it():
    found = {path.name: reads for path in sorted(PACKAGE.glob("*.py"))
             if (reads := _reexport_reads(path))}
    assert found == {}


def test_the_guard_sees_both_forms(tmp_path):
    path = tmp_path / "probe.py"
    path.write_text("from . import chain as c, report\n"
                    "from .params import _bad, ChainParams\n"
                    "import dirac8.verify as v\n"
                    "c._kernel(); report.__name__; v._add; c.simulate\n")
    assert sorted(_private_reads(path)) == [(2, "from params import _bad"),
                                            (4, "c._kernel"), (4, "v._add")]


def test_the_reexport_guard_sees_both_forms(tmp_path):
    # chain imports modal_pair from dispersion and defines simulate
    path = tmp_path / "probe.py"
    path.write_text("from . import chain as c, dispersion\n"
                    "from .chain import modal_pair, simulate\n"
                    "c.modal_pair; c.np; c.simulate; dispersion.modal_pair\n")
    assert sorted(_reexport_reads(path)) == [(2, "from chain import modal_pair"),
                                             (3, "c.modal_pair"), (3, "c.np")]
