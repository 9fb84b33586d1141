"""The public names: each module's ``__all__`` and the package re-exports,
no module importing a name it does not use, LAPACK's ``dtrsyl`` called
only through ``linalg._trsyl``, no ``eigvals`` beside the Schur forms,
``bounds`` importing only ``errors``, and stderr written only by
``cli.main``."""

import ast
import importlib
import pkgutil

import pytest

import icmor

MODULES = sorted(info.name for info in pkgutil.iter_modules(icmor.__path__))


def _reexports():
    """``(module, name)`` for every ``from .module import name`` in the
    package's ``__init__``."""
    with open(icmor.__file__) as fh:
        tree = ast.parse(fh.read())
    return [(node.module, alias.name) for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names]


@pytest.mark.parametrize("module", MODULES)
def test_all_names_exist(module):
    mod = importlib.import_module(f"icmor.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_reexports_are_in_their_modules_all():
    pairs = _reexports()
    assert pairs
    stray = [(module, name) for module, name in pairs
             if name not in importlib.import_module(f"icmor.{module}").__all__]
    assert stray == []


def _unused_imports(path):
    """Names an ``import`` in the module at ``path`` binds and the module
    never reads, except on lines marked ``# noqa: F401``."""
    with open(path) as fh:
        source = fh.read()
    lines = source.splitlines()
    tree = ast.parse(source)
    bound = [(alias.asname or alias.name.split(".")[0], alias.lineno)
             for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
             for alias in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound
            if name not in read and "# noqa: F401" not in lines[line - 1]]


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_used(module):
    # the package's __init__ only re-exports, which the test above checks
    assert _unused_imports(importlib.import_module(f"icmor.{module}").__file__) == []


def _sites(path, refers):
    """For each node of the module at ``path`` that ``refers`` accepts, the
    name of the innermost function around it, or ``<module>``."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if refers(child):
                sites.append(where)
            visit(child, where)

    visit(tree, "<module>")
    return sites


def _names(child, name):
    """Whether ``child`` refers to ``name``: ``mod.name``, a bare ``name`` or
    an import of it."""
    return (isinstance(child, ast.Attribute) and child.attr == name
            or isinstance(child, ast.Name) and child.id == name
            or isinstance(child, ast.alias) and child.name.split(".")[-1] == name)


def test_dtrsyl_is_called_only_by_trsyl():
    # linalg._trsyl reads LAPACK's info (a perturbed or illegal solve
    # raises), so every triangular Sylvester solve goes through it
    sites = {module: _sites(importlib.import_module(f"icmor.{module}").__file__,
                            lambda child: _names(child, "dtrsyl"))
             for module in MODULES}
    assert {module: s for module, s in sites.items() if s} == {"linalg": ["_trsyl"]}


def test_no_module_calls_eigvals():
    # the stability verdict and the spectral abscissa come off the real
    # Schur form each StateSpaceModel holds, not off a second spectrum
    sites = {module: _sites(importlib.import_module(f"icmor.{module}").__file__,
                            lambda child: _names(child, "eigvals"))
             for module in MODULES}
    assert {module: s for module, s in sites.items() if s} == {}


def test_bounds_imports_only_errors():
    # bounds holds formulas over the reductions it is given and runs none
    with open(importlib.import_module("icmor.bounds").__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {"." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert {name for name in imported if name.startswith((".", "icmor"))} == {".errors"}


def test_only_cli_main_writes_to_stderr():
    # every error of the icmor command reaches stderr as main's one line
    sites = _sites(importlib.import_module("icmor.cli").__file__,
                   lambda child: _names(child, "stderr"))
    assert set(sites) == {"main"}
