"""The public names: each module's ``__all__`` and the package re-exports,
no module importing a name it does not use, LAPACK's ``dtrsyl`` called
only through ``linalg._trsyl``, the empty-size guards of the two LAPACK
callers in ``linalg``, no ``scipy.linalg`` import, no ``eigvals`` beside
the Schur forms, H2 scoring only where an H2 error is read, IRKA models
built only by IRKA, one rounding of a step count, ``bounds`` importing
only ``errors``, one table of input kinds, stderr written only by
``cli.main``, error fields mapped only by ``experiment`` and renamed only
by ``cli._flag_error``, only shape rules in ``ExperimentConfig``'s
constructor and none in ``from_dict``, and the types of arrays compared
and hashed by identity."""

import ast
import copy
import importlib
import pkgutil

import numpy as np
import pytest

import icmor
from icmor import (
    OrderSelection, build_msd, gramian_factors, hankel_spectrum, simulate, split_reduce,
    unit_vector_basis,
)
from icmor.experiment import ReductionReport
from icmor.simulation import INPUT_KINDS

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


def test_only_the_lapack_calls_read_a_size_in_linalg():
    # an empty matrix runs through the general kernels; only LAPACK's dgees
    # and dtrsyl, which reject size 0, need a guard
    sites = _sites(importlib.import_module("icmor.linalg").__file__,
                   lambda child: isinstance(child, ast.Attribute) and child.attr == "size")
    assert sites == ["_real_schur", "_trsyl"]


def test_no_module_imports_scipy_linalg():
    # linalg loads scipy's LAPACK wrappers from their file; the scipy.linalg
    # package would import scipy's array-API layer into every process
    def imports_scipy(child):
        return (isinstance(child, ast.ImportFrom) and (child.module or "").startswith("scipy")
                or isinstance(child, ast.Import)
                and any(alias.name.startswith("scipy.linalg") for alias in child.names))

    sites = {module: _sites(importlib.import_module(f"icmor.{module}").__file__, imports_scipy)
             for module in MODULES}
    assert {module: s for module, s in sites.items() if s} == {}


def test_no_module_calls_eigvals():
    # the stability verdict and the spectral abscissa come off the real
    # Schur form each StateSpaceModel holds, not off a second spectrum
    sites = {module: _sites(importlib.import_module(f"icmor.{module}").__file__,
                            lambda child: _names(child, "eigvals"))
             for module in MODULES}
    assert {module: s for module, s in sites.items() if s} == {}


def test_only_irka_and_the_split_methods_score_h2_errors():
    # balanced truncation only truncates; IRKA picks its iterate by the
    # score, and split_from_bt gives the split bound its e2
    sites = {module: _sites(importlib.import_module(f"icmor.{module}").__file__,
                            lambda child: isinstance(child, ast.Call)
                            and _names(child.func, "projected_h2_error"))
             for module in MODULES}
    assert {module: set(s) for module, s in sites.items() if s} == \
        {"reduction": {"irka_reduce", "split_from_bt"}}


def test_only_irka_reduce_builds_an_irka_model():
    # a model labelled "irka" interpolates, or is IRKA's own fallback; an
    # order-0 x0 map stays BT's
    sites = {module: _sites(importlib.import_module(f"icmor.{module}").__file__,
                            lambda child: isinstance(child, ast.Call)
                            and _names(child.func, "ReducedModel")
                            and any(kw.arg == "method" and isinstance(kw.value, ast.Constant)
                                    and kw.value.value == "irka" for kw in child.keywords))
             for module in MODULES}
    assert {module: set(s) for module, s in sites.items() if s} == {"reduction": {"irka_reduce"}}


def test_only_the_grid_check_rounds_a_step_count():
    # simulation._grid_steps holds the one rule of a time grid: no other
    # function rounds a number, or truncates a quotient, into a step count
    def rounds(child):
        return isinstance(child, ast.Call) and (
            any(_names(child.func, name) for name in ("round", "rint", "around"))
            or any(_names(child.func, name) for name in ("int", "floor", "ceil", "trunc"))
            and bool(child.args) and isinstance(child.args[0], ast.BinOp)
            and isinstance(child.args[0].op, (ast.Div, ast.FloorDiv)))

    sites = {module: _sites(importlib.import_module(f"icmor.{module}").__file__, rounds)
             for module in MODULES}
    assert {module: s for module, s in sites.items() if s} == {"simulation": ["_grid_steps"]}


def test_bounds_imports_only_errors():
    # bounds holds formulas over the reductions it is given and runs none
    with open(importlib.import_module("icmor.bounds").__file__) as fh:
        tree = ast.parse(fh.read())
    imported = {"." * node.level + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
    assert {name for name in imported if name.startswith((".", "icmor"))} == {".errors"}


def test_input_kinds_are_one_table_in_simulation():
    # a signal holds the evaluator its constructor built: the kinds are
    # assigned once, beside the constructors, and no module compares one
    def assigns(child):
        return isinstance(child, ast.Name) and child.id == "INPUT_KINDS" \
            and isinstance(child.ctx, ast.Store)

    def compares_a_kind(child):
        return isinstance(child, ast.Compare) and any(
            isinstance(side, ast.Constant) and side.value in (*INPUT_KINDS, "sampled")
            for side in (child.left, *child.comparators))

    for refers, want in ((assigns, {"simulation": ["<module>"]}), (compares_a_kind, {})):
        sites = {module: _sites(importlib.import_module(f"icmor.{module}").__file__, refers)
                 for module in MODULES}
        assert {module: s for module, s in sites.items() if s} == want


def test_only_cli_main_writes_to_stderr():
    # every error of the icmor command reaches stderr as main's one line
    sites = _sites(importlib.import_module("icmor.cli").__file__,
                   lambda child: _names(child, "stderr"))
    assert set(sites) == {"main"}


def test_only_experiment_maps_an_error_to_its_field():
    # experiment.ORDER_FIELDS turns a truncated map's name into the field of
    # its order, and cli._flag_error renames any error's fields to flags: no
    # other module reads the map's name, and no cli function restates a
    # library error's text
    def reads_map_name(child):
        return isinstance(child, ast.Attribute) and child.attr == "map_name" \
            and isinstance(child.ctx, ast.Load)

    def catches_invalid_parameter(child):
        return isinstance(child, ast.ExceptHandler) and child.type is not None \
            and any(_names(node, "InvalidParameter") for node in ast.walk(child.type))

    assert {module for module in MODULES if _sites(
        importlib.import_module(f"icmor.{module}").__file__, reads_map_name)} == {"experiment"}
    assert _sites(importlib.import_module("icmor.cli").__file__, catches_invalid_parameter) == []


def test_from_dict_holds_only_shape_rules():
    # each config value is checked where it is used, in run_experiment's
    # set-up, so a config from the constructor gets every rule: the shape
    # rules (__post_init__ and _model_spec) and from_dict compare no value
    # with a number, build no input signal or order selection, look up no
    # method and read no file.  The shape is checked once, when the config
    # is built: from_dict calls neither _check nor _model_spec
    def value_rule(child):
        return (isinstance(child, ast.Compare) and any(
                    isinstance(side, ast.Constant) and type(side.value) in (int, float)
                    for side in (child.left, *child.comparators))
                or any(_names(child, name) for name in (
                    "_build_input", "InputSignal", "OrderSelection", "KNOWN_METHODS"))
                or isinstance(child, ast.Attribute) and child.attr == "path"
                and _names(child.value, "os"))

    def shape_rule(child):
        return isinstance(child, ast.Call) and (
            _names(child.func, "_check") or _names(child.func, "_model_spec"))

    path = importlib.import_module("icmor.experiment").__file__
    shape_sites = {"from_dict", "__post_init__", "_model_spec"}
    assert {site for site in _sites(path, value_rule) if site in shape_sites} == set()
    assert "from_dict" not in _sites(path, shape_rule)
    assert "__post_init__" in _sites(path, shape_rule)


def _instances():
    """One instance of each dataclass that holds arrays."""
    M = build_msd(3, m_inputs=2)
    basis = unit_vector_basis(M.n, [6])
    F = gramian_factors(M)
    S = split_reduce(M, basis, OrderSelection.fixed(2), OrderSelection.fixed(1))
    tr = simulate(M, None, basis.X0[:, 0], 1.0, 0.5)
    return {"StateSpaceModel": M, "InitialConditionBasis": basis, "GramianFactors": F,
            "HankelSpectrum": hankel_spectrum(F), "ReducedModel": S.suy,
            "SplitReducedModel": S, "SimulationTrace": tr,
            "ReductionReport": ReductionReport({}, {"full": tr}, {"sigma": np.ones(2)}, {})}


@pytest.mark.parametrize("name", list(_instances()))
def test_compares_and_hashes_by_identity(name):
    # an array field has no truth value, so == and hash of its fields raise
    x = _instances()[name]
    twin = copy.copy(x)
    assert x == x and x != twin
    assert len({x, twin, build_msd(2, m_inputs=1)}) == 3
