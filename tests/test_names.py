"""Public names: every export resolves and has a caller, the bench tracer's layers resolve, every option is listed."""

import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import riccatikit

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(m.name for m in pkgutil.iter_modules(riccatikit.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(f"riccatikit.{name}")
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_every_traced_layer_resolves_in_src():
    # bench/spans.py is loaded from its file and only read: Tracer.install
    # looks these (module, attribute path) pairs up and fails on a missing one
    spec = importlib.util.spec_from_file_location("_bench_spans", ROOT / "bench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    places = [place for places in spans.LAYERS.values() for place in places]
    assert places
    missing = []
    for mod, path in places:
        owner = importlib.import_module(f"riccatikit.{mod}")
        assert Path(owner.__file__).resolve().is_relative_to(ROOT / "src")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if owner is None:
            missing.append(f"{mod}.{path}")
    assert missing == []


def _public_callables(module):
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isclass(obj):
            yield name, obj
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # classmethod, staticmethod
                if inspect.isfunction(member) and (not attr.startswith("_") or attr == "__init__"):
                    yield f"{name}.{attr}", member
        elif inspect.isfunction(obj):
            yield name, obj


@pytest.mark.parametrize("name", MODULES)
def test_riccati_side_takes_no_variable_name(name):
    # x is the one independent variable of every module's objects: expr
    # builds, differentiates and evaluates trees in x alone
    module = importlib.import_module(f"riccatikit.{name}")
    taking_var = [qual for qual, fn in _public_callables(module)
                  if inspect.isfunction(fn) and "var" in inspect.signature(fn).parameters]
    assert taking_var == []


@pytest.mark.parametrize(
    "qualname, knob",
    [
        ("riccati.sample_points", "limit"),
        ("riccati.general_from_particular", "check"),
        ("riccati.kovalevskii_check", "samples"),
    ],
)
def test_fixed_knobs_are_constants(qualname, knob):
    mod, *path = qualname.split(".")
    owner = importlib.import_module(f"riccatikit.{mod}")
    for attr in path:
        owner = getattr(owner, attr)
    assert knob not in inspect.signature(owner).parameters


def test_riccati_eq_has_no_residual_method():
    from riccatikit.riccati import RiccatiEq

    assert not hasattr(RiccatiEq, "residual")


def test_finitegap_keeps_only_the_one_root_report():
    from riccatikit import finitegap as fg

    assert not hasattr(fg, "DubrovinReport")
    assert not hasattr(fg.RootTrajectory, "n")
    spec = fg.GapSpec(2.0, 1.0, 0.0, 0.5)
    for traj in (fg.integrate_gamma(spec, (0.0, 1.0)), fg.elliptic_trajectory(spec, [0.0, 1.0])):
        assert not hasattr(traj, "ddgammas")
        assert set(fg.report(spec, traj, fg.period(spec), None)) == {"period", "gamma_vs_elliptic_nodes", "checks"}
    assert list(inspect.signature(fg.dubrovin_checks).parameters) == ["traj", "c"]


SET_BY_CALLER = "a caller in src or bench sets it"
LIBRARY_OPTION = "a library option that only the tests set"
KP_FIELDS = "soliton's y/t fields, which stay until ROADMAP item 19 replaces them"

# Every defaulted parameter of a public callable is an option someone can set.
# A new one fails test_knob_inventory until it is listed here with its reason.
KNOBS = {
    ("cli.main", "argv"): "None reads sys.argv for the console script; tests and bench pass a list",
    ("diffpoly.DiffPolynomial.__init__", "coeffs"): "None is the zero polynomial",
    ("diffpoly.DiffPolynomial.symbol", "index"): SET_BY_CALLER,
    ("diffpoly.DiffPolynomial.symbol", "order"): SET_BY_CALLER,
    ("diffpoly.format_diffpoly", "single"): SET_BY_CALLER,
    ("expr.diff", "order"): SET_BY_CALLER,
    ("finitegap.GapSpec.__init__", "sign"): SET_BY_CALLER,
    ("finitegap.RootTrajectory.__init__", "dense"): SET_BY_CALLER,
    ("finitegap.RootTrajectory.turning_points", "kind"): LIBRARY_OPTION,
    ("finitegap.integrate_gamma", "x_range"): SET_BY_CALLER,
    ("finitegap.integrate_gamma", "step"): SET_BY_CALLER,
    ("finitegap.integrate_gamma", "fixed_step"): SET_BY_CALLER,
    ("numeric.IntegrationBlowUp.__init__", "trajectory"): SET_BY_CALLER,
    ("numeric.Trajectory.__init__", "stages"): SET_BY_CALLER,
    ("numeric.integrate_ivp", "tol"): SET_BY_CALLER,
    ("numeric.integrate_ivp", "fixed_step"): SET_BY_CALLER,
    ("numeric.quadrature", "tol"): SET_BY_CALLER,
    ("numeric.quadrature", "domain"): "set by expr.Quadrature",
    ("riccati.sample_points", "interval"): SET_BY_CALLER,
    ("riccati.riccati_residual", "points"): LIBRARY_OPTION,
    ("riccati.general_from_particular", "phi1"): "None for a linear equation, which needs no particular solution",
    ("series.FormalSeries.__init__", "terms"): SET_BY_CALLER,
    ("series.FormalSeries.__init__", "floor"): SET_BY_CALLER,
    ("series.potential_series", "step"): SET_BY_CALLER,
    ("soliton.SolitonSpec.shifted", "y"): KP_FIELDS,
    ("soliton.SolitonSpec.shifted", "t"): KP_FIELDS,
    ("soliton.SolitonSpec.shifted", "kdv"): KP_FIELDS,
    ("soliton.solve_coefficients", "order"): SET_BY_CALLER,
    ("soliton.TransparentPotential.__init__", "grid"): SET_BY_CALLER,
    ("soliton.pde_residual", "which"): LIBRARY_OPTION,
    ("soliton.pde_residual", "box"): LIBRARY_OPTION,
    ("soliton.pde_residual", "n"): LIBRARY_OPTION,
}


def test_knob_inventory():
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"riccatikit.{name}")
        for qual, fn in _public_callables(module):
            if inspect.isfunction(fn):  # a class's options are those of its __init__
                params = inspect.signature(fn).parameters.values()
                found |= {(f"{name}.{qual}", p.name) for p in params if p.default is not p.empty}
    assert found == set(KNOBS)


# Exports that no command, report or benchmark file reaches yet, each kept
# for the ROADMAP item that gives it a caller.
UNCALLED = {
    "convert_re_lode": "ROADMAP item 5 gives it a subcommand",
    "canonical_form": "ROADMAP item 15 gives it a caller",
    "cross_ratio_solution": "ROADMAP item 18 gives it a caller",
}


def _references(path):
    """Names, attribute names and string constants of the file at ``path``, outside its ``__all__``."""
    tree = ast.parse(path.read_text(), str(path))
    is_all = lambda node: "__all__" in {getattr(t, "id", None) for t in getattr(node, "targets", ())}
    tree.body = [node for node in tree.body if not is_all(node)]
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value
            yield node.value.split(".", 1)[0]  # "LUFactorization.__init__" in bench/spans.py


def test_every_export_has_a_caller():
    # a public name that only tests reach is code without a use; it goes,
    # or it waits in UNCALLED for the ROADMAP item that gives it a caller
    files = sorted((ROOT / "src" / "riccatikit").glob("*.py"))
    files += [path for path in sorted((ROOT / "bench").glob("*.py")) if not path.name.startswith("test_")]
    referenced = {ref for path in files for ref in _references(path)}
    modules = [importlib.import_module(f"riccatikit.{name}") for name in MODULES]
    exported = {attr for module in modules for attr in getattr(module, "__all__", ())}
    assert exported - referenced == set(UNCALLED)
