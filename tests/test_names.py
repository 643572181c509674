"""Names other code reaches by string resolve: each module's ``__all__``, and the bench tracer's layers."""

import importlib
import importlib.util
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
