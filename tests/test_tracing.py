"""The benchmark's tracer wraps package functions by the names its callers look up."""

import importlib
import importlib.util
import sys
from pathlib import Path

LAYERS = ("cli", "verify", "amalgam", "norms", "maximal", "gridfn")


def test_tracer_finds_every_name_and_restores_every_module(monkeypatch):
    # bench/tracing.py is imported as it is: a name it wraps that the package lost fails here
    path = Path(__file__).parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # its dataclasses look their module up
    spec.loader.exec_module(tracing)
    modules = {name: importlib.import_module(f"grandamalgam.{name}") for name in LAYERS}
    box = modules["gridfn"].BoxDomain
    namespaces = [*(vars(m) for m in modules.values()), vars(box)]
    before = [dict(ns) for ns in namespaces]
    tracer = tracing.Tracer()
    try:
        tracer.install_package(modules)
    finally:
        tracer.restore()
    for ns, old in zip(namespaces, before):
        assert ns.keys() == old.keys()
        assert all(ns[key] is value for key, value in old.items())
