"""The names the benchmark in perfbench/ reaches into binsum by must resolve.

perfbench/tracing.py wraps the functions in its TRACED table, and
perfbench/run.py calls cli.main and a few exact-layer names directly, so a
rename in binsum fails here instead of in a traced benchmark run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports its sibling `checks`
    had_checks = "checks" in sys.modules
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    try:
        spec.loader.exec_module(module)
    finally:
        if not had_checks:
            sys.modules.pop("checks", None)
    return module


def _binsum_module(short_name):
    return importlib.import_module("binsum" if short_name == "binsum" else f"binsum.{short_name}")


def test_traced_names_resolve(monkeypatch):
    tracing = _load_tracing(monkeypatch)
    for short_name in tracing.MODULES:
        _binsum_module(short_name)
    assert tracing.TRACED
    for name in tracing.TRACED:
        module_name, attr = name.split(".")
        assert module_name in tracing.MODULES, name
        assert callable(getattr(_binsum_module(module_name), attr, None)), name


def test_direct_hooks_resolve():
    exact = _binsum_module("exact")
    for attr in ("PartitionPair", "eval_direct", "eval_reduced", "evaluate"):
        assert callable(getattr(exact, attr, None)), attr
    assert callable(getattr(_binsum_module("cli"), "main", None))
