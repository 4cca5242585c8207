import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binsum
from binsum import certifier

# the names that `binsum` exports, by the submodule that defines them
EXPORTS = {
    "asymptotics": (
        "NearDiagonalBound", "Prediction", "Regime", "RegimeError", "SaddleData", "classify",
        "cos_lower_bound", "critical_boundary_constants", "gamma_angles", "gamma_cubic_bounds",
        "near_diagonal_error_bound", "normalized_residual", "oscillatory_error_bound", "predict",
        "saddle_data", "supercritical_error_bound", "supercritical_error_bound_refined",
    ),
    "certifier": (
        "AllUpToRule", "Certificate", "CertificateKind", "CFExpansion", "DiffRule", "DifferenceWindow",
        "ExceptionCount", "ListRule", "RatioRule", "ScanReport", "certify", "certify_by_term_growth",
        "continued_fraction", "difference_windows", "exception_count_bound", "scan_range",
    ),
    "exact": (
        "ExactValue", "PartitionPair", "Route", "binomial", "eval_diagonal", "eval_direct",
        "eval_reduced", "eval_row", "evaluate", "normalized_I", "row_step",
    ),
    "numerics": ("SLACK", "Comparison", "certified_compare", "to_real"),
    "polynomials": ("IntPolynomial", "c_poly", "factor_linear", "integer_roots", "tilde_poly"),
    "validators": ("LemmaReport", "validate_inequality"),
}


def test_every_export_is_its_submodules_object():
    assert sum(map(len, EXPORTS.values())) == 55
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"binsum.{module}")
        assert getattr(binsum, module) is source
        for name in names:
            assert getattr(binsum, name) is getattr(source, name), name


def test_a_star_import_gives_every_export_and_submodule():
    namespace = {}
    exec("from binsum import *", namespace)
    for module, names in EXPORTS.items():
        assert namespace[module] is getattr(binsum, module)
        for name in names:
            assert namespace[name] is getattr(binsum, name), name


@pytest.mark.parametrize("name", ["bogus", "cert", "_process_pool", "DEFAULT_BUDGET"])
def test_an_unknown_name_raises_attribute_error(name):
    with pytest.raises(AttributeError, match=f"module 'binsum' has no attribute '{name}'"):
        getattr(binsum, name)


def test_an_export_shows_a_patch_of_its_submodule(monkeypatch):
    # perfbench's tracer wraps submodule attributes, and `binsum.certify`
    # must call the wrapper
    original = certifier.certify

    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    monkeypatch.setattr(certifier, "certify", patched)
    assert binsum.certify is patched
    monkeypatch.undo()
    assert binsum.certify is original


def test_an_import_of_binsum_loads_a_submodule_on_first_use():
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys, binsum\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('binsum'))\n"
        "print(*loaded())\n"
        "binsum.PartitionPair\n"
        "print(*loaded())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["binsum", "binsum binsum.exact binsum.numerics"]


def test_an_import_of_the_command_line_leaves_the_validators_unloaded():
    # the `validate --lemma` choices come from binsum.lemmas; only the
    # `validate` command loads the validators and their libmp kernels
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import contextlib, io, sys, binsum.cli\n"
        "print('binsum.validators' in sys.modules, 'binsum.lemmas' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    binsum.cli.main(['validate', '--lemma', 'sub-g-decay', '--grid', '2x2'])\n"
        "print('binsum.validators' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]
    from binsum import lemmas, validators

    assert validators.LEMMA_IDS is lemmas.LEMMA_IDS
    assert tuple(validators._LEMMAS) == lemmas.LEMMA_IDS


def _private_imports(package: Path) -> list[str]:
    """Every underscore name that a module of `package` imports from another
    module of the package, as "module: from .source import name"."""
    return [
        f"{path.name}: from .{node.module or ''} import {alias.name}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").split(".")[0] == "binsum")
        for alias in node.names
        if alias.name.startswith("_")
    ]


def test_no_private_name_crosses_a_module_boundary():
    # a module's private names are its own: what another module reads of it
    # goes through a public name
    assert _private_imports(Path(__file__).resolve().parent.parent / "src" / "binsum") == []
