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
        "half_phase_angle", "near_diagonal_error_bound", "normalized_residual", "oscillatory_error_bound",
        "predict", "saddle_data", "supercritical_error_bound", "supercritical_error_bound_refined",
    ),
    "certifier": (
        "AllUpToRule", "Certificate", "CertificateKind", "DiffRule", "DifferenceWindow", "ListRule",
        "RatioRule", "ScanReport", "certify", "certify_by_term_growth", "difference_windows", "scan_range",
    ),
    "exact": (
        "ExactValue", "PartitionPair", "Route", "binomial", "eval_diagonal", "eval_direct",
        "eval_reduced", "eval_row", "evaluate", "normalized_I", "row_step",
    ),
    "exceptions": ("CFExpansion", "ExceptionCount", "continued_fraction", "exception_count_bound"),
    "numerics": ("SLACK", "Comparison", "certified_compare", "to_real"),
    "polynomials": ("IntPolynomial", "c_poly", "factor_linear", "integer_roots", "tilde_poly"),
    "validators": ("LemmaReport", "validate_inequality"),
}


def test_every_export_is_its_submodules_object():
    assert sum(map(len, EXPORTS.values())) == 56
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


def _run(script: str) -> subprocess.CompletedProcess:
    """Run `script` in a fresh interpreter that imports binsum from this
    checkout, and check that it exits 0."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_an_import_of_binsum_loads_a_submodule_on_first_use():
    script = (
        "import sys, binsum\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('binsum'))\n"
        "print(*loaded())\n"
        "binsum.PartitionPair\n"
        "print(*loaded())\n"
    )
    assert _run(script).stdout.splitlines() == ["binsum", "binsum binsum.exact binsum.numerics"]


def test_an_import_of_the_command_line_leaves_the_validators_unloaded():
    # the `validate --lemma` choices come from binsum.lemmas; only the
    # `validate` command loads the validators and their libmp kernels
    script = (
        "import contextlib, io, sys, binsum.cli\n"
        "print('binsum.validators' in sys.modules, 'binsum.lemmas' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    binsum.cli.main(['validate', '--lemma', 'sub-g-decay', '--grid', '2x2'])\n"
        "print('binsum.validators' in sys.modules)\n"
    )
    assert _run(script).stdout.split() == ["False", "True", "True"]
    from binsum import lemmas, validators

    assert validators.LEMMA_IDS is lemmas.LEMMA_IDS
    assert tuple(validators._LEMMAS) == lemmas.LEMMA_IDS


def test_only_the_exceptions_command_loads_its_module():
    script = (
        "import contextlib, io, sys, binsum.cli\n"
        "for argv in (['certify', '600', '100'], ['scan', '--l2', '1..3', '--diff', '1'], ['exceptions', '2', '1e6']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        binsum.cli.main(argv)\n"
        "    print('binsum.exceptions' in sys.modules)\n"
    )
    assert _run(script).stdout.split() == ["False", "False", "True"]


def test_eval_and_poly_load_neither_the_certifier_nor_the_asymptotics():
    script = (
        "import contextlib, io, sys, binsum.cli\n"
        "for argv in (['eval', '600', '100'], ['poly', '--c', '3', '--roots', '10'], ['certify', '600', '100']):\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        binsum.cli.main(argv)\n"
        "    print('binsum.certifier' in sys.modules, 'binsum.asymptotics' in sys.modules)\n"
    )
    assert _run(script).stdout.split() == ["False", "False", "False", "False", "True", "True"]


def test_no_module_of_binsum_loads_dataclasses_or_inspect():
    # every record is a named tuple: `dataclasses` and the `inspect` it
    # pulls in cost a fresh process milliseconds.  pytest loads both, so a
    # fresh interpreter imports every module, the certifier too, which the
    # command line loads only in its commands
    script = (
        "import sys, binsum.certifier, binsum.cli, binsum.exceptions, binsum.polynomials, binsum.validators\n"
        "print('dataclasses' in sys.modules, 'inspect' in sys.modules)\n"
    )
    assert _run(script).stdout.split() == ["False", "False"]


def test_the_checked_value_types_are_frozen_named_tuples():
    from fractions import Fraction

    from binsum.exact import PartitionPair
    from binsum.polynomials import IntPolynomial

    with pytest.raises(TypeError, match="^lambda1 and lambda2 must be integers$"):
        PartitionPair(2.0, 1)
    with pytest.raises(ValueError, match=r"^pair must satisfy lambda1 >= lambda2 >= 0, got \(2, 3\)$"):
        PartitionPair(2, 3)
    with pytest.raises(ValueError, match="^coefficient list must be nonempty$"):
        IntPolynomial(())
    with pytest.raises(ValueError, match="^scale must be a positive integer$"):
        IntPolynomial((1,), scale=0)
    # `_replace` checks as the constructor does
    with pytest.raises(ValueError, match=r"got \(6, 7\)"):
        PartitionPair(6, 4)._replace(lambda2=7)
    with pytest.raises(ValueError, match="^scale must be a positive integer$"):
        IntPolynomial((1,))._replace(scale=-1)

    pair, poly = PartitionPair(6, 4), IntPolynomial((1, 2), 3, "c", (2,))
    for value, field in ((pair, "lambda1"), (poly, "scale")):
        with pytest.raises(AttributeError):
            setattr(value, field, 5)
    assert pair == PartitionPair(6, 4) and hash(pair) == hash(PartitionPair(6, 4))
    assert poly == IntPolynomial((1, 2), 3, "c", (2,)) and hash(poly) == hash(IntPolynomial((1, 2), 3, "c", (2,)))
    assert pair != PartitionPair(6, 5) and poly != poly._replace(family=None)
    assert repr(pair) == "PartitionPair(lambda1=6, lambda2=4)"
    assert repr(poly) == "IntPolynomial(coefficients=(1, 2), scale=3, family='c', params=(2,))"
    assert repr(IntPolynomial((1,))) == "IntPolynomial(coefficients=(1,), scale=1, family=None, params=())"
    assert pair.ratio == Fraction(3, 2) and pair.ratio is pair.ratio


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
