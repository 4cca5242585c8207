import contextlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

from binsum import certifier, cli
from binsum.certifier import CSV_HEADER, CertificateKind
from binsum.cli import build_parser, main, _unlimited_int_str
from binsum.exact import PartitionPair, evaluate


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_matches_known_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "6", "1")
    assert code == 0
    assert out.strip() == "-5"


def test_eval_routes_agree(capsys):
    for pair, routes in [
        (("40", "17"), ("auto", "direct", "reduced", "row")),
        (("0", "0"), ("auto", "direct", "reduced", "row", "diagonal")),
        (("40", "40"), ("auto", "direct", "reduced", "row", "diagonal")),
    ]:
        values = set()
        for route in routes:
            code, out, _ = run_cli(capsys, "eval", *pair, "--route", route)
            assert code == 0
            values.add(out.strip())
        assert len(values) == 1, pair


def _int_str_limit():
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    return get_limit() if get_limit else None


def test_eval_prints_values_past_the_int_str_limit(capsys):
    limit = _int_str_limit()
    code, out, _ = run_cli(capsys, "eval", "100702", "100000")
    assert code == 0
    assert len(out.strip()) > 4300
    assert _int_str_limit() == limit
    with _unlimited_int_str():
        assert int(out) == evaluate(PartitionPair(100702, 100000)).value
    assert _int_str_limit() == limit


def test_eval_without_int_str_limit_functions(capsys, monkeypatch):
    # interpreters before CPython 3.10.7 have neither function and no limit
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    code, out, _ = run_cli(capsys, "eval", "40", "17")
    assert code == 0
    assert int(out) == evaluate(PartitionPair(40, 17)).value


def test_eval_rejects_bad_pair(capsys):
    code, _, err = run_cli(capsys, "eval", "3", "7")
    assert code == 2
    assert "error" in err


def test_certify_diagonal_refused(capsys):
    code, out, _ = run_cli(capsys, "certify", "4", "4")
    assert code == 0
    row = json.loads(out)
    assert row["certificate"] == "refused"


def test_certify_human_names_rule(capsys):
    code, out, _ = run_cli(capsys, "--format", "human", "certify", "6", "1")
    assert code == 0
    assert "exact evaluation" in out


@pytest.mark.parametrize("budget", ["0", "100000000"])
def test_certify_csv_is_the_scan_csv_of_the_pair(capsys, budget):
    code, out, _ = run_cli(capsys, "--format", "csv", "--budget", budget, "certify", "300", "100")
    assert code == 0
    assert out.splitlines()[0] == CSV_HEADER
    assert out.count("\n") == 2
    code, scanned, _ = run_cli(capsys, "--format", "csv", "--budget", budget, "scan", "--l2", "100..100", "--l1-list", "300")
    assert code == (3 if budget == "0" else 0)
    assert out == scanned


@pytest.mark.parametrize(
    "argv",
    [
        ("predict", "300", "100"),
        ("poly", "--c", "3"),
        ("exceptions", "2", "100"),
        ("validate", "--lemma", "near1-g-decay", "--grid", "3x3"),
        ("plotdata", "--l2", "20..40", "--ratio", "3"),
    ],
)
@pytest.mark.parametrize("from_config", [False, True])
def test_commands_without_csv_refuse_it_before_any_work(capsys, monkeypatch, tmp_path, argv, from_config):
    # poly and exceptions print JSON only, so they refuse human as well as
    # csv; plotdata prints csv only, so it refuses jsonl and human
    refused, usable = {
        "poly": (("csv", "human"), "jsonl"),
        "exceptions": (("csv", "human"), "jsonl"),
        "plotdata": (("jsonl", "human"), "csv"),
    }.get(argv[0], (("csv",), "jsonl or human"))

    def must_not_run(args, config):
        raise AssertionError("the command ran")

    monkeypatch.setitem(cli._COMMANDS, argv[0], (must_not_run, cli._COMMANDS[argv[0]][1]))
    for output_format in refused:
        config = tmp_path / "run.conf"
        config.write_text(f"format = {output_format}\n")
        flags = ("--config", str(config)) if from_config else ("--format", output_format)
        code, out, err = run_cli(capsys, *flags, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {argv[0]} has no {output_format} output; use --format {usable}\n"


def test_predict_human_lines(capsys):
    code, out, _ = run_cli(capsys, "--format", "human", "predict", "100702", "100000")
    assert code == 0
    assert "detail          near-diagonal row" in out
    assert "valid from" not in out
    code, out, _ = run_cli(capsys, "--format", "human", "predict", "2000", "1000")
    assert code == 0
    assert "regime         subcritical" in out
    assert "valid from      lambda2 >= " in out
    assert "detail" not in out


def test_predict_jsonl_fields(capsys):
    code, out, _ = run_cli(capsys, "predict", "1200", "200")
    assert code == 0
    row = json.loads(out)
    assert row["regime"] == "supercritical"
    assert row["normalized_main"] == 1
    assert row["valid"] is True
    # 17-digit float round trip: parse then re-format reproduces the text
    text = format(row["error_bound"], ".17g")
    assert format(float(text), ".17g") == text


def test_scan_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "--budget", "0", "scan", "--l2", "720..720", "--diff", "1")
    assert code == 3
    assert json.loads(out.splitlines()[0])["certificate"] == "inconclusive"
    code, out, _ = run_cli(capsys, "scan", "--l2", "1..5", "--all-l1-up-to", "10")
    assert code == 0


def test_scan_csv_header(capsys):
    code, out, _ = run_cli(capsys, "--format", "csv", "scan", "--l2", "1..3", "--diff", "2")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda1,lambda2,class,certificate,margin,exact_sign,usec"
    assert len(lines) == 4


def test_scan_jsonl_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "scan", "--l2", "1..20", "--all-l1-up-to", "40")
    assert code == 0
    for line in out.splitlines():
        row = json.loads(line)
        assert isinstance(row["lambda1"], int)
        if row["margin"] is not None:
            assert json.loads(json.dumps(row["margin"])) == row["margin"]


def test_intervals_output(capsys):
    code, out, _ = run_cli(capsys, "intervals", "100000")
    assert code == 0
    rows = [json.loads(line) for line in out.splitlines()]
    assert all(set(r) == {"class", "clause", "lambda1_lo", "lambda1_hi", "basis"} for r in rows)
    assert any(r["basis"] == "window-table" for r in rows)


@pytest.mark.parametrize("output_format", ["csv", "human"])
def test_intervals_csv_and_human_list_the_jsonl_windows(capsys, output_format):
    _, out, _ = run_cli(capsys, "intervals", "100000")
    rows = [json.loads(line) for line in out.splitlines()]
    code, out, _ = run_cli(capsys, "--format", output_format, "intervals", "100000")
    assert code == 0
    lines = out.splitlines()
    if output_format == "csv":
        assert lines[0] == "class,clause,lambda1_lo,lambda1_hi,basis"
        assert lines[1:] == [f"{r['class']},{r['clause']},{r['lambda1_lo']},{r['lambda1_hi']},{r['basis']}" for r in rows]
    else:
        assert len(lines) == len(rows)
        for line, r in zip(lines, rows):
            assert line.startswith(f"class {r['class']}  {r['clause']}")
            assert f"[{r['lambda1_lo']}, {r['lambda1_hi']}]" in line and line.endswith(r["basis"])
            assert f"(diff [{r['lambda1_lo'] - 100000}, {r['lambda1_hi'] - 100000}])" in line


def test_poly_with_roots(capsys):
    code, out, _ = run_cli(capsys, "poly", "--c", "3", "--roots", "1000000")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["6", "-29", "12", "-1"]
    assert payload["roots"] == ["3"]


def test_poly_tilde(capsys):
    code, out, _ = run_cli(capsys, "poly", "--tilde", "1", "0", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "-2"]


def test_exceptions_subcritical(capsys):
    code, out, _ = run_cli(capsys, "exceptions", "2", "1000000", "--depth", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "main-term"
    assert payload["remainder"] == "unquantified"
    assert payload["legendre_quality"] is True
    assert len(payload["cf_quotients"]) == 8
    assert abs(payload["coefficient"] - 1011.527) < 0.01


def test_exceptions_supercritical(capsys):
    code, out, _ = run_cli(capsys, "exceptions", "6", "100")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "bounded-count"
    assert payload["main_term"] is None


def test_validate_command(capsys):
    code, out, _ = run_cli(capsys, "validate", "--lemma", "near1-g-decay", "--grid", "6x6")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["points"] == 36


def test_validate_grid_of_one_ratio_checks_the_low_end_of_the_range(capsys):
    # NRxNT with NR = 1 takes the lemma's least default ratio alone
    code, out, _ = run_cli(capsys, "validate", "--lemma", "near1-g-decay", "--grid", "1x4")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["points"] == 4
    assert payload["worst_r"] == "101/100"


def test_validate_human(capsys):
    code, out, _ = run_cli(capsys, "--format", "human", "validate", "--lemma", "near1-g-decay", "--grid", "6x6")
    assert code == 0
    lines = out.splitlines()
    assert [line.split()[0] for line in lines] == ["lemma", "points", "max_margin", "worst_r", "worst_theta", "passed"]
    assert "points       36" in lines and "passed       True" in lines


def test_plotdata_columns(capsys):
    code, out, _ = run_cli(capsys, "plotdata", "--ratio", "6", "--l2", "50..60")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "lambda2,residual,bound"
    assert len(lines) == 12
    for line in lines[1:]:
        _, residual, bound = line.split(",")
        assert float(residual) <= float(bound)


def test_plotdata_near_diagonal_route(capsys):
    code, out, _ = run_cli(capsys, "plotdata", "--diff", "703", "--l2", "78656..78658")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        _, residual, bound = line.split(",")
        assert float(residual) <= float(bound)
        assert float(bound) < 0.0165


def test_scan_human_format_lists_inconclusive(capsys):
    code, out, _ = run_cli(capsys, "--format", "human", "--budget", "0", "scan", "--l2", "720..721", "--diff", "1")
    assert code == 3
    assert "inconclusive pair (721, 720)" in out


def test_config_file_and_flag_override(capsys, tmp_path):
    config = tmp_path / "run.conf"
    config.write_text("budget = 0\nformat = csv  # comment\n")
    code, out, _ = run_cli(capsys, "--config", str(config), "scan", "--l2", "720..720", "--diff", "1")
    assert code == 3
    assert out.splitlines()[0].startswith("lambda1,")
    # explicit flag wins over the file
    code, out, _ = run_cli(capsys, "--config", str(config), "--format", "jsonl", "scan", "--l2", "720..720", "--diff", "1")
    assert code == 3
    assert out.splitlines()[0].startswith("{")


def test_config_file_unknown_key(capsys, tmp_path):
    config = tmp_path / "bad.conf"
    config.write_text("volume = 11\n")
    code, _, err = run_cli(capsys, "--config", str(config), "eval", "6", "1")
    assert code == 2
    assert "unknown key" in err


def test_the_decision_slack_is_no_option(capsys, tmp_path):
    # the slack is the fixed numerics.SLACK: neither a flag nor a config key sets it
    code, out, err = _run_any(capsys, ("--slack-exponent", "40", "certify", "300", "100"))
    assert code == 2
    assert out == ""
    assert "binsum: error:" in err
    config = tmp_path / "slack.conf"
    config.write_text("slack_exponent = 40\n")
    code, out, err = run_cli(capsys, "--config", str(config), "certify", "300", "100")
    assert code == 2
    assert out == ""
    assert err == f"error: {config}:1: unknown key 'slack_exponent'\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("--slack-exponent", "40", "certify", "300", "100"), "--slack-exponent"),
        (("--budget", "-5", "--bogus", "7", "scan", "--l2", "1..2", "--diff", "1"), "--bogus"),
        (("--prec", "53", "-q", "1", "eval", "6", "1"), "-q"),
    ],
)
def test_an_unknown_option_before_the_command_is_named(capsys, argv, flag):
    # argparse would take the value after the option for the command and name that value
    code, out, err = _run_any(capsys, argv)
    assert code == 2
    assert out == ""
    assert err == f"binsum: error: unrecognized option {flag}\n"


def test_abbreviated_and_malformed_options_keep_their_argparse_handling(capsys):
    code, out, _ = _run_any(capsys, ("--prec", "53", "--bud", "10", "eval", "6", "1"))
    assert (code, out) == (0, "-5\n")
    for argv, message in [
        (("--budget", "abc", "eval", "6", "1"), "argument --budget: invalid int value: 'abc'"),
        (("bogus", "1"), "argument command: invalid choice: 'bogus'"),
        (("--slack-exponent=40", "eval", "6", "1"), "unrecognized arguments: --slack-exponent=40"),
    ]:
        code, out, err = _run_any(capsys, argv)
        assert (code, out) == (2, "")
        assert err.startswith("usage: binsum")
        assert f"binsum: error: {message}" in err


@pytest.mark.parametrize("text, value", [("1", True), ("TRUE", True), ("Yes", True), ("0", False), ("false", False), ("NO", False)])
def test_config_file_timings_take_either_truth_value(tmp_path, text, value):
    config = tmp_path / "run.conf"
    config.write_text(f"timings = {text}\n")
    assert cli.load_config_file(str(config)) == {"timings": value}


@pytest.mark.parametrize(
    "text, message",
    [
        ("budget = abc\n", ":2: budget: invalid literal for int() with base 10: 'abc'"),
        ("budget\n", ":2: expected key=value, got 'budget'"),
        ("format = xml\n", "unknown output format 'xml'"),
        ("budget = -1\n", "budget must be nonnegative"),
        ("timings = banana\n", ":2: timings: expected 1/true/yes or 0/false/no, got 'banana'"),
        ("timings =\n", ":2: timings: expected 1/true/yes or 0/false/no, got ''"),
    ],
    ids=["not-an-int", "no-equals", "unknown-format", "negative-budget", "not-a-bool", "empty-bool"],
)
def test_config_file_bad_values_exit_2_with_one_error_line(capsys, tmp_path, text, message):
    config = tmp_path / "bad.conf"
    config.write_text("# one bad line\n" + text)
    code, out, err = run_cli(capsys, "--config", str(config), "eval", "6", "1")
    assert code == 2
    assert out == ""
    assert err.count("error:") == 1 and err.endswith("\n") and err.count("\n") == 1
    assert message in err


def test_precision_below_minimum_exits_2(capsys):
    code, _, err = run_cli(capsys, "--precision", "40", "certify", "7", "1")
    assert code == 2
    assert err == "error: working precision must be >= 53 bits, got 40\n"


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_bad_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--l2", "1..5"])  # missing rule choice
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ("scan", "--l2", "1..3", "--ratio", "1/0"),
        ("exceptions", "1/0", "10"),
    ],
)
def test_zero_denominator_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.splitlines()[-1].endswith("zero denominator in '1/0'")


@pytest.mark.parametrize("x", ["nan", "1e400"])
def test_exceptions_rejects_non_finite_x(capsys, x):
    code, out, err = run_cli(capsys, "exceptions", "2", x)
    assert code == 2
    assert out == ""
    assert err.startswith("error: x must be finite") and err.count("\n") == 1


@pytest.mark.parametrize("ratio", ["6", "2"])  # supercritical and subcritical
@pytest.mark.parametrize("x", ["-5", "0", "0.5"])
def test_exceptions_rejects_x_below_one_for_every_ratio(capsys, ratio, x):
    code, out, err = run_cli(capsys, "exceptions", ratio, x)
    assert code == 2
    assert out == ""
    assert err == f"error: x must be finite and >= 1, got {float(x)}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("plotdata", "--diff", "0", "--l2", "1..3"),
        ("plotdata", "--ratio", "1", "--l2", "1..3"),
        ("scan", "--diff", "0", "--l2", "1..3"),
        ("scan", "--l1-list", "2,3", "--l2", "5..9"),
    ],
)
def test_rules_without_pairs_exit_2_with_empty_stdout(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == "error: the scan rule generates no pairs on this range\n"


@pytest.mark.parametrize("delta", ["nan", "5", "-1", "inf", "0"])
@pytest.mark.parametrize("pair", [("1200", "200"), ("60", "10")])
def test_certify_rejects_bad_delta_for_every_pair(capsys, delta, pair):
    # (1200, 200) is decided by the plain bound, (60, 10) would try the refined one
    code, out, err = run_cli(capsys, "--budget", "0", "certify", "--delta", delta, *pair)
    assert code == 2
    assert out == ""
    assert err.startswith("error: delta must lie in (0, pi/3]") and err.count("\n") == 1


def _src_env() -> dict:
    """The environment of a child process that imports binsum from this checkout's src/."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _fresh_imports(*argv) -> set[str]:
    """The modules loaded at the exit of a fresh process that runs `argv` as
    `python -m binsum` does.  (-X importtime would miss the submodules that
    the package loads through importlib.)"""
    script = (
        "import atexit, runpy, sys\n"
        "atexit.register(lambda: print(*sys.modules, sep='\\n', file=sys.stderr))\n"
        "runpy.run_module('binsum', run_name='__main__', alter_sys=True)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, env=_src_env(), text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stderr.split())


def test_cli_import_leaves_numpy_unloaded():
    # numpy costs every process tens of milliseconds and binsum needs none of
    # it, not even for the root search of `poly --roots`
    script = (
        "import contextlib, io, sys, binsum.cli\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = binsum.cli.main(['poly', '--c', '38', '--roots', '1000000000'])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_src_env(), text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "False"]
    # each of these costs a fresh process milliseconds, and a one-pair
    # certificate starts no pool, prints no json.dumps output and builds no
    # polynomial; `poly` is the control that the module list is read
    certify = _fresh_imports("certify", "600000", "100000")
    assert "binsum.certifier" in certify
    for module in ("numpy", "concurrent.futures.process", "multiprocessing", "json", "binsum.polynomials"):
        assert module not in certify
    assert "binsum.polynomials" in _fresh_imports("poly", "--c", "38")


def test_validate_names_every_lemma_on_a_bad_choice_and_in_its_help(capsys):
    lemmas = (
        "super-g-decay", "super-g-strict", "super-g-quartic", "super-h-cubic",
        "sub-f-cubic", "sub-g-decay", "near1-f-cubic", "near1-g-decay",
    )
    code, out, err = _run_any(capsys, ("validate", "--lemma", "bogus"))
    assert (code, out) == (2, "")
    choices = ", ".join(f"'{lemma}'" for lemma in lemmas)
    message = f"binsum validate: error: argument --lemma: invalid choice: 'bogus' (choose from {choices})"
    assert [line for line in err.splitlines() if "error:" in line] == [message]
    code, out, err = _run_any(capsys, ("validate", "--help"))
    assert (code, err) == (0, "")
    assert "{" + ",".join(lemmas) + "}" in out


def _run_any(capsys, argv):
    """(exit code, stdout, stderr) of one in-process call, argparse exits included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "first, second",
    [
        (("--timings", "--format", "csv", "scan", "--l2", "1..4", "--all-l1-up-to", "9"), ("scan", "--l2", "1..4", "--all-l1-up-to", "9")),
        (("scan", "--l2", "5..8", "--ratio", "3"), ("scan", "--l2", "5..8", "--diff", "4")),
        (("scan", "--l2", "1..5"), ("certify", "7", "1")),  # argparse error: no rule
        (("--precision", "40", "certify", "7", "1"), ("certify", "7", "1")),
        (("--format", "human", "--budget", "0", "certify", "1200", "200"), ("certify", "1200", "200")),
    ],
)
def test_consecutive_main_calls_share_no_state(capsys, first, second):
    assert build_parser() is build_parser()
    _run_any(capsys, first)
    after = _run_any(capsys, second)
    build_parser.cache_clear()
    fresh = _run_any(capsys, second)
    assert after == fresh
    assert after[0] == 0


@pytest.mark.parametrize("output_format", ["csv", "human"])
@pytest.mark.parametrize(
    "argv, code",
    [
        (("scan", "--l2", "1..40", "--all-l1-up-to", "80"), 0),
        # 10 of the 60 pairs stay inconclusive: human lists them, exit 3
        (("--budget", "0", "scan", "--l2", "100000..100059", "--ratio", "2"), 3),
    ],
)
def test_scan_output_is_the_same_at_parallelism_1_and_2(capsys, monkeypatch, output_format, argv, code):
    # both scans are below the pool threshold; lowered, with a chunk per row,
    # parallelism 2 runs a real pool
    monkeypatch.setattr(certifier, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(certifier, "CHUNK_PAIRS", 1)
    monkeypatch.setattr(certifier, "_usable_cpus", lambda: 2)
    serial = run_cli(capsys, "--format", output_format, "--parallelism", "1", *argv)
    parallel = run_cli(capsys, "--format", output_format, "--parallelism", "2", *argv)
    assert serial == parallel
    assert serial[0] == code
    if code == 3 and output_format == "human":
        assert serial[1].count("inconclusive pair (") == 10


@pytest.mark.parametrize("parallelism", ["1", "2"])
@pytest.mark.parametrize("output_format", ["jsonl", "csv", "human"])
def test_scan_exits_3_when_its_only_inconclusive_pair_is_in_the_last_row(capsys, monkeypatch, output_format, parallelism):
    # (200150, 100075) is the one inconclusive pair of these six; lowered,
    # the pool threshold and chunk size send every row of parallelism 2 to a
    # real pool, each as a chunk of its own
    monkeypatch.setattr(certifier, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(certifier, "CHUNK_PAIRS", 1)
    monkeypatch.setattr(certifier, "_usable_cpus", lambda: 2)
    argv = ("--format", output_format, "--parallelism", parallelism, "--budget", "0")
    code, out, err = run_cli(capsys, *argv, "scan", "--l2", "100070..100075", "--ratio", "2")
    assert (code, err) == (3, "")
    assert out.count("inconclusive") == (2 if output_format == "human" else 1)
    assert "200150" in out.splitlines()[-1]


@pytest.mark.parametrize("output_format", ["jsonl", "csv", "human"])
@pytest.mark.parametrize(
    "argv, message",
    [
        (("scan", "--l2", "5..4", "--ratio", "2"), "empty or invalid lambda2 range (5, 4)"),
        (("scan", "--l2", "1..3", "--l1-list", "1"), "the scan rule generates no pairs on this range"),
        (("--parallelism", "0", "scan", "--l2", "1..3", "--diff", "1"), "parallelism must be >= 1"),
        (("--parallelism", "2", "--precision", "40", "scan", "--l2", "1..3", "--diff", "1"), "precision"),
        # the rule has no pair, found without walking the 10**18 lambda2
        (("scan", "--l2", "1..1000000000000000000", "--diff", "0"), "the scan rule generates no pairs on this range"),
    ],
)
def test_a_refused_scan_writes_nothing_to_stdout_before_exit_2(capsys, monkeypatch, output_format, argv, message):
    monkeypatch.setattr(certifier, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(certifier, "_usable_cpus", lambda: 2)
    code, out, err = run_cli(capsys, "--format", output_format, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


def _traced_peak(argv) -> int:
    """The peak traced memory (tracemalloc) of one in-process `binsum argv`
    whose stdout goes to os.devnull."""
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        tracemalloc.start()
        try:
            main(list(argv))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


@pytest.mark.parametrize("output_format", ["jsonl", "csv", "human"])
def test_a_scan_holds_no_more_memory_for_more_rows(monkeypatch, output_format):
    # every pair of the ratio-6 line is supercritical; the ratio-2 line
    # leaves about one pair in six inconclusive, which human output keeps
    # until the end, at a few hundred bytes each.  A scan holds one chunk of
    # rows at a time, cut here to 64 pairs so that both scans span many
    monkeypatch.setattr(certifier, "CHUNK_PAIRS", 64)
    for rule, l2_lo in (("6", 2800), ("2", 100000)):
        ranges = [(l2_lo, l2_lo + rows - 1) for rows in (400, 1600)]
        scans = [("--format", output_format, "--budget", "0", "scan", "--l2", f"{lo}..{hi}", "--ratio", rule) for lo, hi in ranges]
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            main(list(scans[1]))  # fills the caches of the line and the interpreter
        small, large = (_traced_peak(scan) for scan in scans)
        kept = 0
        if output_format == "human":
            small_kept, large_kept = (
                len(certifier.scan_range(l2s, certifier.RatioRule(Fraction(rule)), budget=0).pairs(CertificateKind.INCONCLUSIVE))
                for l2s in ranges
            )
            kept = large_kept - small_kept
        assert large - small < 16 * 1024 + 512 * kept, (rule, small, large, kept)


def test_a_scan_into_a_closed_pipe_stops_with_exit_141_and_nothing_on_stderr():
    # a reader that closes after one line stops the scan at its next write;
    # either whole scan would take hours.  With stdout block-buffered, the
    # first line of the ratio-3 scan reaches the reader only after about 70
    # rows, and its work starts the pool at parallelism 2 after four
    scans = [
        ("scan", "--l2", "1..100000", "--all-l1-up-to", "200000"),
        ("--parallelism", "2", "scan", "--l2", "2000..100000", "--ratio", "3"),
    ]
    env = _src_env()
    env.pop("PYTHONUNBUFFERED", None)
    for scan in scans:
        proc = subprocess.Popen(
            [sys.executable, "-m", "binsum", *scan], stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        assert proc.stdout.readline().startswith(b'{"lambda1":')
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
        assert (proc.returncode, err) == (cli.CLOSED_STDOUT, b"")
    assert cli.CLOSED_STDOUT == 141


@pytest.mark.parametrize("argv", [("scan", "--l2", "1..30", "--diff", "1"), ("certify", "300", "100")])
def test_a_command_started_with_its_stdout_closed_runs_and_prints_nothing(argv):
    proc = subprocess.run(
        [sys.executable, "-m", "binsum", *argv],
        preexec_fn=lambda: os.close(1),
        stderr=subprocess.PIPE,
        env=_src_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")


# lambda1/lambda2 = (floor((3 + 2*sqrt(2))*10**60) + 1)/10**60, just past the
# threshold, at lambda2 = 10**80
_PAST_THRESHOLD = (str((3 * 10**60 + math.isqrt(8 * 10**120) + 1) * 10**20), str(10**80))


def test_certify_next_to_the_threshold_exits_0_without_a_traceback(capsys):
    # M is 3.3e-46 here, which cancellation must not round to 0 and divide by
    code, out, err = run_cli(
        capsys,
        "certify",
        "5828427124746201232436262647716171641439426816647165205764178",
        "1000000000000001910435293584319143543207478020302322493795400",
    )
    assert (code, err) == (0, "")
    assert json.loads(out)["certificate"] == "inconclusive"


def test_certify_just_past_the_threshold_is_not_supercritical_at_53_bits(capsys):
    # 128 bits and more leave it inconclusive
    code, out, _ = run_cli(capsys, "--precision", "53", "certify", *_PAST_THRESHOLD)
    assert code == 0
    assert json.loads(out)["certificate"] != "nonzero_supercritical"


def test_exceptions_angle_next_to_the_threshold_does_not_depend_on_the_precision(capsys):
    angles = []
    for precision in ("53", "128"):
        code, out, _ = run_cli(capsys, "--format", "jsonl", "--precision", precision, "exceptions", "1457/250", "1e6")
        assert code == 0
        angles.append(json.loads(out)["angle"])
    assert angles[0] == angles[1]


def _strict_json(text):
    """json.loads of text that refuses NaN, Infinity and -Infinity, with every
    float read as its exact Decimal."""

    def reject(name):
        raise ValueError(f"{name} is not a JSON number")

    return json.loads(text, parse_constant=reject, parse_float=Decimal)


def test_predict_past_the_double_range_prints_a_json_number(capsys):
    # the log normalizer, about -(l1 + l2)/2 * log(2) = -1.04e309, is past the
    # largest double; jsonl writes its 17 significant digits, as human does
    l1, l2 = str(2 * 10**309 + 1), str(10**309)
    code, out, _ = run_cli(capsys, "predict", l1, l2)
    assert code == 0
    row = _strict_json(out)
    log_normalizer = row["log_normalizer"]
    assert Decimal("-1.0398e309") < log_normalizer < Decimal("-1.0397e309")
    assert len(log_normalizer.as_tuple().digits) <= 17
    assert 0 < row["error_bound"] < 1
    text = out.rsplit('"log_normalizer":', 1)[1].rstrip("}\n")
    code, out, _ = run_cli(capsys, "--format", "human", "predict", l1, l2)
    assert code == 0
    assert f"log normalizer  {text}\n" in out


def test_exceptions_past_the_double_range_prints_a_json_number(capsys):
    # r = (3q + 2p)/q for the first convergent p/q of sqrt(2) with
    # p**2 - 2*q**2 = -1 and q > 10**55: nd = 4/q**2, so the coefficient is
    # near 2.8e306 and the main term, 1000*log(10**6) times that, past the
    # largest double
    p, q = 1, 1
    while q <= 10**55 or p * p - 2 * q * q != -1:
        p, q = p + 2 * q, p + q
    code, out, _ = run_cli(capsys, "exceptions", f"{3 * q + 2 * p}/{q}", "1e6")
    assert code == 0
    payload = _strict_json(out)
    # a value within the double range keeps the bytes of json.dumps
    assert '"coefficient": 2.840821156456889e+306, ' in out
    main_term = payload["main_term"]
    assert abs(main_term / (payload["coefficient"] * 1000 * Decimal(10**6).ln()) - 1) < Decimal("1e-15")
    assert len(main_term.as_tuple().digits) <= 17
