import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from binsum import certifier, cli
from binsum.certifier import CSV_HEADER
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


def test_cli_import_leaves_numpy_unloaded():
    # numpy costs every process tens of milliseconds and binsum needs none of
    # it, not even for the root search of `poly --roots`
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import contextlib, io, sys, binsum.cli\n"
        "print('numpy' in sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = binsum.cli.main(['poly', '--c', '38', '--roots', '1000000000'])\n"
        "print(code, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, env=env, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0", "False"]


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
    # both scans are below the pool threshold; lowered, parallelism 2 runs a real pool
    monkeypatch.setattr(certifier, "POOL_MIN_WORK", 0)
    monkeypatch.setattr(certifier, "_usable_cpus", lambda: 2)
    serial = run_cli(capsys, "--format", output_format, "--parallelism", "1", *argv)
    parallel = run_cli(capsys, "--format", output_format, "--parallelism", "2", *argv)
    assert serial == parallel
    assert serial[0] == code
    if code == 3 and output_format == "human":
        assert serial[1].count("inconclusive pair (") == 10
