import json

import pytest

from binsum.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_eval_matches_known_value(capsys):
    code, out, _ = run_cli(capsys, "eval", "6", "1")
    assert code == 0
    assert out.strip() == "-5"


def test_eval_routes_agree(capsys):
    values = set()
    for route in ("auto", "direct", "reduced"):
        code, out, _ = run_cli(capsys, "eval", "40", "17", "--route", route)
        assert code == 0
        values.add(out.strip())
    assert len(values) == 1


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
