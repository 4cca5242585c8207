"""tools/identity.py must keep producing a command set that binsum accepts.

The harness hashes the output of a fixed set of commands so that two
checkouts can be compared byte for byte; a renamed flag, lemma or route
would otherwise turn part of that set into argument errors unnoticed.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from binsum.cli import build_parser
from binsum.exact import Route
from binsum.validators import LEMMA_IDS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "identity.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("identity_tool", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_identity_command_parses_and_the_set_covers_lemmas_and_routes():
    tool = _load_tool()
    argvs = tool.commands()
    parser = build_parser()
    for argv in argvs:
        if "1/0" in argv:  # a ratio with a zero denominator, which the parser refuses
            with pytest.raises(SystemExit):
                parser.parse_args(argv)
        else:
            parser.parse_args(argv)  # raises or exits on an argument the parser does not know
    assert len(argvs) == len({tuple(argv) for argv in argvs})
    assert set(tool.LEMMAS) == set(LEMMA_IDS)
    assert set(tool.ROUTES) == {"auto", *(route.value for route in Route)}
    # parallelism 2 is the twin of each scan; 0 is an error path that must exit 2
    assert {argv[argv.index("--parallelism") + 1] for argv in argvs if "--parallelism" in argv} == {"0", "2"}
    # the rule-end, pool and cascade scans and every refusal but the worker
    # count run in each format at parallelism 1 and 2
    for scan in (*tool.RULE_END_SCANS, *tool.POOL_SCANS, *tool.CASCADE_SCANS, *tool.ERROR_SCANS[:-1]):
        for flags in ((), ("--parallelism", "2")):
            for fmt in tool.FORMATS:
                assert ["--format", fmt, *flags, *scan] in argvs
    assert tool.ERROR_SCANS[-1][:2] == ("--parallelism", "0")
    # a difference line in the pool, and a non-difference scan whose rows
    # repeat differences through the window and near-diagonal steps
    assert ("--budget", "0", "scan", "--l2", "100000..126999", "--diff", "800") in tool.POOL_SCANS
    assert ("--budget", "0", "scan", "--l2", "100000..100003", "--all-l1-up-to", "101700") in tool.CASCADE_SCANS
    # difference lines through the near-diagonal step, at both precisions
    for d, lo, hi, _ in tool.NEAR_DIAGONAL_SCANS:
        for precision in ("53", "200"):
            scan = ["--budget", "0", "--precision", precision, "scan", "--l2", f"{lo}..{hi}", "--diff", str(d)]
            assert ["--format", "jsonl", "--parallelism", "2", *scan] in argvs
    # the public functions read the ratio-6 line after the ratio-6 scans at
    # the same precision
    for argv in tool.RATIO_READERS:
        precision = argv[1]
        scan = ["--format", "jsonl", "--budget", "0", "--precision", precision, "scan", "--l2", "1..400", "--ratio", "6"]
        assert argvs.index(scan) < argvs.index(["--format", "jsonl", *argv])


def test_identity_refusals_exit_2_and_print_nothing():
    tool = _load_tool()
    for argv in (*tool.ERROR_SCANS, *tool.EXCEPTION_REFUSALS):
        assert tool.run(list(argv)) == (hashlib.sha256(b"").hexdigest(), 2)


def test_identity_line_hashes_stdout_and_keeps_the_exit_code():
    tool = _load_tool()
    assert tool.run(["eval", "6", "1"]) == (hashlib.sha256(b"-5\n").hexdigest(), 0)
    assert tool.run(["--format", "csv", "predict", "300", "100"]) == (hashlib.sha256(b"").hexdigest(), 2)


def test_identity_exits_1_on_the_first_scan_that_differs_from_its_parallelism_1_twin(monkeypatch, capsys):
    tool = _load_tool()
    scan = ["scan", "--l2", "1..3", "--diff", "1"]
    par2 = ["--parallelism", "2", *scan]
    argvs = [scan, par2, ["--format", "csv", *scan], ["--format", "csv", "--parallelism", "2", *scan]]
    assert [tool.serial_twin(argv) for argv in argvs] == [None, scan, None, argvs[2]]
    assert tool.serial_twin(["--parallelism", "0", *scan]) is None
    monkeypatch.setattr(tool, "commands", lambda: argvs)
    assert tool.main() == 0
    assert capsys.readouterr().out.count("\n") == 4
    real_output = tool.output
    monkeypatch.setattr(tool, "output", lambda argv: ("", 0) if "--parallelism" in argv else real_output(argv))
    assert tool.main() == 1
    out, err = capsys.readouterr()
    assert out.count("\n") == 4
    assert err == "error: --parallelism 2 scan --l2 1..3 --diff 1 differs from scan --l2 1..3 --diff 1\n"


@pytest.mark.parametrize("line", ['{"x":-inf}', '{"x": Infinity}', '{"x": NaN}', '[-Infinity]', '{"x":'])
def test_identity_exits_1_on_the_first_jsonl_command_that_prints_loose_json(monkeypatch, capsys, line):
    # after the twin check, the first --format jsonl command with a line that
    # strict json.loads rejects; a csv or human command may print anything
    tool = _load_tool()
    argvs = [["--format", "human", "predict", "3", "1"], ["--format", "jsonl", "predict", "3", "1"], ["--format", "jsonl", "predict", "5", "1"]]
    monkeypatch.setattr(tool, "commands", lambda: argvs)
    monkeypatch.setattr(tool, "output", lambda argv: (f'{{"x": 1e400}}\n{line}\n', 0))
    assert tool.main() == 1
    assert capsys.readouterr().err == "error: --format jsonl predict 3 1 prints a line that is not strict JSON\n"
    monkeypatch.setattr(tool, "output", lambda argv: ('{"x": 1e400}\n[1.5, null]\n', 0))
    assert tool.main() == 0


def test_the_identity_commands_past_the_double_range_print_strict_json():
    tool = _load_tool()
    overflow = tool.overflow_commands()
    assert [argv[1] for argv in overflow] == ["jsonl", "human", "jsonl"]
    for argv in overflow:
        if tool.jsonl(argv):
            text, code = tool.output(argv)
            assert code == 0 and tool.strict_json(text)
