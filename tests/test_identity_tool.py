"""tools/identity.py must keep producing a command set that binsum accepts.

The harness hashes the output of a fixed set of commands so that two
checkouts can be compared byte for byte; a renamed flag, lemma or route
would otherwise turn part of that set into argument errors unnoticed.
"""

import hashlib
import importlib.util
from pathlib import Path

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
        parser.parse_args(argv)  # raises or exits on an argument the parser does not know
    assert len(argvs) == len({tuple(argv) for argv in argvs})
    assert set(tool.LEMMAS) == set(LEMMA_IDS)
    assert set(tool.ROUTES) == {"auto", *(route.value for route in Route)}
    assert {argv[argv.index("--parallelism") + 1] for argv in argvs if "--parallelism" in argv} == {"2"}


def test_identity_line_hashes_stdout_and_keeps_the_exit_code():
    tool = _load_tool()
    assert tool.run(["eval", "6", "1"]) == (hashlib.sha256(b"-5\n").hexdigest(), 0)
    assert tool.run(["--format", "csv", "predict", "300", "100"]) == (hashlib.sha256(b"").hexdigest(), 2)
