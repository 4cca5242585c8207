"""Command-line front end: evaluation, prediction, certification, scans,
certified windows, polynomial families, exception-count diagnostics, and
inequality validation, with machine-readable output.

Exit codes: 0 on success, 2 on argument errors, 3 when a scan contains
inconclusive pairs (so shell pipelines can detect potential exceptions).
Identical inputs and configuration produce byte-identical jsonl/csv output
across runs and parallelism settings; per-pair wall-clock timing is only
recorded under --timings because it is inherently irreproducible.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from mpmath import workprec

# json and polynomials load in the commands that use them, so a process
# starts up with only what its command runs
from . import asymptotics, certifier, validators
from .certifier import CertificateKind, format_float
from .exact import PartitionPair, Route, evaluate
from .numerics import DEFAULT_PRECISION, GUARD_BITS, check_precision

FORMATS = ("jsonl", "csv", "human")


@dataclass
class RunConfig:
    precision_bits: int = DEFAULT_PRECISION
    budget: int = certifier.DEFAULT_BUDGET
    output_format: str | None = None  # None: the command's default
    parallelism: int = 1
    timings: bool = False

    def validate(self) -> None:
        check_precision(self.precision_bits)
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.output_format not in (None, *FORMATS):
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")


def parse_bool(text: str) -> bool:
    """1/true/yes or 0/false/no, in any case."""
    value = text.lower()
    if value in ("1", "true", "yes"):
        return True
    if value in ("0", "false", "no"):
        return False
    raise ValueError(f"expected 1/true/yes or 0/false/no, got {text!r}")


_CONFIG_KEYS = {
    "precision": ("precision_bits", int),
    "budget": ("budget", int),
    "format": ("output_format", str),
    "parallelism": ("parallelism", int),
    "timings": ("timings", parse_bool),
}


def load_config_file(path: str) -> dict:
    """Parse a simple key=value configuration file (# starts a comment)."""
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            attr, conv = _CONFIG_KEYS[key]
            try:
                out[attr] = conv(value)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from exc
    return out


def parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError as exc:
        raise argparse.ArgumentTypeError(f"zero denominator in {text!r}") from exc


def parse_grid(text: str) -> tuple[int, int]:
    """A `validate` grid written as NRxNT, both counts integers >= 1."""
    n_r, sep, n_theta = text.partition("x")
    if sep and all(part.isascii() and part.isdigit() and int(part) >= 1 for part in (n_r, n_theta)):
        return int(n_r), int(n_theta)
    raise ValueError(f"--grid must be NRxNT with both counts integers >= 1, got {text!r}")


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer range written as A..B."""
    if ".." not in text:
        raise ValueError(f"expected a range like 10..20, got {text!r}")
    lo, hi = text.split("..", 1)
    return int(lo), int(hi)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    was, so every `main` call can share it.  It raises its errors instead of
    exiting, so that `main` can name an unknown option."""
    parser = argparse.ArgumentParser(
        prog="binsum",
        description="Exact evaluation, explicit asymptotics, and nonvanishing certificates "
        "for the alternating binomial sums S(l1, l2).",
        exit_on_error=False,
    )
    parser.add_argument("--precision", dest="precision_bits", type=int, default=None, help=f"working precision in bits (default {DEFAULT_PRECISION})")
    parser.add_argument("--budget", type=int, default=None, help="exact-evaluation cost budget in word multiplications")
    parser.add_argument("--format", dest="output_format", choices=FORMATS, default=None, help="output format")
    parser.add_argument("--parallelism", type=int, default=None, help="scan worker count")
    parser.add_argument("--timings", action="store_true", default=None, help="record per-pair wall-clock microseconds (not reproducible)")
    parser.add_argument("--config", default=None, help="key=value configuration file; flags override it")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="exact value of S(lambda1, lambda2)")
    p.add_argument("lambda1", type=int)
    p.add_argument("lambda2", type=int)
    p.add_argument("--route", choices=["auto", *(r.value for r in Route)], default="auto")

    p = sub.add_parser("predict", help="normalized main term and rigorous error bound")
    p.add_argument("lambda1", type=int)
    p.add_argument("lambda2", type=int)

    p = sub.add_parser("certify", help="nonvanishing certificate for one pair")
    p.add_argument("lambda1", type=int)
    p.add_argument("lambda2", type=int)
    p.add_argument("--delta", type=float, default=None, help="enable the refined supercritical bound with this split angle (<= pi/3)")

    p = sub.add_parser("scan", help="certify a rectangle of pairs")
    p.add_argument("--l2", required=True, type=parse_range, metavar="A..B")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", type=parse_fraction, default=None, help="lambda1 = ratio * lambda2 (exact rational)")
    group.add_argument("--diff", type=int, default=None, help="lambda1 = lambda2 + diff")
    group.add_argument("--all-l1-up-to", type=int, default=None, help="all lambda2 < lambda1 <= N")
    group.add_argument("--l1-list", default=None, help="comma-separated explicit lambda1 values")

    p = sub.add_parser("intervals", help="certified lambda1 windows per congruence class")
    p.add_argument("lambda2", type=int)

    p = sub.add_parser("poly", help="exact polynomial families and integer-root exclusion")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--c", type=int, default=None, metavar="LAMBDA2", help="fixed-lambda2 family")
    group.add_argument("--tilde", type=int, nargs=3, default=None, metavar=("L", "EPS1", "EPS2"), help="fixed-difference family")
    p.add_argument("--roots", type=int, default=None, metavar="BOUND", help="search integer roots with |x| <= BOUND")

    p = sub.add_parser("exceptions", help="exception-count bound and continued-fraction diagnostics")
    p.add_argument("ratio", type=parse_fraction)
    p.add_argument("x", type=float)
    p.add_argument("--depth", type=int, default=20, help="continued fraction depth")

    p = sub.add_parser("validate", help="grid validation of a supporting inequality")
    p.add_argument("--lemma", required=True, choices=validators.LEMMA_IDS)
    p.add_argument("--grid", default="50x50", help="grid size NRxNTHETA")

    p = sub.add_parser("plotdata", help="(lambda, normalized residual, bound) columns")
    p.add_argument("--l2", required=True, type=parse_range, metavar="A..B")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--ratio", type=parse_fraction, default=None)
    group.add_argument("--diff", type=int, default=None)

    return parser


def resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        for attr, value in load_config_file(args.config).items():
            setattr(config, attr, value)
    for field in fields(RunConfig):
        value = getattr(args, field.name)
        if value is not None:
            setattr(config, field.name, value)
    config.validate()
    return config


@contextlib.contextmanager
def _unlimited_int_str():
    """Lift the interpreter's cap on int-to-decimal conversion (4300 digits by
    default since CPython 3.10.7; earlier versions have none) inside the
    block and restore it after, so in-process callers keep theirs."""
    get_limit = getattr(sys, "get_int_max_str_digits", None)
    if get_limit is None:
        yield
        return
    limit = get_limit()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def cmd_eval(args, config: RunConfig) -> int:
    pair = PartitionPair(args.lambda1, args.lambda2)
    route = None if args.route == "auto" else Route(args.route)
    value = evaluate(pair, route).value
    with _unlimited_int_str():
        print(value)
    return 0


def cmd_predict(args, config: RunConfig) -> int:
    import json

    pair = PartitionPair(args.lambda1, args.lambda2)
    pred = asymptotics.predict(pair, config.precision_bits)
    if config.output_format == "human":
        print(f"pair           ({pair.lambda1}, {pair.lambda2}), class {pair.congruence_class}")
        print(f"regime         {pred.regime.value}")
        print(f"normalized main {format_float(pred.normalized_main)}")
        print(f"error bound     {format_float(pred.error_bound)}")
        print(f"valid           {pred.valid}")
        print(f"normalizer      {pred.normalizer}")
        print(f"log normalizer  {format_float(pred.log_normalizer)}")
        if pred.threshold is not None:
            print(f"valid from      lambda2 >= {format_float(pred.threshold)}")
        if pred.detail:
            print(f"detail          {pred.detail}")
    else:
        row = (
            f'{{"lambda1":{pair.lambda1},"lambda2":{pair.lambda2},'
            f'"regime":"{pred.regime.value}","normalized_main":{format_float(pred.normalized_main)},'
            f'"error_bound":{format_float(pred.error_bound)},"valid":{"true" if pred.valid else "false"},'
            f'"normalizer":{json.dumps(pred.normalizer)},"log_normalizer":{format_float(pred.log_normalizer)}}}'
        )
        print(row)
    return 0


def cmd_certify(args, config: RunConfig) -> int:
    pair = PartitionPair(args.lambda1, args.lambda2)
    cert = certifier.certify(
        pair,
        budget=config.budget,
        prec=config.precision_bits,
        delta=args.delta,
    )
    if config.output_format == "human":
        print(f"pair        ({pair.lambda1}, {pair.lambda2}), class {pair.congruence_class}")
        print(f"certificate {cert.kind.value}")
        print(f"rule        {cert.rule}")
        if cert.margin is not None:
            print(f"margin      {format_float(cert.margin)}")
        if cert.exact_sign is not None:
            print(f"exact sign  {cert.exact_sign}")
        if cert.bit_length is not None:
            print(f"bit length  {cert.bit_length}")
        if cert.clause is not None:
            print(f"clause      {cert.clause}")
        if cert.reason is not None:
            print(f"reason      {cert.reason}")
    else:
        report = certifier.ScanReport(((pair.lambda2, (cert,)),))
        print("\n".join(report.csv_lines() if config.output_format == "csv" else report.jsonl_lines()))
    return 0


def _scan_rule(args):
    if args.ratio is not None:
        return certifier.RatioRule(args.ratio)
    if args.diff is not None:
        return certifier.DiffRule(args.diff)
    if args.all_l1_up_to is not None:
        return certifier.AllUpToRule(args.all_l1_up_to)
    values = tuple(int(v) for v in args.l1_list.split(","))
    return certifier.ListRule(values)


def cmd_scan(args, config: RunConfig) -> int:
    report = certifier.scan_range(
        args.l2,
        _scan_rule(args),
        budget=config.budget,
        prec=config.precision_bits,
        parallelism=config.parallelism,
        timings=config.timings,
    )
    lines = {"jsonl": report.jsonl_lines, "csv": report.csv_lines, "human": report.human_lines}
    print("\n".join(lines[config.output_format]()))
    return 3 if report.pairs(CertificateKind.INCONCLUSIVE) else 0


def cmd_intervals(args, config: RunConfig) -> int:
    windows = certifier.difference_windows(args.lambda2, config.precision_bits)
    if config.output_format == "human":
        for w in windows:
            print(
                f"class {w.residue_class}  {w.clause:10s} [{w.lo}, {w.hi}]  "
                f"(diff [{w.lo - args.lambda2}, {w.hi - args.lambda2}])  {w.basis}"
            )
    elif config.output_format == "csv":
        print("class,clause,lambda1_lo,lambda1_hi,basis")
        for w in windows:
            print(f"{w.residue_class},{w.clause},{w.lo},{w.hi},{w.basis}")
    else:
        for w in windows:
            print(
                f'{{"class":{w.residue_class},"clause":"{w.clause}","lambda1_lo":{w.lo},'
                f'"lambda1_hi":{w.hi},"basis":"{w.basis}"}}'
            )
    return 0


def cmd_poly(args, config: RunConfig) -> int:
    import json

    from . import polynomials

    if args.c is not None:
        poly = polynomials.c_poly(args.c)
    else:
        l, eps1, eps2 = args.tilde
        poly = polynomials.tilde_poly(l, eps1, eps2)
    payload = poly.to_json_dict()
    if args.roots is not None:
        payload["root_bound"] = args.roots
        payload["roots"] = [str(x) for x in polynomials.integer_roots(poly, args.roots)]
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_exceptions(args, config: RunConfig) -> int:
    import json

    prec = config.precision_bits
    r = args.ratio
    count = certifier.exception_count_bound(r, args.x, prec)
    payload = {
        "ratio": str(r),
        "x": args.x,
        "kind": count.kind,
        "coefficient": None if count.coefficient is None else float(count.coefficient),
        "main_term": None if count.value is None else float(count.value),
        "remainder": "unquantified",
    }
    if asymptotics.classify(r) is asymptotics.Regime.SUBCRITICAL:
        g1, g2 = asymptotics.gamma_angles(r, prec)
        with workprec(prec + GUARD_BITS):
            angle = (g1 * r.numerator + g2 * r.denominator) / r.denominator
        cf = certifier.continued_fraction(angle, args.depth, prec)
        legendre_ok = cf.legendre_quality(prec)
        payload["angle"] = float(angle)
        payload["cf_quotients"] = list(cf.partial_quotients)
        payload["cf_convergents"] = [[str(p), str(q)] for p, q in cf.convergents]
        payload["cf_truncated"] = cf.truncated
        payload["legendre_quality"] = bool(legendre_ok)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_validate(args, config: RunConfig) -> int:
    import json

    report = validators.validate_inequality(args.lemma, prec=config.precision_bits, grid_size=parse_grid(args.grid))
    payload = {
        "lemma": report.lemma_id,
        "points": report.points,
        "max_margin": report.max_margin,
        "worst_r": str(report.worst_r),
        "worst_theta": report.worst_theta,
        "passed": report.passed,
    }
    if config.output_format == "human":
        for key, value in payload.items():
            print(f"{key:12s} {value}")
    else:
        print(json.dumps(payload, sort_keys=True))
    return 0 if report.passed else 1


def cmd_plotdata(args, config: RunConfig) -> int:
    pairs = certifier.rule_pairs(args.l2, _scan_rule(args))
    print("lambda2,residual,bound")
    for l1, l2 in pairs:
        residual, pred, _ = asymptotics.normalized_residual(PartitionPair(l1, l2), config.precision_bits)
        print(f"{l2},{format_float(residual)},{format_float(pred.error_bound)}")
    return 0


# each command with the output formats it prints, its default first; it
# refuses any other format before any work
_COMMANDS = {
    "eval": (cmd_eval, FORMATS),
    "predict": (cmd_predict, ("jsonl", "human")),
    "certify": (cmd_certify, FORMATS),
    "scan": (cmd_scan, FORMATS),
    "intervals": (cmd_intervals, FORMATS),
    "poly": (cmd_poly, ("jsonl",)),
    "exceptions": (cmd_exceptions, ("jsonl",)),
    "validate": (cmd_validate, ("jsonl", "human")),
    "plotdata": (cmd_plotdata, ("csv",)),
}


def _unknown_option(parser: argparse.ArgumentParser, argv: list[str]) -> str | None:
    """The first option before the command that `parser` does not know, even
    as an abbreviation.  argparse takes the value after such an option for
    the command and would name that value instead."""
    known = parser._option_string_actions
    for token in argv:
        if token in _COMMANDS:
            return None
        flag = token.split("=", 1)[0]
        # argparse reads a negative number as a value, never as an option
        if flag.startswith("-") and not flag[1:2].isdigit() and not any(option.startswith(flag) for option in known):
            return flag
    return None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = parser.parse_args(argv)
    except argparse.ArgumentError as exc:
        flag = _unknown_option(parser, argv)
        if flag is None:
            parser.error(str(exc))
        parser.exit(2, f"{parser.prog}: error: unrecognized option {flag}\n")
    try:
        config = resolve_config(args)
        command, formats = _COMMANDS[args.command]
        if config.output_format is None:
            config.output_format = formats[0]
        elif config.output_format not in formats:
            usable = " or ".join(formats)
            raise ValueError(f"{args.command} has no {config.output_format} output; use --format {usable}")
        return command(args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
