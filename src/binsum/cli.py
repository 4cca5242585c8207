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
import json
import sys
from dataclasses import dataclass, fields
from fractions import Fraction

from mpmath import mp, workprec

from . import asymptotics, certifier, polynomials, validators
from .exact import PartitionPair, Route, evaluate
from .numerics import DEFAULT_PRECISION, DEFAULT_SLACK_EXPONENT, GUARD_BITS, check_precision

FORMATS = ("jsonl", "csv", "human")


@dataclass
class RunConfig:
    precision_bits: int = DEFAULT_PRECISION
    budget: int = certifier.DEFAULT_BUDGET
    output_format: str = "jsonl"
    parallelism: int = 1
    slack_exponent: int = DEFAULT_SLACK_EXPONENT
    timings: bool = False

    def validate(self) -> None:
        check_precision(self.precision_bits)
        if self.parallelism < 1:
            raise ValueError("parallelism must be >= 1")
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")


_CONFIG_KEYS = {
    "precision": ("precision_bits", int),
    "budget": ("budget", int),
    "format": ("output_format", str),
    "parallelism": ("parallelism", int),
    "slack_exponent": ("slack_exponent", int),
    "timings": ("timings", lambda v: v.lower() in ("1", "true", "yes")),
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
            out[attr] = conv(value)
    return out


def parse_fraction(text: str) -> Fraction:
    return Fraction(text)


def parse_range(text: str) -> tuple[int, int]:
    """Inclusive integer range written as A..B."""
    if ".." not in text:
        raise ValueError(f"expected a range like 10..20, got {text!r}")
    lo, hi = text.split("..", 1)
    return int(lo), int(hi)


def ff(x) -> str:
    """Floats at 17 significant digits; round-trips losslessly."""
    return format(float(x), ".17g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binsum",
        description="Exact evaluation, explicit asymptotics, and nonvanishing certificates "
        "for the alternating binomial sums S(l1, l2).",
    )
    parser.add_argument("--precision", dest="precision_bits", type=int, default=None, help="working precision in bits (default 128)")
    parser.add_argument("--budget", type=int, default=None, help="exact-evaluation cost budget in word multiplications")
    parser.add_argument("--format", dest="output_format", choices=FORMATS, default=None, help="output format")
    parser.add_argument("--parallelism", type=int, default=None, help="scan worker count")
    parser.add_argument("--slack-exponent", type=int, default=None, help="certified comparisons use slack 2**-N (default 40)")
    parser.add_argument("--timings", action="store_true", default=None, help="record per-pair wall-clock microseconds (not reproducible)")
    parser.add_argument("--config", default=None, help="key=value configuration file; flags override it")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="exact value of S(lambda1, lambda2)")
    p.add_argument("lambda1", type=int)
    p.add_argument("lambda2", type=int)
    p.add_argument("--route", choices=["auto", "direct", "reduced", "diagonal"], default="auto")

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


def cmd_eval(args, config: RunConfig) -> int:
    pair = PartitionPair(args.lambda1, args.lambda2)
    route = None if args.route == "auto" else Route(args.route)
    print(evaluate(pair, route).value)
    return 0


def cmd_predict(args, config: RunConfig) -> int:
    pair = PartitionPair(args.lambda1, args.lambda2)
    pred = asymptotics.predict(pair, config.precision_bits, config.slack_exponent)
    if config.output_format == "human":
        print(f"pair           ({pair.lambda1}, {pair.lambda2}), class {pair.congruence_class}")
        print(f"regime         {pred.regime.value}")
        print(f"normalized main {ff(pred.normalized_main)}")
        print(f"error bound     {ff(pred.error_bound)}")
        print(f"valid           {pred.valid}")
        print(f"normalizer      {pred.normalizer}")
        print(f"log normalizer  {ff(pred.log_normalizer)}")
        if pred.threshold is not None:
            print(f"valid from      lambda2 >= {ff(pred.threshold)}")
        if pred.detail:
            print(f"detail          {pred.detail}")
    else:
        row = (
            f'{{"lambda1":{pair.lambda1},"lambda2":{pair.lambda2},'
            f'"regime":"{pred.regime.value}","normalized_main":{ff(pred.normalized_main)},'
            f'"error_bound":{ff(pred.error_bound)},"valid":{"true" if pred.valid else "false"},'
            f'"normalizer":{json.dumps(pred.normalizer)},"log_normalizer":{ff(pred.log_normalizer)}}}'
        )
        print(row)
    return 0


def cmd_certify(args, config: RunConfig) -> int:
    pair = PartitionPair(args.lambda1, args.lambda2)
    cert = certifier.certify(
        pair,
        budget=config.budget,
        prec=config.precision_bits,
        slack_exponent=config.slack_exponent,
        delta=args.delta,
    )
    if config.output_format == "human":
        print(f"pair        ({pair.lambda1}, {pair.lambda2}), class {pair.congruence_class}")
        print(f"certificate {cert.kind.value}")
        print(f"rule        {cert.rule}")
        if cert.margin is not None:
            print(f"margin      {ff(cert.margin)}")
        if cert.exact_sign is not None:
            print(f"exact sign  {cert.exact_sign}")
        if cert.bit_length is not None:
            print(f"bit length  {cert.bit_length}")
        if cert.clause is not None:
            print(f"clause      {cert.clause}")
        if cert.reason is not None:
            print(f"reason      {cert.reason}")
    else:
        print(certifier._entry_json(certifier.ScanEntry(pair, cert, 0)))
    return 0


def _scan_rule(args):
    if args.ratio is not None:
        return certifier.RatioRule(args.ratio)
    if args.diff is not None:
        return certifier.DiffRule(args.diff)
    if getattr(args, "all_l1_up_to", None) is not None:
        return certifier.AllUpToRule(args.all_l1_up_to)
    values = tuple(int(v) for v in args.l1_list.split(","))
    return certifier.ListRule(values)


def cmd_scan(args, config: RunConfig) -> int:
    report = certifier.scan_range(
        args.l2,
        _scan_rule(args),
        budget=config.budget,
        prec=config.precision_bits,
        slack_exponent=config.slack_exponent,
        parallelism=config.parallelism,
        timings=config.timings,
    )
    if config.output_format == "csv":
        for line in report.csv_lines():
            print(line)
    elif config.output_format == "jsonl":
        for line in report.jsonl_lines():
            print(line)
    else:
        for kind, count in sorted(report.counts.items()):
            print(f"{kind:24s} {count}")
        for pair in report.inconclusive_pairs:
            print(f"inconclusive pair ({pair.lambda1}, {pair.lambda2})")
        for pair in report.zero_pairs:
            print(f"ZERO VALUE at ({pair.lambda1}, {pair.lambda2})")
    return 3 if report.inconclusive_pairs else 0


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
        legendre_ok = cf.legendre_quality(prec, config.slack_exponent)
        payload["angle"] = float(angle)
        payload["cf_quotients"] = list(cf.partial_quotients)
        payload["cf_convergents"] = [[str(p), str(q)] for p, q in cf.convergents]
        payload["cf_truncated"] = cf.truncated
        payload["legendre_quality"] = bool(legendre_ok)
    print(json.dumps(payload, sort_keys=True))
    return 0


def cmd_validate(args, config: RunConfig) -> int:
    n_r, _, n_theta = args.grid.partition("x")
    report = validators.validate_inequality(
        args.lemma,
        prec=config.precision_bits,
        slack_exponent=config.slack_exponent,
        grid_size=(int(n_r), int(n_theta or n_r)),
    )
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
    rule = certifier.RatioRule(args.ratio) if args.ratio is not None else certifier.DiffRule(args.diff)
    lo, hi = args.l2
    if hi < lo or lo < 1:
        raise ValueError(f"empty or invalid lambda2 range {args.l2}")
    print("lambda2,residual,bound")
    emitted = 0
    for l2 in range(lo, hi + 1):
        for l1 in rule.lambda1_values(l2):
            pair = PartitionPair(l1, l2)
            residual, pred, _ = asymptotics.normalized_residual(pair, config.precision_bits)
            print(f"{l2},{ff(residual)},{ff(pred.error_bound)}")
            emitted += 1
    if not emitted:
        raise ValueError("the rule generates no pairs on this range")
    return 0


_COMMANDS = {
    "eval": cmd_eval,
    "predict": cmd_predict,
    "certify": cmd_certify,
    "scan": cmd_scan,
    "intervals": cmd_intervals,
    "poly": cmd_poly,
    "exceptions": cmd_exceptions,
    "validate": cmd_validate,
    "plotdata": cmd_plotdata,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        return _COMMANDS[args.command](args, config)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
