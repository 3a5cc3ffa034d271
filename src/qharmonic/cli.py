"""Command-line interface: compute values, take duals, run verifications.

Subcommands:
  dual <mu>                        print the dual multi-index
  compute {a|b} <mu> <n>           print a canonical value in Q(q)
  compute c <mu> <nu> <n> <k>      same for the double-chain sum
  verify TOKEN... [flags]          a campaign restricted to those identities
  campaign [--config F] [--json F] run a full campaign

`verify` flags set CampaignConfig fields: --max-weight sets max_weight and
series_max_weight, --orders sets series_orders, --max-n and --max-k set max_n
and max_k; every other field keeps the CampaignConfig default.

`verify` and `campaign` exit 0 exactly when nothing failed.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from pathlib import Path

from .exactq import QRat
from .harmonic import a_value, b_value, c_value
from .multiindex import parse_multiindex
from .verify import (
    IDENTITY_TOKENS,
    CampaignConfig,
    VerificationReport,
    parse_config_text,
    run_campaign,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qharmonic",
        description="Exact finite multiple harmonic q-sums and their identities.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dual = sub.add_parser("dual", help="print the dual of a multi-index")
    p_dual.add_argument("mu", help="comma-separated parts, e.g. 2,2")

    p_comp = sub.add_parser("compute", help="compute a value exactly in Q(q)")
    p_comp.add_argument("kind", choices=("a", "b", "c"))
    p_comp.add_argument("args", nargs="+",
                        help="a|b: <mu> <n>; c: <mu> <nu> <n> <k>")
    p_comp.add_argument("--at", metavar="Q0", default=None,
                        help="also evaluate exactly at q = Q0 (e.g. 2/3)")

    p_ver = sub.add_parser("verify", help="run a campaign restricted to some identities")
    p_ver.add_argument("identities", nargs="+", choices=IDENTITY_TOKENS, metavar="TOKEN",
                       help="one or more of: " + ", ".join(IDENTITY_TOKENS))
    p_ver.add_argument("--max-weight", type=int, default=None,
                       help="max_weight and series_max_weight")
    p_ver.add_argument("--max-n", type=int, default=None)
    p_ver.add_argument("--max-k", type=int, default=None)
    p_ver.add_argument("--orders", type=int, default=None, help="series_orders")

    p_camp = sub.add_parser("campaign", help="run a full verification campaign")
    p_camp.add_argument("--config", metavar="PATH", default=None,
                        help="flat key/value config file")
    p_camp.add_argument("--json", metavar="PATH", default=None,
                        help="write the JSON report here")
    return parser


def _print_qrat(value: QRat, q0: Fraction | None) -> None:
    # evaluated before the first print, so a pole leaves stdout empty
    at = None if q0 is None else value.evaluate(q0)
    print(str(value))
    print(f"num coeffs: {[str(c) for c in value.num.coeffs]}")
    print(f"den coeffs: {[str(c) for c in value.den.coeffs]}")
    if q0 is not None:
        print(f"value at q = {q0}: {at}")


def _parse_point(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(f"bad evaluation point {text!r}: zero denominator") from None
    except ValueError:
        raise ValueError(f"bad evaluation point {text!r}: not a rational number") from None


def _cmd_compute(args: argparse.Namespace) -> int:
    # a bad point is rejected before the value is computed or printed
    q0 = None if args.at is None else _parse_point(args.at)
    if args.kind in ("a", "b"):
        if len(args.args) != 2:
            raise ValueError(f"compute {args.kind} takes <mu> <n>")
        mu = parse_multiindex(args.args[0])
        n = int(args.args[1])
        value = a_value(mu, n) if args.kind == "a" else b_value(mu, n)
    else:
        if len(args.args) != 4:
            raise ValueError("compute c takes <mu> <nu> <n> <k>")
        mu = parse_multiindex(args.args[0])
        nu = parse_multiindex(args.args[1])
        value = c_value(mu, nu, int(args.args[2]), int(args.args[3]))
    _print_qrat(value, q0)
    return 0


def _print_outcome(report: VerificationReport) -> int:
    counts = report.counts
    for rec in report.failures():
        print(f"FAIL {rec.identity} {rec.params} witness={rec.witness}")
    status = "ok" if report.all_passed else "FAILED"
    print(f"{status}: {counts['pass']} passed, {counts['fail']} failed, "
          f"{counts['skip']} skipped")
    return 0 if report.all_passed else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    flags = {"max_weight": args.max_weight, "series_max_weight": args.max_weight,
             "max_n": args.max_n, "max_k": args.max_k, "series_orders": args.orders}
    config = CampaignConfig()._replace(
        identities=tuple(args.identities),
        **{key: val for key, val in flags.items() if val is not None})
    return _print_outcome(run_campaign(config))


def _cmd_campaign(args: argparse.Namespace) -> int:
    if args.config is not None:
        config = parse_config_text(Path(args.config).read_text(encoding="utf-8"))
    else:
        config = CampaignConfig()
    if args.json is not None and not Path(args.json).parent.is_dir():
        raise ValueError(f"cannot write {args.json}: its directory does not exist")
    report = run_campaign(config)
    if args.json is not None:
        Path(args.json).write_text(report.to_json(), encoding="utf-8")
        print(f"report written to {args.json}")
    return _print_outcome(report)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "dual":
            print(parse_multiindex(args.mu).dual().as_text())
            return 0
        if args.command == "compute":
            return _cmd_compute(args)
        if args.command == "verify":
            return _cmd_verify(args)
        return _cmd_campaign(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
