"""Command-line surface: parses arguments, runs the engine and the checks of
``verify`` (``verify.run_suites`` forks one worker per CPU), renders the report.

The parser needs only ``families``, ``report`` and ``scalars``; each command
imports the modules it runs when it runs: ``scan`` imports ``actions``, while
``verify``, ``ktheory`` and ``homology`` import ``verify`` and ``ktheory``
(and with them ``crossed`` and ``lattice``).  Reports are deterministic for a
fixed (version, command, seed): JSON output is sorted and carries no
timestamps, so repeated runs are byte-identical.  Exit codes: 0 success, 1
check failure, 2 usage or configuration error.  A check that detects a
documented tabulation defect has status ``anomaly``; it fails the run only
under ``--strict``.
"""
from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import families
from .report import Report
from .scalars import MAX_DENOMINATOR

# the suites of ``verify.SUITES``, named here so that the parser needs no ``verify``
SUITES = ("algebra", "actions", "crossed", "traces", "morita", "betastar", "homology", "all")


def _emit(report: Report, args) -> int:
    text = report.to_json() if args.format == "json" else report.to_markdown()
    if getattr(args, "out", None):
        with open(args.out, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return report.exit_code(strict=getattr(args, "strict", False))


def _group_dict(group) -> dict:
    return {"rank": group.free_rank, "torsion": list(group.torsion)}


def _config(args, *options, **extra) -> dict:
    """The report's config: the named options of ``args`` plus ``extra``,
    which together are exactly what the command reads."""
    config = {key: getattr(args, key) for key in options}
    config.update(extra)
    return config


# ---------------------------------------------------------------------------
# scan


def _pattern_payload(slot, patterns) -> dict:
    return {
        "free_slot": slot,
        "admissible": sorted(
            [{s: str(v) for s, v in assignment} for assignment in patterns],
            key=str,
        ),
    }


def cmd_scan(args) -> int:
    from .actions import scan_checks, scan_cocycles

    result = scan_cocycles(args.family, args.denominator)
    report = Report("scan", _config(args, "denominator", "family", cyclotomic_order=result.order))
    report.payload["computed"] = _pattern_payload(*result.computed())
    report.payload["reference"] = _pattern_payload(*result.reference())
    report.results = scan_checks(result)
    if not result.matches_reference() and args.family in families.SCAN_KNOWN_DISCREPANCIES:
        report.notes.append(
            f"the tabulated row for {args.family} is not reproducible: the exact"
            " compatibility check admits the pattern set shown under 'computed'"
        )
    if args.family in ("N1", "N2"):
        report.notes.append("the tabulated rows for N1 and N2 coincide; the checker separates them")
    if args.family in ("N3", "N4"):
        report.notes.append("the tabulated rows for N3 and N4 coincide, as the checker confirms")
    return _emit(report, args)


# ---------------------------------------------------------------------------
# ktheory


def cmd_ktheory(args) -> int:
    from . import verify
    from .ktheory import beta_star_matrix, pv_solve
    from .lattice import smith_normal_form

    report = Report("ktheory", _config(args, "family", "epsilon"))
    data = beta_star_matrix(args.family, args.epsilon)
    k0, k1 = pv_solve(data)
    snf = smith_normal_form(data.matrix)
    report.payload["K0"] = _group_dict(k0)
    report.payload["K1"] = _group_dict(k1)
    report.payload["basis"] = list(data.basis)
    report.payload["matrix"] = data.matrix
    report.payload["snf_certificate"] = {
        "diagonal": list(snf.diagonal),
        "row_transform": snf.u,
        "column_transform": snf.v,
    }
    report.results = verify.k_group_checks(args.family, args.epsilon, k0, k1)
    return _emit(report, args)


# ---------------------------------------------------------------------------
# verify and homology


def cmd_verify(args) -> int:
    from . import verify
    from .lattice import bieberbach_h1

    settings = verify.Settings(args.seed, args.samples, args.degree, args.denominator, args.theta)
    report = Report("verify", _config(
        args, "seed", "samples", "degree", "denominator", "suite", "strict",
        cyclotomic_order=settings.order,
        theta_mode="symbolic" if args.theta is None else str(args.theta),
    ))
    suites = list(verify.SUITES) if args.suite == "all" else [args.suite]
    for suite, rows in zip(suites, verify.run_suites(suites, settings)):
        report.results += rows
        report.notes += verify.SUITE_NOTES.get(suite, ())
    if "homology" in suites:
        report.payload["h1"] = {f: _group_dict(bieberbach_h1(f)) for f in families.K_FAMILIES}
    return _emit(report, args)


def cmd_homology(args) -> int:
    from . import verify
    from .ktheory import beta_star_matrix, pv_solve
    from .lattice import bieberbach_h1

    fams = [args.family] if args.family else list(families.K_FAMILIES)
    report = Report("homology", _config(args, family=args.family or "all"),
                    results=[verify.homology_check(family) for family in fams])
    for family in fams:
        k0, _ = pv_solve(beta_star_matrix(family, 1))
        report.payload[family] = {"H1": _group_dict(bieberbach_h1(family)), "K0": _group_dict(k0)}
    return _emit(report, args)


# ---------------------------------------------------------------------------
# argument parsing


def _theta(text: str) -> Fraction:
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    if value.denominator > MAX_DENOMINATOR:  # the field order grows with it
        raise argparse.ArgumentTypeError(f"denominator must be at most {MAX_DENOMINATOR}, got {value.denominator}")
    return value


# `verify --suite all` at both bounds: about 2.6 s at formal theta, 11 s at the
# largest field order (--theta 1/9 --denominator 11), on two CPUs
MAX_SAMPLES = 1000
MAX_DEGREE = 10  # the degree of the sampled elements of the traces suite


def _int_from_one_to(upper: int):
    """The argparse type of an integer option from 1 to ``upper``: a sample
    count or degree of 0 would let a check pass after evaluating nothing, and
    the upper bound keeps a run finite."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
        if value < 1:
            raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
        if value > upper:
            raise argparse.ArgumentTypeError(f"must be at most {upper}, got {value}")
        return value

    return parse


def _epsilon(text: str) -> int:
    if text in ("+1", "1"):
        return 1
    if text == "-1":
        return -1
    raise argparse.ArgumentTypeError("epsilon must be +1 or -1")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nbk",
        description="Exact K-theory and verification suites for noncommutative Bieberbach manifolds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p):
        p.add_argument("--format", choices=("json", "md"), default="md")
        p.add_argument("--out", default=None, help="write the report to this path")
        p.add_argument("--strict", action="store_true",
                       help="treat anomalies as failures")
        p.set_defaults(parser=p)  # reports a stray argument under its subcommand

    def denominator(p):
        p.add_argument("--denominator", type=_int_from_one_to(MAX_DENOMINATOR), default=6,
                       help="grid denominator of the cocycle scan")

    p_scan = sub.add_parser("scan", help="admissible theta patterns for one family")
    p_scan.add_argument("--family", required=True, choices=families.FAMILIES)
    denominator(p_scan)
    common(p_scan)
    p_scan.set_defaults(func=cmd_scan)

    p_k = sub.add_parser("ktheory", help="K-groups of one quotient family")
    p_k.add_argument("family", choices=families.K_FAMILIES)
    p_k.add_argument("--epsilon", type=_epsilon, default=1)
    common(p_k)
    p_k.set_defaults(func=cmd_ktheory)

    p_v = sub.add_parser("verify", help="run a verification suite")
    p_v.add_argument("--suite", choices=SUITES, default="all")
    p_v.add_argument("--seed", type=int, default=2024)
    p_v.add_argument("--samples", type=_int_from_one_to(MAX_SAMPLES), default=40)
    p_v.add_argument("--degree", type=_int_from_one_to(MAX_DEGREE), default=2)
    p_v.add_argument("--theta", type=_theta, default=None,
                     help="run in folded rational-theta mode at this value")
    denominator(p_v)
    common(p_v)
    p_v.set_defaults(func=cmd_verify)

    p_h = sub.add_parser("homology", help="first homology of the space groups vs K0")
    p_h.add_argument("--family", choices=families.K_FAMILIES, default=None)
    common(p_h)
    p_h.set_defaults(func=cmd_homology)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args, stray = parser.parse_known_args(argv)
    if stray:
        args.parser.error(f"unrecognized arguments: {' '.join(stray)}")
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"nbk: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
