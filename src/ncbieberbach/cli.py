"""Command-line surface: scans, K-theory, verification suites, reports.

Reports are deterministic for a fixed (version, command, seed): JSON output
is sorted and carries no timestamps, so repeated runs are byte-identical.
Exit codes: 0 success, 1 check failure, 2 usage or configuration error.
Checks that detect a documented tabulation defect are reported with status
``anomaly``; they fail the run only under ``--strict``.
"""
from __future__ import annotations

import argparse
import json
import math
import random
import sys
from dataclasses import dataclass, field
from fractions import Fraction

from . import __version__, families
from .actions import (
    check_compatibility,
    check_order,
    deformed_action,
    freeness_witness,
    homogeneous_components,
    scan_cocycles,
)
from .crossed import (
    CanonicalTrace,
    crossed_product,
    hexic_reading_comparison,
    k0_generator_table,
    psi_multiplicativity_mismatch,
    tau_parity_trace,
    verify_exchange_iso,
    verify_projections,
    verify_trace_laws,
    random_crossed_element,
    random_torus_element,
)
from .ktheory import (
    beta_star_matrix,
    bieberbach_h1,
    compare_with_k0,
    pv_solve,
    smith_normal_form,
    verify_beta_star,
)
from .scalars import PhasedScalar, cyc_root, session_order
from .torus import NcTorus, ThetaMatrix

SCHEMA = "nbk-report/1"
SUITES = ("algebra", "actions", "crossed", "traces", "morita", "betastar", "homology", "all")


@dataclass
class Check:
    name: str
    status: str  # pass | fail | anomaly
    detail: str = ""
    counterexample: dict | None = None

    def as_dict(self) -> dict:
        out = {"name": self.name, "status": self.status}
        if self.detail:
            out["detail"] = self.detail
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


@dataclass
class Report:
    command: str
    config: dict
    results: list = field(default_factory=list)
    payload: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    def add(self, name: str, ok: bool, detail: str = "", counterexample: dict | None = None):
        self.results.append(Check(name, "pass" if ok else "fail", detail, counterexample))

    def add_anomaly(self, name: str, detail: str):
        self.results.append(Check(name, "anomaly", detail))

    def exit_code(self, strict: bool = False) -> int:
        statuses = {c.status for c in self.results}
        if "fail" in statuses:
            return 1
        if strict and "anomaly" in statuses:
            return 1
        return 0

    def as_dict(self) -> dict:
        return {
            "tool": "nbk",
            "version": __version__,
            "schema": SCHEMA,
            "command": self.command,
            "config": self.config,
            "results": [c.as_dict() for c in self.results],
            "payload": self.payload,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True, default=str) + "\n"

    def to_markdown(self) -> str:
        lines = [f"# nbk {self.command}", ""]
        lines.append(f"version {__version__}, schema {SCHEMA}")
        lines.append("")
        if self.config:
            lines.append("## configuration")
            lines.append("")
            for key in sorted(self.config):
                lines.append(f"- {key}: {self.config[key]}")
            lines.append("")
        if self.results:
            lines.append("## checks")
            lines.append("")
            lines.append("| check | status | detail |")
            lines.append("|---|---|---|")
            for c in self.results:
                lines.append(f"| {c.name} | {c.status} | {c.detail} |")
            lines.append("")
        for key in sorted(self.payload):
            lines.append(f"## {key}")
            lines.append("")
            lines.append("```")
            lines.append(json.dumps(self.payload[key], indent=2, sort_keys=True, default=str))
            lines.append("```")
            lines.append("")
        if self.notes:
            lines.append("## notes")
            lines.append("")
            for note in self.notes:
                lines.append(f"- {note}")
            lines.append("")
        return "\n".join(lines)


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


def _theta_order(theta: Fraction | None) -> int | None:
    """Session order large enough for the folded phases of the pipelines."""
    if theta is None:
        return None
    return math.lcm(session_order(), 12 * theta.denominator)


def _config(args, *options, **extra) -> dict:
    """The report's config: the named options of ``args`` plus ``extra``,
    which together are exactly what the command reads."""
    config = {key: getattr(args, key) for key in options}
    config.update(extra)
    return config


# ---------------------------------------------------------------------------
# scan


def _pattern_payload(result) -> dict:
    slot, patterns = result.computed()
    return {
        "free_slot": slot,
        "admissible": sorted(
            [{s: str(v) for s, v in assignment} for assignment in patterns],
            key=str,
        ),
    }


def cmd_scan(args) -> int:
    report = Report("scan", _config(args, "denominator", "family", cyclotomic_order=session_order()))
    result = scan_cocycles(args.family, args.denominator)
    reference = result.reference()
    report.payload["computed"] = _pattern_payload(result)
    report.payload["reference"] = {
        "free_slot": reference[0],
        "admissible": sorted(
            [{s: str(v) for s, v in assignment} for assignment in reference[1]], key=str
        ),
    }
    report.add("rational-grid-consistency", result.rational_expansion_consistent())
    bad_order = sorted(
        str({s: str(v) for s, v in key[1]})
        for key, ok in result.order_flags.items()
        if not ok and key[0] == result.free_slot()
    )
    if bad_order:
        report.add_anomaly(
            "tabulated-coefficients-keep-order",
            "compatible patterns whose tabulated unit coefficients break the"
            f" group order: {', '.join(bad_order)} (a coefficient adjustment"
            " restores it)",
        )
    else:
        report.add("tabulated-coefficients-keep-order", True)
    matches = result.matches_reference()
    report.add("matches-reference-table", matches)
    if not matches and args.family in families.SCAN_KNOWN_DISCREPANCIES:
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
    expected_k0, expected_k1 = families.K_EXPECTED[args.family]
    report.add("k0-matches-reference", (k0.free_rank, k0.torsion) == expected_k0, str(k0))
    report.add("k1-matches-reference", (k1.free_rank, k1.torsion) == expected_k1, str(k1))
    if args.family == "B2":
        other = pv_solve(beta_star_matrix("B2", -args.epsilon))
        report.add("epsilon-independent", other == (k0, k1))
    return _emit(report, args)


# ---------------------------------------------------------------------------
# verify suites


def _suite_algebra(report: Report, args, theta, order):
    rng = random.Random(args.seed)
    alg = NcTorus(ThetaMatrix.standard_3d(), theta_value=theta, order=order)
    ring_ok, assoc_ok = True, True

    # scalar ring axioms on random phased scalars
    def rand_scalar():
        root = cyc_root(alg.order, rng.randrange(alg.order), order=alg.order)
        s = PhasedScalar.phase(Fraction(rng.randint(-3, 3), rng.randint(1, 6)), root, order=alg.order)
        return s + PhasedScalar.of(Fraction(rng.randint(-2, 2), rng.randint(1, 2)), alg.order)

    ring_ce = None
    for _ in range(args.samples):
        x, y, z = rand_scalar(), rand_scalar(), rand_scalar()
        if (x * y) * z != x * (y * z) or x * (y + z) != x * y + x * z or x * y != y * x:
            ring_ok, ring_ce = False, {"x": repr(x), "y": repr(y), "z": repr(z)}
            break
        if x.conj().conj() != x or (x * y).conj() != x.conj() * y.conj():
            ring_ok, ring_ce = False, {"x": repr(x), "y": repr(y)}
            break
    report.add("scalar-ring-axioms", ring_ok, counterexample=ring_ce)

    assoc_ce = None
    for _ in range(args.samples):
        a = random_torus_element(rng, alg, 2)
        b = random_torus_element(rng, alg, 2)
        c = random_torus_element(rng, alg, 2)
        if (a * b) * c != a * (b * c):
            assoc_ce = {"a": repr(a), "b": repr(b), "c": repr(c),
                        "lhs": repr((a * b) * c), "rhs": repr(a * (b * c))}
            assoc_ok = False
            break
        if (a * b).star() != b.star() * a.star() or a.star().star() != a:
            assoc_ce = {"a": repr(a), "b": repr(b)}
            assoc_ok = False
            break
    report.add("torus-associativity-and-star", assoc_ok, counterexample=assoc_ce)

    bich_ok = True
    bich_ce = None
    for _ in range(args.samples):
        m = tuple(rng.randint(-3, 3) for _ in range(3))
        n = tuple(rng.randint(-3, 3) for _ in range(3))
        mp = tuple(rng.randint(-3, 3) for _ in range(3))
        msum = tuple(a + b for a, b in zip(m, mp))
        if alg.cocycle(msum, n) != alg.cocycle(m, n) * alg.cocycle(mp, n):
            bich_ok, bich_ce = False, {
                "m": m, "m2": mp, "n": n,
                "lhs": repr(alg.cocycle(msum, n)),
                "rhs": repr(alg.cocycle(m, n) * alg.cocycle(mp, n)),
            }
            break
        if not (alg.cocycle(m, n) * alg.cocycle(n, m)).is_one():
            bich_ok, bich_ce = False, {"m": m, "n": n}
            break
    report.add("cocycle-bicharacter-laws", bich_ok, counterexample=bich_ce)


def _suite_actions(report: Report, args, theta, order):
    rng = random.Random(args.seed)
    alg = NcTorus(ThetaMatrix.standard_3d(), theta_value=theta, order=order)
    for family in families.CYCLIC_FAMILIES:
        action = deformed_action(family, alg)
        report.add(f"order[{family}]", check_order(action, alg))
        report.add(f"compatibility[{family}]", check_compatibility(action, alg, args.degree))
        report.add(f"freeness-witness[{family}]", freeness_witness(action, alg))
        recon_ok = True
        recon_ce = None
        for _ in range(max(2, args.samples // 10)):
            x = random_torus_element(rng, alg, 2)
            comps = homogeneous_components(action, alg, x)
            total = alg.zero()
            for comp in comps:
                total = total + comp
            if total != x:
                recon_ok = False
                recon_ce = {"x": repr(x), "component_sum": repr(total)}
                break
        report.add(f"homogeneous-reconstruction[{family}]", recon_ok, counterexample=recon_ce)
    for family in families.FAMILIES:
        result = scan_cocycles(family, args.denominator)
        if result.matches_reference():
            report.add(f"scan[{family}]", True)
        elif family in families.SCAN_KNOWN_DISCREPANCIES:
            report.add_anomaly(
                f"scan[{family}]",
                "computed admissible set differs from the tabulated row"
                " (documented tabulation defect)",
            )
        else:
            report.add(f"scan[{family}]", False, "unexpected scan mismatch")


def _suite_crossed(report: Report, args, theta, order):
    rng = random.Random(args.seed)
    for family in families.K_FAMILIES:
        cp = crossed_product(family, dim=2, theta_value=theta, order=order)
        report.add(f"p-order[{family}]", cp.p() ** cp.n == cp.one())
        ok = True
        arith_ce = None
        for _ in range(max(2, args.samples // 10)):
            x = random_crossed_element(rng, cp, 2)
            y = random_crossed_element(rng, cp, 2)
            z = random_crossed_element(rng, cp, 2)
            if (x * y) * z != x * (y * z) or (x * y).star() != y.star() * x.star():
                ok, arith_ce = False, {"x": repr(x), "y": repr(y), "z": repr(z)}
                break
            if cp.beta_hat(x * y) != cp.beta_hat(x) * cp.beta_hat(y):
                ok, arith_ce = False, {"x": repr(x), "y": repr(y)}
                break
            bx = x
            for _ in range(cp.n):
                bx = cp.beta_hat(bx)
            if bx != x:
                ok, arith_ce = False, {"x": repr(x), "orbit_end": repr(bx)}
                break
        report.add(f"arithmetic-and-beta-hat[{family}]", ok, counterexample=arith_ce)
        for check in verify_projections(family, cp):
            report.add(f"{check.name}[{family}]", check.ok, check.detail)
        table = k0_generator_table(family, cp)
        for anomaly in table.anomalies:
            report.add_anomaly(f"generator-coefficient[{family}]{anomaly.label}", anomaly.message)
    cp6 = crossed_product("B6", dim=2, theta_value=theta, order=order)
    for check in hexic_reading_comparison(cp6):
        report.add(f"hexic-{check.name}", check.ok, check.detail)
    report.notes.append(
        "the hexic projector exponents admit a period-3 misreading; only the"
        " period-6 reading yields six distinct projectors summing to one"
    )


def _suite_traces(report: Report, args, theta, order):
    cp2 = crossed_product("B2", dim=2, theta_value=theta, order=order)
    for j, k in ((0, 0), (0, 1), (1, 0), (1, 1)):
        t = tau_parity_trace(cp2, j, k)
        law = verify_trace_laws(t, cp2, samples=args.samples, seed=args.seed, degree=args.degree)
        for check in law.checks:
            report.add(f"{t.name}-{check.name}", check.ok, check.detail)
    for family in families.K_FAMILIES:
        cp = crossed_product(family, dim=2, theta_value=theta, order=order)
        law = verify_trace_laws(CanonicalTrace(cp), cp, samples=max(5, args.samples // 4),
                                seed=args.seed, degree=args.degree)
        for check in law.checks:
            report.add(f"tau[{family}]-{check.name}", check.ok, check.detail)


def _suite_morita(report: Report, args, theta, order):
    rng = random.Random(args.seed)
    for family in families.K_FAMILIES:
        cp = crossed_product(family, dim=3, theta_value=theta, order=order)
        ph = cp.phat()
        report.add(f"phat-order[{family}]", ph ** cp.n == cp.one())
        report.add(f"p-phat-exchange[{family}]", cp.p() * ph == ph * cp.p() * cp.lam)
        units = cp.matrix_units()
        unit_ok = True
        total = cp.zero()
        for i in range(cp.n):
            total = total + units[i][i]
            for j in range(cp.n):
                if units[i][j].star() != units[j][i]:
                    unit_ok = False
        unit_ok = unit_ok and total == cp.one()
        unit_ok = unit_ok and units[0][1 % cp.n] * units[1 % cp.n][0] == units[0][0]
        report.add(f"matrix-units[{family}]", unit_ok)

        psi_ok = True
        invariant_ok = True
        psi_ce = None
        for _ in range(max(3, args.samples // 10)):
            x = random_torus_element(rng, cp.algebra, 2, terms=1)
            y = random_torus_element(rng, cp.algebra, 2, terms=1)
            if cp.psi_element(x) != cp.embed(x):
                psi_ok, psi_ce = False, {"x": repr(x)}
                break
            for comp in cp.psi_components(x):
                if cp.rt.apply(comp) != comp:
                    invariant_ok = False
            mismatch = psi_multiplicativity_mismatch(cp, x, y)
            if mismatch is not None:
                i, j, lhs, rhs = mismatch
                psi_ok, psi_ce = False, {"x": repr(x), "y": repr(y), "entry": (i, j),
                                         "lhs": repr(lhs), "rhs": repr(rhs)}
                break
        report.add(f"psi-multiplicative[{family}]", psi_ok, counterexample=psi_ce)
        report.add(f"psi-components-invariant[{family}]", invariant_ok)
        exchange = verify_exchange_iso(family, degree=args.degree, theta_value=theta, order=order)
        for check in exchange.checks:
            report.add(f"exchange-{check.name}[{family}]", check.ok, check.detail)


def _suite_betastar(report: Report, args, theta, order):
    for family in families.K_FAMILIES:
        eps_values = (1, -1) if family == "B2" else (1,)
        for eps in eps_values:
            rep = verify_beta_star(family, eps, theta_value=theta, order=order)
            suffix = f"[{family}]" if family != "B2" else f"[B2,eps={eps:+d}]"
            for check in rep.checks:
                report.add(f"{check.name}{suffix}", check.ok, check.detail)
            for note in rep.anomalies:
                report.add_anomaly(f"note{suffix}", note)


def _suite_homology(report: Report, args, theta, order):
    for family in families.K_FAMILIES:
        h1 = bieberbach_h1(family)
        report.payload.setdefault("h1", {})[family] = _group_dict(h1)
        report.add(f"k0-equals-z-plus-h1[{family}]", compare_with_k0(family))


_SUITE_RUNNERS = {
    "algebra": _suite_algebra,
    "actions": _suite_actions,
    "crossed": _suite_crossed,
    "traces": _suite_traces,
    "morita": _suite_morita,
    "betastar": _suite_betastar,
    "homology": _suite_homology,
}


def cmd_verify(args) -> int:
    theta = args.theta
    order = _theta_order(theta)
    report = Report("verify", _config(
        args, "seed", "samples", "degree", "denominator", "suite", "strict",
        cyclotomic_order=session_order() if order is None else order,
        theta_mode="symbolic" if theta is None else str(theta),
    ))
    suites = list(_SUITE_RUNNERS) if args.suite == "all" else [args.suite]
    for suite in suites:
        _SUITE_RUNNERS[suite](report, args, theta, order)
    return _emit(report, args)


def cmd_homology(args) -> int:
    report = Report("homology", _config(args, family=args.family or "all"))
    fams = [args.family] if args.family else list(families.K_FAMILIES)
    for family in fams:
        h1 = bieberbach_h1(family)
        k0, _ = pv_solve(beta_star_matrix(family, 1))
        report.payload[family] = {"H1": _group_dict(h1), "K0": _group_dict(k0)}
        report.add(f"k0-equals-z-plus-h1[{family}]", compare_with_k0(family))
    return _emit(report, args)


# ---------------------------------------------------------------------------
# argument parsing


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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

    def denominator(p):
        p.add_argument("--denominator", type=int, default=6,
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
    p_v.add_argument("--samples", type=_positive_int, default=40)
    p_v.add_argument("--degree", type=_positive_int, default=2)
    p_v.add_argument("--theta", type=_fraction, default=None,
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
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"nbk: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
