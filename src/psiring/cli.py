"""Command-line front end: every verification as a reproducible report.

Exit codes: 0 all checks pass, 1 a mathematical check failed, 2 usage or
budget error (an --out file that cannot be written included), 3 an unexpected
internal error, with its traceback on stderr.  Reports are byte-identical for
a fixed configuration and seed at any --threads value; wall-clock timings
appear only under --timings.
"""

from __future__ import annotations

import argparse
import functools
import sys
import time
import traceback
from dataclasses import replace
from fractions import Fraction

from . import __version__
from .errors import BudgetError, UsageError
from .fields import DEFAULT_PRIME, field_name, parse_field
from .geometry import (
    DEFAULT_MINOR_BUDGET,
    alpha_values,
    channels_consistent,
    check_singular_budget,
    pole_table,
    sample_config,
    singular_locus_dim,
    verify_vanishing,
)
from .groebner import groebner_for, krull_dimension, leading_terms_agree
from .koszul import DEFAULT_ELEMENT_BUDGET, b2_structural, koszul_summary
from .orders import BLOCK_GREVLEX, GREVLEX, LEX, MonomialOrder
from .poly import poly_text
from .presentation import (
    CYCLIC, CUSTOM, PivotScheme, build_an, build_bnm, presentation_size, presentation_to_dict,
)
from .reports import Report, make_check, render
from .rng import SplitMix64
from .series import TruncatedSeries, curve_module_series, degree_grid, lee_series_restricted
from .slices import orbit_sweep, standard_monomial_count
from .util import parallel_map

TOOL = "psiring"


def parse_pivot(text: str) -> PivotScheme:
    """'cyclic' or 'custom:p1,p2,...' with 1-based pivots."""
    if text == CYCLIC:
        return PivotScheme(CYCLIC)
    if text.startswith("custom:"):
        try:
            parts = tuple(int(x) for x in text.split(":", 1)[1].split(","))
        except ValueError as exc:
            raise UsageError(f"bad pivot spec {text!r}") from exc
        return PivotScheme(CUSTOM, assignment=parts)
    raise UsageError(f"bad pivot spec {text!r}; expected 'cyclic' or 'custom:...'")


def parse_order(text: str, spec) -> MonomialOrder:
    if text == "grevlex":
        return MonomialOrder(GREVLEX)
    if text == "lex":
        return MonomialOrder(LEX)
    if text == "block":
        return MonomialOrder(BLOCK_GREVLEX, blocks=spec.blocks, nblocks=spec.nblocks)
    raise UsageError(f"unknown order {text!r}")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument tree, built once per process: parsing leaves it unchanged."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--kind", choices=["an", "bnm"], default="an")
    common.add_argument("--n", type=int, default=4)
    common.add_argument("--m", type=int, default=0)
    common.add_argument("--pivot", default="cyclic",
                        help="cyclic or custom:p1,p2,... (--kind an only)")
    common.add_argument("--seed", type=int, default=20260819)
    common.add_argument("--format", choices=["json", "csv", "md"], default="json")
    common.add_argument("--out", default=None)
    common.add_argument("--threads", type=int, default=1,
                        help="accepted and validated (at least 1); every map runs in one thread")
    common.add_argument("--timings", action="store_true",
                        help="include wall-clock timings (breaks byte determinism)")

    # --field only on the subcommands whose arithmetic reads it
    field = argparse.ArgumentParser(add_help=False)
    field.add_argument("--field", default=None,
                       help="rational (default) or prime[:p]")

    ap = argparse.ArgumentParser(prog=TOOL, description=__doc__)
    ap.add_argument("--version", action="version", version=f"{TOOL} {__version__}")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("presentation", parents=[common, field],
                       help="dump a presentation: variables, grading, relations")
    p.add_argument("action", choices=["dump"])

    h = sub.add_parser("hilbert", parents=[common],
                       help="series coefficients (lee), slice ranks (brute), or both (verify)")
    h.add_argument("action", choices=["lee", "brute", "verify"])
    h.add_argument("--max-total", type=int, default=4)

    g = sub.add_parser("gb", parents=[common, field], help="Groebner basis and Krull dimension")
    g.add_argument("action", choices=["run"])
    g.add_argument("--order", default="grevlex", help="grevlex, lex, or block")
    g.add_argument("--cap", type=int, default=None,
                   help="discard S-pairs above this total degree")

    k = sub.add_parser("koszul", parents=[common],
                       help="dual dimension tower against the inverted series")
    k.add_argument("--kmax", type=int, default=4)
    k.add_argument("--budget", type=int, default=DEFAULT_ELEMENT_BUDGET)

    s = sub.add_parser("sample", parents=[common],
                       help="sample configurations and verify vanishing")
    s.add_argument("--count", type=int, default=20)

    si = sub.add_parser("singular", parents=[common, field],
                        help="dimension of the singular locus (relations + minors)")
    si.add_argument("--budget", type=int, default=DEFAULT_MINOR_BUDGET)

    v = sub.add_parser("verify-theorem-a", parents=[common],
                       help="composite slice/series/Groebner agreement run")
    v.add_argument("--max-total", type=int, default=5)

    return ap


def _field_for(args, default: int = 0) -> int:
    """The --field characteristic, default when the flag is absent."""
    text = getattr(args, "field", None)
    return default if text is None else parse_field(text)


def _pivot(args) -> PivotScheme:
    """The --pivot scheme, validated against --n; only cyclic outside --kind an.
    Also refuses --m outside --kind bnm, where nothing would read it."""
    if args.kind == "an" and args.m:
        raise UsageError("--m applies to --kind bnm")
    pivot = parse_pivot(args.pivot)
    if args.kind != "an" and pivot.kind != CYCLIC:
        raise UsageError("--pivot applies to --kind an")
    pivot.validate(args.n)
    return pivot


def _spec(args, field=None):
    pivot = _pivot(args)
    if args.kind == "an":
        spec = build_an(args.n, pivot)
    else:
        spec = build_bnm(args.n, args.m)
    return spec.to_field(field if field is not None else _field_for(args))


def _config_echo(args, **extra) -> dict:
    cfg = {
        "subcommand": args.cmd + (f" {args.action}" if hasattr(args, "action") else ""),
        "kind": args.kind,
        "n": args.n,
        "m": args.m,
        "pivot": args.pivot,
        "field": getattr(args, "field", None) or "rational",
        "seed": args.seed,
        "format": args.format,
    }
    cfg.update(extra)
    return cfg


def _coefficient_table(report: Report, series, nvars: int):
    rows = [list(a) + [c] for a, c in series.items()]
    cols = [f"a[{i + 1}]" for i in range(nvars)] + ["coefficient"]
    report.add_table("coefficients", cols, rows)


# -- subcommand bodies --------------------------------------------------------------

def cmd_presentation(args) -> Report:
    spec = _spec(args)
    report = Report(TOOL, __version__, _config_echo(args))
    nv_want, nr_want = presentation_size(args.n, args.m)
    report.add(make_check(
        "presentation-audit",
        {"algebra": spec.name()},
        f"{nv_want} variables, {nr_want} relations",
        f"{spec.nvars} variables, {len(spec.relations)} relations",
    ))
    report.payload = presentation_to_dict(spec)
    return report


def cmd_hilbert(args) -> Report:
    return _hilbert(args)[0]


def _hilbert(args) -> tuple[Report, TruncatedSeries | None]:
    """cmd_hilbert's report, and the series table it expanded (None for brute)."""
    D = args.max_total
    if D < 0:
        raise UsageError(f"negative --max-total {D}")
    report = Report(TOOL, __version__, _config_echo(args, max_total=D))

    if args.action == "lee":
        _pivot(args)  # the series does not read it, but a bad --pivot or --m is still refused
        presentation_size(args.n, args.m)  # refuses the (n, m) that verify refuses
        series = lee_series_restricted(args.n, args.m, D)
        _coefficient_table(report, series, args.n)
        return report, series

    spec = _spec(args)
    slices = orbit_sweep(spec, degree_grid(spec.nblocks, D), args.threads)

    if args.action == "brute":
        rows = [list(r.multidegree) + [r.monomials, r.rows, r.rank, r.dimension, r.method]
                for r in slices]
        cols = [f"a[{i + 1}]" for i in range(args.n)]
        cols += ["monomials", "relation_rows", "rank", "dimension", "method"]
        report.add_table("dimensions", cols, rows)
        return report, None

    # verify: slices against the series, plus the pointwise anchors
    series = lee_series_restricted(args.n, args.m, D)  # B(n,0) is A(n)
    rows, mism = [], 0
    for r in slices:
        want = series[r.multidegree]
        ok = r.dimension == want
        mism += 0 if ok else 1
        rows.append(list(r.multidegree) + [want, r.dimension, "yes" if ok else "NO"])
    cols = [f"a[{i + 1}]" for i in range(args.n)] + ["series", "slice", "match"]
    report.add_table("comparison", cols, rows)
    report.add(make_check(
        "slice-vs-series",
        {"algebra": spec.name(), "max_total": D, "slices": len(slices)},
        "0 mismatches", f"{mism} mismatches",
    ))
    _add_anchor_checks(report, args, series, D)
    return report, series


def _add_anchor_checks(report: Report, args, series, D: int):
    n = args.n
    if D >= 1:
        e_vals = []
        for i in range(n):
            a = tuple(1 if j == i else 0 for j in range(n))
            e_vals.append(series[a])
        want = n + args.m - 2
        report.add(make_check(
            "series-anchor-e", {"n": n, "m": args.m},
            str([want] * n), str(e_vals),
        ))
    if D >= 2 and n >= 2:
        pair_vals = set()
        for i in range(n):
            for j in range(i + 1, n):
                a = tuple(1 if t in (i, j) else 0 for t in range(n))
                pair_vals.add(series[a])
        N = n + args.m - 3
        report.add(make_check(
            "series-anchor-pair", {"n": n, "m": args.m},
            str({N * N + N + 1}), str(pair_vals),
        ))
    if args.kind == "an" and n == 3:
        report.add(make_check("series-all-ones", {"n": 3}, "{1}", str(set(series.values()))))
    if args.kind == "bnm" and (n, args.m) == (2, 2):
        bad = [a for a, c in series.items() if c != a[0] + a[1] + 1]
        report.add(make_check("conifold-coefficients", {"max_total": D},
                              "0 exceptions", f"{len(bad)} exceptions"))
    if args.kind == "an" and n >= 4:
        cm = curve_module_series(n, D)
        rs = lee_series_restricted(n - 1, 1, D)
        report.add(make_check(
            "curve-module-factorization", {"n": n, "max_total": D},
            "identical series", "identical series" if cm == rs else "series differ",
        ))


def cmd_gb(args) -> Report:
    if args.cap is not None and args.cap < 0:
        raise UsageError(f"negative --cap {args.cap}")
    spec = _spec(args)
    order = parse_order(args.order, spec)
    report = Report(TOOL, __version__,
                    _config_echo(args, order=args.order, cap=args.cap))
    gb = groebner_for(spec, order, cap=args.cap)
    names = spec.var_names()
    report.payload = {
        "basis_size": len(gb),
        "complete": gb.complete,
        "cap": args.cap,
        "basis": [poly_text(g, names, order) for g in gb.basis],
    }
    if gb.complete:
        want = 2 * args.n + args.m - 3
        report.add(make_check(
            "krull-dimension", {"algebra": spec.name()},
            want, krull_dimension(gb),
        ))
    other = 0 if spec.field else DEFAULT_PRIME
    inputs = {"fields": f"{field_name(spec.field)} vs {field_name(other)}"}
    same = "identical leading terms"
    skip = len(gb) > 200  # a second basis this large would double the run
    if skip:
        got = f"not run: {len(gb)} members above 200"
    else:
        gb2 = groebner_for(spec.to_field(other), order, cap=args.cap)
        got = same if leading_terms_agree(gb, gb2) else "leading terms differ"
    # a check not run is an informative record, never a silent gap
    report.add(make_check("groebner-cross-field", inputs, same, got, informative=skip))
    return report


def cmd_koszul(args) -> Report:
    if args.kind != "an":
        raise UsageError("the dual tower is computed for --kind an")
    pivot = _pivot(args)
    report = Report(TOOL, __version__,
                    _config_echo(args, kmax=args.kmax, budget=args.budget))
    if args.kmax < 0:
        raise UsageError(f"negative degree {args.kmax}")
    if args.budget < 0:
        raise UsageError(f"negative --budget {args.budget}")
    # stage 2 is computed whatever kmax, for koszul-b2; only stages <= kmax are reported
    summary = koszul_summary(args.n, max(args.kmax, 2), budget=args.budget, pivot=pivot)
    b2, stage2 = b2_structural(args.n), summary.stages[2]
    b2_ok = b2 == stage2.predicted == stage2.dual_dim
    report.add(make_check("koszul-b2", {"n": args.n}, b2, stage2.dual_dim))
    summary = replace(summary, kmax=args.kmax, stages=summary.stages[: args.kmax + 1])
    for s in summary.stages:
        report.add(make_check(
            "koszul-dual-vs-series", {"n": args.n, "k": s.k},
            s.predicted, s.dual_dim,
            informative=b2_ok,  # a confirmed finding, not a failure, while b2 holds
        ))
    report.payload = {
        "tower": [s.dual_dim for s in summary.stages],
        "predicted": [s.predicted for s in summary.stages],
        "primes": list(summary.primes),
        "verdict": summary.verdict,
    }
    return report


def cmd_sample(args) -> Report:
    if args.count < 1:
        raise UsageError(f"--count must be positive, got {args.count}")
    spec = _spec(args, field=0)
    report = Report(TOOL, __version__, _config_echo(args, count=args.count))
    rng = SplitMix64(args.seed)
    child_seeds = [rng.next_u64() for _ in range(args.count)]
    names = spec.var_names()

    def one(seed: int) -> dict:
        cfg = sample_config(args.n, args.m, seed)
        table = pole_table(cfg)
        point = alpha_values(spec, table)
        bad = verify_vanishing(spec, point)
        den, nums = point
        entry = {
            "seed": seed,
            "z": [str(x) for x in cfg.z],
            "q": [str(x) for x in cfg.q],
            "lam": [str(x) for x in cfg.lam],
            "values": {name: str(Fraction(x, den)) for name, x in zip(names, nums)},
            "vanishing": "ok" if not bad else f"failed at relations {bad}",
        }
        if args.kind == "an":
            entry["channels"] = "ok" if channels_consistent(table[1]) else "dependent"
        return entry

    entries = parallel_map(one, child_seeds, args.threads)
    nvan = sum(1 for e in entries if e["vanishing"] == "ok")
    report.add(make_check(
        "vanishing-oracle", {"algebra": spec.name(), "count": args.count},
        f"{args.count}/{args.count} vanish", f"{nvan}/{args.count} vanish",
    ))
    if args.kind == "an":
        nch = sum(1 for e in entries if e.get("channels") == "ok")
        report.add(make_check(
            "channel-independence", {"n": args.n, "count": args.count},
            f"{args.count}/{args.count} consistent", f"{nch}/{args.count} consistent",
        ))
    report.payload = {"points": entries}
    return report


def cmd_singular(args) -> Report:
    if args.budget < 0:
        raise UsageError(f"negative --budget {args.budget}")
    field = _field_for(args, default=DEFAULT_PRIME)
    _pivot(args)
    # refused from the closed-form sizes, before the presentation is built
    check_singular_budget(args.n, args.m, args.budget)
    spec = _spec(args, field=field)
    report = Report(TOOL, __version__, _config_echo(args, budget=args.budget))
    r = singular_locus_dim(spec, budget=args.budget)
    got = "empty" if r.singular_dim < 0 else str(r.singular_dim)
    report.add(make_check(
        "singular-locus-bound", {"algebra": r.algebra},
        f"dimension < {r.variety_dim}", got,
        ok=r.bound_met,
    ))
    report.payload = {
        "algebra": r.algebra,
        "variety_dim": r.variety_dim,
        "codim": r.codim,
        "minors": r.minors,
        "singular_dim": r.singular_dim,
    }
    return report


def cmd_verify_theorem_a(args) -> Report:
    if args.kind != "an":
        raise UsageError("verify-theorem-a runs on --kind an")
    args.action = "verify"
    report, series = _hilbert(args)  # A(n)'s table: B(n,0) is A(n)
    report.config["subcommand"] = "verify-theorem-a"
    spec = _spec(args, field=DEFAULT_PRIME)
    skip = args.n > 6  # no budget covers an A(7) basis
    if skip:
        agreement = dim = f"not run: n = {args.n} above 6"
    else:
        gb = groebner_for(spec)
        mism = sum(standard_monomial_count(gb, spec, a) != c
                   for a, c in series.items())
        agreement, dim = f"{mism} mismatches", krull_dimension(gb)
    report.add(make_check("groebner-slice-agreement", {"n": args.n, "max_total": args.max_total},
                          "0 mismatches", agreement, informative=skip))
    report.add(make_check("krull-dimension", {"algebra": spec.name()},
                          2 * args.n - 3, dim, informative=skip))
    return report


DISPATCH = {
    "presentation": cmd_presentation,
    "hilbert": cmd_hilbert,
    "gb": cmd_gb,
    "koszul": cmd_koszul,
    "sample": cmd_sample,
    "singular": cmd_singular,
    "verify-theorem-a": cmd_verify_theorem_a,
}


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.threads < 1:
            raise UsageError(f"--threads must be at least 1, got {args.threads}")
        t0 = time.perf_counter()
        report = DISPATCH[args.cmd](args)
        if args.timings:
            report.timings = {report.config["subcommand"]: time.perf_counter() - t0}
        data = render(report, args.format)
        if args.out:
            try:
                with open(args.out, "wb") as fh:
                    fh.write(data)
            except OSError as exc:
                raise UsageError(f"cannot write --out {args.out}: {exc.strerror}") from exc
        else:
            sys.stdout.buffer.write(data)
        return report.exit_code
    except UsageError as exc:
        print(f"{TOOL}: error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"{TOOL}: refused: {exc}", file=sys.stderr)
        return 2
    except Exception:  # a crash, kept apart from exit 1 (a failed check)
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
