"""Command line front end.

Subcommands:
  coeffs             exact coefficient table of one family instance
  verify-identities  the four exact identity suites
  scan               sign scan of a family over an N range
  compare            exact coefficients against closed-form main terms
  circle             circle-method quadrature against the exact coefficient

Exit codes: 0 success, 1 identity failure, 2 usage/validation error,
3 conjecture violation found, 4 quadrature mismatch.

Output is deterministic: no timestamps unless --stamp is given, fixed
summation orders, big integers as decimal strings, reals at 17 significant
digits.  THETA_TRUNC_OUT overrides the default output directory.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from fractions import Fraction
from math import gcd

from . import analytic, asymptotics, families
from .analytic import QuadratureSpec
from .asymptotics import LogValue, logvalue_ratio
from .families import FamilySpec
from .series import ThetaParams

EXIT_OK = 0
EXIT_IDENTITY = 1
EXIT_USAGE = 2
EXIT_VIOLATION = 3
EXIT_QUADRATURE = 4

# Largest order or N of verify-identities and circle, and the default
# --n-ceiling of coeffs, scan and compare.
N_CEILING = 10_000
# Largest circle --samples: the count min_samples asks for at N = R =
# N_CEILING, the most any accepted circle input needs (2^20).  The grid holds
# a few complex arrays of this length.
SAMPLES_CEILING = analytic.min_samples(N_CEILING, N_CEILING, asymptotics.THREE_R)

FAMILY_FLAGS = {"C": "C", "Cp": "Cprime", "D": "D", "Dp": "Dprime"}


@dataclass(frozen=True)
class ComparisonRecord:
    """Exact versus main-term magnitude at one N."""

    N: int
    exact_ln: LogValue
    mainterm_ln: LogValue
    ratio: object  # float, or the string "sign-mismatch"
    form: str


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _fmt_real(v: float) -> str:
    return "%.17g" % v


def _fmt_cell(v) -> str:
    if isinstance(v, bool):
        return str(v)
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return _fmt_real(v)
    return str(v)


def _json_cell(v):
    if isinstance(v, LogValue):
        # ln 0 = -inf has no strict-JSON spelling
        return {"sign": v.sign, "lnmag": v.lnmag if v.sign else None}
    if isinstance(v, int) and abs(v) >= 2**53:
        return str(v)
    return v


def resolve_out(path: str | None, default_name: str) -> str:
    """Output path: --out wins; else default name in THETA_TRUNC_OUT or cwd."""
    if path is not None:
        return path
    base = os.environ.get("THETA_TRUNC_OUT", ".")
    return os.path.join(base, default_name)


def write_table(path, fmt, header, rows, stamp=False):
    """Write rows as CSV (with header) or JSON lines with the header keys."""
    with open(path, "w", encoding="utf-8") as fh:
        if fmt == "csv":
            if stamp:
                fh.write("# stamp: %s\n" % datetime.now(timezone.utc).isoformat())
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt_cell(c) for c in row) + "\n")
        else:
            if stamp:
                fh.write(json.dumps({"_stamp": datetime.now(timezone.utc).isoformat()}) + "\n")
            for row in rows:
                obj = {k: _json_cell(v) for k, v in zip(header, row)}
                fh.write(json.dumps(obj, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# subcommands (domain-level; argparse wrappers below)
# ---------------------------------------------------------------------------

def cmd_coeffs(spec: FamilySpec, n_max: int, fmt: str, out: str, stamp=False) -> int:
    """Write the table N, coefficient (decimal string) for N = 0..n_max."""
    series = families.genfun_family(spec, n_max + 1)
    rows = [(n, str(series[n])) for n in range(n_max + 1)]
    write_table(out, fmt, ("N", "coefficient"), rows, stamp)
    return EXIT_OK


def cmd_verify_identities(order: int = 200, decomp_order: int = 300, quiet=False) -> int:
    """Run the four exact identity suites; exit 1 on the first mismatch."""
    def report(name, lhs, rhs):
        where = lhs.first_mismatch(rhs)
        if where is None:
            if not quiet:
                print("PASS %s" % name)
            return True
        print(
            "FAIL %s: first mismatch at exponent %d (%d != %d)"
            % (name, where, lhs[where], rhs[where])
        )
        return False

    ok = True
    ok &= report("pentagonal order=%d" % order, *families.pentagonal_sides(order))
    for k in range(1, 7):
        ok &= report(
            "truncated-pentagonal k=%d order=%d" % (k, order),
            *families.truncated_pentagonal_sides(k, order),
        )
    for R, S in families.GRID_RS:
        ok &= report(
            "quintuple R=%d S=%d order=%d" % (R, S, order),
            *families.quintuple_product_sides(R, S, order),
        )
    for spec in families.default_grid():
        ok &= report(
            "decomposition %s R=%d S=%d k=%d order=%d"
            % (spec.family, spec.R, spec.S, spec.k, decomp_order),
            families.genfun_family(spec, decomp_order),
            families.genfun_family_via_decomposition(spec, decomp_order),
        )
    return EXIT_OK if ok else EXIT_IDENTITY


def cmd_scan(spec: FamilySpec, n_lo: int, n_hi: int, fmt="csv", out=None, stamp=False) -> int:
    """Check the family sign pattern on [n_lo, n_hi]; exit 3 on violation."""
    violations = families.scan_signs(spec, n_lo, n_hi)
    status = "violated" if violations else "clean"
    print(
        "scan %s R=%d S=%d k=%d N in [%d, %d]: %s (%d violations)"
        % (spec.family, spec.R, spec.S, spec.k, n_lo, n_hi, status, len(violations))
    )
    if out is not None:
        rows = [(n, str(v)) for n, v in violations]
        write_table(out, fmt, ("N", "coefficient"), rows, stamp)
    return EXIT_OK if not violations else EXIT_VIOLATION


def cmd_compare(spec: FamilySpec, n_list, form="elementary", fmt="csv", out=None, stamp=False):
    """Exact versus main-term records for each N; returns (exit, records).

    CSV rows carry the log magnitudes; JSON rows carry full {sign, lnmag}
    objects for both log values.
    """
    n_max = max(n_list)
    series = families.genfun_family(spec, n_max + 1)
    records = []
    for n in sorted(n_list):
        exact = LogValue.from_int(series[n])
        main = asymptotics.mainterm_family(spec, n, form)
        records.append(
            ComparisonRecord(n, exact, main, logvalue_ratio(exact, main), form)
        )
    if fmt == "json":
        rows = [(r.N, r.exact_ln, r.mainterm_ln, r.ratio) for r in records]
    else:
        rows = [
            (r.N, r.exact_ln.lnmag, r.mainterm_ln.lnmag, r.ratio) for r in records
        ]
    if out is not None:
        write_table(out, fmt, ("N", "ln_exact", "ln_mainterm", "ratio"), rows, stamp)
    else:
        for r in records:
            print(
                ",".join(
                    _fmt_cell(c)
                    for c in (r.N, r.exact_ln.lnmag, r.mainterm_ln.lnmag, r.ratio)
                )
            )
    return EXIT_OK, records


def cmd_circle(p: ThetaParams, R: int, S: int, N: int, samples=None, variant=asymptotics.THREE_R) -> int:
    """Quadrature versus exact coefficient; exit 4 unless they round equal.

    Besides the value, its rounding and the exact coefficient, prints the
    arc split, the integer margin |v - round v| and the float headroom
    53 - bit length of the exact coefficient (negative past float64).
    An invalid sample count raises ValueError before anything is printed.
    """
    if samples is None:
        samples = analytic.min_samples(N, R, variant)
    quad = QuadratureSpec(N, samples, variant)
    value = analytic.wright_coefficient(p, R, S, quad)
    split = analytic.arc_split_diagnostic(p, R, S, N, samples, variant=variant)
    genfun = families.genfun_B if variant == asymptotics.THREE_R else families.genfun_Bprime
    exact = genfun(p, R, S, N + 1)[N]
    rounded = round(value)
    print("quadrature value : %s" % _fmt_real(value))
    print("rounded          : %d" % rounded)
    print("exact            : %d" % exact)
    print("|I''|/|I'|       : %s" % _fmt_real(split.ratio))
    print("integer margin   : %s" % _fmt_real(abs(value - rounded)))
    print("float headroom   : %d" % (53 - exact.bit_length()))
    return EXIT_OK if rounded == exact else EXIT_QUADRATURE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_family_flags(sp):
    sp.add_argument("--family", required=True, choices=sorted(FAMILY_FLAGS))
    sp.add_argument("--R", type=int, required=True)
    sp.add_argument("--S", type=int, required=True)
    sp.add_argument("--k", type=int, required=True)


def _add_io_flags(sp):
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--stamp", action="store_true")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="theta-trunc",
        description="exact and asymptotic coefficients of truncated theta series",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="exact coefficient table")
    _add_family_flags(sp)
    sp.add_argument("--n-max", type=int, required=True)
    sp.add_argument("--n-ceiling", type=int, default=N_CEILING)
    _add_io_flags(sp)

    sp = sub.add_parser("verify-identities", help="exact identity suites")
    sp.add_argument("--order", type=int, default=200)
    sp.add_argument("--decomp-order", type=int, default=300)

    sp = sub.add_parser("scan", help="sign scan over an N range")
    _add_family_flags(sp)
    sp.add_argument("--n-lo", type=int, default=1)
    sp.add_argument("--n-hi", type=int, required=True)
    sp.add_argument("--n-ceiling", type=int, default=N_CEILING)
    _add_io_flags(sp)

    sp = sub.add_parser("compare", help="exact vs main-term magnitudes")
    _add_family_flags(sp)
    sp.add_argument("--n", type=int, action="append", required=True, dest="n_list")
    sp.add_argument("--form", choices=("elementary", "bessel"), default="elementary")
    sp.add_argument("--n-ceiling", type=int, default=N_CEILING)
    _add_io_flags(sp)

    sp = sub.add_parser("circle", help="circle quadrature vs exact coefficient")
    sp.add_argument("--a", type=Fraction, required=True)
    sp.add_argument("--c", type=Fraction, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--R", type=int, required=True)
    sp.add_argument("--S", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--variant", choices=(asymptotics.THREE_R, asymptotics.TWO_R), default=asymptotics.THREE_R)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "coeffs":
            if args.n_max < 0:
                raise ValueError("n-max must be >= 0")
            if args.n_max > args.n_ceiling:
                raise ValueError("n-max above ceiling %d" % args.n_ceiling)
            spec = FamilySpec(FAMILY_FLAGS[args.family], args.R, args.S, args.k)
            out = resolve_out(args.out, "coeffs.%s" % args.format)
            return cmd_coeffs(spec, args.n_max, args.format, out, args.stamp)
        if args.command == "verify-identities":
            if args.order < 50:
                raise ValueError("order must be >= 50")
            if args.order > N_CEILING:
                raise ValueError("order above ceiling %d" % N_CEILING)
            if args.decomp_order < 1:
                raise ValueError("decomp-order must be >= 1")
            if args.decomp_order > N_CEILING:
                raise ValueError("decomp-order above ceiling %d" % N_CEILING)
            return cmd_verify_identities(args.order, args.decomp_order)
        if args.command == "scan":
            if not 1 <= args.n_lo <= args.n_hi:
                raise ValueError("need 1 <= n-lo <= n-hi")
            if args.n_hi > args.n_ceiling:
                raise ValueError("n-hi above ceiling %d" % args.n_ceiling)
            spec = FamilySpec(FAMILY_FLAGS[args.family], args.R, args.S, args.k)
            return cmd_scan(spec, args.n_lo, args.n_hi, args.format, args.out, args.stamp)
        if args.command == "compare":
            if max(args.n_list) > args.n_ceiling:
                raise ValueError("N above ceiling %d" % args.n_ceiling)
            spec = FamilySpec(FAMILY_FLAGS[args.family], args.R, args.S, args.k)
            code, _ = cmd_compare(spec, args.n_list, args.form, args.format, args.out, args.stamp)
            return code
        if args.command == "circle":
            if args.N < 1:
                raise ValueError("N must be >= 1")
            if args.N > N_CEILING:
                raise ValueError("N above ceiling %d" % N_CEILING)
            if args.R > N_CEILING:
                raise ValueError("R above ceiling %d" % N_CEILING)
            if not 1 <= args.S < args.R:
                raise ValueError("need 1 <= S < R")
            if gcd(args.R, args.S) != 1:
                raise ValueError("R and S must be coprime")
            if args.samples is not None and args.samples > SAMPLES_CEILING:
                raise ValueError("samples above ceiling %d" % SAMPLES_CEILING)
            p = ThetaParams(args.a, args.c, args.d)
            return cmd_circle(p, args.R, args.S, args.N, args.samples, args.variant)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


def console_main():
    sys.exit(main())


if __name__ == "__main__":
    console_main()
