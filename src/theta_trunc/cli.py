"""Command line front end.

Subcommands:
  coeffs             exact coefficient table of one family instance
  verify-identities  the four exact identity suites
  scan               sign scan of a family over an N range, for one or more k
  compare            exact coefficients against closed-form main terms
  circle             circle-method quadrature against the exact coefficient

Exit codes: 0 success, 1 identity failure, 2 usage/validation error or
an unwritable --out, 3 conjecture violation found, 4 quadrature mismatch.

Output is deterministic: no timestamps, fixed summation orders, big
integers as decimal strings, reals at 17 significant digits.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
from fractions import Fraction
from functools import lru_cache
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

# The one ceiling of every size flag, read by _check_range when it runs.
# The library has none.
N_CEILING = 10_000

FAMILY_FLAGS = {"C": "C", "Cp": "Cprime", "D": "D", "Dp": "Dprime"}


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------

def _fmt_real(v: float) -> str:
    return "%.17g" % v


def _fmt_cell(v) -> str:
    """CSV cell: a LogValue as its log magnitude, a float at 17 digits."""
    if isinstance(v, LogValue):
        v = v.lnmag
    return _fmt_real(v) if isinstance(v, float) else str(v)


def _json_cell(v):
    if isinstance(v, LogValue):
        # ln 0 = -inf has no strict-JSON spelling
        return {"sign": v.sign, "lnmag": v.lnmag if v.sign else None}
    return v


def _line(fmt, header, row) -> str:
    """One table row: CSV cells, or a JSON object keyed by the header."""
    if fmt == "csv":
        return ",".join(map(_fmt_cell, row))
    import json

    return json.dumps({k: _json_cell(v) for k, v in zip(header, row)}, sort_keys=True)


# The (N, coefficient) table of coeffs and scan --out: one row template per
# format, the bytes _line writes for (n, str(c)) plus the newline.  In JSON
# "N" sorts before "coefficient" and a decimal integer needs no escaping.
COEFF_HEADER = ("N", "coefficient")
COEFF_ROW = {"csv": "%d,%d\n", "json": '{"N": %d, "coefficient": "%d"}\n'}


def _check_writable(path):
    """Raise the OSError that writing ``path`` (None: no file) would, before
    any work is done; a file this check creates is removed again."""
    if path is not None:
        existed = os.path.exists(path)
        open(path, "a", encoding="utf-8").close()
        if not existed:
            os.remove(path)


def write_table(path, fmt, header, lines):
    """Write formatted table lines, each ending in a newline, after the
    header line in CSV (JSON lines carry the header as their keys).  A
    failed write or close names no file, so its OSError is given ``path``."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            if fmt == "csv":
                fh.write(",".join(header) + "\n")
            fh.writelines(lines)
    except OSError as exc:
        if exc.filename is None:
            exc.filename = path
        raise


def _emit(out, fmt, header, lines):
    """The one output rule of coeffs and compare: the table goes to the file
    ``out`` (see ``write_table``), or with ``out`` None its lines go to
    stdout as the file would hold them, without the CSV header line."""
    if out is not None:
        write_table(out, fmt, header, lines)
    else:
        for line in lines:
            sys.stdout.write(line)


# ---------------------------------------------------------------------------
# subcommands (domain-level; argparse wrappers below)
# ---------------------------------------------------------------------------

def cmd_coeffs(spec: FamilySpec, n_max: int, fmt: str, out) -> int:
    """Emit the table N, coefficient (decimal string) for N = 0..n_max."""
    series = families.genfun_family(spec, n_max + 1)
    _emit(out, fmt, COEFF_HEADER, map(COEFF_ROW[fmt].__mod__, enumerate(series.coeffs)))
    return EXIT_OK


def cmd_verify_identities(order: int, decomp_order: int) -> int:
    """Run every exact identity suite to its end; exit 1 if any check failed."""
    def report(name, lhs, rhs):
        if lhs.coeffs == rhs.coeffs:
            print("PASS %s" % name)
            return True
        where = next(i for i, (a, b) in enumerate(zip(lhs.coeffs, rhs.coeffs)) if a != b)
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
    # One packed division per shared denominator; each spec's route B is
    # decoded from its field of the packed quotient.
    grid = families.default_grid()
    sides = families.decomposition_sides(grid, decomp_order)
    for spec in grid:
        name = "decomposition %s R=%d S=%d k=%d order=%d" % (spec + (decomp_order,))
        ok &= report(name, *sides[spec])
    return EXIT_OK if ok else EXIT_IDENTITY


def cmd_scan(spec: FamilySpec, n_hi: int, fmt, out) -> int:
    """Check the family sign pattern on [1, n_hi]; exit 3 on violation.

    ``scan`` with several --k runs this once per k, in the order given;
    the k of one (R, S) share the family's cached quotient.
    """
    violations = families.scan_signs(spec, n_hi)
    status = "violated" if violations else "clean"
    print(
        "scan %s R=%d S=%d k=%d N in [1, %d]: %s (%d violations)"
        % (spec.family, spec.R, spec.S, spec.k, n_hi, status, len(violations))
    )
    if out is not None:
        write_table(out, fmt, COEFF_HEADER, map(COEFF_ROW[fmt].__mod__, violations))
    return EXIT_OK if not violations else EXIT_VIOLATION


def cmd_compare(spec: FamilySpec, n_list, form, fmt, out) -> int:
    """Rows (N, exact LogValue, main-term LogValue, ratio) for each N, the
    ratio a float or "sign-mismatch".  CSV cells carry the log magnitudes,
    JSON rows {sign, lnmag} objects.
    """
    n_list = sorted(n_list)
    rows = []
    for n, coefficient in zip(n_list, families.family_coefficients(spec, n_list)):
        exact = LogValue.from_int(coefficient)
        try:
            main = asymptotics.mainterm_family(spec, n, form)
        except OverflowError as exc:
            raise ValueError("main term beyond float range: %s" % exc) from None
        rows.append((n, exact, main, logvalue_ratio(exact, main)))
    header = ("N", "ln_exact", "ln_mainterm", "ratio")
    _emit(out, fmt, header, (_line(fmt, header, row) + "\n" for row in rows))
    return EXIT_OK


def cmd_circle(p: ThetaParams, R: int, S: int, N: int, variant: str) -> int:
    """Quadrature versus exact coefficient; exit 4 unless they round equal.

    The quadrature samples at ``analytic.min_samples(N, R, variant)``.
    Besides the value, its rounding and the exact coefficient, prints the
    arc split (n/a when the main arc is 0), the integer margin
    |v - round v| and the float headroom 53 - bit length of the exact
    coefficient (negative past float64).
    """
    samples = analytic.min_samples(N, R, variant)
    quad = QuadratureSpec(N, samples, variant)
    value = analytic.wright_coefficient(p, R, S, quad)
    split = analytic.arc_split_diagnostic(p, R, S, N, samples, variant=variant)
    exact = families.block_coefficient(p, R, S, N, asymptotics.VARIANTS[variant].quotient)
    rounded = round(value)
    print("quadrature value : %s" % _fmt_real(value))
    print("rounded          : %d" % rounded)
    print("exact            : %d" % exact)
    print("|I''|/|I'|       : %s" % (_fmt_real(split.ratio) if split.I_main else "n/a"))
    print("integer margin   : %s" % _fmt_real(abs(value - rounded)))
    print("float headroom   : %d" % (53 - exact.bit_length()))
    return EXIT_OK if rounded == exact else EXIT_QUADRATURE


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def fraction(text: str) -> Fraction:
    """Fraction for --a and --c, with a zero denominator a ValueError, which
    argparse turns into a usage error (it lets ZeroDivisionError through)."""
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


def _add_family_flags(sp, repeat_k=False):
    sp.add_argument("--family", required=True, choices=sorted(FAMILY_FLAGS))
    sp.add_argument("--R", type=int, required=True)
    sp.add_argument("--S", type=int, required=True)
    sp.add_argument("--k", type=int, required=True, action="append" if repeat_k else "store")


def _add_io_flags(sp):
    sp.add_argument("--out", default=None)
    sp.add_argument("--format", choices=("csv", "json"), default="csv")


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: argparse keeps no state between
    ``parse_args`` calls (each returns a fresh namespace), so ``main`` builds
    it once, not per call."""
    ap = argparse.ArgumentParser(
        prog="theta-trunc",
        description="exact and asymptotic coefficients of truncated theta series",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("coeffs", help="exact coefficient table")
    _add_family_flags(sp)
    sp.add_argument("--n-max", type=int, required=True)
    _add_io_flags(sp)

    sp = sub.add_parser("verify-identities", help="exact identity suites")
    sp.add_argument("--order", type=int, default=200)
    sp.add_argument("--decomp-order", type=int, default=300)

    sp = sub.add_parser("scan", help="sign scan over an N range")
    _add_family_flags(sp, repeat_k=True)
    sp.add_argument("--n-hi", type=int, required=True)
    _add_io_flags(sp)

    sp = sub.add_parser("compare", help="exact vs main-term magnitudes")
    _add_family_flags(sp)
    sp.add_argument("--n", type=int, action="append", required=True, dest="n_list")
    sp.add_argument("--form", choices=("elementary", "bessel"), default="elementary")
    _add_io_flags(sp)

    sp = sub.add_parser("circle", help="circle quadrature vs exact coefficient")
    sp.add_argument("--a", type=fraction, required=True)
    sp.add_argument("--c", type=fraction, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--R", type=int, required=True)
    sp.add_argument("--S", type=int, required=True)
    sp.add_argument("--N", type=int, required=True)
    sp.add_argument("--variant", choices=(asymptotics.THREE_R, asymptotics.TWO_R), default=asymptotics.THREE_R)
    return ap


def _check_range(name, low, *values):
    """Raise ValueError unless every value is at least ``low`` and at most
    ``N_CEILING``, the lower bound first."""
    if min(values) < low:
        raise ValueError("%s must be >= %d" % (name, low))
    if max(values) > N_CEILING:
        raise ValueError("%s above ceiling %d" % (name, N_CEILING))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "coeffs":
            _check_range("n-max", 0, args.n_max)
            spec = FamilySpec(FAMILY_FLAGS[args.family], args.R, args.S, args.k)
            _check_writable(args.out)
            return cmd_coeffs(spec, args.n_max, args.format, args.out)
        if args.command == "verify-identities":
            _check_range("order", 50, args.order)
            _check_range("decomp-order", 1, args.decomp_order)
            return cmd_verify_identities(args.order, args.decomp_order)
        if args.command == "scan":
            _check_range("n-hi", 1, args.n_hi)
            specs = [FamilySpec(FAMILY_FLAGS[args.family], args.R, args.S, k) for k in args.k]
            if args.out is not None and len(specs) > 1:
                raise ValueError("--out takes a single --k")
            _check_writable(args.out)
            codes = [cmd_scan(spec, args.n_hi, args.format, args.out) for spec in specs]
            return EXIT_VIOLATION if EXIT_VIOLATION in codes else EXIT_OK
        if args.command == "compare":
            _check_range("n", 1, *args.n_list)
            spec = FamilySpec(FAMILY_FLAGS[args.family], args.R, args.S, args.k)
            _check_writable(args.out)
            return cmd_compare(spec, args.n_list, args.form, args.format, args.out)
        if args.command == "circle":
            _check_range("N", 1, args.N)
            if not 1 <= args.S < args.R:
                raise ValueError("need 1 <= S < R")
            _check_range("R", 2, args.R)
            if gcd(args.R, args.S) != 1:
                raise ValueError("R and S must be coprime")
            p = ThetaParams(args.a, args.c, args.d)
            return cmd_circle(p, args.R, args.S, args.N, args.variant)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        raise  # stdout's reader left; no --out failed
    except OSError as exc:
        print("error: cannot write %s: %s" % (exc.filename, exc.strerror), file=sys.stderr)
        return EXIT_USAGE
    raise AssertionError("unreachable")


def console_main():
    """Shell entry point: a reader leaving stdout ends it by SIGPIPE (141)."""
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(main())


if __name__ == "__main__":
    console_main()
