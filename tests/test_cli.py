"""harness-cli: subcommands, exit codes, file formats, determinism."""

import argparse
import csv
import hashlib
import json
import math
import os
import re
import signal
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from theta_trunc import cli, families
from theta_trunc.analytic import min_samples
from theta_trunc.asymptotics import LogValue, logvalue_ratio, mainterm_family
from theta_trunc.families import FamilySpec, default_grid, genfun_family
from theta_trunc.series import PowerSeries, ThetaParams
from test_families import flip_lowest_block, plant_series


def run(argv):
    return cli.main(argv)


class TestCoeffs:
    def test_table_values(self, tmp_path):
        out = tmp_path / "c.csv"
        code = run(
            "coeffs --family C --R 3 --S 1 --k 1 --n-max 5 --out".split()
            + [str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["N", "coefficient"]
        assert [r[1] for r in rows[1:]] == ["0", "0", "1", "1", "2", "1"]

    def test_cprime_row_zero(self, tmp_path):
        for k, want in ((1, "1"), (2, "-1")):
            out = tmp_path / ("cp%d.csv" % k)
            run(
                ("coeffs --family Cp --R 3 --S 1 --k %d --n-max 1 --out" % k).split()
                + [str(out)]
            )
            rows = list(csv.reader(out.read_text().splitlines()))
            assert rows[1] == ["0", want]

    def test_d_row_one(self, tmp_path):
        out = tmp_path / "d.csv"
        run("coeffs --family D --R 3 --S 1 --k 0 --n-max 1 --out".split() + [str(out)])
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[2] == ["1", "1"]

    def test_invalid_spec_exits_2(self, capsys):
        assert run("coeffs --family C --R 4 --S 2 --k 1 --n-max 5".split()) == 2

    def test_ceiling(self, capsys):
        assert run("coeffs --family C --R 3 --S 1 --k 1 --n-max 20000".split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n-max above ceiling 10000\n"

    def test_missing_out_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        argv = "coeffs --family C --R 3 --S 1 --k 1 --n-max 5 --out".split() + [str(out)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write %s: No such file or directory\n" % out

    def test_negative_n_max_exits_2(self, tmp_path, capsys):
        assert run("coeffs --family C --R 3 --S 1 --k 1 --n-max -1".split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n-max must be >= 0\n"
        out = tmp_path / "n0.csv"
        argv = "coeffs --family C --R 3 --S 1 --k 1 --n-max 0 --out".split() + [str(out)]
        assert run(argv) == 0
        assert out.read_text().splitlines() == ["N,coefficient", "0,0"]

    @pytest.mark.parametrize("fmt, header_lines", [("csv", 1), ("json", 0)], ids=["csv", "json"])
    def test_without_out_prints_the_file_rows(self, fmt, header_lines, tmp_path, monkeypatch, capsys):
        # No file is written without --out, and THETA_TRUNC_OUT is not read.
        cwd, env_dir, files = tmp_path / "cwd", tmp_path / "env", tmp_path / "files"
        for d in (cwd, env_dir, files):
            d.mkdir()
        monkeypatch.chdir(cwd)
        monkeypatch.setenv("THETA_TRUNC_OUT", str(env_dir))
        argv = ("coeffs --family D --R 3 --S 1 --k 1 --n-max 300 --format %s" % fmt).split()
        assert run(argv) == 0
        printed = capsys.readouterr().out
        assert list(cwd.iterdir()) == list(env_dir.iterdir()) == []
        out = files / ("c." + fmt)
        assert run(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        lines = out.read_text().splitlines(keepends=True)
        assert printed == "".join(lines[header_lines:])
        assert printed.count("\n") == 301

    def test_json_big_ints_are_strings(self, tmp_path):
        out = tmp_path / "c.json"
        run(
            "coeffs --family C --R 3 --S 1 --k 1 --n-max 400 --format json --out".split()
            + [str(out)]
        )
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        assert all(isinstance(obj["coefficient"], str) for obj in lines)
        # round-trip: decimal strings parse back to the exact integers
        from theta_trunc.families import genfun_family

        series = genfun_family(FamilySpec("C", 3, 1, 1), 401)
        assert [int(obj["coefficient"]) for obj in lines] == series.coeffs


class TestCoeffTable:
    """The (N, coefficient) table of coeffs and scan --out: one row template
    per format, which writes what the generic formatter would."""

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        st.integers(min_value=0, max_value=10**6),
        st.integers()
        | st.integers(min_value=2**300, max_value=2**400)
        | st.integers(min_value=-(2**400), max_value=-(2**300)),
    )
    @example(0, 0)
    @example(7, -1)
    @example(10**4, 2**300 + 1)
    @example(10**4, -(2**300) - 1)
    def test_template_is_the_generic_formatter(self, n, c):
        for fmt, template in cli.COEFF_ROW.items():
            line = template % (n, c)
            assert line == cli._line(fmt, ("N", "coefficient"), (n, str(c))) + "\n"
        assert json.loads(line) == {"N": n, "coefficient": str(c)}

    # SHA-256 of the tables as written by _line, row by row, before the
    # templates existed.
    DIGESTS = {
        "csv": "605326051992364364751e6cb7c16011ea7dec352674b4c3357fc80044dc3dbc",
        "json": "fd43828ca48191bfd22b0e7d54cb7b21df6d085e50f765cfc9deb1d0fc0bd304",
    }

    @pytest.mark.parametrize("fmt", sorted(DIGESTS))
    def test_coeffs_digest(self, fmt, tmp_path):
        out = tmp_path / ("coeffs." + fmt)
        argv = "coeffs --family Dp --R 3 --S 1 --k 2 --n-max 2000 --format".split()
        assert run(argv + [fmt, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGESTS[fmt]

    @pytest.mark.parametrize("fmt, content", [("csv", b"N,coefficient\n"), ("json", b"")])
    def test_clean_scan_out(self, fmt, content, tmp_path):
        out = tmp_path / ("scan." + fmt)
        argv = "scan --family Dp --R 3 --S 1 --k 1 --n-hi 200 --format".split()
        assert run(argv + [fmt, "--out", str(out)]) == 0
        assert out.read_bytes() == content


class TestVerifyIdentities:
    def test_passes_quickly(self, capsys):
        assert run(["verify-identities", "--order", "60", "--decomp-order", "80"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

    # The first spec of each of the 8 denominator groups of the grid.
    FIRSTS = list({families.family_denominator(s): s for s in reversed(default_grid())}.values())

    @staticmethod
    def check_failing_report(bad, monkeypatch, capsys):
        """A flipped block of each spec of ``bad`` fails its packed group,
        whose specs are then reported one by one: a FAIL line for each spec
        of ``bad``, with the per-spec route's first mismatch, and PASS for
        the others."""
        flip_lowest_block(monkeypatch, bad)
        assert run(["verify-identities", "--order", "60", "--decomp-order", "300"]) == 1
        lines = [l for l in capsys.readouterr().out.splitlines() if l.split()[1] == "decomposition"]
        name = "decomposition %s R=%d S=%d k=%d order=300"
        want = []
        for s in default_grid():
            got, div = genfun_family(s, 300).coeffs, families.genfun_family_via_decomposition(s, 300).coeffs
            where = next((i for i, (a, b) in enumerate(zip(got, div)) if a != b), None)
            assert (where is not None) == (s in bad), s
            want.append(
                ("FAIL " + name + ": first mismatch at exponent %d (%d != %d)")
                % (s + (where, got[where], div[where])) if s in bad else "PASS " + name % s)
        assert lines == want

    def test_failing_group_reports_each_spec(self, monkeypatch, capsys):
        self.check_failing_report([FamilySpec("D", 5, 2, 2)], monkeypatch, capsys)

    @pytest.mark.parametrize("bad", [
        FIRSTS,                             # every group fails
        [FamilySpec("Cprime", 4, 1, 2)],    # fields carrying the constant at q^0
    ], ids=["every-group", "Cprime-4-1-2"])
    def test_failing_groups_report_each_spec(self, bad, monkeypatch, capsys):
        self.check_failing_report(bad, monkeypatch, capsys)

    def test_failing_suite_divides_once_per_group(self, monkeypatch, capsys):
        # With every group failing and the family quotients cached, the
        # decomposition suite divides once per denominator (8 times) and
        # reads each spec's route B from its packed quotient: it never
        # divides a spec again through genfun_family_via_decomposition.
        for spec in default_grid():
            genfun_family(spec, 300)
        flip_lowest_block(monkeypatch, self.FIRSTS)
        divide, calls = families.ps_div_pochhammer, []
        monkeypatch.setattr(families, "ps_div_pochhammer", lambda *a: calls.append(a) or divide(*a))

        def refuse(spec, order):
            raise AssertionError("second division of %s" % (spec,))

        monkeypatch.setattr(families, "genfun_family_via_decomposition", refuse)
        assert run(["verify-identities", "--order", "60", "--decomp-order", "300"]) == 1
        assert capsys.readouterr().out.count("FAIL decomposition") == 8
        assert len(calls) == 8

    def test_order_floor(self):
        assert run(["verify-identities", "--order", "10"]) == 2

    @pytest.mark.parametrize("flags, message", [
        ("--order 10001", "order above ceiling 10000"),
        ("--decomp-order 10001", "decomp-order above ceiling 10000"),
        ("--decomp-order 0", "decomp-order must be >= 1"),
    ])
    def test_bad_size_exits_2_before_any_suite(self, flags, message, capsys):
        assert run(["verify-identities"] + flags.split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message

    @pytest.mark.parametrize("argv, name", [
        ("coeffs --family C --R 3 --S 1 --k 1 --n-max", "n-max"),
        ("verify-identities --decomp-order 60 --order", "order"),
        ("verify-identities --order 60 --decomp-order", "decomp-order"),
        ("scan --family C --R 3 --S 1 --k 1 --n-hi", "n-hi"),
        ("compare --family C --R 3 --S 1 --k 1 --n", "n"),
        ("circle --a 6 --c 7 --d 2 --R 3 --S 1 --N", "N"),
        ("circle --a 6 --c 7 --d 2 --S 1 --N 20 --R", "R"),
    ], ids=[
        "coeffs --n-max", "verify-identities --order", "verify-identities --decomp-order",
        "scan --n-hi", "compare --n", "circle --N", "circle --R",
    ])
    def test_ceiling_is_inclusive(self, argv, name, monkeypatch, tmp_path, capsys):
        # Every size check reads cli.N_CEILING when main runs, not when the
        # (cached) parser was built.
        cli.build_parser()
        monkeypatch.setattr(cli, "N_CEILING", 60)
        monkeypatch.chdir(tmp_path)
        assert run(argv.split() + ["60"]) == 0
        capsys.readouterr()
        assert run(argv.split() + ["61"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s above ceiling 60\n" % name

    def test_mismatch_exits_1(self, monkeypatch, capsys):
        import theta_trunc.families as fam

        real = fam.pentagonal_sides

        def broken(order):
            lhs, rhs = real(order)
            bad = list(rhs.coeffs)
            bad[7] += 1
            return lhs, PowerSeries(bad, order)

        monkeypatch.setattr(cli.families, "pentagonal_sides", broken)
        assert run(["verify-identities", "--order", "60"]) == 1
        assert "exponent 7" in capsys.readouterr().out


class TestScan:
    def test_clean_scan(self, capsys):
        assert run("scan --family Dp --R 3 --S 1 --k 1 --n-hi 200".split()) == 0
        assert "clean" in capsys.readouterr().out

    def test_violation_exits_3(self, monkeypatch, tmp_path, capsys):
        fake = [0, 1, -5, 2]
        plant_series(monkeypatch, lambda spec: fake)
        out = tmp_path / "viol.csv"
        code = run(
            "scan --family C --R 3 --S 1 --k 1 --n-hi 3 --out".split() + [str(out)]
        )
        assert code == 3
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[1] == ["2", "-5"]

    def test_directory_out_exits_2(self, tmp_path, capsys):
        argv = "scan --family C --R 3 --S 1 --k 1 --n-hi 5 --out".split() + [str(tmp_path)]
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: cannot write %s: Is a directory\n" % tmp_path

    def test_bad_range(self, capsys):
        for flags, message in (
            ("--n-hi 0", "n-hi must be >= 1"),
            ("--n-hi 10001", "n-hi above ceiling 10000"),
        ):
            assert run(("scan --family C --R 3 --S 1 --k 1 " + flags).split()) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: %s\n" % message

    def test_window_starts_at_one(self, capsys):
        # Cprime 3 1 2 is -1 at N = 0, which the window [1, n-hi] leaves out.
        assert genfun_family(FamilySpec("Cprime", 3, 1, 2), 1)[0] == -1
        assert run("scan --family Cp --R 3 --S 1 --k 2 --n-hi 50".split()) == 0
        assert capsys.readouterr().out == "scan Cprime R=3 S=1 k=2 N in [1, 50]: clean (0 violations)\n"

    @pytest.mark.parametrize("family, ks", [
        ("C", (1, 2, 3)), ("Cp", (1, 2, 3)), ("D", (0, 1, 2, 3)), ("Dp", (1, 2, 3)),
    ])
    def test_multi_k_prints_the_single_scans(self, family, ks, capsys):
        base = ("scan --family %s --R 3 --S 1 --n-hi 2000" % family).split()
        singles = {}
        for k in ks:
            assert run(base + ["--k", str(k)]) == 0
            singles[k] = capsys.readouterr().out
        for order in (ks, ks[::-1]):
            assert run(base + [a for k in order for a in ("--k", str(k))]) == 0
            assert capsys.readouterr().out == "".join(singles[k] for k in order)

    def test_multi_k_exits_3_when_any_k_violates(self, monkeypatch, capsys):
        clean, bad = [0, 1, 5, 2], [0, 1, -5, 2]
        plant_series(monkeypatch, lambda spec: bad if spec.k == 2 else clean)
        assert run("scan --family C --R 3 --S 1 --k 1 --k 2 --k 3 --n-hi 3".split()) == 3
        assert capsys.readouterr().out == "".join(
            "scan C R=3 S=1 k=%d N in [1, 3]: %s\n" % (k, status)
            for k, status in ((1, "clean (0 violations)"), (2, "violated (1 violations)"), (3, "clean (0 violations)"))
        )

    @pytest.mark.parametrize("flags, message", [
        ("--k 1 --k 2 --out x.csv", "--out takes a single --k"),
        ("--k 1 --k 0", "need k >= 1 for C"),
    ])
    def test_multi_k_usage_errors_exit_2_before_any_scan(self, flags, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert run(("scan --family C --R 3 --S 1 --n-hi 5 " + flags).split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message
        assert list(tmp_path.iterdir()) == []


def expected_compare(spec, n_list, form):
    """(N, exact, main term, ratio) per N, computed outside the CLI."""
    rows = []
    for n in n_list:
        exact = LogValue.from_int(genfun_family(spec, n + 1)[n])
        main = mainterm_family(spec, n, form)
        rows.append((n, exact, main, logvalue_ratio(exact, main)))
    return rows


class TestCompare:
    def test_records_and_csv(self, tmp_path):
        out = tmp_path / "cmp.csv"
        spec = FamilySpec("C", 3, 1, 1)
        assert cli.cmd_compare(spec, [200, 400], "elementary", "csv", str(out)) == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["N", "ln_exact", "ln_mainterm", "ratio"]
        assert [r[0] for r in rows[1:]] == ["200", "400"]
        # every cell round-trips exactly: ints via int(), reals via float()
        want = expected_compare(spec, [200, 400], "elementary")
        for row, (n, exact, main, ratio) in zip(rows[1:], want):
            assert int(row[0]) == n
            assert float(row[1]) == exact.lnmag
            assert float(row[2]) == main.lnmag
            assert float(row[3]) == ratio

    def test_json_roundtrip_exact(self, tmp_path):
        out = tmp_path / "cmp.json"
        spec = FamilySpec("Dprime", 3, 1, 1)
        assert cli.cmd_compare(spec, [150, 350], "elementary", "json", str(out)) == 0
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        want = expected_compare(spec, [150, 350], "elementary")
        assert len(lines) == len(want)
        for obj, (n, exact, main, ratio) in zip(lines, want):
            assert obj == {
                "N": n,
                "ln_exact": {"sign": exact.sign, "lnmag": exact.lnmag},
                "ln_mainterm": {"sign": main.sign, "lnmag": main.lnmag},
                "ratio": ratio,
            }

    def test_ratio_positive_for_dprime(self, tmp_path):
        out = tmp_path / "dp.csv"
        run(
            "compare --family Dp --R 3 --S 1 --k 1 --n 300 --out".split() + [str(out)]
        )
        rows = list(csv.reader(out.read_text().splitlines()))
        assert float(rows[1][3]) > 0

    def test_sign_mismatch_sentinel(self, tmp_path):
        # C(3,1,1) coefficient at N=1 is 0 -> ln_exact -inf and a sign
        # mismatch against a positive main term; at N=2 it is 1 -> ln 0
        out = tmp_path / "sm.csv"
        run("compare --family C --R 3 --S 1 --k 1 --n 1 --n 2 --out".split() + [str(out)])
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[1][1] == "-inf"
        assert rows[1][3] == "sign-mismatch"
        assert rows[2][1] == "0"
        assert float(rows[2][3]) > 0
        out = tmp_path / "sm.json"
        run("compare --family C --R 3 --S 1 --k 1 --n 1 --format json --out".split() + [str(out)])
        obj = json.loads(out.read_text(), parse_constant=pytest.fail)
        assert obj["ln_exact"] == {"sign": 0, "lnmag": None}
        assert obj["ratio"] == "sign-mismatch"

    def test_json_logvalue_shape(self, tmp_path):
        out = tmp_path / "cmp.json"
        run(
            "compare --family C --R 3 --S 1 --k 1 --n 100 --format json --out".split()
            + [str(out)]
        )
        obj = json.loads(out.read_text().splitlines()[0])
        assert set(obj) == {"N", "ln_exact", "ln_mainterm", "ratio"}

    def test_ceiling(self, capsys):
        assert run("compare --family C --R 3 --S 1 --k 1 --n 50 --n 10001".split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n above ceiling 10000\n"

    @pytest.mark.parametrize("n", ["-3", "0"])
    def test_n_below_one(self, capsys, n):
        assert run(["compare"] + "--family C --R 3 --S 1 --k 1 --n 50 --n".split() + [n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be >= 1\n"

    @pytest.mark.parametrize("flag, reason", [
        ("--k", "int too large to convert to float"),
        ("--R", "int too large to convert to float"),
    ])
    def test_main_term_beyond_float_range_exits_2(self, flag, reason, tmp_path, capsys):
        # argparse keeps the last of a repeated flag
        out = tmp_path / "c.csv"
        argv = "compare --family C --R 3 --S 1 --k 1 --n 10 --out".split() + [str(out)]
        assert run(argv + [flag, "1" + "0" * 400]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: main term beyond float range: %s\n" % reason
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_stdout_rows_match_the_file(self, fmt, tmp_path, capsys):
        # without --out the rows print in the chosen format; CSV drops the
        # header line, JSON prints the file's lines as they are (N = 1 is the
        # exact 0: lnmag -inf in CSV, null in JSON, ratio sign-mismatch)
        out = tmp_path / ("cmp." + fmt)
        argv = "compare --family C --R 3 --S 1 --k 1 --n 1 --n 60 --format".split() + [fmt]
        assert run(argv + ["--out", str(out)]) == 0
        assert run(argv) == 0
        lines = out.read_text().splitlines(keepends=True)
        assert capsys.readouterr().out == "".join(lines[1:] if fmt == "csv" else lines)
        zero = '"lnmag": null' if fmt == "json" else "1,-inf,"
        assert zero in lines[1 if fmt == "csv" else 0]

    def test_bessel_form(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run(
            "compare --family D --R 5 --S 2 --k 0 --n 250 --form bessel --out".split()
            + [str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert 0.5 < float(rows[1][3]) < 2.0


class TestCircle:
    def test_match_exits_0(self, capsys):
        argv = "circle --a 6 --c 7 --d 2 --R 3 --S 1 --N 20".split()
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert "exact" in out

    def test_two_r_variant(self):
        argv = "circle --a 6 --c 7 --d 2 --R 3 --S 1 --N 20 --variant twoR".split()
        assert run(argv) == 0

    def test_two_r_arc_split_uses_the_two_r_grid(self, capsys):
        argv = "circle --a 6 --c 7 --d 2 --R 3 --S 1 --N 20 --variant twoR".split()
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        p = ThetaParams(Fraction(6), Fraction(7), 2)
        ratios = {
            variant: cli.analytic.arc_split_diagnostic(
                p, 3, 1, 20, cli.analytic.min_samples(20, 3, variant), variant=variant
            ).ratio
            for variant in ("threeR", "twoR")
        }
        assert ratios["twoR"] != ratios["threeR"]
        assert "|I''|/|I'|       : %s" % cli._fmt_real(ratios["twoR"]) in lines

    def test_fractional_a(self):
        argv = "circle --a 9/2 --c 21/2 --d 6 --R 3 --S 1 --N 20".split()
        assert run(argv) == 0

    @pytest.mark.parametrize("flags", [
        "--a 1/0 --c 7".split(),
        ["--a", "6", "--c=1/0"],
    ])
    def test_zero_denominator_exits_2(self, flags, capsys):
        argv = ["circle"] + flags + "--d 2 --R 3 --S 1 --N 20".split()
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid fraction value: '1/0'" in captured.err

    @pytest.mark.parametrize("variant", ["threeR", "twoR"])
    def test_all_zero_integrand_exits_0(self, variant, capsys):
        # No theta exponent 400 + 6 j^2 + 7 j lies below the grid's cutoff,
        # so both arcs are 0 and so is the coefficient; their ratio has no
        # value and prints n/a.
        argv = "circle --a 6 --c 7 --d 400 --R 3 --S 1 --N 50 --variant".split() + [variant]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "exact            : 0" in lines
        assert "|I''|/|I'|       : n/a" in lines

    def test_theta_exponent_past_tail_cutoff_is_kept(self, capsys):
        # At N = 4000 the tail cutoff drops theta exponents from 3030 on, but
        # 3800 <= N adds the integer p(200) to the coefficient, so the grid
        # keeps it: the quadrature is not 0 and both arcs have a value.  The
        # value is past float64's reach, so the run still exits 4.
        argv = "circle --a 6 --c 7 --d 3800 --R 3 --S 1 --N 4000".split()
        assert run(argv) == 4
        lines = capsys.readouterr().out.splitlines()
        fields = {k.strip(): v.strip() for k, _, v in (l.partition(":") for l in lines)}
        assert fields["exact"] == "33143559323"
        assert float(fields["quadrature value"]) != 0
        assert math.isfinite(float(fields["|I''|/|I'|"]))

    def test_mismatch_exits_4(self, monkeypatch):
        monkeypatch.setattr(
            cli.analytic, "wright_coefficient", lambda *a, **k: 12345.6
        )
        argv = "circle --a 6 --c 7 --d 2 --R 3 --S 1 --N 20".split()
        assert run(argv) == 4

    def test_margin_and_headroom_lines(self, capsys):
        argv = "circle --a 6 --c 7 --d 2 --R 3 --S 1 --N 20".split()
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        fields = {k.strip(): v.strip() for k, _, v in (l.partition(":") for l in lines)}
        assert len(lines) == 6
        value, exact = float(fields["quadrature value"]), int(fields["exact"])
        assert fields["integer margin"] == cli._fmt_real(abs(value - round(value)))
        assert 0.0 <= float(fields["integer margin"]) < 1e-3
        assert int(fields["float headroom"]) == 53 - exact.bit_length() > 0

    def test_headroom_negative_past_float64(self, monkeypatch, capsys):
        monkeypatch.setattr(
            cli.analytic, "wright_coefficient", lambda *a, **k: 12345.25
        )
        monkeypatch.setattr(cli.families, "block_coefficient", lambda p, R, S, N, quotient: 2**60)
        argv = "circle --a 6 --c 7 --d 2 --R 3 --S 1 --N 20".split()
        assert run(argv) == 4
        lines = capsys.readouterr().out.splitlines()
        assert lines[-2:] == ["integer margin   : 0.25", "float headroom   : -8"]

    @pytest.mark.parametrize("flags, message", [
        ("--R 0 --S 1 --N 20", "need 1 <= S < R"),
        ("--R 3 --S 3 --N 20", "need 1 <= S < R"),
        ("--R 4 --S 2 --N 50", "R and S must be coprime"),
        ("--R 3 --S 1 --N -5", "N must be >= 1"),
        ("--R 3 --S 1 --N 10001", "N above ceiling 10000"),
        # would allocate a grid of 2^28 complex samples
        ("--R 1000000000 --S 1 --N 10000", "R above ceiling 10000"),
        # S is checked before the R ceiling
        ("--R 10001 --S 10001 --N 20", "need 1 <= S < R"),
    ])
    def test_invalid_input_exits_2(self, flags, message, capsys):
        argv = ("circle --a 6 --c 7 --d 2 " + flags).split()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message

    @pytest.mark.parametrize("variant", ["threeR", "twoR"])
    def test_largest_grid_is_2_to_the_20(self, variant):
        # circle samples at min_samples(N, R), which grows with N and R; at
        # the ceilings it is at most 2^20 complex samples
        assert min_samples(cli.N_CEILING, cli.N_CEILING, variant) <= 2**20

    @pytest.mark.parametrize("S, variant, samples", [
        (1, "threeR", 2**20),
        (9999, "twoR", 2**19),
    ], ids=("threeR", "twoR"))
    def test_largest_grids_round_exact(self, S, variant, samples, capsys):
        # N = R = 10,000: the largest grid of each variant the CLI admits
        assert min_samples(cli.N_CEILING, cli.N_CEILING, variant) == samples
        argv = "circle --a 6 --c 7 --d 2 --R 10000 --S %d --N 10000 --variant %s" % (S, variant)
        assert run(argv.split()) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:3] == ["rounded          : 41", "exact            : 41"]


class TestClosedStdout:
    """A reader that leaves stdout is not an unwritable --out."""

    def test_in_process_main_raises_broken_pipe(self, monkeypatch):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(sys, "stdout", Closed())
        with pytest.raises(BrokenPipeError):
            run("compare --family D --R 3 --S 1 --k 1 --n 10".split())

    def test_console_script_ends_silently(self):
        # Over 64 KB of rows, so the writer blocks on the full pipe and is
        # still printing when its reader leaves after one line.
        argv = "compare --family D --R 3 --S 1 --k 1".split()
        for n in range(1, 3001):
            argv += ["--n", str(n)]
        src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        with subprocess.Popen(
            [sys.executable, "-c", "from theta_trunc.cli import console_main; console_main()", *argv],
            env=dict(os.environ, PYTHONPATH=path),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        ) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
        assert first.startswith(b"1,")
        assert err == b""
        assert proc.returncode == -signal.SIGPIPE


class TestDanglingSymlink:
    """An --out that is a symlink to a missing file is written through: the
    writability check removes the target it created, never the link."""

    def test_failed_compare_leaves_the_link_and_no_target(self, tmp_path, capsys):
        link, target = tmp_path / "link.csv", tmp_path / "target.csv"
        link.symlink_to(target)
        argv = "compare --family C --R 3 --S 1 --k %s --n 10 --out" % ("1" + "0" * 400)
        assert run(argv.split() + [str(link)]) == 2
        assert capsys.readouterr().err.startswith("error: main term beyond float range")
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert not target.exists()

    def test_coeffs_writes_through_the_link(self, tmp_path):
        link, target = tmp_path / "link.csv", tmp_path / "target.csv"
        link.symlink_to(target)
        direct = tmp_path / "direct.csv"
        argv = "coeffs --family C --R 3 --S 1 --k 1 --n-max 20 --out".split()
        assert run(argv + [str(link)]) == 0
        assert run(argv + [str(direct)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == direct.read_text() != ""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
class TestFailedWrite:
    """A write to --out that fails after the open names the --out path."""

    @pytest.mark.parametrize("command", [
        "coeffs --family C --R 3 --S 1 --k 1 --n-max 5",
        "scan --family C --R 3 --S 1 --k 1 --n-hi 5",
        "compare --family C --R 3 --S 1 --k 1 --n 5",
    ], ids=lambda c: c.split()[0])
    def test_full_device_exits_2(self, command, capsys):
        assert run(command.split() + ["--out", "/dev/full"]) == 2
        assert capsys.readouterr().err == "error: cannot write /dev/full: No space left on device\n"


class TestParser:
    """``build_parser`` is built once per process and keeps no state."""

    def test_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_append_does_not_accumulate(self):
        argv = "compare --family C --R 3 --S 1 --k 1 --n 5 --n 7".split()
        scan = "scan --family C --R 3 --S 1 --k 1 --k 2 --n-hi 5".split()
        for _ in range(2):
            assert cli.build_parser().parse_args(argv).n_list == [5, 7]
            assert cli.build_parser().parse_args(scan).k == [1, 2]

    def test_valid_call_after_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run("scan --family Dp --R 3 --S 1 --k 1".split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "the following arguments are required: --n-hi" in captured.err
        assert run("scan --family Dp --R 3 --S 1 --k 1 --n-hi 200".split()) == 0
        captured = capsys.readouterr()
        assert captured.out == "scan Dprime R=3 S=1 k=1 N in [1, 200]: clean (0 violations)\n"
        assert captured.err == ""

    @pytest.mark.parametrize("argv, flag", [
        ("coeffs --family C --R 3 --S 1 --k 1 --n-max 2", "--stamp"),
        ("scan --family C --R 3 --S 1 --k 1 --n-hi 2", "--stamp"),
        ("compare --family C --R 3 --S 1 --k 1 --n 2", "--stamp"),
        ("circle --a 6 --c 7 --d 2 --R 3 --S 1 --N 20", "--samples 1024"),
        ("coeffs --family C --R 3 --S 1 --k 1 --n-max 2", "--n-ceiling 20000"),
        ("scan --family C --R 3 --S 1 --k 1 --n-hi 2", "--n-ceiling 20000"),
        ("compare --family C --R 3 --S 1 --k 1 --n 2", "--n-ceiling 20000"),
        ("scan --family C --R 3 --S 1 --k 1 --n-hi 2", "--n-lo 2"),
    ])
    def test_removed_options_exit_2(self, argv, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run((argv + " " + flag).split())
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: %s" % flag in captured.err

    def test_readme_names_every_option(self):
        # Both ways: every option of every subcommand appears in the README,
        # and every flag of its CLI section is an option of some subcommand.
        readme = TestReadmeExamples.README.read_text()
        flag = re.compile(r"(?<![\w-])--[A-Za-z][\w-]*")
        subparsers = next(a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        options = {
            (command, option)
            for command, sp in subparsers.choices.items()
            for action in sp._actions
            for option in action.option_strings
            if option not in ("-h", "--help")
        }
        named = set(flag.findall(readme))
        assert sorted(o for o in options if o[1] not in named) == []
        section = readme.split("\n## CLI\n")[1].partition("\n## ")[0]
        assert set(flag.findall(section)) - {option for _, option in options} == set()


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = "compare --family C --R 3 --S 1 --k 1 --n 150 --n 300 --out"
        run(argv.split() + [str(a)])
        run(argv.split() + [str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestComparePin:
    """compare stdout byte for byte over the 52 default-grid specs: the
    SHA-256 of the concatenated rows.  A change to either form's main term
    fails here even where it moves only the last of the 17 printed digits;
    a change meant to keep the output must leave these digests as they are."""

    NS = (1, 7, 50, 333, 1000, 2500, 4000)
    DIGESTS = {
        ("bessel", "csv"): "68ce13f8ac3eed54a7f28e9d607c6136564cef9d0708edf8fe99449b6e53c6c9",
        ("elementary", "csv"): "c250be92e931af6857a00c42328b93d7b8038858269c8832d5d5ecf825cd3958",
        # JSON lines: the k = 1 subset, 16 specs
        ("bessel", "json"): "82f5e70c6e49a5661588531cd75abe7870096d2cd92af5a585255a2546321cfe",
        ("elementary", "json"): "134b921739f33bb1d522ab06a677731a3d6be46bbd1d9a1ee83e034d7a180f2d",
    }

    @pytest.mark.parametrize("form, fmt", sorted(DIGESTS))
    def test_stdout_digest(self, form, fmt, capsys):
        flags = {family: flag for flag, family in cli.FAMILY_FLAGS.items()}
        specs = [s for s in default_grid() if fmt == "csv" or s.k == 1]
        for spec in specs:
            argv = [
                "compare", "--family", flags[spec.family], "--R", str(spec.R),
                "--S", str(spec.S), "--k", str(spec.k), "--form", form, "--format", fmt,
            ]
            for n in self.NS:
                argv += ["--n", str(n)]
            assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == len(specs) * len(self.NS)
        assert hashlib.sha256(out.encode()).hexdigest() == self.DIGESTS[form, fmt]


class TestReadmeExamples:
    """The seven CLI examples of the README, run in-process in an empty
    directory.  The five exact-side examples are pinned by the SHA-256 of
    their stdout and of the file they write; the two circle examples by
    their exit code and the lines that do not depend on numpy's FFT build
    (rounded, exact, float headroom)."""

    README = Path(__file__).resolve().parents[1] / "README.md"
    STDOUT = {
        "coeffs --family C --R 3 --S 1 --k 1 --n-max 100 --out coeffs.csv":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "verify-identities --order 200 --decomp-order 300":
            "a3b7e8c80e3bdd6d7ce01ac952db3c068470d5ae3752da10c9f434bab944688e",
        "scan --family Dp --R 3 --S 1 --k 1 --n-hi 2000":
            "4de1d9fe3b77b07320072c688185652ee143dc37b0f62ac705576b8560cbe13d",
        "compare --family C --R 3 --S 1 --k 1 --n 1000 --n 2000 --n 4000 --form elementary":
            "4a009e6b78ee97cf8fb97367dc3190804e7505dd9d5ddc64f21376c01fdc5399",
        "scan --family C --R 3 --S 1 --k 1 --k 2 --k 3 --n-hi 2000":
            "d67095ad59da838d21996762af0a1f7e4509e84c7a66504d6aadf0fceb6733b6",
    }
    FILES = {
        "coeffs --family C --R 3 --S 1 --k 1 --n-max 100 --out coeffs.csv":
            ("coeffs.csv", "8002561c0aa6213af029aeb087b14335d8b4cde80c220585fc20a92e47b16387"),
    }
    CIRCLE = {
        "circle --a 6 --c 7 --d 2 --R 3 --S 1 --N 50":
            ["rounded          : 20791", "exact            : 20791", "float headroom   : 38"],
        "circle --a 9/2 --c 21/2 --d 6 --R 3 --S 1 --N 20 --variant twoR":
            ["rounded          : 135", "exact            : 135", "float headroom   : 45"],
    }

    @pytest.fixture(autouse=True)
    def _empty_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("THETA_TRUNC_OUT", raising=False)

    def test_pins_cover_the_readme_examples(self):
        prefix = "theta-trunc "
        examples = [l[len(prefix):] for l in self.README.read_text().splitlines() if l.startswith(prefix)]
        assert sorted(examples) == sorted([*self.STDOUT, *self.CIRCLE])

    @pytest.mark.parametrize("example", sorted(STDOUT))
    def test_exact_example_digests(self, example, tmp_path, capsys):
        assert run(example.split()) == 0
        assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == self.STDOUT[example]
        written = sorted(p.name for p in tmp_path.iterdir())
        if example in self.FILES:
            name, digest = self.FILES[example]
            assert written == [name]
            assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest
        else:
            assert written == []

    @pytest.mark.parametrize("example", sorted(CIRCLE))
    def test_circle_example_lines(self, example, capsys):
        assert run(example.split()) == 0
        keep = ("rounded", "exact", "float headroom")
        lines = capsys.readouterr().out.splitlines()
        assert [l for l in lines if l.partition(":")[0].strip() in keep] == self.CIRCLE[example]
