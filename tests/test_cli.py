"""harness-cli: subcommands, exit codes, file formats, determinism."""

import csv
import json
from fractions import Fraction

import pytest

from theta_trunc import cli
from theta_trunc.asymptotics import LogValue
from theta_trunc.families import FamilySpec
from theta_trunc.series import PowerSeries, ThetaParams


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

    def test_negative_n_max_exits_2(self, tmp_path, capsys):
        assert run("coeffs --family C --R 3 --S 1 --k 1 --n-max -1".split()) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n-max must be >= 0\n"
        out = tmp_path / "n0.csv"
        argv = "coeffs --family C --R 3 --S 1 --k 1 --n-max 0 --out".split() + [str(out)]
        assert run(argv) == 0
        assert out.read_text().splitlines() == ["N,coefficient", "0,0"]

    @pytest.mark.parametrize("command, size", [
        ("coeffs", "--n-max"), ("scan", "--n-hi"), ("compare", "--n"),
    ])
    def test_n_ceiling_default_is_the_shared_ceiling(self, command, size):
        argv = [command] + "--family C --R 3 --S 1 --k 1".split() + [size, "1"]
        args = cli.build_parser().parse_args(argv)
        assert args.n_ceiling == cli.N_CEILING == 10_000

    def test_env_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("THETA_TRUNC_OUT", str(tmp_path))
        assert run("coeffs --family C --R 3 --S 1 --k 1 --n-max 3".split()) == 0
        assert (tmp_path / "coeffs.csv").exists()

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


class TestVerifyIdentities:
    def test_passes_quickly(self, capsys):
        assert run(["verify-identities", "--order", "60", "--decomp-order", "80"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out

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

    def test_ceiling_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(cli, "N_CEILING", 60)
        assert run("verify-identities --order 60 --decomp-order 60".split()) == 0
        assert run("verify-identities --order 60 --decomp-order 61".split()) == 2

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
        fake = PowerSeries([0, 1, -5, 2], 4)
        monkeypatch.setattr(cli.families, "genfun_family", lambda spec, order: fake)
        out = tmp_path / "viol.csv"
        code = run(
            "scan --family C --R 3 --S 1 --k 1 --n-hi 3 --out".split() + [str(out)]
        )
        assert code == 3
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[1] == ["2", "-5"]

    def test_bad_range(self, capsys):
        for flags, message in (
            ("--n-lo 5 --n-hi 2", "need 1 <= n-lo <= n-hi"),
            ("--n-hi 10001", "n-hi above ceiling 10000"),
        ):
            assert run(("scan --family C --R 3 --S 1 --k 1 " + flags).split()) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: %s\n" % message


class TestCompare:
    def test_records_and_csv(self, tmp_path):
        out = tmp_path / "cmp.csv"
        spec = FamilySpec("C", 3, 1, 1)
        code, records = cli.cmd_compare(spec, [200, 400], "elementary", "csv", str(out))
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["N", "ln_exact", "ln_mainterm", "ratio"]
        assert [r[0] for r in rows[1:]] == ["200", "400"]
        # every cell round-trips exactly: ints via int(), reals via float()
        for row, rec in zip(rows[1:], records):
            assert int(row[0]) == rec.N
            assert float(row[1]) == rec.exact_ln.lnmag
            assert float(row[2]) == rec.mainterm_ln.lnmag
            assert float(row[3]) == rec.ratio

    def test_json_roundtrip_exact(self, tmp_path):
        out = tmp_path / "cmp.json"
        spec = FamilySpec("Dprime", 3, 1, 1)
        _, records = cli.cmd_compare(spec, [150, 350], "elementary", "json", str(out))
        lines = [json.loads(line) for line in out.read_text().splitlines()]
        for obj, rec in zip(lines, records):
            assert obj["N"] == rec.N
            assert obj["ln_exact"] == {"sign": rec.exact_ln.sign, "lnmag": rec.exact_ln.lnmag}
            assert obj["ln_mainterm"]["lnmag"] == rec.mainterm_ln.lnmag
            assert obj["ratio"] == rec.ratio

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
        assert captured.err == "error: N above ceiling 10000\n"

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

    def test_undersampled_exits_2(self):
        argv = "circle --a 6 --c 7 --d 2 --R 3 --S 1 --N 50 --samples 128".split()
        assert run(argv) == 2

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
        monkeypatch.setattr(cli.families, "genfun_B", lambda p, R, S, n: [2**60] * n)
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
        ("--R 3 --S 1 --N 50 --samples 128", "samples=128 below the aliasing-safe minimum 1024"),
        # Both would allocate grids of 2^21 and 2^28 complex samples.
        ("--R 3 --S 1 --N 50 --samples 2097152", "samples above ceiling 1048576"),
        ("--R 1000000000 --S 1 --N 10000", "R above ceiling 10000"),
    ])
    def test_invalid_input_exits_2(self, flags, message, capsys):
        argv = ("circle --a 6 --c 7 --d 2 " + flags).split()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message


class TestDeterminism:
    def test_byte_identical_reruns(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = "compare --family C --R 3 --S 1 --k 1 --n 150 --n 300 --out"
        run(argv.split() + [str(a)])
        run(argv.split() + [str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_stamp_adds_header(self, tmp_path):
        out = tmp_path / "s.csv"
        run(
            "coeffs --family C --R 3 --S 1 --k 1 --n-max 2 --stamp --out".split()
            + [str(out)]
        )
        assert out.read_text().startswith("# stamp:")
