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
        rows = list(csv.reader(out.open()))
        assert rows[0] == ["N", "coefficient"]
        assert [r[1] for r in rows[1:]] == ["0", "0", "1", "1", "2", "1"]

    def test_cprime_row_zero(self, tmp_path):
        for k, want in ((1, "1"), (2, "-1")):
            out = tmp_path / ("cp%d.csv" % k)
            run(
                ("coeffs --family Cp --R 3 --S 1 --k %d --n-max 1 --out" % k).split()
                + [str(out)]
            )
            rows = list(csv.reader(out.open()))
            assert rows[1] == ["0", want]

    def test_d_row_one(self, tmp_path):
        out = tmp_path / "d.csv"
        run("coeffs --family D --R 3 --S 1 --k 0 --n-max 1 --out".split() + [str(out)])
        rows = list(csv.reader(out.open()))
        assert rows[2] == ["1", "1"]

    def test_invalid_spec_exits_2(self, capsys):
        assert run("coeffs --family C --R 4 --S 2 --k 1 --n-max 5".split()) == 2

    def test_ceiling(self):
        assert run("coeffs --family C --R 3 --S 1 --k 1 --n-max 20000".split()) == 2

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
        lines = [json.loads(line) for line in out.open()]
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
        rows = list(csv.reader(out.open()))
        assert rows[1] == ["2", "-5"]

    def test_bad_range(self):
        assert run("scan --family C --R 3 --S 1 --k 1 --n-lo 5 --n-hi 2".split()) == 2


class TestCompare:
    def test_records_and_csv(self, tmp_path):
        out = tmp_path / "cmp.csv"
        spec = FamilySpec("C", 3, 1, 1)
        code, records = cli.cmd_compare(spec, [200, 400], "elementary", "csv", str(out))
        assert code == 0
        rows = list(csv.reader(out.open()))
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
        lines = [json.loads(line) for line in out.open()]
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
        rows = list(csv.reader(out.open()))
        assert float(rows[1][3]) > 0

    def test_sign_mismatch_sentinel(self, tmp_path):
        # C(3,1,1) coefficient at N=1 is 0 -> sign mismatch against a
        # positive main term
        out = tmp_path / "sm.csv"
        run("compare --family C --R 3 --S 1 --k 1 --n 1 --out".split() + [str(out)])
        rows = list(csv.reader(out.open()))
        assert rows[1][3] == "sign-mismatch"

    def test_json_logvalue_shape(self, tmp_path):
        out = tmp_path / "cmp.json"
        run(
            "compare --family C --R 3 --S 1 --k 1 --n 100 --format json --out".split()
            + [str(out)]
        )
        obj = json.loads(out.open().readline())
        assert set(obj) == {"N", "ln_exact", "ln_mainterm", "ratio"}

    def test_bessel_form(self, tmp_path):
        out = tmp_path / "b.csv"
        code = run(
            "compare --family D --R 5 --S 2 --k 0 --n 250 --form bessel --out".split()
            + [str(out)]
        )
        assert code == 0
        rows = list(csv.reader(out.open()))
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
        ("--R 3 --S 1 --N -5", "N must be >= 1"),
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

    def test_seed_flag_accepted(self, tmp_path):
        out = tmp_path / "c.csv"
        argv = ["--seed", "7"] + "coeffs --family C --R 3 --S 1 --k 1 --n-max 2 --out".split() + [str(out)]
        assert run(argv) == 0
