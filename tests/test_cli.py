import csv
import decimal
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import idealdensity as idd
from idealdensity import cli

from conftest import box_density, is_multiple, kronecker_symbol


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SRC = Path(__file__).resolve().parents[1] / "src"


def run_process(*argv):
    """Run a Python command line with the package's src/ on the path."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, *argv], env=env,
                          capture_output=True, text=True, timeout=120)


def write_aset(tmp_path, doc, name="aset.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_summary(out_path):
    with open(out_path.with_suffix(".summary.json")) as fh:
        return json.load(fh)


#: A field whose discriminant -(10^24 + 7) is far past the class-number
#: work bound.
HUGE_FIELD = "Q(sqrt -1000000000000000000000007)"


class TestFieldInfo:
    def test_rational(self, capsys):
        code, out, _ = run(capsys, "field-info", "--field", "Q")
        assert code == 0
        assert "degree: 1" in out
        assert "discriminant: 1" in out

    def test_gaussian(self, capsys):
        code, out, _ = run(capsys, "field-info", "--field", "Q(sqrt -1)")
        assert code == 0
        assert "discriminant: -4" in out
        assert "unit_count: 4" in out
        assert "class_number: 1" in out
        assert "analytic_residue: 0.785398163397" in out

    def test_real_quadratic(self, capsys):
        code, out, _ = run(capsys, "field-info", "--field", "Q(sqrt 5)")
        assert code == 0
        assert "unit_count: infinite" in out
        assert "class_number" not in out

    def test_class_number_past_its_work_bound(self):
        # |D| = 10^24 + 7 would take about 3 * 10^23 steps: refused at once.
        start = time.perf_counter()
        proc = run_process("-m", "idealdensity.cli", "field-info",
                           "--field", HUGE_FIELD)
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2
        assert proc.stdout == ""
        (line,) = proc.stderr.strip().splitlines()
        assert line.startswith("numeric error:")

    def test_bad_field(self, capsys):
        code, _, err = run(capsys, "field-info", "--field", "Q[i]")
        assert code == 1
        assert "error" in err


class TestCount:
    def test_rational_small(self, capsys, tmp_path):
        out_path = tmp_path / "count.csv"
        code, _, _ = run(capsys, "count", "--field", "Q", "--max-norm", "10",
                         "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path)
        assert rows[0] == ["x", "H", "H_over_x"]
        assert rows[-1] == ["10", "10", "1"]
        assert read_summary(out_path)["summary"]["H"] == 10

    def test_gaussian_small(self, capsys, tmp_path):
        out_path = tmp_path / "count.csv"
        code, _, _ = run(capsys, "count", "--field", "Q(sqrt -1)",
                         "--max-norm", "10", "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path)
        assert rows[-1] == ["10", "9", "0.9"]

    def test_gaussian_at_10_12_without_a_sieve(self, capsys, tmp_path):
        out_path = tmp_path / "count.csv"
        code, _, err = run(capsys, "count", "--field", "Q(sqrt -1)",
                           "--max-norm", "1000000000000",
                           "--out", str(out_path))
        assert code == 0, err
        assert read_summary(out_path)["summary"]["H"] == 785398162406
        assert read_csv(out_path)[-1][:2] == ["1000000000000", "785398162406"]

    def test_point_counts_build_no_counter(self, capsys, tmp_path,
                                           monkeypatch):
        # Point counts use the hyperbola method, and paths over Q use
        # H(x) = x: none of them reaches a counter, wherever it is bound.
        def refuse(K, X):
            raise AssertionError(f"counter built over {K.label()}")

        for module in (idd.ideals, idd.zeta, idd.density):
            monkeypatch.setattr(module, "count_ideals", refuse)
        aset = write_aset(tmp_path, {"field": "Q", "kind": "prime_powers",
                                     "l": 2})
        for argv in (["count", "--field", "Q(sqrt 5)", "--max-norm", "5000"],
                     ["mertens", "--field", "Q(sqrt 5)", "--cutoff", "5000"],
                     ["experiment", "primepower-free", "--field", "Q"],
                     ["density", "--field", "Q", "--aset", str(aset),
                      "--max-norm", "20000"]):
            code, _, err = run(capsys, *argv, "--out",
                               str(tmp_path / "o.csv"))
            assert code == 0, err

    def test_chi_table_past_its_bound(self, capsys, tmp_path, monkeypatch):
        # |D| = 40028 entries of chi_D: refused with one line and no file.
        monkeypatch.setattr(idd.fields, "_CHI_TABLE_LIMIT", 10**4)
        out_path = tmp_path / "count.csv"
        code, _, err = run(capsys, "count", "--field", "Q(sqrt 10007)",
                           "--max-norm", "1000000", "--out", str(out_path))
        assert code == 2
        (line,) = err.strip().splitlines()
        assert line.startswith("numeric error:")
        assert not out_path.exists()

    def test_discriminant_past_int64(self, capsys, tmp_path):
        # D = 4 (10^21 + 7) > 2^63: chi_D(p) reduces D mod p in Python ints,
        # and H(x) = sum_{d <= x} chi_D(d) floor(x / d).
        out_path = tmp_path / "count.csv"
        code, _, err = run(capsys, "count",
                           "--field", "Q(sqrt 1000000000000000000007)",
                           "--max-norm", "1000", "--out", str(out_path))
        assert code == 0, err
        chi = [kronecker_symbol(4 * (10**21 + 7), d) for d in range(1, 1001)]
        rows = read_csv(out_path)[1:]
        assert rows[-1][0] == "1000"
        for x, H, _ in rows:
            assert int(H) == sum(c * (int(x) // d)
                                 for d, c in enumerate(chi[:int(x)], start=1))

    def test_missing_out(self, capsys):
        code, _, err = run(capsys, "count", "--max-norm", "10")
        assert code == 1
        assert "usage error" in err


class TestMertens:
    def test_rational(self, capsys, tmp_path):
        out_path = tmp_path / "mertens.csv"
        code, _, _ = run(capsys, "mertens", "--field", "Q",
                         "--cutoff", "1000", "--out", str(out_path))
        assert code == 0
        summary = read_summary(out_path)["summary"]
        # e^gamma = 1.78107; slow convergence keeps the ratio near it
        assert abs(summary["ratio"] - summary["target"]) < 0.15
        rows = read_csv(out_path)
        assert rows[0] == ["cutoff", "euler_product", "ratio", "target"]

    def test_gaussian_target_is_the_analytic_residue(self, capsys, tmp_path,
                                                     Qi):
        # Over an imaginary field alpha is the class-number residue
        # (pi / 4 for Q(i)), not a count.
        out_path = tmp_path / "mertens.csv"
        code, _, _ = run(capsys, "mertens", "--field", "Q(sqrt -1)",
                         "--cutoff", "10000", "--out", str(out_path))
        assert code == 0
        target = read_summary(out_path)["summary"]["target"]
        assert target == idd.mertens_target(
            idd.analytic_residue_imag_quadratic(Qi))
        assert target == 1.3988510059673538
        rows = read_csv(out_path)[1:]
        assert {row[3] for row in rows} == {cli._fmt(target)}

    def test_cutoff_too_small(self, capsys, tmp_path):
        code, _, err = run(capsys, "mertens", "--cutoff", "5",
                           "--out", str(tmp_path / "m.csv"))
        assert code == 1
        assert "usage error" in err


class TestDensity:
    def test_explicit_family(self, capsys, tmp_path):
        aset = write_aset(tmp_path, {"field": "Q", "kind": "explicit",
                                     "members": [2, 3]})
        out_path = tmp_path / "density.csv"
        code, _, _ = run(capsys, "density", "--field", "Q",
                         "--aset", str(aset), "--max-norm", "10000",
                         "--out", str(out_path))
        assert code == 0
        summary = read_summary(out_path)["summary"]
        assert summary["A_exact"] == "2/3"
        assert abs(summary["natural_ratio"] - 2 / 3) < 1e-3
        rows = read_csv(out_path)
        assert rows[0] == ["x", "multiple_count", "total_count",
                           "natural_ratio", "log_ratio"]

    def test_prime_power_family(self, capsys, tmp_path):
        aset = write_aset(tmp_path, {"field": "Q", "kind": "prime_powers",
                                     "l": 2})
        out_path = tmp_path / "density.csv"
        code, _, _ = run(capsys, "density", "--field", "Q",
                         "--aset", str(aset), "--max-norm", "10000",
                         "--out", str(out_path))
        assert code == 0
        summary = read_summary(out_path)["summary"]
        assert summary["A_r"][0] == 0.25
        assert len(summary["A_r"]) == 8

    def test_empty_family(self, capsys, tmp_path):
        aset = write_aset(tmp_path, {"field": "Q", "kind": "explicit",
                                     "members": []})
        out_path = tmp_path / "density.csv"
        code, _, _ = run(capsys, "density", "--aset", str(aset),
                         "--max-norm", "1000", "--out", str(out_path))
        assert code == 0
        assert read_summary(out_path)["summary"]["A_exact"] == "0"

    @pytest.mark.parametrize("field,members", [
        ("Q", [1, 2, 4]),
        ("Q(sqrt -1)", [[], [[2, 0, 1]], [[2, 0, 2]], [[2, 0, 1], [5, 0, 1]]]),
    ])
    def test_unit_member_makes_every_ideal_a_multiple(self, capsys, tmp_path,
                                                      field, members):
        aset = write_aset(tmp_path, {"field": field, "kind": "explicit",
                                     "members": members})
        out_path = tmp_path / "density.csv"
        code, _, _ = run(capsys, "density", "--field", field,
                         "--aset", str(aset), "--max-norm", "1000",
                         "--out", str(out_path))
        assert code == 0
        rows = read_csv(out_path)[1:]
        assert rows and all(r[1] == r[2] for r in rows)
        summary = read_summary(out_path)["summary"]
        assert summary["A_exact"] == "1"
        assert summary["natural_ratio"] == summary["log_ratio"] == 1.0

    @pytest.mark.parametrize("intervals,empty", [
        ([[2, 3]], True),               # norm 3 is inert in Q(i)
        ([[2, 3], [4, 5]], False),
    ])
    def test_norm_interval_family_over_gaussian_field(
            self, capsys, tmp_path, intervals, empty):
        aset = write_aset(tmp_path, {"field": "Q(sqrt -1)",
                                     "kind": "norm_intervals",
                                     "intervals": intervals})
        out_path = tmp_path / "density.csv"
        code, _, err = run(capsys, "density", "--field", "Q(sqrt -1)",
                           "--aset", str(aset), "--max-norm", "1000",
                           "--out", str(out_path))
        assert code == 0, err
        rows = read_csv(out_path)[1:]
        summary = read_summary(out_path)["summary"]
        if empty:
            K = idd.make_quadratic_field(-1)
            assert rows and all(
                r[1] == "0" and r[2] == str(idd.ideal_count(K, int(r[0])))
                for r in rows)
            assert summary["A_r"] == [] and summary["A"] == 0.0
        else:
            fam = idd.parse_family(json.loads(aset.read_text()))
            hits = sum(is_multiple(fam, b)
                       for b in idd.enumerate_ideals(fam.field, 1000))
            assert rows[-1][:2] == ["1000", str(hits)] and hits > 0
            assert summary["A_r"][0] > 0

    def test_no_member_below_the_bound(self, capsys, tmp_path):
        # Every family takes the profile path; A does not depend on X.
        aset = write_aset(tmp_path, {"field": "Q", "kind": "explicit",
                                     "members": [997]})
        out_path = tmp_path / "density.csv"
        code, _, err = run(capsys, "density", "--aset", str(aset),
                           "--max-norm", "500", "--out", str(out_path))
        assert code == 0, err
        rows = read_csv(out_path)[1:]
        assert rows and all(r[1] == "0" and r[2] == r[0] for r in rows)
        assert read_summary(out_path)["summary"]["A_exact"] == "1/997"

        aset = write_aset(tmp_path, {"field": "Q(sqrt -1)",
                                     "kind": "norm_intervals",
                                     "intervals": [[2000, 3000]]})
        code, _, err = run(capsys, "density", "--field", "Q(sqrt -1)",
                           "--aset", str(aset), "--max-norm", "1000",
                           "--out", str(out_path))
        assert code == 0, err
        summary = read_summary(out_path)["summary"]
        assert summary["natural_ratio"] == 0.0 and summary["A"] > 0

    def test_truncation_of_any_size(self, capsys, tmp_path):
        # The first 8 prime squares have norm <= 361, so the truncation
        # 10^60 gives the same A_r as the default 10^6, and at once.
        a_r = []
        for truncation in (10**6, 10**60):
            aset = write_aset(tmp_path, {"field": "Q", "kind": "prime_powers",
                                         "l": 2, "truncation": truncation})
            out_path = tmp_path / "pp.csv"
            start = time.perf_counter()
            code, _, err = run(capsys, "density", "--aset", str(aset),
                               "--max-norm", "1000", "--out", str(out_path))
            assert time.perf_counter() - start < 5
            assert code == 0, err
            a_r.append(read_summary(out_path)["summary"]["A_r"])
        assert a_r[0] == a_r[1] and len(a_r[0]) == 8

    def test_prime_power_exponent_past_the_bits(self, capsys, tmp_path):
        # 2^l is past every bound, so there is no member, and 2^(l-1) is
        # not built to find that out.
        aset = write_aset(tmp_path, {"field": "Q", "kind": "prime_powers",
                                     "l": 10**9})
        out_path = tmp_path / "pp.csv"
        start = time.perf_counter()
        code, _, err = run(capsys, "density", "--aset", str(aset),
                           "--max-norm", "1000", "--out", str(out_path))
        assert time.perf_counter() - start < 5
        assert code == 0, err
        assert read_summary(out_path)["summary"]["A_r"] == []

    def test_explicit_member_above_default_truncation(self, capsys,
                                                      tmp_path):
        # An explicit family is finite: all of its members count for A.
        aset = write_aset(tmp_path, {"field": "Q", "kind": "explicit",
                                     "members": [1000003]})
        out_path = tmp_path / "density.csv"
        code, _, err = run(capsys, "density", "--aset", str(aset),
                           "--max-norm", "2000000", "--out", str(out_path))
        assert code == 0, err
        summary = read_summary(out_path)["summary"]
        assert summary["A_exact"] == "1/1000003"
        assert read_csv(out_path)[-1][:2] == ["2000000", "1"]

    def test_exact_density_past_the_int_string_limit(self, capsys, tmp_path):
        # The 1100 primes in (10^4, 20681]: the denominator of A has 4565
        # digits, past Python's 4300-digit limit on str(int).
        primes = [pr.p for pr in idd.primes_up_to_norm(
            idd.make_rational_field(), 20681) if pr.p > 10**4]
        doc = {"field": "Q", "kind": "explicit", "members": primes}
        out_path = tmp_path / "density.csv"
        code, _, err = run(capsys, "density", "--aset",
                           str(write_aset(tmp_path, doc)), "--max-norm", "1000",
                           "--out", str(out_path))
        assert code == 0, err
        exact = idd.finite_ie_density(idd.parse_family(doc))
        n, d = (str(decimal.Decimal(v)) for v in exact.as_integer_ratio())
        assert len(primes) == 1100 and len(d) == 4565
        assert read_summary(out_path)["summary"]["A_exact"] == f"{n}/{d}"

    def test_exact_density_past_its_digit_bound(self, capsys, tmp_path,
                                                monkeypatch):
        # N(a) = 2^(10^7) has about 3 * 10^6 digits: refused before the
        # decimal conversion, which would take minutes, and before any file.
        aset = write_aset(tmp_path, {"field": "Q(sqrt -1)", "kind": "explicit",
                                     "members": [[[2, 0, 10**7]]]})
        start = time.perf_counter()
        proc = run_process("-m", "idealdensity.cli", "density",
                           "--field", "Q(sqrt -1)", "--aset", str(aset),
                           "--max-norm", "1000",
                           "--out", str(tmp_path / "out.csv"))
        assert time.perf_counter() - start < 5
        assert proc.returncode == 2
        (line,) = proc.stderr.strip().splitlines()
        assert line.startswith("numeric error:")
        assert str(cli.MAX_EXACT_DIGITS) in line
        assert not (tmp_path / "out.csv").exists()
        assert not (tmp_path / "out.summary.json").exists()
        # The same refusal in process, past a bound set low: A = 27/35 over
        # Q has a 2-digit denominator, and the finished run writes no file.
        monkeypatch.setattr(cli, "MAX_EXACT_DIGITS", 1)
        aset = write_aset(tmp_path, {"field": "Q", "kind": "explicit",
                                     "members": [2, 3, 5, 7]}, "small.json")
        code, _, err = run(capsys, "density", "--aset", str(aset),
                           "--max-norm", "1000",
                           "--out", str(tmp_path / "out.csv"))
        assert code == 2
        assert err == "numeric error: A_exact: about 2 > 1 digits\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "aset.json", "small.json"]

    def test_missing_aset_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "density", "--aset",
                           str(tmp_path / "nope.json"), "--max-norm", "1000",
                           "--out", str(tmp_path / "d.csv"))
        assert code == 1
        assert "error" in err

    def test_bad_family_doc(self, capsys, tmp_path):
        aset = write_aset(tmp_path, {"field": "Q", "kind": "mystery"})
        code, _, err = run(capsys, "density", "--aset", str(aset),
                           "--max-norm", "1000",
                           "--out", str(tmp_path / "d.csv"))
        assert code == 1

    def test_repeated_member_is_refused(self, capsys, tmp_path):
        aset = write_aset(tmp_path, {"field": "Q", "kind": "explicit",
                                     "members": [2, 2]})
        out = tmp_path / "d.csv"
        code, _, err = run(capsys, "density", "--aset", str(aset),
                           "--max-norm", "100", "--out", str(out))
        assert code == 1
        assert "error: family has repeated members" in err
        assert not out.exists()


class TestExperiment:
    def test_primepower_free(self, capsys, tmp_path):
        out_path = tmp_path / "exp.csv"
        code, _, _ = run(capsys, "experiment", "primepower-free",
                         "--field", "Q", "--l", "2", "--max-norm", "100000",
                         "--out", str(out_path))
        assert code in (0, 3)
        doc = read_summary(out_path)
        assert doc["scenario"] == "primepower-free"
        assert doc["config"]["command"] == "experiment primepower-free"
        assert "threads" not in doc["config"]

    def test_besicovitch_verdict(self, capsys, tmp_path):
        out_path = tmp_path / "exp.csv"
        code, _, _ = run(capsys, "experiment", "besicovitch",
                         "--field", "Q", "--max-norm", "100000",
                         "--out", str(out_path))
        assert code == 0
        assert read_summary(out_path)["verdict"] is True

    def test_main_theorem_with_no_member_below_truncation(self, tmp_path):
        # A_r is empty: A reads 0.0 and the verdict is made as usual.
        aset = write_aset(tmp_path, {"kind": "prime_powers", "l": 2,
                                     "truncation": 3})
        out_path = tmp_path / "exp.csv"
        proc = run_process("-m", "idealdensity.cli", "experiment",
                           "main-theorem", "--aset", str(aset),
                           "--max-norm", "10000", "--out", str(out_path))
        assert proc.returncode in (0, 3), proc.stderr
        assert "Traceback" not in proc.stderr
        assert read_summary(out_path)["summary"]["a_r_final"] == 0.0

    def test_main_theorem_with_no_intervals(self, capsys, tmp_path):
        # B_k of no interval is 0, as A reads 0.0 with A_r empty.
        aset = write_aset(tmp_path, {"field": "Q", "kind": "norm_intervals",
                                     "intervals": []})
        out_path = tmp_path / "exp.csv"
        code, _, err = run(capsys, "experiment", "main-theorem", "--aset",
                           str(aset), "--max-norm", "1000",
                           "--out", str(out_path))
        assert code == 0, err
        summary = read_summary(out_path)["summary"]
        assert summary["b_k_final"] == summary["a_r_final"] == 0.0

    def test_main_theorem_b_k_is_exact(self, capsys, tmp_path):
        # Past 20 entangled members B_k once fell back to a sieve ratio at
        # the truncation without saying so; every row is now exact.
        K = idd.make_quadratic_field(-1)
        fam = idd.NormIntervalFamily(field=K, intervals=((100000, 300000),))
        aset = write_aset(tmp_path, {"field": "Q(sqrt -1)",
                                     "kind": "norm_intervals",
                                     "intervals": [[100000, 300000]]})
        out_path = tmp_path / "mt.csv"
        code, _, err = run(capsys, "experiment", "main-theorem", "--field",
                           "Q(sqrt -1)", "--aset", str(aset), "--k-max", "5",
                           "--max-norm", "200000", "--out", str(out_path))
        assert code in (0, 3), err
        rows = read_csv(out_path)
        b_k = [row[rows[0].index("b_k")] for row in rows[1:6]]
        assert b_k == [cli._fmt(box_density(idd.restrict_family(fam, k).members))
                       for k in range(1, 6)]
        assert b_k[2] == "0.0001687253125"
        assert b_k[4] == "0.000847508212433"

    def test_unknown_name(self, capsys, tmp_path):
        code, _, err = run(capsys, "experiment", "mystery",
                           "--out", str(tmp_path / "e.csv"))
        assert code == 1
        assert "usage error" in err

    def test_numeric_error(self, capsys, tmp_path):
        # T0 beyond the enumeration bound is a numeric domain error
        code, _, err = run(capsys, "experiment", "besicovitch",
                           "--t0", "200000", "--max-norm", "100000",
                           "--out", str(tmp_path / "e.csv"))
        assert code == 2
        assert "numeric error" in err


class TestDeterminism:
    def test_threads_flag_does_not_change_bytes(self, capsys, tmp_path):
        aset = write_aset(tmp_path, {"field": "Q", "kind": "explicit",
                                     "members": [2, 3]})
        out_path = tmp_path / "density.csv"
        outputs = []
        for threads in ("1", "4"):
            code, _, _ = run(capsys, "density", "--threads", threads,
                             "--aset", str(aset), "--max-norm", "5000",
                             "--out", str(out_path))
            assert code == 0
            outputs.append((out_path.read_bytes(),
                            out_path.with_suffix(".summary.json")
                            .read_bytes()))
        assert outputs[0] == outputs[1]


#: 10^21, past the int64 range.
BEYOND_INT64 = "1000000000000000000000"


class TestBadInput:
    @pytest.mark.parametrize("argv,expected", [
        (["count", "--max-norm", "0"], 1),
        (["count", "--max-norm", "100", "--samples", "0"], 1),
        (["mertens", "--cutoff", "9"], 1),
        (["experiment", "primepower-free", "--max-norm", "100"], 2),
        (["experiment", "primepower-free", "--max-norm", "10000",
          "--l", "1"], 2),
        (["experiment", "main-theorem", "--aset", "{aset}", "--k-max", "0"],
         1),
        (["experiment", "main-theorem"], 1),
        # H up to 10^15 needs an 8 PB array: beyond the address space, so
        # the allocation fails at once and touches no memory.
        (["density", "--aset", "{aset}", "--max-norm", "1000000000000000"], 2),
        (["experiment", "main-theorem", "--aset", "{aset}", "--r-max", "0"],
         1),
        (["density", "--aset", "{aset}", "--max-norm", "1000", "--r-max",
          "0"], 1),
        # A profile needs two sample points: fewer is a usage error.
        (["density", "--aset", "{aset}", "--max-norm", "1000", "--samples",
          "1"], 1),
        (["experiment", "main-theorem", "--aset", "{aset}", "--samples",
          "1"], 1),
        (["experiment", "primepower-free", "--samples", "1"], 1),
        # Bounds past the int64 range: TooLarge from the sample grid.
        (["count", "--field", "Q", "--max-norm", BEYOND_INT64], 2),
        (["count", "--field", "Q(sqrt -1)", "--max-norm", BEYOND_INT64], 2),
        (["density", "--aset", "{aset}", "--max-norm", BEYOND_INT64], 2),
        (["mertens", "--cutoff", BEYOND_INT64], 2),
        (["experiment", "primepower-free", "--max-norm", BEYOND_INT64], 2),
        # A profile needs X >= 100: a smaller bound is a usage error.
        (["density", "--aset", "{aset}", "--max-norm", "50"], 1),
        (["experiment", "main-theorem", "--aset", "{aset}", "--max-norm",
          "50"], 1),
        (["experiment", "besicovitch", "--max-norm", "50"], 1),
        # The primes up to 10^14 need 28 TiB: the sieve's output array
        # fails to allocate before any block is sieved.
        (["mertens", "--cutoff", "100000000000000"], 2),
        # The class number of a field with |D| above its work bound.
        (["mertens", "--field", HUGE_FIELD, "--cutoff", "1000"], 2),
    ])
    def test_one_message_line_and_exit_code(self, tmp_path, argv, expected):
        aset = write_aset(tmp_path, {"field": "Q", "kind": "explicit",
                                     "members": [2, 3]})
        proc = run_process("-m", "idealdensity.cli",
                           *(a.format(aset=aset) for a in argv),
                           "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == expected
        assert "Traceback" not in proc.stderr
        assert len(proc.stderr.strip().splitlines()) == 1
        assert not (tmp_path / "out.csv").exists()


    @pytest.mark.parametrize("doc", [
        # (--field, family document, the refusal it reaches)
        ("Q", {"field": "Q", "kind": "explicit", "members": [2.5]},
         "bad member 2.5"),
        ("Q", {"field": "Q", "kind": "explicit", "members": 5},
         "'members' must be a list"),
        ("Q", {"field": "Q", "kind": "explicit", "members": [True]},
         "bad member True"),
        ("Q", {"field": "Q", "kind": "explicit", "members": [0]},
         "member 0 is not positive"),
        ("Q(sqrt -1)",
         {"field": "Q(sqrt -1)", "kind": "explicit", "members": [[[2, 0]]]},
         "bad factor entry [2, 0]"),
        ("Q", {"field": 5, "kind": "explicit", "members": [2]},
         "'field' must be a field label string"),
        ("Q", {"field": "Q", "kind": "explicit", "members": [2],
               "truncation": 0},
         "'truncation' must be an integer >= 1, got 0"),
        ("Q", {"field": "Q", "kind": "prime_powers", "l": 2,
               "truncation": 1.5},
         "'truncation' must be an integer >= 1, got 1.5"),
        ("Q", {"field": "Q", "kind": "prime_powers", "l": "2"},
         "'l' must be an integer >= 1, got '2'"),
        ("Q", {"field": "Q", "kind": "norm_intervals", "intervals": [[5]]},
         "'intervals' must be a list of [lo, hi] integer pairs"),
        ("Q", {"field": "Q", "kind": "norm_intervals",
               "intervals": [[5, 6.5]]},
         "'intervals' must be a list of [lo, hi] integer pairs"),
        ("Q(sqrt -1)",
         {"field": "Q(sqrt -1)", "kind": "explicit",
          "members": [[[2, 0, 1], [2, 0, 1]], [[2, 0, 1], [5, 0, 1]]]},
         "prime (2, 0) repeated in a member"),
        ("Q", {"field": "Q(sqrt -1)", "kind": "explicit",
               "members": [[[2, 0, 1]]]},
         "family field Q(sqrt -1) does not match Q"),
        ("Q", [2, 3], "family specification must be a JSON object"),
        ("Q(sqrt -1)",
         {"field": "Q(sqrt -1)", "kind": "explicit", "members": [[[2, 0, 0]]]},
         "exponents must be >= 1"),
    ])
    def test_bad_family_document(self, tmp_path, doc):
        field, document, message = doc
        aset = write_aset(tmp_path, document)
        proc = run_process("-m", "idealdensity.cli", "density",
                           "--field", field, "--aset", str(aset),
                           "--max-norm", "1000",
                           "--out", str(tmp_path / "out.csv"))
        assert proc.returncode == 1
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.strip().splitlines()
        assert message in line
        assert not (tmp_path / "out.csv").exists()

    def test_family_past_the_work_bound(self, tmp_path):
        # The path p_i * p_(i+1) of the first 800 primes is one entangled
        # block whose exact density needs more work than WORK_LIMIT.
        primes = [pr.p for pr in idd.primes_up_to_norm(idd.make_rational_field(),
                                                        6200)[:800]]
        aset = write_aset(tmp_path, {"field": "Q", "kind": "explicit",
                                     "members": [p * q for p, q in
                                                 zip(primes, primes[1:])]})
        start = time.perf_counter()
        proc = run_process("-m", "idealdensity.cli", "density",
                           "--aset", str(aset), "--max-norm", "1000",
                           "--out", str(tmp_path / "out.csv"))
        assert time.perf_counter() - start < 10
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        (line,) = proc.stderr.strip().splitlines()
        assert line.startswith("numeric error:") and "799 entangled" in line
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("command", [["count", "--max-norm", "100"],
                                         ["mertens", "--cutoff", "100"]])
    def test_one_sample_is_enough_for_counts(self, capsys, tmp_path, command):
        code, _, err = run(capsys, *command, "--samples", "1",
                           "--out", str(tmp_path / "out.csv"))
        assert code == 0, err
        assert len(read_csv(tmp_path / "out.csv")) == 2


def test_cli_import_loads_no_sympy():
    proc = run_process("-c", "import idealdensity.cli, sys; "
                             "assert 'sympy' not in sys.modules")
    assert proc.returncode == 0, proc.stderr


def test_count_and_primepower_free_import_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma on its first call; the CLI paths avoid it.
    proc = run_process("-c", f"""
import sys
from idealdensity import cli
assert cli.main(["count", "--field", "Q(sqrt -1)", "--max-norm", "100000",
                 "--out", {str(tmp_path / "c.csv")!r}]) == 0
assert cli.main(["experiment", "primepower-free", "--field", "Q",
                 "--max-norm", "100000",
                 "--out", {str(tmp_path / "p.csv")!r}]) in (0, 3)
assert "numpy.ma" not in sys.modules, "numpy.ma imported"
""")
    assert proc.returncode == 0, proc.stderr
