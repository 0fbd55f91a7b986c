import csv
import json
import math

import numpy as np
import pytest

import idealdensity as idd
from idealdensity import cli, experiments as ex
from idealdensity.errors import BoundsExceedX

from conftest import int_family, peak_bytes


class TestPrimePowerFree:
    def test_squarefree_rational(self, Q):
        result = ex.primepower_free_experiment(Q, 2, 10**6)
        assert result.verdict
        assert result.summary["natural_deviation"] <= ex.NATURAL_TOL
        assert result.summary["target"] == pytest.approx(6 / math.pi**2,
                                                         abs=1e-3)

    def test_cubefree_rational(self, Q):
        result = ex.primepower_free_experiment(Q, 3, 10**4)
        zeta3 = 1.2020569031595942854
        assert result.summary["target"] == pytest.approx(1 / zeta3, abs=1e-3)
        assert result.summary["natural_deviation"] <= ex.NATURAL_TOL

    def test_squarefree_gaussian_natural(self, Qi):
        result = ex.primepower_free_experiment(Qi, 2, 10**5)
        # target 1/zeta_K(2) = 1/(zeta(2) L(2, chi_{-4}))
        assert result.summary["target"] == pytest.approx(0.663704, abs=1e-3)
        assert result.summary["natural_deviation"] <= ex.NATURAL_TOL

    def test_direct_squarefree_oracle(self, Q):
        X = 10**4
        sieve = np.ones(X + 1, dtype=bool)
        for p in range(2, int(X**0.5) + 1):
            sieve[p * p::p * p] = False
        result = ex.primepower_free_experiment(Q, 2, X)
        assert result.rows[-1][1] == int(sieve[1:].sum())

    def test_rational_run_holds_no_counter(self, Q):
        # Over Q the profile and the zeta sum read H(x) = x and h = 1: the
        # heap holds the marks and blocks of 2^16 norms, not H, L, h or
        # one float term per norm.
        ex.primepower_free_experiment(Q, 2, 10**4)    # warm: lazy imports
        assert peak_bytes(ex.primepower_free_experiment, Q, 2,
                          10**6) < 5 * 10**6

    def test_validation(self, Q):
        with pytest.raises(ValueError):
            ex.primepower_free_experiment(Q, 1, 10**4)
        with pytest.raises(ValueError):
            ex.primepower_free_experiment(Q, 2, 100)


class TestMainTheorem:
    def test_single_prime(self, Q):
        result = ex.main_theorem_experiment(int_family(Q, 2), X=10**5,
                                            k_max=4, r_max=1)
        assert result.verdict
        assert result.summary["a_r_final"] == 0.5
        assert result.summary["b_k_final"] == 0.5

    def test_squarefull_family(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=2, truncation=10**6)
        result = ex.main_theorem_experiment(fam, X=10**6, k_max=8, r_max=8)
        # A_r and B_k agree closely; the measured log ratio converges at
        # 1/log x speed and lands within the log tolerance of A_r
        assert result.summary["a_vs_b"] <= ex.NATURAL_TOL
        assert result.summary["log_vs_a"] <= ex.LOG_TOL

    def test_row_shape(self, Q):
        result = ex.main_theorem_experiment(int_family(Q, 2, 3), X=10**4,
                                            k_max=3, r_max=2, n_samples=8)
        assert result.columns[0] == "index"
        assert len(result.rows) == 8


class TestBesicovitch:
    def test_interval_construction(self):
        # T grows 10 -> 1000 -> 10^9, so the third interval needs X >= 10^9
        assert ex.besicovitch_intervals(10, 3, 3, 10**9) == [
            (10, 20), (1000, 2000), (10**9, 2 * 10**9)]
        assert ex.besicovitch_intervals(10, 3, 3, 10**6) == [
            (10, 20), (1000, 2000)]

    def test_t0_beyond_bound(self):
        with pytest.raises(BoundsExceedX):
            ex.besicovitch_intervals(100, 3, 2, 50)

    def test_oscillation_vs_log(self, Q):
        result = ex.besicovitch_experiment(Q, T0=10, growth=3, depth=3,
                                           X=10**5)
        assert result.verdict
        assert result.summary["natural_oscillation"] >= 0.01
        assert result.summary["log_variation"] < \
            result.summary["natural_oscillation"]

    def test_counts_against_integer_sieve(self, Q):
        X = 10**5
        intervals = ex.besicovitch_intervals(10, 3, 3, X)
        divisors = np.zeros(X + 1, dtype=bool)
        for lo, hi in intervals:
            for d in range(lo + 1, min(hi, X) + 1):
                divisors[d::d] = True
        result = ex.besicovitch_experiment(Q, T0=10, growth=3, depth=3, X=X)
        for row in result.rows:
            x = row[0]
            assert row[1] == int(divisors[1:x + 1].sum())

    def test_gaussian_intervals_hold_only_marking_arrays(self, Qi):
        # Norm intervals are counted by norm: one bool mark per norm, and
        # the weights h(n) and harmonic terms only in fixed-size blocks,
        # so far less than one 8-byte array of length X + 1.
        X = 10**6
        assert idd.count_ideals(Qi, X).L[X] > 0     # warm: H and L cached
        ex.besicovitch_experiment(Qi, X=10**4)      # warm: lazy imports
        assert peak_bytes(ex.besicovitch_experiment, Qi, X=X) < 8 * (X + 1) / 2

    def test_validation(self, Q):
        with pytest.raises(ValueError):
            ex.besicovitch_experiment(Q, T0=2)
        with pytest.raises(ValueError):
            ex.besicovitch_experiment(Q, depth=0)


class TestEmission:
    def test_csv_round_trip(self, Q, tmp_path):
        result = ex.primepower_free_experiment(Q, 2, 10**4, n_samples=6)
        path = tmp_path / "out.csv"
        cli.write_csv(path, result.columns, result.rows)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(result.columns)
        assert len(rows) == len(result.rows) + 1
        # floats survive at ".12g" precision
        assert float(rows[-1][3]) == pytest.approx(
            float(result.rows[-1][3]), rel=1e-11)

    def test_summary_json(self, Q, tmp_path):
        result = ex.besicovitch_experiment(Q, X=10**4, depth=2)
        path = tmp_path / "out.json"
        cli.write_json(path, result.summary_document({"threads": None}))
        with open(path) as fh:
            doc = json.load(fh)
        assert doc["scenario"] == "besicovitch"
        assert doc["verdict"] == result.verdict
        assert doc["config"] == {"threads": None}
        assert doc["parameters"]["field"] == "Q"

    def test_deterministic_bytes(self, Q, tmp_path):
        paths = []
        for name in ("a.json", "b.json"):
            result = ex.primepower_free_experiment(Q, 2, 10**4, n_samples=6)
            p = tmp_path / name
            cli.write_json(p, result.summary_document())
            paths.append(p.read_bytes())
        assert paths[0] == paths[1]
