import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import idealdensity as idd
from idealdensity.errors import SNotGreaterThanOne
from idealdensity.fields import (EULER_GAMMA, first_prime_ideals,
                                 prime_norm_array, run_starts)
from idealdensity.ideals import _L_BLOCK, norm_blocks

from conftest import peak_bytes, rankin_tail_bound, traced_bytes

#: Norms per block of the sums over norms.
B = _L_BLOCK

CATALAN = 0.915965594177219015


class TestHarmonicIdealSum:
    def test_harmonic_number(self, Q):
        assert idd.harmonic_ideal_sum(Q, 10) == pytest.approx(
            float(Fraction(7381, 2520)))

    def test_one(self, Q):
        assert idd.harmonic_ideal_sum(Q, 1) == 1.0

    def test_gaussian(self, Qi):
        # from the lattice oracle: h = 1,1,0,1,2,0,0,1,1,2 for k=1..10
        expected = 1 + 1 / 2 + 1 / 4 + 2 / 5 + 1 / 8 + 1 / 9 + 2 / 10
        assert idd.harmonic_ideal_sum(Qi, 10) == pytest.approx(expected)


    @pytest.mark.parametrize("m", [1, -1, 5])
    def test_equals_the_generator_sum(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        for x in (10**4, B + 1, 2 * B + 1, 140000):
            h = idd.count_ideals(K, x).h
            expected = math.fsum(int(h[k]) / k for k in range(1, x + 1)
                                 if h[k])
            assert idd.harmonic_ideal_sum(K, x) == expected

    def test_memory_is_bounded(self, Q, Qi):
        # Blocks of norms, not a list of x floats (53 MB at 10^6).
        idd.harmonic_ideal_sum(Q, 10**4)
        assert peak_bytes(idd.harmonic_ideal_sum, Q, 10**6) < 2 * 10**6
        # Over Q(i) the terms of a block are built beside the warm counter.
        idd.harmonic_ideal_sum(Qi, 10**6)
        assert peak_bytes(idd.harmonic_ideal_sum, Qi, 10**6) < 2 * 10**6


class TestEulerProductsAt:
    CUTOFFS = [10, 50, 311, 1000, 4096, 10**5, 12]

    @pytest.mark.parametrize("m", [1, -1, 5])
    def test_equals_per_cutoff_products(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        products = idd.euler_products_at(K, self.CUTOFFS)
        norms = [pr.norm for pr in idd.primes_up_to_norm(K, max(self.CUTOFFS))]
        for c, value in zip(self.CUTOFFS, products):
            single = idd.euler_products_at(K, [c])[0]
            qs = [q for q in norms if q <= c]
            assert value == single
            assert value.hex() == math.exp(
                -math.fsum(math.log1p(-1.0 / q) for q in qs)).hex()

    def test_validation(self, Q):
        assert idd.euler_products_at(Q, []) == []
        with pytest.raises(ValueError):
            idd.euler_products_at(Q, [10, 1])


def _euler_reference(norms, k):
    # The product from Python lists of every norm and log factor.
    logs = [math.log1p(-1.0 / q) for q in norms.tolist()]
    return math.exp(-math.fsum(logs[:k])).hex()


class TestEulerProductsFromArrays:
    FIELDS = [1, -1, 5, -5, -3]

    @pytest.mark.parametrize("m", FIELDS)
    def test_cutoffs_equal_the_list_reference(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        cutoffs = [2, 10, 311, 312, 20000, 65536 * 3, 10**6]
        norms = prime_norm_array(K, max(cutoffs))
        for c, value in zip(cutoffs, idd.euler_products_at(K, cutoffs)):
            k = int(np.searchsorted(norms, c, side="right"))
            assert value.hex() == _euler_reference(norms, k)

    @pytest.mark.parametrize("m", FIELDS)
    def test_first_k_equal_the_list_reference(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        for k in (0, 1, 64, 65, 1000, 20000):
            norms = np.array([pr.norm for pr in first_prime_ideals(K, k)],
                             dtype=np.int64)
            value = idd.partial_euler_product(K, k=k)
            assert value.hex() == _euler_reference(norms, k)

    def test_memory_is_bounded(self):
        # Warm, the prime norms are cached: one float64 array of log
        # factors (8 bytes per prime ideal, 0.6 MB) and chunks of lists.
        K = idd.make_quadratic_field(5)
        cutoffs = [10**j for j in range(1, 7)]
        idd.euler_products_at(K, cutoffs)
        assert peak_bytes(idd.euler_products_at, K, cutoffs) < 2 * 10**6


class TestEulerProduct:
    def test_rational_cutoff(self, Q):
        assert idd.euler_products_at(Q, [10])[0] == pytest.approx(4.375)

    def test_empty(self, Q):
        assert idd.partial_euler_product(Q, k=0) == 1

    def test_gaussian_cutoff(self, Qi):
        # ramified 2 and the two split primes of norm 5
        assert idd.euler_products_at(Qi, [5])[0] == pytest.approx(3.125)

    def test_monotone_in_k(self, Qi):
        values = [idd.partial_euler_product(Qi, k=k) for k in range(12)]
        assert all(b >= a >= 1.0 for a, b in zip(values, values[1:]))

    def test_exact_matches_float_path(self, Q, Qi):
        # The log-space product against the exact rational one.
        for K, cutoff in ((Q, 10), (Q, 300), (Qi, 5)):
            exact = math.prod((Fraction(pr.norm, pr.norm - 1)
                               for pr in idd.primes_up_to_norm(K, cutoff)),
                              start=Fraction(1))
            assert idd.euler_products_at(K, [cutoff])[0] == pytest.approx(
                float(exact), rel=1e-15, abs=0)

    def test_argument_validation(self, Q):
        with pytest.raises(ValueError):
            idd.partial_euler_product(Q, k=-1)

    def test_first_k_primes_leave_nothing_held(self, Q):
        # The first 10^5 norms are read at the bound 64 * 4^8 = 4194304,
        # which holds 295947 primes, and only they become prime ideals;
        # nothing is kept.
        held, peak = traced_bytes(idd.partial_euler_product, Q, 10**5)
        assert held < 10**5
        assert peak < 40 * 10**6


def _restricted_harmonic_sum(K, k, bound):
    # exhaustive sum of 1/N over ideals supported on the first k primes
    norms = [pr.norm for pr in first_prime_ideals(K, k)]
    total = 0.0

    def rec(i, n):
        nonlocal total
        total += 1.0 / n
        for j in range(i, len(norms)):
            m = n * norms[j]
            while m <= bound:
                rec(j + 1, m)
                m *= norms[j]

    rec(0, 1)
    return total


class TestEulerProductVsRestrictedSum:
    @pytest.mark.parametrize("field_name", ["Q", "Qi"])
    @pytest.mark.parametrize("k", [1, 2, 4, 6])
    def test_sum_approaches_product_from_below(self, field_name, k, Q, Qi):
        K = Q if field_name == "Q" else Qi
        bound = 10**6
        partial = _restricted_harmonic_sum(K, k, bound)
        pi_k = idd.partial_euler_product(K, k=k)
        tail = rankin_tail_bound([pr.norm for pr in first_prime_ideals(K, k)],
                                 bound)
        assert partial <= pi_k + 1e-12
        assert pi_k - partial <= tail


class TestMertens:
    def test_small_cutoff(self, Q):
        assert idd.mertens_ratio(Q, 10) == pytest.approx(4.375 / math.log(10))

    def test_cutoff_validation(self, Q):
        with pytest.raises(ValueError):
            idd.mertens_ratio(Q, 5)

    def test_target(self):
        assert idd.mertens_target(1.0) == pytest.approx(1.781072, abs=1e-6)

    @pytest.mark.parametrize("field_name", ["Q", "Qi"])
    def test_deviation_shrinks(self, field_name, Q, Qi):
        K = Q if field_name == "Q" else Qi
        if K.is_rational:
            target = math.exp(EULER_GAMMA)
        else:
            target = idd.mertens_target(idd.analytic_residue_imag_quadratic(K))
        devs = [abs(idd.mertens_ratio(K, c) - target)
                for c in (10**3, 10**4, 10**5, 10**6)]
        improvements = sum(b < a for a, b in zip(devs, devs[1:]))
        assert improvements >= 2


def _dedekind_zeta_reference(K, s, X):
    # The sum over one float64 array of all X terms.
    ks = np.arange(1, X + 1, dtype=np.float64)
    with np.errstate(over="ignore"):
        np.power(ks, s, out=ks)
    if K.is_rational:
        np.divide(1.0, ks, out=ks)
        c_upper = 1.0
    else:
        counter = idd.count_ideals(K, X)
        for lo, hi in norm_blocks(X):
            np.divide(counter.h[lo:hi], ks[lo - 1:hi - 1],
                      out=ks[lo - 1:hi - 1])
        xs = np.geomspace(max(1, X // 10), X, 32).astype(np.int64)
        c_upper = max(counter.H_of(x) / x
                      for x in xs[run_starts(xs)].tolist())
    value = float(np.sum(ks))
    tail_bound = 2.0 * c_upper * (s / (s - 1.0)) * X ** (1.0 - s)
    return value, tail_bound


class TestDedekindZetaInBlocks:
    @pytest.mark.parametrize("m", [1, -1, 5, -5, -3])
    def test_equals_the_full_array_sum(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        for X in (10, 11, B, B + 1, 2 * B, 2 * B + 1, 131073, 10**6):
            for s in (1.0001, 2.0, 3.0, 7.5):
                got = idd.dedekind_zeta(K, s, X)
                want = _dedekind_zeta_reference(K, s, X)
                assert [v.hex() for v in got] == [v.hex() for v in want]

    def test_memory_is_bounded(self, Q):
        # The float64 terms of all 10^6 norms would take 8 MB.
        idd.dedekind_zeta(Q, 2.0, 10**4)
        assert peak_bytes(idd.dedekind_zeta, Q, 2.0, 10**6) < 10**6

    def test_overflow_of_large_powers_is_silent(self, Q):
        # 10^400 overflows a double; its term is 0 all the same.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value, _ = idd.dedekind_zeta(Q, 400.0, 10**4)
        assert value == 1.0


class TestDedekindZeta:
    def test_basel(self, Q):
        value, tail = idd.dedekind_zeta(Q, 2.0, 10**5)
        assert tail <= 1e-4
        assert value <= math.pi**2 / 6 <= value + tail

    def test_apery(self, Q):
        value, tail = idd.dedekind_zeta(Q, 3.0, 10**4)
        zeta3 = 1.2020569031595942854
        assert value <= zeta3 <= value + tail

    def test_gaussian(self, Qi):
        value, tail = idd.dedekind_zeta(Qi, 2.0, 10**5)
        # oracle: product of two classical truncated series
        target = (math.pi**2 / 6) * CATALAN
        assert value == pytest.approx(1.506730, abs=1e-3)
        assert value <= target <= value + tail

    def test_near_one_contract(self, Q):
        value, tail = idd.dedekind_zeta(Q, 1.0001, 10)
        assert math.isfinite(value)
        assert tail > 100  # honest: nothing is resolved this close to s=1

    def test_monotone_in_truncation(self, Qi):
        values = []
        tails = []
        for X in (10**2, 10**3, 10**4):
            v, t = idd.dedekind_zeta(Qi, 2.0, X)
            values.append(v)
            tails.append(t)
        assert values == sorted(values)
        assert tails == sorted(tails, reverse=True)

    def test_s_validation(self, Q):
        with pytest.raises(SNotGreaterThanOne):
            idd.dedekind_zeta(Q, 1.0, 100)
