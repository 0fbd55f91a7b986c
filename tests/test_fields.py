import bisect
import itertools
import math

import numpy as np
import pytest
from sympy import factorint, primerange

import idealdensity as idd
from idealdensity import fields as fields_module
from idealdensity.fields import first_prime_ideals, kronecker_table
from idealdensity.errors import (
    DegenerateM,
    NotFundamental,
    NotNegative,
    NotPrime,
    NotSquarefree,
    TooLarge,
    UnsupportedField,
)

from conftest import peak_bytes, trial_division_primes


class TestFieldConstruction:
    def test_rational_field(self, Q):
        assert Q.degree == 1
        assert Q.discriminant == 1
        assert Q.is_rational

    def test_gaussian_field(self, Qi):
        # -1 is not 1 mod 4, so D = 4m
        assert Qi.discriminant == -4
        assert Qi.unit_count == 4

    def test_eisenstein_field(self, Q3):
        # -3 = 1 mod 4, so D = m
        assert Q3.discriminant == -3
        assert Q3.unit_count == 6

    def test_real_quadratic(self):
        K = idd.make_quadratic_field(5)
        assert K.discriminant == 5
        assert K.unit_count is None

    def test_not_squarefree(self):
        with pytest.raises(NotSquarefree):
            idd.make_quadratic_field(12)

    @pytest.mark.parametrize("m", [0, 1])
    def test_degenerate(self, m):
        with pytest.raises(DegenerateM):
            idd.make_quadratic_field(m)

    def test_parse(self, Q, Qi):
        assert idd.parse_field("Q") == Q
        assert idd.parse_field("Q(sqrt -1)") == Qi
        assert idd.parse_field("Q(sqrt-1)") == Qi
        with pytest.raises(UnsupportedField):
            idd.parse_field("Q[i]")


class TestKronecker:
    def test_values(self):
        # oracle: x^2+1 = (x-2)(x+2) mod 5, irreducible mod 3
        assert idd.kronecker_symbol(-4, 5) == 1
        assert idd.kronecker_symbol(-4, 3) == -1
        assert idd.kronecker_symbol(-4, 1) == 1
        assert idd.kronecker_symbol(-4, 2) == 0

    @pytest.mark.parametrize("D", [-4, -3, -20, 5, 8, 13])
    def test_completely_multiplicative(self, D):
        at_prime = {}
        for n in range(1, 2001):
            expected = 1
            for p, e in factorint(n).items():
                if p not in at_prime:
                    at_prime[p] = idd.kronecker_symbol(D, p)
                expected *= at_prime[p] ** e
            assert idd.kronecker_symbol(D, n) == expected

    @pytest.mark.parametrize("D", [-4, -3, -20, 5, 8])
    def test_periodic_mod_abs_D(self, D):
        for n in range(1, 3 * abs(D)):
            assert idd.kronecker_symbol(D, n) == idd.kronecker_symbol(D, n + abs(D))

    @pytest.mark.parametrize("m", [-1, -3, -5, 5, 2, 13, -21, 3001])
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 3000])
    def test_table_is_the_symbol_and_its_prefix_sums(self, m, n):
        K = idd.make_quadratic_field(m)
        D = K.discriminant
        n = min(n, abs(D))
        chi, S = kronecker_table(K, n)
        expected = [idd.kronecker_symbol(D, k) if k else 0 for k in range(n)]
        assert chi.tolist() == expected
        assert S.tolist() == list(itertools.accumulate(expected))
        assert not chi.flags.writeable and not S.flags.writeable
        with pytest.raises(ValueError):
            kronecker_table(K, abs(D) + 1)

    def test_table_sieves_the_primes_once(self, monkeypatch):
        # chi(p) comes from Euler's criterion, not from the prime-ideal
        # norms, so the rational primes below n are sieved once.
        def refuse(K, X):
            raise AssertionError("prime_norm_array called")

        calls = []
        primes = fields_module.rational_primes_up_to
        monkeypatch.setattr(fields_module, "prime_norm_array", refuse)
        monkeypatch.setattr(fields_module, "rational_primes_up_to",
                            lambda n: calls.append(n) or primes(n))
        K = idd.make_quadratic_field(1000003)
        chi, _ = kronecker_table.__wrapped__(K, 20000)
        assert calls == [19999]
        assert chi[-500:].tolist() == [idd.kronecker_symbol(K.discriminant, k)
                                       for k in range(19500, 20000)]


#: Integers per block of the segmented sieve.
SIEVE_SPAN = 2 * fields_module._SIEVE_BLOCK
#: Bounds one below, at and one above 1, 2 and 3 blocks.
SIEVE_EDGES = [k * SIEVE_SPAN + d for k in (1, 2, 3) for d in (-1, 0, 1)]


def primes_below(n):
    """Trial-division primes <= n, cut from the list up to the largest
    bound the tests use."""
    ref = trial_division_primes(max(SIEVE_EDGES))
    return list(ref[:bisect.bisect_right(ref, n)])


class TestSegmentedSieve:
    def test_every_small_bound(self):
        for n in range(-1, 301):
            assert fields_module.rational_primes_up_to(n).tolist() == \
                primes_below(n)

    @pytest.mark.parametrize("n", SIEVE_EDGES)
    def test_block_edges(self, n):
        primes = fields_module.rational_primes_up_to(n)
        assert primes.dtype == np.int64
        assert primes.tolist() == primes_below(n)

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 5])
    def test_small_blocks(self, monkeypatch, block):
        # Blocks of 2 * block integers.  With 4, every odd square k*8 + 1
        # is a block's first odd number; with 5, 3^2, 7^2 and 13^2 are a
        # block's last (k*10 + 9) and 11^2 and 19^2 its first (k*10 + 1).
        monkeypatch.setattr(fields_module, "_SIEVE_BLOCK", block)
        for n in range(-1, 401):
            assert fields_module.rational_primes_up_to(n).tolist() == \
                primes_below(n)

    def test_bound_past_int64_is_refused(self):
        # Refused before the prime array is sized.
        with pytest.raises(TooLarge, match="int64"):
            fields_module.rational_primes_up_to(2**63)

    def test_sieve_memory_is_the_prime_array_and_one_block(self):
        # Measured 6.7 MB: 6.2 MB for the array sized by the prime bound
        # (5.3 MB after the shrink) and the 128 KB block; the bound is 1.2
        # times that (a bool per integer and its nonzero copy took 15 MB).
        fields_module.rational_primes_up_to(1000)       # warm
        assert peak_bytes(fields_module.rational_primes_up_to, 10**7) < 8e6

    def test_norms_hold_no_other_array_as_long_as_the_primes(self):
        # Measured 11.4 MB: 5.3 MB of primes, 0.7 MB of int8 symbols and
        # 5.4 MB of norms; the bound is 1.05 times that (masks and int64
        # symbols as long as the prime list took 21 MB).
        K = idd.make_quadratic_field(5)
        build = fields_module.prime_norm_array.__wrapped__
        build(K, 1000)                  # warm: the class table of chi_D
        assert peak_bytes(build, K, 10**7) < 12e6


class TestSplitting:
    def test_gaussian_split(self, Qi):
        above = idd.split_prime(Qi, 5)
        assert [pr.norm for pr, _ in above] == [5, 5]
        assert [pr.conjugate_index for pr, _ in above] == [0, 1]

    def test_gaussian_inert(self, Qi):
        ((pr, e),) = idd.split_prime(Qi, 3)
        assert pr.norm == 9 and pr.f == 2 and e == 1

    def test_gaussian_ramified(self, Qi):
        ((pr, e),) = idd.split_prime(Qi, 2)
        assert pr.norm == 2 and pr.e == 2 and e == 2

    def test_rational(self, Q):
        ((pr, e),) = idd.split_prime(Q, 7)
        assert pr.norm == 7 and e == 1

    def test_not_prime(self, Qi):
        with pytest.raises(NotPrime):
            idd.split_prime(Qi, 6)

    @pytest.mark.parametrize("m", [-1, -3, -5, 2, 5, 13])
    def test_efg_identity(self, m):
        K = idd.make_quadratic_field(m)
        for p in [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]:
            above = idd.split_prime(K, p)
            assert sum(pr.e * pr.f for pr, _ in above) == K.degree
            # product of the factors has norm p^d
            norm = 1
            for pr, e in above:
                norm *= pr.norm ** e
            assert norm == p ** K.degree

    @pytest.mark.parametrize("m", [-1, -3, -5, 2, 5, 13])
    def test_split_iff_quadratic_residue(self, m):
        # direct root search oracle for odd unramified p
        from sympy import isprime
        K = idd.make_quadratic_field(m)
        for p in range(3, 200):
            if not isprime(p) or K.discriminant % p == 0:
                continue
            has_root = any((r * r - m) % p == 0 for r in range(p))
            split = len(idd.split_prime(K, p)) == 2
            assert split == has_root


class TestPrimeNumbering:
    def test_gaussian_small(self, Qi):
        primes = idd.primes_up_to_norm(Qi, 10)
        assert [pr.norm for pr in primes] == [2, 5, 5, 9]

    def test_empty(self, Qi):
        assert idd.primes_up_to_norm(Qi, 1) == ()

    def test_rational(self, Q):
        assert [pr.norm for pr in idd.primes_up_to_norm(Q, 10)] == [2, 3, 5, 7]

    @pytest.mark.parametrize("m", [-1, -3, 5])
    def test_prefix_consistency(self, m):
        K = idd.make_quadratic_field(m)
        big = idd.primes_up_to_norm(K, 500)
        small = idd.primes_up_to_norm(K, 80)
        assert tuple(pr for pr in big if pr.norm <= 80) == small

    @pytest.mark.parametrize("m", [1, -1])
    def test_first_primes_sieve_once_per_bound(self, m, monkeypatch):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        calls = []
        sieve = fields_module._prime_norms
        monkeypatch.setattr(fields_module, "_prime_norms",
                            lambda K, X: calls.append(X) or sieve(K, X))
        fields_module.prime_norm_array.cache_clear()
        idd.primes_up_to_norm.cache_clear()

        def one_round():
            first_prime_ideals(K, 100)
            fields_module.first_prime_norms(K, 100)

        one_round()
        first = list(calls)
        one_round()
        one_round()
        assert calls == first                   # the later rounds read caches
        assert len(set(first)) == len(first)    # one sieve per bound

    def test_first_prime_ideals_adds_one_cache_entry(self, Q):
        idd.primes_up_to_norm.cache_clear()
        primes = first_prime_ideals(Q, 100)
        assert idd.primes_up_to_norm.cache_info().currsize <= 1
        assert [pr.norm for pr in primes] == list(primerange(2, 542))

    @pytest.mark.parametrize("m", [1, -1, -5, 5, 13])
    def test_norm_array_is_the_norm_column(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        norms = fields_module.prime_norm_array(K, 5000)
        assert norms.tolist() == [
            pr.norm for pr in idd.primes_up_to_norm(K, 5000)]
        assert not norms.flags.writeable

    def test_norm_array_builds_only_the_norms(self):
        K = idd.make_quadratic_field(5)
        build = fields_module.prime_norm_array.__wrapped__
        build(K, 1000)                  # warm: the class table of chi_D
        # The norms themselves take 8 bytes per prime ideal, about 0.6 MB.
        assert peak_bytes(build, K, 10**6) < 4 * 10**6

    def test_sorted_by_norm(self, Qi):
        primes = idd.primes_up_to_norm(Qi, 1000)
        norms = [pr.norm for pr in primes]
        assert norms == sorted(norms)


class TestClassNumber:
    @pytest.mark.parametrize("D,h", [(-3, 1), (-4, 1), (-8, 1), (-20, 2),
                                     (-23, 3), (-47, 5), (-163, 1)])
    def test_known_values(self, D, h):
        assert idd.class_number_imag_quadratic(D) == h

    def test_not_fundamental(self):
        with pytest.raises(NotFundamental):
            idd.class_number_imag_quadratic(-12)

    def test_not_negative(self):
        with pytest.raises(NotNegative):
            idd.class_number_imag_quadratic(5)

    def test_past_the_work_bound(self):
        with pytest.raises(TooLarge):
            idd.class_number_imag_quadratic(-(10**24 + 7))


class TestAnalyticResidue:
    def test_gaussian(self, Qi):
        assert idd.analytic_residue_imag_quadratic(Qi) == pytest.approx(math.pi / 4)

    def test_eisenstein(self, Q3):
        assert idd.analytic_residue_imag_quadratic(Q3) == pytest.approx(
            2 * math.pi / (6 * math.sqrt(3)), abs=1e-6)
        assert idd.analytic_residue_imag_quadratic(Q3) == pytest.approx(0.604600, abs=1e-6)

    def test_class_number_two(self):
        K = idd.make_quadratic_field(-5)
        assert idd.analytic_residue_imag_quadratic(K) == pytest.approx(
            2 * math.pi * 2 / (2 * math.sqrt(20)), abs=1e-6)
        assert idd.analytic_residue_imag_quadratic(K) == pytest.approx(1.404963, abs=1e-6)

    def test_unsupported(self, Q):
        with pytest.raises(UnsupportedField):
            idd.analytic_residue_imag_quadratic(Q)
        with pytest.raises(UnsupportedField):
            idd.analytic_residue_imag_quadratic(idd.make_quadratic_field(5))
