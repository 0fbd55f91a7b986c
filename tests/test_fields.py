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

from conftest import (
    kronecker_symbol,
    peak_bytes,
    reduced_form_class_number,
    trial_division_primes,
)


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
        assert kronecker_symbol(-4, 5) == 1
        assert kronecker_symbol(-4, 3) == -1
        assert kronecker_symbol(-4, 1) == 1
        assert kronecker_symbol(-4, 2) == 0

    @pytest.mark.parametrize("D", [-4, -3, -20, 5, 8, 13])
    def test_completely_multiplicative(self, D):
        at_prime = {}
        for n in range(1, 2001):
            expected = 1
            for p, e in factorint(n).items():
                if p not in at_prime:
                    at_prime[p] = kronecker_symbol(D, p)
                expected *= at_prime[p] ** e
            assert kronecker_symbol(D, n) == expected

    @pytest.mark.parametrize("D", [-4, -3, -20, 5, 8])
    def test_periodic_mod_abs_D(self, D):
        for n in range(1, 3 * abs(D)):
            assert kronecker_symbol(D, n) == kronecker_symbol(D, n + abs(D))

    @pytest.mark.parametrize("m", [-1, -3, -5, 5, 2, 13, -21, 3001])
    @pytest.mark.parametrize("n", [1, 2, 3, 50, 3000])
    def test_table_is_the_symbol_and_its_prefix_sums(self, m, n):
        # chi from the builder; its prefix sums S through ideal_counts,
        # which reads a table of length n at max(xs) = n - 1, against
        # H(x) = sum_{j <= x} S(x // j) with S from itertools.
        K = idd.make_quadratic_field(m)
        D = K.discriminant
        n = min(n, abs(D))
        chi = kronecker_table(K, n)
        expected = [kronecker_symbol(D, k) if k else 0 for k in range(n)]
        assert chi.tolist() == expected
        assert not chi.flags.writeable
        S = list(itertools.accumulate(expected))
        xs = range(n)                   # x = k reads S[k] at d = 1
        assert idd.ideal_counts(K, xs) == [
            sum(S[x // j] for j in range(1, x + 1)) for x in xs]
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
        chi = kronecker_table(K, 20000)
        assert calls == [19999]
        assert chi[-500:].tolist() == [kronecker_symbol(K.discriminant, k)
                                       for k in range(19500, 20000)]


def record_tables(monkeypatch) -> list[int]:
    """The lengths n of the ``kronecker_table`` calls made from here on,
    in order."""
    calls = []
    build = fields_module.kronecker_table
    monkeypatch.setattr(fields_module, "kronecker_table",
                        lambda K, n: calls.append(n) or build(K, n))
    return calls


def test_prime_layer_past_the_table_bound_builds_no_table(monkeypatch):
    # |D| = 40028 > 10^4: past the bound every prime takes Euler's
    # criterion, which gives the norms and counts read through the table
    # below the bound, and no chi_D table is built.  The table is taken
    # below the bound for the 900-odd primes in (|D|, 50000] too.
    monkeypatch.setattr(fields_module, "_CHI_ENTRIES_PER_PRIME", 10**9)
    K = idd.make_quadratic_field(10007)
    tables = record_tables(monkeypatch)
    norms = fields_module.prime_norm_array(K, 50000)
    H = idd.count_ideals.__wrapped__(K, 50000).H_of(50000)
    assert tables == [40028, 40028]
    monkeypatch.setattr(fields_module, "_CHI_TABLE_LIMIT", 10**4)
    tables.clear()
    assert np.array_equal(fields_module.prime_norm_array(K, 50000), norms)
    assert idd.count_ideals.__wrapped__(K, 50000).H_of(50000) == H
    assert tables == []


def test_prime_norms_build_one_table_per_call(monkeypatch):
    # The 78498 primes <= 10^6 take 20 pieces, all past |D| = 5 but 2 and
    # 3: every piece reads the one table built before the first.
    tables = record_tables(monkeypatch)
    fields_module.prime_norm_array(idd.make_quadratic_field(5), 10**6)
    assert tables == [5]


def test_split_symbols_take_euler_where_the_table_serves_few_primes(
        monkeypatch):
    # D = 400012: of the primes <= 5 * 10^5 about 7700 are >= |D|, fewer
    # than one per _CHI_ENTRIES_PER_PRIME entries of a table, so every
    # prime takes Euler's criterion and no table is built.  A small |D|
    # serves nearly every prime from its one table.
    tables = record_tables(monkeypatch)
    K = idd.make_quadratic_field(100003)
    ps = fields_module.rational_primes_up_to(5 * 10**5)
    symbols = fields_module._split_symbols(K, ps)
    assert np.array_equal(symbols, np.concatenate([
        fields_module._symbols_at_primes(K.discriminant, part)
        for part in np.array_split(ps, 8)]))
    assert [int(symbols[i]) for i in (0, 1, -2, -1)] == [
        kronecker_symbol(K.discriminant, int(ps[i])) for i in (0, 1, -2, -1)]
    assert tables == []
    small = idd.make_quadratic_field(-5)
    symbols = fields_module._split_symbols(small, ps)
    assert tables == [20]
    assert symbols[-500:].tolist() == [
        kronecker_symbol(small.discriminant, p) for p in ps[-500:].tolist()]


def test_euler_symbols_past_the_int64_square():
    # p^2 > 2^63 for the first 40 primes above 4 * 10^9, all below |D| and
    # 2^32: squares in int64 wrapped and gave 22 of them the wrong sign.
    D = idd.make_quadratic_field(1000000007).discriminant
    ps = list(itertools.islice(primerange(4 * 10**9, 2**32), 40))
    assert D == 4000000028 and ps[-1] < 2**32
    assert fields_module._symbols_at_primes(D, np.array(ps)).tolist() == [
        kronecker_symbol(D, p) for p in ps]


def test_euler_symbols_refuse_a_prime_past_2_32():
    with pytest.raises(TooLarge, match=r"4294967311: .* p < 2\^32"):
        fields_module._symbols_at_primes(-4, np.array([3, 2**32 + 15]))


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
        build = fields_module.prime_norm_array
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
        assert pr.norm == 2 and e == 2

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
            assert sum(e * pr.f for pr, e in above) == K.degree
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

    @pytest.mark.parametrize("m", [-1, -2, -3, -5, 2, 3, 5, 13, -14, 21])
    def test_splitting_type_is_the_kronecker_symbol(self, m):
        # Euler's criterion on Python ints against Jacobi reciprocity, at
        # every prime below 10^4 and at two primes whose squares pass int64.
        K = idd.make_quadratic_field(m)
        for p in [*primerange(2, 10**4), 10**12 + 39, 2**61 - 1]:
            (_, e), *other = idd.split_prime(K, p)
            symbol = 1 if other else 0 if e == 2 else -1
            assert symbol == kronecker_symbol(K.discriminant, p)


class TestFactorint:
    @pytest.fixture
    def isprime_calls(self, monkeypatch):
        calls = []
        real = fields_module.isprime

        def counted(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(fields_module, "isprime", counted)
        return calls

    def test_a_cofactor_past_its_square_root_is_not_retested(
            self, isprime_calls):
        for n in range(1, 10**5):
            assert math.prod(p ** e for p, e in
                             fields_module.factorint(n).items()) == n
        assert fields_module.factorint(2 * 999983) == {2: 1, 999983: 1}
        assert fields_module.factorint(10**12 + 39) == {10**12 + 39: 1}
        assert isprime_calls == []

    def test_a_cofactor_at_the_trial_limit_is_tested(self, isprime_calls,
                                                     Qi):
        with pytest.raises(TooLarge):
            fields_module.factorint(1000003 * 1000033)
        assert isprime_calls == [1000003 * 1000033]
        with pytest.raises(NotPrime):
            idd.split_prime(Qi, 6)


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

    @staticmethod
    def record_bounds(monkeypatch) -> list[int]:
        """The bounds X of the ``prime_norm_array`` calls made from here
        on, in order."""
        calls = []
        sieve = fields_module.prime_norm_array
        monkeypatch.setattr(fields_module, "prime_norm_array",
                            lambda K, X: calls.append(X) or sieve(K, X))
        return calls

    @pytest.mark.parametrize("m", [1, -1])
    def test_first_primes_sieve_once_per_bound(self, m, monkeypatch):
        # The 100th prime ideal has norm 541 over Q and over Q(i).
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        calls = self.record_bounds(monkeypatch)
        for _ in range(3):
            calls.clear()
            first_prime_ideals(K, 100)
            assert calls == [64, 256, 1024]     # one sieve per bound

    def test_first_prime_ideals_read_fourfold_bounds(self, Q, monkeypatch):
        # The 18th prime is 61 < 64, the 54th 251 < 256, the 100th 541.
        calls = self.record_bounds(monkeypatch)
        first_100 = list(primerange(2, 542))
        for k in range(1, 101):
            primes = first_prime_ideals(Q, k)
            assert [pr.norm for pr in primes] == first_100[:k]
        assert sorted(set(calls)) == [64, 256, 1024]

    def test_b_k_of_prime_squares_read_one_bound(self, Q, monkeypatch):
        fam = idd.PrimePowerFamily(field=Q, l=2)
        calls = self.record_bounds(monkeypatch)
        for k in range(1, 9):
            idd.multiplicative_density(fam, k)
        assert set(calls) == {64}

    @pytest.mark.parametrize("m", [1, -1, -5, 5, 13])
    def test_norm_array_is_the_norm_column(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        norms = fields_module.prime_norm_array(K, 5000)
        assert norms.tolist() == [
            pr.norm for pr in idd.primes_up_to_norm(K, 5000)]
        assert not norms.flags.writeable

    def test_norm_array_builds_only_the_norms(self):
        K = idd.make_quadratic_field(5)
        build = fields_module.prime_norm_array
        build(K, 1000)                  # warm: the class table of chi_D
        # The norms themselves take 8 bytes per prime ideal, about 0.6 MB.
        assert peak_bytes(build, K, 10**6) < 4 * 10**6

    def test_sorted_by_norm(self, Qi):
        primes = idd.primes_up_to_norm(Qi, 1000)
        norms = [pr.norm for pr in primes]
        assert norms == sorted(norms)


class TestClassNumber:
    @pytest.mark.parametrize("D,h", [(-3, 1), (-4, 1), (-8, 1), (-20, 2),
                                     (-23, 3), (-47, 5), (-163, 1),
                                     (-4000004, 1032)])
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

    def test_equals_the_reduced_form_count(self):
        # The fundamental D < 0 are the discriminants of the fields
        # Q(sqrt m), m < 0 squarefree (sympy's factorint the oracle); h(D)
        # refuses every other D.
        Ds = {D for m in range(-2999, 0)
              if max(factorint(-m).values(), default=1) == 1
              and (D := idd.make_quadratic_field(m).discriminant) >= -2999}
        assert len(Ds) == 911
        for D in range(-2999, -2):
            if D in Ds:
                assert idd.class_number_imag_quadratic(D) == (
                    reduced_form_class_number(D)), D
            else:
                with pytest.raises(NotFundamental):
                    idd.class_number_imag_quadratic(D)

    def test_table_is_dropped_and_not_cached(self, monkeypatch):
        # One int8 table of |D|//2 + 1 entries from the one chi_D builder,
        # built beside the primes below its length and dropped on return.
        D = -4000004
        tables = record_tables(monkeypatch)
        build = fields_module.class_number_imag_quadratic.__wrapped__
        assert peak_bytes(build, D) < 6 * (-D // 2 + 1)
        assert tables == [-D // 2 + 1]

    def test_refused_before_the_sieve(self, monkeypatch):
        # 10007 is prime, so D = -10007 is fundamental; it is refused by
        # |D| > _CHI_TABLE_LIMIT before any prime is sieved.
        monkeypatch.setattr(fields_module, "_CHI_TABLE_LIMIT", 10**4)
        monkeypatch.setattr(fields_module, "rational_primes_up_to", None)
        build = fields_module.class_number_imag_quadratic.__wrapped__
        with pytest.raises(TooLarge, match="10007"):
            build(-10007)


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
