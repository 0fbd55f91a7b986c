import itertools
import math
import random

import numpy as np
import pytest

import idealdensity as idd
from idealdensity.errors import (
    BoundTooSmall,
    EmptySet,
    FieldMismatch,
    TooLarge,
)
from idealdensity.ideals import (
    enumeration_norm_counts,
    gaussian_lattice_H,
    gaussian_lattice_counts,
    ideals_of_norm,
    pairwise_sum,
    run_starts,
)


def p2(Qi):
    return idd.primes_up_to_norm(Qi, 2)[0]


class TestArithmetic:
    def test_multiply_integers(self, Q):
        a, b = idd.integer_ideal(Q, 4), idd.integer_ideal(Q, 6)
        assert idd.multiply(a, b) == idd.integer_ideal(Q, 24)

    def test_unit_identity(self, Q):
        a = idd.integer_ideal(Q, 42)
        assert idd.multiply(a, idd.unit_ideal(Q)) == a

    def test_multiply_gaussian(self, Qi):
        pr = p2(Qi)
        sq = idd.multiply(idd.make_ideal(Qi, [(pr, 1)]), idd.make_ideal(Qi, [(pr, 1)]))
        assert sq.norm == 4

    def test_field_mismatch(self, Q, Qi):
        with pytest.raises(FieldMismatch):
            idd.multiply(idd.unit_ideal(Q), idd.unit_ideal(Qi))

    def test_intersect(self, Q):
        ideals = [idd.integer_ideal(Q, 4), idd.integer_ideal(Q, 6)]
        assert idd.intersect(ideals) == idd.integer_ideal(Q, 12)
        assert idd.intersect([ideals[0]]) == ideals[0]
        coprime = [idd.integer_ideal(Q, n) for n in (2, 3, 5)]
        assert idd.intersect(coprime) == idd.integer_ideal(Q, 30)
        with pytest.raises(EmptySet):
            idd.intersect([])

    def test_gcd(self, Q):
        g = idd.gcd(idd.integer_ideal(Q, 4), idd.integer_ideal(Q, 6))
        assert g == idd.integer_ideal(Q, 2)
        assert idd.gcd(idd.integer_ideal(Q, 8), idd.integer_ideal(Q, 12)) == \
            idd.integer_ideal(Q, 4)
        a = idd.integer_ideal(Q, 9)
        assert idd.gcd(a, idd.unit_ideal(Q)) == idd.unit_ideal(Q)

    def test_divides(self, Q):
        assert idd.divides(idd.integer_ideal(Q, 2), idd.integer_ideal(Q, 6))
        assert not idd.divides(idd.integer_ideal(Q, 4), idd.integer_ideal(Q, 6))
        assert idd.divides(idd.unit_ideal(Q), idd.integer_ideal(Q, 97))

    @pytest.mark.parametrize("field_name,bound", [
        ("Q", 60), ("Qi", 40), ("Q(sqrt -5)", 40), ("Q(sqrt 5)", 40)])
    def test_gcd_lcm_norm_identity(self, field_name, bound):
        K = idd.parse_field("Q(sqrt -1)" if field_name == "Qi" else field_name)
        ideals = idd.enumerate_ideals(K, bound)
        for a, b in itertools.combinations_with_replacement(ideals, 2):
            g = idd.gcd(a, b)
            m = idd.intersect([a, b])
            assert g.norm * m.norm == a.norm * b.norm

    @pytest.mark.parametrize("field_name",
                             ["Q", "Qi", "Q(sqrt -5)", "Q(sqrt 5)"])
    def test_divides_iff_quotient_exists(self, field_name):
        K = idd.parse_field("Q(sqrt -1)" if field_name == "Qi" else field_name)
        ideals = idd.enumerate_ideals(K, 30)
        for a, b in itertools.product(ideals, repeat=2):
            if idd.divides(a, b):
                exps = dict(b.factors)
                for pr, e in a.factors:
                    exps[pr] -= e
                c = idd.make_ideal(K, exps.items())
                assert idd.multiply(a, c) == b
            else:
                assert not any(idd.multiply(a, c) == b for c in ideals
                               if c.norm * a.norm <= 30)

    def test_norm_multiplicativity(self, Qi):
        rng = random.Random(7)
        ideals = idd.enumerate_ideals(Qi, 100)
        for _ in range(300):
            a, b = rng.choice(ideals), rng.choice(ideals)
            assert idd.multiply(a, b).norm == a.norm * b.norm


class TestEnumeration:
    def test_gaussian_norm_multiset(self, Qi):
        ideals = idd.enumerate_ideals(Qi, 10)
        # lattice oracle: 36 nonzero Gaussian integers of norm <= 10, 4 units
        assert len(ideals) == 9
        assert sorted(i.norm for i in ideals) == [1, 2, 4, 5, 5, 8, 9, 10, 10]

    def test_norm_order(self, Qi):
        ideals = idd.enumerate_ideals(Qi, 200)
        norms = [i.norm for i in ideals]
        assert norms == sorted(norms)

    def test_bound_one(self, Qi):
        assert idd.enumerate_ideals(Qi, 1) == [idd.unit_ideal(Qi)]

    def test_rational(self, Q):
        ideals = idd.enumerate_ideals(Q, 10)
        assert [i.norm for i in ideals] == list(range(1, 11))
        assert ideals == [idd.integer_ideal(Q, n) for n in range(1, 11)]

    def test_deterministic(self, Qi):
        assert idd.enumerate_ideals(Qi, 50) == idd.enumerate_ideals(Qi, 50)


class TestIdealsOfNorm:
    @pytest.mark.parametrize("m", [1, -1, 5, -5])
    def test_match_enumeration(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        X = 600
        by_norm = {n: [] for n in range(1, X + 1)}
        for ideal in idd.enumerate_ideals(K, X):
            by_norm[ideal.norm].append(ideal)
        for n, ideals in by_norm.items():
            assert ideals_of_norm(K, n) == ideals

    def test_validation(self, Qi):
        with pytest.raises(ValueError):
            ideals_of_norm(Qi, 0)


class TestNormCounter:
    def test_gaussian_values(self, Qi):
        c = idd.count_ideals(Qi, 100)
        assert c.H_of(10) == 9
        assert c.h_of(5) == 2      # split prime: exponent pairs (1,0),(0,1)
        assert c.h_of(3) == 0
        assert c.h_of(25) == 3     # (2,0),(1,1),(0,2)

    def test_rational_floor(self, Q):
        c = idd.count_ideals(Q, 1000)
        assert all(c.H_of(x) == x for x in range(1, 1001))

    @pytest.mark.parametrize("field_name", ["Q", "Qi"])
    def test_sieve_matches_enumeration(self, field_name, Q, Qi):
        K = Q if field_name == "Q" else Qi
        X = 10**4
        c = idd.count_ideals(K, X)
        assert (c.h == enumeration_norm_counts(K, X)).all()

    def test_h_multiplicative(self, Qi):
        c = idd.count_ideals(Qi, 10**4)
        rng = random.Random(11)
        for _ in range(500):
            m = rng.randint(1, 100)
            n = rng.randint(1, 100)
            if math.gcd(m, n) == 1:
                assert c.h_of(m * n) == c.h_of(m) * c.h_of(n)

    def test_h_invariants(self, Qi):
        c = idd.count_ideals(Qi, 1000)
        assert c.h_of(1) == 1
        assert (c.h >= 0).all()
        assert (np.diff(c.H) >= 0).all()

    def test_gaussian_lattice_oracle(self, Qi):
        c = idd.count_ideals(Qi, 2000)
        assert (gaussian_lattice_counts(2000) == c.h).all()
        assert gaussian_lattice_H(2000) == c.H_of(2000)

    def test_rational_counts_need_no_primes(self, Q, monkeypatch):
        def no_primes(K, X):
            raise AssertionError("prime norms read over Q")

        monkeypatch.setattr(idd.ideals, "prime_norm_array", no_primes)
        c = idd.ideals.count_ideals.__wrapped__(Q, 10**5)
        assert np.array_equal(c.H, np.arange(10**5 + 1))
        assert c.H.dtype == np.int64


class TestPairwiseSum:
    """``pairwise_sum`` adds pieces as ``np.add.reduce`` adds one array."""

    LENGTHS = [*range(1, 300), (1 << 16) - 1, 1 << 16, (1 << 16) + 1,
               10**6, 1234567]

    @staticmethod
    def _check(n, rng):
        a = rng.random(n) ** -2.0       # magnitudes over ~12 decades
        got = pairwise_sum(lambda i, j: a[i:j].copy(), n)
        assert got.hex() == float(np.add.reduce(a)).hex()

    def test_equals_add_reduce(self):
        rng = np.random.default_rng(2024)
        for n in self.LENGTHS:
            self._check(n, rng)

    @pytest.mark.parametrize("leaf", [128, 136, 1000, 1 << 12])
    def test_equals_add_reduce_at_small_leaves(self, leaf, monkeypatch):
        # The split is numpy's at every level, so any leaf size of at
        # least 128 terms gives the same tree.
        monkeypatch.setattr(idd.ideals, "_L_BLOCK", leaf)
        rng = np.random.default_rng(leaf)
        for n in [*range(leaf - 9, leaf + 10), 3 * leaf + 5, 10**5]:
            self._check(n, rng)

    def test_pieces_stay_small(self):
        sizes = []

        def terms(i, j):
            sizes.append(j - i)
            return np.ones(j - i)

        assert pairwise_sum(terms, 10**6) == 10**6
        assert sum(sizes) == 10**6 and max(sizes) <= 1 << 16


class TestPointCounts:
    """H at a few points comes from ``ideal_count``, never from a sieve."""

    @pytest.fixture
    def no_sieve(self, monkeypatch):
        def refuse(K, X):
            raise AssertionError("sieve built for a point count")

        monkeypatch.setattr(idd.ideals, "count_ideals", refuse)

    def test_rational_is_x(self, Q):
        assert idd.ideal_counts(Q, [0, 1, 7, 10**15]) == [0, 1, 7, 10**15]
        assert idd.ideal_count(Q, 10**15) == 10**15

    def test_point_callers_build_no_counter(self, Q, Qi, no_sieve):
        a = idd.make_ideal(Qi, [(p2(Qi), 1)])
        assert idd.multiples_count(a, 10) == 5
        assert idd.multiples_count(a, 10**12) == gaussian_lattice_H(
            10**12 // 2)
        c_hat, _ = idd.estimate_residue_constant(Qi, 10**5)
        assert c_hat == gaussian_lattice_H(10**5) / 10**5

    def test_beyond_int64_reach_raises(self, Qi):
        with pytest.raises(TooLarge):
            idd.ideal_count(Qi, 2**62)


def test_run_starts_is_unique_on_the_sample_grids():
    # The grids of fields.sample_grid from 1 (cli) and from 10 (density),
    # dedekind_zeta and estimate_residue_constant.
    for X in [*range(2, 400), 10**4, 3 * 10**5, 10**6, 10**12]:
        for grid in (np.rint(np.geomspace(1, X, 30)),
                     np.rint(np.geomspace(min(10, X), X, 24)),
                     np.geomspace(max(1, X // 10), X, 32),
                     np.geomspace(max(1, X // 10), X, 20)):
            xs = grid.astype(np.int64)
            assert np.array_equal(xs[run_starts(xs)], np.unique(xs))


class TestStoredCounts:
    """NormCounter keeps H only; h is derived and L is built on first read."""

    @pytest.mark.parametrize("m", [1, -1, 5, -5, 13])
    def test_h_equals_enumeration(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        c = idd.ideals.count_ideals.__wrapped__(K, 3000)
        assert np.array_equal(c.h, enumeration_norm_counts(K, 3000))
        assert np.array_equal(c.H, np.cumsum(c.h))

    @pytest.mark.parametrize("m", [1, -1, 5])
    def test_L_is_the_ascending_harmonic_prefix(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        X = 20000           # more than one block of the L build
        c = idd.ideals.count_ideals.__wrapped__(K, X)
        h = c.h.tolist()
        expected = list(itertools.accumulate(
            (h[k] / k for k in range(1, X + 1)), initial=0.0))
        assert c.L.tolist() == expected

    def test_L_is_built_on_first_read(self, Qi):
        c = idd.ideals.count_ideals.__wrapped__(Qi, 1000)
        assert "L" not in vars(c)
        assert c.h[1] == 1
        assert "L" not in vars(c)
        L = c.L
        assert vars(c)["L"] is L and c.L is L


class TestMultiplesCount:
    def test_rational(self, Q):
        assert idd.multiples_count(idd.integer_ideal(Q, 3), 10) == 3
        assert idd.multiples_count(idd.unit_ideal(Q), 10) == 10

    def test_gaussian(self, Qi):
        # multiples of the ramified prime of norm 2 up to norm 10:
        # norms 2,4,8,10,10 -> H(5) = 5 (lattice count: ideals of norm
        # 1,2,4,5,5)
        assert idd.multiples_count(idd.make_ideal(Qi, [(p2(Qi), 1)]), 10) == 5
        assert gaussian_lattice_H(5) == 5

    @pytest.mark.parametrize("field_name", ["Q", "Qi"])
    def test_matches_filtered_enumeration(self, field_name, Q, Qi):
        K = Q if field_name == "Q" else Qi
        X = 1000
        all_ideals = idd.enumerate_ideals(K, X)
        counter = idd.count_ideals(K, X)
        for a in idd.enumerate_ideals(K, 30):
            direct = sum(1 for b in all_ideals if idd.divides(a, b))
            assert idd.multiples_count(a, X, counter) == direct


class TestResidueConstant:
    def test_rational_exact(self, Q):
        c_hat, band = idd.estimate_residue_constant(Q, 10**4)
        assert c_hat == 1.0
        assert band >= 0.0

    def test_gaussian(self, Qi):
        c_hat, band = idd.estimate_residue_constant(Qi, 10**5)
        assert abs(c_hat - math.pi / 4) / (math.pi / 4) < 0.005

    def test_bound_too_small(self, Q):
        with pytest.raises(BoundTooSmall):
            idd.estimate_residue_constant(Q, 50)
