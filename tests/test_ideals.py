import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import idealdensity as idd
from idealdensity.errors import (
    EmptySet,
    FieldMismatch,
    TooLarge,
)
from idealdensity.fields import factorint, prime_norm_array, run_starts
from idealdensity.ideals import (
    _HYPERBOLA_LIMIT,
    _L_BLOCK,
    gaussian_lattice_H,
    ideals_of_norm,
    pairwise_sum,
)

from conftest import (enumeration_norm_counts, full_H_and_L,
                      gaussian_lattice_counts, gcd, int_family, multiply,
                      traced_bytes, unit_ideal)


def p2(Qi):
    return idd.primes_up_to_norm(Qi, 2)[0]


#: The edges of the first two blocks of the sums over norms.
B = _L_BLOCK
BLOCK_EDGES = [B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1]


def test_block_constants_meet_their_conditions():
    # ``pairwise_sum`` keeps numpy's tree only at leaves of >= 128 terms;
    # a block of the hyperbola sums stays in int64.
    assert _L_BLOCK >= 128
    assert _HYPERBOLA_LIMIT * (1 + math.log(_L_BLOCK)) < 2**63


class TestArithmetic:
    def test_multiply_integers(self, Q):
        a, b = idd.integer_ideal(Q, 4), idd.integer_ideal(Q, 6)
        assert multiply(a, b) == idd.integer_ideal(Q, 24)

    def test_unit_identity(self, Q):
        a = idd.integer_ideal(Q, 42)
        assert multiply(a, unit_ideal(Q)) == a

    def test_multiply_gaussian(self, Qi):
        pr = p2(Qi)
        sq = multiply(idd.make_ideal(Qi, [(pr, 1)]), idd.make_ideal(Qi, [(pr, 1)]))
        assert sq.norm == 4

    def test_field_mismatch(self, Q, Qi):
        with pytest.raises(FieldMismatch):
            multiply(unit_ideal(Q), unit_ideal(Qi))

    def test_intersect(self, Q):
        ideals = [idd.integer_ideal(Q, 4), idd.integer_ideal(Q, 6)]
        assert idd.intersect(ideals) == idd.integer_ideal(Q, 12)
        assert idd.intersect([ideals[0]]) == ideals[0]
        coprime = [idd.integer_ideal(Q, n) for n in (2, 3, 5)]
        assert idd.intersect(coprime) == idd.integer_ideal(Q, 30)
        with pytest.raises(EmptySet):
            idd.intersect([])

    def test_gcd(self, Q):
        g = gcd(idd.integer_ideal(Q, 4), idd.integer_ideal(Q, 6))
        assert g == idd.integer_ideal(Q, 2)
        assert gcd(idd.integer_ideal(Q, 8), idd.integer_ideal(Q, 12)) == \
            idd.integer_ideal(Q, 4)
        a = idd.integer_ideal(Q, 9)
        assert gcd(a, unit_ideal(Q)) == unit_ideal(Q)

    def test_divides(self, Q):
        assert idd.divides(idd.integer_ideal(Q, 2), idd.integer_ideal(Q, 6))
        assert not idd.divides(idd.integer_ideal(Q, 4), idd.integer_ideal(Q, 6))
        assert idd.divides(unit_ideal(Q), idd.integer_ideal(Q, 97))

    @pytest.mark.parametrize("field_name,bound", [
        ("Q", 60), ("Qi", 40), ("Q(sqrt -5)", 40), ("Q(sqrt 5)", 40)])
    def test_gcd_lcm_norm_identity(self, field_name, bound):
        K = idd.parse_field("Q(sqrt -1)" if field_name == "Qi" else field_name)
        ideals = idd.enumerate_ideals(K, bound)
        for a, b in itertools.combinations_with_replacement(ideals, 2):
            g = gcd(a, b)
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
                assert multiply(a, c) == b
            else:
                assert not any(multiply(a, c) == b for c in ideals
                               if c.norm * a.norm <= 30)

    def test_norm_multiplicativity(self, Qi):
        rng = random.Random(7)
        ideals = idd.enumerate_ideals(Qi, 100)
        for _ in range(300):
            a, b = rng.choice(ideals), rng.choice(ideals)
            assert multiply(a, b).norm == a.norm * b.norm


    def test_repeated_prime_rejected(self, Qi):
        # ((P, 1), (P, 1)) would claim norm 4 for P of norm 2 and make
        # P*P look like a multiple of P^2.
        P = idd.primes_up_to_norm(Qi, 2)[0]
        with pytest.raises(ValueError, match="repeated prime ideal"):
            idd.make_ideal(Qi, [(P, 1), (P, 1)])
        with pytest.raises(ValueError, match="negative exponent"):
            idd.make_ideal(Qi, [(P, -1)])
        assert idd.make_ideal(Qi, [(P, 2)]).norm == 4

    def test_integer_ideal_only_over_q(self, Qi):
        with pytest.raises(FieldMismatch, match="only defined over Q"):
            idd.integer_ideal(Qi, 6)


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
        assert idd.enumerate_ideals(Qi, 1) == [unit_ideal(Qi)]

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
        assert c.h[5] == 2      # split prime: exponent pairs (1,0),(0,1)
        assert c.h[3] == 0
        assert c.h[25] == 3     # (2,0),(1,1),(0,2)

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
        h = idd.count_ideals(Qi, 10**4).h.tolist()
        rng = random.Random(11)
        for _ in range(500):
            m = rng.randint(1, 100)
            n = rng.randint(1, 100)
            if math.gcd(m, n) == 1:
                assert h[m * n] == h[m] * h[n]

    def test_h_invariants(self, Qi):
        c = idd.count_ideals(Qi, 1000)
        assert c.h[1] == 1
        assert (c.h >= 0).all()
        assert (np.diff(full_H_and_L(c)[0]) >= 0).all()

    def test_gaussian_lattice_oracle(self, Qi):
        c = idd.count_ideals(Qi, 2000)
        assert (gaussian_lattice_counts(2000) == c.h).all()
        assert gaussian_lattice_H(2000) == c.H_of(2000)

    def test_rational_counts_are_the_series_of_zeta(self, Q):
        # The euler_series of the rational primes, each with the local
        # factor 1/(1 - p^-s), is zeta's: every n >= 1 counts once.
        for X in (10**3, 10**6):
            c = idd.ideals.count_ideals.__wrapped__(Q, X)
            assert c.h[0] == 0 and (c.h[1:] == 1).all()
            assert np.array_equal(full_H_and_L(c)[0], np.arange(X + 1))


class TestPairwiseSum:
    """``pairwise_sum`` adds pieces as ``np.add.reduce`` adds one array."""

    LENGTHS = [*range(1, 300), *BLOCK_EDGES, 10**6, 1234567]

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
        assert sum(sizes) == 10**6 and max(sizes) <= _L_BLOCK


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
        assert idd.ideal_count(Qi, 10 // a.norm) == 5
        assert idd.ideal_count(Qi, 10**12 // a.norm) == gaussian_lattice_H(
            10**12 // 2)
        assert idd.ideal_counts(Qi, [10**4, 10**5]) == [
            gaussian_lattice_H(10**4), gaussian_lattice_H(10**5)]

    def test_beyond_int64_reach_raises(self, Qi):
        with pytest.raises(TooLarge):
            idd.ideal_count(Qi, 2**62)

    def test_chi_table_past_its_bound_raises(self, monkeypatch):
        # |D| = 40028: a table of 10^4 entries is built, and one of |D|
        # entries, for x = 10^6, is refused before any prime is sieved.
        monkeypatch.setattr(idd.fields, "_CHI_TABLE_LIMIT", 10**4)
        K = idd.make_quadratic_field(10007)
        assert idd.ideal_counts(K, [9999]) == [
            idd.count_ideals(K, 9999).H_of(9999)]
        monkeypatch.setattr(idd.fields, "rational_primes_up_to", None)
        with pytest.raises(TooLarge, match="40028"):
            idd.ideal_counts(K, [10**6])

    def test_chi_table_is_not_kept(self):
        # |D| = 4000012: a table of |D| entries and its prefix sums, about
        # 20 MB, are dropped on return.
        K = idd.make_quadratic_field(1000003)
        held, _ = traced_bytes(idd.ideal_counts, K, [10**9])
        assert held < 10**5


def test_run_starts_is_unique_on_the_sample_grids():
    # The grids of fields.sample_grid from 1 (cli) and from 10 (density),
    # and of dedekind_zeta.
    for X in [*range(2, 400), 10**4, 3 * 10**5, 10**6, 10**12]:
        for grid in (np.rint(np.geomspace(1, X, 30)),
                     np.rint(np.geomspace(min(10, X), X, 24)),
                     np.geomspace(max(1, X // 10), X, 32)):
            xs = grid.astype(np.int64)
            assert np.array_equal(xs[run_starts(xs)], np.unique(xs))


class TestStoredCounts:
    """NormCounter keeps h in a small integer type and H and L at every
    ``_STRIDE``-th norm; its reads equal the full prefix sums."""

    @pytest.mark.parametrize("m", [1, -1, 5, -5, 13])
    def test_h_equals_enumeration(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        c = idd.ideals.count_ideals.__wrapped__(K, 3000)
        assert np.array_equal(c.h, enumeration_norm_counts(K, 3000))
        assert np.array_equal(full_H_and_L(c)[0], np.cumsum(c.h))

    @pytest.mark.parametrize("m", [1, -1, 5])
    def test_L_is_the_ascending_harmonic_prefix(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        X = 20000           # more than one block of the L build
        c = idd.ideals.count_ideals.__wrapped__(K, X)
        h = c.h.tolist()
        expected = list(itertools.accumulate(
            (h[k] / k for k in range(1, X + 1)), initial=0.0))
        assert c.sums_at(np.arange(X + 1))[1].tolist() == expected

    @pytest.mark.parametrize("m", [1, -1, 5, -5])
    @pytest.mark.parametrize("X", [1, 2, 31, 32, 33, *BLOCK_EDGES, 70000])
    def test_reads_equal_the_full_prefix_sums(self, m, X):
        # Every y <= X: before, on and after the checkpoints, the block
        # edges of the checkpoint pass and the read's clip at X.
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        c = idd.ideals.count_ideals.__wrapped__(K, X)
        h = c.h.tolist()
        H = np.cumsum(c.h, dtype=np.int64)
        L = list(itertools.accumulate(
            (h[k] / k for k in range(1, X + 1)), initial=0.0))
        ys = np.arange(X + 1)
        assert [a.tolist() for a in c.sums_at(ys)] == [H.tolist(), L]
        assert c.sums_at(ys[::-1])[1].tolist() == L[::-1]
        assert [c.H_of(y) for y in (-1, 0, X // 2, X)] == [
            0, 0, H[X // 2], H[X]]
        with pytest.raises(ValueError):
            c.H_of(X + 1)

    @pytest.mark.parametrize("m,X", [
        (1, 128), (1, 159), (1, 32768), (1, 32799),
        (13, 192), (13, 223), (-7, 27584), (-7, 27615)])
    def test_checkpoints_at_the_edges_of_their_integer_type(self, m, X):
        # The last checkpoint is 2^7 or 2^15: the first value past int8 or
        # int16.
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        c = idd.ideals.count_ideals.__wrapped__(K, X)
        H = np.cumsum(c.h, dtype=np.int64)
        assert c.H_checkpoints[-1] == H[X // 32 * 32] in (1 << 7, 1 << 15)
        h = c.h.tolist()
        L = list(itertools.accumulate(
            (h[k] / k for k in range(1, X + 1)), initial=0.0))
        H_read, L_read = c.sums_at(np.arange(X + 1))
        assert H_read.tolist() == H.tolist() and L_read.tolist() == L
        assert [c.H_of(y) for y in range(X - 40, X + 1)] == H[-41:].tolist()
        assert idd.ideal_count(K, X) == H[X]

    @pytest.mark.parametrize("X,dtype", [(4095, np.int8), (4096, np.int16)])
    def test_counts_at_the_edges_of_their_integer_type(self, Qi, X, dtype):
        # 2 isqrt(X) = 128 is the first bound past int8.
        c = idd.ideals.count_ideals.__wrapped__(Qi, X)
        assert c.h.dtype == dtype
        assert np.array_equal(c.h, enumeration_norm_counts(Qi, X))
        assert c.sums_at(np.arange(X + 1))[0].tolist() == np.cumsum(
            enumeration_norm_counts(Qi, X)).tolist()

    def test_a_counter_equals_only_itself(self, Qi):
        # ndarray fields: a counter compares and hashes by identity.
        c = idd.count_ideals(Qi, 100)
        twin = idd.ideals.count_ideals.__wrapped__(Qi, 100)
        assert np.array_equal(c.h, twin.h)
        assert c == c and hash(c) == hash(c) == hash(idd.count_ideals(Qi, 100))
        assert c != twin and len({c, twin}) == 2

    def test_no_held_array_is_wider_than_2_bytes_per_norm(self, Qi):
        for X in (1000, 10**4, 10**5):
            c = idd.ideals.count_ideals.__wrapped__(Qi, X)
            held = {name: a for name, a in vars(c).items()
                    if isinstance(a, np.ndarray)}
            assert set(held) == {"h", "H_checkpoints", "L_checkpoints"}
            assert all(a.nbytes <= 2 * (X + 1) for a in held.values())
            H, L = c.sums_at([X])
            assert H[0] == full_H_and_L(c)[0][X] and L[0] > 0
            assert vars(c).keys() == held.keys()  # nothing cached
            assert not any(a.flags.writeable for a in held.values())

    def test_uncached_gaussian_counter_retains_under_2_5_bytes_per_norm(
            self, Qi):
        # A cold call through the cache retains all that the layers keep:
        # h in int16 (2 bytes per norm), H in int32 and L in float64 at
        # every 32nd norm, and no prime norms: measured 2.38 * X, the bound
        # 1.05 times that.
        X = 10**6
        idd.ideals.count_ideals.cache_clear()   # a miss that evicts nothing
        tracemalloc.start()
        try:
            c = idd.ideals.count_ideals(Qi, X)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert c.H_of(X) == gaussian_lattice_H(X)
        assert retained < 2.5 * X


class TestMultiplesCount:
    """The multiples of a of norm <= X number H(X // N(a)): dividing out a
    is a bijection that divides norms by N(a)."""

    def test_rational(self, Q):
        assert idd.ideal_count(Q, 10 // 3) == 3
        assert idd.ideal_count(Q, 10) == 10

    def test_gaussian(self, Qi):
        # multiples of the ramified prime of norm 2 up to norm 10:
        # norms 2,4,8,10,10 -> H(5) = 5 (lattice count: ideals of norm
        # 1,2,4,5,5)
        assert idd.ideal_count(Qi, 10 // p2(Qi).norm) == 5
        assert gaussian_lattice_H(5) == 5

    @pytest.mark.parametrize("field_name",
                             ["Q", "Qi", "Q(sqrt 5)", "Q(sqrt -5)"])
    def test_matches_filtered_enumeration(self, field_name):
        K = idd.parse_field("Q(sqrt -1)" if field_name == "Qi" else field_name)
        X = 1000
        all_ideals = idd.enumerate_ideals(K, X)
        for a in idd.enumerate_ideals(K, 30):
            direct = sum(1 for b in all_ideals if idd.divides(a, b))
            assert idd.ideal_count(K, X // a.norm) == direct


@pytest.mark.parametrize("call, message", [
    (lambda Q, Qi: idd.sieve_multiples_density(int_family(Q, 2), 0),
     "X must be >= 1"),
    (lambda Q, Qi: idd.restrict_family(int_family(Q, 2), -1),
     "k must be >= 0"),
    (lambda Q, Qi: idd.density_profile(int_family(Q, 2), 1000, n_samples=1),
     "n_samples must be >= 2"),
    (lambda Q, Qi: idd.harmonic_ideal_sum(Qi, 0), "x must be >= 1"),
    (lambda Q, Qi: idd.dedekind_zeta(Qi, 2.0, 5), "X must be >= 10"),
    (lambda Q, Qi: idd.count_ideals(Qi, 0), "X must be >= 1"),
    (lambda Q, Qi: prime_norm_array(Qi, 0), "X must be >= 1"),
    (lambda Q, Qi: idd.enumerate_ideals(Qi, 0), "X must be >= 1"),
    (lambda Q, Qi: factorint(0), "n must be a positive integer"),
], ids=["sieve_multiples_density", "restrict_family", "density_profile",
        "harmonic_ideal_sum", "dedekind_zeta", "count_ideals",
        "prime_norm_array", "enumerate_ideals", "factorint"])
def test_bounds_below_their_minimum_are_refused(Q, Qi, call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call(Q, Qi)
