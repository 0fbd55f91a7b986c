import inspect
import math
import random
import sys
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from sympy import primerange

import idealdensity as idd
from idealdensity import density
from idealdensity.density import _member_sums
from idealdensity.errors import DuplicateMembers, TooLarge
from idealdensity.fields import sample_grid
from idealdensity.ideals import (
    _L_BLOCK,
    marked_sums,
    rational_harmonic_prefix,
)

from conftest import (full_H_and_L, int_family, is_multiple, peak_bytes,
                      rankin_tail_bound, unit_ideal)

#: Bounds around the edges of the blocks that running sums are added in.
B = _L_BLOCK
BLOCK_EDGE_XS = (B - 1, B, B + 1, 2 * B - 1, 2 * B, 2 * B + 1, 4 * B + 1)


def edge_points(X, extra=()):
    """Ascending sample points <= X: the block edges, extra, and X."""
    edges = {1, 2, B - 1, B, B + 1, 2 * B, 2 * B + 1, *extra}
    return np.array(sorted({x for x in edges if x <= X} | {X}))


def brute_density(*moduli):
    """Exact density of integers divisible by some modulus, by direct count
    over one full period."""
    period = math.lcm(*moduli)
    hits = sum(1 for n in range(1, period + 1)
               if any(n % m == 0 for m in moduli))
    return Fraction(hits, period)


class TestFiniteIEDensity:
    @pytest.mark.parametrize("moduli", [(2,), (2, 3), (4, 6), (2, 3, 5),
                                        (6, 10, 15), (4, 9, 25, 8)])
    def test_matches_period_count(self, Q, moduli):
        fam = int_family(Q, *moduli)
        assert idd.finite_ie_density(fam) == brute_density(*moduli)

    def test_empty(self, Q):
        assert idd.finite_ie_density(int_family(Q)) == 0

    def test_unit_member(self, Q):
        assert idd.finite_ie_density(idd.ExplicitFamily(
            field=Q, members=(unit_ideal(Q),))) == 1

    def test_gaussian_split_pair(self, Qi):
        # the two primes above 5 are distinct, each of density 1/5
        pr1, pr2 = idd.primes_up_to_norm(Qi, 5)[1:]
        fam = idd.ExplicitFamily(field=Qi, members=(
            idd.make_ideal(Qi, [(pr1, 1)]), idd.make_ideal(Qi, [(pr2, 1)])))
        assert idd.finite_ie_density(fam) == Fraction(9, 25)

    def test_gaussian_sieve_agreement(self, Qi):
        pr2 = idd.primes_up_to_norm(Qi, 2)[0]
        pr5 = idd.primes_up_to_norm(Qi, 5)[1]
        fam = idd.ExplicitFamily(field=Qi, members=(
            idd.make_ideal(Qi, [(pr2, 1), (pr5, 1)]),
            idd.make_ideal(Qi, [(pr5, 2)])))
        exact = idd.finite_ie_density(fam)
        X = 10**5
        assert abs(float(idd.sieve_multiples_density(fam, X) - exact)) < 5e-3

    def test_duplicates_rejected(self, Q):
        with pytest.raises(DuplicateMembers):
            idd.finite_ie_density(int_family(Q, 6, 6))

    @pytest.mark.parametrize("doc", [
        {"field": "Q", "kind": "explicit", "members": [2, 2]},
        {"field": "Q(sqrt -1)", "kind": "explicit",
         "members": [[[5, 0, 1]], [[5, 0, 1]]]},
    ])
    def test_counting_paths_refuse_what_the_exact_path_refuses(self, doc):
        # A repeat is refused, not read as the smaller set {2} (density 1/2
        # at X = 100) or {P} over Q(i) (17/79): no path gets the family.
        for measure in (lambda A: idd.density_profile(A, X=100),
                        lambda A: idd.sieve_multiples_density(A, 100),
                        idd.finite_ie_density):
            with pytest.raises(DuplicateMembers):
                measure(idd.parse_family(doc))

    def test_entangled_cap(self, Q):
        # 21 members all sharing the prime 2 form one block, more than the
        # 20 that inclusion-exclusion over subsets once took: n is a
        # multiple exactly when 2 | n and some odd p | n.
        odd = list(primerange(3, 200))[:21]
        assert idd.finite_ie_density(int_family(Q, *(2 * p for p in odd))) \
            == Fraction(1, 2) * (1 - math.prod(Fraction(p - 1, p) for p in odd))

    def test_coprime_blocks_beyond_cap(self, Q):
        # 30 pairwise coprime members factor into singleton blocks
        d = idd.finite_ie_density(int_family(Q, *primerange(2, 114)))
        expected = 1 - math.prod(
            Fraction(p - 1, p) for p in primerange(2, 114))
        assert d == expected

    def test_recursion_past_the_limit_is_refused(self, Q):
        # The path p_i p_(i+1) on the first 201 primes is one entangled
        # block whose slices nest more than 60 calls deep; under the
        # default limit it has an exact density in well under a second.
        primes = list(primerange(2, 1300))[:201]
        fam = int_family(Q, *(p * q for p, q in zip(primes, primes[1:])))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 60)
        try:
            with pytest.raises(TooLarge, match="recursion limit"):
                idd.finite_ie_density(fam)
        finally:
            sys.setrecursionlimit(limit)

    def test_minimality_applied(self, Q):
        assert idd.finite_ie_density(int_family(Q, 2, 4, 8)) == Fraction(1, 2)

    @pytest.mark.parametrize("truncation", [10**40, 10**60])
    def test_primes_past_int64_are_refused(self, truncation):
        # Its members are the squares of the primes up to 10^20 or 10^30.
        fam = idd.parse_family({"field": "Q", "kind": "prime_powers", "l": 2,
                                "truncation": truncation})
        with pytest.raises(TooLarge, match="int64"):
            idd.finite_ie_density(fam)

    def test_wide_interval_family_is_refused_before_its_list(self, Qi,
                                                            monkeypatch):
        # Its 157061 members were once all listed (12 s) before the
        # refusal: the 39276 of norm in (10^5, 200001] that the prime
        # above 2 divides share one block.
        def refuse(self, bound):
            raise AssertionError("members listed")

        monkeypatch.setattr(idd.NormIntervalFamily, "members_up_to", refuse)
        fam = idd.NormIntervalFamily(field=Qi, intervals=((100000, 300000),))
        start = time.perf_counter()
        with pytest.raises(TooLarge, match="share a prime ideal of norm 2"):
            idd.finite_ie_density(fam)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("m", [1, -1, 5, -5])
    def test_early_refusal_only_where_the_full_path_refuses(self, m,
                                                           monkeypatch):
        # With a work limit of 3000, 74 of these 80 families are refused,
        # 45 by the check before the list.  Each of those is refused by the
        # full path too, which runs when H is out of reach.
        def out_of_reach(K, xs):
            raise TooLarge("H out of reach")

        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        monkeypatch.setattr(density, "WORK_LIMIT", 3000)
        rng = random.Random(m)
        early = 0
        for _ in range(20):
            lo = rng.randint(1, 1500)
            intervals = [(lo, lo + rng.randint(1, 1500))]
            if rng.random() < 0.5:
                a = rng.randint(lo, 3000)
                intervals.append((a, a + rng.randint(1, 500)))
            fam = idd.NormIntervalFamily(field=K, intervals=tuple(intervals),
                                         truncation=rng.randint(lo, 4000))
            try:
                idd.finite_ie_density(fam)
            except TooLarge as exc:
                if "share a prime ideal" not in str(exc):
                    continue
                early += 1
                with monkeypatch.context() as patch:
                    patch.setattr(density, "ideal_counts", out_of_reach)
                    with pytest.raises(TooLarge, match="entangled"):
                        idd.finite_ie_density(fam)
        assert early


class TestALimit:
    def test_explicit_values(self, Q):
        fam = int_family(Q, 4, 6, 9)
        assert idd.a_limit(fam, 3) == [
            Fraction(1, 4), Fraction(1, 3), Fraction(7, 18)]
        # oracle for the third value over a full period
        assert brute_density(4, 6, 9) == Fraction(7, 18)

    def test_squarefull_prefix(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=2)
        assert idd.a_limit(fam, 3) == [
            Fraction(1, 4), Fraction(1, 3), Fraction(9, 25)]
        # brute oracle: integers up to 900 divisible by 4, 9 or 25
        assert brute_density(4, 9, 25) == Fraction(9, 25)

    def test_nondecreasing(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=2)
        seq = idd.a_limit(fam, 12)
        assert all(b >= a for a, b in zip(seq, seq[1:]))
        assert seq[-1] <= 1

    def test_r_max_beyond_family(self, Q):
        assert len(idd.a_limit(int_family(Q, 2, 3), 10)) == 2

    def test_validation(self, Q):
        with pytest.raises(ValueError):
            idd.a_limit(int_family(Q, 2), 0)

    def test_explicit_members_beyond_the_default_truncation(self, Q):
        # An explicit family is finite, so every member counts.
        fam = int_family(Q, 1000003)
        assert idd.a_limit(fam, 1) == [Fraction(1, 1000003)]
        assert idd.finite_ie_density(fam) == Fraction(1, 1000003)
        fam = int_family(Q, 3, 2**20)
        assert idd.restrict_family(fam, 1).members == (
            idd.integer_ideal(Q, 2**20),)
        assert idd.a_limit(fam, 2)[-1] == idd.finite_ie_density(fam)


class TestSieveDensity:
    def test_rational_exact(self, Q):
        assert idd.sieve_multiples_density(int_family(Q, 2), 1000) == \
            Fraction(500, 1000)
        assert idd.sieve_multiples_density(int_family(Q, 2, 3), 12) == \
            Fraction(8, 12)

    def test_gaussian_ramified(self, Qi):
        pr2 = idd.primes_up_to_norm(Qi, 2)[0]
        fam = idd.ExplicitFamily(
            field=Qi, members=(idd.make_ideal(Qi, [(pr2, 1)]),))
        counter = idd.count_ideals(Qi, 1000)
        got = idd.sieve_multiples_density(fam, 1000)
        assert got == Fraction(idd.ideal_count(Qi, 1000 // pr2.norm),
                               counter.H_of(1000))

    def test_matches_direct_filter(self, Qi):
        pr5 = idd.primes_up_to_norm(Qi, 5)[1]
        fam = idd.ExplicitFamily(field=Qi, members=(
            idd.make_ideal(Qi, [(pr5, 1)]),))
        X = 500
        ideals = idd.enumerate_ideals(Qi, X)
        direct = sum(1 for b in ideals if is_multiple(fam, b))
        assert idd.sieve_multiples_density(fam, X) == Fraction(direct,
                                                              len(ideals))

    def test_field_names_an_empty_member_list(self, Q, Qi):
        # An empty family has its field; so has an interval family with no
        # ideal: the only ideal norm in (2, 3] over Q(i) is 3, inert.
        assert idd.sieve_multiples_density(
            idd.ExplicitFamily(field=Qi, members=()), 100) == 0
        assert idd.sieve_multiples_density(
            idd.ExplicitFamily(field=Q, members=()), 100) == 0
        fam = idd.NormIntervalFamily(field=Qi, intervals=((2, 3),))
        assert idd.sieve_multiples_density(fam, 100) == 0

    def test_prime_power_family(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=2)
        # non-squarefree integers up to 100: 100 - 61 squarefree
        assert idd.sieve_multiples_density(fam, 100) == Fraction(39, 100)


class TestRestrictAndMultiplicative:
    def test_restrict_drops_outside_support(self, Q):
        fam = int_family(Q, 4, 6, 35)
        # first 2 primes are (2) and (3): member 35 = 5*7 is dropped
        r = idd.restrict_family(fam, 2)
        assert sorted(m.norm for m in r.members) == [4, 6]

    def test_restrict_prime_powers(self, Qi):
        fam = idd.PrimePowerFamily(field=Qi, l=2)
        r = idd.restrict_family(fam, 3)
        assert sorted(m.norm for m in r.members) == [4, 25, 25]

    @pytest.mark.parametrize("m", [1, -1, 5, -5])
    def test_restrict_intervals_match_enumeration(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        fam = idd.NormIntervalFamily(
            field=K, intervals=((3, 9), (6, 12), (40, 60), (300, 400)),
            truncation=350)
        working = fam.members_up_to(fam.truncation)
        for k in (0, 1, 2, 3, 5, 8):
            allowed = set(idd.fields.first_prime_ideals(K, k))
            expected = [b for b in working
                        if all(pr in allowed for pr, _ in b.factors)]
            assert idd.restrict_family(fam, k).members == tuple(expected)

    def test_restrict_intervals_enumerate_nothing(self, Qi, monkeypatch):
        def refuse(K, X):
            raise AssertionError("ideals enumerated")

        monkeypatch.setattr(idd.NormIntervalFamily, "members_up_to", refuse)
        fam = idd.NormIntervalFamily(field=Qi, intervals=((100000, 300000),))
        P, P1, P2 = idd.fields.first_prime_ideals(Qi, 3)
        assert (P.norm, P1.norm, P2.norm) == (2, 5, 5)
        # 2^a 5^b with 10^5 < 2^a 5^b <= 3 * 10^5: the b factors of 5
        # spread over the two primes above 5 in b + 1 ways.
        expected = sorted((a, b) for a in range(19) for b in range(9)
                          if 100000 < 2 ** a * 5 ** b <= 300000)
        members = idd.restrict_family(fam, 2).members
        assert [b.norm for b in members] == sorted(
            2 ** a * 5 ** b for a, b in expected)
        assert len(idd.restrict_family(fam, 3).members) == sum(
            b + 1 for _, b in expected)

    def test_restrict_no_intervals(self, Q):
        fam = idd.NormIntervalFamily(field=Q, intervals=())
        assert idd.restrict_family(fam, 5).members == ()
        assert idd.multiplicative_density(fam, 5).b_k == 0

    def test_b_k_nondecreasing(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=2)
        states = [idd.multiplicative_density(fam, k) for k in range(1, 9)]
        bs = [s.b_k for s in states]
        assert all(b >= a for a, b in zip(bs, bs[1:]))
        assert all(0 <= b <= 1 for b in bs)

    def test_b_k_vs_quotient_definition(self, Q):
        # B_k should match the restricted-harmonic-sum quotient: the share
        # of sum 1/N over ideals supported on the first k primes that is
        # contributed by multiples of the family
        fam = int_family(Q, 4, 6, 9)
        for k in (1, 2, 3, 4):
            state = idd.multiplicative_density(fam, k)
            restricted = idd.restrict_family(fam, k).members
            norms = [pr.norm for pr in
                     idd.fields.first_prime_ideals(Q, k)]
            bound = 10**6
            num = den = 0.0
            stack = [(0, 1)]
            while stack:
                i, n = stack.pop()
                den += 1.0 / n
                if any(n % mem.norm == 0 for mem in restricted):
                    num += 1.0 / n
                for j in range(i, len(norms)):
                    if n * norms[j] <= bound:
                        stack.append((j + 1, n * norms[j]))
                        m = n * norms[j] * norms[j]
                        while m <= bound:
                            stack.append((j + 1, m))
                            m *= norms[j]
            tail = rankin_tail_bound(norms, bound)
            pi_k = idd.partial_euler_product(Q, k=k)
            assert abs(num / den - float(state.b_k)) <= tail / pi_k + 1e-9

    def test_k_zero(self, Q):
        state = idd.multiplicative_density(int_family(Q, 2), 0)
        assert state.b_k == 0
        assert idd.partial_euler_product(Q, k=0) == 1

    def test_method_inclusion_exclusion(self, Q):
        state = idd.multiplicative_density(int_family(Q, 4, 6, 35), 2)
        assert state.b_k == idd.finite_ie_density(int_family(Q, 4, 6))

    def test_method_sieve_beyond_cap(self, Q):
        # 21 members 2p over the first 22 primes form one block, more than
        # inclusion-exclusion over subsets once took; B_k is still exact.
        odd = list(primerange(3, 80))
        fam = int_family(Q, *(2 * p for p in odd))
        state = idd.multiplicative_density(fam, 22)
        assert len(odd) == 21
        assert len(idd.restrict_family(fam, 22).members) == 21
        assert state.b_k == Fraction(1, 2) * (
            1 - math.prod(Fraction(p - 1, p) for p in odd))
        # The sieve count at X is the sum of c * floor(X / l) over the lcm
        # terms l = 2m, m squarefree over the odd primes, c = +-1, so the
        # ratio is off B_k by at most the sum of min(1/X, 1/l), which is
        # <= X^(s-1) * 2^-s * prod(1 + p^-s) for 0 < s < 1 (Rankin), and
        # so within ``rankin_tail_bound`` of the first 22 primes.
        X = idd.families.DEFAULT_TRUNCATION
        marked = np.zeros(X + 1, dtype=bool)
        for p in odd:
            marked[2 * p::2 * p] = True
        sieve = Fraction(int(marked.sum()), X)
        tail = min(X ** (s - 1) * 2 ** -s * math.prod(1 + p ** -s for p in odd)
                   for s in (0.35, 0.5, 0.65, 0.8, 0.9))
        norms = [pr.norm for pr in idd.fields.first_prime_ideals(Q, 22)]
        assert abs(float(sieve - state.b_k)) <= tail <= rankin_tail_bound(
            norms, X)


class TestDensityProfile:
    def test_rational_even_numbers(self, Q):
        rep = idd.density_profile(int_family(Q, 2), X=10**4)
        assert rep.natural_ratios[-1] == Fraction(5000, 10000)
        # logarithmic ratios approach 1/2 only at O(1/log x) speed
        assert abs(rep.log_ratios[-1] - 0.5) < 5e-2
        assert float(rep.d_lower) == pytest.approx(0.5, abs=1e-2)

    def test_rational_norm_intervals_match_brute_force(self, Q):
        fam = idd.NormIntervalFamily(field=Q, intervals=((6, 9), (20, 23)))
        X = 2000
        marked = [n > 0 and any(n % d == 0 for lo, hi in fam.intervals
                                for d in range(lo + 1, hi + 1))
                  for n in range(X + 1)]
        rep = idd.density_profile(fam, X=X)
        for x, m, r in zip(rep.sample_points, rep.member_counts,
                           rep.natural_ratios):
            assert m == sum(marked[:x + 1])
            assert r == Fraction(m, x)
        hits = [n for n in range(1, X + 1) if marked[n]]
        assert rep.log_ratios[-1] == pytest.approx(
            math.fsum(1 / n for n in hits)
            / math.fsum(1 / n for n in range(1, X + 1)), rel=1e-12)
        assert idd.sieve_multiples_density(fam, X) == Fraction(len(hits), X)

    def test_gaussian_counts(self, Qi):
        pr2 = idd.primes_up_to_norm(Qi, 2)[0]
        fam = idd.ExplicitFamily(
            field=Qi, members=(idd.make_ideal(Qi, [(pr2, 1)]),))
        rep = idd.density_profile(fam, X=10**4)
        counter = idd.count_ideals(Qi, 10**4)
        assert rep.total_counts[-1] == counter.H_of(10**4)
        assert rep.member_counts[-1] == idd.ideal_count(Qi,
                                                        10**4 // pr2.norm)

    def test_complement_identity(self, Q):
        rep = idd.density_profile(int_family(Q, 2, 3), X=5000)
        comp = rep.complement()
        for r, c in zip(rep.natural_ratios, comp.natural_ratios):
            assert r + c == 1
        for r, c in zip(rep.log_ratios, comp.log_ratios):
            assert r + c == pytest.approx(1.0)
        assert comp.member_counts[-1] + rep.member_counts[-1] == \
            rep.total_counts[-1]

    def test_squarefree_log_ratio(self, Q):
        # complement of the squarefull multiples: density 1/zeta(2)
        fam = idd.PrimePowerFamily(field=Q, l=2)
        rep = idd.density_profile(fam, X=10**6).complement()
        assert float(rep.natural_ratios[-1]) == pytest.approx(
            6 / math.pi**2, abs=1e-3)
        assert rep.log_ratios[-1] == pytest.approx(6 / math.pi**2, abs=5e-2)

    def test_counts_members_beyond_truncation(self, Q):
        # every member of norm <= X counts, whatever the family truncation
        fam = idd.PrimePowerFamily(field=Q, l=2, truncation=100)
        X = 10**4
        marked = np.zeros(X + 1, dtype=bool)
        for p in primerange(2, 101):
            marked[p * p::p * p] = True
        assert int(marked.sum()) == 3917
        rep = idd.density_profile(fam, X=X)
        assert rep.member_counts[-1] == 3917
        assert idd.sieve_multiples_density(fam, X) == Fraction(3917, X)

    def test_validation(self, Q):
        with pytest.raises(ValueError):
            idd.density_profile(int_family(Q, 2), X=50)


class TestSamplePointSums:
    """``density._member_sums`` against per-norm sums built here."""

    def test_rational_log_numerators_are_sequential_sums(self, Q):
        fam = int_family(Q, 4, 6, 9, 10, 35)
        X = 5000
        counter = idd.count_ideals(Q, X)
        xs = np.array([10, 11, 99, 1000, 2500, 4999, X])
        counts, log_sums = _member_sums(fam, xs, None)
        marked = [any(n % m == 0 for m in (4, 6, 9, 10, 35))
                  for n in range(X + 1)]
        total, sums = 0.0, [0.0]
        for n in range(1, X + 1):
            if marked[n]:
                total += 1 / n
            sums.append(total)
        assert log_sums == [sums[x] for x in xs]
        assert counts == [sum(marked[1:x + 1]) for x in xs]
        rep = idd.density_profile(fam, X=X)
        _, L = full_H_and_L(counter)
        assert rep.log_ratios == tuple(
            sums[x] / L[x] for x in rep.sample_points)

    def test_entangled_gaussian_terms_match_per_norm_counts(self, Qi):
        primes = idd.primes_up_to_norm(Qi, 29)[:8]
        members = [idd.make_ideal(Qi, [(p, 1), (q, 1)])
                   for i, p in enumerate(primes) for q in primes[i + 1:]]
        members += [idd.make_ideal(Qi, [(p, 3)]) for p in primes[:3]]
        fam = idd.ExplicitFamily(field=Qi, members=tuple(members))
        X = 4000
        per_norm = np.zeros(X + 1, dtype=np.int64)
        for b in idd.enumerate_ideals(Qi, X):
            if is_multiple(fam, b):
                per_norm[b.norm] += 1
        xs = np.arange(1, X + 1)
        counts, log_sums = _member_sums(fam, xs, idd.count_ideals(Qi, X))
        assert counts == np.cumsum(per_norm)[1:].tolist()
        expected = np.cumsum(per_norm[1:] / xs)
        assert np.allclose(log_sums, expected, rtol=1e-12, atol=0)

    def test_explicit_profile_allocates_no_norm_array(self, Qi):
        X = 10**5
        counter = idd.count_ideals(Qi, X)
        assert full_H_and_L(counter)[1][X] > 0     # warm: the counter
        fam = idd.ExplicitFamily(field=Qi, members=tuple(
            m for m in idd.enumerate_ideals(Qi, 50)[1:8]))
        assert peak_bytes(idd.density_profile, fam, X=X) < X * 8 / 4


    def test_warm_rational_profile_keeps_no_step_table(self, Q):
        # Measured 1.69 MB, the bound 1.2 times that; with a reused float
        # step table and buffer of 2^16 norms each it was 2.67 MB.
        fam = idd.PrimePowerFamily(field=Q, l=2)
        idd.density_profile(fam, X=10**6)     # warm: the harmonic prefix
        assert peak_bytes(idd.density_profile, fam, X=10**6) < 2.0e6

    def test_wide_rational_interval_marks_in_blocks(self, Q):
        # One bool mark per norm (1 MB) and the interval's norms above
        # sqrt X in blocks: measured 1.26 MB for the count and 2.12 MB for
        # the profile, when a block of its float sums held a term for each
        # of 2^16 norms; the bounds are 1.1 times those.  A block of 2^15
        # norms holding an index and a term per marked norm peaks at
        # 1.86 MB.  With all the interval's norms in one int64 array the
        # profile peaked at 33 MB.
        fam = idd.NormIntervalFamily(field=Q, intervals=((10**3, 10**6),))
        idd.density_profile(fam, X=10**6)     # warm: the harmonic prefix
        assert peak_bytes(idd.sieve_multiples_density, fam, 10**6) < 1.39e6
        assert peak_bytes(idd.density_profile, fam, X=10**6) < 2.33e6

    def test_cold_rational_harmonic_prefix_holds_one_block(self):
        # Every norm is walked in blocks of 2^15 with no index: measured
        # 0.79 MB when each block held its norms and a second array of
        # their terms, the bound 1.2 times that; 0.53 MB with the terms
        # divided in place.
        xs = tuple(sample_grid(10, 10**6, 24).tolist())
        assert peak_bytes(rational_harmonic_prefix.__wrapped__, xs) < 9.5e5

    def test_wide_gaussian_interval_marks_in_blocks(self, Qi):
        # Warm, the counter is cached: the marks and blocks of 2^15 norms
        # holding an index and a term per marked norm, measured 1.52 MB;
        # the bound is 1.1 times that.  When a block held a float term
        # for each of 2^16 norms the profile peaked at 2.25 MB.
        fam = idd.NormIntervalFamily(field=Qi, intervals=((10**3, 10**6),))
        idd.density_profile(fam, X=10**6)     # warm: the counter
        assert peak_bytes(idd.density_profile, fam, X=10**6) < 1.67e6


class TestBlockedSums:
    """Running sums in blocks of norms against one ``np.cumsum``."""

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(X=st.sampled_from(BLOCK_EDGE_XS), seed=st.integers(0, 2**32 - 1),
           extra=st.lists(st.integers(1, 2 * B + 1), max_size=6))
    def test_equal_one_cumsum_bit_for_bit(self, X, seed, extra):
        rng = np.random.default_rng(seed)
        xs = edge_points(X, extra)
        marks = rng.random(X + 1) < rng.random()
        # Counts over 12 decades, zeros among them, so that the order of
        # addition shows.
        h = rng.integers(0, 10, X + 1) * 10 ** rng.integers(0, 12, X + 1)
        weights = np.where(marks, h, 0)
        weights[0] = 0
        terms = np.zeros(X + 1)
        np.divide(weights[1:], np.arange(1, X + 1), out=terms[1:])
        counts, sums = marked_sums(xs, marks, h)
        assert counts == np.cumsum(weights)[xs].tolist()
        assert sums == np.cumsum(terms)[xs].tolist()
        assert marked_sums(xs, marks, h, logs=False) == (counts, None)

    @settings(max_examples=15, deadline=None, derandomize=True, database=None)
    @given(X=st.sampled_from(BLOCK_EDGE_XS),
           members=st.lists(st.integers(1, 60), min_size=1, max_size=5,
                            unique=True),
           extra=st.lists(st.integers(1, 2 * B + 1), max_size=6))
    def test_rational_marks_equal_one_cumsum(self, Q, X, members, extra):
        xs = edge_points(X, extra)
        marked = np.zeros(X + 1, dtype=bool)
        for m in members:
            marked[m::m] = True
        counts, log_sums = _member_sums(int_family(Q, *members), xs, None)
        assert counts == np.cumsum(marked)[xs].tolist()
        terms = np.arange(X + 1, dtype=np.float64)
        np.divide(marked[1:], terms[1:], out=terms[1:])
        assert log_sums == np.cumsum(terms)[xs].tolist()

    @pytest.mark.parametrize("X", BLOCK_EDGE_XS)
    def test_unit_member_and_weighted_marks(self, Q, Qi, X):
        xs = edge_points(X)
        _, L_Q = full_H_and_L(idd.ideals.count_ideals.__wrapped__(Q, X))
        counts, log_sums = _member_sums(int_family(Q, 1), xs, None)
        assert counts == xs.tolist()
        assert log_sums == L_Q[xs].tolist()
        assert rational_harmonic_prefix(tuple(xs.tolist())) == tuple(
            L_Q[xs].tolist())
        # Over Q(i) the marks carry h(n); (B - 3, B + 2] holds norms on
        # both sides of a block edge.
        counter = idd.count_ideals(Qi, X)
        fam = idd.NormIntervalFamily(field=Qi,
                                     intervals=((4, 9), (B - 3, B + 2)))
        marked = np.zeros(X + 1, dtype=bool)
        for n in range(1, X + 1):
            if counter.h[n] and any(lo < n <= hi
                                       for lo, hi in fam.intervals):
                marked[n::n] = True
        weights = counter.h * marked
        terms = np.arange(X + 1, dtype=np.float64)
        np.divide(weights[1:], terms[1:], out=terms[1:])
        counts, log_sums = _member_sums(fam, xs, counter)
        assert counts == np.cumsum(weights)[xs].tolist()
        assert log_sums == np.cumsum(terms)[xs].tolist()

    def test_rational_profile_builds_no_counter(self, Q, monkeypatch):
        def refuse(K, X):
            raise AssertionError("counter built over Q")

        monkeypatch.setattr(idd.density, "count_ideals", refuse)
        fam = idd.PrimePowerFamily(field=Q, l=2)
        rep = idd.density_profile(fam, X=3 * B)
        assert rep.total_counts == rep.sample_points
        assert idd.sieve_multiples_density(fam, 3 * B) == Fraction(
            rep.member_counts[-1], 3 * B)


def sequential_sums(marked, h, xs):
    """Counts and sums of h(n)/n over the marked norms n <= x at each x of
    xs, adding one norm at a time in ascending order (h = None: h = 1)."""
    counts, sums, count, total = [], [], 0, 0.0
    n = 0
    for x in xs:
        while n < x:
            n += 1
            if marked[n]:
                w = 1 if h is None else int(h[n])
                count += w
                total += w / n
        counts.append(count)
        sums.append(total)
    return counts, sums


def rational_marks(X, moduli):
    marked = bytearray(X + 1)
    for m in moduli:
        marked[m::m] = b"\x01" * len(range(m, X + 1, m))
    return marked


class TestMarkingPath:
    """The marking path of ``_member_sums`` against per-norm sums, bit for
    bit: every block adds the terms of its marked norms only.  ``forms``
    names the harmonic blocks a case reaches: with none, some or all of
    their norms marked."""

    X = 3 * 10**5
    XS = (10, 1000, B, 100002, 200006, 3 * 10**5)

    @staticmethod
    def sums_and_forms(fam, xs, counter, marked):
        """``_member_sums`` of the family, and the forms of the blocks of
        ``marked_sums``, cut after each x, under the reference marks."""
        forms, lo = set(), 1
        for x in xs:
            while lo <= x:
                hi = min(lo + B, x + 1)
                n = marked[lo:hi].count(1)
                forms.add("none" if not n else
                          "all" if n == hi - lo else "some")
                lo = hi
        counts, log_sums = _member_sums(fam, np.array(xs), counter)
        return counts, log_sums, forms

    @pytest.mark.parametrize("members,forms", [
        ((100003,), {"none", "some"}),      # no mark before 100003
        ((1,), {"all"}),                    # every norm marked
        ((47,), {"none", "some"}),
        ((2, 3, 5, 7), {"some"}),           # 77% marked
        ((2, 47, 1000), {"some"}),          # half of 1..10 marked
    ])
    def test_rational_explicit(self, Q, members, forms):
        marked = rational_marks(self.X, members)
        counts, log_sums, seen = self.sums_and_forms(
            int_family(Q, *members), self.XS, None, marked)
        ref_counts, ref_sums = sequential_sums(marked, None, self.XS)
        assert counts == ref_counts
        assert [s.hex() for s in log_sums] == [s.hex() for s in ref_sums]
        assert seen == forms

    @pytest.mark.parametrize("l,forms", [(1, {"some", "all"}),
                                         (2, {"some"})])
    def test_rational_prime_powers(self, Q, l, forms):
        fam = idd.PrimePowerFamily(field=Q, l=l)
        marked = rational_marks(
            self.X, [m.norm for m in fam.members_up_to(self.X)])
        counts, log_sums, seen = self.sums_and_forms(fam, self.XS, None,
                                                     marked)
        ref_counts, ref_sums = sequential_sums(marked, None, self.XS)
        assert counts == ref_counts
        assert [s.hex() for s in log_sums] == [s.hex() for s in ref_sums]
        assert seen == forms

    @pytest.mark.parametrize("m,intervals,forms", [
        (None, ((3, 5), (B - 3, 2 * B)), {"some", "all"}),
        (-1, ((10, 20),), {"none", "some"}),
        (5, ((10, 20),), {"none", "some"}),
        (-1, ((1, 12),), {"some"}),
        (5, ((1, 12),), {"some"}),
        (-1, ((3, 5), (B - 3, 2 * B)), {"some"}),
        (5, ((3, 5), (B - 3, 2 * B)), {"some"}),
        (None, ((1, 400),), {"some"}),      # from norm 2, across sqrt X
        (-1, ((1, 400),), {"some"}),
        (None, ((300, B + 100),), {"none", "some", "all"}),  # sqrt X, X / 2
        (-1, ((300, B + 100),), {"none", "some"}),
        (5, ((300, B + 100),), {"none", "some"}),
    ])
    def test_intervals(self, m, intervals, forms):
        # Over quadratic fields a marked norm n adds h(n)/n.
        X = 2 * B + 1
        xs = (10, 1000, B, B + B // 2 + 3, X)
        if m is None:
            K, counter, h = idd.make_rational_field(), None, None
        else:
            K = idd.make_quadratic_field(m)
            counter = idd.count_ideals(K, X)
            h = counter.h
        fam = idd.NormIntervalFamily(field=K, intervals=intervals)
        norms = [n for lo, hi in intervals for n in range(lo + 1, hi + 1)
                 if h is None or h[n]]
        marked = rational_marks(X, norms)
        if h is not None:       # some marked norms have no ideal
            assert any(marked[n] and not h[n] for n in range(1, X + 1))
        counts, log_sums, seen = self.sums_and_forms(fam, xs, counter,
                                                     marked)
        ref_counts, ref_sums = sequential_sums(marked, h, xs)
        assert counts == ref_counts
        assert [s.hex() for s in log_sums] == [s.hex() for s in ref_sums]
        assert seen == forms

    def test_empty_float_block_keeps_the_total(self):
        # No norm below 6 is marked: the blocks cut after 2 and 5 hold no
        # term, and h(n) = n makes each later term 1.0.
        counts, sums = marked_sums([2, 5, 7], np.arange(8) > 5, np.arange(8))
        assert counts == [0, 0, 13]
        assert [s.hex() for s in sums] == [0.0.hex(), 0.0.hex(), 2.0.hex()]
        assert marked_sums([3, B + 2], np.ones(B + 3, dtype=bool),
                           logs=False) == ([3, B + 2], None)


class TestDensityInequality:
    def test_holds_with_generous_slack(self, Q):
        rep = idd.density_profile(int_family(Q, 2, 3), X=10**5)
        ok, margins = idd.check_density_inequality(rep, slack=1e-1)
        assert ok
        assert set(margins) == {"lower_margin", "upper_margin"}

    def test_reports_margins_numerically(self, Qi):
        pr2 = idd.primes_up_to_norm(Qi, 2)[0]
        fam = idd.ExplicitFamily(
            field=Qi, members=(idd.make_ideal(Qi, [(pr2, 1)]),))
        rep = idd.density_profile(fam, X=10**5)
        ok, margins = idd.check_density_inequality(rep, slack=5e-2)
        assert ok
        assert margins["lower_margin"] == rep.delta_lower - float(rep.d_lower)

    def test_needs_tail_samples(self, Q):
        rep = idd.density_profile(int_family(Q, 2), X=1000, n_samples=4)
        with pytest.raises(ValueError):
            idd.check_density_inequality(rep)
