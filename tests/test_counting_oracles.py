"""Brute-force oracles for counting multiples at a norm bound.

Every count the per-norm counting core returns is checked against
``enumerate_ideals`` plus ``is_multiple``, over Q and random quadratic
fields Q(sqrt m), m squarefree in [-50, 50], real ones and class numbers
above 1 included.  So is the fact that norm-interval families rest on:
the divisor norms of an ideal depend on its norm alone.  The prime-norm
arrays and the numpy ideal-count sieve beneath it are checked against
scalar splitting, enumeration and the Gaussian lattice count, the
hyperbola point counts against the sieve, the signed lcm terms of
``density._ie_terms`` against inclusion-exclusion over every subset, and
the in-house factorization against sympy.  The gcd/lcm norm identity, divisibility and the
complement identity of profiles are property-checked on the same fields.
"""

import bisect
import functools
import hashlib
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import HealthCheck, given, settings, strategies as st

import idealdensity as idd
from idealdensity import fields as fields_module
from idealdensity.density import _ie_terms
from idealdensity.errors import DuplicateMembers, TooLarge
from idealdensity.ideals import gaussian_lattice_H, ideal_count, ideal_counts

from conftest import (divisor_norms, enumeration_norm_counts, full_H_and_L,
                      gaussian_lattice_counts, gcd, is_multiple,
                      kronecker_symbol, trial_division_primes, unit_ideal)

#: Largest bound of the brute-force enumerations.
BRUTE_X = 3000

SQUAREFREE_M = [m for m in range(-50, 51) if m not in (0, 1)
                and all(m % (p * p) for p in (2, 3, 5, 7))]

PROPERTY_SETTINGS = settings(
    max_examples=40, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.too_slow])


@functools.lru_cache(maxsize=None)
def field(m):
    if m is None:
        return idd.make_rational_field()
    return idd.make_quadratic_field(m)


@functools.lru_cache(maxsize=None)
def brute_ideals(K):
    ideals = idd.enumerate_ideals(K, BRUTE_X)
    return ideals, [b.norm for b in ideals]


@functools.lru_cache(maxsize=None)
def member_pool(K):
    return [b for b in brute_ideals(K)[0] if b.factors and b.norm <= 60]


def brute_profile(K, X, member):
    """(norms of the counted ideals, norms of all ideals), up to X."""
    ideals, norms = brute_ideals(K)
    upto = ideals[:bisect.bisect_right(norms, X)]
    return [b.norm for b in upto if member(b)], [b.norm for b in upto]


def assert_matches_brute_force(report, K, member):
    hits, all_norms = brute_profile(K, report.sample_points[-1], member)
    for x, m, t, r in zip(report.sample_points, report.member_counts,
                          report.total_counts, report.log_ratios):
        assert m == bisect.bisect_right(hits, x)
        assert t == bisect.bisect_right(all_norms, x)
        num = math.fsum(1 / n for n in hits if n <= x)
        den = math.fsum(1 / n for n in all_norms if n <= x)
        assert r == pytest.approx(num / den, rel=1e-12, abs=1e-15)


fields = st.sampled_from([None] + SQUAREFREE_M).map(field)


@PROPERTY_SETTINGS
@given(K=fields, data=st.data())
def test_explicit_family_counts_match_brute_force(K, data):
    pool = member_pool(K) + [unit_ideal(K)]
    members = data.draw(st.lists(st.sampled_from(pool),
                                 min_size=1, max_size=5, unique=True))
    X = data.draw(st.integers(100, BRUTE_X))
    fam = idd.ExplicitFamily(field=K, members=tuple(members))
    member = functools.partial(is_multiple, fam)
    hits, all_norms = brute_profile(K, X, member)
    assert idd.sieve_multiples_density(fam, X) == Fraction(len(hits),
                                                          len(all_norms))
    assert_matches_brute_force(idd.density_profile(fam, X=X), K, member)


@PROPERTY_SETTINGS
@given(K=fields, data=st.data())
def test_gcd_lcm_norms_and_divisibility(K, data):
    a, b = data.draw(st.lists(st.sampled_from(brute_ideals(K)[0]),
                              min_size=2, max_size=2))
    g, m = gcd(a, b), idd.intersect([a, b])
    assert g.norm * m.norm == a.norm * b.norm
    assert idd.divides(a, b) == (g == a)
    assert idd.divides(a, m) and idd.divides(b, m)
    assert idd.divides(g, a) and idd.divides(g, b)


@PROPERTY_SETTINGS
@given(K=st.sampled_from(SQUAREFREE_M).map(field), data=st.data())
def test_complement_ratios_sum_to_one(K, data):
    members = data.draw(st.lists(st.sampled_from(member_pool(K)),
                                 min_size=1, max_size=4, unique=True))
    X = data.draw(st.integers(100, BRUTE_X))
    report = idd.density_profile(
        idd.ExplicitFamily(field=K, members=tuple(members)), X=X)
    comp = report.complement()
    assert all(r + c == 1 for r, c in zip(report.natural_ratios,
                                          comp.natural_ratios))
    assert all(r + c == 1.0 for r, c in zip(report.log_ratios,
                                            comp.log_ratios))
    assert [m + c for m, c in zip(report.member_counts,
                                  comp.member_counts)] == list(
        report.total_counts)


@PROPERTY_SETTINGS
@given(K=fields, data=st.data())
def test_incremental_a_limit_equals_prefix_densities(K, data):
    pool = member_pool(K)[:30] + [unit_ideal(K)]
    members = sorted(data.draw(st.lists(st.sampled_from(pool), min_size=1,
                                        max_size=8)), key=idd.Ideal.sort_key)

    def family(ms):
        return idd.ExplicitFamily(field=K, members=tuple(ms))

    expected, repeated = [], False
    for r in range(1, len(members) + 1):
        try:
            expected.append(idd.finite_ie_density(family(members[:r])))
        except DuplicateMembers:
            repeated = True
            break
    if not repeated:
        assert idd.a_limit(family(members), len(members)) == expected
    else:
        with pytest.raises(DuplicateMembers):
            idd.a_limit(family(members), len(members))


@PROPERTY_SETTINGS
@given(K=fields, X=st.integers(100, 2000))
def test_entangled_family_over_the_cap_counts_exactly(K, X):
    # 21 members P*Q_j sharing the smallest prime P form one block, more
    # than the 20 that exact inclusion-exclusion over subsets once took.
    # b is a multiple exactly when P | b and some Q_j | b.
    first, *others = idd.primes_up_to_norm(K, 400)[:22]
    fam = idd.ExplicitFamily(field=K, members=tuple(
        idd.make_ideal(K, [(first, 1), (q, 1)]) for q in others))
    assert len(fam.members) == 21
    assert idd.finite_ie_density(fam) == Fraction(1, first.norm) * (
        1 - math.prod(Fraction(q.norm - 1, q.norm) for q in others))
    member = functools.partial(is_multiple, fam)
    hits, all_norms = brute_profile(K, X, member)
    assert idd.sieve_multiples_density(fam, X) == Fraction(len(hits),
                                                          len(all_norms))
    assert_matches_brute_force(idd.density_profile(fam, X=X), K, member)


def subset_ie_terms(members, X):
    """The (N(l), c) of inclusion-exclusion over every nonempty subset S of
    the members, c the sum of (-1)^(|S| + 1) over the subsets whose lcm is
    l, keeping the l of norm <= X with c != 0, sorted."""
    coeff = {}
    for r in range(1, len(members) + 1):
        for subset in itertools.combinations(members, r):
            lcm = idd.intersect(subset)
            coeff[lcm] = coeff.get(lcm, 0) + (-1) ** (r + 1)
    return sorted((l.norm, c) for l, c in coeff.items() if c and l.norm <= X)


@pytest.mark.parametrize("m", [None, -1, 5, -5, -3, 2, -14])
def test_ie_terms_match_subset_inclusion_exclusion(m):
    # Pools of every ideal (the unit too) of norm <= 60, where members
    # share primes and their lcms cancel, and of norm <= 400.
    K, rng = field(m), random.Random(m or 0)
    for bound in (60, 400):
        pool = idd.enumerate_ideals(K, bound)
        for X in (40, 1000, 10**6):
            for _ in range(8):
                members = rng.sample(pool, rng.randint(1, 10))
                assert _ie_terms(members, X) == subset_ie_terms(members, X)


@pytest.mark.parametrize("m, hi, digest", [
    (-1, 60, "09cb8cdc0b9e96f1167506490b00eb48ea0b6ff3aea980b1922d892135ab8476"),
    (-5, 60, "fc0fb754aabf530384a8182c12b797a5d3d05bed1b1d546e0c17ff3050ab2533"),
    (5, 80, "a889547635cfa5fa185c6838cf35e895ffdfeef0243cc7cc6d1c57a6540a50cc"),
])
def test_ie_terms_of_norm_ranges_are_pinned(m, hi, digest):
    # Every ideal of norm in (2, hi], at X = 10^5: 1860, 2229 and 2377
    # terms, pinned while each term was still keyed by its exponent dict.
    members = [a for a in idd.enumerate_ideals(field(m), hi) if a.norm > 2]
    terms = repr(_ie_terms(members, 10**5)).encode()
    assert hashlib.sha256(terms).hexdigest() == digest


def test_ie_terms_of_many_entangled_members_are_fast():
    # The 118 ideals of Q(i) of norm in (50, 200] give 32410 terms at
    # X = 10^6: about 0.5 s on bit sets, 4 s with an exponent dict a term.
    members = [a for a in idd.enumerate_ideals(field(-1), 200) if a.norm > 50]
    start = time.perf_counter()
    terms = _ie_terms(members, 10**6)
    assert time.perf_counter() - start < 2
    assert len(terms) == 32410


@pytest.mark.parametrize("m", [None, -1, -5, 5])
def test_unit_member_makes_every_ideal_a_multiple(m):
    K = field(m)
    P, Q = idd.primes_up_to_norm(K, 20)[:2]
    fam = idd.ExplicitFamily(field=K, members=(
        unit_ideal(K), idd.make_ideal(K, [(P, 1)]),
        idd.make_ideal(K, [(P, 2)]), idd.make_ideal(K, [(P, 1), (Q, 1)])))
    assert idd.sieve_multiples_density(fam, 1000) == 1
    report = idd.density_profile(fam, X=1000)
    assert report.member_counts == report.total_counts
    assert idd.finite_ie_density(fam) == 1
    assert idd.a_limit(fam, 4) == [1, 1, 1, 1]


@pytest.mark.parametrize("m", [None, -1, -5, 5])
def test_wide_entangled_family_counts_exactly(m):
    # Every prime of norm <= X/2 times the smallest one: lcm terms of many
    # members, all sharing one prime.
    K, X = field(m), BRUTE_X
    first, *others = idd.primes_up_to_norm(K, X // 2)
    fam = idd.ExplicitFamily(field=K, members=tuple(
        idd.make_ideal(K, [(first, 1), (q, 1)]) for q in others))
    assert len(fam.members) > 150
    member = functools.partial(is_multiple, fam)
    hits, all_norms = brute_profile(K, X, member)
    assert idd.sieve_multiples_density(fam, X) == Fraction(len(hits),
                                                          len(all_norms))
    assert_matches_brute_force(idd.density_profile(fam, X=X), K, member)


def test_irregular_gaussian_family_matches_brute_force(Qi):
    # The multiples of a prime above 5 or of a prime square are the ideals
    # whose norm is divisible by 5 or that have an exponent >= 2.
    def member(b):
        return b.norm % 5 == 0 or any(e >= 2 for _, e in b.factors)

    X = 2000
    primes = idd.primes_up_to_norm(Qi, math.isqrt(X))
    fam = idd.ExplicitFamily(field=Qi, members=tuple(
        [idd.make_ideal(Qi, [(pr, 1)]) for pr in primes if pr.p == 5]
        + [idd.make_ideal(Qi, [(pr, 2)]) for pr in primes]))
    ideals, norms = brute_ideals(Qi)
    assert all(is_multiple(fam, b) == member(b)
               for b in ideals[:bisect.bisect_right(norms, X)])
    assert_matches_brute_force(idd.density_profile(fam, X=X), Qi, member)
    hits, all_norms = brute_profile(Qi, X, member)
    assert idd.sieve_multiples_density(fam, X) == Fraction(len(hits),
                                                          len(all_norms))


def test_norm_intervals_over_gaussian_field(Qi):
    fam = idd.NormIntervalFamily(field=Qi, intervals=((8, 13), (40, 60)))
    report = idd.density_profile(fam, X=2000)
    member = functools.partial(is_multiple, fam)
    assert_matches_brute_force(report, Qi, member)
    hits, all_norms = brute_profile(Qi, 2000, member)
    assert idd.sieve_multiples_density(fam, 2000) == Fraction(len(hits),
                                                             len(all_norms))


@PROPERTY_SETTINGS
@given(K=fields)
def test_divisor_norms_depend_on_the_norm_alone(K):
    # In degree <= 2 an ideal of norm n has a divisor of norm d exactly
    # when d | n and some ideal has norm d.
    h = idd.count_ideals(K, BRUTE_X).h
    expected: dict[int, set[int]] = {}
    for b in brute_ideals(K)[0]:
        if b.norm not in expected:
            expected[b.norm] = {d for d in sympy.divisors(b.norm) if h[d]}
        assert set(divisor_norms(b)) == expected[b.norm]


@PROPERTY_SETTINGS
@given(K=fields, data=st.data())
def test_norm_interval_family_counts_match_brute_force(K, data):
    spans = data.draw(st.lists(st.tuples(st.integers(1, 300),
                                         st.integers(1, 60)),
                               min_size=1, max_size=3))
    fam = idd.NormIntervalFamily(field=K, intervals=tuple(
        (lo, lo + width) for lo, width in spans))
    X = data.draw(st.integers(100, BRUTE_X))
    member = functools.partial(is_multiple, fam)
    hits, all_norms = brute_profile(K, X, member)
    assert idd.sieve_multiples_density(fam, X) == Fraction(len(hits),
                                                          len(all_norms))
    assert_matches_brute_force(idd.density_profile(fam, X=X), K, member)


@pytest.mark.parametrize("m", [None, -1, 5, -5])
@pytest.mark.parametrize("intervals", [
    ((1, 80),),             # the lowest interval a family takes: from norm 2
    ((40, 1600),),          # across sqrt X = 54.8 and X / 2 = 1500
    ((54, 59),),            # 55 * 54 = 2970 is marked by multiplier 54 only
    ((1, 30), (20, 70), (60, 2000)),        # overlapping
    (),
])
def test_norm_intervals_across_sqrt_X_match_brute_force(m, intervals):
    # Norms up to sqrt X mark by strided writes, larger ones by one write
    # per multiplier.
    K = field(m)
    fam = idd.NormIntervalFamily(field=K, intervals=intervals)
    member = functools.partial(is_multiple, fam)
    hits, all_norms = brute_profile(K, BRUTE_X, member)
    assert idd.sieve_multiples_density(fam, BRUTE_X) == Fraction(
        len(hits), len(all_norms))
    assert_matches_brute_force(idd.density_profile(fam, X=BRUTE_X), K, member)


@PROPERTY_SETTINGS
@given(K=fields, X=st.integers(1, 5000))
def test_prime_norm_array_matches_scalar_splitting(K, X):
    expected = sorted(pr for p in sympy.primerange(2, X + 1)
                      for pr, _ in idd.split_prime(K, p) if pr.norm <= X)
    assert fields_module.prime_norm_array(K, X).tolist() == [
        pr.norm for pr in expected]
    assert idd.primes_up_to_norm(K, X) == tuple(expected)


#: The fields whose prime-ideal norms are checked at the sieve's edges:
#: split, inert and ramified 2, D = 1 and 0 mod 4, |D| above 8.
EDGE_FIELDS = [None, -1, 5, -5, 2, -14, 21]


def scalar_prime_ideals(K, X):
    """The prime ideals of norm <= X by ``split_prime``, one rational
    prime at a time, sorted by (norm, p, index)."""
    return sorted(pr for p in trial_division_primes(X)
                  for pr, _ in idd.split_prime(K, p) if pr.norm <= X)


@pytest.mark.parametrize("m", EDGE_FIELDS)
def test_prime_norms_match_scalar_splitting_at_block_edges(m):
    K = field(m)
    span = 2 * fields_module._SIEVE_BLOCK        # integers per sieve block
    everything = scalar_prime_ideals(K, span + 1)
    for X in (span - 1, span, span + 1):
        expected = [pr for pr in everything if pr.norm <= X]
        assert fields_module.prime_norm_array(K, X).tolist() == [
            pr.norm for pr in expected]
        assert idd.primes_up_to_norm(K, X) == tuple(expected)


@pytest.mark.parametrize("m", EDGE_FIELDS)
def test_prime_norms_match_scalar_splitting_in_small_pieces(m, monkeypatch):
    # Blocks of 10 integers and pieces of 3 primes put an edge near every
    # bound, and the inert p <= sqrt(X) on both sides of piece edges.
    monkeypatch.setattr(fields_module, "_SIEVE_BLOCK", 5)
    monkeypatch.setattr(fields_module, "_PIECE", 3)
    K = field(m)
    everything = scalar_prime_ideals(K, 250)
    for X in range(1, 251):
        expected = [pr for pr in everything if pr.norm <= X]
        assert fields_module.prime_norm_array(K, X).tolist() == [
            pr.norm for pr in expected]
        assert idd.primes_up_to_norm(K, X) == tuple(expected)


@PROPERTY_SETTINGS
@given(K=fields, X=st.integers(1, 5000))
def test_sieve_matches_enumeration(K, X):
    counter = idd.count_ideals(K, X)
    assert np.array_equal(counter.h, enumeration_norm_counts(K, X))
    assert np.array_equal(full_H_and_L(counter)[0], np.cumsum(counter.h))


@pytest.mark.parametrize("X", [10**4 + 1, 65537])
def test_sieve_matches_gaussian_lattice_above_large_norms(Qi, X):
    # Norms above sqrt X go in by the per-cofactor scatter.
    assert fields_module.prime_norm_array(Qi, X)[-1] > math.isqrt(X)
    assert np.array_equal(idd.count_ideals(Qi, X).h,
                          gaussian_lattice_counts(X))


@PROPERTY_SETTINGS
@given(K=fields, X=st.integers(1, 5000), data=st.data())
def test_hyperbola_point_counts_match_the_sieve(K, X, data):
    counter = idd.count_ideals(K, X)
    xs = data.draw(st.lists(st.integers(0, X), max_size=20)) + [X]
    assert ideal_counts(K, xs) == [counter.H_of(x) for x in xs]
    assert all(ideal_count(K, x) == counter.H_of(x) for x in xs[-3:])


def dirichlet_product(n, qs, cs):
    """Coefficients below n of prod 1/(1 - c q^-s), one factor at a time."""
    a = [0, 1][:n] + [0] * max(n - 2, 0)
    for q, c in zip(qs, cs):
        b = [0] * n                     # a times sum_j c^j (q^j)^-s
        for k in range(1, n):
            m, w = k, 1
            while m < n and w:
                b[m] += w * a[k]
                m, w = m * q, w * c
        a = b
    return a


@st.composite
def euler_inputs(draw):
    """n in [1, 400], norms q >= 2 ascending, and c_q in {-1, 0, 1}; a
    repeated q on each side of sqrt(n - 1) whenever n leaves room."""
    n = draw(st.integers(1, 400))
    r = math.isqrt(n - 1)
    qs = draw(st.lists(st.integers(2, 450), max_size=12))
    if r >= 2:
        qs += [draw(st.integers(2, r))] * draw(st.integers(2, 3))
    if n - 1 > r:
        qs += [draw(st.integers(max(r + 1, 2), n - 1))] * 2
    qs.sort()
    cs = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=len(qs),
                       max_size=len(qs)))
    return n, qs, cs


@PROPERTY_SETTINGS
@given(euler_inputs())
def test_euler_series_is_the_truncated_product(inputs):
    n, qs, cs = inputs
    a = fields_module.euler_series(n, np.array(qs, dtype=np.int64),
                                   np.array(cs, dtype=np.int64))
    assert a.dtype == np.int64
    assert a.tolist() == dirichlet_product(n, qs, cs)


#: Fields whose |D| (4000012 and 4000004) is above the sieve bounds of the
#: other tests, so the character table has one entry per residue below x.
LARGE_D_M = [1000003, -1000001]


@pytest.mark.parametrize("m", LARGE_D_M)
def test_hyperbola_on_both_sides_of_a_large_discriminant(m):
    K = field(m)
    D = abs(K.discriminant)
    counter = idd.ideals.count_ideals.__wrapped__(K, D + 3000)
    xs = [1, 2, 999, 10**6, D - 1, D, D + 1, D + 2999, D + 3000]
    assert ideal_counts(K, xs) == [counter.H_of(x) for x in xs]
    assert ideal_count(K, 10**6) == counter.H_of(10**6)
    assert ideal_count(K, D + 1) == counter.H_of(D + 1)


@pytest.mark.parametrize("m", LARGE_D_M)
def test_splitting_by_residue_class_matches_scalar_kronecker(m, monkeypatch):
    K = field(m)
    D = K.discriminant
    X = abs(D) + 20000
    # The table path, though Euler's criterion on the 1300-odd primes
    # above |D| alone would be cheaper than a table of |D| entries.
    monkeypatch.setattr(fields_module, "_CHI_ENTRIES_PER_PRIME", 10**9)
    chi = fields_module.kronecker_table(K, abs(D))
    euler_inputs = []
    euler = fields_module._symbols_at_primes
    # A copy: prime_norm_array squares the inert primes of its list in
    # place.
    monkeypatch.setattr(fields_module, "_symbols_at_primes",
                        lambda D, ps: euler_inputs.append(ps.copy())
                        or euler(D, ps))
    norm = fields_module.prime_norm_array(K, X)
    ps = fields_module.rational_primes_up_to(X)
    # Euler's criterion ran on the primes below |D| only, once for the
    # table that the norms' build makes and once for the norms, and never
    # on a prime >= |D|.
    below = ps[ps < abs(D)].tolist()
    assert np.concatenate(euler_inputs).tolist() == below + below
    # Two prime ideals of norm p when p splits, one when it ramifies.
    picked = np.concatenate([ps[:2000], ps[-4000:]])
    ideals_of_norm_p = (np.searchsorted(norm, picked, side="right")
                        - np.searchsorted(norm, picked))
    assert (ideals_of_norm_p - 1).tolist() == [
        kronecker_symbol(D, p) for p in picked.tolist()]
    # The class table itself, on both sides of 10^6.
    for lo in (0, 10**6 - 1000, abs(D) - 1000):
        assert chi[lo:lo + 1000].tolist() == [
            kronecker_symbol(D, k) if k else 0
            for k in range(lo, lo + 1000)]
    assert int(chi.sum(dtype=np.int64)) == 0


def test_hyperbola_matches_gaussian_lattice_at_10_12(Qi):
    assert ideal_count(Qi, 10**12) == gaussian_lattice_H(10**12) \
        == 785398162406


FACTOR_EDGE_CASES = [
    1, 2, 3, 4, 9, 49, 999983 ** 2, 999983, 1000003, 1000033,
    999983 * 1000003, 2 * 1000003, 561, 41041, 825265,
    3215031751,            # strong pseudoprime to bases 2, 3, 5 and 7
    2 ** 61 - 1,
]


@pytest.mark.parametrize("n", FACTOR_EDGE_CASES)
def test_factorization_edge_cases_match_sympy(n):
    assert fields_module.factorint(n) == sympy.factorint(n)
    assert fields_module.isprime(n) == sympy.isprime(n)


@PROPERTY_SETTINGS
@given(n=st.integers(1, 10**12 - 1))
def test_factorization_matches_sympy(n):
    assert fields_module.factorint(n) == sympy.factorint(n)
    assert fields_module.isprime(n) == sympy.isprime(n)


def test_factorization_beyond_reach_raises_too_large():
    with pytest.raises(TooLarge):
        fields_module.factorint(1000003 * 1000033)
    with pytest.raises(TooLarge):
        fields_module.isprime(2 ** 89 - 1)       # prime above 3.3e24
    assert not fields_module.isprime((2 ** 89 - 1) * (2 ** 61 - 1))
