"""Exact densities of finite families against the exponent-box oracle.

``finite_ie_density``, ``a_limit`` and ``multiplicative_density`` slice on
primes; ``box_density`` (conftest) sums over every cell of the finite
exponent box instead, with no code in common.  Also checks the work bound
that stops a family too entangled for the slicing recursion.
"""

import math
import random
import sys
import traceback
from fractions import Fraction

import pytest

import idealdensity as idd
from idealdensity import density
from idealdensity.errors import TooLarge

from conftest import (box_density, int_family, random_explicit_family,
                      trial_division_primes)

ORACLE_FIELDS = [None, -1, 5, -5, -3, 2, -14]


def field(m):
    return idd.make_rational_field() if m is None else idd.make_quadratic_field(m)


@pytest.mark.parametrize("k", [0, 1, 2, 3, 4])
def test_interval_family_restrictions_match_the_box(Qi, k):
    fam = idd.NormIntervalFamily(field=Qi, intervals=((100000, 300000),))
    restricted = idd.restrict_family(fam, k).members
    exact = box_density(restricted)
    assert idd.finite_ie_density(idd.restrict_family(fam, k)) == exact
    assert idd.multiplicative_density(fam, k).b_k == exact


@pytest.mark.parametrize("m", ORACLE_FIELDS)
def test_random_families_match_the_box(m):
    K = field(m)
    rng = random.Random(1000 + (m or 0))
    for _ in range(60):
        fam = random_explicit_family(K, rng, max_members=9, max_norm=60)
        exact = box_density(fam.members)
        assert idd.finite_ie_density(fam) == exact
        assert idd.a_limit(fam, len(fam.members))[-1] == exact
        k = rng.randint(1, 6)
        assert idd.multiplicative_density(fam, k).b_k == box_density(
            idd.restrict_family(fam, k).members)


def test_box_oracle_on_a_closed_form(Q):
    # Multiples of 2p for the odd primes p < 30: 2 | n and some p | n.
    odd = [3, 5, 7, 11, 13, 17, 19, 23, 29]
    members = [idd.integer_ideal(Q, 2 * p) for p in odd]
    assert box_density(members) == Fraction(1, 2) * (
        1 - math.prod(Fraction(p - 1, p) for p in odd))


def test_many_coprime_members_match_their_closed_forms(Q):
    # Coprime members are blocks of one member each; one slicing pass over
    # all of them at once would be O(r^2) against WORK_LIMIT.
    squares = idd.PrimePowerFamily(field=Q, l=2, truncation=10**8)
    assert idd.finite_ie_density(squares) == 1 - math.prod(
        1 - Fraction(1, p * p) for p in trial_division_primes(10**4))
    primes = trial_division_primes(30000)
    assert idd.finite_ie_density(int_family(Q, *primes)) == 1 - math.prod(
        Fraction(p - 1, p) for p in primes)


def test_work_bound_raises_too_large(Q, monkeypatch):
    # The path p_i * p_(i+1) keeps one component through many slices.
    primes = idd.primes_up_to_norm(Q, 400)
    fam = idd.ExplicitFamily(field=Q, members=tuple(
        idd.make_ideal(Q, [(p, 1), (q, 1)]) for p, q in zip(primes, primes[1:])))
    exact = idd.finite_ie_density(fam)
    monkeypatch.setattr(density, "WORK_LIMIT", 10**4)
    with pytest.raises(TooLarge, match=f"{len(fam.members)} entangled "
                                       "members needs more than 10000"):
        idd.finite_ie_density(fam)
    monkeypatch.undo()
    assert 0 < exact < 1


def test_slicing_deeper_than_the_recursion_limit_raises_too_large(Q):
    # Two members S*a and S*b, S the product of 150 primes, are sliced one
    # prime of S at a time, one call deeper each time.
    *shared, a, b = idd.primes_up_to_norm(Q, 1000)[:152]
    fam = idd.ExplicitFamily(field=Q, members=(
        idd.make_ideal(Q, [(p, 1) for p in shared] + [(a, 1)]),
        idd.make_ideal(Q, [(p, 1) for p in shared] + [(b, 1)])))
    assert idd.finite_ie_density(fam) == Fraction(1, math.prod(
        p.norm for p in shared)) * (1 - Fraction(a.norm - 1, a.norm)
                                    * Fraction(b.norm - 1, b.norm))
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(traceback.extract_stack()) + 100)
    try:
        with pytest.raises(TooLarge, match="recursion limit"):
            idd.finite_ie_density(fam)
    finally:
        sys.setrecursionlimit(limit)
