import random
import time
from fractions import Fraction

import pytest

import idealdensity as idd
from idealdensity.errors import DuplicateMembers, FamilySpecError, FieldMismatch
from idealdensity import families
from idealdensity.families import minimal_members

from conftest import int_family, is_multiple, unit_ideal


class TestExplicitFamily:
    def test_is_multiple(self, Q):
        fam = int_family(Q, 4, 9)
        assert is_multiple(fam, idd.integer_ideal(Q, 12))
        assert not is_multiple(fam, idd.integer_ideal(Q, 6))

    def test_members_sorted(self, Q):
        fam = int_family(Q, 9, 4, 25)
        assert [m.norm for m in fam.members] == [4, 9, 25]
        assert [m.norm for m in fam.members_up_to(10)] == [4, 9]

    def test_field_mismatch(self, Q, Qi):
        fam = int_family(Q, 2)
        with pytest.raises(FieldMismatch):
            is_multiple(fam, unit_ideal(Qi))

    def test_member_of_another_field_rejected(self, Q, Qi):
        with pytest.raises(FieldMismatch, match="different field"):
            idd.ExplicitFamily(field=Q, members=(unit_ideal(Qi),))

    def test_repeated_member_rejected_when_built(self, Q, Qi):
        # A family is a set: a member given twice is refused at once.
        P5 = idd.make_ideal(Qi, [(idd.primes_up_to_norm(Qi, 5)[1], 1)])
        for K, member in ((Q, idd.integer_ideal(Q, 2)), (Qi, P5)):
            with pytest.raises(DuplicateMembers, match="repeated members"):
                idd.ExplicitFamily(field=K, members=(member, member))

    @pytest.mark.parametrize("doc", [
        {"field": "Q", "kind": "explicit", "members": [2, 3, 2]},
        {"field": "Q(sqrt -1)", "kind": "explicit",
         "members": [[[5, 0, 1]], [[5, 0, 1]]]},
    ])
    def test_parse_family_rejects_a_repeated_member(self, doc):
        with pytest.raises(DuplicateMembers, match="repeated members"):
            idd.parse_family(doc)


class TestPrimePowerFamily:
    def test_squarefull_membership(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=2)
        assert is_multiple(fam, idd.integer_ideal(Q, 8))
        assert not is_multiple(fam, idd.integer_ideal(Q, 6))
        assert not is_multiple(fam, unit_ideal(Q))

    def test_members(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=2)
        assert [m.norm for m in fam.members_up_to(50)] == [4, 9, 25, 49]

    def test_members_gaussian(self, Qi):
        fam = idd.PrimePowerFamily(field=Qi, l=2)
        # squares of the primes of norm 2, 5, 5
        assert [m.norm for m in fam.members_up_to(30)] == [4, 25, 25]

    def test_all_primes(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=1)
        assert is_multiple(fam, idd.integer_ideal(Q, 2))
        assert not is_multiple(fam, unit_ideal(Q))

    def test_validation(self, Q):
        with pytest.raises(FamilySpecError):
            idd.PrimePowerFamily(field=Q, l=0)

    @pytest.mark.parametrize("m", [1, -1, 5])
    @pytest.mark.parametrize("l", [1, 2, 3])
    def test_first_members_are_the_prefix(self, m, l):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        fam = idd.PrimePowerFamily(field=K, l=l, truncation=20000)
        members = fam.members_up_to(fam.truncation)
        for r in (0, 1, 7, 168, len(members), len(members) + 1, 10**4):
            assert fam.first_members(r) == members[:r]

    def test_first_members_build_once(self, Q, monkeypatch):
        fam = idd.PrimePowerFamily(field=Q, l=2)

        def refuse(self, bound):
            raise AssertionError("member list rebuilt")

        monkeypatch.setattr(idd.PrimePowerFamily, "members_up_to", refuse)
        assert [m.norm for m in fam.first_members(168)][-2:] == [991**2,
                                                                 997**2]


class TestIntegerRoot:
    @pytest.mark.parametrize("k", range(1, 7))
    def test_exact_for_small_and_huge_n(self, k):
        rng = random.Random(17)
        ns = [*range(3001), *(rng.randrange(10**rng.randrange(1, 401))
                              for _ in range(300))]
        for n in ns:
            r = families._integer_root(n, k)
            assert r ** k <= n < (r + 1) ** k

    def test_large_square_root_is_fast(self):
        start = time.perf_counter()
        r = families._integer_root(10**48 + 12345, 2)
        assert time.perf_counter() - start < 0.5
        assert r == 10**24

    def test_exponent_past_the_bits_builds_no_power(self):
        # 2^(k-1) for k = 10^18 would not fit in memory.
        start = time.perf_counter()
        assert families._integer_root(10**6, 10**18) == 1
        assert families._integer_root(10**6, 20) == 1
        assert families._integer_root(2**20, 20) == 2
        assert time.perf_counter() - start < 0.5


class TestNormIntervalFamily:
    def test_membership_via_divisor_norms(self, Q):
        fam = idd.NormIntervalFamily(field=Q, intervals=((10, 20),))
        assert is_multiple(fam, idd.integer_ideal(Q, 24))   # divisor 12
        assert is_multiple(fam, idd.integer_ideal(Q, 11))
        assert not is_multiple(fam, idd.integer_ideal(Q, 9))
        assert not is_multiple(fam, idd.integer_ideal(Q, 46))  # divisors 1,2,23,46

    def test_members(self, Q):
        fam = idd.NormIntervalFamily(field=Q, intervals=((10, 13), (100, 200)))
        assert [m.norm for m in fam.members_up_to(50)] == [11, 12, 13]

    def test_validation(self, Q):
        with pytest.raises(FamilySpecError):
            idd.NormIntervalFamily(field=Q, intervals=((20, 10),))

    def test_walk_reads_only_norms_in_the_intervals(self, Qi, monkeypatch):
        # 299999 = 3 (mod 4) is no norm in Q(i): its interval adds nothing.
        fam = idd.NormIntervalFamily(field=Qi, intervals=((299998, 299999),
                                                         (1, 2)))
        seen = []
        ideals_of_norm = families.ideals_of_norm
        monkeypatch.setattr(families, "ideals_of_norm",
                            lambda K, n: seen.append(n)
                            or ideals_of_norm(K, n))
        assert [m.norm for m in fam.members_up_to(10**6)] == [2]
        assert [m.norm for m in fam.first_members(3)] == [2]
        assert all(fam.norm_in_intervals(n) for n in seen)
        assert seen == [2, 299999] * 2

    @pytest.mark.parametrize("m", [1, -1, 5, -5, -3])
    def test_first_members_match_enumeration(self, m):
        # The oracle enumerates every ideal of norm <= top and keeps those
        # with norm in the intervals; the walk reads only those norms.
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        top = 400
        ideals = idd.enumerate_ideals(K, top)
        norms = {b.norm for b in ideals}
        rng = random.Random(1000 + m)
        cases = [((3, 9), (6, 12), (40, 60), (300, 400)),     # overlapping
                 ((10, 20), (20, 30), (30, 45), (45, 46))]    # adjacent
        gap = next((n for n in range(2, top) if n not in norms), None)
        if gap is not None:             # an interval holding no norm
            cases.append(((gap - 1, gap), (50, 70)))
        cases += [tuple((lo, lo + rng.randint(1, 60))
                        for lo in rng.sample(range(1, top - 60), 3))
                  for _ in range(4)]
        for intervals in cases:
            fam = idd.NormIntervalFamily(field=K, intervals=intervals,
                                         truncation=rng.randint(1, top))
            oracle = [b for b in ideals if fam.norm_in_intervals(b.norm)]
            for bound in (1, 8, 25, 55, 350, fam.truncation, top):
                assert fam.members_up_to(bound) == [
                    b for b in oracle if b.norm <= bound]
            working = [b for b in oracle if b.norm <= fam.truncation]
            for r in (0, 1, 5, 17, len(working), len(working) + 5):
                assert fam.first_members(r) == working[:r]

    def test_a_limit_reads_norms_not_enumeration(self, Qi, monkeypatch):
        def refuse(K, X):
            raise AssertionError("ideals enumerated")

        fam = idd.NormIntervalFamily(field=Qi, intervals=((100000, 300000),))
        monkeypatch.setattr(idd.NormIntervalFamily, "members_up_to", refuse)
        seq = idd.a_limit(fam, 8)
        monkeypatch.undo()
        members = [idd.make_ideal(Qi, m.factors)
                   for m in idd.enumerate_ideals(Qi, 100020)
                   if m.norm > 100000][:8]
        assert seq == idd.a_limit(idd.ExplicitFamily(field=Qi,
                                                     members=tuple(members)), 8)


class TestFirstMembers:
    def test_explicit_takes_every_member(self, Q):
        fam = int_family(Q, 1000003, 3)
        assert [m.norm for m in fam.first_members(5)] == [3, 1000003]
        assert fam.working_members() == list(fam.members)
        assert idd.families.DEFAULT_TRUNCATION < 1000003

    def test_rules_stop_at_the_truncation(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=2, truncation=100)
        assert [m.norm for m in fam.first_members(10)] == [4, 9, 25, 49]
        assert fam.working_members() == fam.members_up_to(100)
        # r far beyond the family sieves no primes past the truncation
        assert fam.first_members(10**9) == fam.members_up_to(100)


@pytest.mark.parametrize("first", [
    lambda Q, r: idd.fields.first_prime_ideals(Q, r),
    lambda Q, r: idd.PrimePowerFamily(field=Q, l=2).first_members(r),
    lambda Q, r: int_family(Q, 2, 3, 5).first_members(r),
    lambda Q, r: idd.NormIntervalFamily(
        field=Q, intervals=((1, 10),)).first_members(r),
], ids=["first_prime_ideals", "prime_powers", "explicit", "norm_intervals"])
def test_negative_prefix_lengths_are_refused(Q, first):
    assert len(first(Q, 0)) == 0
    with pytest.raises(ValueError, match="must be >= 0"):
        first(Q, -1)


class TestMinimalMembers:
    def test_drops_multiples(self, Q):
        fam = int_family(Q, 2, 4, 6, 9)
        kept = minimal_members(list(fam.members))
        assert [m.norm for m in kept] == [2, 9]

    def test_density_unchanged(self, Q):
        full = int_family(Q, 2, 4, 6, 9, 15)
        reduced = idd.ExplicitFamily(
            field=Q, members=tuple(minimal_members(list(full.members))))
        assert idd.finite_ie_density(full) == idd.finite_ie_density(reduced)
        assert idd.sieve_multiples_density(full, 500) == \
            idd.sieve_multiples_density(reduced, 500)


class TestParseFamily:
    def test_explicit_rational(self, Q):
        fam = idd.parse_family({"field": "Q", "kind": "explicit",
                                "members": [6, 10]})
        assert fam.field == Q
        assert [m.norm for m in fam.members] == [6, 10]

    def test_explicit_gaussian(self, Qi):
        doc = {"field": "Q(sqrt -1)", "kind": "explicit",
               "members": [[[5, 1, 2]], [[2, 0, 1], [5, 0, 1]]]}
        fam = idd.parse_family(doc)
        assert fam.field == Qi
        assert sorted(m.norm for m in fam.members) == [10, 25]

    def test_prime_powers(self, Q):
        fam = idd.parse_family({"field": "Q", "kind": "prime_powers", "l": 3})
        assert fam.l == 3

    def test_norm_intervals(self, Q):
        fam = idd.parse_family({"field": "Q", "kind": "norm_intervals",
                                "intervals": [[10, 20]]})
        assert fam.intervals == ((10, 20),)

    def test_integer_members_rejected_for_quadratic(self):
        with pytest.raises(FamilySpecError):
            idd.parse_family({"field": "Q(sqrt -1)", "kind": "explicit",
                              "members": [6]})

    def test_bad_conjugate_index(self):
        # 3 is inert in Q(i): there is no second prime above it
        with pytest.raises(FamilySpecError):
            idd.parse_family({"field": "Q(sqrt -1)", "kind": "explicit",
                              "members": [[[3, 1, 1]]]})

    def test_repeated_prime_in_a_member(self):
        with pytest.raises(FamilySpecError, match="repeated"):
            idd.parse_family({"field": "Q(sqrt -1)", "kind": "explicit",
                              "members": [[[2, 0, 1], [2, 0, 1]],
                                          [[2, 0, 1], [5, 0, 1]]]})
        fam = idd.parse_family({"field": "Q(sqrt -1)", "kind": "explicit",
                                "members": [[[2, 0, 2]], [[2, 0, 1], [5, 0, 1]]]})
        # Multiples of P^2 or of P*Q, N(P) = 2 and N(Q) = 5: their lcm is
        # P^2*Q, so the density is 1/4 + 1/10 - 1/20.
        assert idd.finite_ie_density(fam) == Fraction(3, 10)

    def test_field_consistency(self, Q):
        with pytest.raises(FamilySpecError):
            idd.parse_family({"field": "Q(sqrt -1)", "kind": "explicit",
                              "members": []}, Q)

    def test_no_field_given(self):
        with pytest.raises(FamilySpecError, match="no field given"):
            idd.parse_family({"kind": "explicit", "members": [2]})

    def test_unknown_kind(self, Q):
        with pytest.raises(FamilySpecError):
            idd.parse_family({"field": "Q", "kind": "mystery"})
