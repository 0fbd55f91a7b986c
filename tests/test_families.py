import pytest

import idealdensity as idd
from idealdensity.errors import FamilySpecError, FieldMismatch
from idealdensity import families
from idealdensity.families import minimal_members

from conftest import int_family


class TestExplicitFamily:
    def test_is_multiple(self, Q):
        fam = int_family(Q, 4, 9)
        assert fam.is_multiple(idd.integer_ideal(Q, 12))
        assert not fam.is_multiple(idd.integer_ideal(Q, 6))

    def test_members_sorted(self, Q):
        fam = int_family(Q, 9, 4, 25)
        assert [m.norm for m in fam.members] == [4, 9, 25]
        assert [m.norm for m in fam.members_up_to(10)] == [4, 9]

    def test_field_mismatch(self, Q, Qi):
        fam = int_family(Q, 2)
        with pytest.raises(FieldMismatch):
            fam.is_multiple(idd.unit_ideal(Qi))


class TestPrimePowerFamily:
    def test_squarefull_membership(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=2)
        assert fam.is_multiple(idd.integer_ideal(Q, 8))
        assert not fam.is_multiple(idd.integer_ideal(Q, 6))
        assert not fam.is_multiple(idd.unit_ideal(Q))

    def test_members(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=2)
        assert [m.norm for m in fam.members_up_to(50)] == [4, 9, 25, 49]

    def test_members_gaussian(self, Qi):
        fam = idd.PrimePowerFamily(field=Qi, l=2)
        # squares of the primes of norm 2, 5, 5
        assert [m.norm for m in fam.members_up_to(30)] == [4, 25, 25]

    def test_all_primes(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=1)
        assert fam.is_multiple(idd.integer_ideal(Q, 2))
        assert not fam.is_multiple(idd.unit_ideal(Q))

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


class TestNormIntervalFamily:
    def test_membership_via_divisor_norms(self, Q):
        fam = idd.NormIntervalFamily(field=Q, intervals=((10, 20),))
        assert fam.is_multiple(idd.integer_ideal(Q, 24))   # divisor 12
        assert fam.is_multiple(idd.integer_ideal(Q, 11))
        assert not fam.is_multiple(idd.integer_ideal(Q, 9))
        assert not fam.is_multiple(idd.integer_ideal(Q, 46))  # divisors 1,2,23,46

    def test_members(self, Q):
        fam = idd.NormIntervalFamily(field=Q, intervals=((10, 13), (100, 200)))
        assert [m.norm for m in fam.members_up_to(50)] == [11, 12, 13]

    def test_validation(self, Q):
        with pytest.raises(FamilySpecError):
            idd.NormIntervalFamily(field=Q, intervals=((20, 10),))

    def test_interval_without_ideal_norms_enumerates_nothing(
            self, Qi, monkeypatch):
        # 299999 = 3 (mod 4) is no norm in Q(i); H shows it in O(sqrt x).
        fam = idd.NormIntervalFamily(field=Qi, intervals=((299998, 299999),
                                                         (1, 2)))
        bounds = []
        enumerate_ideals = families.enumerate_ideals
        monkeypatch.setattr(families, "enumerate_ideals",
                            lambda K, X: bounds.append(X)
                            or enumerate_ideals(K, X))
        assert [m.norm for m in fam.members_up_to(10**6)] == [2]
        assert bounds == [2]


    @pytest.mark.parametrize("m", [1, -1, 5, -5])
    def test_first_members_match_enumeration(self, m):
        K = idd.make_rational_field() if m == 1 else idd.make_quadratic_field(m)
        fam = idd.NormIntervalFamily(
            field=K, intervals=((3, 9), (6, 12), (40, 60), (300, 400)),
            truncation=350)
        members = fam.members_up_to(fam.truncation)
        for r in (1, 5, 17, len(members), len(members) + 5):
            assert fam.first_members(r) == members[:r]

    def test_a_limit_reads_norms_not_enumeration(self, Qi, monkeypatch):
        def refuse(K, X):
            raise AssertionError("ideals enumerated")

        fam = idd.NormIntervalFamily(field=Qi, intervals=((100000, 300000),))
        monkeypatch.setattr(families, "enumerate_ideals", refuse)
        seq = idd.a_limit(fam, 8)
        monkeypatch.undo()
        members = [idd.make_ideal(Qi, m.factors)
                   for m in idd.enumerate_ideals(Qi, 100020)
                   if m.norm > 100000][:8]
        assert seq == idd.a_limit(members, 8)


class TestFirstMembers:
    def test_explicit_takes_every_member(self, Q):
        fam = int_family(Q, 1000003, 3)
        assert [m.norm for m in fam.first_members(5)] == [3, 1000003]
        assert fam.working_members() == list(fam.members)
        assert fam.truncation < 1000003

    def test_rules_stop_at_the_truncation(self, Q):
        fam = idd.PrimePowerFamily(field=Q, l=2, truncation=100)
        assert [m.norm for m in fam.first_members(10)] == [4, 9, 25, 49]
        assert fam.working_members() == fam.members_up_to(100)
        # r far beyond the family sieves no primes past the truncation
        assert fam.first_members(10**9) == fam.members_up_to(100)


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

    def test_field_consistency(self, Q):
        with pytest.raises(FamilySpecError):
            idd.parse_family({"field": "Q(sqrt -1)", "kind": "explicit",
                              "members": []}, Q)

    def test_unknown_kind(self, Q):
        with pytest.raises(FamilySpecError):
            idd.parse_family({"field": "Q", "kind": "mystery"})
