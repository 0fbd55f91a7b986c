"""Families of ideals whose multiples define the sets studied here.

A family is either an explicit finite list of ideals, the rule "all l-th
powers of prime ideals", or the rule "all ideals with norm in a union of
intervals".  Rule-based families list their members in nondecreasing
norm order with the global deterministic tie-break, up to a truncation
norm that makes them finite.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .errors import DuplicateMembers, FamilySpecError, FieldMismatch
from .fields import (NumberField, first_prime_ideals, parse_field,
                     primes_up_to_norm, split_prime)
from .ideals import Ideal, divides, ideals_of_norm, integer_ideal, make_ideal

#: Default truncation norm used to make rule-based families finite.
DEFAULT_TRUNCATION = 10**6


def _integer_root(n: int, k: int) -> int:
    """Largest r with r**k <= n (0 for n < 1): Newton steps on integers,
    down from 2^ceil(bits(n)/k) > root, never below it (AM-GM)."""
    if n < 1:
        return 0
    if k >= n.bit_length():
        return 1                # 2^k > n, and 2^(k-1) is never built
    r = 1 << -(-n.bit_length() // k)
    while (s := ((k - 1) * r + n // r ** (k - 1)) // k) < r:
        r = s
    return r


class AFamily:
    """Base class; concrete families list their members in norm order, and
    rule families (not explicit ones) stop at a ``truncation`` norm."""

    field: NumberField
    kind: str

    def members_up_to(self, bound: int) -> list[Ideal]:
        raise NotImplementedError

    def working_members(self) -> list[Ideal]:
        """The members that limit densities take: those of norm <= truncation."""
        return self.members_up_to(self.truncation)

    def first_members(self, r: int) -> list[Ideal]:
        """The first r working members in norm order (all, if fewer)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ExplicitFamily(AFamily):
    """A finite set of ideals, kept in norm order.  A member given twice
    raises ``DuplicateMembers`` here, so every path that reads the members
    sees each once."""

    field: NumberField
    members: tuple[Ideal, ...]
    kind = "explicit"

    def __post_init__(self):
        for m in self.members:
            if m.field != self.field:
                raise FieldMismatch("family member from a different field")
        if len(set(self.members)) < len(self.members):
            raise DuplicateMembers("family has repeated members")
        ordered = tuple(sorted(self.members, key=Ideal.sort_key))
        object.__setattr__(self, "members", ordered)

    def members_up_to(self, bound: int) -> list[Ideal]:
        return [m for m in self.members if m.norm <= bound]

    def working_members(self) -> list[Ideal]:
        """Every member: the family is finite, so nothing is truncated."""
        return list(self.members)

    def first_members(self, r: int) -> list[Ideal]:
        return list(self.members[:r])


@dataclass(frozen=True)
class PrimePowerFamily(AFamily):
    """All ideals p^l with p prime; l = 1 means all prime ideals."""

    field: NumberField
    l: int
    truncation: int = DEFAULT_TRUNCATION
    kind = "prime_powers"

    def __post_init__(self):
        if self.l < 1:
            raise FamilySpecError("prime_powers exponent must be >= 1")

    def members_up_to(self, bound: int) -> list[Ideal]:
        q_max = _integer_root(bound, self.l)
        if q_max < 2:
            return []
        return [make_ideal(self.field, [(pr, self.l)])
                for pr in primes_up_to_norm(self.field, q_max)]

    def first_members(self, r: int) -> list[Ideal]:
        """The l-th powers of the first r prime ideals, those of norm <=
        truncation, built once from the first r primes."""
        q_max = _integer_root(self.truncation, self.l)
        return [make_ideal(self.field, [(pr, self.l)])
                for pr in first_prime_ideals(self.field, r, bound=q_max)]


@dataclass(frozen=True)
class NormIntervalFamily(AFamily):
    """All ideals with norm in a union of half-open intervals (lo, hi].
    Membership depends on the norm alone: every member list walks the norms
    in the intervals, each norm's ideals built from its factorization."""

    field: NumberField
    intervals: tuple[tuple[int, int], ...]
    truncation: int = DEFAULT_TRUNCATION
    kind = "norm_intervals"

    def __post_init__(self):
        ivs = tuple(sorted((int(lo), int(hi)) for lo, hi in self.intervals))
        if any(lo < 1 or hi <= lo for lo, hi in ivs):
            raise FamilySpecError("intervals must satisfy 1 <= lo < hi")
        object.__setattr__(self, "intervals", ivs)

    def norm_in_intervals(self, n: int) -> bool:
        return any(lo < n <= hi for lo, hi in self.intervals)

    def _walk(self, bound: int):
        # The ideals of each norm n <= bound in the intervals, n ascending.
        n = 1
        for lo, hi in self.intervals:
            n = max(n, lo + 1)
            while n <= min(hi, bound):
                yield from ideals_of_norm(self.field, n)
                n += 1

    def members_up_to(self, bound: int) -> list[Ideal]:
        return list(self._walk(bound))

    def first_members(self, r: int) -> list[Ideal]:
        return list(islice(self._walk(self.truncation), r))


def minimal_members(members: list[Ideal]) -> list[Ideal]:
    """Drop members that are multiples of other members; M_A is unchanged."""
    ordered = sorted(members, key=Ideal.sort_key)
    kept: list[Ideal] = []
    for m in ordered:
        if not any(divides(a, m) for a in kept):
            kept.append(m)
    return kept


def _ints(value, size: int) -> bool:
    # A list (or tuple) of `size` JSON integers; bools and floats fail.
    return (isinstance(value, (list, tuple)) and len(value) == size
            and all(type(v) is int for v in value))


def _ideal_from_exponent_spec(K: NumberField, entries) -> Ideal:
    factors: dict = {}
    for entry in entries:
        if not _ints(entry, 3):
            raise FamilySpecError(f"bad factor entry {entry!r}")
        p, conj, e = entry
        if e < 1:
            raise FamilySpecError("exponents must be >= 1")
        above = split_prime(K, p)
        if conj >= len(above) or conj < 0:
            raise FamilySpecError(
                f"conjugate index {conj} invalid for p={p} in {K.label()}")
        if above[conj][0] in factors:
            raise FamilySpecError(f"prime ({p}, {conj}) repeated in a member")
        factors[above[conj][0]] = e
    return make_ideal(K, factors.items())


def _positive_int(doc: dict, key: str, default=None) -> int:
    value = doc.get(key, default)
    if type(value) is not int or value < 1:
        raise FamilySpecError(f"{key!r} must be an integer >= 1, got {value!r}")
    return value


def parse_family(doc: dict, K: NumberField | None = None) -> AFamily:
    """Build a family from its JSON specification document.

    Keys: "field" (a label string), "kind" in {explicit, prime_powers,
    norm_intervals}, the kind's required payload ("members", "l", or
    "intervals") and an optional integer "truncation" >= 1; a missing
    payload or any other key is refused by name.  Explicit members over
    Q are positive integers; over quadratic fields they are lists of
    (p, conjugate_index, exponent) triples.  Intervals are [lo, hi] pairs
    of integers.  A malformed document raises ``FamilySpecError``.
    """
    if not isinstance(doc, dict):
        raise FamilySpecError("family specification must be a JSON object")
    if "field" in doc:
        if not isinstance(doc["field"], str):
            raise FamilySpecError("'field' must be a field label string")
        doc_field = parse_field(doc["field"])
        if K is not None and doc_field != K:
            raise FamilySpecError(
                f"family field {doc_field.label()} does not match {K.label()}")
        K = doc_field
    if K is None:
        raise FamilySpecError("no field given")
    kind = doc.get("kind")
    truncation = _positive_int(doc, "truncation", DEFAULT_TRUNCATION)
    payloads = {"explicit": "members", "prime_powers": "l",
                "norm_intervals": "intervals"}
    if type(kind) is not str or kind not in payloads:
        raise FamilySpecError(f"unknown family kind {kind!r}")
    for key in doc:
        if key not in ("field", "kind", "truncation", payloads[kind]):
            raise FamilySpecError(f"unknown key {key!r} for kind {kind!r}")
    if kind == "explicit":
        specs = doc.get("members")
        if not isinstance(specs, (list, tuple)):
            raise FamilySpecError("'members' must be a list")
        members = []
        for spec in specs:
            if type(spec) is int:
                if not K.is_rational:
                    raise FamilySpecError(
                        "integer members are only valid over Q; use "
                        "(p, conjugate_index, exponent) factor lists")
                if spec < 1:
                    raise FamilySpecError(f"member {spec} is not positive")
                members.append(integer_ideal(K, spec))
            elif isinstance(spec, (list, tuple)):
                members.append(_ideal_from_exponent_spec(K, spec))
            else:
                raise FamilySpecError(f"bad member {spec!r}")
        return ExplicitFamily(field=K, members=tuple(members))
    if kind == "prime_powers":
        return PrimePowerFamily(field=K, l=_positive_int(doc, "l"),
                                truncation=truncation)
    intervals = doc.get("intervals")
    if not (isinstance(intervals, (list, tuple))
            and all(_ints(iv, 2) for iv in intervals)):
        raise FamilySpecError(
            "'intervals' must be a list of [lo, hi] integer pairs")
    return NormIntervalFamily(field=K, intervals=tuple(map(tuple, intervals)),
                              truncation=truncation)
