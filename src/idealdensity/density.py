"""Densities of the set of multiples of an ideal family and its complement.

Implements the exact inclusion-exclusion density for finite families, the
limit sequence A_r, the multiplicative densities B_k over prime-ideal
prefixes, exact finite-X counts of multiples, and empirical natural and
logarithmic density profiles.

Counting at a norm bound X is needed only at the sample points x of a
profile (and at X for the sieve ratio), and never enumerates ideals.
Over quadratic fields the multiples of an ideal of norm n with norm <= x
are H(x // n) ideals whose harmonic sum is L(x // n) / n, where H and the
harmonic prefix L of the field are kept by its ``NormCounter``; so
inclusion-exclusion over the lcms of explicit and prime-power families
gives exact counts from one short vector of terms per sample point.
Every other count is a strided marking of norms on one boolean array of
length X: over Q the marked norms are the ideals themselves, and for norm
intervals over any field of degree <= 2 membership depends on the norm
alone, each marked norm n counting its h(n) ideals.  The counts and
harmonic sums of the marks are running sums read at the sample points,
added in blocks of norms (``ideals.prefix_sums_at``).  A block in which
fewer than half of the norms are marked gives the harmonic terms of its
marked norms only, and may give none: an unmarked norm adds +0.0, so the
sums are the same bit for bit.  Over Q, where H(x) = x and h = 1, no
counter is built at all: the field's harmonic prefix at the sample
points is ``ideals.rational_harmonic_prefix``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import DuplicateMembers, FieldMismatch, TooLarge
from .families import (
    AFamily,
    ExplicitFamily,
    NormIntervalFamily,
    PrimePowerFamily,
    minimal_members,  # noqa: F401  (bench/spans.py traces this binding)
)
from .fields import NumberField, first_prime_ideals, sample_grid
from .ideals import (
    _L_BLOCK,
    Ideal,
    NormCounter,
    count_ideals,
    divides,
    enumerate_ideals,
    make_ideal,
    prefix_sums_at,
    rational_harmonic_prefix,
)
from .zeta import EulerProductState, partial_euler_product

#: Largest family block handled by exact inclusion-exclusion (2^cap subsets).
SUBSET_CAP = 20


def _ie_terms(members: Sequence[Ideal],
              X: int | None = None) -> list[tuple[int, int]]:
    """Signed lcm terms whose multiples add up to the multiples of ``members``.

    Returns pairs (N(l), c) in nondecreasing norm order, with
    [b in M_A] = sum of c * [l | b] over the lcm terms l.  Members are added in
    norm order, and each new member a adds +a and -c * lcm(l, a) for every
    term (l, c) so far, into one dict keyed by the lcm's factorization.
    Non-minimal members (and everything after the unit ideal) cancel out
    by themselves.  Terms whose coefficient reaches 0 are dropped, and with
    a bound X so are lcms of norm above X.
    """
    # Terms are bucketed by the bit length of their norm: lcm(l, a) has
    # norm at least N(l) times the norm of a's part off the support so
    # far, so with a bound only the buckets below that limit are scanned.
    buckets: list[dict[frozenset, list]] = []   # lcm factors -> [N, exps, c]
    support: set = set()
    for a in sorted(members, key=Ideal.sort_key):
        if X is not None and a.norm > X:
            break
        exps_a = dict(a.factors)
        scan = buckets
        if X is not None:
            fresh = 1
            for pr, e in a.factors:
                if pr not in support:
                    fresh *= pr.norm ** e
            scan = buckets[:(X // fresh).bit_length() + 1]
        updates = [(a.norm, exps_a, 1)]
        for bucket in scan:
            for n, exps, c in bucket.values():
                lcm = dict(exps)
                for pr, e in a.factors:
                    old = lcm.get(pr, 0)
                    if e > old:
                        lcm[pr] = e
                        n *= pr.norm ** (e - old)
                if X is None or n <= X:
                    updates.append((n, lcm, -c))
        for n, exps, c in updates:
            while len(buckets) <= n.bit_length():
                buckets.append({})
            bucket = buckets[n.bit_length()]
            key = frozenset(exps.items())
            term = bucket.setdefault(key, [n, exps, 0])
            term[2] += c
            if not term[2]:
                del bucket[key]
        support.update(exps_a)
    return sorted((n, c) for bucket in buckets for n, _, c in bucket.values())


def _union_density(members: Sequence[Ideal]) -> Fraction:
    """Exact density of the multiples of a finite list of ideals.

    The terms c / N(l) are added over their common denominator, the lcm
    of the N(l), so the sum is reduced once.
    """
    terms = _ie_terms(members)
    d = math.lcm(*(n for n, _ in terms))
    return Fraction(sum(c * (d // n) for n, c in terms), d)


def _grow_blocks(members: Sequence[Ideal], subset_cap: int):
    """Group members, in norm order, into coprime blocks of minimal members.

    Blocks of members with disjoint prime support contribute independently
    to the density of M_A.  After each member this yields the blocks it
    merged and the block they became, or ``((), None)`` when an earlier
    member divides it and M_A is unchanged.  A later member divides an
    earlier one only if they are equal, so blocks only grow.  Raises
    ``DuplicateMembers`` and ``TooLarge`` at the first prefix that has them.
    """
    seen: set[Ideal] = set()
    block_of: dict = {}         # prime ideal -> block holding it
    after_unit = False
    for a in members:
        if a in seen:
            raise DuplicateMembers("family has repeated members")
        seen.add(a)
        touched = tuple({block_of[pr] for pr, _ in a.factors
                         if pr in block_of})
        joined = tuple(m for block in touched for m in block)
        # A kept member dividing a shares its primes, unless it is the unit.
        if after_unit or any(divides(m, a) for m in joined):
            yield (), None
            continue
        block = joined + (a,)
        if len(block) > subset_cap:
            raise TooLarge(
                f"{len(block)} mutually entangled members exceed the "
                f"inclusion-exclusion cap {subset_cap}")
        for pr, _ in a.factors:
            block_of[pr] = block
        for m in joined:
            for pr, _ in m.factors:
                block_of[pr] = block
        after_unit = a.is_unit
        yield touched, block


def finite_ie_density(A: AFamily | Sequence[Ideal],
                      subset_cap: int = SUBSET_CAP) -> Fraction:
    """Exact density of M_A for a finite family, by inclusion-exclusion.

    Members that are multiples of other members are dropped (M_A is
    unchanged), and members with pairwise disjoint prime support are
    factored into independent blocks, so the subset cap applies per block
    of mutually entangled members.  A family's members are its
    ``working_members``: all of an explicit family, and those of norm
    <= truncation of a rule.
    """
    members = A.working_members() if isinstance(A, AFamily) else list(A)
    if len(set(members)) != len(members):
        raise DuplicateMembers("family has repeated members")
    blocks: set = set()
    for merged, block in _grow_blocks(sorted(members, key=Ideal.sort_key),
                                      subset_cap):
        if block is not None:
            blocks.difference_update(merged)
            blocks.add(block)
    miss = Fraction(1)          # density of the complement V_A
    for block in blocks:
        miss *= 1 - _union_density(block)
    return 1 - miss


def a_limit(A: AFamily | Sequence[Ideal], r_max: int,
            subset_cap: int = SUBSET_CAP) -> list[Fraction]:
    """The sequence A_r = dens(M_{a_1..a_r}), r = 1..r_max.

    Members are taken in nondecreasing norm order; the sequence is
    nondecreasing with upper bound 1.  Only the coprime block the new
    member joins is recomputed, and A_r comes from the running product of
    the blocks' complement densities.  Errors are raised at the same
    prefix as ``finite_ie_density`` of that prefix would raise them.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    if isinstance(A, AFamily):
        members = A.first_members(r_max)
    else:
        members = sorted(A, key=Ideal.sort_key)
    factor_of: dict = {}        # block -> density of its complement
    miss = Fraction(1)          # density of the complement V_A
    out = []
    for merged, block in _grow_blocks(members[:r_max], subset_cap):
        if block is not None:
            for old in merged:
                miss /= factor_of.pop(old)
            factor_of[block] = 1 - _union_density(block)
            miss *= factor_of[block]
        out.append(1 - miss)
    return out


# ---------------------------------------------------------------------------
# Counting at a norm bound
# ---------------------------------------------------------------------------

def _member_sums(A: AFamily, xs: np.ndarray, counter: NormCounter | None,
                 logs: bool = True) -> tuple[list[int], list[float] | None]:
    """Member counts, and sums of 1/N(b) over members b, at each x in xs.

    ``counter`` holds the ideal counts of a quadratic field up to
    X = xs[-1]; over Q, where h = 1, it is None.  Over quadratic fields,
    explicit and prime-power families are summed over their lcm terms
    (n, g): the multiples of an ideal of norm n with norm <= x are the
    ideals of norm <= x // n times it, so they add g * H[x // n] to the
    count and g/n * L[x // n] to the harmonic sum.  Every other family is
    counted by strided marks on a boolean array indexed by norm.  Over Q
    the norms are the ideals themselves.  A norm-interval family marks
    the multiples of each n in its intervals with h(n) > 0: in degree
    <= 2 an ideal b has a divisor of norm n exactly when n | N(b) and
    h(n) > 0, so a marked norm counts all of its h(n) ideals.  Counts and
    harmonic sums are running sums over the marks in blocks of norms,
    added in ascending norm order, so they give the same floats as adding
    1/N(b) over the members one by one; a block with fewer marked norms
    than unmarked ones divides at its marked norms only.  With ``logs``
    false the harmonic sums are not computed.
    """
    K, X = A.field, int(xs[-1])
    if not (K.is_rational or isinstance(A, NormIntervalFamily)):
        terms = _ie_terms(A.members_up_to(X), X)
        ns = np.array([n for n, _ in terms], dtype=np.int64)
        gs = np.array([g for _, g in terms], dtype=np.int64)
        counts = [int(gs @ counter.H[x // ns]) for x in xs.tolist()]
        if not logs:
            return counts, None
        w, L = gs / ns, counter.L
        return counts, [float((w * L[x // ns]).sum()) for x in xs.tolist()]
    c = np.zeros(X + 1, dtype=bool)
    if isinstance(A, NormIntervalFamily):
        norms = (n for lo, hi in A.intervals
                 for n in range(lo + 1, min(hi, X) + 1)
                 if counter is None or counter.h_of(n))
    else:
        norms = (a.norm for a in A.members_up_to(X))
    for n in norms:
        if not c[n]:                # else its multiples are marked already
            c[n::n] = True

    def weights(lo, hi):
        # A marked norm counts its h(n) ideals.
        if counter is None:
            return c[lo:hi]
        h = counter.h_block(lo, hi)
        return np.multiply(h, c[lo:hi], out=h)

    steps = np.arange(min(X, _L_BLOCK), dtype=np.float64)
    buf = np.empty_like(steps)

    def harmonic(lo, hi):
        # An unmarked norm adds +0.0, which leaves the running sum as it
        # is, so a sparse block gives the terms of its marked norms only.
        marks = c[lo:hi]
        if _is_sparse(marks):
            nz = np.flatnonzero(marks)
            k = steps[nz]
            k += lo
            if counter is None:
                return np.divide(1.0, k, out=k)
            nz += lo
            return np.divide(counter.H[nz] - counter.H[nz - 1], k, out=k)
        k = np.add(steps[:hi - lo], lo, out=buf[:hi - lo])
        return np.divide(weights(lo, hi), k, out=k)

    counts = prefix_sums_at(weights, xs)
    return counts, prefix_sums_at(harmonic, xs) if logs else None


def _is_sparse(marks: np.ndarray) -> bool:
    """True when fewer than half of a block's norms are marked."""
    return 2 * np.count_nonzero(marks) < marks.size


def _counter(K: NumberField, X: int) -> NormCounter | None:
    """The field's cached ideal counts up to X; None over Q, where h = 1."""
    return None if K.is_rational else count_ideals(K, X)


def sieve_multiples_density(A: AFamily | Sequence[Ideal], X: int,
                            K: NumberField | None = None) -> Fraction:
    """Exact share of ideals of norm <= X that are multiples of the family.

    Counts every member of norm <= X the same way as ``density_profile``.
    The result is the exact rational count / H(X).  ``K`` names the field
    of an empty member list; a ``K`` other than the family's field raises
    ``FieldMismatch``.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    if not isinstance(A, AFamily):
        if K is None and not A:
            raise ValueError("empty member list needs an explicit field")
        A = ExplicitFamily(field=A[0].field if A else K, members=tuple(A))
    if K is not None and K != A.field:
        raise FieldMismatch(
            f"family over {A.field.label()}, field {K.label()} given")
    counter = _counter(A.field, X)
    (count,), _ = _member_sums(A, np.array([X]), counter, logs=False)
    return Fraction(count, X if counter is None else counter.H_of(X))


# ---------------------------------------------------------------------------
# Restricted families and multiplicative density
# ---------------------------------------------------------------------------

def restrict_family(A: AFamily, k: int) -> ExplicitFamily:
    """Members of A supported entirely on the first k prime ideals.

    Rule-based families are truncated at the family's working norm bound,
    which keeps the restriction finite; the omitted members contribute at
    most the tail of sum 1/N(a).  Their restricted members are built from
    the powers of the k primes, so no other ideal is enumerated.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    K = A.field
    primes = first_prime_ideals(K, k)
    if isinstance(A, PrimePowerFamily):
        members = [make_ideal(K, [(pr, A.l)]) for pr in primes
                   if pr.norm ** A.l <= A.truncation]
    elif isinstance(A, NormIntervalFamily):
        top = min(A.truncation, max(hi for _, hi in A.intervals))
        members = [m for m in enumerate_ideals(K, top, primes)
                   if A.norm_in_intervals(m.norm)]
    else:
        allowed = set(primes)
        members = [m for m in A.working_members()
                   if all(pr in allowed for pr, _ in m.factors)]
    return ExplicitFamily(field=K, members=tuple(members))


@dataclass(frozen=True)
class MultDensityState:
    """B_k = dens(M_{A'}) for the restriction A' to the first k primes.

    ``method`` is "inclusion-exclusion" when B_k is exact, or "sieve" when
    the restriction defeated it and B_k is the finite-X sieve ratio at the
    family's truncation bound.
    """

    k: int
    euler_product: EulerProductState
    b_k: Fraction
    restricted_members: tuple[Ideal, ...]
    method: str


def multiplicative_density(A: AFamily, k: int,
                           subset_cap: int = SUBSET_CAP) -> MultDensityState:
    """Multiplicative density step B_k, computed as dens(M_{A'}).

    Falls back to the sieve count (at the family truncation bound) if the
    restricted family defeats exact inclusion-exclusion, and says so in
    the state's ``method``.
    """
    restricted = restrict_family(A, k)
    try:
        b_k = finite_ie_density(restricted, subset_cap=subset_cap)
        method = "inclusion-exclusion"
    except TooLarge:
        b_k = sieve_multiples_density(restricted, X=A.truncation)
        method = "sieve"
    pi_k = partial_euler_product(A.field, k=k)
    return MultDensityState(k=k, euler_product=pi_k, b_k=b_k,
                            restricted_members=restricted.members,
                            method=method)


# ---------------------------------------------------------------------------
# Density profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    """Sampled natural and logarithmic density ratios with tail estimates.

    Natural ratios are exact rationals (integer counts); logarithmic
    ratios are floating point.  The tail estimates d/D (natural) and
    delta/Delta (logarithmic) are min/max over the last half of the
    sample window.
    """

    field: NumberField
    X: int
    sample_points: tuple[int, ...]
    member_counts: tuple[int, ...]
    total_counts: tuple[int, ...]
    natural_ratios: tuple[Fraction, ...]
    log_ratios: tuple[float, ...]

    @property
    def tail_start(self) -> int:
        return len(self.sample_points) // 2

    @property
    def d_lower(self) -> Fraction:
        return min(self.natural_ratios[self.tail_start:])

    @property
    def d_upper(self) -> Fraction:
        return max(self.natural_ratios[self.tail_start:])

    @property
    def delta_lower(self) -> float:
        return min(self.log_ratios[self.tail_start:])

    @property
    def delta_upper(self) -> float:
        return max(self.log_ratios[self.tail_start:])

    def complement(self) -> "DensityReport":
        """Profile of the complement set; ratios satisfy M + V = 1 exactly.

        Counts are complemented against the totals; ratio arrays are
        complemented in place of a second harmonic-sum pass (exact
        rational harmonic sums are infeasible at desk scale).
        """
        return DensityReport(
            field=self.field, X=self.X, sample_points=self.sample_points,
            member_counts=tuple(t - m for m, t in
                                zip(self.member_counts, self.total_counts)),
            total_counts=self.total_counts,
            natural_ratios=tuple(1 - r for r in self.natural_ratios),
            log_ratios=tuple(1.0 - r for r in self.log_ratios))


def density_profile(A: AFamily, X: int = 10**4,
                    n_samples: int = 24) -> DensityReport:
    """Single-pass natural and logarithmic density profile of M_A up to X.

    Every member of norm <= X counts, whatever the family's truncation.
    Counts are exact integers; harmonic sums are floating point, and the
    field's own come from the counter's cached prefix L, or over Q from
    the memoised ``rational_harmonic_prefix`` at the sample points.
    """
    if X < 100:
        raise ValueError("X must be >= 100")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    K = A.field
    counter = _counter(K, X)
    xs = sample_grid(10, X, n_samples)
    # Members first: marking arrays are freed before L is built, if this
    # is the first profile on the counter.
    member_counts, log_num = _member_sums(A, xs, counter)
    if counter is None:
        total_counts = xs.tolist()              # H(x) = x over Q
        L = rational_harmonic_prefix(tuple(total_counts))
    else:
        total_counts = counter.H[xs].tolist()
        L = counter.L[xs].tolist()
    natural = tuple(Fraction(m, t) for m, t in zip(member_counts, total_counts))
    log_ratios = tuple(n / d for n, d in zip(log_num, L))
    return DensityReport(field=K, X=X, sample_points=tuple(int(x) for x in xs),
                         member_counts=tuple(member_counts),
                         total_counts=tuple(total_counts),
                         natural_ratios=natural, log_ratios=log_ratios)


def check_density_inequality(report: DensityReport,
                             slack: float = 1e-3) -> tuple[bool, dict]:
    """Finite-sample check of d <= delta <= Delta <= D with declared slack.

    Returns (ok, margins); margins are delta - d and D - Delta, which the
    check requires to be >= -slack.
    """
    n_tail = len(report.sample_points) - report.tail_start
    if n_tail < 4:
        raise ValueError("need at least 4 tail samples")
    lower_margin = report.delta_lower - float(report.d_lower)
    upper_margin = float(report.d_upper) - report.delta_upper
    ok = lower_margin >= -slack and upper_margin >= -slack
    return ok, {"lower_margin": lower_margin, "upper_margin": upper_margin}
