"""Densities of the set of multiples of an ideal family and its complement.

Exact densities of finite families, the limit sequence A_r, the
multiplicative densities B_k over prime-ideal prefixes, exact counts of
multiples at a norm bound, and natural and logarithmic density profiles.

The multiples of a finite family form a monomial ideal in the exponents
of its primes.  The density of their complement is exact, by slicing on
one prime at a time (the recursion for the numerator of a Hilbert series),
and a family too entangled for ``WORK_LIMIT`` raises ``TooLarge``.

Counting at a norm bound X never enumerates ideals.  Over quadratic
fields the multiples of an ideal of norm n with norm <= x are H(x // n)
ideals with harmonic sum L(x // n) / n, so explicit and prime-power
families are counted over their lcm terms.  H and L come from the
field's ``NormCounter``, which holds h in about 2 bytes per norm and H
and L at every 32nd norm: with its cache of 8 counters, at most about
8 * 2.4 bytes * X.
Every other count marks norms on a boolean array of length X: over Q the
norms are the ideals, and in degree <= 2 membership in a norm interval
family depends on the norm alone, a marked norm n counting its h(n)
ideals.  Counts and harmonic sums over the marks come from one walk in
blocks of norms (``ideals.marked_sums``).  Over Q no counter is built:
H(x) = x.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import TooLarge
from .families import (
    AFamily,
    ExplicitFamily,
    NormIntervalFamily,
    PrimePowerFamily,
    minimal_members,  # noqa: F401  (bench/spans.py traces this binding)
)
from .fields import NumberField, first_prime_ideals, sample_grid
from .ideals import (
    Ideal,
    NormCounter,
    count_ideals,
    enumerate_ideals,
    ideal_counts,
    marked_sums,
    rational_harmonic_prefix,
)

#: Most work one exact density may do, counted in generator comparisons.
#: Grouping a generator by one of its primes takes as long as about 16.
WORK_LIMIT = 5 * 10**6


def _ie_terms(members: Sequence[Ideal], X: int) -> list[tuple[int, int]]:
    """Signed lcm terms (N(l), c), in norm order, of the multiples of
    ``members`` of norm <= X: [b in M_A] = sum of c * [l | b] over the
    lcms l of norm <= X, for N(b) <= X.

    Each member a, in norm order, adds +a and -c * lcm(l, a) for every
    term (l, c) so far; non-minimal members cancel out, and so do terms
    that reach c = 0.  As bit sets (``_complement_density``), lcm(l, a) =
    l | a, of norm N(l) N(a) / N(l & a) from a table of a's divisors.
    """
    members = [a for a in sorted(members, key=Ideal.sort_key) if a.norm <= X]
    # prime ideal -> largest exponent, the last of its factors in order
    top = dict(sorted(f for a in members for f in a.factors))
    start = dict(zip(top, itertools.accumulate(top.values(), initial=0)))
    # Terms are bucketed by norm bit length: N(lcm(l, a)) is at least N(l)
    # times N(a) / N(gcd(a, the lcm of the members so far)).
    buckets: list[dict[int, list]] = []     # lcm bits -> [N, c]
    seen = 0
    for a in members:
        norm_of = {0: 1}                    # bits of a's divisors -> norm
        for pr, e in a.factors:
            norm_of = {d | ((1 << j) - 1) << start[pr]: n * pr.norm ** j
                       for d, n in norm_of.items() for j in range(e + 1)}
        g = sum(((1 << e) - 1) << start[pr] for pr, e in a.factors)
        updates = [(g, a.norm, 1)]
        cut = (X * norm_of[g & seen] // a.norm).bit_length()
        for bucket in buckets[:cut + 1]:
            for l, (n, c) in bucket.items():
                n = n * a.norm // norm_of[l & g]
                if n <= X:
                    updates.append((l | g, n, -c))
        for l, n, c in updates:
            while len(buckets) <= n.bit_length():
                buckets.append({})
            bucket = buckets[n.bit_length()]
            term = bucket.setdefault(l, [n, 0])
            term[1] += c
            if not term[1]:
                del bucket[l]
        seen |= g
    return sorted((n, c) for bucket in buckets for n, c in bucket.values())


def _complement_density(block: Sequence[Ideal]) -> Fraction:
    """Exact density of the ideals that no member of a block divides.

    A member is the bit set of its prime-power divisors (pr^e sets the
    first e bits of pr's), so g | h exactly when g & ~h == 0.  Slicing on
    the prime p in most minimal generators G, with exponents
    0 = e_0 < ... < e_m and q = N(p): the ideals with e_i <= v_p < e_(i+1)
    have density q^-e_i - q^-e_(i+1), and avoid G exactly when their part
    off p avoids G_i, the minimal generators with v_p <= e_i, p removed
    (Bayer-Stillman; Bigatti).  Coprime components are split after every
    slice and memoised for the call.  Densities are integer multiples of
    1/D, D the product of N(pr)^(largest exponent), so every division is
    exact.  Raises ``TooLarge`` past ``WORK_LIMIT``.
    """
    if len(block) == 1:
        return 1 - Fraction(1, block[0].norm)
    top: dict = {}                  # prime ideal -> largest exponent
    for a in block:
        for pr, e in a.factors:
            top[pr] = max(top.get(pr, 0), e)
    start = dict(zip(top, itertools.accumulate(top.values(), initial=0)))
    bits = {1 << start[pr]: (((1 << e) - 1) << start[pr], pr.norm)
            for pr, e in top.items()}   # first bit -> (all its bits, norm)
    first, D = sum(bits), math.prod(pr.norm ** e for pr, e in top.items())
    memo: dict = {}
    work = 0

    def spend(n: int) -> None:
        nonlocal work
        work += n
        if work > WORK_LIMIT:
            raise TooLarge(
                f"the exact density of {len(block)} entangled members needs "
                f"more than {WORK_LIMIT} generator comparisons")

    def primes(g: int):             # the first bits of g's primes
        s = g & first
        while s:
            yield s & -s
            s &= s - 1

    def comp(G: frozenset) -> int:
        """D times the density of the ideals that no g in G divides."""
        if not G or 0 in G:         # no generator, or the unit ideal
            return 0 if G else D
        if len(G) == 1:
            (g,) = G
            return D - D // math.prod(q ** (g & mask).bit_count() for mask, q
                                      in map(bits.get, primes(g)))
        if G in memo:
            return memo[G]
        by_prime: dict = {}         # first bit of a prime -> its generators
        for g in G:
            for bit in primes(g):
                by_prime.setdefault(bit, []).append(g)
        spend(16 * sum(map(len, by_prime.values())))
        parts, seen = [], set()     # coprime components, by linked primes
        for bit in by_prime:
            part, todo = set(), [bit]
            while todo:
                if (bit := todo.pop()) not in seen:
                    seen.add(bit)
                    for g in by_prime[bit]:
                        if g not in part:
                            part.add(g)
                            todo += primes(g)
            if part:
                parts.append(part)
        if len(parts) > 1:
            c = D
            for part in parts:
                c = c * comp(frozenset(part)) // D
        else:
            mask, q = bits[max(by_prime, key=lambda b: (len(by_prime[b]), -b))]
            levels: dict = {}       # exponent at p -> generators, p removed
            for g in G:
                levels.setdefault((g & mask).bit_count(), []).append(g & ~mask)
            kept = levels.pop(0, [])
            c = last = comp(frozenset(kept))
            for e in sorted(levels):
                # Generators with one exponent at p do not divide each other.
                spend(len(levels[e]) * len(kept))
                new = [g for g in levels[e] if all(h & ~g for h in kept)]
                kept = [h for h in kept if all(g & ~h for g in new)] + new
                now = comp(frozenset(kept))
                c += (now - last) // q ** e     # exact: q^e divides both
                last = now
        memo[G] = c
        return c

    minimal: list = []              # fewest prime-power divisors first
    for g in sorted((sum(((1 << e) - 1) << start[pr] for pr, e in a.factors)
                     for a in block), key=int.bit_count):
        spend(len(minimal))
        if all(h & ~g for h in minimal):
            minimal.append(g)
    try:
        return Fraction(comp(frozenset(minimal)), D)
    except RecursionError:
        raise TooLarge(f"the exact density of {len(block)} entangled members "
                       f"slices deeper than the recursion limit") from None


def _grow_blocks(members: Sequence[Ideal]):
    """Group members into blocks linked by shared primes, whose complements
    have independent densities.

    After each member this yields the blocks it merged and the block they
    became: a list, the largest merged one extended in place, so blocks
    are told apart by identity.  The members are distinct: an explicit
    family refuses repeats when built, and rules list each ideal once.
    """
    block_of: dict = {}         # prime ideal -> block holding it
    for a in members:
        touched = sorted({id(block_of[pr]): block_of[pr] for pr, _ in a.factors
                          if pr in block_of}.values(), key=len)
        block = touched[-1] if touched else []
        moved = [m for small in touched[:-1] for m in small] + [a]
        block += moved
        for m in moved:
            block_of.update((pr, block) for pr, _ in m.factors)
        yield touched, block


def finite_ie_density(A: AFamily) -> Fraction:
    """Exact density of M_A for a finite family, block by coprime block.

    A family's members are its ``working_members``: all of an explicit
    family, and those of norm <= truncation of a rule, in norm order.
    """
    if isinstance(A, NormIntervalFamily) and A.intervals:
        # No other member divides one of norm in (lo, top] (a proper divisor
        # has norm <= top / 2 <= lo); the n of them on a prime of norm q
        # share its block: C(n, 2) comparisons.
        lo, hi = A.intervals[0]
        top = max(lo, min(hi, 2 * lo + 1, A.truncation))
        qs = [pr.norm for pr in first_prime_ideals(A.field, 8)]
        try:
            H = ideal_counts(A.field, [x // q for q in qs for x in (top, lo)])
        except TooLarge:        # H out of reach: the full path decides
            H = []
        for q, n in zip(qs, map(int.__sub__, H[::2], H[1::2])):
            if n * (n - 1) // 2 > WORK_LIMIT:
                raise TooLarge(f"{n} members share a prime ideal of norm "
                               f"{q}: over {WORK_LIMIT} comparisons")
    blocks: dict = {}           # id -> block
    for merged, block in _grow_blocks(A.working_members()):
        for old in merged:
            del blocks[id(old)]
        blocks[id(block)] = block
    return 1 - math.prod(map(_complement_density, blocks.values()),
                         start=Fraction(1))


def a_limit(A: AFamily, r_max: int) -> list[Fraction]:
    """The nondecreasing sequence A_r = dens(M_{a_1..a_r}), r = 1..r_max.

    Members are taken in norm order.  Only the coprime block the new
    member joins is recomputed, and A_r comes from the running product of
    the blocks' complement densities.
    """
    if r_max < 1:
        raise ValueError("r_max must be >= 1")
    factor_of: dict = {}        # id of a block -> density of its complement
    miss = Fraction(1)          # density of the complement V_A
    out = []
    for merged, block in _grow_blocks(A.first_members(r_max)):
        for old in merged:
            miss /= factor_of.pop(id(old))
        factor_of[id(block)] = _complement_density(block)
        miss *= factor_of[id(block)]
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
    explicit and prime-power families add g * H(x // n) to the count and
    g/n * L(x // n) to the harmonic sum for each lcm term (n, g), read
    from the counter in one ``sums_at`` read of every point (x, n), which
    gathers a bounded number of points at a time.  Every other family marks
    norms: the multiples of its members' norms, or of each n with
    h(n) > 0 in a norm interval; ``marked_sums`` counts the h(n) ideals of
    each marked norm n and adds h(n)/n in ascending n, the same floats as
    adding 1/N(b) member by member.  With ``logs`` false the harmonic sums
    are None.
    """
    K, X = A.field, int(xs[-1])
    if not (K.is_rational or isinstance(A, NormIntervalFamily)):
        terms = _ie_terms(A.members_up_to(X), X)
        ns = np.array([n for n, _ in terms], dtype=np.int64)
        gs = np.array([g for _, g in terms], dtype=np.int64)
        H, L = counter.sums_at(xs[:, None] // ns)
        sums = [float(row.sum()) for row in gs / ns * L] if logs else None
        return (H @ gs).tolist(), sums
    c = np.zeros(X + 1, dtype=bool)
    if isinstance(A, NormIntervalFamily):
        _mark_interval_multiples(c, A.intervals, counter)
    else:
        for a in A.members_up_to(X):
            if not c[a.norm]:       # else its multiples are marked already
                c[a.norm::a.norm] = True
    counts, sums = marked_sums(xs, c, None if counter is None else counter.h,
                               logs)
    return counts.tolist(), sums.tolist() if logs else None


#: Norms above sqrt X per block of ``_mark_interval_multiples``: its int64
#: norms and multiples take 256 KB, half of a fully marked block of sums.
_MARK_BLOCK = 1 << 14


def _mark_interval_multiples(c: np.ndarray, intervals,
                             counter: NormCounter | None) -> None:
    """Mark on c every multiple <= X = c.size - 1 of the norms n in the
    intervals with h(n) > 0 (every n over Q, where counter is None).

    A norm n <= sqrt X marks its multiples by one strided write, unless a
    divisor marked it already.  The larger norms are taken in blocks of
    ``_MARK_BLOCK``: those of a block left unmarked are marked by one write
    per multiplier m <= X // (the block's first norm), so about
    sqrt X + (X / _MARK_BLOCK) log X steps in all, and no array longer than
    a block beside c.
    """
    X = c.size - 1
    r = math.isqrt(X)

    def unmarked(lo, hi):
        # The norms lo <= n < hi in the intervals, with h(n) > 0 and not
        # marked yet, ascending.
        keep = np.zeros(hi - lo, dtype=bool)
        for a, b in intervals:
            keep[max(a + 1 - lo, 0):max(b + 1 - lo, 0)] = True
        keep &= ~c[lo:hi]
        if counter is not None:
            keep &= counter.h[lo:hi] != 0
        return np.flatnonzero(keep) + lo

    for n in unmarked(1, r + 1).tolist():
        if not c[n]:            # else a divisor marked its multiples
            c[n::n] = True
    first = min((a for a, _ in intervals), default=0) + 1
    top = min(max((b for _, b in intervals), default=0), X)
    for lo in range(max(first, r + 1), top + 1, _MARK_BLOCK):
        ns = unmarked(lo, min(lo + _MARK_BLOCK, top + 1))
        for m in range(1, X // lo + 1):
            k = int(np.searchsorted(ns, X // m, side="right"))
            if not k:
                break
            c[ns[:k] * m] = True


def _counter(K: NumberField, X: int) -> NormCounter | None:
    """The field's cached ideal counts up to X; None over Q, where h = 1."""
    return None if K.is_rational else count_ideals(K, X)


def sieve_multiples_density(A: AFamily, X: int) -> Fraction:
    """Exact share of ideals of norm <= X that are multiples of the family.

    Counts every member of norm <= X the same way as ``density_profile``.
    The result is the exact rational count / H(X).
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    counter = _counter(A.field, X)
    (count,), _ = _member_sums(A, np.array([X]), counter, logs=False)
    return Fraction(count, X if counter is None else counter.H_of(X))


# ---------------------------------------------------------------------------
# Restricted families and multiplicative density
# ---------------------------------------------------------------------------

def restrict_family(A: AFamily, k: int) -> ExplicitFamily:
    """Members of A, of norm <= truncation for a rule, supported on the
    first k prime ideals; they are built from powers of those primes."""
    if k < 0:
        raise ValueError("k must be >= 0")
    K = A.field
    if isinstance(A, PrimePowerFamily):
        members = A.first_members(k)
    elif isinstance(A, NormIntervalFamily):
        # With no intervals only O_K (norm 1) is walked, and it is no member.
        top = min(A.truncation, max((hi for _, hi in A.intervals), default=1))
        members = [m for m in enumerate_ideals(K, top,
                                               first_prime_ideals(K, k))
                   if A.norm_in_intervals(m.norm)]
    else:
        allowed = set(first_prime_ideals(K, k))
        members = [m for m in A.working_members()
                   if all(pr in allowed for pr, _ in m.factors)]
    return ExplicitFamily(field=K, members=tuple(members))


@dataclass(frozen=True)
class MultDensityState:
    """B_k = dens(M_{A'}), A' the members of A on the first k primes (for a
    rule family, of norm <= truncation); k is the caller's (Euler product:
    ``partial_euler_product``)."""

    b_k: Fraction


def multiplicative_density(A: AFamily, k: int) -> MultDensityState:
    """Multiplicative density step B_k, computed exactly as dens(M_{A'})."""
    return MultDensityState(finite_ie_density(restrict_family(A, k)))


# ---------------------------------------------------------------------------
# Density profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityReport:
    """Sampled natural (exact) and logarithmic (float) density ratios; the
    tail estimates d/D and delta/Delta are their min/max over the last
    half of the sample window."""

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

    def table(self) -> tuple[tuple[str, ...], list[tuple]]:
        """The columns x, multiple_count, total_count, natural_ratio (as a
        float) and log_ratio, and one row per sample point."""
        return (("x", "multiple_count", "total_count", "natural_ratio",
                 "log_ratio"),
                list(zip(self.sample_points, self.member_counts,
                         self.total_counts, map(float, self.natural_ratios),
                         self.log_ratios)))

    def complement(self) -> "DensityReport":
        """Profile of the complement set; ratios satisfy M + V = 1 exactly."""
        return DensityReport(
            sample_points=self.sample_points,
            member_counts=tuple(t - m for m, t in
                                zip(self.member_counts, self.total_counts)),
            total_counts=self.total_counts,
            natural_ratios=tuple(1 - r for r in self.natural_ratios),
            log_ratios=tuple(1.0 - r for r in self.log_ratios))


def density_profile(A: AFamily, X: int = 10**4,
                    n_samples: int = 24) -> DensityReport:
    """Single-pass natural and logarithmic density profile of M_A up to X.

    Every member of norm <= X counts, whatever the family's truncation.
    Counts are exact integers; harmonic sums are floating point.
    """
    if X < 100:
        raise ValueError("X must be >= 100")
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    counter = _counter(A.field, X)
    xs = sample_grid(10, X, n_samples)
    member_counts, log_num = _member_sums(A, xs, counter)
    if counter is None:
        total_counts = xs.tolist()              # H(x) = x over Q
        L = rational_harmonic_prefix(tuple(total_counts))
    else:
        H, L = counter.sums_at(xs)
        total_counts, L = H.tolist(), L.tolist()
    natural = tuple(Fraction(m, t) for m, t in zip(member_counts, total_counts))
    log_ratios = tuple(n / d for n, d in zip(log_num, L))
    return DensityReport(sample_points=tuple(int(x) for x in xs),
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
