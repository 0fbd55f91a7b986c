"""Factored-representation arithmetic on integral ideals and norm counting.

Every nonzero integral ideal is stored as its sorted prime factorization,
so divisibility, gcd, lcm (= intersection) and norms are exact
exponent-vector operations.  Counting by norm is done three ways, so
each can check the others.  ``ideal_count`` gives H(x) at one point in
O(sqrt x) by the Dirichlet hyperbola method over zeta_K = zeta L(s, chi_D)
(H(x) = x over Q), for callers that read a few points.  ``count_ideals``
keeps H on a whole range of a quadratic field for callers that read it
at many points: h is ``fields.euler_series`` over the prime-ideal norms
(``fields.prime_norm_array``), the sieve that also builds the chi_D
table.  Over Q, where h = 1, hot paths need no counter at all: the
harmonic prefix at a profile's sample points comes from
``rational_harmonic_prefix``, summed in blocks of norms by
``prefix_sums_at``.  Exhaustive enumeration over the same prime norms
serves the tests, and ``ideals_of_norm`` lists the ideals of one norm
from its factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import BoundTooSmall, EmptySet, FieldMismatch, TooLarge
from .fields import (
    NumberField,
    PrimeIdeal,
    euler_series,
    factorint,
    kronecker_table,
    prime_norm_array,
    primes_up_to_norm,
    run_starts,
    split_prime,
)


@dataclass(frozen=True)
class Ideal:
    """A nonzero integral ideal as a sorted tuple of (prime ideal, exponent).

    The empty tuple is the unit ideal O_K (norm 1).
    """

    field: NumberField
    factors: tuple[tuple[PrimeIdeal, int], ...]
    norm: int

    def sort_key(self):
        return (self.norm, tuple((pr, e) for pr, e in self.factors))

    @property
    def is_unit(self) -> bool:
        return not self.factors

    def max_exponent(self) -> int:
        return max((e for _, e in self.factors), default=0)

    def divisor_norms(self) -> list[int]:
        """Norms of all divisors (with multiplicity one per divisor)."""
        norms = [1]
        for pr, e in self.factors:
            powers = [pr.norm ** j for j in range(e + 1)]
            norms = [n * q for n in norms for q in powers]
        return norms

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.factors:
            return f"Ideal(O_{self.field.label()})"
        parts = "*".join(
            f"P({pr.p},{pr.conjugate_index})^{e}" if e > 1
            else f"P({pr.p},{pr.conjugate_index})"
            for pr, e in self.factors)
        return f"Ideal({parts}, norm={self.norm})"


def unit_ideal(K: NumberField) -> Ideal:
    return Ideal(field=K, factors=(), norm=1)


def make_ideal(K: NumberField, factors: Iterable[tuple[PrimeIdeal, int]]) -> Ideal:
    """Build an ideal from (prime, exponent) pairs; exponents must be >= 1."""
    fs = tuple(sorted((pr, int(e)) for pr, e in factors if e))
    if any(e < 0 for _, e in fs):
        raise ValueError("negative exponent")
    norm = 1
    for pr, e in fs:
        norm *= pr.norm ** e
    return Ideal(field=K, factors=fs, norm=norm)


def integer_ideal(K: NumberField, n: int) -> Ideal:
    """The ideal (n) of a rational field K=Q, from the factorization of n."""
    if not K.is_rational:
        raise FieldMismatch("integer_ideal is only defined over Q")
    if n < 1:
        raise ValueError("n must be a positive integer")
    factors = []
    for p, e in factorint(n).items():
        (pr, _), = split_prime(K, p)
        factors.append((pr, e))
    return make_ideal(K, factors)


def _check_same_field(a: Ideal, b: Ideal) -> None:
    if a.field != b.field:
        raise FieldMismatch(f"{a.field.label()} vs {b.field.label()}")


def multiply(a: Ideal, b: Ideal) -> Ideal:
    """Product ideal: exponent-wise sum, norm multiplies."""
    _check_same_field(a, b)
    exps = dict(a.factors)
    for pr, e in b.factors:
        exps[pr] = exps.get(pr, 0) + e
    return make_ideal(a.field, exps.items())


def intersect(ideals: Sequence[Ideal]) -> Ideal:
    """Intersection = least common multiple: exponent-wise maximum."""
    ideals = list(ideals)
    if not ideals:
        raise EmptySet("intersection of an empty set of ideals")
    first = ideals[0]
    for other in ideals[1:]:
        _check_same_field(first, other)
    exps: dict[PrimeIdeal, int] = {}
    for ideal in ideals:
        for pr, e in ideal.factors:
            if exps.get(pr, 0) < e:
                exps[pr] = e
    return make_ideal(first.field, exps.items())


def gcd(a: Ideal, b: Ideal) -> Ideal:
    """Ideal sum a + b: exponent-wise minimum."""
    _check_same_field(a, b)
    exps_b = dict(b.factors)
    exps = {pr: min(e, exps_b[pr]) for pr, e in a.factors if pr in exps_b}
    return make_ideal(a.field, exps.items())


def divides(a: Ideal, b: Ideal) -> bool:
    """True iff a | b, i.e. b is contained in a as a set."""
    _check_same_field(a, b)
    exps_b = dict(b.factors)
    return all(exps_b.get(pr, 0) >= e for pr, e in a.factors)


#: Norms per block of the sums over norms, so that no array of length X
#: is needed beside the one a caller keeps.
_L_BLOCK = 1 << 16


def norm_blocks(X: int):
    """The ranges [lo, hi) of at most ``_L_BLOCK`` norms that cover 1..X."""
    return ((lo, min(lo + _L_BLOCK, X + 1))
            for lo in range(1, X + 1, _L_BLOCK))


def prefix_sums_at(terms, xs) -> list:
    """Running sums t(1) + ... + t(x) at each x of the ascending xs.

    ``terms(lo, hi)`` returns an array of the t(k), lo <= k < hi, for
    ranges of at most ``_L_BLOCK`` norms cut after each x.  Integer and
    boolean terms are added as range totals, exact in any order.  Float
    terms come in an array that may be overwritten, and the running sum
    so far is added into its first term before its in-place ``np.cumsum``:
    so they are added one by one in ascending k, and the sums equal those
    of one ``np.cumsum`` over all terms bit for bit.  A float block may
    leave out terms that are +0.0, or be empty, as long as the terms it
    keeps stay in ascending k and every sum is >= 0: adding +0.0 to a
    nonnegative sum leaves it unchanged.  A sum at x < 1 is 0.
    """
    out, total, lo = [], 0, 1
    for x in map(int, xs):
        while lo <= x:
            hi = min(lo + _L_BLOCK, x + 1)
            t = terms(lo, hi)
            if t.dtype.kind == "b":
                total += int(np.count_nonzero(t))
            elif t.dtype.kind != "f":
                total += int(t.sum())
            elif t.size:
                t[0] += total
                total = float(np.cumsum(t, out=t)[-1])
            else:
                total = float(total)    # an empty block adds nothing
            lo = hi
        out.append(total)
    return out


def pairwise_sum(terms, n: int) -> float:
    """t(0) + ... + t(n - 1), added as ``np.add.reduce`` adds one float64
    array of all n terms, bit for bit, without building that array.

    ``terms(i, j)`` returns the float64 array of t(i), ..., t(j - 1) for
    pieces of at most ``_L_BLOCK`` terms.  numpy's pairwise summation
    splits a range of more than 128 terms after n2 = n // 2 rounded down
    to a multiple of 8 and adds the sums of the two halves; the same split
    is made here until a piece has at most ``_L_BLOCK`` terms, which
    ``np.add.reduce`` then sums along the rest of the same tree.
    """
    def add(i: int, n: int) -> float:
        if n <= _L_BLOCK:
            return float(np.add.reduce(terms(i, i + n)))
        n2 = n // 2
        n2 -= n2 % 8
        return add(i, n2) + add(i + n2, n - n2)

    return add(0, n)


@lru_cache(maxsize=8)
def rational_harmonic_prefix(xs: tuple[int, ...]) -> tuple[float, ...]:
    """L(x) = 1 + 1/2 + ... + 1/x over Q at each x of the ascending xs,
    added in ascending k as ``NormCounter.L`` adds them."""
    return tuple(prefix_sums_at(
        lambda lo, hi: 1.0 / np.arange(lo, hi, dtype=np.float64), xs))


@dataclass(frozen=True)
class NormCounter:
    """Exact cumulative ideal counts H(x) = #{a : N(a) <= x}, x <= X.

    ``H`` is the only array stored (H[0] = 0).  The per-norm counts
    ``h`` are derived from it on each read, whole or by block, and the
    harmonic prefix ``L[x] = sum_{k<=x} h(k)/k`` is built on first read
    and kept; both are read at the points floor(x/n) when families are
    counted.
    """

    field: NumberField
    X: int
    H: np.ndarray

    @property
    def h(self) -> np.ndarray:
        """h[k] = H[k] - H[k-1], the number of ideals of norm k (h[0] = 0)."""
        h = np.empty_like(self.H)
        h[0] = 0
        np.subtract(self.H[1:], self.H[:-1], out=h[1:])
        return h

    def h_block(self, lo: int, hi: int) -> np.ndarray:
        """h[lo:hi] for 1 <= lo <= hi <= X + 1, as a new array."""
        return self.H[lo:hi] - self.H[lo - 1:hi - 1]

    @cached_property
    def L(self) -> np.ndarray:
        """L[x] = sum of h(k)/k over k <= x, added in ascending k (L[0] = 0)."""
        L = np.arange(self.X + 1, dtype=np.float64)
        for lo, hi in norm_blocks(self.X):
            np.divide(self.h_block(lo, hi), L[lo:hi], out=L[lo:hi])
        return np.cumsum(L, out=L)

    def h_of(self, k: int) -> int:
        return int(self.H[k] - self.H[k - 1]) if k >= 1 else 0

    def H_of(self, x: int) -> int:
        if x >= self.X:
            if x > self.X:
                raise ValueError(f"H({x}) not computed (bound {self.X})")
            return int(self.H[self.X])
        return int(self.H[x]) if x >= 0 else 0


@lru_cache(maxsize=8)
def count_ideals(K: NumberField, X: int) -> NormCounter:
    """Exact norm counts up to X by a multiplicative sieve.

    Over a quadratic field h is the ``fields.euler_series`` of the
    prime-ideal norms, each with the local factor 1/(1 - N(p)^-s), and an
    in-place cumulative sum turns it into H.  Over Q every n >= 1 is the
    norm of exactly one ideal, so H is ``arange(X + 1)``; the package's
    own paths over Q use H(x) = x and h = 1 and build no counter.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    if K.is_rational:
        return NormCounter(field=K, X=X, H=np.arange(X + 1, dtype=np.int64))
    norms = prime_norm_array(K, X)
    h = euler_series(X + 1, norms, np.broadcast_to(1, norms.shape))
    return NormCounter(field=K, X=X, H=np.cumsum(h, out=h))


#: Divisors per block of the hyperbola sums, and the largest x they take:
#: a block's sum of chi(d) floor(x/d) is at most x (1 + log 2^16) < 2^63
#: in absolute value, so int64 holds it.
_HYPERBOLA_BLOCK = 1 << 16
_HYPERBOLA_LIMIT = 1 << 59


def ideal_counts(K: NumberField, xs: Sequence[int]) -> list[int]:
    """Exact H(x) = #{a : N(a) <= x} at each x in xs, without a sieve.

    Over Q, H(x) = x.  Over a quadratic field zeta_K = zeta L(s, chi_D),
    so h = 1 * chi_D and the Dirichlet hyperbola method gives, with
    u = isqrt(x) and S the prefix sums of chi_D,

        H(x) = sum_{d<=u} chi(d) floor(x/d) + sum_{m<=u} S(x // m) - u S(u),

    O(sqrt x) work per point, added in fixed-size blocks.  chi_D and S
    are read from one ``fields.kronecker_table`` of length
    min(|D|, max(xs) + 1): chi_D has period |D| and sums to 0 over it.
    """
    xs = [max(int(x), 0) for x in xs]
    if K.is_rational or not xs:
        return xs
    if max(xs) > _HYPERBOLA_LIMIT:
        raise TooLarge(f"H(x) is evaluated for x <= {_HYPERBOLA_LIMIT} only")
    chi, S = kronecker_table(K, min(abs(K.discriminant), max(xs) + 1))
    n = chi.size
    out = []
    for x in xs:
        u = math.isqrt(x)
        total = -u * int(S[u % n])
        for lo in range(1, u + 1, _HYPERBOLA_BLOCK):
            d = np.arange(lo, min(lo + _HYPERBOLA_BLOCK, u + 1),
                          dtype=np.int64)
            q = x // d
            total += int(chi[d % n] @ q) + int(S[q % n].sum())
        out.append(total)
    return out


def ideal_count(K: NumberField, x: int) -> int:
    """Exact H(x) = #{a : N(a) <= x} in O(sqrt x); see ``ideal_counts``."""
    return ideal_counts(K, [x])[0]


def enumeration_norm_counts(K: NumberField, X: int) -> np.ndarray:
    """Per-norm ideal counts by exhaustive recursive enumeration.

    Independent of the multiplicative sieve; used to cross-check it.
    """
    qs = prime_norm_array(K, X).tolist()
    counts = np.zeros(X + 1, dtype=np.int64)
    n_primes = len(qs)

    def rec(start: int, n: int) -> None:
        counts[n] += 1
        for j in range(start, n_primes):
            m = n * qs[j]
            if m > X:
                break
            while m <= X:
                rec(j + 1, m)
                m *= qs[j]

    rec(0, 1)
    return counts


def ideals_of_norm(K: NumberField, n: int) -> list[Ideal]:
    """Every ideal of norm n, in ``Ideal.sort_key`` order, from the
    factorization of n.

    In degree <= 2 a prime power p^e exactly dividing n is the norm of
    P^a P'^(e-a), a = 0..e, when p splits into P and P'; of (p)^(e/2)
    alone when p is inert, and of nothing when e is then odd; and of P^e
    alone when p ramifies as P^2, or over Q.
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    factorizations: list[list] = [[]]
    for p, e in factorint(n).items():
        above = [pr for pr, _ in split_prime(K, p)]
        if len(above) == 2:
            local = [[(above[0], a), (above[1], e - a)] for a in range(e + 1)]
        elif above[0].f == 2:
            if e % 2:
                return []
            local = [[(above[0], e // 2)]]
        else:
            local = [[(above[0], e)]]
        factorizations = [f + part for f in factorizations for part in local]
    return sorted((make_ideal(K, f) for f in factorizations),
                  key=Ideal.sort_key)


def enumerate_ideals(K: NumberField, X: int,
                     primes: Sequence[PrimeIdeal] | None = None) -> list[Ideal]:
    """Every ideal of norm <= X, in nondecreasing norm order.

    With ``primes``, a list of prime ideals in the global numbering, only
    the ideals supported on them.  Ties are broken by lexicographic
    comparison of the factorizations under the global prime numbering.
    Materializes the full list; meant for desk-scale bounds.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    if primes is None:
        primes = primes_up_to_norm(K, X)
    n_primes = len(primes)
    found: list[Ideal] = []
    stack: list[tuple[PrimeIdeal, int]] = []

    def rec(start: int, n: int) -> None:
        found.append(Ideal(field=K, factors=tuple(stack), norm=n))
        for j in range(start, n_primes):
            q = primes[j].norm
            m = n * q
            if m > X:
                break
            e = 1
            while m <= X:
                stack.append((primes[j], e))
                rec(j + 1, m)
                stack.pop()
                m *= q
                e += 1

    rec(0, 1)
    found.sort(key=Ideal.sort_key)
    return found


def multiples_count(a: Ideal, X: int, counter: NormCounter | None = None) -> int:
    """Number of ideals b with a | b and N(b) <= X.

    Dividing out a is a norm-dividing bijection, so this is H(floor(X/N(a))).
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    bound = X // a.norm
    if bound < 1:
        return 0
    if counter is None or counter.X < bound:
        return ideal_count(a.field, bound)
    return counter.H_of(bound)


def estimate_residue_constant(K: NumberField, X: int,
                              n_samples: int = 20) -> tuple[float, float]:
    """Empirical ideal-count constant: c_hat = H(X)/X with an error band.

    The band is kappa * X^(-1/d) with kappa fitted from the deviations
    |H(x)/x - c_hat| over sample points x in [X/10, X].
    """
    if X < 100:
        raise BoundTooSmall("estimate_residue_constant needs X >= 100")
    grid = np.geomspace(X // 10, X, n_samples).astype(np.int64)
    xs = grid[run_starts(grid)].tolist()
    *Hs, H_X = ideal_counts(K, xs + [X])
    c_hat = H_X / X
    d = K.degree
    kappa = 0.0
    for x, H in zip(xs, Hs):
        dev = abs(H / x - c_hat)
        kappa = max(kappa, dev * x ** (1.0 / d))
    return c_hat, kappa * X ** (-1.0 / d)


def gaussian_lattice_H(x: int) -> int:
    """Independent oracle for K=Q(sqrt -1): ideal count H(x) by lattice count.

    Counts nonzero Gaussian integers a+bi with a^2+b^2 <= x and divides by
    the 4 units.
    """
    total = 0
    for a in range(0, math.isqrt(x) + 1):
        b_max = math.isqrt(x - a * a)
        total += 2 * b_max if a == 0 else 2 * (2 * b_max + 1)
    return total // 4


def gaussian_lattice_counts(x: int) -> np.ndarray:
    """Per-norm Gaussian ideal counts up to x by lattice point counting."""
    counts = np.zeros(x + 1, dtype=np.int64)
    for a in range(0, math.isqrt(x) + 1):
        b_max = math.isqrt(x - a * a)
        bs = np.arange(0, b_max + 1)
        norms = a * a + bs * bs
        weights = np.full_like(bs, 4)
        if a == 0:
            weights[:] = 2
        else:
            weights[0] = 2
        np.add.at(counts, norms, weights)
    counts[0] = 0
    return counts // 4
