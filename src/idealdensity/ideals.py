"""Integral ideals as prime factorizations, and ideal counts by norm.

Every nonzero integral ideal is stored as its sorted prime
factorization, so divisibility, lcm (= intersection) and norms are exact
exponent-vector operations.  Ideals are counted by norm in the form each
caller reads, and the tests check each form against the others.
``ideal_count`` gives H(x) at one point in O(sqrt x) by the Dirichlet
hyperbola method over zeta_K = zeta L(s, chi_D) (H(x) = x over Q), for
callers that read a few points.  ``count_ideals`` keeps the counts of a
quadratic field up to X for callers that read them at many points (the
harmonic ideal sum reads h through the zeta terms h(k)/k^s): h is
``fields.euler_series`` over the prime-ideal norms, in about 2 bytes per
norm, and H and the harmonic prefix L are kept at every 32nd norm and
completed on read.  ``marked_sums`` is the one walk over the norms for
running sums: of marked norms, of a counter's checkpoints, and of Q's
harmonic prefix at a profile's sample points.  ``ideals_of_norm`` lists
the ideals of one norm from its factorization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptySet, FieldMismatch, TooLarge
from .fields import (
    NumberField,
    PrimeIdeal,
    euler_series,
    factorint,
    kronecker_table,
    prime_norm_array,
    primes_up_to_norm,
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
        return (self.norm, self.factors)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if not self.factors:
            return f"Ideal(O_{self.field.label()})"
        parts = "*".join(
            f"P({pr.p},{pr.conjugate_index})^{e}" if e > 1
            else f"P({pr.p},{pr.conjugate_index})"
            for pr, e in self.factors)
        return f"Ideal({parts}, norm={self.norm})"


def make_ideal(K: NumberField, factors: Iterable[tuple[PrimeIdeal, int]]) -> Ideal:
    """Build an ideal from distinct prime ideals with exponents >= 1."""
    fs = tuple(sorted((pr, int(e)) for pr, e in factors if e))
    if any(e < 0 for _, e in fs):
        raise ValueError("negative exponent")
    if len({pr for pr, _ in fs}) < len(fs):
        raise ValueError("repeated prime ideal")
    norm = 1
    for pr, e in fs:
        norm *= pr.norm ** e
    return Ideal(field=K, factors=fs, norm=norm)


def integer_ideal(K: NumberField, n: int) -> Ideal:
    """The ideal (n) over Q: its one ideal of norm n (ValueError if n < 1)."""
    if not K.is_rational:
        raise FieldMismatch("integer_ideal is only defined over Q")
    (ideal,) = ideals_of_norm(K, n)
    return ideal


def _check_same_field(a: Ideal, b: Ideal) -> None:
    if a.field != b.field:
        raise FieldMismatch(f"{a.field.label()} vs {b.field.label()}")


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


def divides(a: Ideal, b: Ideal) -> bool:
    """True iff a | b, i.e. b is contained in a as a set."""
    _check_same_field(a, b)
    exps_b = dict(b.factors)
    return all(exps_b.get(pr, 0) >= e for pr, e in a.factors)


#: Norms per block of the sums over norms, so that no array of length X
#: is needed beside the one a caller keeps.
_L_BLOCK = 1 << 15


def norm_blocks(X: int):
    """The ranges [lo, hi) of at most ``_L_BLOCK`` norms that cover 1..X."""
    return ((lo, min(lo + _L_BLOCK, X + 1))
            for lo in range(1, X + 1, _L_BLOCK))


def marked_sums(xs, marks=None, h=None, logs=True):
    """Counts and harmonic sums over the marked norms n <= x at each x of
    the strictly ascending xs: the sums of h(n) and of h(n)/n over the n
    with ``marks[n]`` (every n >= 1 if marks is None; h = 1 if h is
    None), as int64 and float64 arrays (sums None if ``logs`` is false).

    One walk over ``norm_blocks(xs[-1])``, never cut at a point: a block
    adds h between its points by ``np.add.reduceat``, and the terms h(n)/n
    of its marked norms, ascending, to the running sum that heads them by
    an in-place ``np.cumsum``, read at each x by the number of terms up to
    x (``np.searchsorted``), the count if h is None.  With h >= 0 the +0.0
    of an unmarked norm changes no sum: the sums are those of one
    ``np.cumsum`` over all norms bit for bit.  Marks counted alone take no
    walk and no index: one ``np.count_nonzero`` between points.
    """
    xs = np.asarray(xs, dtype=np.int64)
    if h is None and not logs:
        e = [1, *(np.maximum(xs, 0) + 1).tolist()]
        return np.cumsum([b - a if marks is None else np.count_nonzero(
            marks[a:b]) for a, b in zip(e, e[1:])], dtype=np.int64), None
    counts = np.zeros(xs.size, dtype=np.int64)
    sums = np.zeros(xs.size) if logs else None
    X = int(xs[-1]) if xs.size else 0
    i, *ends = np.searchsorted(  # points below 1 (read 0), below each hi
        xs, np.arange(1, X + 1 + _L_BLOCK, _L_BLOCK)).tolist()
    count, total = 0, 0.0
    for (lo, hi), j in zip(norm_blocks(X), ends):
        r = xs[i:j] - (lo - 1)                  # norms of the block <= x
        m, w = [a if a is None else a[lo:hi] for a in (marks, h)]
        if w is not None:                       # h between the points
            c = w if m is None else w * m
            if r.size:
                seg = np.add.reduceat(c[:r[-1]], np.concatenate(([0], r[:-1])),
                                      dtype=np.int64)
                seg[0] += count
                count, c = int(seg.cumsum(out=counts[i:j])[-1]), c[r[-1]:]
            count += int(c.sum()) if c.size else 0
        if logs:
            if m is None:
                k, at = np.arange(lo - 1, hi, dtype=np.float64), r
            else:
                nz = np.flatnonzero(m)
                k, at = np.empty(nz.size + 1), np.searchsorted(nz, r)
                np.add(nz, lo, out=k[1:])
                w = None if w is None else w[nz]
            if w is None:                       # one per term
                counts[i:j], count = count + at, count + k.size - 1
            np.divide(1.0 if w is None else w, k[1:], out=k[1:])
            k[0] = total
            k.cumsum(out=k)
            sums[i:j], total = k[at], k[-1]
        i = j
    return counts, sums


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
    added in ascending k as ``NormCounter.sums_at`` adds them."""
    return tuple(marked_sums(xs)[1].tolist())


#: Norms from one checkpoint of a ``NormCounter`` to the next.
_STRIDE = 32
#: The offsets 1 .. _STRIDE - 1 of the terms a read adds to a checkpoint
#: (a column), and the most points one gather of ``NormCounter.sums_at``
#: reads: its arrays take about 700 bytes per point.
_TAIL = np.arange(1, _STRIDE)[:, None]
READ_POINTS = 128


@dataclass(frozen=True, eq=False)
class NormCounter:
    """Exact ideal counts by norm up to X = h.size - 1, in about 2.4 bytes
    per norm.

    ``h[k]`` is the number of ideals of norm k (h[0] = 0), in the smallest
    signed integer type that holds 2 isqrt(X) >= d(k) >= h(k): int8 up to
    X = 4095, int16 from X = 4096 to X = 2.68e8.  The counts
    H(x) = #{a : N(a) <= x} and the harmonic prefix L(x) = sum of h(k)/k
    over k <= x are kept only at the checkpoints x = j * _STRIDE, from
    one ``marked_sums`` walk over h: ``H_checkpoints`` in the smallest
    signed integer type that holds them (int32 up to X = 10^8 at least),
    and ``L_checkpoints`` as float64.  ``sums_at`` adds the at most
    _STRIDE - 1 terms past the checkpoint in ascending k, so its H and L
    equal the running sums of one ``np.cumsum`` over all norms bit for
    bit.  All three arrays are read-only; a counter equals only itself.
    """

    h: np.ndarray
    H_checkpoints: np.ndarray
    L_checkpoints: np.ndarray

    def sums_at(self, ys) -> tuple[np.ndarray, np.ndarray]:
        """H(y) and L(y) at each y of the integer array ys, 0 <= y <= X
        (int64 and float64 arrays of the shape of ys).

        For each point y = j * _STRIDE + r a gather holds the _STRIDE - 1
        counts after checkpoint j (norms past X read h(X) and are never
        used): H(y) adds the first r of them to the checkpoint, and L(y) is
        step r of an ``np.add.accumulate`` down the checkpoint and the
        terms h(k)/k, which adds them in ascending k.
        """
        ys = np.asarray(ys, dtype=np.int64)
        H = np.empty(ys.shape, dtype=np.int64)
        L = np.empty(ys.shape)
        for i in range(0, ys.size, READ_POINTS):
            j, r = np.divmod(ys.reshape(-1)[i:i + READ_POINTS], _STRIDE)
            k = j * _STRIDE + _TAIL             # step, point
            np.minimum(k, self.h.size - 1, out=k)
            hk = self.h[k]
            H.reshape(-1)[i:i + j.size] = self.H_checkpoints[j] + (
                hk * (_TAIL <= r)).sum(axis=0)
            t = np.empty((_STRIDE, j.size))
            t[0] = self.L_checkpoints[j]
            np.divide(hk, k, out=t[1:])
            np.add.accumulate(t, axis=0, out=t)
            L.reshape(-1)[i:i + j.size] = t[r, np.arange(j.size)]
        return H, L

    def H_of(self, x: int) -> int:
        """H(x) for x <= X, a one-point ``sums_at`` read (0 for x < 0)."""
        if x >= self.h.size:
            raise ValueError(f"H({x}) not computed (bound {self.h.size - 1})")
        return int(self.sums_at([max(x, 0)])[0][0])


@lru_cache(maxsize=8)
def count_ideals(K: NumberField, X: int) -> NormCounter:
    """Exact norm counts up to X by a multiplicative sieve.

    h is the ``fields.euler_series`` of the prime-ideal norms, each with
    the local factor 1/(1 - N(p)^-s), built in the counter's small integer
    type: over Q the series of zeta, h = 1, though the package's own paths
    over Q use H(x) = x and build no counter.  H and L at the checkpoints
    are one ``marked_sums`` walk over h.  The cache holds at most 8
    counters, and a counter is all that a call keeps (the prime norms are
    not cached): a cold call over Q(sqrt -1) retains 2.38 bytes per norm
    at 10^6 and 10^7 (tracemalloc), so the cache holds about
    8 * 2.4 bytes * X in all.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    # h(k) <= d(k) <= 2 isqrt(k): a divisor pairs with one <= sqrt k.
    dtype = np.min_scalar_type(-2 * math.isqrt(X) - 1)
    norms = prime_norm_array(K, X)
    h = euler_series(X + 1, norms, np.broadcast_to(1, norms.shape), dtype)
    H, L = marked_sums(np.arange(0, X + 1, _STRIDE), h=h)
    H = H.astype(np.min_scalar_type(-int(H[-1]) - 1))  # holds the last one
    h.flags.writeable = H.flags.writeable = L.flags.writeable = False
    return NormCounter(h=h, H_checkpoints=H, L_checkpoints=L)


#: Largest x of the hyperbola sums in int64: a block of ``norm_blocks`` adds
#: <= B = _L_BLOCK terms chi(d) floor(x/d): |sum| <= x (1 + log B) < 2^63.
_HYPERBOLA_LIMIT = 1 << 59


def ideal_counts(K: NumberField, xs: Sequence[int]) -> list[int]:
    """Exact H(x) = #{a : N(a) <= x} at each x in xs, without a sieve.

    Over Q, H(x) = x.  Over a quadratic field zeta_K = zeta L(s, chi_D),
    so h = 1 * chi_D and the Dirichlet hyperbola method gives, with
    u = isqrt(x) and S the prefix sums of chi_D,

        H(x) = sum_{d<=u} chi(d) floor(x/d) + sum_{m<=u} S(x // m) - u S(u),

    O(sqrt x) work per point, added over the blocks of ``norm_blocks(u)``.
    chi_D is one uncached ``fields.kronecker_table`` of length
    min(|D|, max(xs) + 1), refused past 10^8 entries, and S its running
    sums: chi_D has period |D| and sums to 0 over it.
    """
    xs = [max(int(x), 0) for x in xs]
    if K.is_rational or not xs:
        return xs
    if max(xs) > _HYPERBOLA_LIMIT:
        raise TooLarge(f"H(x) is evaluated for x <= {_HYPERBOLA_LIMIT} only")
    n = min(abs(K.discriminant), max(xs) + 1)
    chi = kronecker_table(K, n)
    S = np.cumsum(chi, dtype=np.min_scalar_type(-n))     # |S[k]| <= k < n
    out = []
    for x in xs:
        u = math.isqrt(x)
        total = -u * int(S[u % n])
        for lo, hi in norm_blocks(u):
            d = np.arange(lo, hi, dtype=np.int64)
            q = x // d
            total += int(chi[d % n] @ q) + int(S[q % n].sum())
        out.append(total)
    return out


def ideal_count(K: NumberField, x: int) -> int:
    """Exact H(x) = #{a : N(a) <= x} in O(sqrt x); see ``ideal_counts``."""
    return ideal_counts(K, [x])[0]


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
