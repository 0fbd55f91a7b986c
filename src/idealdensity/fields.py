"""Number fields of degree 1 and 2 and the splitting of rational primes.

The supported fields are Q itself and quadratic fields Q(sqrt m) for a
squarefree integer m.  In degree <= 2 the splitting behaviour of every
rational prime is decided by the Kronecker symbol of the fundamental
discriminant, which keeps prime ideal construction exact and fast.

The rational primes come from a segmented sieve over the odd numbers,
one bool block of ``_SIEVE_BLOCK`` odd numbers at a time, into one int64
array; the splitting symbols (int8) and the prime-ideal norms are then
built in pieces, so the prime layer holds its output arrays and a few
blocks of fixed size.  ``prime_norm_array`` builds the norms, the prime
ideals are read off them, and nothing here is cached but h(D).

``euler_series`` is the package's one multiplicative sieve: it builds
the ideal counts of ``ideals.count_ideals`` and, in ``kronecker_table``
alone, every chi_D table, refused past ``_CHI_TABLE_LIMIT`` entries; a
field with |D| past that bound, or with too few primes >= |D| for a
table, takes Euler's criterion at every prime.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    DegenerateM,
    NotFundamental,
    NotNegative,
    NotPrime,
    NotSquarefree,
    TooLarge,
    UnsupportedField,
)

#: Euler-Mascheroni constant, 20 digits.
EULER_GAMMA = 0.57721566490153286061


@dataclass(frozen=True)
class NumberField:
    """A number field of degree 1 (Q) or 2 (Q(sqrt m), m squarefree).

    ``unit_count`` is the number of roots of unity for imaginary quadratic
    fields and None where the unit group is infinite (Q and real quadratic).
    """

    m: int | None             # squarefree integer for quadratic fields
    degree: int
    discriminant: int
    unit_count: int | None

    @property
    def is_rational(self) -> bool:
        return self.degree == 1

    @property
    def is_imaginary_quadratic(self) -> bool:
        return self.degree == 2 and self.m < 0

    def label(self) -> str:
        if self.is_rational:
            return "Q"
        return f"Q(sqrt {self.m})"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"NumberField({self.label()})"


@dataclass(frozen=True, order=True)
class PrimeIdeal:
    """A prime ideal of O_K, identified by its rational prime and type.

    For a split prime there are two conjugate ideals above p, labelled by
    ``conjugate_index`` 0 and 1: the index is a label, first or second of
    the two ideals of one norm, and no root of x^2 = m (mod p) picks it;
    every density here is symmetric under conjugation.  The ordering of
    the dataclass fields realizes the global tie-break
    (norm, p, conjugate_index).
    """

    norm: int
    p: int
    conjugate_index: int

    @property
    def f(self) -> int:                       # residue degree
        return 2 if self.norm != self.p else 1


#: Miller-Rabin with the prime bases up to 41 is deterministic below
#: _MR_LIMIT (Sorenson and Webster, 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3317044064679887385961981
#: Odd numbers per bool block of the segmented sieve in
#: ``rational_primes_up_to`` (128 KB).  The prime list is turned into
#: splitting symbols and norms in pieces of 1/32 as many primes, so that
#: their int64 temporaries take 32 KB each.
_SIEVE_BLOCK = 1 << 17
_PIECE = _SIEVE_BLOCK // 32
#: Work bound on outside input: the trial divisors of factorint.
_TRIAL_LIMIT = 10**6
#: The one bound on chi_D tables, which ``kronecker_table`` alone builds
#: and refuses past this length, and the largest |D| of h(D).
_CHI_TABLE_LIMIT = 10**8
#: Table entries that cost as much as Euler's criterion at one prime:
#: about 35 ns an entry against 270 ns a prime at 10^6, 370 ns at 5*10^6.
_CHI_ENTRIES_PER_PRIME = 8


def isprime(n: int) -> bool:
    """Deterministic primality test; raises TooLarge for a probable prime
    at or above 3.3e24, where the Miller-Rabin bases are not proven."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise TooLarge(f"cannot prove {n} prime (above {_MR_LIMIT})")
    return True


def factorint(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, primes ascending.

    Trial division up to 10^6: a cofactor left once d * d > n is prime, and
    one left at 10^6 must pass ``isprime`` (two factors > 10^6: TooLarge).
    """
    if n < 1:
        raise ValueError("n must be a positive integer")
    factors: dict[int, int] = {}
    d = 2
    while d <= _TRIAL_LIMIT and d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n, e = n // d, e + 1
            factors[d] = e
        d += 1 if d == 2 else 2
    if n > 1:
        if d * d <= n and not isprime(n):
            raise TooLarge(f"cannot factor {n}: no prime factor below "
                           f"{_TRIAL_LIMIT}")
        factors[n] = 1
    return factors


def _squarefree(m: int) -> bool:
    return all(e == 1 for e in factorint(abs(m)).values())


def make_rational_field() -> NumberField:
    return NumberField(m=None, degree=1, discriminant=1, unit_count=None)


def make_quadratic_field(m: int) -> NumberField:
    if m in (0, 1):
        raise DegenerateM(f"m={m} does not define a quadratic field")
    if not _squarefree(m):
        raise NotSquarefree(f"m={m} is not squarefree")
    disc = m if m % 4 == 1 else 4 * m
    units = None
    if m < 0:
        units = {-4: 4, -3: 6}.get(disc, 2)
    return NumberField(m=m, degree=2, discriminant=disc, unit_count=units)


_FIELD_RE = re.compile(r"^\s*Q\s*\(\s*sqrt\s*(-?\d+)\s*\)\s*$")


def parse_field(text: str) -> NumberField:
    """Parse a field label: "Q" or "Q(sqrt m)" with integer m."""
    if text.strip() == "Q":
        return make_rational_field()
    match = _FIELD_RE.match(text)
    if not match:
        raise UnsupportedField(f"cannot parse field specification {text!r}")
    return make_quadratic_field(int(match.group(1)))


def split_prime(K: NumberField, p: int) -> list[tuple[PrimeIdeal, int]]:
    """Factor (p) = prod P^e in O_K: (P, e) pairs, e the ramification index.

    p ramifies when it divides D, and otherwise splits when chi_D(p) = 1:
    for p = 2 when D = 1 or 7 mod 8, for odd p by Euler's criterion on
    Python ints, so p may be past the 2^32 reach of ``_symbols_at_primes``.
    """
    if p < 2 or not isprime(p):
        raise NotPrime(f"{p} is not a rational prime")
    if K.is_rational:
        return [(PrimeIdeal(norm=p, p=p, conjugate_index=0), 1)]
    D = K.discriminant
    if D % p == 0:
        return [(PrimeIdeal(norm=p, p=p, conjugate_index=0), 2)]
    splits = D % 8 in (1, 7) if p == 2 else pow(D, (p - 1) // 2, p) == 1
    if splits:
        return [
            (PrimeIdeal(norm=p, p=p, conjugate_index=0), 1),
            (PrimeIdeal(norm=p, p=p, conjugate_index=1), 1),
        ]
    return [(PrimeIdeal(norm=p * p, p=p, conjugate_index=0), 1)]


def _symbols_at_primes(D: int, ps: np.ndarray) -> np.ndarray:
    # chi_D(p), the Kronecker symbol (D/p), at every prime of an int64
    # array: Euler's criterion by vectorised square-and-multiply in uint64,
    # exact while p < 2^32 (a product of two residues is below 2^64), and
    # the Kronecker rule at p = 2.  A D past int64 is reduced mod p in
    # Python ints.
    if ps.size and (top := int(ps.max())) >= 2**32:
        raise TooLarge(f"chi_D(p) at p = {top}: Euler's criterion is exact "
                       f"only for p < 2^32")
    base = (D % ps if abs(D) < 2**63
            else np.array([D % p for p in ps.tolist()])).astype(np.uint64)
    ps = ps.astype(np.uint64)
    e = (ps - 1) // 2
    r = np.ones_like(ps)
    while e.any():
        r = np.where(e & 1, r * base % ps, r)
        base, e = base * base % ps, e >> 1
    s = np.where(r == 1, 1, np.where(r == 0, 0, -1))
    s[ps == 2] = 0 if D % 2 == 0 else (-1 if D % 8 in (3, 5) else 1)
    return s


def rational_primes_up_to(n: int) -> np.ndarray:
    """All rational primes <= n (numpy int64, ascending), by the segmented
    sieve, into one array sized by pi(n) < 1.25506 n / ln n (Rosser and
    Schoenfeld) and shrunk in place: sized first, a bound beyond memory
    fails at once; TooLarge for an n beyond the int64 range."""
    if n > np.iinfo(np.int64).max:
        raise TooLarge(f"bound {n} is beyond the int64 range")
    if n < 2:
        return np.empty(0, dtype=np.int64)
    out = np.empty(int(1.25506 * n / math.log(n)) + 1, dtype=np.int64)
    out[0], count = 2, 1
    r = math.isqrt(n)
    small = np.ones(r + 1, dtype=bool)          # the odd base primes <= r
    small[::2] = small[1] = False
    for p in range(3, math.isqrt(r) + 1, 2):
        if small[p]:
            small[p * p::2 * p] = False
    base = np.flatnonzero(small).tolist()
    block = np.empty(min((n + 1) // 2, _SIEVE_BLOCK), dtype=bool)
    for lo in range(0, n + 1, 2 * _SIEVE_BLOCK):
        marks = block[:min((n + 1 - lo) // 2, _SIEVE_BLOCK)]  # lo + 2i + 1
        marks[:] = True
        marks[:max(0, 1 - lo)] = False            # 1 is not prime
        for p in base:
            if p * p >= lo + 2 * marks.size:
                break
            start = max(p * p, -(-lo // p) * p)
            marks[(start + p * (start % 2 == 0) - lo) // 2::p] = False
        found = np.flatnonzero(marks)
        found *= 2
        np.add(found, lo + 1, out=out[count:count + found.size])
        count += found.size
    out.resize(count, refcheck=False)
    return out


def _split_symbols(K: NumberField, ps: np.ndarray) -> np.ndarray:
    # chi_D(p) at every prime of ps (ascending), as int8, in pieces: by
    # Euler's criterion below |D|, and above from one table of the period
    # |D| if there are |D| / _CHI_ENTRIES_PER_PRIME primes or more above it
    # and |D| <= _CHI_TABLE_LIMIT; else Euler's criterion for all.
    D, n = K.discriminant, abs(K.discriminant)
    below = int(np.searchsorted(ps, n))
    if n > min((ps.size - below) * _CHI_ENTRIES_PER_PRIME, _CHI_TABLE_LIMIT):
        below = ps.size
    chi = kronecker_table(K, n) if below < ps.size else None
    s = np.empty(ps.size, dtype=np.int8)
    for i in range(0, ps.size, _PIECE):
        part, k = ps[i:i + _PIECE], max(0, min(below - i, _PIECE))
        s[i:i + k] = _symbols_at_primes(D, part[:k])
        if k < part.size:
            s[i + k:i + part.size] = chi[part[k:] % n]
    return s


def prime_norm_array(K: NumberField, X: int) -> np.ndarray:
    """Norms of the prime ideals of O_K of norm <= X, one entry per prime
    ideal, ascending (read-only int64 array), uncached: the one builder
    of prime-ideal norms.

    A split p appears twice, a ramified p once, an inert p once as p^2 if
    p^2 <= X.  The inert p <= sqrt(X) are squared in place and repeated
    once, and np.repeat, which copies its counts to int64, runs piece by
    piece: no array but the primes, their symbols and the norms is as long
    as the prime list.
    """
    if X < 1:
        raise ValueError("X must be >= 1")
    norm = ps = rational_primes_up_to(X)
    if not K.is_rational:
        s = _split_symbols(K, ps)
        r = int(np.searchsorted(ps, math.isqrt(X), side="right"))
        inert = s[:r] == -1
        np.square(ps[:r], out=ps[:r], where=inert)
        s[:r][inert] = 0
        s += 1                                  # copies of each p
        norm = np.empty(int(s.sum(dtype=np.int64)), dtype=np.int64)
        j = 0
        for i in range(0, ps.size, _PIECE):
            part = np.repeat(ps[i:i + _PIECE], s[i:i + _PIECE])
            norm[j:j + part.size] = part
            j += part.size
        norm.sort()
    norm.flags.writeable = False
    return norm


def _prime_ideals(norm: np.ndarray) -> tuple[PrimeIdeal, ...]:
    # The prime ideals of ascending prime-ideal norms: a square norm is p^2
    # for an inert p, a repeated one the second ideal above a split p.
    root = np.sqrt(norm).astype(np.int64)       # exact for squares < 2^53
    p = np.where(root * root == norm, root, norm)
    conj = np.zeros_like(norm)
    conj[1:] = norm[1:] == norm[:-1]
    return tuple(map(PrimeIdeal, norm.tolist(), p.tolist(), conj.tolist()))


def primes_up_to_norm(K: NumberField, X: int) -> tuple[PrimeIdeal, ...]:
    """All prime ideals of O_K with norm <= X, sorted by (norm, p, index),
    read off ``prime_norm_array``; uncached."""
    return _prime_ideals(prime_norm_array(K, X))


def run_starts(a: np.ndarray) -> np.ndarray:
    """Indices where the runs of equal values of a sorted array start.

    ``a[run_starts(a)]`` is ``np.unique(a)`` for sorted ``a``, without the
    import of ``numpy.ma`` that the first ``np.unique`` call makes.
    """
    first = np.empty(a.size, dtype=bool)
    first[:1] = True
    np.not_equal(a[1:], a[:-1], out=first[1:])
    return np.flatnonzero(first)


def sample_grid(lo: int, X: int, n: int) -> np.ndarray:
    """The geometric grid of n points from lo to X, rounded to integers:
    ascending, without repeats, and ending at X (int64); TooLarge for an
    X beyond the int64 range."""
    if X > np.iinfo(np.int64).max:
        raise TooLarge(f"bound {X} is beyond the int64 range")
    xs = np.rint(np.geomspace(lo, X, n)).astype(np.int64)
    xs = xs[run_starts(xs)]
    xs[-1] = X
    return xs


def euler_series(n: int, qs: np.ndarray, cs: np.ndarray,
                 dtype=np.int64) -> np.ndarray:
    """Coefficients a[k], k < n, of prod_q 1/(1 - c_q q^-s) for ascending
    norms q >= 2 (repeats allowed) and c_q in {-1, 0, 1}; a[0] = 0.

    A norm with q^2 < n runs the ascending update a[q k] += c_q a[k] in
    slice blocks k in [q^i, q^(i+1)), whose reads the block never writes.
    A larger norm divides each k < n at most once and never beside
    another, so then each cofactor j adds c_q a[j] to a[q j] for all large
    q <= (n - 1)/j in one scatter, a run of equal q adding its c_q sum.
    """
    a = np.zeros(n, dtype=dtype)
    a[1:2] = 1
    n_small = int(np.searchsorted(qs, math.isqrt(n - 1), side="right"))
    for q, c in zip(qs[:n_small].tolist(), cs[:n_small].tolist()):
        add = np.add if c > 0 else np.subtract
        lo, top = 1, (n - 1) // q + 1
        while c and lo < top:
            hi = min(lo * q, top)
            block = a[lo * q:hi * q:q]
            add(block, a[lo:hi], out=block)
            lo = hi
    if n_small < qs.size:
        starts = run_starts(qs[n_small:])
        large = qs[n_small:][starts]
        c_large = np.add.reduceat(cs[n_small:], starts)
        for j in np.flatnonzero(a[:(n - 1) // int(large[0]) + 1]).tolist():
            k = int(np.searchsorted(large, (n - 1) // j, side="right"))
            a[large[:k] * j] += c_large[:k] * a[j]
    return a


def kronecker_table(K: NumberField, n: int) -> np.ndarray:
    """chi[k] = (D/k), the Kronecker symbol, for 0 <= k < n <= |D|, D the
    discriminant of the quadratic field K (read-only int8, chi[0] = 0),
    uncached: chi_D is completely multiplicative, so chi is the
    ``euler_series`` of the primes p < n with c_p = chi_D(p) by Euler's
    criterion, at a peak of 4 to 5 bytes per entry.  TooLarge past
    _CHI_TABLE_LIMIT entries, before any prime is sieved."""
    if not 1 <= n <= abs(K.discriminant):
        raise ValueError(f"table length {n} not in [1, |D|]")
    if n > _CHI_TABLE_LIMIT:
        raise TooLarge(f"{n} > {_CHI_TABLE_LIMIT} values of chi_D")
    ps = rational_primes_up_to(n - 1)
    chi = euler_series(n, ps, _split_symbols(K, ps), np.int8)
    chi.flags.writeable = False
    return chi


def first_prime_ideals(K: NumberField, k: int,
                       bound: int | None = None) -> tuple[PrimeIdeal, ...]:
    """The first k >= 0 prime ideals in the deterministic global numbering;
    with ``bound``, only those of norm <= bound, so fewer than k when the
    bound is reached first.  Their norms are read off ``prime_norm_array``
    at the first of the bounds 64, 256, 1024, ... that holds k of them or
    reaches ``bound``, and only those k norms become prime ideals."""
    if k < 0:
        raise ValueError(f"prefix length {k} must be >= 0")
    top = 64
    while (norms := prime_norm_array(K, top)).size < k and (bound is None
                                                            or top < bound):
        top *= 4
    norms = norms[:k]
    return _prime_ideals(norms if bound is None else norms[norms <= bound])


@lru_cache(maxsize=16)
def class_number_imag_quadratic(D: int) -> int:
    """Class number h(D) by the class number formula (Davenport, ch. 6),
    h = w sum_{0<a<|D|/2} chi_D(a) / (2 (2 - chi_D(2))), w = unit_count.

    chi_D is one ``kronecker_table`` of |D|//2 + 1 entries, at least 3 so
    that it holds chi_D(2), dropped on return.  Cached; TooLarge for
    |D| > _CHI_TABLE_LIMIT.
    """
    if D >= 0:
        raise NotNegative(f"D={D} must be negative")
    if -D > _CHI_TABLE_LIMIT:
        raise TooLarge(f"class number: |D| = {-D} > {_CHI_TABLE_LIMIT}")
    m = D if D % 4 == 1 else D // 4
    if not _squarefree(m) or (K := make_quadratic_field(m)).discriminant != D:
        raise NotFundamental(f"D={D} is not a fundamental discriminant")
    half = -D // 2 + 1
    chi = kronecker_table(K, max(half, 3))
    return K.unit_count * int(chi[:half].sum()) // (2 * (2 - int(chi[2])))


def analytic_residue_imag_quadratic(K: NumberField) -> float:
    """Residue of zeta_K at s=1 via the class number formula: 2*pi*h/(w*sqrt|D|)."""
    if not K.is_imaginary_quadratic:
        raise UnsupportedField(
            "analytic residue formula implemented for imaginary quadratic "
            "fields only")
    h = class_number_imag_quadratic(K.discriminant)
    w = K.unit_count
    return 2.0 * math.pi * h / (w * math.sqrt(abs(K.discriminant)))
