import functools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import idealdensity as idd
from idealdensity.errors import FieldMismatch
from idealdensity.fields import prime_norm_array
from idealdensity.ideals import _check_same_field


@pytest.fixture(scope="session")
def Q():
    return idd.make_rational_field()


@pytest.fixture(scope="session")
def Qi():
    return idd.make_quadratic_field(-1)


@pytest.fixture(scope="session")
def Q3():
    return idd.make_quadratic_field(-3)


def int_family(K, *ns):
    """Explicit family over Q from positive integers."""
    return idd.ExplicitFamily(
        field=K, members=tuple(idd.integer_ideal(K, n) for n in ns))


def unit_ideal(K):
    """The unit ideal O_K: norm 1, no prime factor."""
    return idd.Ideal(field=K, factors=(), norm=1)


def multiply(a, b):
    """Product ideal: exponent-wise sum, norm multiplies."""
    _check_same_field(a, b)
    exps = dict(a.factors)
    for pr, e in b.factors:
        exps[pr] = exps.get(pr, 0) + e
    return idd.make_ideal(a.field, exps.items())


def gcd(a, b):
    """Ideal sum a + b: exponent-wise minimum."""
    _check_same_field(a, b)
    exps_b = dict(b.factors)
    return idd.make_ideal(a.field, [(pr, min(e, exps_b[pr]))
                                    for pr, e in a.factors if pr in exps_b])


def divisor_norms(b) -> list[int]:
    """Norms of all divisors of b, one per divisor."""
    norms = [1]
    for pr, e in b.factors:
        norms = [n * pr.norm ** j for n in norms for j in range(e + 1)]
    return norms


def is_multiple(family, b) -> bool:
    """True iff b is a multiple of some member of the family, decided from
    the factorization of b: the membership oracle for the family counts."""
    if b.field != family.field:
        raise FieldMismatch(
            f"ideal over {b.field.label()}, family over {family.field.label()}")
    if isinstance(family, idd.ExplicitFamily):
        return any(idd.divides(a, b) for a in family.members
                   if a.norm <= b.norm)
    if isinstance(family, idd.PrimePowerFamily):
        return any(e >= family.l for _, e in b.factors)
    if isinstance(family, idd.NormIntervalFamily):
        return any(map(family.norm_in_intervals, divisor_norms(b)))
    raise TypeError(f"no membership rule for {type(family).__name__}")


def _jacobi(a: int, n: int) -> int:
    # Jacobi symbol (a/n) for odd positive n.
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker_symbol(D: int, n: int) -> int:
    """Kronecker symbol (D/n) for positive n, by Jacobi reciprocity: the
    reference for the package's Euler-criterion symbols.

    Completely multiplicative in n; for D = 0, 1 (mod 4) it is periodic
    with period dividing |D|.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return 1
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    return result * _jacobi(D % n, n)


def reduced_form_class_number(D: int) -> int:
    """Class number h(D) of a fundamental D < 0 by counting the reduced
    binary quadratic forms (a, b, c) of discriminant b^2 - 4ac = D, about
    |D|/3 steps: the reference for the class number formula.

    Reduced means |b| <= a <= c with b >= 0 whenever |b| = a or a = c.
    """
    h = 0
    for a in range(1, math.isqrt(-D // 3) + 1):
        for b in range(-a, a + 1):
            num = b * b - D
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and (-b == a or a == c):
                continue
            h += 1
    return h


def random_explicit_family(K, rng: random.Random, max_members=5, max_norm=50):
    """Seeded random family with distinct members of norm <= max_norm."""
    pool = [i for i in idd.enumerate_ideals(K, max_norm) if i.factors]
    n = rng.randint(1, max_members)
    return idd.ExplicitFamily(field=K, members=tuple(rng.sample(pool, n)))


@functools.lru_cache(maxsize=4)
def trial_division_primes(n: int) -> tuple[int, ...]:
    """The primes <= n, each k tested by dividing it by the primes up to
    sqrt(k): the reference for the segmented sieve (0.8 s at 8e5)."""
    primes = []
    for k in range(2, n + 1):
        for p in primes:
            if p * p > k:
                primes.append(k)
                break
            if k % p == 0:
                break
        else:
            primes.append(k)
    return tuple(primes)


def traced_bytes(fn, *args, **kwargs) -> tuple[int, int]:
    """Bytes that tracemalloc sees held once fn(*args) has returned, its
    result still alive, and the peak while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)  # noqa: F841 - held while measured
        return tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()


def peak_bytes(fn, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc sees allocated while fn(*args) runs."""
    return traced_bytes(fn, *args, **kwargs)[1]


def enumeration_norm_counts(K, X: int) -> np.ndarray:
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


def rankin_tail_bound(prime_norms: list[int], bound: int) -> float:
    """Upper bound for sum of 1/N over ideals supported on the given primes
    with norm exceeding ``bound``.

    Rankin's trick: for any 0 < sigma < 1 the tail is at most
    bound^(sigma-1) * prod (1 - q^-sigma)^-1; minimized over a grid.
    """
    best = math.inf
    for sigma in (0.35, 0.5, 0.65, 0.8, 0.9):
        prod = 1.0
        for q in prime_norms:
            prod /= 1.0 - q ** (-sigma)
        best = min(best, bound ** (sigma - 1.0) * prod)
    return best


def full_H_and_L(counter):
    """The full int64 H[x] and float64 L[x], x <= X, of a ``NormCounter``,
    rebuilt from its counts h as one ``np.cumsum`` each: the arrays the
    counter kept before it held H and L at checkpoints only."""
    h = counter.h
    L = np.arange(h.size, dtype=np.float64)
    np.divide(h[1:], L[1:], out=L[1:])
    return np.cumsum(h, dtype=np.int64), np.cumsum(L, out=L)


def box_density(members) -> Fraction:
    """Exact density of the multiples of a finite list of ideals, summed
    over the finite exponent box of their primes.

    Membership of b depends only on min(v_p(b), cap_p) for each prime p,
    where cap_p is the largest exponent of p in any member, so the box
    with 0 <= v_p <= cap_p covers every case.  A member marks the cells at
    or above its exponents.  The cell v_p < cap_p has density
    (1 - 1/q) q^-v_p and the cell v_p = cap_p has density q^-cap_p, for
    q = N(p); the sum is taken over the denominator prod q^cap_p.
    """
    if not members:
        return Fraction(0)
    if any(not a.factors for a in members):
        return Fraction(1)
    primes = sorted({pr for a in members for pr, _ in a.factors})
    caps = [max(dict(a.factors).get(pr, 0) for a in members) for pr in primes]
    marked = np.zeros([c + 1 for c in caps], dtype=bool)
    for a in members:
        exps = dict(a.factors)
        marked[tuple(slice(exps.get(pr, 0), None) for pr in primes)] = True
    weights = [[(pr.norm - 1) * pr.norm ** (cap - 1 - v) for v in range(cap)]
               + [1] for pr, cap in zip(primes, caps)]
    total = sum(math.prod(w[v] for w, v in zip(weights, cell))
                for cell in zip(*np.nonzero(marked)))
    return Fraction(total, math.prod(pr.norm ** cap
                                     for pr, cap in zip(primes, caps)))
