"""Harmonic ideal sums, partial Euler products and truncated Dedekind zeta.

Partial Euler products are kept as exact rationals while the number of
prime factors is small; beyond that they switch to log-space floating
accumulation with compensated summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import SNotGreaterThanOne
from .fields import EULER_GAMMA, NumberField, first_prime_ideals, prime_norm_array
from .ideals import count_ideals, norm_blocks, run_starts

#: Largest prime count for which the Euler product is kept as a Fraction.
_EXACT_PRIME_LIMIT = 64


@dataclass(frozen=True)
class EulerProductState:
    """Partial Euler product of zeta_K at s=1 over a prime-ideal prefix."""

    field: NumberField
    k: int                       # number of prime ideals used
    cutoff: int | None           # norm cutoff, if the prefix was cut by norm
    value: float
    exact: Fraction | None       # exact value when k is small enough


def _euler_product(K: NumberField, norms: list[int], logs: list[float],
                   k: int, cutoff: int | None) -> EulerProductState:
    """The product over norms[:k]; ``logs`` holds log1p(-1/q) for each norm."""
    exact = None
    if k <= _EXACT_PRIME_LIMIT:
        exact = Fraction(1)
        for q in norms[:k]:
            exact *= Fraction(q, q - 1)
        value = float(exact)
    else:
        value = math.exp(-math.fsum(logs[:k]))
    return EulerProductState(field=K, k=k, cutoff=cutoff, value=value,
                             exact=exact)


def euler_products_at(K: NumberField,
                      cutoffs: list[int]) -> list[EulerProductState]:
    """Partial Euler products over all prime ideals of norm <= c, for each c.

    One prime-norm array at the largest cutoff, and one list of log
    factors, serve every cutoff; each product is the cutoff's prefix.
    """
    if not cutoffs:
        return []
    if min(cutoffs) < 2:
        raise ValueError("cutoff must be >= 2")
    norms = prime_norm_array(K, max(cutoffs))
    ks = np.searchsorted(norms, cutoffs, side="right").tolist()
    norms = norms.tolist()
    logs = [math.log1p(-1.0 / q) for q in norms]
    return [_euler_product(K, norms, logs, k, c)
            for k, c in zip(ks, cutoffs)]


def partial_euler_product(K: NumberField, k: int | None = None,
                          cutoff: int | None = None) -> EulerProductState:
    """Product of (1 - 1/N(p))^-1 over the first k primes or all of norm <= cutoff."""
    if (k is None) == (cutoff is None):
        raise ValueError("specify exactly one of k and cutoff")
    if cutoff is not None:
        return euler_products_at(K, [cutoff])[0]
    if k < 0:
        raise ValueError("k must be >= 0")
    norms = [pr.norm for pr in first_prime_ideals(K, k)]
    logs = [math.log1p(-1.0 / q) for q in norms]
    return _euler_product(K, norms, logs, len(norms), None)


def harmonic_ideal_sum(K: NumberField, x: int) -> float:
    """Exact finite sum of 1/N(a) over ideals of norm <= x, compensated."""
    if x < 1:
        raise ValueError("x must be >= 1")
    h = count_ideals(K, int(x)).h
    nz = np.flatnonzero(h)
    return math.fsum((h[nz] / nz).tolist())


def mertens_ratio(K: NumberField, cutoff: int) -> float:
    """Partial Euler product at norm cutoff divided by log(cutoff).

    By Rosen's Mertens-type theorem this approaches alpha_K * e^gamma.
    """
    if cutoff < 10:
        raise ValueError("cutoff must be >= 10")
    return partial_euler_product(K, cutoff=cutoff).value / math.log(cutoff)


def mertens_target(alpha_K: float) -> float:
    """The Rosen-Mertens constant alpha_K * e^gamma."""
    return alpha_K * math.exp(EULER_GAMMA)


def dedekind_zeta(K: NumberField, s: float, X: int) -> tuple[float, float]:
    """Truncated Dedekind zeta value at s > 1 with an empirical tail estimate.

    Returns (value, tail_bound) with value = sum_{k<=X} h(k)/k^s.  The tail
    estimate is an empirical envelope, not a proven bound: it takes the
    largest H(x)/x sampled over [X/10, X], times a safety factor 2, as the
    ideal density beyond X.  Over Q, h = 1 and H(x) = x need no counter;
    over a quadratic field h is read from the cached counter block by
    block.
    """
    if s <= 1:
        raise SNotGreaterThanOne("truncated zeta sums require s > 1")
    if X < 10:
        raise ValueError("X must be >= 10")
    ks = np.arange(1, X + 1, dtype=np.float64)
    np.power(ks, s, out=ks)
    if K.is_rational:
        np.divide(1.0, ks, out=ks)
        c_upper = 1.0
    else:
        counter = count_ideals(K, X)
        for lo, hi in norm_blocks(X):
            np.divide(counter.h_block(lo, hi), ks[lo - 1:hi - 1],
                      out=ks[lo - 1:hi - 1])
        xs = np.geomspace(max(1, X // 10), X, 32).astype(np.int64)
        c_upper = max(counter.H_of(x) / x
                      for x in xs[run_starts(xs)].tolist())
    value = float(np.sum(ks))
    tail_bound = 2.0 * c_upper * (s / (s - 1.0)) * X ** (1.0 - s)
    return value, tail_bound


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
