"""Harmonic ideal sums, partial Euler products and truncated Dedekind zeta.

The truncated zeta and the harmonic ideal sum (at s = 1) add the same
terms h(k)/k^s.  Partial Euler products are summed in log space by
``math.fsum`` over float64 arrays, which rounds the sum correctly, so
the order and the chunks it is read in do not change it.
Every sum runs over blocks of norms or of prime ideals: no Python list
or float array of length X is built beside the prime norms and the
cached ideal counts.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

from .errors import SNotGreaterThanOne
from .fields import (EULER_GAMMA, NumberField, first_prime_ideals,
                     prime_norm_array, run_starts)
from .ideals import count_ideals, ideal_counts, norm_blocks, pairwise_sum

#: Terms per Python list handed to ``math.fsum`` or ``math.log1p``; a
#: list costs about 32 bytes per float, four times its array, so one
#: chunk takes 128 KB.
_LIST_CHUNK = 1 << 12


def _chunks(a: np.ndarray):
    """a as Python lists of at most ``_LIST_CHUNK`` entries each."""
    return (a[i:i + _LIST_CHUNK].tolist()
            for i in range(0, a.size, _LIST_CHUNK))


def _log_factors(norms: np.ndarray) -> np.ndarray:
    """log1p(-1/q) for each norm q, by ``math.log1p``: ``np.log1p`` differs
    from it in the last bit for some q."""
    logs = np.empty(norms.size, dtype=np.float64)
    for i in range(0, norms.size, _LIST_CHUNK):
        chunk = norms[i:i + _LIST_CHUNK]
        logs[i:i + chunk.size] = np.fromiter(
            map(math.log1p, (-1.0 / chunk).tolist()), np.float64, chunk.size)
    return logs


def _euler_product(logs: np.ndarray) -> float:
    """The Euler product whose log factors log1p(-1/q) are ``logs``."""
    return math.exp(-math.fsum(chain.from_iterable(_chunks(logs))))


def euler_products_at(K: NumberField, cutoffs: list[int]) -> list[float]:
    """Partial Euler products over all prime ideals of norm <= c, for each c.

    The prime-norm array at the largest cutoff, and one float64 array of
    log factors, serve every cutoff, one or many; each product is the
    cutoff's prefix.
    """
    if not cutoffs:
        return []
    if min(cutoffs) < 2:
        raise ValueError("cutoff must be >= 2")
    norms = prime_norm_array(K, max(cutoffs))
    ks = np.searchsorted(norms, cutoffs, side="right").tolist()
    logs = _log_factors(norms)
    return [_euler_product(logs[:k]) for k in ks]


def partial_euler_product(K: NumberField, k: int) -> float:
    """Product of (1 - 1/N(p))^-1 over the first k prime ideals; products
    at norm cutoffs come from ``euler_products_at``."""
    if k < 0:
        raise ValueError("k must be >= 0")
    norms = [pr.norm for pr in first_prime_ideals(K, k)]
    return _euler_product(_log_factors(np.array(norms, dtype=np.int64)))


def _zeta_terms(K: NumberField, X: int, s: float):
    """terms(i, j), a new float64 array of h(k)/k^s for k = i + 1, ..., j,
    h read from the field's cached counter up to X (over Q, h = 1)."""
    counter = None if K.is_rational else count_ideals(K, X)

    def terms(i, j):
        # k^s overflows to inf, and the term to 0, only where
        # h(k)/k^s < 1e-300: far below the last bit of a sum >= 1, so the
        # overflow is not worth a warning.
        t = np.arange(i + 1, j + 1, dtype=np.float64)
        with np.errstate(over="ignore"):
            np.power(t, s, out=t)
        if counter is None:
            return np.divide(1.0, t, out=t)
        return np.divide(counter.h[i + 1:j + 1], t, out=t)

    return terms


def harmonic_ideal_sum(K: NumberField, x: int) -> float:
    """Exact finite sum of 1/N(a) over ideals of norm <= x, correctly
    rounded by ``math.fsum``: the zeta terms h(k)/k^s at s = 1, read block
    by block, with the zero terms (h(k) = 0) left out."""
    if x < 1:
        raise ValueError("x must be >= 1")
    x = int(x)
    terms = _zeta_terms(K, x, 1.0)
    blocks = (terms(lo - 1, hi - 1) for lo, hi in norm_blocks(x))
    return math.fsum(chain.from_iterable(
        part for t in blocks for part in _chunks(t[t != 0])))


def mertens_ratio(K: NumberField, cutoff: int) -> float:
    """Partial Euler product at norm cutoff divided by log(cutoff).

    By Rosen's Mertens-type theorem this approaches alpha_K * e^gamma.
    """
    if cutoff < 10:
        raise ValueError("cutoff must be >= 10")
    return euler_products_at(K, [cutoff])[0] / math.log(cutoff)


def mertens_target(alpha_K: float) -> float:
    """The Rosen-Mertens constant alpha_K * e^gamma."""
    return alpha_K * math.exp(EULER_GAMMA)


def dedekind_zeta(K: NumberField, s: float, X: int) -> tuple[float, float]:
    """Truncated Dedekind zeta value at s > 1 with an empirical tail estimate.

    Returns (value, tail_bound) with value = sum_{k<=X} h(k)/k^s.  The tail
    estimate is an empirical envelope, not a proven bound: it takes the
    largest H(x)/x sampled over [X/10, X], times a safety factor 2, as the
    ideal density beyond X; those at most 32 H(x) are point counts
    (``ideals.ideal_counts``; H(x) = x over Q).  Over a quadratic field h
    is read from the cached counter block by block.  The terms are built
    in pieces of at most 2^15 norms and added by ``ideals.pairwise_sum``
    along numpy's pairwise tree, so the value is bit for bit that of
    ``np.sum`` over one array of all X terms.
    """
    if s <= 1:
        raise SNotGreaterThanOne("truncated zeta sums require s > 1")
    if X < 10:
        raise ValueError("X must be >= 10")
    value = pairwise_sum(_zeta_terms(K, X, s), X)
    xs = np.geomspace(max(1, X // 10), X, 32).astype(np.int64)
    xs = xs[run_starts(xs)].tolist()
    c_upper = max(n / x for n, x in zip(ideal_counts(K, xs), xs))
    tail_bound = 2.0 * c_upper * (s / (s - 1.0)) * X ** (1.0 - s)
    return value, tail_bound
