"""The ``family-sweep`` workload: seeded random families in one process.

The generator is the benchmark's own and needs no ``idealdensity`` import:
it writes family documents in the JSON form ``parse_family`` reads, so the
program receives only generated inputs.  The oracles here (the density and
the finite-X multiples count by inclusion-exclusion over subsets, with the
Gaussian lattice count) are also the benchmark's own code.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import random
from fractions import Fraction

#: Norm bound of every sweep profile and sieve.
SWEEP_X = 3 * 10**5
MAX_MEMBERS = 5
MAX_MEMBER_NORM = 50
#: Prefix length for a_limit and multiplicative_density of the squarefree family.
SQUAREFREE_R = 168
FIELDS = ("Q(sqrt -1)", "Q")


def _primes_up_to(n: int) -> list[int]:
    return [p for p in range(2, n + 1)
            if all(p % d for d in range(2, math.isqrt(p) + 1))]


def gaussian_prime_ideals(bound: int) -> list[tuple[int, int, int]]:
    """(p, conjugate_index, norm) of the prime ideals of Z[i] of norm <= bound."""
    out = []
    for p in _primes_up_to(bound):
        if p == 2:
            out.append((2, 0, 2))
        elif p % 4 == 1:
            out += [(p, 0, p), (p, 1, p)]
        elif p * p <= bound:
            out.append((p, 0, p * p))
    return out


def gaussian_pool(bound: int) -> list[list[list[int]]]:
    """Every non-unit ideal of Z[i] of norm <= bound, as factor triples."""
    primes = gaussian_prime_ideals(bound)
    pool = []

    def rec(start, norm, factors):
        if factors:
            pool.append([list(f) for f in factors])
        for j in range(start, len(primes)):
            p, conj, q = primes[j]
            e, m = 1, norm * q
            while m <= bound:
                rec(j + 1, m, factors + [(p, conj, e)])
                e, m = e + 1, m * q

    rec(0, 1, [])
    return pool


def family_docs(seed: int) -> list[dict]:
    """Seeded explicit families over Q(i) and Q; the same seed, the same list.

    Each field's pool (every non-unit ideal of norm at most
    ``MAX_MEMBER_NORM``) is shuffled and dealt out into families of 1 to
    ``MAX_MEMBERS`` members, so every pool member sits in exactly one
    family.  The seed decides the grouping; the total marking work, which
    independent draws would make vary several-fold between seeds, stays
    nearly fixed.  Families alternate between the fields while both last.
    """
    rng = random.Random(seed)
    dealt = []
    for field, pool in ((FIELDS[0], gaussian_pool(MAX_MEMBER_NORM)),
                        (FIELDS[1], list(range(2, MAX_MEMBER_NORM + 1)))):
        rng.shuffle(pool)
        families = []
        while pool:
            size = rng.randint(1, MAX_MEMBERS)
            families.append(pool[:size])
            del pool[:size]
        dealt.append([{"field": field, "kind": "explicit", "members": m}
                      for m in families])
    return [doc for pair in itertools.zip_longest(*dealt) for doc in pair
            if doc is not None]


def _factor_dict(field: str, member) -> dict:
    """{(p, conjugate_index): (prime ideal norm, exponent)} of a member.

    Over Q(i), 2 ramifies, p = 1 (mod 4) splits and p = 3 (mod 4) is inert.
    """
    if field == "Q":
        out, n = {}, member
        for p in _primes_up_to(member):
            while n % p == 0:
                q, e = out.get((p, 0), (p, 0))
                out[(p, 0)] = (p, e + 1)
                n //= p
        return out
    return {(p, c): (p if p % 4 != 3 else p * p, e) for p, c, e in member}


def _lcm_norm(factor_dicts) -> int:
    exps: dict = {}
    for fd in factor_dicts:
        for key, (q, e) in fd.items():
            exps[key] = (q, max(e, exps.get(key, (q, 0))[1]))
    return math.prod(q ** e for q, e in exps.values())


def _subsets(items):
    for r in range(1, len(items) + 1):
        yield from itertools.combinations(items, r)


def exact_density(doc: dict) -> Fraction:
    """Density of the multiples of an explicit family, over all subsets."""
    fds = [_factor_dict(doc["field"], m) for m in doc["members"]]
    return sum((Fraction((-1) ** (len(s) + 1), _lcm_norm(s))
                for s in _subsets(fds)), Fraction(0))


@functools.lru_cache(maxsize=None)
def lattice_H(x: int) -> int:
    """Ideals of Z[i] of norm <= x: lattice points 0 < a^2 + b^2 <= x, over 4."""
    return sum(2 * math.isqrt(x - a * a) + 1
               for a in range(-math.isqrt(x), math.isqrt(x) + 1)) // 4


def sieve_ratio(doc: dict, X: int) -> Fraction:
    """Exact share of ideals of norm <= X that are multiples of the family.

    The multiples of an ideal of norm n correspond to the ideals of norm
    <= X/n, so inclusion-exclusion over subsets counts the union with
    H(x) = x over Q and the lattice count over Q(i).
    """
    H = (lambda x: x) if doc["field"] == "Q" else lattice_H
    fds = [_factor_dict(doc["field"], m) for m in doc["members"]]
    count = sum((-1) ** (len(s) + 1) * H(X // _lcm_norm(s))
                for s in _subsets(fds))
    return Fraction(count, H(X))


def _complement_exact(report) -> bool:
    comp = report.complement()
    return (all(a + b == 1 for a, b in zip(report.natural_ratios,
                                           comp.natural_ratios))
            and all(a + b == 1.0 for a, b in zip(report.log_ratios,
                                                 comp.log_ratios))
            and all(m + v == t for m, v, t in zip(report.member_counts,
                                                  comp.member_counts,
                                                  report.total_counts)))


def _nondecreasing(seq) -> bool:
    return all(a <= b for a, b in zip(seq, seq[1:]))


def profile_digest(*parts) -> str:
    """sha256 of the repr of exact values and float ratios, in order."""
    return hashlib.sha256(repr(parts).encode()).hexdigest()


def run_sweep(idd, seed: int, X: int = SWEEP_X) -> list[dict]:
    """Run every sweep operation; one result dict per operation.

    A result holds the name, the failed checks and, for the squarefree
    family, the digest `run.py` compares with the golden one.  An
    exception fails its operation and the sweep goes on.
    """
    results = []
    for i, doc in enumerate(family_docs(seed)):
        name = f"family{i}:{doc['field']}"
        try:
            fam = idd.parse_family(doc)
            exact = idd.finite_ie_density(fam)
            seq = idd.a_limit(fam, r_max=len(fam.members))
            sieve = idd.sieve_multiples_density(fam, X)
            report = idd.density_profile(fam, X=X)
            checks = {
                "exact_density": exact == exact_density(doc),
                "a_limit_nondecreasing": _nondecreasing(seq),
                "a_limit_final": seq[-1] == exact,
                "sieve_exact_count": sieve == sieve_ratio(doc, X),
                "profile_matches_sieve": report.natural_ratios[-1] == sieve,
                "complement_sums_to_1": _complement_exact(report),
            }
        except Exception as exc:  # a failed operation never aborts the sweep
            checks = {f"raised {type(exc).__name__}: {exc}": False}
        results.append({"name": name,
                        "failed": [k for k, ok in checks.items() if not ok]})
    try:
        fam = idd.parse_family({"field": "Q", "kind": "prime_powers", "l": 2})
        seq = idd.a_limit(fam, r_max=SQUAREFREE_R)
        mult = idd.multiplicative_density(fam, k=SQUAREFREE_R)
        report = idd.density_profile(fam, X=X)
        checks = {
            "a_limit_nondecreasing": _nondecreasing(seq),
            "a_limit_equals_b_k": seq[-1] == mult.b_k,
            "complement_sums_to_1": _complement_exact(report),
        }
        digest = profile_digest(str(seq[-1]), str(mult.b_k),
                                report.member_counts, report.log_ratios)
    except Exception as exc:  # a failed operation never aborts the sweep
        checks, digest = {f"raised {type(exc).__name__}: {exc}": False}, None
    results.append({"name": "squarefree:Q",
                    "failed": [k for k, ok in checks.items() if not ok],
                    "digest": digest})
    return results
