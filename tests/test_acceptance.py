"""Acceptance gate: ten criteria, one PASS/FAIL line each.

Each criterion prints its verdict unconditionally (bypassing capture) and
then asserts it, so a red criterion is visible both in the printed line
and in the pytest outcome.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import idealdensity as idd
from idealdensity import cli
from idealdensity import experiments as ex
from idealdensity.ideals import gaussian_lattice_H

from conftest import (enumeration_norm_counts, full_H_and_L,
                      gaussian_lattice_counts, int_family,
                      random_explicit_family)

EULER_GAMMA_EXP = math.exp(0.57721566490153286061)
SEED = 20260824


def report(capsys, n, ok):
    with capsys.disabled():
        print(f"\nACCEPTANCE {n}: {'PASS' if ok else 'FAIL'}")
    assert ok


@pytest.fixture(scope="module")
def fields():
    return idd.make_rational_field(), idd.make_quadratic_field(-1)


def test_criterion_01_exact_rational_counts(capsys, fields):
    Q, _ = fields
    idd.count_ideals.cache_clear()
    start = time.perf_counter()
    counter = idd.count_ideals(Q, 10**6)
    H = full_H_and_L(counter)[0]
    exact = bool((H[1:] == np.arange(1, 10**6 + 1)).all())
    sieve_eq_enum = bool(
        (counter.h == enumeration_norm_counts(Q, 10**6)).all())
    elapsed = time.perf_counter() - start
    report(capsys, 1, exact and sieve_eq_enum and elapsed < 10.0)


def test_criterion_02_gaussian_residue(capsys, fields):
    _, Qi = fields
    idd.count_ideals.cache_clear()
    start = time.perf_counter()
    counter = idd.count_ideals(Qi, 10**6)
    c_hat = counter.H_of(10**6) / 10**6
    target = math.pi / 4
    within = abs(c_hat - target) / target < 0.005
    small = idd.count_ideals(Qi, 10**4)
    lattice_exact = bool((gaussian_lattice_counts(10**4) == small.h).all())
    elapsed = time.perf_counter() - start
    report(capsys, 2, within and lattice_exact and elapsed < 60.0)


def test_criterion_03_harmonic_sum_band(capsys, fields):
    ok = True
    for K in fields:
        counter = idd.count_ideals(K, 10**6)
        c_hat = counter.H_of(10**6) / 10**6
        ratio = idd.harmonic_ideal_sum(K, 10**6) / (c_hat * math.log(10**6))
        ok = ok and 0.95 <= ratio <= 1.10
    report(capsys, 3, ok)


def test_criterion_04_mertens(capsys, fields):
    Q, Qi = fields
    start = time.perf_counter()
    r_q = idd.mertens_ratio(Q, 10**6)
    r_qi = idd.mertens_ratio(Qi, 10**6)
    t_q = EULER_GAMMA_EXP
    t_qi = (math.pi / 4) * EULER_GAMMA_EXP
    elapsed = time.perf_counter() - start
    ok = (abs(r_q - t_q) / t_q < 0.05 and abs(r_qi - t_qi) / t_qi < 0.05
          and elapsed < 60.0)
    report(capsys, 4, ok)


def _floor_effect_bound(members, X):
    worst = 0
    for r in range(1, len(members) + 1):
        for sub in itertools.combinations(members, r):
            worst = max(worst, idd.intersect(list(sub)).norm)
    return 2 * len(members) * worst / X


def _subset_sum_ratio(K, members, X):
    """Exact sieve ratio: sum of +-H(X // N(lcm S)) / H(X) over subsets S."""
    H = (lambda x: x) if K.is_rational else gaussian_lattice_H
    count = 0
    for r in range(1, len(members) + 1):
        for sub in itertools.combinations(members, r):
            count += (-1) ** (r + 1) * H(X // idd.intersect(list(sub)).norm)
    return Fraction(count, H(X))


def test_criterion_05_finite_ie_vs_sieve(capsys, fields):
    Q, Qi = fields
    ok = idd.finite_ie_density(int_family(Q, 2, 3)) == Fraction(2, 3)
    ok = ok and idd.finite_ie_density(int_family(Q, 4, 6)) == Fraction(1, 3)
    for fam, exact in ((int_family(Q, 2, 3), Fraction(2, 3)),
                       (int_family(Q, 4, 6), Fraction(1, 3))):
        sieve = idd.sieve_multiples_density(fam, 10**6)
        ok = ok and abs(float(sieve - exact)) < 1e-5
    rng = random.Random(SEED)
    X = 10**6
    for K in (Q, Qi):
        for _ in range(10):
            fam = random_explicit_family(K, rng)
            exact = idd.finite_ie_density(fam)
            sieve = idd.sieve_multiples_density(fam, X)
            bound = _floor_effect_bound(list(fam.members), X)
            ok = ok and abs(float(sieve - exact)) <= bound
            ok = ok and sieve == _subset_sum_ratio(K, list(fam.members), X)
    report(capsys, 5, ok)


def test_criterion_06_powerfree_targets(capsys, fields):
    Q, Qi = fields
    res_q = ex.primepower_free_experiment(Q, 2, 10**6)
    ok = abs(res_q.summary["measured_natural"]
             - 6 / math.pi**2) <= 1e-2
    res_qi = ex.primepower_free_experiment(Qi, 2, 10**5)
    ok = ok and res_qi.params["zeta_tail_bound"] < 1e-4
    ok = ok and abs(res_qi.summary["measured_natural"]
                    - res_qi.summary["target"]) <= 1e-2
    report(capsys, 6, ok)


def test_criterion_07_monotonicity_and_inequality(capsys, fields):
    Q, Qi = fields
    rng = random.Random(SEED)
    ok = True
    for i in range(25):
        K = Q if i % 2 == 0 else Qi
        fam = random_explicit_family(K, rng)
        seq = idd.a_limit(fam, len(fam.members))
        ok = ok and all(b >= a for a, b in zip(seq, seq[1:]))
        ok = ok and seq[-1] <= 1
        bs = [idd.multiplicative_density(fam, k).b_k for k in range(1, 7)]
        ok = ok and all(b >= a for a, b in zip(bs, bs[1:]))
        rep = idd.density_profile(fam, X=10**5)
        comp = rep.complement()
        ok = ok and all(r + c == 1 for r, c in
                        zip(rep.natural_ratios, comp.natural_ratios))
        inequality_ok, _ = idd.check_density_inequality(rep, slack=1e-3)
        ok = ok and inequality_ok
    report(capsys, 7, ok)


def test_criterion_08_limit_triangle(capsys, fields):
    Q, _ = fields
    fam = idd.PrimePowerFamily(field=Q, l=2)
    # primes up to 1000: truncation tail sum of 1/p^2 beyond is < 1e-3
    r = len(idd.primes_up_to_norm(Q, 1000))
    a_final = idd.a_limit(fam, r)[-1]
    b_final = idd.multiplicative_density(fam, r).b_k
    log_ratio = idd.density_profile(fam, X=10**6).log_ratios[-1]
    ok = abs(float(a_final - b_final)) <= 1e-2
    ok = ok and abs(log_ratio - float(a_final)) <= 1e-2
    report(capsys, 8, ok)


def test_criterion_09_besicovitch(capsys, fields):
    Q, _ = fields
    result = ex.besicovitch_experiment(Q, T0=10, growth=3, depth=3, X=10**6)
    ok = result.verdict
    X = 10**6
    intervals = ex.besicovitch_intervals(10, 3, 3, X)
    marked = np.zeros(X + 1, dtype=bool)
    for lo, hi in intervals:
        for d in range(lo + 1, min(hi, X) + 1):
            marked[d::d] = True
    for row in result.rows:
        ok = ok and row[1] == int(marked[1:row[0] + 1].sum())
    report(capsys, 9, ok)


def test_criterion_10_cli_determinism(capsys, tmp_path):
    import json
    aset = tmp_path / "aset.json"
    aset.write_text(json.dumps({"field": "Q", "kind": "prime_powers",
                                "l": 2}))
    runs = []
    for threads in ("1", "8"):
        out = tmp_path / "run.csv"
        code = cli.main(["density", "--threads", threads, "--aset",
                         str(aset), "--max-norm", "20000", "--out",
                         str(out)])
        runs.append((code, out.read_bytes(),
                     out.with_suffix(".summary.json").read_bytes()))
    capsys.readouterr()
    report(capsys, 10, runs[0] == runs[1] and runs[0][0] == 0)
